//! Differential request-path oracle for the staged net pipeline, as an
//! instance of [`crate::harness`].
//!
//! The staged pipeline ([`w5_net::Pipeline`]) claims to preserve, response
//! by response, the behavior of calling the handler directly — while
//! adding bounded per-class queues, deficit-round-robin fairness and
//! admission control in front of it. The bare arm is exactly that claim's
//! other side: the [`w5_net::Handler`] behind a five-line [`w5_net::Serve`]
//! impl (`BareHandler`). Both engines replay the same seeded request
//! schedule, serially and under real OS threads, and must agree on
//! everything an HTTP client could see: status codes, bodies, and the
//! platform's retained fault log.
//!
//! What is deliberately **excluded** from the comparison is the queue
//! metadata the pipeline emits into the obs ledger (`QueueAdmit`,
//! `QueueShed`, `WorkerOccupancy`): the bare handler has no queues, so
//! those events exist on one side by design. Run digests therefore go
//! through [`w5_obs::Ledger::digest_where`] with the queue events filtered
//! out — queue telemetry aside, both engines must drive the platform
//! through a bit-identical event stream.
//!
//! Client `c` targets only its own app `nd{c}/app{c}`, which touches only
//! its own table `ndt{c}`. Both engines run the handler on the client's
//! own thread, under its injector, so the `SqlQuery` aborts a client sees
//! follow it on every arm. The arms classify requests (so DRR fairness and
//! per-class queues are really exercised) but never charge:
//! resource-container verdicts depend on shared counters and are covered by
//! `w5_platform::boundary` unit tests and the noninterference suite instead.
//!
//! A third instance, [`Storm`], arms the pipeline's *own* fault sites
//! (`net.queue_full`, `net.slow_worker`) via [`w5_net::PipelineConfig::chaos`]
//! and asserts graceful degradation: every shed is a well-formed 503 with a
//! `Retry-After` header and a labeled fault-report body — never a hang,
//! never a malformed response.

use crate::harness::{self, Mode, Oracle, Run, Spec};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;
use w5_chaos::{FaultPlan, Injector, Site};
use w5_difc::LabelPair;
use w5_net::{
    Admission, ChargeDenied, ChargePoint, Handler, Pipeline, PipelineConfig, PipelineSnapshot,
    PrincipalClass, Request, Response, Serve,
};
use w5_obs::{EventKind, Ledger};
use w5_platform::{
    ApiError, AppManifest, AppRequest, AppResponse, CreateLabels, Gateway, Platform, PlatformApi,
    W5App,
};
use w5_store::{QueryCost, QueryMode, Subject};

/// Insert/point ids are drawn from this domain, small enough that gets,
/// deletes and re-inserts regularly collide with live rows.
const ID_DOMAIN: i64 = 24;

/// The observable outcome of one run. Two arms replaying the same [`Spec`]
/// must compare equal, whatever the engine or interleaving.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct NetOutcome {
    /// Per-client FNV-1a digests folded over every response (status and
    /// body — never queue position or timing).
    pub digests: Vec<u64>,
    /// Status-code tallies summed over all clients (each client's tally
    /// is deterministic, so the sum is interleaving-invariant).
    pub statuses: BTreeMap<u16, u64>,
    /// The platform's retained fault log, rendered and sorted (client
    /// completion order must not leak into the comparison).
    pub faults: Vec<String>,
}

/// One request of a client's schedule.
#[derive(Clone, Debug)]
pub enum Op {
    /// `PUT`-shaped insert into the client's own table.
    Put { id: i64, v: i64 },
    /// Point lookup.
    Get { id: i64 },
    /// Full-table aggregate.
    Sum,
    /// Point delete.
    Del { id: i64 },
    /// Handler panic — the pipeline and the platform must both survive
    /// and answer 500.
    Boom,
    /// A static provider route (`GET /registry`).
    Registry,
    /// A route that matches nothing (404 path).
    Missing,
}

fn gen_op(rng: &mut StdRng) -> Op {
    match rng.gen_range(0..100u32) {
        0..=29 => Op::Put { id: rng.gen_range(0..ID_DOMAIN), v: rng.gen_range(0..1000) },
        30..=54 => Op::Get { id: rng.gen_range(0..ID_DOMAIN) },
        55..=66 => Op::Sum,
        67..=81 => Op::Del { id: rng.gen_range(0..ID_DOMAIN) },
        82..=87 => Op::Boom,
        88..=93 => Op::Registry,
        _ => Op::Missing,
    }
}

/// The per-client harness application: four SQL actions on the client's
/// own table plus a deliberate panic. Every response body is a pure
/// function of the table state the client's own requests built.
struct NdApp {
    table: String,
}

impl W5App for NdApp {
    fn handle(&self, req: &AppRequest, api: &mut PlatformApi<'_>) -> Result<AppResponse, ApiError> {
        let t = &self.table;
        let param = |k: &str| -> i64 {
            req.params.get(k).and_then(|v| v.parse().ok()).unwrap_or(0)
        };
        match req.action.as_str() {
            "put" => {
                let out = api.query(
                    &format!("INSERT INTO {t} VALUES ({}, {})", param("id"), param("v")),
                    CreateLabels::Derived,
                )?;
                Ok(AppResponse::text(format!("put {}", out.affected)))
            }
            "get" => {
                let out = api.query(
                    &format!("SELECT v FROM {t} WHERE id = {} ORDER BY v", param("id")),
                    CreateLabels::Derived,
                )?;
                let vals: Vec<String> =
                    out.rows.iter().map(|r| format!("{:?}", r.values)).collect();
                Ok(AppResponse::text(vals.join(";")))
            }
            "sum" => {
                let out = api.query(
                    &format!("SELECT COUNT(*), SUM(v) FROM {t}"),
                    CreateLabels::Derived,
                )?;
                Ok(AppResponse::text(format!("{:?}", out.rows[0].values)))
            }
            "del" => {
                let out = api.query(
                    &format!("DELETE FROM {t} WHERE id = {}", param("id")),
                    CreateLabels::Derived,
                )?;
                Ok(AppResponse::text(format!("del {}", out.affected)))
            }
            "boom" => panic!("netdiff boom"),
            other => Ok(AppResponse::text(format!("noop {other}"))),
        }
    }

    fn source_lines(&self) -> usize {
        40
    }
}

/// A platform with one table, one manifest and one installed app per
/// client, created in client order so tag and version allocation aligns
/// across arms.
fn platform(name: &str, spec: &Spec) -> Arc<Platform> {
    let platform = Platform::new_default(name);
    let trusted = Subject::anonymous();
    for c in 0..spec.threads {
        platform
            .db
            .execute(
                &trusted,
                QueryMode::Filtered,
                QueryCost::unlimited(),
                &LabelPair::public(),
                &format!("CREATE TABLE ndt{c} (id INTEGER, v INTEGER)"),
            )
            .expect("setup: create table");
        platform
            .apps
            .publish(AppManifest {
                name: format!("app{c}"),
                developer: format!("nd{c}"),
                version: 1,
                description: "netdiff harness app".into(),
                module_slots: vec![],
                imports: vec![],
                forked_from: None,
                source: None,
            })
            .expect("setup: publish");
        platform.install_app(&format!("nd{c}/app{c}"), Arc::new(NdApp { table: format!("ndt{c}") }));
    }
    platform
}

/// Classifying admission with no resource charging: requests to
/// `/app/:dev/:app/…` queue under that app's class, everything else is
/// anonymous. Keeps the DRR scheduler honest without coupling the oracle
/// to shared quota counters.
struct ClassifyOnly;

impl Admission for ClassifyOnly {
    fn classify(&self, request: &Request, _peer: SocketAddr) -> PrincipalClass {
        let mut segs = request.path.split('/').filter(|s| !s.is_empty());
        if segs.next() == Some("app") {
            if let (Some(dev), Some(app)) = (segs.next(), segs.next()) {
                return PrincipalClass::App(format!("{dev}/{app}"));
            }
        }
        PrincipalClass::Anonymous
    }

    fn charge(
        &self,
        _class: &PrincipalClass,
        _point: ChargePoint,
        _bytes: u64,
    ) -> Result<(), ChargeDenied> {
        Ok(())
    }
}

/// The reference arm: the handler with nothing in front of it — no
/// admission, no queue, no bound on concurrent calls, no `catch_unwind`.
struct BareHandler(Arc<dyn Handler>);

impl Serve for BareHandler {
    fn serve(&self, request: Request, peer: SocketAddr) -> Response {
        self.0.handle(request, peer)
    }
}

/// Build the HTTP request for one op. `Request::get` does not split a
/// query string off the path, so `query_raw` is set explicitly.
fn build_request(c: usize, op: &Op) -> Request {
    let (path, query) = match op {
        Op::Put { id, v } => (format!("/app/nd{c}/app{c}/put"), format!("id={id}&v={v}")),
        Op::Get { id } => (format!("/app/nd{c}/app{c}/get"), format!("id={id}")),
        Op::Sum => (format!("/app/nd{c}/app{c}/sum"), String::new()),
        Op::Del { id } => (format!("/app/nd{c}/app{c}/del"), format!("id={id}")),
        Op::Boom => (format!("/app/nd{c}/app{c}/boom"), String::new()),
        Op::Registry => ("/registry".to_string(), String::new()),
        Op::Missing => ("/definitely/nosuch".to_string(), String::new()),
    };
    let mut req = Request::get(&path);
    req.query_raw = query;
    req
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fold(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

/// Fold one response into a client digest: status and body, nothing that
/// could encode queue position or timing.
fn fold_response(h: &mut u64, i: usize, resp: &Response) {
    fold(h, &(i as u64).to_le_bytes());
    fold(h, &resp.status.0.to_le_bytes());
    fold(h, &resp.body);
    fold(h, b"|");
}

/// Events the pipeline emits about its own queues — excluded from
/// cross-engine ledger comparison because the bare handler has no
/// queues to report on.
fn is_queue_metadata(kind: &EventKind) -> bool {
    matches!(
        kind,
        EventKind::QueueAdmit { .. }
            | EventKind::QueueShed { .. }
            | EventKind::WorkerOccupancy { .. }
    )
}

fn peer(c: usize) -> SocketAddr {
    format!("127.0.0.1:{}", 40_000 + c).parse().expect("static addr")
}

/// The net oracle: which engine serves the requests.
#[derive(Clone, Copy, Debug)]
pub enum NetOracle {
    /// The handler with nothing in front of it.
    Bare,
    /// The staged pipeline — queues, DRR rotation and slot grants all live.
    Pipelined,
}

/// What every client of a [`NetOracle`] run shares.
pub struct NetWorld {
    platform: Arc<Platform>,
    pipeline: Option<Arc<Pipeline>>,
    engine: Arc<dyn Serve>,
}

impl Oracle for NetOracle {
    const NAME: &'static str = "netdiff";
    const SITES: &'static [Site] = &[Site::SqlQuery];
    type Op = Op;
    type Seq = usize;
    type Step = Response;
    type World = NetWorld;
    type Outcome = NetOutcome;

    fn gen_op(rng: &mut StdRng) -> Op {
        gen_op(rng)
    }

    fn setup(&self, spec: &Spec) -> (NetWorld, Vec<usize>) {
        let platform = platform("netdiff", spec);
        let gateway: Arc<dyn Handler> = Arc::new(Gateway::new(Arc::clone(&platform)));
        let (pipeline, engine): (_, Arc<dyn Serve>) = match self {
            NetOracle::Bare => (None, Arc::new(BareHandler(gateway))),
            NetOracle::Pipelined => {
                let config = PipelineConfig { workers: 4, ..PipelineConfig::default() };
                let p = Pipeline::start(config, gateway, Arc::new(ClassifyOnly));
                (Some(Arc::clone(&p)), p)
            }
        };
        (NetWorld { platform, pipeline, engine }, (0..spec.threads).collect())
    }

    fn apply(world: &NetWorld, &mut c: &mut usize, op: &Op) -> Response {
        world.engine.serve(build_request(c, op), peer(c))
    }

    fn observe(&self, world: NetWorld, _: Vec<usize>, steps: Vec<Vec<Response>>, _: &Ledger) -> NetOutcome {
        let mut statuses: BTreeMap<u16, u64> = BTreeMap::new();
        let digests = steps
            .iter()
            .map(|responses| {
                let mut h = FNV_OFFSET;
                for (i, resp) in responses.iter().enumerate() {
                    fold_response(&mut h, i, resp);
                    *statuses.entry(resp.status.0).or_insert(0) += 1;
                }
                h
            })
            .collect();
        if let Some(p) = &world.pipeline {
            p.stop();
            let snap = p.stats.snapshot();
            assert_eq!(snap.shed, 0, "oracle arms must never shed (queues sized for the load)");
            assert_eq!(snap.quota_denied, 0, "ClassifyOnly never charges");
        }
        let mut faults: Vec<String> =
            world.platform.fault_reports().iter().map(|f| f.to_log_line()).collect();
        faults.sort();
        NetOutcome { digests, statuses, faults }
    }

    fn digest(ledger: &Ledger) -> u64 {
        ledger.digest_where(|k| !is_queue_metadata(k))
    }
}

/// The full differential check, used by tests and CI: bare serial ≡
/// pipelined serial ≡ pipelined under threads ≡ bare under threads on the
/// whole observable surface, with the serial event streams (queue metadata
/// aside) bit-identical across engines and stable under replay. Returns the
/// runs in that order.
pub fn assert_net_differential(spec: &Spec) -> Vec<Run<NetOutcome>> {
    use Mode::{Serial, Threads};
    use NetOracle::{Bare, Pipelined};
    let runs = harness::assert_arms(spec, &[(Bare, Serial), (Pipelined, Serial), (Pipelined, Threads), (Bare, Threads)]);
    assert_eq!(
        runs[0].digest, runs[1].digest,
        "serial ledger streams diverged between engines (beyond queue metadata)"
    );
    runs
}

/// Storm verdict: the pipeline's own fault sites armed, overload forced,
/// and every degraded answer still well-formed.
#[derive(Clone, Debug)]
pub struct StormReport {
    /// Final pipeline counters.
    pub stats: PipelineSnapshot,
    /// Faults the pipeline's injector actually fired.
    pub injected: u64,
    /// Responses observed, by status.
    pub statuses: BTreeMap<u16, u64>,
}

/// The pipelined engine with `net.queue_full` / `net.slow_worker` armed
/// through [`PipelineConfig::chaos`] (seeded from `Spec::seed`) in front of
/// a deliberately tiny queue. No ambient site is armed. Every response must
/// carry a known status, and every 503 a positive `Retry-After` and a
/// labeled fault-report body; `apply` panics on the first that does not.
#[derive(Clone, Copy, Debug)]
pub struct Storm;

/// The storm's pipeline and the injector its own sites roll.
pub struct StormWorld {
    pipeline: Arc<Pipeline>,
    injector: Arc<Injector>,
}

impl Oracle for Storm {
    const NAME: &'static str = "netdiff-storm";
    const SITES: &'static [Site] = &[];
    type Op = Op;
    type Seq = usize;
    type Step = u16;
    type World = StormWorld;
    type Outcome = StormReport;

    fn gen_op(rng: &mut StdRng) -> Op {
        gen_op(rng)
    }

    fn setup(&self, spec: &Spec) -> (StormWorld, Vec<usize>) {
        let injector = Injector::new(
            FaultPlan::new(spec.seed).with(Site::NetQueueFull, 0.15).with(Site::NetSlowWorker, 0.10),
        );
        let gateway = Arc::new(Gateway::new(platform("netdiff-storm", spec)));
        let config = PipelineConfig {
            workers: 2,
            queue_depth: 2,
            chaos: Some(Arc::clone(&injector)),
            ..PipelineConfig::default()
        };
        let pipeline = Pipeline::start(config, gateway, Arc::new(ClassifyOnly));
        (StormWorld { pipeline, injector }, (0..spec.threads).collect())
    }

    fn apply(world: &StormWorld, &mut c: &mut usize, op: &Op) -> u16 {
        let resp = world.pipeline.serve(build_request(c, op), peer(c));
        let status = resp.status.0;
        let known = matches!(status, 200 | 400 | 404 | 429 | 500 | 503);
        assert!(known, "storm produced unexpected status {status}");
        if status == 503 {
            let retry: u64 = resp
                .header("retry-after")
                .expect("503 must carry Retry-After")
                .parse()
                .expect("Retry-After must be integral seconds");
            assert!(retry >= 1, "Retry-After must be positive");
            let body = String::from_utf8_lossy(&resp.body);
            let labeled = body.contains("fault app=net/pipeline");
            assert!(labeled, "503 body must be a labeled fault report, got: {body}");
        }
        status
    }

    fn observe(&self, world: StormWorld, _: Vec<usize>, steps: Vec<Vec<u16>>, _: &Ledger) -> StormReport {
        world.pipeline.stop();
        let mut statuses: BTreeMap<u16, u64> = BTreeMap::new();
        for &status in steps.iter().flatten() {
            *statuses.entry(status).or_insert(0) += 1;
        }
        StormReport {
            stats: world.pipeline.stats.snapshot(),
            injected: world.injector.report().total_injected(),
            statuses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::run;

    #[test]
    fn four_arms_agree_on_default_spec() {
        assert_net_differential(&Spec { seed: 2007, threads: 4, ops_per_thread: 30, fault_rate: 0.05 });
    }

    #[test]
    fn calm_run_agrees_without_faults() {
        assert_net_differential(&Spec { seed: 11, threads: 2, ops_per_thread: 25, fault_rate: 0.0 });
    }

    #[test]
    fn workload_actually_exercises_the_stack() {
        let out = run(&NetOracle::Pipelined, &Spec::new(20070824, 40), Mode::Serial).outcome;
        assert!(out.statuses.contains_key(&200), "some requests must succeed");
        assert!(out.statuses.contains_key(&404), "missing route must 404");
        assert!(out.statuses.contains_key(&500), "boom must crash to 500");
        assert!(
            out.faults.iter().any(|f| f.contains("kind=crash")),
            "crash faults must be retained for developers"
        );
        assert!(
            out.faults.iter().any(|f| f.contains("kind=infrastructure")),
            "sql chaos must surface as infrastructure faults"
        );
    }

    #[test]
    fn storm_degrades_gracefully() {
        let spec = Spec { seed: 4242, threads: 4, ops_per_thread: 40, fault_rate: 0.0 };
        let report = run(&Storm, &spec, Mode::Threads).outcome;
        assert!(report.injected > 0, "storm must fire");
        assert!(report.stats.shed > 0, "forced queue-full faults must shed");
        assert!(report.statuses.contains_key(&503), "sheds must surface as 503s");
        assert!(report.statuses.contains_key(&200), "healthy requests must still succeed");
    }
}
