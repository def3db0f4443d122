//! Differential request-path oracle for the staged net pipeline.
//!
//! The staged pipeline ([`w5_net::Pipeline`]) claims to preserve, response
//! by response, the behavior of calling the handler directly — while
//! adding bounded per-class queues, deficit-round-robin fairness and
//! admission control in front of it. The reference arm is exactly that
//! claim's other side: the bare [`w5_net::Handler`] behind a five-line
//! [`w5_net::Serve`] impl (`BareHandler`). This module checks the claim
//! the way the kernel and store oracles do: replay the *same seeded
//! request schedule* through both — under real OS threads and serially,
//! by the shared driver in `crate::drive` — and compare everything an
//! HTTP client could see: status codes, bodies, and the platform's
//! retained fault log.
//!
//! What is deliberately **excluded** from the comparison is the queue
//! metadata the pipeline emits into the obs ledger (`QueueAdmit`,
//! `QueueShed`, `WorkerOccupancy`): the bare handler has no queues,
//! so those events exist on one side by design. Serial ledger digests are
//! therefore compared through [`w5_obs::Ledger::digest_where`] with the
//! queue events filtered out — queue telemetry aside, both engines must
//! drive the platform through a bit-identical event stream.
//!
//! # Why the schedules are interleaving-invariant
//!
//! * **Ownership** — client `c` targets only its own app `nd{c}/app{c}`
//!   and that app touches only its own table `ndt{c}`, so every response
//!   is a pure function of one client's deterministic request sequence.
//! * **Per-client chaos** — each client carries its own
//!   [`w5_chaos::Injector`] for `Site::SqlQuery`. Both engines run the
//!   handler on the client's own thread, under its ambient injector, so
//!   the abort stream a client's handlers experience depends only on
//!   `(seed, client)` — identical across all four arms.
//! * **Admission without charging** — the oracle arms classify requests
//!   (so DRR fairness and per-class queues are really exercised) but
//!   never charge: resource-container verdicts depend on shared counters
//!   and are covered by `w5_platform::boundary` unit tests and the
//!   noninterference suite instead.
//!
//! A separate storm entry point ([`run_pipeline_storm`]) arms the
//! pipeline's *own* fault sites (`net.queue_full`, `net.slow_worker`)
//! via [`w5_net::PipelineConfig::chaos`] and asserts graceful
//! degradation: every shed is a well-formed 503 with a `Retry-After`
//! header and a labeled fault-report body — never a hang, never a
//! malformed response.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread;
use w5_difc::LabelPair;
use w5_net::{
    Admission, ChargeDenied, ChargePoint, Handler, Pipeline, PipelineConfig,
    PipelineSnapshot, PrincipalClass, Request, Response, Serve,
};
use w5_obs::{EventKind, Ledger};
use w5_platform::{
    ApiError, AppManifest, AppRequest, AppResponse, CreateLabels, Gateway, Platform, PlatformApi,
    W5App,
};
use w5_store::{QueryCost, QueryMode, Subject};
use w5_sync::lockdep;

/// Insert/point ids are drawn from this domain, small enough that gets,
/// deletes and re-inserts regularly collide with live rows.
const ID_DOMAIN: i64 = 24;

/// One differential run: a schedule seed, a client count, a length, and a
/// storm rate for the handler-stage `SqlQuery` fault site.
#[derive(Clone, Copy, Debug)]
pub struct NetSpec {
    /// Seeds every client's request stream and fault plan.
    pub seed: u64,
    /// Concurrent clients; each owns one app and one table.
    pub clients: usize,
    /// Requests each client issues.
    pub requests_per_client: usize,
    /// Injection probability for `Site::SqlQuery` (0.0 = calm).
    pub fault_rate: f64,
}

impl NetSpec {
    /// A moderate default: 4 clients, 40 requests each, a light storm.
    pub fn new(seed: u64) -> NetSpec {
        NetSpec { seed, clients: 4, requests_per_client: 40, fault_rate: 0.05 }
    }
}

/// The observable outcome of one run. Two arms replaying the same
/// [`NetSpec`] must compare equal, whatever the engine or interleaving.
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

/// One arm's result: the comparable outcome plus the arm's private
/// ledger digest with the pipeline's queue-metadata events filtered out.
#[derive(Clone, Debug)]
pub struct NetRun {
    /// The interleaving-invariant observable surface.
    pub outcome: NetOutcome,
    /// `Ledger::digest_where` over everything except `QueueAdmit` /
    /// `QueueShed` / `WorkerOccupancy` — comparable across engines for
    /// serial arms, and across repeated serial runs of one engine.
    pub ledger_digest: u64,
}

/// One request of a client's schedule.
#[derive(Clone, Debug)]
enum Op {
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

fn gen_ops(spec: &NetSpec, c: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(
        spec.seed ^ (c as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    (0..spec.requests_per_client)
        .map(|_| match rng.gen_range(0..100u32) {
            0..=29 => Op::Put { id: rng.gen_range(0..ID_DOMAIN), v: rng.gen_range(0..1000) },
            30..=54 => Op::Get { id: rng.gen_range(0..ID_DOMAIN) },
            55..=66 => Op::Sum,
            67..=81 => Op::Del { id: rng.gen_range(0..ID_DOMAIN) },
            82..=87 => Op::Boom,
            88..=93 => Op::Registry,
            _ => Op::Missing,
        })
        .collect()
}

fn injector_for(spec: &NetSpec, c: usize) -> Arc<w5_chaos::Injector> {
    w5_chaos::Injector::new(
        w5_chaos::FaultPlan::new(spec.seed ^ (c as u64 + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93))
            .with(w5_chaos::Site::SqlQuery, spec.fault_rate),
    )
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

/// Identical single-threaded setup for every arm: one table, one
/// manifest and one installed app per client, created in client order so
/// tag and version allocation aligns across arms.
fn setup(platform: &Arc<Platform>, spec: &NetSpec) {
    let trusted = Subject::anonymous();
    for c in 0..spec.clients {
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

/// One pass over a client's schedule: per-response digest fold plus a
/// human-readable status tally.
fn drive_client(engine: &dyn Serve, c: usize, ops: &[Op]) -> (u64, BTreeMap<u16, u64>) {
    let mut h = FNV_OFFSET;
    let mut counts = BTreeMap::new();
    for (i, op) in ops.iter().enumerate() {
        let resp = engine.serve(build_request(c, op), peer(c));
        fold_response(&mut h, i, &resp);
        *counts.entry(resp.status.0).or_insert(0) += 1;
    }
    (h, counts)
}

/// Drive one engine through the spec's schedule. `concurrent` selects
/// real OS threads (one per client) vs. a serial replay of the same
/// per-client sequences.
fn run_arm(spec: &NetSpec, pipelined: bool, concurrent: bool) -> NetRun {
    assert!(spec.clients >= 1, "need at least one client");
    let ledger = Arc::new(Ledger::new());
    let _obs_guard = w5_obs::scoped(Arc::clone(&ledger));
    let recorder = crate::lockgate::recorder(None);
    let _lock_guard = lockdep::scoped(Arc::clone(&recorder));

    let platform = Platform::new_default("netdiff");
    setup(&platform, spec);
    let gateway: Arc<dyn Handler> = Arc::new(Gateway::new(Arc::clone(&platform)));
    let pipeline = if pipelined {
        Some(Pipeline::start(
            PipelineConfig { workers: 4, ..PipelineConfig::default() },
            Arc::clone(&gateway),
            Arc::new(ClassifyOnly),
        ))
    } else {
        None
    };
    let engine: Arc<dyn Serve> = match &pipeline {
        Some(p) => Arc::clone(p) as Arc<dyn Serve>,
        None => Arc::new(BareHandler(gateway)),
    };

    let mut op_lists: Vec<Vec<Op>> = (0..spec.clients).map(|c| gen_ops(spec, c)).collect();
    let injectors: Vec<Arc<w5_chaos::Injector>> =
        (0..spec.clients).map(|c| injector_for(spec, c)).collect();

    // Both engines run the handler on the calling thread, so each client's
    // fault stream follows it whichever way the schedule is driven.
    let results = crate::drive::drive(&mut op_lists, &injectors, concurrent, |c, ops| {
        drive_client(engine.as_ref(), c, ops)
    });
    let mut statuses: BTreeMap<u16, u64> = BTreeMap::new();
    let mut digests = Vec::with_capacity(results.len());
    for (digest, counts) in results {
        digests.push(digest);
        for (status, n) in counts {
            *statuses.entry(status).or_insert(0) += n;
        }
    }

    if let Some(p) = &pipeline {
        p.stop();
        let snap = p.stats.snapshot();
        assert_eq!(snap.shed, 0, "oracle arms must never shed (queues sized for the load)");
        assert_eq!(snap.quota_denied, 0, "ClassifyOnly never charges");
    }

    let mut faults: Vec<String> =
        platform.fault_reports().iter().map(|f| f.to_log_line()).collect();
    faults.sort();

    recorder.note("harness", "netdiff");
    recorder.note("engine", if pipelined { "pipeline" } else { "reference" });
    crate::lockgate::enforce(&recorder, "netdiff");

    NetRun {
        outcome: NetOutcome { digests, statuses, faults },
        ledger_digest: ledger.digest_where(|k| !is_queue_metadata(k)),
    }
}

/// Reference (seed thread-per-connection semantics), serial replay.
pub fn run_reference_serial(spec: &NetSpec) -> NetRun {
    run_arm(spec, false, false)
}

/// Staged pipeline, serial replay.
pub fn run_pipelined_serial(spec: &NetSpec) -> NetRun {
    run_arm(spec, true, false)
}

/// Reference engine under real client threads.
pub fn run_reference_concurrent(spec: &NetSpec) -> NetRun {
    run_arm(spec, false, true)
}

/// Staged pipeline under real client threads — queues, DRR rotation and
/// slot grants all live.
pub fn run_pipelined_concurrent(spec: &NetSpec) -> NetRun {
    run_arm(spec, true, true)
}

/// The full four-arm differential check, used by tests and CI: pipelined
/// concurrent ≡ reference concurrent ≡ reference serial ≡ pipelined
/// serial on the whole observable surface, with serial event streams
/// (queue metadata aside) bit-identical across engines and stable under
/// replay. Panics with a labeled diff on the first mismatch.
pub fn assert_net_differential(spec: &NetSpec) {
    let ref_serial = run_reference_serial(spec);
    let pipe_serial = run_pipelined_serial(spec);
    assert_eq!(
        ref_serial.outcome, pipe_serial.outcome,
        "serial replay diverged between reference and pipelined engines"
    );
    // Queue metadata aside, the pipeline must drive the platform through
    // the same event stream the reference does.
    assert_eq!(
        ref_serial.ledger_digest, pipe_serial.ledger_digest,
        "serial ledger streams diverged between engines (beyond queue metadata)"
    );
    // Replay determinism: a second serial run of each engine must emit a
    // bit-identical private event stream.
    let ref_again = run_reference_serial(spec);
    assert_eq!(
        ref_serial.ledger_digest, ref_again.ledger_digest,
        "reference serial ledger digest is not replay-deterministic"
    );
    let pipe_again = run_pipelined_serial(spec);
    assert_eq!(
        pipe_serial.ledger_digest, pipe_again.ledger_digest,
        "pipelined serial ledger digest is not replay-deterministic"
    );
    let pipe_conc = run_pipelined_concurrent(spec);
    assert_eq!(
        ref_serial.outcome, pipe_conc.outcome,
        "pipelined engine under threads diverged from the serial oracle"
    );
    let ref_conc = run_reference_concurrent(spec);
    assert_eq!(
        ref_serial.outcome, ref_conc.outcome,
        "reference engine under threads diverged from its own serial replay \
         (schedule is not interleaving-invariant — harness bug)"
    );
}

/// Storm verdict: the pipeline's own fault sites armed, overload forced,
/// and every degraded answer still well-formed.
#[derive(Clone, Debug)]
pub struct StormReport {
    /// Final pipeline counters.
    pub stats: PipelineSnapshot,
    /// Faults the injector actually fired.
    pub injected: u64,
    /// Responses observed, by status.
    pub statuses: BTreeMap<u16, u64>,
}

/// Drive the pipelined engine with `net.queue_full` / `net.slow_worker`
/// armed through [`PipelineConfig::chaos`] and a deliberately tiny queue,
/// asserting graceful degradation: every response carries a known status,
/// and every 503 carries a positive `Retry-After` and a labeled
/// fault-report body. Panics on the first malformed answer.
pub fn run_pipeline_storm(spec: &NetSpec) -> StormReport {
    let injector = w5_chaos::Injector::new(
        w5_chaos::FaultPlan::new(spec.seed)
            .with(w5_chaos::Site::NetQueueFull, 0.15)
            .with(w5_chaos::Site::NetSlowWorker, 0.10),
    );
    let platform = Platform::new_default("netdiff-storm");
    setup(&platform, spec);
    let gateway: Arc<dyn Handler> = Arc::new(Gateway::new(Arc::clone(&platform)));
    let pipeline = Pipeline::start(
        PipelineConfig {
            workers: 2,
            queue_depth: 2,
            chaos: Some(Arc::clone(&injector)),
            ..PipelineConfig::default()
        },
        gateway,
        Arc::new(ClassifyOnly),
    );

    let op_lists: Vec<Vec<Op>> = (0..spec.clients).map(|c| gen_ops(spec, c)).collect();
    let statuses: BTreeMap<u16, u64> = thread::scope(|s| {
        let handles: Vec<_> = op_lists
            .iter()
            .enumerate()
            .map(|(c, ops)| {
                let engine = Arc::clone(&pipeline);
                s.spawn(move || {
                    let mut counts = BTreeMap::new();
                    for op in ops {
                        let resp = engine.serve(build_request(c, op), peer(c));
                        let status = resp.status.0;
                        assert!(
                            matches!(status, 200 | 400 | 404 | 429 | 500 | 503),
                            "storm produced unexpected status {status}"
                        );
                        if status == 503 {
                            let retry: u64 = resp
                                .header("retry-after")
                                .expect("503 must carry Retry-After")
                                .parse()
                                .expect("Retry-After must be integral seconds");
                            assert!(retry >= 1, "Retry-After must be positive");
                            let body = String::from_utf8_lossy(&resp.body);
                            assert!(
                                body.contains("fault app=net/pipeline"),
                                "503 body must be a labeled fault report, got: {body}"
                            );
                        }
                        *counts.entry(status).or_insert(0) += 1;
                    }
                    counts
                })
            })
            .collect();
        let mut total: BTreeMap<u16, u64> = BTreeMap::new();
        for h in handles {
            for (status, n) in h.join().expect("storm client panicked") {
                *total.entry(status).or_insert(0) += n;
            }
        }
        total
    });
    pipeline.stop();
    StormReport {
        stats: pipeline.stats.snapshot(),
        injected: injector.report().total_injected(),
        statuses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_arms_agree_on_default_spec() {
        assert_net_differential(&NetSpec {
            seed: 2007,
            clients: 4,
            requests_per_client: 30,
            fault_rate: 0.05,
        });
    }

    #[test]
    fn calm_run_agrees_without_faults() {
        let spec = NetSpec { seed: 11, clients: 2, requests_per_client: 25, fault_rate: 0.0 };
        assert_net_differential(&spec);
    }

    #[test]
    fn workload_actually_exercises_the_stack() {
        let spec = NetSpec::new(20070824);
        let run = run_pipelined_serial(&spec);
        assert!(run.outcome.statuses.contains_key(&200), "some requests must succeed");
        assert!(run.outcome.statuses.contains_key(&404), "missing route must 404");
        assert!(run.outcome.statuses.contains_key(&500), "boom must crash to 500");
        assert!(
            run.outcome.faults.iter().any(|f| f.contains("kind=crash")),
            "crash faults must be retained for developers"
        );
        assert!(
            run.outcome.faults.iter().any(|f| f.contains("kind=infrastructure")),
            "sql chaos must surface as infrastructure faults"
        );
    }

    #[test]
    fn storm_degrades_gracefully() {
        let report = run_pipeline_storm(&NetSpec {
            seed: 4242,
            clients: 4,
            requests_per_client: 40,
            fault_rate: 0.0,
        });
        assert!(report.injected > 0, "storm must fire");
        assert!(report.stats.shed > 0, "forced queue-full faults must shed");
        assert!(report.statuses.contains_key(&503), "sheds must surface as 503s");
        assert!(report.statuses.contains_key(&200), "healthy requests must still succeed");
    }
}
