//! One round: build a fresh same-seed world, start the server, warm up,
//! measure a fixed number of requests, check the answers and the world.

use crate::client::{drive, Conn, ConnClose, Driven, Invoke, KeepAlive, Sample, Target, PEER};
use crate::spec::{Entry, Workload, REPLAY_REQUESTS};
use crate::stats;
use crate::world::{prepare, Bench};
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;
use w5_net::{
    Handler, OpenAdmission, Pipeline, PipelineConfig, Server, ServerConfig, ServerHandle,
};
use w5_platform::Gateway;

/// The in-process server under test.
pub struct Served {
    pub handle: ServerHandle,
    pub pipeline: Arc<Pipeline>,
    pub gateway: Arc<Gateway>,
}

/// The pipeline every socket workload and peel depth 2 runs: the explicit
/// default, not `from_env`, so `W5_NET_*` cannot skew a run.
pub fn start_pipeline(gateway: &Arc<Gateway>) -> Arc<Pipeline> {
    Pipeline::start(
        PipelineConfig::default(),
        Arc::clone(gateway) as Arc<dyn Handler>,
        Arc::new(OpenAdmission),
    )
}

impl Served {
    pub fn start(bench: &Bench) -> Served {
        let gateway = Arc::new(Gateway::new(Arc::clone(&bench.world.platform)));
        let pipeline = start_pipeline(&gateway);
        // The default of 1000 requests per connection would reconnect mid-run.
        let config = ServerConfig {
            max_requests_per_connection: usize::MAX,
            ..ServerConfig::default()
        };
        let handle = Server::start_engine("127.0.0.1:0", config, Arc::clone(&pipeline) as _)
            .expect("bind a loopback port");
        Served {
            handle,
            pipeline,
            gateway,
        }
    }
}

/// The public stats structs, read at one instant.
#[derive(Clone, Copy)]
pub struct Counters {
    pub admitted: u64,
    pub shed: u64,
    pub quota_denied: u64,
    pub panics: u64,
    pub exports_blocked: u64,
    pub faults: u64,
    pub declassifier_calls: u64,
    pub label_changes: u64,
    pub live_processes: u64,
    pub rows_total: u64,
    pub intern: w5_difc::intern::InternStats,
    pub events: u64,
    pub spans: u64,
    pub tcp_out_segs: Option<u64>,
    pub ctx_switches: u64,
}

impl Counters {
    pub fn read(bench: &Bench, served: Option<&Served>) -> Counters {
        let platform = &bench.world.platform;
        let pipeline = served.map(|s| s.pipeline.stats.snapshot());
        let stats = platform.stats_view();
        Counters {
            admitted: pipeline.map_or(0, |p| p.admitted),
            shed: pipeline.map_or(0, |p| p.shed),
            quota_denied: pipeline.map_or(0, |p| p.quota_denied),
            panics: pipeline.map_or(0, |p| p.panics),
            exports_blocked: stats.exports_blocked,
            faults: stats.faults,
            declassifier_calls: platform.exporter.stats_view().declassifier_calls,
            label_changes: platform.kernel.stats().label_changes,
            live_processes: platform.kernel.live_processes() as u64,
            rows_total: platform.db.total_rows() as u64,
            intern: w5_difc::intern::stats(),
            events: w5_obs::global().events_recorded(),
            spans: w5_obs::global().spans_recorded(),
            tcp_out_segs: stats::tcp_out_segs(),
            ctx_switches: stats::voluntary_ctx_switches(),
        }
    }
}

/// Throughput and latency of one equal-count slice of a measured phase.
pub struct Slice {
    pub rps: f64,
    pub p50_us: f64,
    pub p99_us: f64,
}

pub struct Round {
    pub setup_s: f64,
    pub digest: u64,
    /// Measured-phase samples in completion order.
    pub samples: Vec<Sample>,
    pub slices: Vec<Slice>,
    pub cpu_us: u64,
    /// `VmHWM` when the round ended. The first round's is the run's metric:
    /// it has done the same work on every build, however many rounds fit.
    pub peak_rss_mb: f64,
    pub resp_bytes: u64,
    /// Every request sent in any phase, and those answered wrongly.
    pub attempted: u64,
    pub failed: u64,
    pub before: Counters,
    pub after: Counters,
    /// Broken invariants of the world or the server; empty on a correct run.
    pub errors: Vec<String>,
}

/// A 200 where a 403 was due. Not a failed request but a broken guarantee:
/// the run stops.
pub struct Leak;

/// Drive `range` of the stream through the workload's entry point with its
/// client count; returns what the clients saw, samples in completion order.
pub fn run_phase(
    w: &Workload,
    bench: &Bench,
    served: Option<&Served>,
    range: Range<usize>,
) -> Driven {
    let clients = w.clients();
    let mut targets: Vec<Box<dyn Target + Send + '_>> = (0..clients)
        .map(|_| -> Box<dyn Target + Send + '_> {
            match (w.entry, served) {
                (Entry::KeepAlive, Some(s)) => Box::new(KeepAlive(
                    Conn::connect(s.handle.addr()).expect("connect to own server"),
                )),
                (Entry::ConnClose, Some(s)) => Box::new(ConnClose(s.handle.addr())),
                (Entry::Invoke, _) => Box::new(Invoke::new(bench, range.clone())),
                (_, None) => unreachable!("socket workloads start a server"),
            }
        })
        .collect();
    let t0 = Instant::now();
    let mut all = Driven::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = targets
            .iter_mut()
            .enumerate()
            .map(|(t, target)| {
                let mine = range.clone().filter(move |i| i % clients == t);
                scope.spawn(move || drive(&mut **target, bench, mine, t0))
            })
            .collect();
        for h in handles {
            all.merge(h.join().expect("client thread"));
        }
    });
    all.samples.sort_unstable_by_key(|s| s.end_ns);
    all
}

fn slices(samples: &[Sample], count: usize) -> Vec<Slice> {
    let per = samples.len() / count;
    let mut prev_end = 0;
    samples
        .chunks_exact(per)
        .map(|chunk| {
            let end = chunk[per - 1].end_ns;
            let mut lat: Vec<u32> = chunk.iter().map(Sample::latency_ns).collect();
            let slice = Slice {
                rps: per as f64 / ((end - prev_end) as f64 / 1e9),
                p50_us: stats::quantile_us(&mut lat, 0.50),
                p99_us: stats::quantile_us(&mut lat, 0.99),
            };
            prev_end = end;
            slice
        })
        .collect()
}

/// Replay read-only requests through the workload's entry point and
/// through `Gateway::handle`; status, content type and body must match
/// byte for byte. Returns how many were replayed and the mismatches.
fn replay(
    w: &Workload,
    bench: &Bench,
    served: Option<&Served>,
    range: Range<usize>,
) -> (u64, Vec<String>) {
    type Answer = (u16, Vec<u8>, Vec<u8>);
    let own_gateway;
    let gateway: &Gateway = match served {
        Some(s) => &s.gateway,
        None => {
            own_gateway = Gateway::new(Arc::clone(&bench.world.platform));
            &own_gateway
        }
    };
    let mut conn: Option<Conn> = None;
    let (mut replayed, mut mismatches) = (0, Vec::new());
    for i in range
        .filter(|&i| bench.reqs[i].class.is_read_only())
        .take(REPLAY_REQUESTS)
    {
        let req = &bench.reqs[i];
        let want = gateway.handle(req.net_request(), PEER);
        let content_type = want
            .header("content-type")
            .unwrap_or("")
            .as_bytes()
            .to_vec();
        let want: Answer = (want.status.0, content_type, want.body.to_vec());
        let got: std::io::Result<Answer> = match served {
            None => {
                let world = &bench.world;
                let viewer = &world.accounts[req.gen.viewer];
                let r = world
                    .platform
                    .invoke(Some(viewer), &req.gen.app, req.app_request(world));
                Ok((r.status, r.content_type.into_bytes(), r.body.to_vec()))
            }
            Some(s) => (|| {
                if conn.is_none() || w.entry == Entry::ConnClose {
                    conn = Some(Conn::connect(s.handle.addr())?);
                }
                let reply = conn
                    .as_mut()
                    .expect("just connected")
                    .round_trip(&req.wire)?;
                let content_type = reply.header("content-type").unwrap_or(b"").to_vec();
                Ok((reply.status, content_type, reply.body.to_vec()))
            })(),
        };
        replayed += 1;
        match got {
            Ok(got) if got == want => {}
            Ok(got) => mismatches.push(format!(
                "replay of request {i}: entry point answered {} ({} bytes), gateway {} ({} bytes)",
                got.0,
                got.2.len(),
                want.0,
                want.2.len()
            )),
            Err(e) => mismatches.push(format!("replay of request {i}: {e}")),
        }
    }
    (replayed, mismatches)
}

pub fn run_round(w: &Workload, seed: u64, scale: f64) -> Result<Round, Leak> {
    let started = Instant::now();
    let bench = prepare(w, w.ifc, seed, scale);
    let served = (w.entry != Entry::Invoke).then(|| Served::start(&bench));
    let setup_s = started.elapsed().as_secs_f64();
    let served = served.as_ref();

    let (warmup, measured) = w.counts(scale);
    let warm = run_phase(w, &bench, served, 0..warmup);

    let before = Counters::read(&bench, served);
    let cpu_before = stats::cpu_us();
    let run = run_phase(w, &bench, served, warmup..warmup + measured);
    let cpu_us = stats::cpu_us() - cpu_before;
    let after = Counters::read(&bench, served);

    let (replayed, mut errors) = replay(w, &bench, served, warmup..warmup + measured);
    let mismatched = errors.len() as u64;
    if after.rows_total != before.rows_total + run.acked_writes {
        errors.push(format!(
            "rows: {} before + {} acknowledged writes != {} after",
            before.rows_total, run.acked_writes, after.rows_total
        ));
    }
    if after.live_processes != before.live_processes {
        errors.push(format!(
            "kernel processes leaked: {} before, {} after",
            before.live_processes, after.live_processes
        ));
    }
    for (what, n) in [
        ("shed", after.shed),
        ("quota-denied", after.quota_denied),
        ("panicked on", after.panics),
    ] {
        if n != 0 {
            errors.push(format!("pipeline {what} {n} requests"));
        }
    }
    if let Some(s) = served {
        s.handle.shutdown();
    }
    if warm.leaks + run.leaks > 0 {
        return Err(Leak);
    }
    Ok(Round {
        setup_s,
        digest: bench.digest,
        slices: slices(&run.samples, w.slices),
        samples: run.samples,
        cpu_us,
        peak_rss_mb: stats::peak_rss_mb(),
        resp_bytes: run.resp_bytes,
        attempted: (warmup + measured) as u64 + replayed,
        failed: warm.failed + run.failed + mismatched,
        before,
        after,
        errors,
    })
}
