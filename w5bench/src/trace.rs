//! The traced run: where a request's microseconds go.
//!
//! The program has no spans at its layer boundaries yet, so the harness
//! reconstructs them from outside. It rebuilds the same-seed world once per
//! depth and replays the same requests single-threaded, entering one layer
//! deeper each time; a depth's self time is its p50 minus the next depth's
//! p50. Below `Platform::invoke`, leaf probes time the public calls
//! `invoke` makes on inputs taken from the world. End-to-end metrics never
//! come from this run.

use crate::client::{
    drive, Conn, ConnClose, Driven, Engine, Gateway, Invoke, KeepAlive, Sample, Target, PEER,
};
use crate::round::{run_round, start_pipeline, Leak, Round, Served};
use crate::spec::{Entry, Workload};
use crate::stats::{median, quantile_us};
use crate::world::{prepare, Bench, Class};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use w5_difc::{CapSet, Capability, Label, LabelPair};
use w5_net::http::{buf_reader, Limits};
use w5_net::{Handler, Request};
use w5_store::{QueryMode, Subject};

/// A call into one layer, as the harness saw it from outside. Spans of one
/// request share `req`; `parent` is the next-shallower depth.
pub struct Span {
    pub req: u32,
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Peel depths, shallowest first.
const DEPTHS: [&str; 4] = [
    "client.socket",
    "net.pipeline.serve",
    "platform.gateway.handle",
    "platform.invoke",
];

pub struct Traced {
    pub metrics: BTreeMap<&'static str, f64>,
    pub spans: Vec<Span>,
    pub round: Round,
    pub errors: Vec<String>,
}

fn p50_us(samples: &[Sample]) -> f64 {
    quantile_us(
        &mut samples.iter().map(Sample::latency_ns).collect::<Vec<_>>(),
        0.50,
    )
}

/// Requests each depth handles before the next depth takes its turn.
/// Depths interleave so that drift in the host's speed over the seconds a
/// replay takes lands on every depth alike, not on their differences.
const CHUNK: usize = 100;

fn first_depth(w: &Workload) -> usize {
    if w.entry == Entry::Invoke {
        3
    } else {
        0
    }
}

/// Replay warm-up and the first `Workload::traced` measured requests at
/// every depth, each on its own fresh world. Returns what each depth's
/// client saw (warm-up samples dropped), shallowest first, and the deepest
/// world, which the leaf probes go on to use.
fn peel(w: &Workload, seed: u64, scale: f64) -> (Vec<Driven>, Bench) {
    let first = first_depth(w);
    let mut benches: Vec<Bench> = (first..4).map(|_| prepare(w, w.ifc, seed, scale)).collect();
    let (warmup, _) = w.counts(scale);
    let all = 0..warmup + w.traced(scale);
    let gateways: Vec<Arc<w5_platform::Gateway>> = benches
        .iter()
        .map(|b| Arc::new(w5_platform::Gateway::new(Arc::clone(&b.world.platform))))
        .collect();
    let served = (first == 0).then(|| Served::start(&benches[0]));
    let pipeline = (first == 0).then(|| start_pipeline(&gateways[1]));

    let mut driven: Vec<Driven> = benches.iter().map(|_| Driven::default()).collect();
    {
        let mut targets: Vec<Box<dyn Target + '_>> = (first..4)
            .map(|depth| -> Box<dyn Target + '_> {
                let bench = &benches[depth - first];
                match (depth, &served, &pipeline) {
                    (0, Some(s), _) if w.entry == Entry::ConnClose => {
                        Box::new(ConnClose(s.handle.addr()))
                    }
                    (0, Some(s), _) => {
                        Box::new(KeepAlive(Conn::connect(s.handle.addr()).expect("connect")))
                    }
                    (1, _, Some(p)) => {
                        Box::new(Engine::new(Arc::clone(p) as _, bench, all.clone()))
                    }
                    (2, ..) => Box::new(Gateway::new(&gateways[depth - first], bench, all.clone())),
                    (3, ..) => Box::new(Invoke::new(bench, all.clone())),
                    _ => unreachable!("four depths, the socket ones with a server"),
                }
            })
            .collect();
        let t0 = Instant::now();
        for start in all.clone().step_by(CHUNK) {
            for ((target, bench), seen) in targets.iter_mut().zip(&benches).zip(&mut driven) {
                seen.merge(drive(
                    &mut **target,
                    bench,
                    start..all.end.min(start + CHUNK),
                    t0,
                ));
            }
        }
    }
    if let Some(s) = served {
        s.handle.shutdown();
    }
    if let Some(p) = pipeline {
        p.stop();
    }
    for seen in &mut driven {
        seen.samples.retain(|s| s.req as usize >= warmup);
    }
    (driven, benches.pop().expect("depth 4 always runs"))
}

/// p50 of `a` over p50 of `b`, each the median of three passes taken in
/// turn, so that both sides see the same host.
fn paired_ratio(mut a: impl FnMut() -> f64, mut b: impl FnMut() -> f64) -> f64 {
    let (mut xs, mut ys) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        xs.push(a());
        ys.push(b());
    }
    median(&mut xs) / median(&mut ys)
}

/// Median time of one call, in microseconds, each call timed on its own.
fn each_us(n: usize, mut f: impl FnMut()) -> f64 {
    let mut lat: Vec<u32> = (0..n)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as u32
        })
        .collect();
    quantile_us(&mut lat, 0.50)
}

/// Median over batches of the mean time of one call, in nanoseconds, for
/// calls too short to time singly.
fn batched_ns(mut f: impl FnMut()) -> f64 {
    const BATCH: u32 = 10_000;
    let mut means: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..BATCH {
                f();
            }
            t.elapsed().as_nanos() as f64 / BATCH as f64
        })
        .collect();
    median(&mut means)
}

/// Time the public calls `Platform::invoke` makes, on a friend pair of the
/// world, with the subject and limits the launcher would use.
fn leaf_probes(w: &Workload, bench: &Bench, m: &mut BTreeMap<&'static str, f64>) {
    const N: usize = 2000;
    let platform = &bench.world.platform;
    let (a, b) = bench.world.graph.edges[0];
    let (owner, viewer) = (&bench.world.accounts[a], &bench.world.accounts[b]);
    let grant = CapSet::from_caps([Capability::plus(viewer.write_tag)]);
    let (mode, limits) = if w.ifc {
        (QueryMode::Filtered, platform.config.app_limits)
    } else {
        (QueryMode::Naive, w5_kernel::ResourceLimits::unlimited())
    };

    m.insert(
        "kernel.spawn_exit_us",
        each_us(N, || {
            let pid = platform.kernel.create_process(
                "app:devA/photos",
                LabelPair::public(),
                grant.clone(),
                limits,
            );
            let _ = std::hint::black_box(platform.kernel.labels(pid));
            let _ = platform.kernel.exit(pid);
            let _ = platform.kernel.reap(pid);
        }),
    );

    // The subject an app instance starts as: public labels, and the caps
    // the kernel gives a process launched with this grant.
    let pid = platform.kernel.create_process(
        "app:w5bench-probe",
        LabelPair::public(),
        grant.clone(),
        limits,
    );
    let subject = Subject::new(
        LabelPair::public(),
        platform
            .kernel
            .effective_caps(pid)
            .expect("probe process is live"),
    );
    let _ = platform.kernel.exit(pid);
    let _ = platform.kernel.reap(pid);

    let select = format!(
        "SELECT title FROM blog_posts WHERE owner = '{}' ORDER BY title",
        owner.username
    );
    m.insert(
        "store.sql_parse_us",
        each_us(N, || {
            drop(std::hint::black_box(w5_store::sql::parse(&select)))
        }),
    );
    let mut scanned = 0;
    m.insert(
        "store.sql_select_us",
        each_us(N, || {
            let out = platform.db.execute(
                &subject,
                mode,
                platform.config.query_cost,
                &LabelPair::public(),
                &select,
            );
            scanned = out.expect("blog list as a friend").scanned;
        }),
    );
    m.insert("store.rows_scanned_per_select", scanned as f64);
    let insert = format!(
        "INSERT INTO blog_posts (owner, title, body) VALUES ('{}', 'probe', 'generated body text')",
        viewer.username
    );
    m.insert(
        "store.sql_insert_us",
        each_us(N, || {
            platform
                .db
                .execute(
                    &subject,
                    mode,
                    platform.config.query_cost,
                    &viewer.data_labels(),
                    &insert,
                )
                .expect("insert as the viewer");
        }),
    );
    let photo = format!("/photos/{}/photo0", owner.username);
    m.insert(
        "store.fs_read_us",
        each_us(N, || {
            drop(std::hint::black_box(
                platform.fs.read(&subject, &photo).expect("photo is there"),
            ))
        }),
    );

    let export_check = || {
        let decision = platform.exporter.check(
            &owner.data_labels(),
            Some(viewer),
            "devA/photos",
            &platform.accounts,
            &platform.policies,
            &platform.declassifiers,
            &platform.oracle(),
        );
        assert!(decision.allowed, "friends-only clears a friend");
    };
    // Off the path without IFC: `export_response` ships the body unchecked.
    let export_check_us = if w.ifc { each_us(N, export_check) } else { 0.0 };
    m.insert("platform.export_check_us", export_check_us);
    let token = platform.sessions.create(viewer.id);
    m.insert(
        "platform.session_validate_us",
        each_us(N, || {
            let user = platform.sessions.validate(&token).expect("live session");
            std::hint::black_box(platform.accounts.get(user));
        }),
    );

    let one_tag = LabelPair::new(Label::singleton(owner.export_tag), Label::empty());
    let no_caps = CapSet::empty();
    m.insert(
        "difc.flow_check_ns",
        batched_ns(|| {
            drop(std::hint::black_box(w5_difc::rules::labels_for_read(
                &one_tag, &no_caps, &one_tag,
            )))
        }),
    );
    m.insert(
        "obs.record_ns",
        batched_ns(|| {
            w5_obs::record(
                &w5_obs::ObsLabel::empty(),
                w5_obs::EventKind::ScheduleQuantum { pid: 1, ticks: 1 },
            )
        }),
    );
}

/// Parse and serialise the real bytes of one request and its response on
/// in-memory buffers: the codec share of the socket path.
fn codec_us(bench: &Bench) -> f64 {
    let req = bench
        .reqs
        .iter()
        .find(|r| r.class.is_read_only())
        .expect("a read in the stream");
    let gateway = w5_platform::Gateway::new(Arc::clone(&bench.world.platform));
    let response = gateway.handle(req.net_request(), PEER);
    let mut out = Vec::with_capacity(4096);
    each_us(2000, || {
        let parsed = Request::read_from(&mut buf_reader(&req.wire[..]), &Limits::default())
            .expect("own bytes");
        out.clear();
        response.write_to(&mut out, true).expect("write to memory");
        std::hint::black_box((&parsed, &out));
    })
}

/// `TcpStream::connect` to the first byte sent, median over fresh
/// connections.
fn connect_us(bench: &Bench) -> f64 {
    let served = Served::start(bench);
    let req = bench
        .reqs
        .iter()
        .find(|r| r.class.is_read_only())
        .expect("a read in the stream");
    let mut sent_ns: Vec<u32> = (0..200)
        .map(|_| {
            let t = Instant::now();
            let mut conn = Conn::connect(served.handle.addr()).expect("connect");
            conn.send(&req.wire).expect("send");
            let sent = t.elapsed().as_nanos() as u32;
            conn.receive().expect("answer");
            sent
        })
        .collect();
    served.handle.shutdown();
    quantile_us(&mut sent_ns, 0.50)
}

/// The two ratios. Both replay reads only, straight into invoke, so every
/// pass sees the same world: the first reads of the measured range.
fn ratios(
    w: &Workload,
    bench: &Bench,
    seed: u64,
    scale: f64,
    m: &mut BTreeMap<&'static str, f64>,
) -> Result<(), Leak> {
    let (warmup, measured) = w.counts(scale);
    let reads: Vec<usize> = (warmup..warmup + measured)
        .filter(|&i| bench.reqs[i].class.is_read_only())
        .take(w.traced(scale) / 2)
        .collect();
    let span = reads[0]..reads[reads.len() - 1] + 1;
    let pass = |bench: &Bench| {
        let mut target = Invoke::new(bench, span.clone());
        p50_us(&drive(&mut target, bench, reads.iter().copied(), Instant::now()).samples)
    };

    // The other arm, brought to the same state: the paper's implied
    // evaluation, measured where HTTP framing does not dilute it.
    let other = prepare(w, !w.ifc, seed, scale);
    let replayed = 0..warmup + w.traced(scale);
    let mut target = Invoke::new(&other, replayed.clone());
    if drive(&mut target, &other, replayed, Instant::now()).leaks > 0 {
        return Err(Leak);
    }
    let (ifc, noifc) = if w.ifc {
        (bench, &other)
    } else {
        (&other, bench)
    };
    m.insert(
        "difc.ifc_tax_p50",
        paired_ratio(|| pass(ifc), || pass(noifc)),
    );
    drop(other);

    // What always-on tracing costs: the same reads, sampled and unsampled.
    let tax = paired_ratio(
        || {
            w5_obs::set_trace_sampling(1.0, 0);
            pass(bench)
        },
        || {
            w5_obs::set_trace_sampling(0.0, seed);
            pass(bench)
        },
    );
    w5_obs::set_trace_sampling(1.0, 0);
    m.insert("obs.trace_tax_ratio", tax);
    Ok(())
}

/// Client-side tails and the deltas of the public stats structs over the
/// ordinary round's measured phase.
fn counters(round: &Round, socket: bool, m: &mut BTreeMap<&'static str, f64>) {
    let n = round.samples.len() as f64;
    let (b, a) = (&round.before, &round.after);
    let per_req = |after: u64, before: u64| (after - before) as f64 / n;
    let ratio = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
    let mut lat: Vec<u32> = round.samples.iter().map(Sample::latency_ns).collect();
    m.insert("client.requests", round.attempted as f64);
    m.insert("client.samples", n);
    m.insert("client.latency_p999_us", quantile_us(&mut lat, 0.999));
    m.insert("client.latency_max_us", quantile_us(&mut lat, 1.0));
    m.insert(
        "client.stream_digest",
        (round.digest & ((1 << 48) - 1)) as f64,
    );
    let segs = match (socket, a.tcp_out_segs, b.tcp_out_segs) {
        (true, Some(a), Some(b)) => per_req(a, b),
        _ => 0.0,
    };
    m.insert("net.tcp_segs_per_req", segs);
    m.insert("net.resp_bytes_per_req", round.resp_bytes as f64 / n);
    m.insert(
        "net.pipeline_admitted_per_req",
        per_req(a.admitted, b.admitted),
    );
    m.insert("net.pipeline_shed", a.shed as f64);
    m.insert("net.pipeline_quota_denied", a.quota_denied as f64);
    m.insert("net.pipeline_panics", a.panics as f64);
    let blocked = per_req(a.exports_blocked, b.exports_blocked);
    m.insert("platform.exports_blocked_per_req", blocked);
    let declassified = per_req(a.declassifier_calls, b.declassifier_calls);
    m.insert("platform.declassifier_calls_per_req", declassified);
    m.insert("platform.faults", (a.faults - b.faults) as f64);
    m.insert(
        "kernel.label_changes_per_req",
        per_req(a.label_changes, b.label_changes),
    );
    m.insert("kernel.live_processes_end", a.live_processes as f64);
    m.insert("store.rows_total_end", a.rows_total as f64);
    let (ai, bi) = (a.intern, b.intern);
    let (flow_hits, flow_misses) = (ai.flow_hits - bi.flow_hits, ai.flow_misses - bi.flow_misses);
    let intern_hits = ai.intern_hits - bi.intern_hits;
    let intern_misses = ai.intern_misses - bi.intern_misses;
    m.insert("difc.checks_per_req", (flow_hits + flow_misses) as f64 / n);
    m.insert("difc.flow_cache_hit_ratio", ratio(flow_hits, flow_misses));
    m.insert(
        "difc.intern_calls_per_req",
        (intern_hits + intern_misses) as f64 / n,
    );
    m.insert("difc.intern_hit_ratio", ratio(intern_hits, intern_misses));
    m.insert("obs.events_per_req", per_req(a.events, b.events));
    m.insert("obs.spans_per_req", per_req(a.spans, b.spans));
    // Connection threads that exited took their counts with them.
    let switches = per_req(a.ctx_switches.max(b.ctx_switches), b.ctx_switches);
    m.insert("proc.vol_ctx_switches_per_req", switches);
}

pub fn run_traced(w: &Workload, seed: u64, scale: f64) -> Result<Traced, Leak> {
    // Counters and client-side tails come from one ordinary round.
    let round = run_round(w, seed, scale)?;
    let mut m = BTreeMap::new();
    let mut errors = round.errors.clone();
    let mut spans = Vec::new();

    let first = first_depth(w);
    let (driven, bench) = peel(w, seed, scale);
    let mut p50 = [0.0; 4];
    for (depth, seen) in (first..4).zip(&driven) {
        if seen.leaks > 0 {
            return Err(Leak);
        }
        if seen.failed > 0 {
            errors.push(format!(
                "{} answers were wrong at depth {}",
                seen.failed, DEPTHS[depth]
            ));
        }
        p50[depth] = p50_us(&seen.samples);
        spans.extend(seen.samples.iter().map(|s| Span {
            req: s.req,
            name: DEPTHS[depth],
            parent: (depth > first).then(|| DEPTHS[depth - 1]),
            start_ns: s.start_ns,
            end_ns: s.end_ns,
        }));
    }
    let self_us = |d: usize| match d {
        d if d < first => 0.0,
        3 => p50[3],
        d => p50[d] - p50[d + 1],
    };
    m.insert("client.traced_p50_us", p50[first]);
    m.insert("net.socket_self_us", self_us(0));
    m.insert("net.pipeline_self_us", self_us(1));
    m.insert("platform.gateway_self_us", self_us(2));
    m.insert("platform.invoke_us", p50[3]);
    let telescoped: f64 = (0..4).map(self_us).sum();
    if (telescoped - p50[first]).abs() > 0.02 * p50[first] {
        errors.push(format!(
            "self times sum to {telescoped} us, traced p50 is {} us",
            p50[first]
        ));
    }

    ratios(w, &bench, seed, scale, &mut m)?;
    leaf_probes(w, &bench, &mut m);
    let socket = w.entry != Entry::Invoke;
    m.insert("net.codec_us", if socket { codec_us(&bench) } else { 0.0 });
    m.insert(
        "net.connect_us",
        if socket { connect_us(&bench) } else { 0.0 },
    );
    counters(&round, socket, &mut m);

    // Estimates: the probes weighted by what the stream's requests do, and
    // what is left of the mean invoke (the parts are means over the mix).
    let (warmup, measured) = w.counts(scale);
    let share = |classes: &[Class]| {
        let of = bench.reqs[warmup..]
            .iter()
            .filter(|r| classes.contains(&r.class));
        of.count() as f64 / measured as f64
    };
    let store = share(&[Class::ViewPhoto, Class::StrangerView, Class::ListPhotos])
        * m["store.fs_read_us"]
        + share(&[Class::ListBlog, Class::Feed]) * m["store.sql_select_us"]
        + share(&[Class::WritePost]) * m["store.sql_insert_us"];
    let obs = m["obs.record_ns"] * m["obs.events_per_req"] / 1e3;
    let invoke = &driven[3 - first].samples;
    let invoke_mean_us = invoke
        .iter()
        .map(|s| (s.end_ns - s.start_ns) as f64)
        .sum::<f64>()
        / invoke.len() as f64
        / 1e3;
    let known = m["kernel.spawn_exit_us"] + store + m["platform.export_check_us"] + obs;
    m.insert("store.per_req_us", store);
    m.insert("obs.per_req_us", obs);
    m.insert("platform.invoke_residual_us", invoke_mean_us - known);

    Ok(Traced {
        metrics: m,
        spans,
        round,
        errors,
    })
}
