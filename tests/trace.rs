//! Causal tracing across the whole stack: a federation pull over real
//! HTTP stitches into one clearance-gated request tree, and a viewer
//! without clearance provably cannot recover high-secrecy span names or
//! fine-grained timings from it (the trace analogue of the §3.5 ledger
//! covert-channel defence).
//!
//! The global ledger is shared by every test in this binary, so all
//! assertions on it are presence-based — never exact global counts.

use bytes::Bytes;
use std::sync::Arc;
use w5_federation::service::opt_in;
use w5_federation::{AccountLink, FederationService, SyncAgent};
use w5_net::{Server, ServerConfig};
use w5_obs::trace::{critical_path, redact_spans, render_tree, REDACTED_NAME, SPAN_QUANTUM_US};
use w5_obs::{Layer, Ledger, ObsLabel, SpanRecord};
use w5_platform::Platform;
use w5_sim::{build_population, PopulationConfig};

const TOKEN: &str = "trace-itest-peer-token";

/// Every span of one trace, pulled from the global ledger with broad
/// clearance.
fn trace_spans(trace: u64) -> Vec<SpanRecord> {
    let broad = ObsLabel::from_tags(1..=4096);
    w5_obs::global()
        .trace_view(&broad)
        .spans
        .into_iter()
        .filter(|s| s.trace == trace)
        .collect()
}

#[test]
fn cross_federation_pull_stitches_one_request_tree() {
    w5_obs::set_trace_sampling(1.0, 0);

    // Provider A: populated; provider B: fresh mirror.
    let world = build_population(
        Platform::new_default("trace-provider-a"),
        PopulationConfig { users: 2, photos_per_user: 2, ..Default::default() },
    );
    let a = Arc::clone(&world.platform);
    let b = Platform::new_default("trace-provider-b");
    w5_apps::install_all(&b);
    for account in &world.accounts {
        b.accounts.register(&account.username, "pw").unwrap();
    }
    let u0 = &world.accounts[0];
    opt_in(&a, u0.id);

    let svc = FederationService::new(Arc::clone(&a), TOKEN);
    let server = Server::start("127.0.0.1:0", ServerConfig::default(), Arc::new(svc)).unwrap();
    let agent = SyncAgent::new(Arc::clone(&b), TOKEN);
    let link = AccountLink { remote_user: u0.username.clone(), local_user: u0.username.clone() };
    let report = agent.pull(server.addr(), &link).unwrap();
    assert_eq!(report.created, 2, "{report:?}");
    server.shutdown();

    // The agent's pull span is the root; the peer's HTTP span continued
    // the same trace via the wire context, and the export span nests
    // under the HTTP span. Three spans, two threads, one tree.
    let broad = ObsLabel::from_tags(1..=4096);
    let all = w5_obs::global().trace_view(&broad).spans;
    let pull = all
        .iter()
        .filter(|s| s.name.starts_with("federation.pull"))
        .max_by_key(|s| s.id)
        .expect("no federation.pull span recorded")
        .clone();
    let spans = trace_spans(pull.trace);

    let http = spans
        .iter()
        .find(|s| s.name.starts_with("net.http GET /federation/export"))
        .expect("peer's HTTP span did not join the caller's trace");
    let export = spans
        .iter()
        .find(|s| s.name.starts_with("federation.export"))
        .expect("no federation.export span in the trace");

    assert_eq!(pull.parent, None, "the pull is the root");
    assert_eq!(http.parent, Some(pull.id), "wire context must carry the parent edge");
    assert_eq!(export.parent, Some(http.id), "export nests under the HTTP span");
    assert_eq!(http.layer, Layer::Net);

    // The rendered tree shows the full chain, indented in causal order.
    let tree = render_tree(&spans);
    let pull_ix = tree.find("federation.pull").unwrap();
    let http_ix = tree.find("net.http").unwrap();
    let export_ix = tree.find("federation.export").unwrap();
    assert!(pull_ix < http_ix && http_ix < export_ix, "tree out of causal order:\n{tree}");

    // Critical-path analysis attributes the trace's wall time: the path
    // starts at the root and descends through the HTTP hop.
    let path = critical_path(&spans, pull.trace);
    assert!(path.len() >= 2, "critical path too shallow: {path:?}");
    assert!(path[0].name.starts_with("federation.pull"));
}

#[test]
fn app_invocation_tree_has_kernel_children() {
    w5_obs::set_trace_sampling(1.0, 0);

    let world = build_population(
        Platform::new_default("trace-invoke"),
        PopulationConfig { users: 1, photos_per_user: 1, ..Default::default() },
    );
    let p = Arc::clone(&world.platform);
    let u0 = &world.accounts[0];
    let req = Platform::make_request(
        "GET",
        "view",
        &[("user", u0.username.as_str()), ("name", "photo0")],
        Some(u0),
        Bytes::new(),
    );
    assert_eq!(p.invoke(Some(u0), "devA/photos", req).status, 200);

    let broad = ObsLabel::from_tags(1..=4096);
    let all = w5_obs::global().trace_view(&broad).spans;
    let stitched = all.iter().any(|inv| {
        inv.name.starts_with("platform.invoke devA/photos")
            && all.iter().any(|k| {
                k.layer == Layer::Kernel && k.trace == inv.trace && k.parent == Some(inv.id)
            })
    });
    assert!(stitched, "no platform.invoke span with a kernel child span");
}

#[test]
fn low_clearance_viewer_gets_structure_but_not_names_or_timing() {
    // Private ledger: this test owns every span it sees.
    let ledger = Arc::new(Ledger::new());
    let _scope = w5_obs::scoped(Arc::clone(&ledger));
    let secret = ObsLabel::singleton(777_001);

    {
        let _root = w5_obs::span("public.op", Layer::Net, &ObsLabel::empty());
        let _child = w5_obs::span("secret.declassify bob-diary", Layer::Platform, &secret);
    }
    assert_eq!(ledger.spans_recorded(), 2);

    // Cleared viewer: full names and labels.
    let full = ledger.trace_view(&secret);
    assert_eq!(full.redacted_spans, 0);
    assert!(full.spans.iter().any(|s| s.name == "secret.declassify bob-diary"));

    // Empty clearance: the tree shape survives, the secret span's name
    // and label do not, and its timings are floored to the quantum.
    let zero = ledger.trace_view(&ObsLabel::empty());
    assert_eq!(zero.redacted_spans, 1);
    let hidden = zero.spans.iter().find(|s| s.parent.is_some()).unwrap();
    assert_eq!(hidden.name, REDACTED_NAME);
    assert!(hidden.secrecy.is_subset(&ObsLabel::empty()));
    assert_eq!(hidden.start_us % SPAN_QUANTUM_US, 0);
    assert_eq!(hidden.duration_us() % SPAN_QUANTUM_US, 0);
    assert!(zero.spans.iter().any(|s| s.name == "public.op"), "public spans pass verbatim");
}

#[test]
fn unsampled_traces_record_no_spans_but_still_propagate_context() {
    let ledger = Arc::new(Ledger::new());
    ledger.set_trace_sampling(0.0, 42);
    let _scope = w5_obs::scoped(Arc::clone(&ledger));

    {
        let _root = w5_obs::span("never.recorded", Layer::Net, &ObsLabel::empty());
        let ctx = w5_obs::current_context().expect("context exists even unsampled");
        assert!(!ctx.sampled, "rate 0.0 must sample nothing");
        // The wire context still flows so a downstream hop honors the
        // same negative decision instead of re-rolling it.
        assert!(w5_obs::TraceContext::parse(&ctx.encode()).is_some());
        let _child = w5_obs::span("child.also.unsampled", Layer::Kernel, &ObsLabel::empty());
    }
    assert_eq!(ledger.spans_recorded(), 0);
}

#[test]
fn digest_covers_span_structure_but_not_wall_clock() {
    let run = |dawdle: bool, extra_span: bool| {
        let ledger = Arc::new(Ledger::new());
        let _scope = w5_obs::scoped(Arc::clone(&ledger));
        {
            let _root = w5_obs::span("digest.root", Layer::Platform, &ObsLabel::empty());
            if dawdle {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            let _child = w5_obs::span("digest.child", Layer::Kernel, &ObsLabel::empty());
        }
        if extra_span {
            let _extra = w5_obs::span("digest.extra", Layer::Store, &ObsLabel::empty());
        }
        drop(_scope);
        ledger.digest()
    };
    // Same structure, different wall time: same digest.
    assert_eq!(run(false, false), run(true, false));
    // One more span: different digest.
    assert_ne!(run(false, false), run(false, true));
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    /// A synthetic request tree: a public root with one public and n
    /// secret children; secret child i runs `durs[i]` µs.
    fn tree(durs: &[u64]) -> Vec<SpanRecord> {
        let secret = ObsLabel::singleton(900_000);
        let mut spans = vec![
            SpanRecord {
                trace: 0x7ace,
                id: 1,
                parent: None,
                name: "net.http GET /feed".into(),
                layer: Layer::Net,
                secrecy: ObsLabel::empty(),
                start_us: 0,
                end_us: 90_000,
            },
            SpanRecord {
                trace: 0x7ace,
                id: 2,
                parent: Some(1),
                name: "platform.sanitize".into(),
                layer: Layer::Platform,
                secrecy: ObsLabel::empty(),
                start_us: 1_000,
                end_us: 2_000,
            },
        ];
        for (i, &dur) in durs.iter().enumerate() {
            let start = 10_000 + 20_000 * i as u64;
            spans.push(SpanRecord {
                trace: 0x7ace,
                id: 3 + i as u64,
                parent: Some(1),
                name: format!("platform.declass.secret-{i}").into(),
                layer: Layer::Platform,
                secrecy: secret.clone(),
                start_us: start,
                end_us: start + dur,
            });
        }
        spans
    }

    /// Everything a low-clearance `w5trace` user can observe about a
    /// span list: the gated spans' JSON, the rendered tree, and the
    /// critical path.
    fn low_clearance_output(spans: &[SpanRecord]) -> String {
        let (gated, redacted) = redact_spans(spans, &ObsLabel::empty());
        let json = serde_json::to_string(&gated).unwrap();
        let tree = render_tree(&gated);
        let path = critical_path(&gated, gated[0].trace);
        format!("{json}\n{tree}\n{path:?}\nredacted={redacted}")
    }

    proptest! {
        /// Two runs identical except for how long the high-secrecy spans
        /// took (within one timing quantum) are indistinguishable to a
        /// viewer without clearance — byte-identical w5trace output. The
        /// trace-timing covert channel carries at most log2(quantum
        /// buckets) bits.
        #[test]
        fn secret_durations_are_invisible_at_low_clearance(
            durs_a in proptest::collection::vec(0u64..SPAN_QUANTUM_US, 1..6),
            durs_b in proptest::collection::vec(0u64..SPAN_QUANTUM_US, 1..6),
        ) {
            // Same number of secret spans in both runs; only durations
            // differ (and stay inside one quantum bucket).
            let n = durs_a.len().min(durs_b.len());
            let a = tree(&durs_a[..n]);
            let b = tree(&durs_b[..n]);
            prop_assert_eq!(low_clearance_output(&a), low_clearance_output(&b));
        }

        /// A cleared viewer, by contrast, sees the real durations: the
        /// redaction is clearance-gating, not data loss.
        #[test]
        fn cleared_viewer_sees_exact_durations(dur in 1u64..SPAN_QUANTUM_US) {
            let spans = tree(&[dur]);
            let secret = ObsLabel::singleton(900_000);
            let (gated, redacted) = redact_spans(&spans, &secret);
            prop_assert_eq!(redacted, 0);
            let s = gated.iter().find(|s| s.name.starts_with("platform.declass")).unwrap();
            prop_assert_eq!(s.duration_us(), dur);
        }
    }
}
