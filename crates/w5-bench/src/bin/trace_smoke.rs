//! trace_smoke — seed a two-provider world with tracing at full sampling,
//! drive one federation pull and one app invocation end to end, and
//! export the global ledger's spans as JSON for `w5trace` to query — an
//! operator's artifact: every span with its name, label and timing.
//!
//! CI runs this, then `w5trace --critical-path` over the artifact; the
//! assertions here are the smoke gate (a complete cross-federation tree
//! must exist), the artifact is the evidence.
//!
//! Artifact: `<metrics_dir>/TRACES_smoke.json` (`W5_METRICS_DIR`
//! redirects it, default `target/metrics/`).

use bytes::Bytes;
use std::sync::Arc;
use w5_federation::service::opt_in;
use w5_federation::{AccountLink, FederationService, SyncAgent};
use w5_net::{Server, ServerConfig};
use w5_platform::Platform;
use w5_sim::{build_population, PopulationConfig};

const TOKEN: &str = "trace-smoke-peer-token";

fn main() {
    w5_bench::banner("TRACE", "cross-layer causal tracing smoke", "§3.5");

    // Head-sample everything: a smoke run wants the whole tree.
    w5_obs::set_trace_sampling(1.0, 0);

    // Provider A: a small populated world. Provider B: fresh mirror.
    let world = build_population(
        Platform::new_default("provider-a"),
        PopulationConfig { users: 4, photos_per_user: 3, ..Default::default() },
    );
    let a = Arc::clone(&world.platform);
    let b = Platform::new_default("provider-b");
    w5_apps::install_all(&b);
    for account in &world.accounts {
        b.accounts.register(&account.username, "pw").unwrap();
    }
    let u0 = &world.accounts[0];
    opt_in(&a, u0.id);

    // One cross-provider pull: federation.pull → (wire) → net.http →
    // federation.export stitches into a single trace.
    let svc = FederationService::new(Arc::clone(&a), TOKEN);
    let server = Server::start("127.0.0.1:0", ServerConfig::default(), Arc::new(svc)).unwrap();
    let agent = SyncAgent::new(Arc::clone(&b), TOKEN);
    let link = AccountLink { remote_user: u0.username.clone(), local_user: u0.username.clone() };
    let report = agent.pull(server.addr(), &link).unwrap();
    assert_eq!(report.created, 3, "seed world mirrors all photos: {report:?}");
    server.shutdown();

    // One app invocation on the mirror: platform.invoke with kernel and
    // perimeter children.
    let u0_b = b.accounts.get_by_name(&u0.username).unwrap();
    let req = Platform::make_request(
        "GET",
        "view",
        &[("user", u0.username.as_str()), ("name", "photo0")],
        Some(&u0_b),
        Bytes::new(),
    );
    assert_eq!(b.invoke(Some(&u0_b), "devA/photos", req).status, 200);

    let spans = w5_obs::global().spans();
    assert!(!spans.is_empty(), "tracing recorded no spans");

    let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
    for expect in ["federation.pull", "net.http", "federation.export", "platform.invoke"] {
        assert!(
            names.iter().any(|n| n.starts_with(expect)),
            "missing {expect:?} span in {names:?}"
        );
    }

    // The pull and the peer's HTTP handling must share one trace id: that
    // is the wire-propagated context doing its job.
    let pull = spans.iter().find(|s| s.name.starts_with("federation.pull")).unwrap();
    let http = spans.iter().find(|s| s.name.starts_with("net.http")).unwrap();
    assert_eq!(pull.trace, http.trace, "wire context did not stitch the federation trace");

    let path = w5_bench::metrics::write_metrics("TRACES_smoke", &spans).unwrap();
    println!(
        "{} spans across {} trace(s); stitched federation trace {:016x}",
        spans.len(),
        w5_obs::trace::trace_ids(&spans).len(),
        pull.trace,
    );
    println!("wrote {}", path.display());
}
