//! E7 — multi-provider mirroring (paper §3.3).
//!
//! Two providers on loopback TCP; a linked user's data mirrors through
//! the import/export declassifiers. Measures propagation latency per sync
//! round, wire bytes, and convergence behaviour as the dataset grows.

use bytes::Bytes;
use std::sync::Arc;
use w5_federation::service::opt_in;
use w5_federation::{AccountLink, FederationService, SyncAgent};
use w5_net::{Server, ServerConfig};
use w5_platform::Platform;
use w5_store::Subject;
use w5_sim::Table;

const TOKEN: &str = "peer-secret";

fn main() {
    w5_bench::banner("E7", "provider-to-provider mirror throughput", "§3.3");

    let mut table = Table::new([
        "files",
        "bytes/file",
        "first sync ms",
        "converged resync ms",
        "wire payload KB",
        "files/s (first)",
    ]);

    for &(files, size) in &[(10usize, 1usize << 10), (100, 1 << 10), (100, 16 << 10), (500, 4 << 10)] {
        let a = Platform::new_default("provider-a");
        let b = Platform::new_default("provider-b");
        let bob_a = a.accounts.register("bob", "pw").unwrap();
        let _bob_b = b.accounts.register("bob", "pw").unwrap();
        opt_in(&a, bob_a.id);

        // Populate provider A.
        let subject = Subject::new(
            w5_difc::LabelPair::public(),
            bob_a.owner_caps.clone(),
        );
        for i in 0..files {
            a.fs.create(
                &subject,
                &format!("/data/file{i}"),
                bob_a.data_labels(),
                Bytes::from(vec![b'x'; size]),
            )
            .unwrap();
        }

        let svc = FederationService::new(Arc::clone(&a), TOKEN);
        let server = Server::start("127.0.0.1:0", ServerConfig::default(), Arc::new(svc)).unwrap();
        let agent = SyncAgent::new(Arc::clone(&b), TOKEN);
        let link = AccountLink { remote_user: "bob".into(), local_user: "bob".into() };

        let t = std::time::Instant::now();
        let first = agent.pull(server.addr(), &link).unwrap();
        let first_ms = t.elapsed().as_secs_f64() * 1e3;
        assert_eq!(first.created, files);

        let t = std::time::Instant::now();
        let again = agent.pull(server.addr(), &link).unwrap();
        let again_ms = t.elapsed().as_secs_f64() * 1e3;
        assert_eq!(again.unchanged, files);

        table.row([
            files.to_string(),
            size.to_string(),
            format!("{first_ms:.1}"),
            format!("{again_ms:.1}"),
            format!("{:.0}", first.bytes as f64 / 1024.0),
            format!("{:.0}", files as f64 / (first_ms / 1e3)),
        ]);
        server.shutdown();
    }

    println!("{table}");
    println!("shape check: first sync scales with payload; converged resyncs cost only the");
    println!("             transfer+hash check (no writes); updates propagate in one round.");
}
