//! End-to-end chaos: the seeded fault-injection harness run as a tier-1
//! integration test.
//!
//! Three claims, each load-bearing for the whole `w5-chaos` subsystem:
//!
//! 1. **Replay** — the same `ChaosSpec` produces a bit-identical
//!    `ChaosOutcome` (same obs-ledger digest, same fault tallies, same
//!    response counts). Every failure the harness can find is therefore
//!    reproducible from its seed alone.
//! 2. **Noninterference under faults** — across the matrix, no injected
//!    fault ever turns a refusal into a disclosure: zero violations.
//! 3. **Federation rides out the weather** — partitions and reordered
//!    sync batches delay mirroring but never corrupt it; the mirrored
//!    state converges to exactly what a fault-free sync produces.

use bytes::Bytes;
use std::sync::Arc;
use w5_federation::service::opt_in;
use w5_federation::{AccountLink, FederationService, SyncAgent};
use w5_net::{Server, ServerConfig};
use w5_platform::Platform;
use w5_sim::{run_chaos, ChaosSpec};
use w5_store::Subject;

#[test]
fn chaos_matrix_replays_bit_identically() {
    for seed in [1u64, 42, 20070824] {
        let spec = ChaosSpec { seed, steps: 300, fault_rate: 0.08 };
        let first = run_chaos(&spec);
        let second = run_chaos(&spec);
        assert_eq!(first, second, "seed {seed}: fault schedule must replay bit-identically");
        assert!(
            first.violations.is_empty(),
            "seed {seed}: invariant violations under faults: {:?}",
            first.violations
        );
        assert!(
            first.faults.total_injected() > 0,
            "seed {seed}: the storm never fired — the harness tested nothing"
        );
        assert!(first.delivered > 0 && first.blocked > 0, "seed {seed}: workload too one-sided");
    }
}

#[test]
fn storm_rate_changes_the_run_but_not_the_verdict() {
    // Heavier weather: more degradation, still zero violations.
    let calm = run_chaos(&ChaosSpec { seed: 9, steps: 300, fault_rate: 0.0 });
    let storm = run_chaos(&ChaosSpec { seed: 9, steps: 300, fault_rate: 0.25 });
    assert_eq!(calm.degraded, 0);
    assert!(storm.degraded > calm.degraded);
    assert!(calm.violations.is_empty(), "{:?}", calm.violations);
    assert!(storm.violations.is_empty(), "{:?}", storm.violations);
    assert_ne!(calm.digest, storm.digest, "faults must be visible in the event stream");
}

mod chaos_properties {
    //! The replay and noninterference claims as *properties*: proptest
    //! generates the fault schedule's shape (seed, workload length,
    //! storm rate) and every generated schedule must replay identically
    //! and uphold every invariant.
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn any_fault_schedule_replays_and_never_leaks(
            seed in any::<u64>(),
            steps in 30u32..100,
            rate_pct in 0u32..30,
        ) {
            let spec = ChaosSpec { seed, steps, fault_rate: rate_pct as f64 / 100.0 };
            let first = run_chaos(&spec);
            prop_assert!(
                first.violations.is_empty(),
                "seed {seed} steps {steps} rate {rate_pct}%: {:?}",
                first.violations
            );
            let second = run_chaos(&spec);
            prop_assert_eq!(first, second);
        }
    }
}

const TOKEN: &str = "chaos-peer-token";

/// Build provider A holding `files` sentinel files for bob (opted in) and
/// a fresh provider B, and return both plus the running export server.
fn two_providers(files: usize) -> (Arc<Platform>, Arc<Platform>, w5_net::ServerHandle) {
    let a = Platform::new_default("provider-a");
    let b = Platform::new_default("provider-b");
    let bob_a = a.accounts.register("bob", "pw").unwrap();
    b.accounts.register("bob", "pw").unwrap();
    opt_in(&a, bob_a.id);
    let subject =
        Subject::new(w5_difc::LabelPair::public(), bob_a.owner_caps.clone());
    for i in 0..files {
        a.fs.create(
            &subject,
            &format!("/photos/bob/img{i}"),
            bob_a.data_labels(),
            Bytes::from(format!("PAYLOAD-{i}")),
        )
        .unwrap();
    }
    let svc = FederationService::new(Arc::clone(&a), TOKEN);
    let server = Server::start("127.0.0.1:0", ServerConfig::default(), Arc::new(svc)).unwrap();
    (a, b, server)
}

fn mirrored_state(p: &Platform, files: usize) -> Vec<(String, Bytes)> {
    let bob = p.accounts.get_by_name("bob").unwrap();
    let subject =
        Subject::new(w5_difc::LabelPair::public(), bob.owner_caps.clone());
    (0..files)
        .map(|i| {
            let path = format!("/photos/bob/img{i}");
            let (data, _) = p.fs.read(&subject, &path).unwrap();
            (path, data)
        })
        .collect()
}

#[test]
fn federation_survives_partitions_and_reordered_batches() {
    const FILES: usize = 8;

    // Reference: a fault-free mirror.
    let (_a0, b0, server0) = two_providers(FILES);
    let agent0 = SyncAgent::new(Arc::clone(&b0), TOKEN);
    let link = AccountLink { remote_user: "bob".into(), local_user: "bob".into() };
    agent0.pull(server0.addr(), &link).unwrap();
    let want = mirrored_state(&b0, FILES);
    server0.shutdown();

    // Stormy run: partitions, reordered batches, torn local writes.
    let (_a, b, server) = two_providers(FILES);
    let agent = SyncAgent::new(Arc::clone(&b), TOKEN);
    let plan = w5_chaos::FaultPlan::new(4242)
        .with(w5_chaos::Site::FedPartition, 0.4)
        .with(w5_chaos::Site::FedReorder, 0.5)
        .with(w5_chaos::Site::FsWrite, 0.2);
    let inj = w5_chaos::Injector::new(plan);
    let guard = w5_chaos::with_injector(Arc::clone(&inj));
    let report = agent
        .pull_with_retry(server.addr(), &link, 16, std::time::Duration::ZERO)
        .expect("sync must eventually ride out transient faults");
    drop(guard);
    server.shutdown();

    assert_eq!(report.created, FILES, "every file mirrored exactly once: {report:?}");
    assert_eq!(mirrored_state(&b, FILES), want, "stormy mirror must converge to the calm one");
    let tallies = inj.report();
    assert!(tallies.total_injected() > 0, "the storm never fired");
}

/// The relationship oracle and the trusted write path under a store that
/// aborts every statement: the perimeter's question is answered "no", the
/// write rides out its sixteen retries and is dropped without a fault
/// report (an abort is weather, not a refusal), and both recover with it.
#[test]
fn platform_statements_fail_closed_and_quiet_under_sql_aborts() {
    use w5_platform::RelationshipOracle;

    let p = Platform::new_default("chaos-oracle");
    p.add_friend("bob", "alice");
    p.add_group_member("bob", "roommates", "alice");
    let inj = w5_chaos::Injector::new(
        w5_chaos::FaultPlan::new(1).with(w5_chaos::Site::SqlQuery, 1.0),
    );
    let guard = w5_chaos::with_injector(Arc::clone(&inj));
    assert!(!p.oracle().are_friends("bob", "alice"));
    assert!(!p.oracle().in_group("bob", "roommates", "alice"));
    p.add_friend("bob", "carol");
    drop(guard);

    assert_eq!(inj.report().total_injected(), 2 + 16);
    assert!(p.fault_reports().is_empty());
    assert!(p.oracle().are_friends("bob", "alice"));
    assert!(p.oracle().in_group("bob", "roommates", "alice"));
    assert!(!p.oracle().are_friends("bob", "carol"), "the dropped write stayed dropped");
}

#[test]
fn partitioned_sync_fails_typed_and_transient() {
    let (_a, b, server) = two_providers(1);
    let agent = SyncAgent::new(Arc::clone(&b), TOKEN);
    let link = AccountLink { remote_user: "bob".into(), local_user: "bob".into() };
    let inj = w5_chaos::Injector::new(
        w5_chaos::FaultPlan::new(1).with(w5_chaos::Site::FedPartition, 1.0),
    );
    let guard = w5_chaos::with_injector(Arc::clone(&inj));
    let err = agent.pull(server.addr(), &link).unwrap_err();
    drop(guard);
    server.shutdown();
    assert_eq!(err, w5_federation::SyncError::Partitioned);
    assert!(err.is_transient());
}
