//! Cross-crate lock-order certification: the declared workspace manifest
//! is self-consistent, a real platform workload's observed order graph
//! certifies against it, and a deliberately inverted fixture is caught
//! as a W5D001 cycle with a readable path.

use std::sync::Arc;
use w5_lockdep::{analyze, analyze_manifest, Manifest, Severity};
use w5_sync::lockdep;

#[test]
fn workspace_manifest_is_clean() {
    let report = analyze_manifest(&Manifest::workspace());
    assert!(
        report.findings.is_empty(),
        "declared order must certify with zero findings:\n{}",
        report.render_human()
    );
    assert!(report.passes(Severity::Info));
}

#[test]
fn live_platform_workload_certifies_against_the_manifest() {
    // Drive a real multi-layer workload — kernel spawns and sends, store
    // queries, tag creation — under a scoped recorder, then require the
    // observed acquisition graph to certify at `warning`: not even an
    // unannotated-ledger or undeclared-class finding may appear.
    use bytes::Bytes;
    use w5_difc::{CapSet, LabelPair, TagKind, TagRegistry};
    use w5_kernel::{Kernel, ResourceLimits, SpawnSpec};

    let rec = Arc::new(lockdep::Recorder::new());
    let run = {
        let _scope = lockdep::scoped(Arc::clone(&rec));
        let k = Kernel::new(Arc::new(TagRegistry::new()));
        let mk = |name: &str| {
            k.create_process(
                name,
                LabelPair::public(),
                CapSet::empty(),
                ResourceLimits::unlimited(),
            )
        };
        let a = mk("a");
        let b = mk("b");
        k.create_tag(a, TagKind::ExportProtect, "export:a").unwrap();
        for _ in 0..16 {
            k.send_strict(a, b, Bytes::from_static(b"m"), CapSet::empty()).unwrap();
            k.send_strict(b, a, Bytes::from_static(b"r"), CapSet::empty()).unwrap();
        }
        k.spawn(
            a,
            SpawnSpec {
                name: "child".into(),
                labels: LabelPair::public(),
                grant: CapSet::empty(),
                limits: ResourceLimits::sandbox_default(),
            },
        )
        .unwrap();

        let db = w5_store::Database::new();
        let subject = w5_store::Subject::anonymous();
        let exec = |sql: &str| {
            db.execute(
                &subject,
                w5_store::QueryMode::Filtered,
                w5_store::QueryCost::unlimited(),
                &LabelPair::public(),
                sql,
            )
            .unwrap()
        };
        exec("CREATE TABLE t (id INTEGER, body TEXT)");
        exec("INSERT INTO t (id, body) VALUES (1, 'x'), (2, 'y')");
        exec("SELECT * FROM t WHERE id = 1");
        rec.snapshot()
    };

    assert!(!run.edges.is_empty() || !run.same_class.is_empty(), "workload recorded nothing");
    let report = analyze(&Manifest::workspace(), &run);
    assert!(
        report.passes(Severity::Warning),
        "live workload order graph must certify:\n{}",
        report.render_human()
    );
}

#[test]
fn inverted_fixture_is_a_w5d001_cycle_with_readable_path() {
    let rec = Arc::new(lockdep::Recorder::new());
    let run = {
        let _scope = lockdep::scoped(Arc::clone(&rec));
        let alpha = w5_sync::Mutex::new("fixture.alpha", ());
        let beta = w5_sync::Mutex::new("fixture.beta", ());
        {
            let _a = alpha.lock();
            let _b = beta.lock();
        }
        {
            let _b = beta.lock();
            let _a = alpha.lock();
        }
        rec.snapshot()
    };
    let report = analyze(&Manifest::workspace(), &run);
    assert!(!report.passes(Severity::Error), "inverted fixture must fail the gate");
    let cycle = report
        .findings
        .iter()
        .find(|f| f.code == "W5D001")
        .expect("W5D001 finding present");
    for needle in ["fixture.alpha", "fixture.beta", "-> back to", "tests/lockdep.rs"] {
        assert!(
            cycle.message.contains(needle),
            "cycle path should contain {needle:?}: {}",
            cycle.message
        );
    }
}
