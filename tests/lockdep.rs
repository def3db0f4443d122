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
    // Drive a real multi-layer workload — launches and read taints in the
    // kernel, store queries, tag creation — under a scoped recorder, then
    // require the observed acquisition graph to certify at `warning`: not
    // even an unannotated-ledger or undeclared-class finding may appear.
    use w5_difc::{CapSet, Label, LabelPair, TagKind, TagRegistry};
    use w5_kernel::{Kernel, ResourceLimits};

    let rec = Arc::new(lockdep::Recorder::new());
    let run = {
        let _scope = lockdep::scoped(Arc::clone(&rec));
        let registry = Arc::new(TagRegistry::new());
        let k = Kernel::new(Arc::clone(&registry));
        let (e, _) = registry.create_tag(TagKind::ExportProtect, "export:a");
        let (r, r_caps) = registry.create_tag(TagKind::ReadProtect, "read:k");
        let mk = |name: &str, caps: &CapSet| {
            k.create_process(name, LabelPair::public(), caps.clone(), ResourceLimits::unlimited())
        };
        let at = |t| LabelPair::new(Label::singleton(t), Label::empty());
        let b = mk("b", &CapSet::empty());
        for _ in 0..16 {
            // Read taints ledger their verdicts under the process table's
            // guard: a launch raised to an export tag, then to a
            // read-protect tag it was created holding the `t+` of, and
            // the same read refused to a process without it.
            let a = mk("a", &r_caps);
            k.taint_for_read(a, &at(e)).unwrap();
            k.taint_for_read(a, &at(r)).unwrap();
            assert!(k.taint_for_read(b, &at(r)).is_err());
            k.exit(a).unwrap();
            k.reap(a).unwrap();
        }

        let db = w5_store::Database::new(Arc::clone(&registry));
        let subject = w5_store::Subject::anonymous();
        let exec = |labels: &LabelPair, sql: &str| {
            db.execute(
                &subject,
                w5_store::QueryMode::Filtered,
                w5_store::QueryCost::unlimited(),
                labels,
                sql,
            )
            .unwrap()
        };
        let public = LabelPair::public();
        exec(&public, "CREATE TABLE t (id INTEGER, body TEXT)");
        exec(&public, "INSERT INTO t (id, body) VALUES (1, 'x'), (2, 'y')");
        exec(&public, "SELECT * FROM t WHERE id = 1");
        // A filtered SELECT that meets a partition its subject may not
        // read: the scan hands the ledger its verdicts under the table lock.
        let (locked, _) = registry.create_tag(TagKind::ReadProtect, "read:t");
        let hidden = LabelPair::new(w5_difc::Label::singleton(locked), w5_difc::Label::empty());
        exec(&hidden, "INSERT INTO t (id, body) VALUES (3, 'z')");
        assert_eq!(exec(&public, "SELECT * FROM t WHERE id > 0").rows().len(), 2);
        rec.snapshot()
    };

    assert!(
        run.edges.iter().any(|e| e.held == "kernel.procs" && e.acquired == "obs.ledger" && e.allowed),
        "the kernel's ledgered verdicts must show as an annotated kernel.procs → obs.ledger edge"
    );
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
