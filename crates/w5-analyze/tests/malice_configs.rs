//! The configuration-level attacks from `w5_apps::malice` must be caught
//! by the static auditor — with the *right* codes, and without collateral
//! findings against the honest parts of the deployment.

use w5_analyze::{AuditExt, ExitClass, Severity};
use w5_platform::{GrantScope, Platform};

/// Attack 8: the `friendly-share` widening chain is flagged as
/// W5A002 declass-widening at error severity.
#[test]
fn widening_chain_is_flagged_w5a002() {
    let platform = Platform::new_default("malice-widening");
    w5_apps::install_all(&platform);
    let alice = platform.accounts.register("alice", "pw").unwrap();

    // Before the attack: clean.
    assert!(platform.audit().is_clean());

    let name = w5_apps::malice::install_widening_attack(&platform);
    // The victim grants the innocent-looking declassifier, believing it
    // narrows to friends-only.
    platform.policies.grant_declassifier(alice.id, name, GrantScope::AllApps);

    let report = platform.audit();
    let hits = report.with_code("W5A002");
    assert_eq!(hits.len(), 1, "findings: {:#?}", report.findings);
    assert_eq!(hits[0].severity, Severity::Error);
    assert_eq!(hits[0].subject, "declassifier:friendly-share");
    assert!(
        hits[0].message.contains("friendly-share -> friends-only"),
        "message should show the chain: {}",
        hits[0].message
    );
    assert!(report.with_code("W5A003").is_empty());
    // The flow graph agrees: alice's export tag now reaches strangers and
    // anonymous viewers through every app.
    let analysis = w5_analyze::Analysis::analyze(w5_analyze::ConfigSnapshot::capture(&platform));
    assert!(analysis.allowed(
        alice.export_tag.raw(),
        "mal/exfiltrator",
        &[ExitClass::Strangers, ExitClass::Anonymous],
    ));
}

/// Attack 9: the WriteProtect-in-secrecy escrow rows are flagged as
/// W5A003 capability-escalation at error severity.
#[test]
fn escalation_chain_is_flagged_w5a003() {
    let platform = Platform::new_default("malice-escalation");
    w5_apps::install_all(&platform);
    platform.accounts.register("alice", "pw").unwrap();

    assert!(platform.audit().is_clean());

    let tag = w5_apps::malice::install_escalation_attack(&platform);

    let report = platform.audit();
    let hits = report.with_code("W5A003");
    assert_eq!(hits.len(), 1, "findings: {:#?}", report.findings);
    assert_eq!(hits[0].severity, Severity::Error);
    assert_eq!(hits[0].subject, "tag:mal:escrow");
    assert!(
        hits[0].message.contains("sql:mal_escrow"),
        "message should name the store: {}",
        hits[0].message
    );
    assert!(report.with_code("W5A002").is_empty());
    // Reachability shows the vacuous tag exiting everywhere, unguarded.
    let analysis = w5_analyze::Analysis::analyze(w5_analyze::ConfigSnapshot::capture(&platform));
    let exits = analysis.exits(tag.raw());
    assert!(exits.iter().any(|e| e.class == ExitClass::Anonymous && e.unguarded));
}

/// Both attacks at once: two distinct error codes, no cross-talk, and the
/// registration-time hook records them in the flow ledger.
#[test]
fn both_attacks_distinct_codes_and_ledger_events() {
    use std::sync::Arc;
    use w5_obs::{EventKind, Ledger};

    let ledger = Arc::new(Ledger::new());
    let platform = Platform::new_default("malice-both");
    w5_apps::install_all(&platform);
    let alice = platform.accounts.register("alice", "pw").unwrap();

    let name = w5_apps::malice::install_widening_attack(&platform);
    platform.policies.grant_declassifier(alice.id, name, GrantScope::AllApps);
    w5_apps::malice::install_escalation_attack(&platform);

    let report = {
        let _scope = w5_obs::scoped(Arc::clone(&ledger));
        platform.audit_recorded()
    };
    assert_eq!(report.with_code("W5A002").len(), 1);
    assert_eq!(report.with_code("W5A003").len(), 1);
    assert_eq!(report.worst(), Some(Severity::Error));
    assert!(!report.passes(Severity::Error));

    let codes: Vec<String> = ledger
        .events()
        .into_iter()
        .filter_map(|e| match e.kind {
            EventKind::AuditFinding { code, .. } => Some(code),
            _ => None,
        })
        .collect();
    assert!(codes.contains(&"W5A002".to_string()));
    assert!(codes.contains(&"W5A003".to_string()));
}
