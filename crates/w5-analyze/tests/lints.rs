//! Positive and negative fixtures for every lint code. Each test builds
//! the smallest configuration that should (or should not) trigger the
//! lint, so a regression in any one check fails in isolation.

use std::sync::Arc;
use w5_analyze::{AuditExt, AuditReport, Severity};
use w5_difc::{Label, LabelPair, TagKind};
use w5_platform::{
    Declassifier, ExportContext, FriendsOnly, GrantScope, Platform, PlatformConfig, RateLimited,
    RelationshipOracle, Verdict,
};
use w5_store::{QueryCost, QueryMode, Subject};

fn codes(report: &AuditReport) -> Vec<&str> {
    report.findings.iter().map(|f| f.code).collect()
}

/// Insert `n` rows into `table` (creating it) with the given labels. The
/// acting subject holds exactly the global capability bag — what any app
/// process on the platform effectively has.
fn seed_rows(p: &Platform, table: &str, labels: &LabelPair, n: usize) {
    let trusted = Subject::new(
        LabelPair::public(),
        w5_difc::CapSet::empty(),
    );
    let _ = p.db.execute(
        &trusted,
        QueryMode::Filtered,
        QueryCost::unlimited(),
        &LabelPair::public(),
        &format!("CREATE TABLE {table} (x TEXT)"),
    );
    for _ in 0..n {
        p.db.execute(
            &trusted,
            QueryMode::Filtered,
            QueryCost::unlimited(),
            labels,
            &format!("INSERT INTO {table} (x) VALUES ('r')"),
        )
        .expect("insert fixture row");
    }
}

// ---------------------------------------------------------------- W5A001

#[test]
fn w5a001_fires_when_ifc_is_off() {
    let p = Platform::new("l1-pos", PlatformConfig { enforce_ifc: false, ..Default::default() });
    p.accounts.register("alice", "pw").unwrap();
    let r = p.audit();
    assert_eq!(codes(&r), vec!["W5A001"]);
    assert_eq!(r.worst(), Some(Severity::Error));
}

#[test]
fn w5a001_silent_when_ifc_is_on() {
    let p = Platform::new_default("l1-neg");
    p.accounts.register("alice", "pw").unwrap();
    assert!(p.audit().with_code("W5A001").is_empty());
}

// ---------------------------------------------------------------- W5A002

/// A local widening wrapper: claims to defer to `friends-only`, allows all.
struct LeakyWrapper {
    inner: Arc<dyn Declassifier>,
}

impl Declassifier for LeakyWrapper {
    fn name(&self) -> &'static str {
        "leaky-wrapper"
    }
    fn description(&self) -> &'static str {
        "test fixture"
    }
    fn authorize(&self, _ctx: &ExportContext, _oracle: &dyn RelationshipOracle) -> Verdict {
        Verdict::Allow
    }
    fn audit_lines(&self) -> usize {
        1
    }
    fn inner(&self) -> Option<&dyn Declassifier> {
        Some(&*self.inner)
    }
}

#[test]
fn w5a002_fires_on_widening_wrapper() {
    let p = Platform::new_default("l2-pos");
    p.declassifiers.register(Arc::new(LeakyWrapper { inner: Arc::new(FriendsOnly) }));
    let r = p.audit();
    let hits = r.with_code("W5A002");
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].subject, "declassifier:leaky-wrapper");
    assert_eq!(hits[0].severity, Severity::Error);
}

#[test]
fn w5a002_silent_on_narrowing_wrapper() {
    let p = Platform::new_default("l2-neg");
    // RateLimited only narrows (inner deny is final), so no widening.
    p.declassifiers.register(Arc::new(RateLimited::new(Arc::new(FriendsOnly), 100)));
    assert!(p.audit().with_code("W5A002").is_empty());
}

// ---------------------------------------------------------------- W5A003

#[test]
fn w5a003_fires_on_write_tag_in_secrecy_census() {
    let p = Platform::new_default("l3-pos");
    let (tag, _) = p.registry.create_tag(TagKind::WriteProtect, "escrow");
    seed_rows(&p, "t3", &LabelPair::new(Label::empty().with(tag), Label::empty()), 1);
    let r = p.audit();
    let hits = r.with_code("W5A003");
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].subject, "tag:escrow");
}

#[test]
fn w5a003_silent_on_export_tag_rows() {
    let p = Platform::new_default("l3-neg");
    let alice = p.accounts.register("alice", "pw").unwrap();
    seed_rows(
        &p,
        "t3",
        &LabelPair::new(Label::empty().with(alice.export_tag), Label::empty()),
        1,
    );
    assert!(p.audit().with_code("W5A003").is_empty());
}

// ---------------------------------------------------------------- W5A004

#[test]
fn w5a004_fires_on_orphan_tag() {
    let p = Platform::new_default("l4-pos");
    p.accounts.register("alice", "pw").unwrap();
    p.registry.create_tag(TagKind::ExportProtect, "orphan");
    let r = p.audit();
    let hits = r.with_code("W5A004");
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].subject, "tag:orphan");
    assert_eq!(hits[0].severity, Severity::Info);
}

#[test]
fn w5a004_silent_when_tag_labels_data() {
    let p = Platform::new_default("l4-neg");
    let (tag, _) = p.registry.create_tag(TagKind::ExportProtect, "used");
    seed_rows(&p, "t4", &LabelPair::new(Label::empty().with(tag), Label::empty()), 1);
    assert!(p.audit().with_code("W5A004").is_empty());
}

// ---------------------------------------------------------------- W5A005

#[test]
fn w5a005_fires_on_global_plus_integrity() {
    let p = Platform::new_default("l5-pos");
    let alice = p.accounts.register("alice", "pw").unwrap();
    // An ExportProtect tag (t+ global) in the *integrity* position: anyone
    // can mint the "endorsement".
    seed_rows(
        &p,
        "t5",
        &LabelPair::new(Label::empty(), Label::empty().with(alice.export_tag)),
        1,
    );
    let r = p.audit();
    let hits = r.with_code("W5A005");
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].subject, "tag:export:alice");
    assert_eq!(hits[0].severity, Severity::Warning);
}

#[test]
fn w5a005_silent_on_write_protect_integrity() {
    let p = Platform::new_default("l5-neg");
    let alice = p.accounts.register("alice", "pw").unwrap();
    // The normal shape: WriteProtect tag endorses, t+ is creator-held, so
    // the insert must act with the owner's capabilities.
    let owner = Subject::new(LabelPair::public(), alice.owner_caps.clone());
    let _ = p.db.execute(
        &owner,
        QueryMode::Filtered,
        QueryCost::unlimited(),
        &LabelPair::public(),
        "CREATE TABLE t5 (x TEXT)",
    );
    p.db.execute(
        &owner,
        QueryMode::Filtered,
        QueryCost::unlimited(),
        &LabelPair::new(
            Label::empty().with(alice.export_tag),
            Label::empty().with(alice.write_tag),
        ),
        "INSERT INTO t5 (x) VALUES ('r')",
    )
    .expect("owner-endorsed insert");
    assert!(p.audit().with_code("W5A005").is_empty());
}

// ---------------------------------------------------------------- W5A006

#[test]
fn w5a006_fires_on_unmetered_sibling() {
    let p = Platform::new_default("l6-pos");
    let alice = p.accounts.register("alice", "pw").unwrap();
    p.declassifiers.register(Arc::new(RateLimited::new(Arc::new(FriendsOnly), 3)));
    p.policies.grant_declassifier(alice.id, "rate-limited", GrantScope::AllApps);
    // Sibling grant releases friends too — unmetered.
    p.policies.grant_declassifier(alice.id, "friends-only", GrantScope::App("devB/blog".into()));
    let r = p.audit();
    let hits = r.with_code("W5A006");
    assert_eq!(hits.len(), 1, "findings: {:#?}", r.findings);
    assert_eq!(hits[0].subject, "user:alice");
    assert!(hits[0].message.contains("friends-only"));
}

#[test]
fn w5a006_silent_when_sibling_audiences_disjoint() {
    let p = Platform::new_default("l6-neg");
    let alice = p.accounts.register("alice", "pw").unwrap();
    p.declassifiers.register(Arc::new(RateLimited::new(Arc::new(FriendsOnly), 3)));
    p.policies.grant_declassifier(alice.id, "rate-limited", GrantScope::AllApps);
    // owner-only overlaps only on the owner class, which doesn't count.
    p.policies.grant_declassifier(alice.id, "owner-only", GrantScope::AllApps);
    assert!(p.audit().with_code("W5A006").is_empty());
}

#[test]
fn w5a006_silent_when_scopes_disjoint() {
    let p = Platform::new_default("l6-neg2");
    let alice = p.accounts.register("alice", "pw").unwrap();
    p.declassifiers.register(Arc::new(RateLimited::new(Arc::new(FriendsOnly), 3)));
    p.policies.grant_declassifier(alice.id, "rate-limited", GrantScope::App("devA/photos".into()));
    p.policies.grant_declassifier(alice.id, "friends-only", GrantScope::App("devB/blog".into()));
    assert!(p.audit().with_code("W5A006").is_empty());
}

// ---------------------------------------------------------------- W5A007

#[test]
fn w5a007_fires_on_dangling_grant() {
    let p = Platform::new_default("l7-pos");
    let alice = p.accounts.register("alice", "pw").unwrap();
    p.policies.grant_declassifier(alice.id, "retired-policy", GrantScope::AllApps);
    let r = p.audit();
    let hits = r.with_code("W5A007");
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].subject, "user:alice");
    assert!(hits[0].message.contains("retired-policy"));
}

#[test]
fn w5a007_silent_on_registered_grant() {
    let p = Platform::new_default("l7-neg");
    let alice = p.accounts.register("alice", "pw").unwrap();
    p.policies.grant_declassifier(alice.id, "friends-only", GrantScope::AllApps);
    assert!(p.audit().with_code("W5A007").is_empty());
}

// ---------------------------------------------------------------- W5A008

#[test]
fn w5a008_fires_on_mixed_table() {
    let p = Platform::new_default("l8-pos");
    let alice = p.accounts.register("alice", "pw").unwrap();
    let secret = LabelPair::new(Label::empty().with(alice.export_tag), Label::empty());
    seed_rows(&p, "t8", &secret, 2);
    seed_rows(&p, "t8", &LabelPair::public(), 3);
    let r = p.audit();
    let hits = r.with_code("W5A008");
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].subject, "table:t8");
    assert!(hits[0].message.contains("3 public row(s)"));
    assert!(hits[0].message.contains("2 secret row(s)"));
    assert_eq!(hits[0].severity, Severity::Info);
}

#[test]
fn w5a008_silent_on_uniform_tables() {
    let p = Platform::new_default("l8-neg");
    let alice = p.accounts.register("alice", "pw").unwrap();
    let secret = LabelPair::new(Label::empty().with(alice.export_tag), Label::empty());
    seed_rows(&p, "t8a", &secret, 2); // all secret
    seed_rows(&p, "t8b", &LabelPair::public(), 3); // all public
    assert!(p.audit().with_code("W5A008").is_empty());
}

// ----------------------------------------------------- ordering + dedup

#[test]
fn findings_sort_most_severe_first() {
    let p = Platform::new("mix", PlatformConfig { enforce_ifc: false, ..Default::default() });
    let alice = p.accounts.register("alice", "pw").unwrap();
    p.registry.create_tag(TagKind::ExportProtect, "orphan");
    p.policies.grant_declassifier(alice.id, "gone", GrantScope::AllApps);
    let r = p.audit();
    let sev: Vec<Severity> = r.findings.iter().map(|f| f.severity).collect();
    let mut sorted = sev.clone();
    sorted.sort_by(|a, b| b.cmp(a));
    assert_eq!(sev, sorted, "findings must be most-severe-first: {:#?}", r.findings);
    assert!(codes(&r).contains(&"W5A001"));
    assert!(codes(&r).contains(&"W5A004"));
    assert!(codes(&r).contains(&"W5A007"));
}
