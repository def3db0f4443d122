//! The export perimeter: the last line of W5's security argument.
//!
//! Every byte leaving the platform passes through [`Exporter::check`].
//! The decision, per secrecy tag on the outgoing data:
//!
//! 1. The tag is the authenticated viewer's own export tag → cleared (the
//!    boilerplate policy: "Bob's data can only leave the security perimeter
//!    if destined for Bob's browser"). The platform exercises `e_u-` on the
//!    session endpoint it opened when it authenticated `u`.
//! 2. Otherwise, the tag's owner must have granted — for the application
//!    that produced the response — a declassifier that answers
//!    [`Verdict::Allow`] for this viewer.
//! 3. Anything else blocks the response. The application that produced the
//!    data is never told which tag blocked it.
//!
//! Integrity is advisory at the perimeter (browsers don't check
//! endorsements); the integrity label is reported for audit.

use crate::declass::{DeclassifierRegistry, ExportContext, RelationshipOracle, Verdict};
use crate::policy::PolicyStore;
use crate::principal::{Account, AccountStore, UserId};
use w5_sync::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use w5_difc::{LabelPair, Tag};

/// How one tag was cleared.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Clearance {
    /// The viewer owns the tag (session endpoint).
    OwnerSession,
    /// A granted declassifier allowed it.
    Declassifier {
        /// Declassifier name.
        name: String,
    },
}

/// The perimeter's decision for one response.
#[derive(Clone, Debug)]
pub struct ExportDecision {
    /// May the response leave?
    pub allowed: bool,
    /// Per-tag clearances (for audit).
    pub cleared: Vec<(Tag, Clearance)>,
    /// Tags that blocked the export (empty iff allowed).
    pub blocked: Vec<Tag>,
}

/// One audit-log entry. The provider can show users exactly which
/// declassifier released which tag to whom.
#[derive(Clone, Debug)]
pub struct AuditEntry {
    /// Viewer (None = anonymous).
    pub viewer: Option<UserId>,
    /// Application that produced the response.
    pub app: String,
    /// The decision.
    pub allowed: bool,
    /// Tags involved.
    pub secrecy_tags: Vec<Tag>,
}

/// Perimeter throughput counters, read through [`Exporter::stats_view`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct PerimeterStats {
    /// Responses checked.
    pub checked: u64,
    /// Responses blocked.
    pub blocked: u64,
    /// Individual declassifier consultations.
    pub declassifier_calls: u64,
}

/// The exporter. One per platform instance.
pub struct Exporter {
    checked: AtomicU64,
    blocked: AtomicU64,
    declassifier_calls: AtomicU64,
    /// Audit ring: oldest entries evicted from the front in O(1).
    audit: Mutex<VecDeque<AuditEntry>>,
    /// Cap on retained audit entries (ring semantics).
    audit_cap: usize,
}

impl Default for Exporter {
    fn default() -> Self {
        Exporter::new()
    }
}

impl Exporter {
    /// A fresh exporter.
    pub fn new() -> Exporter {
        Exporter {
            checked: AtomicU64::new(0),
            blocked: AtomicU64::new(0),
            declassifier_calls: AtomicU64::new(0),
            audit: Mutex::new("platform.perimeter", VecDeque::new()),
            audit_cap: 10_000,
        }
    }

    /// An exporter retaining at most `cap` audit entries (test/tuning use).
    pub fn with_audit_cap(cap: usize) -> Exporter {
        Exporter { audit_cap: cap.max(1), ..Exporter::new() }
    }

    /// Decide whether `labels` may be exported to `viewer` for a response
    /// produced by `app`.
    #[allow(clippy::too_many_arguments)]
    pub fn check(
        &self,
        labels: &LabelPair,
        viewer: Option<&Account>,
        app: &str,
        accounts: &AccountStore,
        policies: &PolicyStore,
        declassifiers: &DeclassifierRegistry,
        oracle: &dyn RelationshipOracle,
    ) -> ExportDecision {
        let started = std::time::Instant::now();
        self.checked.fetch_add(1, Ordering::Relaxed);
        let _span = w5_obs::span(
            "platform.export_check",
            w5_obs::Layer::Platform,
            labels.secrecy.to_obs(),
        );
        let mut cleared = Vec::new();
        let mut blocked = Vec::new();

        for tag in labels.secrecy.iter() {
            // Case 1: the viewer's own tag (export or read-protection).
            if let Some(v) = viewer {
                if v.export_tag == tag || v.read_tag == Some(tag) {
                    cleared.push((tag, Clearance::OwnerSession));
                    continue;
                }
            }
            // Case 2: a declassifier granted by the tag's owner.
            let clearance = accounts.owner_of_secrecy_tag(tag).and_then(|owner_id| {
                let owner = accounts.get(owner_id)?;
                let policy = policies.get(owner_id);
                let ctx = ExportContext {
                    owner: owner_id,
                    owner_name: &owner.username,
                    viewer: viewer.map(|v| v.id),
                    viewer_name: viewer.map(|v| v.username.as_str()),
                    app,
                };
                let secrecy = w5_obs::ObsLabel::singleton(tag.raw());
                for name in policy.granted_for(app) {
                    if let Some(verdict) = declassifiers.consult(name, &ctx, oracle, &secrecy) {
                        self.declassifier_calls.fetch_add(1, Ordering::Relaxed);
                        if verdict == Verdict::Allow {
                            return Some(Clearance::Declassifier { name: name.to_string() });
                        }
                    }
                }
                None
            });
            match clearance {
                Some(c) => cleared.push((tag, c)),
                None => blocked.push(tag),
            }
        }

        let allowed = blocked.is_empty();
        if !allowed {
            self.blocked.fetch_add(1, Ordering::Relaxed);
        }
        {
            let mut audit = self.audit.lock();
            if audit.len() >= self.audit_cap {
                audit.pop_front();
            }
            audit.push_back(AuditEntry {
                viewer: viewer.map(|v| v.id),
                app: app.to_string(),
                allowed,
                secrecy_tags: labels.secrecy.iter().collect(),
            });
        }
        // The decision is labeled with the response's secrecy: a blocked
        // export names the tags that blocked it, which is exactly the data
        // the perimeter refused to release.
        w5_obs::record(
            labels.secrecy.to_obs(),
            w5_obs::EventKind::ExportCheck {
                app: app.to_string(),
                allowed,
                blocked_tags: blocked.len() as u64,
            },
        );
        w5_obs::time("platform.export_check", labels.secrecy.to_obs(), started.elapsed());
        ExportDecision { allowed, cleared, blocked }
    }

    /// Counter snapshot.
    pub fn stats_view(&self) -> PerimeterStats {
        PerimeterStats {
            checked: self.checked.load(Ordering::Relaxed),
            blocked: self.blocked.load(Ordering::Relaxed),
            declassifier_calls: self.declassifier_calls.load(Ordering::Relaxed),
        }
    }

    /// Recent audit entries (most recent last).
    pub fn audit_log(&self) -> Vec<AuditEntry> {
        self.audit.lock().iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::declass::StaticRelations;
    use crate::policy::GrantScope;
    use std::sync::Arc;
    use w5_difc::{Label, TagRegistry};

    struct World {
        accounts: AccountStore,
        policies: PolicyStore,
        declass: DeclassifierRegistry,
        rel: StaticRelations,
        exporter: Exporter,
        bob: Account,
        alice: Account,
    }

    fn world() -> World {
        let reg = Arc::new(TagRegistry::new());
        let accounts = AccountStore::new(reg);
        let bob = accounts.register("bob", "pw").unwrap();
        let alice = accounts.register("alice", "pw").unwrap();
        World {
            accounts,
            policies: PolicyStore::new(),
            declass: DeclassifierRegistry::with_builtins(),
            rel: StaticRelations::new(),
            exporter: Exporter::new(),
            bob,
            alice,
        }
    }

    fn bob_data(w: &World) -> LabelPair {
        LabelPair::new(Label::singleton(w.bob.export_tag), Label::empty())
    }

    #[test]
    fn owner_session_always_clears_own_tag() {
        let w = world();
        let d = w.exporter.check(
            &bob_data(&w),
            Some(&w.bob),
            "devA/photos",
            &w.accounts,
            &w.policies,
            &w.declass,
            &w.rel,
        );
        assert!(d.allowed);
        assert_eq!(d.cleared, vec![(w.bob.export_tag, Clearance::OwnerSession)]);
    }

    #[test]
    fn stranger_blocked_without_grant() {
        let w = world();
        let d = w.exporter.check(
            &bob_data(&w),
            Some(&w.alice),
            "devA/photos",
            &w.accounts,
            &w.policies,
            &w.declass,
            &w.rel,
        );
        assert!(!d.allowed);
        assert_eq!(d.blocked, vec![w.bob.export_tag]);
        let stats = w.exporter.stats_view();
        assert_eq!((stats.checked, stats.blocked), (1, 1));
    }

    #[test]
    fn friends_only_grant_opens_the_hole() {
        let w = world();
        w.policies.grant_declassifier(
            w.bob.id,
            "friends-only",
            GrantScope::App("devA/social".into()),
        );
        w.rel.add_friend("bob", "alice");
        // Alice through the granted app: allowed.
        let d = w.exporter.check(
            &bob_data(&w),
            Some(&w.alice),
            "devA/social",
            &w.accounts,
            &w.policies,
            &w.declass,
            &w.rel,
        );
        assert!(d.allowed);
        assert!(matches!(d.cleared[0].1, Clearance::Declassifier { ref name } if name == "friends-only"));
        // Same viewer through a different app: the grant does not travel.
        let d = w.exporter.check(
            &bob_data(&w),
            Some(&w.alice),
            "devB/other",
            &w.accounts,
            &w.policies,
            &w.declass,
            &w.rel,
        );
        assert!(!d.allowed);
        // A non-friend through the granted app: denied.
        let carol = w.accounts.register("carol", "pw").unwrap();
        let d = w.exporter.check(
            &bob_data(&w),
            Some(&carol),
            "devA/social",
            &w.accounts,
            &w.policies,
            &w.declass,
            &w.rel,
        );
        assert!(!d.allowed);
    }

    #[test]
    fn commingled_data_needs_every_tag_cleared() {
        let w = world();
        // Data derived from both Bob's and Alice's secrets.
        let both = LabelPair::new(
            Label::from_iter([w.bob.export_tag, w.alice.export_tag]),
            Label::empty(),
        );
        // Bob asks: his own tag clears, Alice's does not.
        let d = w.exporter.check(
            &both,
            Some(&w.bob),
            "devA/mashup",
            &w.accounts,
            &w.policies,
            &w.declass,
            &w.rel,
        );
        assert!(!d.allowed);
        assert_eq!(d.blocked, vec![w.alice.export_tag]);
        assert_eq!(d.cleared.len(), 1);
        // With Alice granting public-read for the mashup, it clears.
        w.policies
            .grant_declassifier(w.alice.id, "public-read", GrantScope::App("devA/mashup".into()));
        let d = w.exporter.check(
            &both,
            Some(&w.bob),
            "devA/mashup",
            &w.accounts,
            &w.policies,
            &w.declass,
            &w.rel,
        );
        assert!(d.allowed);
    }

    #[test]
    fn anonymous_viewer_needs_public_grant() {
        let w = world();
        let d = w.exporter.check(
            &bob_data(&w),
            None,
            "devA/blog",
            &w.accounts,
            &w.policies,
            &w.declass,
            &w.rel,
        );
        assert!(!d.allowed);
        w.policies
            .grant_declassifier(w.bob.id, "public-read", GrantScope::App("devA/blog".into()));
        let d = w.exporter.check(
            &bob_data(&w),
            None,
            "devA/blog",
            &w.accounts,
            &w.policies,
            &w.declass,
            &w.rel,
        );
        assert!(d.allowed);
    }

    #[test]
    fn public_data_always_exports() {
        let w = world();
        let d = w.exporter.check(
            &LabelPair::public(),
            None,
            "devA/anything",
            &w.accounts,
            &w.policies,
            &w.declass,
            &w.rel,
        );
        assert!(d.allowed);
        assert!(d.cleared.is_empty());
    }

    #[test]
    fn audit_ring_evicts_oldest_first() {
        let w = world();
        let exporter = Exporter::with_audit_cap(3);
        for i in 0..7 {
            let _ = exporter.check(
                &bob_data(&w),
                Some(&w.bob),
                &format!("devA/app{i}"),
                &w.accounts,
                &w.policies,
                &w.declass,
                &w.rel,
            );
        }
        let log = exporter.audit_log();
        assert_eq!(log.len(), 3, "ring capped");
        // Oldest entries gone, survivors in arrival order.
        let apps: Vec<&str> = log.iter().map(|e| e.app.as_str()).collect();
        assert_eq!(apps, ["devA/app4", "devA/app5", "devA/app6"]);
        // Counters see every check despite eviction.
        assert_eq!(exporter.stats_view().checked, 7);
    }

    #[test]
    fn stats_snapshot_roundtrips() {
        let w = world();
        let _ = w.exporter.check(
            &bob_data(&w),
            Some(&w.alice),
            "devA/photos",
            &w.accounts,
            &w.policies,
            &w.declass,
            &w.rel,
        );
        let view = w.exporter.stats_view();
        assert_eq!(view.checked, 1);
        assert_eq!(view.blocked, 1);
        let json = serde_json::to_string(&w.exporter.stats_view()).unwrap();
        let back: PerimeterStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, view);
    }

    #[test]
    fn audit_log_records_decisions() {
        let w = world();
        let _ = w.exporter.check(
            &bob_data(&w),
            Some(&w.alice),
            "devA/photos",
            &w.accounts,
            &w.policies,
            &w.declass,
            &w.rel,
        );
        let log = w.exporter.audit_log();
        assert_eq!(log.len(), 1);
        assert!(!log[0].allowed);
        assert_eq!(log[0].viewer, Some(w.alice.id));
        assert_eq!(log[0].app, "devA/photos");
    }
}
