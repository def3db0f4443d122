//! Per-user policies: the user-facing control surface of paper §1–§2.
//!
//! A policy records everything a user has chosen about the software that
//! touches their data:
//!
//! * **declassifier grants** — which declassifier may exercise `e_u-` for
//!   which application ("If Bob wants to use W5 social networking, he must
//!   grant an appropriate declassifier his data export privileges");
//! * **write delegations** — which applications may exercise `w_u+`
//!   ("a user can delegate the write privilege for his data as he sees
//!   fit");
//! * **module choices** — "use developer A's photo cropping module and
//!   developer B's labeling module";
//! * **version pins** — "I want to use version X.Y of that Web
//!   application, not the latest";
//! * **app enrollment** — the checkbox/invitation signup of §1.

use crate::principal::UserId;
use w5_sync::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Scope of a declassifier grant.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GrantScope {
    /// The declassifier may act for any application the user uses.
    AllApps,
    /// Only for one application key (`"developer/app"`).
    App(String),
}

/// One declassifier grant.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeclassifierGrant {
    /// Registered declassifier name (see `declass::DeclassifierRegistry`).
    pub declassifier: String,
    /// Where it applies.
    pub scope: GrantScope,
}

/// A user's complete policy.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct UserPolicy {
    /// Apps the user has enrolled in (`"developer/app"`).
    pub enrolled: HashSet<String>,
    /// Declassifier grants.
    pub grants: Vec<DeclassifierGrant>,
    /// Apps allowed to write (exercise `w_u+`).
    pub write_delegations: HashSet<String>,
    /// (app, slot) → module developer.
    pub module_choices: HashMap<(String, String), String>,
    /// app → pinned version.
    pub version_pins: HashMap<String, u32>,
    /// Editors whose endorsements this user accepts (§3.2).
    #[serde(default)]
    pub trusted_editors: HashSet<String>,
    /// §3.1 integrity protection: refuse to launch apps (or imports) no
    /// trusted editor has endorsed.
    #[serde(default)]
    pub require_endorsement: bool,
    /// Apps allowed to *read* the user's read-protected data (exercise
    /// `r_u+`). Distinct from write delegation.
    #[serde(default)]
    pub read_delegations: HashSet<String>,
}

impl UserPolicy {
    /// Is `declassifier` granted for `app`?
    pub fn is_granted(&self, declassifier: &str, app: &str) -> bool {
        self.grants.iter().any(|g| {
            g.declassifier == declassifier
                && match &g.scope {
                    GrantScope::AllApps => true,
                    GrantScope::App(a) => a == app,
                }
        })
    }

    /// All declassifiers granted for `app`, in grant order.
    pub fn granted_for<'a>(&'a self, app: &'a str) -> impl Iterator<Item = &'a str> {
        self.grants
            .iter()
            .filter(move |g| match &g.scope {
                GrantScope::AllApps => true,
                GrantScope::App(a) => a == app,
            })
            .map(|g| g.declassifier.as_str())
    }
}

/// The policy database. A stored policy is an immutable snapshot behind an
/// `Arc`: readers share it, and an update copies it first if anyone still
/// holds the old one, so a policy never changes under a request that is
/// deciding on it.
pub struct PolicyStore {
    policies: RwLock<HashMap<UserId, Arc<UserPolicy>>>,
    /// What `get` hands out for a user who never set anything.
    empty: Arc<UserPolicy>,
}

impl Default for PolicyStore {
    fn default() -> PolicyStore {
        PolicyStore::new()
    }
}

impl PolicyStore {
    /// An empty store.
    pub fn new() -> PolicyStore {
        PolicyStore {
            policies: RwLock::new("platform.policy", HashMap::new()),
            empty: Arc::default(),
        }
    }

    /// A snapshot of a user's policy (default-empty). Later updates do not
    /// show through it; take a new one to see them.
    pub fn get(&self, user: UserId) -> Arc<UserPolicy> {
        Arc::clone(self.policies.read().get(&user).unwrap_or(&self.empty))
    }

    /// Apply a mutation to a user's policy (copy-on-write: snapshots
    /// already handed out keep the old value).
    pub fn update<F: FnOnce(&mut UserPolicy)>(&self, user: UserId, f: F) {
        let mut map = self.policies.write();
        f(Arc::make_mut(map.entry(user).or_default()));
    }

    /// Enroll in an app — the one-checkbox signup of §1.
    pub fn enroll(&self, user: UserId, app: &str) {
        self.update(user, |p| {
            p.enrolled.insert(app.to_string());
        });
    }

    /// Leave an app; removes enrollment, its write delegation, its
    /// app-scoped grants, module choices and pins.
    pub fn unenroll(&self, user: UserId, app: &str) {
        self.update(user, |p| {
            p.enrolled.remove(app);
            p.write_delegations.remove(app);
            p.grants.retain(|g| g.scope != GrantScope::App(app.to_string()));
            p.module_choices.retain(|(a, _), _| a != app);
            p.version_pins.remove(app);
        });
    }

    /// Grant a declassifier.
    pub fn grant_declassifier(&self, user: UserId, declassifier: &str, scope: GrantScope) {
        self.update(user, |p| {
            let g = DeclassifierGrant { declassifier: declassifier.to_string(), scope };
            if !p.grants.contains(&g) {
                p.grants.push(g);
            }
        });
    }

    /// Revoke a declassifier everywhere.
    pub fn revoke_declassifier(&self, user: UserId, declassifier: &str) {
        self.update(user, |p| {
            p.grants.retain(|g| g.declassifier != declassifier);
        });
    }

    /// Delegate write privilege to an app.
    pub fn delegate_write(&self, user: UserId, app: &str) {
        self.update(user, |p| {
            p.write_delegations.insert(app.to_string());
        });
    }

    /// Choose a module provider for an app slot.
    pub fn choose_module(&self, user: UserId, app: &str, slot: &str, developer: &str) {
        self.update(user, |p| {
            p.module_choices
                .insert((app.to_string(), slot.to_string()), developer.to_string());
        });
    }

    /// Pin an app version.
    pub fn pin_version(&self, user: UserId, app: &str, version: u32) {
        self.update(user, |p| {
            p.version_pins.insert(app.to_string(), version);
        });
    }

    /// Trust an editor's endorsements (§3.2).
    pub fn trust_editor(&self, user: UserId, editor: &str) {
        self.update(user, |p| {
            p.trusted_editors.insert(editor.to_string());
        });
    }

    /// Toggle §3.1 integrity-protected launching.
    pub fn set_require_endorsement(&self, user: UserId, on: bool) {
        self.update(user, |p| {
            p.require_endorsement = on;
        });
    }

    /// Delegate read privilege (`r_u+`) to an app.
    pub fn delegate_read(&self, user: UserId, app: &str) {
        self.update(user, |p| {
            p.read_delegations.insert(app.to_string());
        });
    }

    /// Users enrolled in a given app (for E1's onboarding metric).
    pub fn enrolled_users(&self, app: &str) -> Vec<UserId> {
        let mut v: Vec<UserId> = self
            .policies
            .read()
            .iter()
            .filter(|(_, p)| p.enrolled.contains(app))
            .map(|(u, _)| *u)
            .collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const U: UserId = UserId(1);

    #[test]
    fn default_policy_is_empty() {
        let s = PolicyStore::new();
        let p = s.get(U);
        assert!(p.enrolled.is_empty());
        assert!(p.grants.is_empty());
        assert!(!p.is_granted("friends-only", "devA/social"));
    }

    #[test]
    fn grants_scoped_and_wildcard() {
        let s = PolicyStore::new();
        s.grant_declassifier(U, "friends-only", GrantScope::App("devA/social".into()));
        s.grant_declassifier(U, "owner-only", GrantScope::AllApps);
        let p = s.get(U);
        assert!(p.is_granted("friends-only", "devA/social"));
        assert!(!p.is_granted("friends-only", "devB/blog"));
        assert!(p.is_granted("owner-only", "devB/blog"));
        let granted: Vec<&str> = p.granted_for("devA/social").collect();
        assert_eq!(granted, vec!["friends-only", "owner-only"], "grant order");
    }

    #[test]
    fn duplicate_grants_collapse() {
        let s = PolicyStore::new();
        s.grant_declassifier(U, "x", GrantScope::AllApps);
        s.grant_declassifier(U, "x", GrantScope::AllApps);
        assert_eq!(s.get(U).grants.len(), 1);
    }

    #[test]
    fn revoke_removes_all_scopes() {
        let s = PolicyStore::new();
        s.grant_declassifier(U, "x", GrantScope::AllApps);
        s.grant_declassifier(U, "x", GrantScope::App("a/b".into()));
        s.revoke_declassifier(U, "x");
        assert!(s.get(U).grants.is_empty());
    }

    #[test]
    fn enroll_unenroll_cleans_up() {
        let s = PolicyStore::new();
        s.enroll(U, "devA/social");
        s.delegate_write(U, "devA/social");
        s.grant_declassifier(U, "friends-only", GrantScope::App("devA/social".into()));
        s.grant_declassifier(U, "owner-only", GrantScope::AllApps);
        s.choose_module(U, "devA/social", "feed", "devB");
        s.pin_version(U, "devA/social", 3);

        assert_eq!(s.enrolled_users("devA/social"), vec![U]);
        s.unenroll(U, "devA/social");
        let p = s.get(U);
        assert!(p.enrolled.is_empty());
        assert!(p.write_delegations.is_empty());
        assert_eq!(p.grants.len(), 1, "wildcard grant survives");
        assert!(p.module_choices.is_empty());
        assert!(p.version_pins.is_empty());
    }

    #[test]
    fn module_choice_and_pin() {
        let s = PolicyStore::new();
        s.choose_module(U, "devA/photos", "crop", "devB");
        s.pin_version(U, "devA/photos", 2);
        let p = s.get(U);
        assert_eq!(
            p.module_choices.get(&("devA/photos".to_string(), "crop".to_string())),
            Some(&"devB".to_string())
        );
        assert_eq!(p.version_pins.get("devA/photos"), Some(&2));
    }

    #[test]
    fn snapshot_is_unchanged_by_a_later_update() {
        let s = PolicyStore::new();
        s.pin_version(U, "devA/photos", 1);
        s.delegate_write(U, "devA/photos");
        let before = s.get(U);
        s.pin_version(U, "devA/photos", 2);
        s.unenroll(U, "devA/photos");
        // The held snapshot still pairs the old pin with the old delegation…
        assert_eq!(before.version_pins.get("devA/photos"), Some(&1));
        assert!(before.write_delegations.contains("devA/photos"));
        // …and the next read sees the update whole.
        let after = s.get(U);
        assert!(after.version_pins.is_empty());
        assert!(after.write_delegations.is_empty());
    }

    #[test]
    fn reads_share_one_snapshot_until_an_update() {
        let s = PolicyStore::new();
        s.enroll(U, "devA/social");
        let a = s.get(U);
        let b = s.get(U);
        assert!(Arc::ptr_eq(&a, &b), "a read copies nothing");
        s.enroll(U, "devB/blog");
        assert!(!Arc::ptr_eq(&a, &s.get(U)), "an update leaves held snapshots alone");
    }

    #[test]
    fn missing_user_reads_the_default_policy() {
        let s = PolicyStore::new();
        s.enroll(U, "devA/social");
        let nobody = s.get(UserId(99));
        assert_eq!(*nobody, UserPolicy::default());
        assert!(Arc::ptr_eq(&nobody, &s.get(UserId(100))));
        // Updating a missing user starts from the default, not from what
        // another missing user was handed.
        s.enroll(UserId(99), "devB/blog");
        assert_eq!(*s.get(UserId(100)), UserPolicy::default());
        assert!(s.get(UserId(99)).enrolled.contains("devB/blog"));
    }

    #[test]
    fn revocations_reach_the_next_read() {
        let s = PolicyStore::new();
        s.enroll(U, "devA/social");
        s.grant_declassifier(U, "friends-only", GrantScope::App("devA/social".into()));
        s.grant_declassifier(U, "public-read", GrantScope::AllApps);
        s.revoke_declassifier(U, "public-read");
        assert!(!s.get(U).is_granted("public-read", "devA/social"));
        s.unenroll(U, "devA/social");
        let now = s.get(U);
        assert!(now.enrolled.is_empty());
        assert_eq!(now.granted_for("devA/social").count(), 0);
    }
}
