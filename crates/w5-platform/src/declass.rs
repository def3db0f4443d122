//! Declassifiers: the small, pluggable export agents of paper §3.1.
//!
//! A declassifier is the *only* untrusted-party-supplied code that may move
//! a user's data across the security perimeter. Its two defining
//! characteristics (per the paper): it is **data-structure agnostic** — the
//! same `friends-only` declassifier guards photos, blog posts and profiles
//! alike — and it is **factored out of applications**, so it is small
//! enough to audit.
//!
//! The framework here reflects that: a declassifier sees only an
//! [`ExportContext`] (who owns the data, who is asking, through which app)
//! plus a trusted relationship oracle, and returns a [`Verdict`]. It never
//! sees or transforms the payload.

use crate::principal::UserId;
use w5_sync::RwLock;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// The question a declassifier answers. Borrowed from the perimeter for
/// the length of one consultation.
#[derive(Clone, Copy, Debug)]
pub struct ExportContext<'a> {
    /// The user whose export tag protects the data.
    pub owner: UserId,
    /// Owner's username (for relationship lookups).
    pub owner_name: &'a str,
    /// The authenticated requester, if any.
    pub viewer: Option<UserId>,
    /// Requester's username.
    pub viewer_name: Option<&'a str>,
    /// The application that produced the response (`"developer/app"`).
    pub app: &'a str,
}

/// A declassification decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The data may cross the perimeter to this viewer.
    Allow,
    /// It may not. No reason is given to the requesting application.
    Deny,
}

/// Trusted read-only oracle for user relationships, backed by
/// platform-owned tables. Declassifiers query *facts* here; they cannot
/// reach arbitrary storage.
pub trait RelationshipOracle: Send + Sync {
    /// Is `b` on `a`'s friend list?
    fn are_friends(&self, a: &str, b: &str) -> bool;
    /// Is `user` a member of `owner`'s named group?
    fn in_group(&self, owner: &str, group: &str, user: &str) -> bool;
}

/// A no-relationships oracle for tests and closed-world setups.
pub struct NoRelations;

impl RelationshipOracle for NoRelations {
    fn are_friends(&self, _a: &str, _b: &str) -> bool {
        false
    }
    fn in_group(&self, _owner: &str, _group: &str, _user: &str) -> bool {
        false
    }
}

/// The declassifier interface.
pub trait Declassifier: Send + Sync {
    /// Registry name, e.g. `"friends-only"`.
    fn name(&self) -> &'static str;
    /// Catalog description.
    fn description(&self) -> &'static str;
    /// The decision.
    fn authorize(&self, ctx: &ExportContext, oracle: &dyn RelationshipOracle) -> Verdict;
    /// Size of the decision logic in source lines — the audit surface
    /// measured by experiment E5. By convention this is the line count of
    /// the `authorize` body.
    fn audit_lines(&self) -> usize;
    /// The wrapped declassifier, for combinators like [`RateLimited`].
    /// Leaf declassifiers return `None`. Static analysis (`w5-analyze`)
    /// walks this to audit composed chains instead of treating wrappers
    /// as opaque.
    fn inner(&self) -> Option<&dyn Declassifier> {
        None
    }
    /// The full wrapper chain, outermost first, e.g.
    /// `["rate-limited", "friends-only"]`. Derived from [`Self::inner`].
    fn describe_chain(&self) -> Vec<&'static str> {
        let mut chain = vec![self.name()];
        let mut cur = self.inner();
        while let Some(d) = cur {
            chain.push(d.name());
            cur = d.inner();
        }
        chain
    }
}

/// Allow only the data's owner. The boilerplate policy of §3.1: "Bob's
/// data can only leave the security perimeter if destined for Bob's
/// browser." (The perimeter already fast-paths this case; the declassifier
/// exists so users can *see* the default policy in their catalog.)
pub struct OwnerOnly;

impl Declassifier for OwnerOnly {
    fn name(&self) -> &'static str {
        "owner-only"
    }
    fn description(&self) -> &'static str {
        "export only to the data owner's own browser"
    }
    fn authorize(&self, ctx: &ExportContext, _oracle: &dyn RelationshipOracle) -> Verdict {
        if ctx.viewer == Some(ctx.owner) {
            Verdict::Allow
        } else {
            Verdict::Deny
        }
    }
    fn audit_lines(&self) -> usize {
        5
    }
}

/// Allow anyone, including anonymous viewers — an explicit "make it
/// public" choice.
pub struct PublicRead;

impl Declassifier for PublicRead {
    fn name(&self) -> &'static str {
        "public-read"
    }
    fn description(&self) -> &'static str {
        "export to anyone (data is public)"
    }
    fn authorize(&self, _ctx: &ExportContext, _oracle: &dyn RelationshipOracle) -> Verdict {
        Verdict::Allow
    }
    fn audit_lines(&self) -> usize {
        1
    }
}

/// Allow the owner and the owner's friends — the paper's canonical
/// example: "a correct declassifier in this context will send Bob's
/// profile to users on Bob's friend list and not to others."
pub struct FriendsOnly;

impl Declassifier for FriendsOnly {
    fn name(&self) -> &'static str {
        "friends-only"
    }
    fn description(&self) -> &'static str {
        "export to the owner and users on the owner's friend list"
    }
    fn authorize(&self, ctx: &ExportContext, oracle: &dyn RelationshipOracle) -> Verdict {
        if ctx.viewer == Some(ctx.owner) {
            return Verdict::Allow;
        }
        match ctx.viewer_name {
            Some(viewer) if oracle.are_friends(ctx.owner_name, viewer) => Verdict::Allow,
            _ => Verdict::Deny,
        }
    }
    fn audit_lines(&self) -> usize {
        9
    }
}

/// Allow members of one of the owner's groups (e.g. "roommates", §2's
/// "viewed only by his roommates").
pub struct GroupOnly {
    /// The group name checked against the oracle.
    pub group: &'static str,
}

impl Declassifier for GroupOnly {
    fn name(&self) -> &'static str {
        "group-only"
    }
    fn description(&self) -> &'static str {
        "export to members of one of the owner's groups"
    }
    fn authorize(&self, ctx: &ExportContext, oracle: &dyn RelationshipOracle) -> Verdict {
        if ctx.viewer == Some(ctx.owner) {
            return Verdict::Allow;
        }
        match ctx.viewer_name {
            Some(v) if oracle.in_group(ctx.owner_name, self.group, v) => Verdict::Allow,
            _ => Verdict::Deny,
        }
    }
    fn audit_lines(&self) -> usize {
        9
    }
}

/// Wrap another declassifier with a per-viewer budget — an "idiosyncratic"
/// policy (§3.1): e.g. a dating profile that any user may view at most N
/// times before the owner must re-authorize.
pub struct RateLimited {
    inner: Arc<dyn Declassifier>,
    /// Exports allowed per viewer (per owner) before denials begin.
    pub budget: u32,
    counts: RwLock<HashMap<(UserId, Option<UserId>), u32>>,
}

impl RateLimited {
    /// Wrap `inner` with a budget.
    pub fn new(inner: Arc<dyn Declassifier>, budget: u32) -> RateLimited {
        RateLimited { inner, budget, counts: RwLock::with_index("platform.declass", 3, HashMap::new()) }
    }

    /// Reset all counters (an epoch boundary).
    pub fn reset(&self) {
        self.counts.write().clear();
    }
}

impl Declassifier for RateLimited {
    fn name(&self) -> &'static str {
        "rate-limited"
    }
    fn description(&self) -> &'static str {
        "wraps another declassifier with a per-viewer export budget"
    }
    fn authorize(&self, ctx: &ExportContext, oracle: &dyn RelationshipOracle) -> Verdict {
        if self.inner.authorize(ctx, oracle) == Verdict::Deny {
            return Verdict::Deny;
        }
        let mut counts = self.counts.write();
        let n = counts.entry((ctx.owner, ctx.viewer)).or_insert(0);
        if *n >= self.budget {
            Verdict::Deny
        } else {
            *n += 1;
            Verdict::Allow
        }
    }
    fn audit_lines(&self) -> usize {
        12 + self.inner.audit_lines()
    }
    fn inner(&self) -> Option<&dyn Declassifier> {
        Some(&*self.inner)
    }
}

/// The provider's catalog of installable declassifiers.
pub struct DeclassifierRegistry {
    by_name: RwLock<HashMap<&'static str, Arc<dyn Declassifier>>>,
}

impl Default for DeclassifierRegistry {
    fn default() -> DeclassifierRegistry {
        DeclassifierRegistry::new()
    }
}

impl DeclassifierRegistry {
    /// An empty registry.
    pub fn new() -> DeclassifierRegistry {
        DeclassifierRegistry {
            by_name: RwLock::with_index("platform.declass", 0, HashMap::new()),
        }
    }

    /// A registry preloaded with the built-ins.
    pub fn with_builtins() -> DeclassifierRegistry {
        let r = DeclassifierRegistry::new();
        r.register(Arc::new(OwnerOnly));
        r.register(Arc::new(PublicRead));
        r.register(Arc::new(FriendsOnly));
        r.register(Arc::new(GroupOnly { group: "roommates" }));
        r
    }

    /// Add a declassifier (replaces same-name entries).
    pub fn register(&self, d: Arc<dyn Declassifier>) {
        self.by_name.write().insert(d.name(), d);
    }

    /// Look up by name.
    pub fn get(&self, name: &str) -> Option<Arc<dyn Declassifier>> {
        self.by_name.read().get(name).cloned()
    }

    /// Look up and consult a declassifier, recording the verdict in the
    /// flow ledger. `secrecy` is the label of the data the verdict would
    /// release; even a denial reveals that this owner's data was requested,
    /// so the event carries the full label. Returns `None` if the
    /// declassifier does not exist (no event: nothing was consulted).
    pub fn consult(
        &self,
        name: &str,
        ctx: &ExportContext,
        oracle: &dyn RelationshipOracle,
        secrecy: &w5_obs::ObsLabel,
    ) -> Option<Verdict> {
        let d = self.get(name)?;
        let _span = w5_obs::span(
            &format!("platform.declass.{name}"),
            w5_obs::Layer::Platform,
            secrecy,
        );
        let verdict = d.authorize(ctx, oracle);
        w5_obs::record(
            secrecy,
            w5_obs::EventKind::DeclassifierInvoke {
                name: name.to_string(),
                allowed: verdict == Verdict::Allow,
            },
        );
        Some(verdict)
    }

    /// Catalog listing: (name, description, audit_lines), sorted by name.
    pub fn list(&self) -> Vec<(&'static str, &'static str, usize)> {
        let mut v: Vec<_> = self
            .by_name
            .read()
            .values()
            .map(|d| (d.name(), d.description(), d.audit_lines()))
            .collect();
        v.sort_by_key(|(n, _, _)| *n);
        v
    }
}

/// An in-memory oracle used by tests and the simulation harness.
pub struct StaticRelations {
    friends: RwLock<HashSet<(String, String)>>,
    groups: RwLock<HashSet<(String, String, String)>>,
}

impl Default for StaticRelations {
    fn default() -> StaticRelations {
        StaticRelations::new()
    }
}

impl StaticRelations {
    /// Empty relations.
    pub fn new() -> StaticRelations {
        StaticRelations {
            friends: RwLock::with_index("platform.declass", 1, HashSet::new()),
            groups: RwLock::with_index("platform.declass", 2, HashSet::new()),
        }
    }

    /// Record that `b` is on `a`'s friend list (directed).
    pub fn add_friend(&self, a: &str, b: &str) {
        self.friends.write().insert((a.to_string(), b.to_string()));
    }

    /// Add `user` to `owner`'s `group`.
    pub fn add_group_member(&self, owner: &str, group: &str, user: &str) {
        self.groups
            .write()
            .insert((owner.to_string(), group.to_string(), user.to_string()));
    }
}

impl RelationshipOracle for StaticRelations {
    fn are_friends(&self, a: &str, b: &str) -> bool {
        self.friends.read().contains(&(a.to_string(), b.to_string()))
    }
    fn in_group(&self, owner: &str, group: &str, user: &str) -> bool {
        self.groups
            .read()
            .contains(&(owner.to_string(), group.to_string(), user.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(owner: u64, viewer: Option<u64>) -> ExportContext<'static> {
        const NAMES: [&str; 5] = ["user0", "user1", "user2", "user3", "user4"];
        ExportContext {
            owner: UserId(owner),
            owner_name: NAMES[owner as usize],
            viewer: viewer.map(UserId),
            viewer_name: viewer.map(|v| NAMES[v as usize]),
            app: "devA/social",
        }
    }

    #[test]
    fn owner_only() {
        let d = OwnerOnly;
        let o = NoRelations;
        assert_eq!(d.authorize(&ctx(1, Some(1)), &o), Verdict::Allow);
        assert_eq!(d.authorize(&ctx(1, Some(2)), &o), Verdict::Deny);
        assert_eq!(d.authorize(&ctx(1, None), &o), Verdict::Deny);
    }

    #[test]
    fn public_read() {
        let d = PublicRead;
        assert_eq!(d.authorize(&ctx(1, None), &NoRelations), Verdict::Allow);
    }

    #[test]
    fn friends_only() {
        let d = FriendsOnly;
        let rel = StaticRelations::new();
        rel.add_friend("user1", "user2");
        assert_eq!(d.authorize(&ctx(1, Some(1)), &rel), Verdict::Allow, "owner");
        assert_eq!(d.authorize(&ctx(1, Some(2)), &rel), Verdict::Allow, "friend");
        assert_eq!(d.authorize(&ctx(1, Some(3)), &rel), Verdict::Deny, "stranger");
        assert_eq!(d.authorize(&ctx(2, Some(1)), &rel), Verdict::Deny, "friendship is directed");
        assert_eq!(d.authorize(&ctx(1, None), &rel), Verdict::Deny, "anonymous");
    }

    #[test]
    fn group_only() {
        let d = GroupOnly { group: "roommates" };
        let rel = StaticRelations::new();
        rel.add_group_member("user1", "roommates", "user2");
        assert_eq!(d.authorize(&ctx(1, Some(2)), &rel), Verdict::Allow);
        assert_eq!(d.authorize(&ctx(1, Some(3)), &rel), Verdict::Deny);
        rel.add_group_member("user1", "chess-club", "user3");
        assert_eq!(d.authorize(&ctx(1, Some(3)), &rel), Verdict::Deny, "wrong group");
    }

    #[test]
    fn rate_limited_budget_and_reset() {
        let d = RateLimited::new(Arc::new(PublicRead), 2);
        let o = NoRelations;
        assert_eq!(d.authorize(&ctx(1, Some(2)), &o), Verdict::Allow);
        assert_eq!(d.authorize(&ctx(1, Some(2)), &o), Verdict::Allow);
        assert_eq!(d.authorize(&ctx(1, Some(2)), &o), Verdict::Deny, "budget spent");
        // Budgets are per (owner, viewer).
        assert_eq!(d.authorize(&ctx(1, Some(3)), &o), Verdict::Allow);
        d.reset();
        assert_eq!(d.authorize(&ctx(1, Some(2)), &o), Verdict::Allow);
    }

    #[test]
    fn rate_limited_budget_is_per_viewer_and_per_owner() {
        // Audit for the w5-analyze work: the budget key is the full
        // (owner, viewer) pair, so no viewer can drain another viewer's
        // budget, and the same viewer has independent budgets against
        // different owners.
        let d = RateLimited::new(Arc::new(PublicRead), 1);
        let o = NoRelations;
        assert_eq!(d.authorize(&ctx(1, Some(2)), &o), Verdict::Allow);
        assert_eq!(d.authorize(&ctx(1, Some(2)), &o), Verdict::Deny, "viewer 2 spent");
        // A different viewer of the same owner is unaffected.
        assert_eq!(d.authorize(&ctx(1, Some(3)), &o), Verdict::Allow);
        // The same viewer against a different owner is unaffected.
        assert_eq!(d.authorize(&ctx(4, Some(2)), &o), Verdict::Allow);
        // Anonymous viewers share one bucket per owner (None key).
        assert_eq!(d.authorize(&ctx(1, None), &o), Verdict::Allow);
        assert_eq!(d.authorize(&ctx(1, None), &o), Verdict::Deny);
    }

    #[test]
    fn inner_denials_do_not_consume_budget() {
        let d = RateLimited::new(Arc::new(OwnerOnly), 1);
        let o = NoRelations;
        // A stranger is denied by the inner policy; the owner's budget
        // must still be intact afterwards.
        assert_eq!(d.authorize(&ctx(1, Some(2)), &o), Verdict::Deny);
        assert_eq!(d.authorize(&ctx(1, Some(1)), &o), Verdict::Allow);
    }

    #[test]
    fn chains_are_introspectable() {
        let leaf = FriendsOnly;
        assert!(leaf.inner().is_none());
        assert_eq!(leaf.describe_chain(), vec!["friends-only"]);
        let wrapped = RateLimited::new(Arc::new(FriendsOnly), 3);
        assert_eq!(wrapped.inner().unwrap().name(), "friends-only");
        assert_eq!(wrapped.describe_chain(), vec!["rate-limited", "friends-only"]);
        let double = RateLimited::new(Arc::new(RateLimited::new(Arc::new(PublicRead), 9)), 3);
        assert_eq!(
            double.describe_chain(),
            vec!["rate-limited", "rate-limited", "public-read"]
        );
    }

    #[test]
    fn rate_limited_respects_inner_denials() {
        let d = RateLimited::new(Arc::new(OwnerOnly), 100);
        assert_eq!(d.authorize(&ctx(1, Some(2)), &NoRelations), Verdict::Deny);
    }

    #[test]
    fn registry_catalog() {
        let r = DeclassifierRegistry::with_builtins();
        assert!(r.get("friends-only").is_some());
        assert!(r.get("owner-only").is_some());
        assert!(r.get("nonexistent").is_none());
        let names: Vec<&str> = r.list().iter().map(|(n, _, _)| *n).collect();
        assert_eq!(names, vec!["friends-only", "group-only", "owner-only", "public-read"]);
        // Audit surfaces are small — the E5 claim in miniature.
        assert!(r.list().iter().all(|(_, _, lines)| *lines < 20));
    }
}
