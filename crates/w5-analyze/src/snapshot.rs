//! Configuration snapshots: everything the static analyzer needs to know
//! about a deployed platform, captured into one serializable value.
//!
//! A [`ConfigSnapshot`] is a *frozen* view of the security-relevant
//! configuration: the tag universe and global capability bag, every
//! account's tags, every user's policy (grants, delegations, enrollment),
//! the app catalog, the declassifier catalog, and a label census of both
//! stores. Nothing in it reveals data contents — only labels and policy.
//!
//! Declassifiers are arbitrary code, so their export policy cannot be read
//! off a data structure. Instead capture **probes** each one: it calls
//! `authorize` with synthetic owner/viewer identities against synthetic
//! relationship oracles and classifies the result as a [`Breadth`] — which
//! audience classes (owner, friends, group members, strangers, anonymous)
//! the declassifier will release data to. Probe identities use ids far
//! outside the platform's allocation range and usernames (`~probe-…`) that
//! account validation rejects, so probing never perturbs real users'
//! state (e.g. `RateLimited` budgets).

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use w5_difc::TagKind;
use w5_platform::{Declassifier, ExportContext, Platform, RelationshipOracle, UserId, Verdict};

/// The audience classes a declassifier releases data to, as observed by
/// probing. Each flag answers: "would this declassifier allow a viewer of
/// that class?"
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Breadth {
    /// The data owner themself.
    pub owner: bool,
    /// A viewer on the owner's friend list.
    pub friends: bool,
    /// A member of one of the owner's groups.
    pub group: bool,
    /// An authenticated viewer with no relationship to the owner.
    pub strangers: bool,
    /// An unauthenticated viewer.
    pub anonymous: bool,
}

impl Breadth {
    /// Names of the allowed classes, in fixed order.
    pub fn classes(&self) -> Vec<&'static str> {
        let mut v = Vec::new();
        if self.owner {
            v.push("owner");
        }
        if self.friends {
            v.push("friends");
        }
        if self.group {
            v.push("group");
        }
        if self.strangers {
            v.push("strangers");
        }
        if self.anonymous {
            v.push("anonymous");
        }
        v
    }

    /// Classes `self` allows that `inner` does not — the widening set of a
    /// wrapper around `inner`. Empty for any honest combinator, which can
    /// only narrow.
    pub fn widened_beyond(&self, inner: &Breadth) -> Vec<&'static str> {
        let mut v = Vec::new();
        if self.owner && !inner.owner {
            v.push("owner");
        }
        if self.friends && !inner.friends {
            v.push("friends");
        }
        if self.group && !inner.group {
            v.push("group");
        }
        if self.strangers && !inner.strangers {
            v.push("strangers");
        }
        if self.anonymous && !inner.anonymous {
            v.push("anonymous");
        }
        v
    }

    /// Classes allowed by both `self` and `other`, excluding `owner` (the
    /// owner session bypasses declassifiers legitimately).
    pub fn overlap_excluding_owner(&self, other: &Breadth) -> Vec<&'static str> {
        let mut v = Vec::new();
        if self.friends && other.friends {
            v.push("friends");
        }
        if self.group && other.group {
            v.push("group");
        }
        if self.strangers && other.strangers {
            v.push("strangers");
        }
        if self.anonymous && other.anonymous {
            v.push("anonymous");
        }
        v
    }
}

/// A synthetic oracle used for probing: answers every relationship query
/// with a fixed bit per relation kind.
struct ProbeOracle {
    friends: bool,
    group: bool,
}

impl RelationshipOracle for ProbeOracle {
    fn are_friends(&self, _a: &str, _b: &str) -> bool {
        self.friends
    }
    fn in_group(&self, _owner: &str, _group: &str, _user: &str) -> bool {
        self.group
    }
}

/// Monotone probe epoch. Every capture uses fresh synthetic ids so that
/// stateful declassifiers (`RateLimited`) see each probe as a new viewer
/// and repeated captures classify the *policy*, not leftover budget state.
static PROBE_EPOCH: AtomicU64 = AtomicU64::new(0);

/// Classify a declassifier's export breadth by probing `authorize` with
/// synthetic identities. See the module docs for why this is sound: the
/// probe ids live far outside real allocation ranges and the usernames are
/// invalid for real accounts.
pub fn probe_breadth(d: &dyn Declassifier) -> Breadth {
    let epoch = PROBE_EPOCH.fetch_add(1, Ordering::Relaxed);
    // Six distinct ids per epoch, descending from the top of the id space.
    let base = u64::MAX - epoch.wrapping_mul(8);
    let owner = UserId(base);
    let ctx = |viewer: Option<u64>| ExportContext {
        owner,
        owner_name: "~probe-owner",
        viewer: viewer.map(UserId),
        viewer_name: viewer.map(|_| "~probe-viewer"),
        app: "~probe/app",
    };
    let allow = |c: &ExportContext, friends: bool, group: bool| {
        d.authorize(c, &ProbeOracle { friends, group }) == Verdict::Allow
    };
    Breadth {
        owner: allow(&ctx(Some(base)), false, false),
        friends: allow(&ctx(Some(base - 1)), true, false),
        group: allow(&ctx(Some(base - 2)), false, true),
        strangers: allow(&ctx(Some(base - 3)), false, false),
        anonymous: allow(&ctx(None), false, false),
    }
}

/// One allocated tag and how its capability halves are distributed.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TagSnap {
    /// Raw tag id.
    pub raw: u64,
    /// Distribution kind (`"export"`, `"write"`, `"read"`).
    pub kind: String,
    /// Audit name, e.g. `"export:bob"`.
    pub name: String,
    /// Is `t+` in the global bag (anyone may classify under `t`)?
    pub global_plus: bool,
    /// Is `t-` in the global bag (anyone may declassify `t`)?
    pub global_minus: bool,
}

/// One declassifier grant from a user's policy.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct GrantSnap {
    /// Declassifier name.
    pub declassifier: String,
    /// App key the grant is scoped to; `None` = all apps.
    pub app: Option<String>,
}

/// One user: their tags and their policy.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct UserSnap {
    /// Stable user id.
    pub id: u64,
    /// Login name.
    pub username: String,
    /// Raw id of `e_u`.
    pub export_tag: u64,
    /// Raw id of `w_u`.
    pub write_tag: u64,
    /// Raw id of `r_u`, if read protection is enabled.
    pub read_tag: Option<u64>,
    /// Apps the user enrolled in.
    pub enrolled: Vec<String>,
    /// Declassifier grants.
    pub grants: Vec<GrantSnap>,
    /// Apps holding `w_u+`.
    pub write_delegations: Vec<String>,
    /// Apps holding `r_u+`.
    pub read_delegations: Vec<String>,
}

/// One registered declassifier, with its probed breadth.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeclassSnap {
    /// Registry name.
    pub name: String,
    /// Wrapper chain, outermost first (length 1 for leaves).
    pub chain: Vec<String>,
    /// Audit surface in source lines.
    pub audit_lines: u64,
    /// Probed export breadth of the whole (outer) declassifier.
    pub breadth: Breadth,
    /// Probed breadth of the immediate inner declassifier, if wrapped.
    pub inner_breadth: Option<Breadth>,
}

/// A label pair as raw tag ids.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LabelSnap {
    /// Secrecy tags, ascending.
    pub secrecy: Vec<u64>,
    /// Integrity tags, ascending.
    pub integrity: Vec<u64>,
}

impl LabelSnap {
    fn from_pair(p: &w5_difc::LabelPair) -> LabelSnap {
        LabelSnap {
            secrecy: p.secrecy.iter().map(|t| t.raw()).collect(),
            integrity: p.integrity.iter().map(|t| t.raw()).collect(),
        }
    }
}

/// One distinct label in one store, with its row/file count.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CensusEntry {
    /// `"sql:<table>"` or `"fs"`.
    pub store: String,
    /// The label.
    pub labels: LabelSnap,
    /// Rows (or files) carrying it.
    pub rows: u64,
}

/// One published application (latest version).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct AppSnap {
    /// Registry key, `"developer/name"`.
    pub key: String,
    /// Latest version.
    pub version: u32,
    /// Did the developer release source?
    pub open_source: bool,
}

/// The complete configuration snapshot the analyzer consumes.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConfigSnapshot {
    /// Provider name.
    pub platform: String,
    /// Is the perimeter armed? `false` reduces the platform to a
    /// conventional shared host — every tag exits unguarded.
    pub enforce_ifc: bool,
    /// Is outgoing HTML filtered?
    pub sanitize_html: bool,
    /// The tag universe.
    pub tags: Vec<TagSnap>,
    /// Accounts and policies.
    pub users: Vec<UserSnap>,
    /// The app catalog.
    pub apps: Vec<AppSnap>,
    /// The declassifier catalog with probed breadths.
    pub declassifiers: Vec<DeclassSnap>,
    /// Label census of the SQL store and the filesystem.
    pub census: Vec<CensusEntry>,
}

impl ConfigSnapshot {
    /// Capture the live configuration of a platform. Read-only with respect
    /// to all real state; declassifier probing uses synthetic identities.
    pub fn capture(p: &Platform) -> ConfigSnapshot {
        let global = p.registry.global_bag();
        let tags = p
            .registry
            .all_meta()
            .into_iter()
            .map(|m| TagSnap {
                raw: m.tag.raw(),
                kind: match m.kind {
                    TagKind::ExportProtect => "export".to_string(),
                    TagKind::WriteProtect => "write".to_string(),
                    TagKind::ReadProtect => "read".to_string(),
                },
                name: m.name,
                global_plus: global.has_plus(m.tag),
                global_minus: global.has_minus(m.tag),
            })
            .collect();

        let users = p
            .accounts
            .all_ids()
            .into_iter()
            .filter_map(|id| {
                let a = p.accounts.get(id)?;
                let policy = p.policies.get(id);
                let mut enrolled: Vec<String> = policy.enrolled.iter().cloned().collect();
                enrolled.sort();
                let mut grants: Vec<GrantSnap> = policy
                    .grants
                    .iter()
                    .map(|g| GrantSnap {
                        declassifier: g.declassifier.clone(),
                        app: match &g.scope {
                            w5_platform::GrantScope::AllApps => None,
                            w5_platform::GrantScope::App(a) => Some(a.clone()),
                        },
                    })
                    .collect();
                grants.sort_by(|a, b| (&a.declassifier, &a.app).cmp(&(&b.declassifier, &b.app)));
                let mut write_delegations: Vec<String> =
                    policy.write_delegations.iter().cloned().collect();
                write_delegations.sort();
                let mut read_delegations: Vec<String> =
                    policy.read_delegations.iter().cloned().collect();
                read_delegations.sort();
                Some(UserSnap {
                    id: id.0,
                    username: a.username,
                    export_tag: a.export_tag.raw(),
                    write_tag: a.write_tag.raw(),
                    read_tag: a.read_tag.map(|t| t.raw()),
                    enrolled,
                    grants,
                    write_delegations,
                    read_delegations,
                })
            })
            .collect();

        let apps = p
            .apps
            .list()
            .into_iter()
            .map(|m| AppSnap { key: m.key(), version: m.version, open_source: m.is_open_source() })
            .collect();

        let declassifiers = p
            .declassifiers
            .list()
            .into_iter()
            .filter_map(|(name, _desc, lines)| {
                let d = p.declassifiers.get(name)?;
                Some(DeclassSnap {
                    name: name.to_string(),
                    chain: d.describe_chain().into_iter().map(String::from).collect(),
                    audit_lines: lines as u64,
                    breadth: probe_breadth(&*d),
                    inner_breadth: d.inner().map(probe_breadth),
                })
            })
            .collect();

        let mut census = Vec::new();
        for (table, entries) in p.db.label_census() {
            for (labels, rows) in entries {
                census.push(CensusEntry {
                    store: format!("sql:{table}"),
                    labels: LabelSnap::from_pair(&labels),
                    rows: rows as u64,
                });
            }
        }
        for (labels, rows) in p.fs.label_census() {
            census.push(CensusEntry {
                store: "fs".to_string(),
                labels: LabelSnap::from_pair(&labels),
                rows: rows as u64,
            });
        }

        ConfigSnapshot {
            platform: p.name.clone(),
            enforce_ifc: p.config.enforce_ifc,
            sanitize_html: p.config.sanitize_html,
            tags,
            users,
            apps,
            declassifiers,
            census,
        }
    }

    /// Look up a tag by raw id.
    pub fn tag(&self, raw: u64) -> Option<&TagSnap> {
        self.tags.iter().find(|t| t.raw == raw)
    }

    /// The user owning `raw` as any of their tags (export, write, read).
    pub fn owner_of(&self, raw: u64) -> Option<&UserSnap> {
        self.users.iter().find(|u| {
            u.export_tag == raw || u.write_tag == raw || u.read_tag == Some(raw)
        })
    }

    /// Display name for a tag: its audit name, or `tag:<raw>` if unknown.
    pub fn tag_name(&self, raw: u64) -> String {
        self.tag(raw)
            .map(|t| t.name.clone())
            .unwrap_or_else(|| format!("tag:{raw}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use w5_platform::{FriendsOnly, OwnerOnly, PublicRead, RateLimited};

    #[test]
    fn breadth_of_builtins() {
        assert_eq!(
            probe_breadth(&OwnerOnly),
            Breadth { owner: true, ..Breadth::default() }
        );
        assert_eq!(
            probe_breadth(&PublicRead),
            Breadth { owner: true, friends: true, group: true, strangers: true, anonymous: true }
        );
        assert_eq!(
            probe_breadth(&FriendsOnly),
            Breadth { owner: true, friends: true, ..Breadth::default() }
        );
    }

    #[test]
    fn rate_limited_probes_fresh_each_capture() {
        let d = RateLimited::new(std::sync::Arc::new(FriendsOnly), 1);
        // Repeated probes must classify the policy identically even though
        // each allow consumes budget for the probe identity used.
        for _ in 0..3 {
            let b = probe_breadth(&d);
            assert!(b.owner && b.friends && !b.strangers && !b.anonymous);
        }
    }

    #[test]
    fn widening_and_overlap_math() {
        let friends = Breadth { owner: true, friends: true, ..Breadth::default() };
        let public =
            Breadth { owner: true, friends: true, group: true, strangers: true, anonymous: true };
        assert_eq!(public.widened_beyond(&friends), vec!["group", "strangers", "anonymous"]);
        assert!(friends.widened_beyond(&public).is_empty());
        assert_eq!(friends.overlap_excluding_owner(&public), vec!["friends"]);
        let owner_only = Breadth { owner: true, ..Breadth::default() };
        assert!(owner_only.overlap_excluding_owner(&public).is_empty());
    }

    #[test]
    fn capture_is_deterministic_and_serializable() {
        let p = Platform::new_default("snap-test");
        let alice = p.accounts.register("alice", "pw").unwrap();
        p.policies.grant_declassifier(
            alice.id,
            "friends-only",
            w5_platform::GrantScope::App("devB/blog".into()),
        );
        let a = ConfigSnapshot::capture(&p);
        let b = ConfigSnapshot::capture(&p);
        assert_eq!(a, b, "capture of unchanged config must be stable");
        let json = serde_json::to_string(&a).unwrap();
        let back: ConfigSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, a);
        assert_eq!(a.users.len(), 1);
        assert_eq!(a.users[0].grants.len(), 1);
        assert_eq!(a.tag_name(alice.export_tag.raw()), "export:alice");
        assert_eq!(a.owner_of(alice.write_tag.raw()).unwrap().username, "alice");
    }
}
