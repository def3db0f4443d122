//! End-user accounts and their tags.
//!
//! Creating an account allocates the user's two default tags (paper §3.1):
//! an **export-protection** tag `e_u` and a **write-protection** tag `w_u`.
//! The account record holds the creator capabilities (`e_u-`, `w_u+`);
//! everything the user later delegates — to declassifiers, to applications
//! — is carved out of this set through the policy store.

use crate::crypto;
use w5_sync::RwLock;
use rand::RngCore;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use w5_difc::{CapSet, Label, LabelPair, Tag, TagKind, TagRegistry};

/// A user identifier. Stable for the lifetime of a platform instance.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize)]
pub struct UserId(pub u64);

impl fmt::Debug for UserId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{}", self.0)
    }
}

impl fmt::Display for UserId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{}", self.0)
    }
}

/// A registered end-user.
#[derive(Clone, Debug)]
pub struct Account {
    /// Stable id.
    pub id: UserId,
    /// Login name (unique).
    pub username: String,
    /// The user's export-protection tag `e_u`.
    pub export_tag: Tag,
    /// The user's write-protection tag `w_u`.
    pub write_tag: Tag,
    /// The user's read-protection tag `r_u`, if they enabled the §3.1
    /// "read protection" policy. Unlike `e_u`, raising to `r_u` is a
    /// privilege: only apps the user read-delegates can even *see* data
    /// labeled with it.
    pub read_tag: Option<Tag>,
    /// The owner capabilities: `e_u-`, `w_u+` (and `r_u±` once enabled).
    pub owner_caps: CapSet,
    salt: [u8; 16],
    pass_hash: String,
}

impl Account {
    /// The default labels for this user's data: `S = {e_u}, I = {w_u}`.
    pub fn data_labels(&self) -> LabelPair {
        LabelPair::new(Label::singleton(self.export_tag), Label::singleton(self.write_tag))
    }
}

/// Account-store errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AccountError {
    /// The username is taken.
    UsernameTaken,
    /// Unknown user or wrong password (indistinguishable, deliberately).
    BadCredentials,
    /// Usernames must be 1..=64 chars of `[a-z0-9_-]`.
    InvalidUsername,
}

impl fmt::Display for AccountError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AccountError::UsernameTaken => "username already taken",
            AccountError::BadCredentials => "unknown user or wrong password",
            AccountError::InvalidUsername => "invalid username",
        };
        f.write_str(s)
    }
}

impl std::error::Error for AccountError {}

/// The accounts and, under the same lock, who owns each secrecy tag.
/// Invariant: `tag_owner` holds exactly every account's `export_tag` and
/// every enabled `read_tag`, each mapped to that account's id — the two
/// writers (`register`, `enable_read_protection`) update both halves in
/// one critical section, and accounts are never removed.
#[derive(Default)]
struct Accounts {
    by_id: HashMap<UserId, Arc<Account>>,
    tag_owner: HashMap<Tag, UserId>,
}

/// The account database, owned by the provider.
pub struct AccountStore {
    registry: Arc<TagRegistry>,
    by_name: RwLock<HashMap<String, UserId>>,
    accounts: RwLock<Accounts>,
    next_id: std::sync::atomic::AtomicU64,
}

impl AccountStore {
    /// An empty store allocating tags from `registry`.
    pub fn new(registry: Arc<TagRegistry>) -> AccountStore {
        AccountStore {
            registry,
            by_name: RwLock::with_index("platform.principals", 0, HashMap::new()),
            accounts: RwLock::with_index("platform.principals", 1, Accounts::default()),
            next_id: std::sync::atomic::AtomicU64::new(1),
        }
    }

    /// Register a new user; allocates `e_u` and `w_u`.
    pub fn register(&self, username: &str, password: &str) -> Result<Account, AccountError> {
        if username.is_empty()
            || username.len() > 64
            || !username
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '-')
        {
            return Err(AccountError::InvalidUsername);
        }
        let mut by_name = self.by_name.write();
        if by_name.contains_key(username) {
            return Err(AccountError::UsernameTaken);
        }
        let id = UserId(
            self.next_id
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        );
        let (export_tag, mut caps) = self
            .registry
            .create_tag(TagKind::ExportProtect, &format!("export:{username}"));
        let (write_tag, wcaps) = self
            .registry
            .create_tag(TagKind::WriteProtect, &format!("write:{username}"));
        caps.extend(&wcaps);
        let mut salt = [0u8; 16];
        rand::thread_rng().fill_bytes(&mut salt);
        let account = Account {
            id,
            username: username.to_string(),
            export_tag,
            write_tag,
            read_tag: None,
            owner_caps: caps,
            salt,
            pass_hash: crypto::password_hash(&salt, password),
        };
        by_name.insert(username.to_string(), id);
        let mut accounts = self.accounts.write();
        accounts.tag_owner.insert(export_tag, id);
        accounts.by_id.insert(id, Arc::new(account.clone()));
        Ok(account)
    }

    /// Verify a password; returns the account on success.
    pub fn authenticate(&self, username: &str, password: &str) -> Result<Account, AccountError> {
        let id = *self
            .by_name
            .read()
            .get(username)
            .ok_or(AccountError::BadCredentials)?;
        let acct = self.get(id).ok_or(AccountError::BadCredentials)?;
        let attempt = crypto::password_hash(&acct.salt, password);
        if crypto::ct_eq(attempt.as_bytes(), acct.pass_hash.as_bytes()) {
            Ok(acct)
        } else {
            Err(AccountError::BadCredentials)
        }
    }

    /// Look up by username (no credential check — used by trusted
    /// components such as the net boundary's admission policy).
    pub fn find_by_username(&self, username: &str) -> Option<Account> {
        let id = *self.by_name.read().get(username)?;
        self.get(id)
    }

    /// Look up by id.
    pub fn get(&self, id: UserId) -> Option<Account> {
        self.accounts.read().by_id.get(&id).map(|a| Account::clone(a))
    }

    /// Look up by username.
    pub fn get_by_name(&self, username: &str) -> Option<Account> {
        let id = *self.by_name.read().get(username)?;
        self.get(id)
    }

    /// Which user owns this export tag?
    pub fn owner_of_export_tag(&self, tag: Tag) -> Option<UserId> {
        let accounts = self.accounts.read();
        let owner = *accounts.tag_owner.get(&tag)?;
        (accounts.by_id.get(&owner)?.export_tag == tag).then_some(owner)
    }

    /// The account owning this tag, as either its export tag or its
    /// read-protection tag (the perimeter resolves owners for both),
    /// shared rather than copied: one lock and no allocation.
    pub fn secrecy_tag_owner(&self, tag: Tag) -> Option<Arc<Account>> {
        let accounts = self.accounts.read();
        accounts.by_id.get(accounts.tag_owner.get(&tag)?).cloned()
    }

    /// Enable the §3.1 read-protection policy for a user: allocates their
    /// `r_u` tag (both capability halves stay with the owner) and returns
    /// it. Idempotent.
    pub fn enable_read_protection(&self, id: UserId) -> Option<Tag> {
        let mut accounts = self.accounts.write();
        let Accounts { by_id, tag_owner } = &mut *accounts;
        let account = Arc::make_mut(by_id.get_mut(&id)?);
        if let Some(t) = account.read_tag {
            return Some(t);
        }
        let (tag, caps) = self
            .registry
            .create_tag(TagKind::ReadProtect, &format!("read:{}", account.username));
        account.read_tag = Some(tag);
        account.owner_caps.extend(&caps);
        tag_owner.insert(tag, id);
        Some(tag)
    }

    /// Number of registered users.
    pub fn user_count(&self) -> usize {
        self.accounts.read().by_id.len()
    }

    /// All user ids (ascending).
    pub fn all_ids(&self) -> Vec<UserId> {
        let mut v: Vec<UserId> = self.accounts.read().by_id.keys().copied().collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> AccountStore {
        AccountStore::new(Arc::new(TagRegistry::new()))
    }

    #[test]
    fn register_allocates_tags_and_caps() {
        let s = store();
        let bob = s.register("bob", "hunter2").unwrap();
        assert_ne!(bob.export_tag, bob.write_tag);
        assert!(bob.owner_caps.has_minus(bob.export_tag), "declassify own data");
        assert!(!bob.owner_caps.has_plus(bob.export_tag), "plus is global, not private");
        assert!(bob.owner_caps.has_plus(bob.write_tag), "endorse own data");
        let labels = bob.data_labels();
        assert!(labels.secrecy.contains(bob.export_tag));
        assert!(labels.integrity.contains(bob.write_tag));
    }

    #[test]
    fn authenticate_roundtrip() {
        let s = store();
        s.register("bob", "hunter2").unwrap();
        assert!(s.authenticate("bob", "hunter2").is_ok());
        assert!(matches!(s.authenticate("bob", "wrong"), Err(AccountError::BadCredentials)));
        assert!(matches!(s.authenticate("nobody", "x"), Err(AccountError::BadCredentials)));
    }

    #[test]
    fn duplicate_and_invalid_usernames() {
        let s = store();
        s.register("bob", "x").unwrap();
        assert!(matches!(s.register("bob", "y"), Err(AccountError::UsernameTaken)));
        for bad in ["", "Bob", "has space", "ünïcode", &"a".repeat(65)] {
            assert!(matches!(s.register(bad, "p"), Err(AccountError::InvalidUsername)), "{bad:?}");
        }
    }

    #[test]
    fn lookups() {
        let s = store();
        let bob = s.register("bob", "x").unwrap();
        let alice = s.register("alice", "y").unwrap();
        assert_eq!(s.get(bob.id).unwrap().username, "bob");
        assert_eq!(s.get_by_name("alice").unwrap().id, alice.id);
        assert_eq!(s.owner_of_export_tag(bob.export_tag), Some(bob.id));
        assert_eq!(s.owner_of_export_tag(alice.export_tag), Some(alice.id));
        assert_eq!(s.user_count(), 2);
        assert_eq!(s.all_ids(), vec![bob.id, alice.id]);
    }

    #[test]
    fn distinct_users_have_distinct_tags() {
        let s = store();
        let a = s.register("a1", "p").unwrap();
        let b = s.register("b1", "p").unwrap();
        assert_ne!(a.export_tag, b.export_tag);
        assert_ne!(a.write_tag, b.write_tag);
        // a cannot declassify b's data.
        assert!(!a.owner_caps.has_minus(b.export_tag));
    }

    #[test]
    fn read_tag_resolves_only_once_enabled_and_never_as_an_export_tag() {
        let s = store();
        let bob = s.register("bob", "x").unwrap();
        assert_eq!(s.get(bob.id).unwrap().read_tag, None);
        let r = s.enable_read_protection(bob.id).unwrap();
        assert_eq!(s.enable_read_protection(bob.id), Some(r), "idempotent");
        assert_eq!(s.secrecy_tag_owner(r).map(|a| a.id), Some(bob.id));
        assert_eq!(s.owner_of_export_tag(r), None);
        assert_eq!(s.secrecy_tag_owner(bob.write_tag).map(|a| a.id), None, "integrity tags have no secrecy owner");
        assert_eq!(s.enable_read_protection(UserId(99)), None);
    }

    /// The scan the tag → owner map replaced.
    fn scan_owner(s: &AccountStore, tag: Tag, read_too: bool) -> Option<UserId> {
        s.all_ids().into_iter().find(|id| {
            let a = s.get(*id).unwrap();
            a.export_tag == tag || (read_too && a.read_tag == Some(tag))
        })
    }

    proptest::proptest! {
        /// Over any interleaving of registrations and read-protection
        /// requests, both lookups answer what a scan of every account
        /// answers, for every tag the registry has issued and one it has not.
        #[test]
        fn tag_owner_map_agrees_with_a_scan(
            ops in proptest::collection::vec((0usize..8, proptest::strategy::any::<bool>()), 1..24)
        ) {
            let registry = Arc::new(TagRegistry::new());
            let s = AccountStore::new(Arc::clone(&registry));
            let mut issued = Vec::new();
            for (slot, protect) in ops {
                let name = format!("user{slot}");
                let id = match s.register(&name, "pw") {
                    Ok(a) => {
                        issued.extend([a.export_tag, a.write_tag]);
                        a.id
                    }
                    Err(_) => s.get_by_name(&name).unwrap().id,
                };
                if protect {
                    issued.push(s.enable_read_protection(id).unwrap());
                }
                let (foreign, _) = registry.create_tag(TagKind::ExportProtect, "foreign");
                for &tag in issued.iter().chain([&foreign]) {
                    proptest::prop_assert_eq!(s.secrecy_tag_owner(tag).map(|a| a.id), scan_owner(&s, tag, true));
                    proptest::prop_assert_eq!(s.owner_of_export_tag(tag), scan_owner(&s, tag, false));
                }
                proptest::prop_assert_eq!(s.secrecy_tag_owner(foreign).map(|a| a.id), None);
            }
        }
    }
}
