//! Tag allocation and the global capability bag `Ô`, as a rule.
//!
//! The registry is the only piece of shared mutable state in the DIFC layer.
//! It is owned by the platform (one per provider) and consulted when tags
//! are created and when a flow check asks whether a capability is in the
//! *global bag* `Ô` — the capabilities every process implicitly holds.
//!
//! Creating a tag follows the paper's two default policies (§3.1):
//!
//! * **export protection**: `t+` goes in the global bag, the creator
//!   receives `t-` (only they can declassify);
//! * **write protection**: `t-` goes in the global bag, the creator
//!   receives `t+` (only they can endorse).
//!
//! Nothing else ever enters `Ô`, so it is not stored as a set: membership
//! is a function of the tag's kind,
//! `t+ ∈ Ô ⇔ kind(t) = Export` and `t- ∈ Ô ⇔ kind(t) = Write`,
//! and a subject's capabilities are its private bag read through that rule
//! ([`Held`]). No union is ever built, and a check costs the same at 20,000
//! users as at 200.
//!
//! # The kind table
//!
//! `kind(t)` is a lookup in a dense, append-only table indexed by the tag
//! id: chunks of `AtomicU8` that double in size, each allocated once
//! through a `OnceLock`. A lookup is two loads and takes no lock. Tag ids
//! are unchanged, so a tag's kind is this registry's record of it, never
//! something its id encodes: a tag decoded from the wire
//! ([`crate::wire`]) or forged with [`Tag::from_raw`] has whatever kind
//! *this* registry allocated under that id, or none.
//!
//! Why a reader that holds a tag sees its kind: [`TagRegistry::create_tag`]
//! stores the kind (`Release`) before it returns the id, and a thread can
//! only come to hold that id through some synchronising hand-off from the
//! creator (a lock, a channel, a spawn, an `Arc`'d structure). That
//! hand-off makes the store happen before the reader's `Acquire` load, so
//! the load returns the kind. A thread that guesses an id it was never
//! handed may race the store and read "no kind", which grants nothing: a
//! lost race fails closed.

use crate::caps::{CapSet, Capability, Privilege};
use crate::tag::{Tag, TagKind};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;
use w5_sync::RwLock;

/// Metadata recorded for every allocated tag.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TagMeta {
    /// The tag itself.
    pub tag: Tag,
    /// Its capability-distribution kind.
    pub kind: TagKind,
    /// A human-readable name, e.g. `"export:bob"`. Names are for audit
    /// logs only and carry no authority.
    pub name: String,
}

/// Ids in the first chunk; chunk `k` holds `FIRST << k` ids.
const FIRST_BITS: u32 = 6;
/// Enough doubling chunks to cover every `u64` id.
const CHUNKS: usize = 64 - FIRST_BITS as usize;

/// The dense, append-only `id → kind` table (see the module docs).
struct KindTable {
    chunks: [OnceLock<Box<[AtomicU8]>>; CHUNKS],
}

impl KindTable {
    fn new() -> KindTable {
        KindTable { chunks: std::array::from_fn(|_| OnceLock::new()) }
    }

    /// Chunk and offset of an id: id `i` sits at `i + FIRST` in a sequence
    /// of chunks of `FIRST`, `2·FIRST`, `4·FIRST`, … slots.
    fn slot(id: u64) -> (usize, usize) {
        let n = id.saturating_add(1 << FIRST_BITS);
        let k = (63 - n.leading_zeros() - FIRST_BITS) as usize;
        (k, (n - (1 << (k as u32 + FIRST_BITS))) as usize)
    }

    fn set(&self, tag: Tag, kind: TagKind) {
        let (k, off) = KindTable::slot(tag.raw());
        let chunk = self.chunks[k].get_or_init(|| {
            (0..1usize << (k as u32 + FIRST_BITS)).map(|_| AtomicU8::new(0)).collect()
        });
        chunk[off].store(kind_code(kind), Ordering::Release);
    }

    fn get(&self, tag: Tag) -> Option<TagKind> {
        let (k, off) = KindTable::slot(tag.raw());
        match self.chunks[k].get()?[off].load(Ordering::Acquire) {
            1 => Some(TagKind::ExportProtect),
            2 => Some(TagKind::WriteProtect),
            3 => Some(TagKind::ReadProtect),
            _ => None,
        }
    }
}

fn kind_code(kind: TagKind) -> u8 {
    match kind {
        TagKind::ExportProtect => 1,
        TagKind::WriteProtect => 2,
        TagKind::ReadProtect => 3,
    }
}

/// Allocates tags and answers the global-bag rule.
///
/// Thread-safe; shared as `Arc<TagRegistry>` between the kernel, the store
/// and the platform.
pub struct TagRegistry {
    next: AtomicU64,
    kinds: KindTable,
    meta: RwLock<HashMap<Tag, TagMeta>>,
}

impl fmt::Debug for TagRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TagRegistry").field("tags", &self.tag_count()).finish_non_exhaustive()
    }
}

impl Default for TagRegistry {
    fn default() -> Self {
        TagRegistry::new()
    }
}

impl TagRegistry {
    /// A fresh registry with no tags.
    pub fn new() -> TagRegistry {
        TagRegistry {
            next: AtomicU64::new(1),
            kinds: KindTable::new(),
            meta: RwLock::with_index("difc.registry", 0, HashMap::new()),
        }
    }

    /// Allocate a new tag of the given kind.
    ///
    /// Returns the tag and the capabilities the *creator* receives. The
    /// public half (if any) is in the global bag from the moment the id is
    /// returned: the kind is recorded first.
    pub fn create_tag(&self, kind: TagKind, name: &str) -> (Tag, CapSet) {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let tag = Tag::from_raw(id);
        self.kinds.set(tag, kind);
        self.meta.write().insert(
            tag,
            TagMeta { tag, kind, name: name.to_string() },
        );
        let mut creator = CapSet::empty();
        match kind {
            TagKind::ExportProtect => {
                creator.insert(Capability::minus(tag));
            }
            TagKind::WriteProtect => {
                creator.insert(Capability::plus(tag));
            }
            TagKind::ReadProtect => {
                creator.insert_ownership(tag);
            }
        }
        // Tag allocation is public metadata (names carry no authority), but
        // which *kind* was chosen shapes the global bag — worth a ledger
        // entry for audit.
        w5_obs::record(
            &w5_obs::ObsLabel::empty(),
            w5_obs::EventKind::TagCreate {
                tag: tag.raw(),
                kind: match kind {
                    TagKind::ExportProtect => "export".to_string(),
                    TagKind::WriteProtect => "write".to_string(),
                    TagKind::ReadProtect => "read".to_string(),
                },
            },
        );
        (tag, creator)
    }

    /// The kind this registry allocated the tag with; `None` for an id it
    /// never allocated. O(1), lock-free.
    pub fn kind(&self, tag: Tag) -> Option<TagKind> {
        self.kinds.get(tag)
    }

    /// Is the capability in the global bag `Ô`? True exactly for `t+` of
    /// an export-protect tag and `t-` of a write-protect tag.
    pub fn is_global(&self, cap: Capability) -> bool {
        match (cap.privilege, self.kind(cap.tag)) {
            (Privilege::Plus, Some(kind)) => kind.plus_is_public(),
            (Privilege::Minus, Some(kind)) => kind.minus_is_public(),
            (_, None) => false,
        }
    }

    /// A private bag read together with this registry's global bag.
    pub fn held<'a>(&'a self, private: &'a CapSet) -> Held<'a> {
        Held { private, registry: Some(self) }
    }

    /// Metadata for a tag, if it exists.
    pub fn meta(&self, tag: Tag) -> Option<TagMeta> {
        self.meta.read().get(&tag).cloned()
    }

    /// True if the tag has been allocated by this registry.
    pub fn exists(&self, tag: Tag) -> bool {
        self.kind(tag).is_some()
    }

    /// Number of allocated tags.
    pub fn tag_count(&self) -> usize {
        self.meta.read().len()
    }

    /// Metadata for every allocated tag, sorted by tag id. This is the
    /// enumeration surface for configuration auditors (`w5-analyze`): a
    /// stable, deterministic view of the whole tag universe, `Ô` included
    /// (it is a function of the kinds listed here).
    pub fn all_meta(&self) -> Vec<TagMeta> {
        let mut v: Vec<TagMeta> = self.meta.read().values().cloned().collect();
        v.sort_by_key(|m| m.tag);
        v
    }

    /// Find a tag by its audit name. Linear scan — audit/debug use only.
    pub fn find_by_name(&self, name: &str) -> Option<Tag> {
        self.meta
            .read()
            .values()
            .find(|m| m.name == name)
            .map(|m| m.tag)
    }
}

/// The capabilities a flow rule may exercise for a subject: its private
/// bag and, when a registry is given, the global bag `Ô` read as the
/// registry's kind rule. `Copy` and borrowed: building one costs nothing.
///
/// A bare `&CapSet` converts into a `Held` with no registry, which holds
/// exactly that set — the form for callers that pass every capability
/// explicitly.
#[derive(Clone, Copy, Debug)]
pub struct Held<'a> {
    private: &'a CapSet,
    registry: Option<&'a TagRegistry>,
}

impl<'a> Held<'a> {
    /// Is the capability held, privately or through `Ô`?
    pub fn contains(self, cap: Capability) -> bool {
        self.private.contains(cap) || self.registry.is_some_and(|r| r.is_global(cap))
    }

    /// Is `t+` held?
    pub fn has_plus(self, tag: Tag) -> bool {
        self.contains(Capability::plus(tag))
    }

    /// Is `t-` held?
    pub fn has_minus(self, tag: Tag) -> bool {
        self.contains(Capability::minus(tag))
    }

    /// Is every capability of `caps` held (a grant the holder may pass on)?
    pub fn covers(self, caps: &CapSet) -> bool {
        caps.iter().all(|c| self.contains(c))
    }
}

impl<'a> From<&'a CapSet> for Held<'a> {
    fn from(private: &'a CapSet) -> Held<'a> {
        Held { private, registry: None }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_protect_distribution() {
        let reg = TagRegistry::new();
        let (t, creator) = reg.create_tag(TagKind::ExportProtect, "export:bob");
        assert!(reg.is_global(Capability::plus(t)), "t+ must be public");
        assert!(!reg.is_global(Capability::minus(t)), "t- must be private");
        assert!(creator.has_minus(t), "creator declassifies");
        assert!(!creator.has_plus(t));
    }

    #[test]
    fn write_protect_distribution() {
        let reg = TagRegistry::new();
        let (t, creator) = reg.create_tag(TagKind::WriteProtect, "write:bob");
        assert!(reg.is_global(Capability::minus(t)));
        assert!(!reg.is_global(Capability::plus(t)));
        assert!(creator.has_plus(t), "creator endorses");
        assert!(!creator.has_minus(t));
    }

    #[test]
    fn read_protect_keeps_both_private() {
        let reg = TagRegistry::new();
        let (t, creator) = reg.create_tag(TagKind::ReadProtect, "read:bob");
        assert!(!reg.is_global(Capability::plus(t)) && !reg.is_global(Capability::minus(t)));
        assert!(creator.owns(t));
    }

    #[test]
    fn tags_are_unique_and_registered() {
        let reg = TagRegistry::new();
        let (a, _) = reg.create_tag(TagKind::ExportProtect, "a");
        let (b, _) = reg.create_tag(TagKind::ExportProtect, "b");
        assert_ne!(a, b);
        assert!(reg.exists(a));
        assert!(reg.exists(b));
        assert!(!reg.exists(Tag::from_raw(999)));
        assert_eq!(reg.tag_count(), 2);
        assert_eq!(reg.meta(a).unwrap().name, "a");
        assert_eq!(reg.find_by_name("b"), Some(b));
        assert_eq!(reg.find_by_name("zzz"), None);
    }

    #[test]
    fn effective_combines_private_and_global() {
        let reg = TagRegistry::new();
        let (t, creator) = reg.create_tag(TagKind::ExportProtect, "x");
        let none = CapSet::empty();
        // Any process, even with an empty private bag, holds t+.
        assert!(reg.held(&none).has_plus(t));
        // Only the creator holds t-.
        assert!(!reg.held(&none).has_minus(t));
        assert!(reg.held(&creator).has_minus(t));
        assert!(reg.held(&creator).covers(&CapSet::from_caps([Capability::plus(t), Capability::minus(t)])));
        // Without the registry, a bag holds only itself.
        assert!(!Held::from(&none).has_plus(t));
    }

    #[test]
    fn kind_table_spans_chunk_boundaries() {
        let reg = TagRegistry::new();
        let kinds = [TagKind::ExportProtect, TagKind::WriteProtect, TagKind::ReadProtect];
        let tags: Vec<(Tag, TagKind)> = (0..1000)
            .map(|i| {
                let kind = kinds[i % 3];
                (reg.create_tag(kind, "k").0, kind)
            })
            .collect();
        for &(t, kind) in &tags {
            assert_eq!(reg.kind(t), Some(kind), "{t}");
        }
        assert_eq!(reg.kind(Tag::from_raw(1001)), None);
        assert_eq!(reg.kind(Tag::from_raw(u64::MAX)), None);
        for id in [1u64, 63, 64, 65, 191, 192, u64::MAX] {
            let (k, off) = KindTable::slot(id);
            assert!(off < 1 << (k as u32 + FIRST_BITS), "{id}");
        }
    }

    #[test]
    fn concurrent_tag_creation_yields_distinct_tags() {
        use std::sync::Arc;
        let reg = Arc::new(TagRegistry::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let reg = Arc::clone(&reg);
            handles.push(std::thread::spawn(move || {
                (0..100)
                    .map(|i| reg.create_tag(TagKind::ExportProtect, &format!("t{i}")).0)
                    .collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<Tag> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 800, "no duplicate tags under concurrency");
    }
}
