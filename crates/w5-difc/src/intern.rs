//! The label id table: partition keys for the store.
//!
//! The store groups rows into partitions by label pair and memoizes flow
//! verdicts per pair, so it wants a label as something `Copy` that hashes
//! and compares in a few integer operations. This module is that and
//! nothing more: a process-global table mapping each canonical tag set to
//! a small [`LabelId`] and back. It caches no flow decision and no set
//! algebra — real labels are one tag wide, where the plain merge in
//! [`crate::Label`] is cheaper than any probe.
//!
//! ## Append-only, and who may append
//!
//! An id, once handed out, forever resolves to the same immutable tag set,
//! so ids never go stale and need no invalidation. The price is that the
//! table never shrinks and is charged to no resource container. Only the
//! store may therefore intern — labels it keeps rows under (a joined
//! relation counts), i.e. labels some subject already passed a write check
//! for. The kernel, platform, ledger and federation layers work on
//! [`crate::Label`] values directly; CI greps that it stays that way.
//!
//! ## Determinism
//!
//! Interning consumes no randomness and fires no `w5-chaos` sites, so
//! fault-schedule replays are unaffected. Id *values* depend on arrival
//! order and may differ across runs; nothing semantic is derived from the
//! numeric value of an id, and ids never cross the process boundary (the
//! wire format carries tag sets — see [`crate::wire`]).

use crate::label::Label;
use crate::LabelPair;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use w5_sync::RwLock;

/// Interned label handle: an index into the global id table.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LabelId(u32);

impl LabelId {
    /// The empty (public) label, pre-interned at id 0.
    pub const EMPTY: LabelId = LabelId(0);

    /// Resolve back to the tag set: an indexed read plus an
    /// allocation-free clone for inline (0–2 tag) labels.
    pub fn resolve(self) -> Label {
        table().labels.read().by_id[self.0 as usize].clone()
    }
}

/// An interned secrecy/integrity pair — the complete flow-control state of
/// a passive entity, as two integers. `Copy`, 8 bytes, hashes fast.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PairId {
    /// Interned secrecy label.
    pub secrecy: LabelId,
    /// Interned integrity label.
    pub integrity: LabelId,
}

/// FNV-1a hasher for [`PairId`]/[`LabelId`] keys. Interned ids are two
/// small dense integers, so SipHash's DoS resistance buys nothing and its
/// cost dominates the probes hot paths exist to make cheap. Shared by the
/// store's flow memo and its partition directory.
#[derive(Default)]
pub struct PairIdHasher(u64);

impl std::hash::Hasher for PairIdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100000001b3);
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.0 = (self.0 ^ u64::from(v)).wrapping_mul(0x100000001b3);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` keyed by [`PairId`] using the cheap FNV hasher — the map
/// shape every per-label side table (flow memos, partition directories,
/// label resolution caches) wants.
pub type PairIdMap<V> =
    HashMap<PairId, V, std::hash::BuildHasherDefault<PairIdHasher>>;

impl PairId {
    /// The public (empty/empty) pair.
    pub const PUBLIC: PairId = PairId { secrecy: LabelId::EMPTY, integrity: LabelId::EMPTY };

    /// Intern both halves of a pair.
    pub fn intern(pair: &LabelPair) -> PairId {
        PairId { secrecy: intern(&pair.secrecy), integrity: intern(&pair.integrity) }
    }

    /// Resolve back to owned labels.
    pub fn resolve(self) -> LabelPair {
        LabelPair { secrecy: self.secrecy.resolve(), integrity: self.integrity.resolve() }
    }

    /// The pair of data derived from both inputs: secrecy accumulates
    /// (union), integrity degrades (intersection). Equal pairs (the common
    /// scan shape) do no set algebra and touch no table.
    pub fn combine(self, other: PairId) -> PairId {
        if self == other {
            return self;
        }
        PairId::intern(&self.resolve().combine(&other.resolve()))
    }

    /// True if both labels are empty.
    pub fn is_public(self) -> bool {
        self == PairId::PUBLIC
    }
}

/// Intern a label, returning its stable id: one hash and one read lock on
/// the hit path.
pub fn intern(label: &Label) -> LabelId {
    if label.is_empty() {
        return LabelId::EMPTY;
    }
    let t = table();
    if let Some(&id) = t.labels.read().ids.get(label) {
        t.intern_hits.fetch_add(1, Ordering::Relaxed);
        return LabelId(id);
    }
    let mut labels = t.labels.write();
    // Re-check under the write lock: another thread may have won the race.
    if let Some(&id) = labels.ids.get(label) {
        t.intern_hits.fetch_add(1, Ordering::Relaxed);
        return LabelId(id);
    }
    let id = u32::try_from(labels.by_id.len()).expect("label id table overflow");
    labels.by_id.push(label.clone());
    labels.ids.insert(label.clone(), id);
    t.intern_misses.fetch_add(1, Ordering::Relaxed);
    LabelId(id)
}

/// Counters for the id table and the zero-privilege flow test (they feed
/// `w5bench`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct InternStats {
    /// Distinct labels interned so far.
    pub labels: u64,
    /// Intern calls answered from the table.
    pub intern_hits: u64,
    /// Intern calls that inserted a new label.
    pub intern_misses: u64,
    /// Always 0: there is no flow cache to hit.
    pub flow_hits: u64,
    /// Subset tests run by [`crate::rules::can_flow_unprivileged`].
    pub flow_misses: u64,
}

/// Snapshot of the global counters.
pub fn stats() -> InternStats {
    let t = table();
    InternStats {
        labels: t.labels.read().by_id.len() as u64,
        intern_hits: t.intern_hits.load(Ordering::Relaxed),
        intern_misses: t.intern_misses.load(Ordering::Relaxed),
        flow_hits: 0,
        flow_misses: crate::rules::unprivileged_tests_run(),
    }
}

// ------------------------------------------------------------------ table

/// Both directions of the mapping. Append-only: `by_id[ids[l]] == l`.
struct Labels {
    ids: HashMap<Label, u32>,
    by_id: Vec<Label>,
}

struct Interner {
    labels: RwLock<Labels>,
    intern_hits: AtomicU64,
    intern_misses: AtomicU64,
}

fn table() -> &'static Interner {
    static TABLE: OnceLock<Interner> = OnceLock::new();
    TABLE.get_or_init(|| Interner {
        // The empty label sits at id 0 so `LabelId::EMPTY` resolves.
        labels: RwLock::new(
            "difc.intern",
            Labels { ids: HashMap::from([(Label::empty(), 0)]), by_id: vec![Label::empty()] },
        ),
        intern_hits: AtomicU64::new(0),
        intern_misses: AtomicU64::new(0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tag::Tag;

    fn l(ids: &[u64]) -> Label {
        Label::from_iter(ids.iter().map(|&i| Tag::from_raw(i)))
    }

    #[test]
    fn intern_is_stable_and_deduplicating() {
        let a = intern(&l(&[100_001, 100_002]));
        let b = intern(&l(&[100_002, 100_001]));
        assert_eq!(a, b, "same set, same id");
        assert_eq!(a.resolve(), l(&[100_001, 100_002]));
        let c = intern(&l(&[100_003]));
        assert_ne!(a, c);
    }

    #[test]
    fn empty_is_id_zero() {
        assert_eq!(intern(&Label::empty()), LabelId::EMPTY);
        assert!(LabelId::EMPTY.resolve().is_empty());
    }

    #[test]
    fn resolved_ids_keep_the_subset_relation() {
        // Ids carry no order of their own: the subset relation is the one
        // between the resolved sets, in either order of interning.
        let (la, lb) = (l(&[200_001]), l(&[200_001, 200_002]));
        let b = intern(&lb);
        let a = intern(&la);
        assert!(a.resolve().is_subset(&b.resolve()));
        assert!(!b.resolve().is_subset(&a.resolve()));
        assert!(LabelId::EMPTY.resolve().is_subset(&a.resolve()));
    }

    #[test]
    fn union_and_intersect_match_label_algebra() {
        let a = PairId::intern(&LabelPair::new(l(&[300_001, 300_002]), l(&[300_001, 300_002])));
        let b = PairId::intern(&LabelPair::new(l(&[300_002, 300_003]), l(&[300_002, 300_003])));
        let c = a.combine(b);
        assert_eq!(c.secrecy.resolve(), l(&[300_001, 300_002, 300_003]));
        assert_eq!(c.integrity.resolve(), l(&[300_002]));
        assert_eq!(b.combine(a), c, "commutative, and the result is interned once");
        let c = a.combine(PairId::PUBLIC);
        assert_eq!((c.secrecy, c.integrity), (a.secrecy, LabelId::EMPTY));
    }

    #[test]
    fn pair_combine_matches_labelpair_combine() {
        let pa = LabelPair::new(l(&[400_001]), l(&[400_008, 400_009]));
        let pb = LabelPair::new(l(&[400_002]), l(&[400_009]));
        let ia = PairId::intern(&pa);
        let ib = PairId::intern(&pb);
        assert_eq!(ia.combine(ib).resolve(), pa.combine(&pb));
        assert_eq!(ia.combine(ia), ia, "self-combine is the identity");
        assert!(PairId::PUBLIC.is_public());
        assert_eq!(PairId::intern(&LabelPair::public()), PairId::PUBLIC);
    }

    #[test]
    fn concurrent_interning_yields_one_id_per_set() {
        let mut handles = Vec::new();
        for _ in 0..8 {
            handles.push(std::thread::spawn(|| {
                (0..64u64)
                    .map(|i| intern(&l(&[600_000 + i, 600_100 + i])))
                    .collect::<Vec<_>>()
            }));
        }
        let all: Vec<Vec<LabelId>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for ids in &all[1..] {
            assert_eq!(ids, &all[0], "every thread sees the same ids");
        }
    }

    #[test]
    fn stats_move() {
        let before = stats();
        let _ = intern(&l(&[700_001]));
        let _ = intern(&l(&[700_001]));
        let narrow = LabelPair::new(l(&[700_001]), Label::empty());
        let wide = LabelPair::new(l(&[700_001, 700_002]), Label::empty());
        assert!(crate::rules::can_flow_unprivileged(&narrow, &wide));
        let after = stats();
        assert!(after.labels >= before.labels);
        assert!(
            after.intern_hits + after.intern_misses
                > before.intern_hits + before.intern_misses
        );
        assert!(after.flow_misses > before.flow_misses, "a subset test was run");
        assert_eq!(after.flow_hits, 0, "there is no cache to hit");
    }
}
