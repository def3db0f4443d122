//! The workspace's one sorted tag-set type.
//!
//! A label is a sorted, deduplicated set of tag ids. There is exactly one
//! implementation of that set — this one — and two views of it:
//! [`ObsLabel`] carries raw `u64` ids for the ledger, and `w5_difc::Label`
//! is a newtype over it that takes and yields typed, non-zero `Tag`s. The
//! type lives here because `w5-obs` is the lowest crate that needs it (the
//! flow rules themselves are instrumented), so handing a `Label` to the
//! ledger is a borrow, not a conversion.
//!
//! Real labels are one tag wide (`{e_u}`, `{w_u}`; paper §3.1), so 0–2 tags
//! live inline with no heap allocation and every operation on them is
//! allocation-free; larger sets share an `Arc<[u64]>`, so a clone is a
//! reference-count bump, never a vector copy.

use std::cmp::Ordering;
use std::sync::Arc;

const INLINE: usize = 2;

#[derive(Clone, Debug)]
enum Repr {
    /// Up to two tags stored in place; `tags[len..]` is unused padding.
    Inline { len: u8, tags: [u64; INLINE] },
    /// Larger sets, shared. Always strictly sorted, length > INLINE.
    Heap(Arc<[u64]>),
}

/// A sorted, deduplicated set of raw tag ids. Invariant: the inline
/// representation is used iff the set holds `<= INLINE` tags, so the
/// representation is canonical per set.
#[derive(Clone)]
pub struct ObsLabel(Repr);

/// The one ordered merge behind union, intersection and difference: walks
/// both sorted runs once and emits, in ascending order, each run of tags
/// that `keep` selects by where it was found — `keep[0]` only in `a`,
/// `keep[1]` in both, `keep[2]` only in `b`.
fn merge_runs(a: &[u64], b: &[u64], keep: [bool; 3], mut emit: impl FnMut(&[u64])) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => {
                if keep[0] {
                    emit(&a[i..=i]);
                }
                i += 1;
            }
            Ordering::Equal => {
                if keep[1] {
                    emit(&a[i..=i]);
                }
                i += 1;
                j += 1;
            }
            Ordering::Greater => {
                if keep[2] {
                    emit(&b[j..=j]);
                }
                j += 1;
            }
        }
    }
    if keep[0] {
        emit(&a[i..]);
    }
    if keep[2] {
        emit(&b[j..]);
    }
}

impl ObsLabel {
    /// The empty (public) label.
    pub const fn empty() -> ObsLabel {
        ObsLabel(Repr::Inline { len: 0, tags: [0; INLINE] })
    }

    /// A label of a single tag id.
    pub fn singleton(tag: u64) -> ObsLabel {
        ObsLabel(Repr::Inline { len: 1, tags: [tag, 0] })
    }

    /// Build from arbitrary tag ids (sorted and deduplicated here).
    pub fn from_tags<I: IntoIterator<Item = u64>>(tags: I) -> ObsLabel {
        let mut v: Vec<u64> = tags.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        ObsLabel::from_canonical(v)
    }

    /// Build from a vector the caller guarantees is sorted and deduplicated.
    /// Checked in debug builds.
    pub fn from_sorted(v: Vec<u64>) -> ObsLabel {
        debug_assert!(v.windows(2).all(|w| w[0] < w[1]), "label not strictly sorted");
        ObsLabel::from_canonical(v)
    }

    fn from_canonical(v: Vec<u64>) -> ObsLabel {
        if v.len() <= INLINE {
            let mut tags = [0u64; INLINE];
            tags[..v.len()].copy_from_slice(&v);
            ObsLabel(Repr::Inline { len: v.len() as u8, tags })
        } else {
            ObsLabel(Repr::Heap(v.into()))
        }
    }

    /// The tags as a sorted slice.
    pub fn as_slice(&self) -> &[u64] {
        match &self.0 {
            Repr::Inline { len, tags } => &tags[..*len as usize],
            Repr::Heap(a) => a,
        }
    }

    /// True if the label is stored inline (no heap allocation).
    pub fn is_inline(&self) -> bool {
        matches!(self.0, Repr::Inline { .. })
    }

    /// Number of tags.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True for the public label.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Membership test (binary search).
    pub fn contains(&self, tag: u64) -> bool {
        self.as_slice().binary_search(&tag).is_ok()
    }

    /// Iterate tag ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.as_slice().iter().copied()
    }

    /// `self ⊆ other` by linear merge, no allocation. This is the
    /// no-privilege flow rule: data labeled `self` may flow to a reader
    /// labeled `other` exactly when `S_data ⊆ S_reader` holds.
    pub fn is_subset(&self, other: &ObsLabel) -> bool {
        let (a, b) = (self.as_slice(), other.as_slice());
        if a.len() > b.len() {
            return false;
        }
        let mut oi = b.iter();
        'outer: for t in a {
            for o in oi.by_ref() {
                match o.cmp(t) {
                    Ordering::Less => continue,
                    Ordering::Equal => continue 'outer,
                    Ordering::Greater => return false,
                }
            }
            return false;
        }
        true
    }

    /// Merge with `other`, keeping tags as [`merge_runs`] selects them.
    /// Real labels are one tag wide: when both operands together fit
    /// inline, so does the result, and nothing allocates.
    fn merge(&self, other: &ObsLabel, keep: [bool; 3]) -> ObsLabel {
        let (a, b) = (self.as_slice(), other.as_slice());
        if a.len() + b.len() <= INLINE {
            let (mut tags, mut len) = ([0u64; INLINE], 0);
            merge_runs(a, b, keep, |run| {
                tags[len..len + run.len()].copy_from_slice(run);
                len += run.len();
            });
            ObsLabel(Repr::Inline { len: len as u8, tags })
        } else {
            let mut out = Vec::with_capacity(a.len() + b.len());
            merge_runs(a, b, keep, |run| out.extend_from_slice(run));
            ObsLabel::from_canonical(out)
        }
    }

    /// `self ∪ other`.
    pub fn union(&self, other: &ObsLabel) -> ObsLabel {
        // `x ∪ {}` is the common case: a clone shares heap storage.
        if self.is_empty() {
            return other.clone();
        }
        if other.is_empty() {
            return self.clone();
        }
        self.merge(other, [true, true, true])
    }

    /// `self ∩ other`.
    pub fn intersection(&self, other: &ObsLabel) -> ObsLabel {
        self.merge(other, [false, true, false])
    }

    /// `self − other`.
    pub fn difference(&self, other: &ObsLabel) -> ObsLabel {
        self.merge(other, [true, false, false])
    }
}

impl Default for ObsLabel {
    fn default() -> ObsLabel {
        ObsLabel::empty()
    }
}

// Equality, ordering, hashing and debug output are representation-blind:
// they see only the canonical sorted tag sequence.
impl PartialEq for ObsLabel {
    fn eq(&self, other: &ObsLabel) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for ObsLabel {}

impl PartialOrd for ObsLabel {
    fn partial_cmp(&self, other: &ObsLabel) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ObsLabel {
    fn cmp(&self, other: &ObsLabel) -> Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl std::hash::Hash for ObsLabel {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl std::fmt::Debug for ObsLabel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ObsLabel(")?;
        f.debug_list().entries(self.iter()).finish()?;
        write!(f, ")")
    }
}

impl FromIterator<u64> for ObsLabel {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> ObsLabel {
        ObsLabel::from_tags(iter)
    }
}

// Wire format: a plain JSON array, e.g. `[7,9]`.
impl serde::Serialize for ObsLabel {
    fn to_json(&self) -> serde::Json {
        serde::Json::Arr(self.iter().map(serde::Json::UInt).collect())
    }
}

impl serde::Deserialize for ObsLabel {
    fn from_json(v: &serde::Json) -> Result<ObsLabel, serde::DeError> {
        let tags: Vec<u64> = serde::Deserialize::from_json(v)?;
        Ok(ObsLabel::from_tags(tags))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subset_semantics() {
        let empty = ObsLabel::empty();
        let a = ObsLabel::from_tags([3, 1]);
        let b = ObsLabel::from_tags([1, 2, 3]);
        assert!(empty.is_subset(&empty));
        assert!(empty.is_subset(&a));
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(a.is_subset(&a));
    }

    #[test]
    fn from_tags_sorts_and_dedups() {
        let l = ObsLabel::from_tags([5, 1, 5, 3]);
        assert_eq!(l.iter().collect::<Vec<_>>(), vec![1, 3, 5]);
        assert_eq!(l.len(), 3);
        assert!(l.contains(3));
        assert!(!l.contains(4));
    }

    #[test]
    fn union_merges() {
        let a = ObsLabel::from_tags([1, 3]);
        let b = ObsLabel::from_tags([2, 3]);
        assert_eq!(a.union(&b).iter().collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    fn serde_roundtrip() {
        let l = ObsLabel::from_tags([7, 9]);
        let json = serde_json::to_string(&l).unwrap();
        assert_eq!(json, "[7,9]");
        let back: ObsLabel = serde_json::from_str(&json).unwrap();
        assert_eq!(back, l);
    }

    #[test]
    fn eq_and_hash_span_representations() {
        use std::collections::HashSet;
        // 3+ tags heap-allocate; a union that collapses back under the
        // inline threshold must still equal an inline-built label.
        let heap = ObsLabel::from_tags([1, 2, 3]);
        assert!(matches!(heap.0, Repr::Heap(_)));
        let inline = ObsLabel::from_tags([1, 2]);
        assert!(matches!(inline.0, Repr::Inline { .. }));
        assert_eq!(inline, ObsLabel::from_sorted(vec![1, 2]));
        let mut set = HashSet::new();
        set.insert(heap.clone());
        assert!(set.contains(&ObsLabel::from_tags([3, 2, 1])));
        // Clones of heap labels share storage (Arc), not copy it.
        let c = heap.clone();
        if let (Repr::Heap(a), Repr::Heap(b)) = (&heap.0, &c.0) {
            assert!(Arc::ptr_eq(a, b));
        } else {
            panic!("expected heap reprs");
        }
    }
}
