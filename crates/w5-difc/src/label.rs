//! Labels: sorted sets of tags with cheap set algebra.
//!
//! Labels are the hot data structure of the whole platform — every label change,
//! file access and database row visit performs label comparisons. A
//! [`Label`] is a typed view over the workspace's one sorted tag-set
//! implementation, [`w5_obs::ObsLabel`]: it takes and yields [`Tag`]s
//! (never the reserved zero id) and every set operation is that type's
//! single merge loop. `{}` (public data) and `{e_u}` (one user's secret)
//! dominate real traffic; labels of 0–2 tags are stored inline and no
//! operation on them allocates.
//!
//! Labels are immutable in spirit: all operations return new labels, which
//! keeps sharing across threads trivial.

use crate::tag::Tag;
use std::fmt;
use w5_obs::ObsLabel;

/// A set of [`Tag`]s. Invariant: no tag id is zero — every constructor
/// takes `Tag`s, which cannot be — so [`Label::iter`] can hand them back.
#[derive(Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Label(ObsLabel);

impl Label {
    /// The empty label (public data / no integrity claims). Never allocates.
    pub fn empty() -> Label {
        Label(ObsLabel::empty())
    }

    /// A label containing a single tag. Never allocates.
    pub fn singleton(tag: Tag) -> Label {
        Label(ObsLabel::singleton(tag.raw()))
    }

    /// Build from an unsorted, possibly duplicated tag collection.
    /// Deliberately an inherent method, not `FromIterator`, so label
    /// construction stays greppable at call sites.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<I: IntoIterator<Item = Tag>>(tags: I) -> Label {
        Label(ObsLabel::from_tags(tags.into_iter().map(Tag::raw)))
    }

    /// Build from a vector that the caller guarantees is sorted and
    /// deduplicated. Checked in debug builds.
    pub fn from_sorted_vec(v: Vec<Tag>) -> Label {
        Label(ObsLabel::from_sorted(v.into_iter().map(Tag::raw).collect()))
    }

    /// True if the label is stored inline (no heap allocation).
    pub fn is_inline(&self) -> bool {
        self.0.is_inline()
    }

    /// Number of tags in the label.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if the label contains no tags.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Membership test (binary search).
    pub fn contains(&self, tag: Tag) -> bool {
        self.0.contains(tag.raw())
    }

    /// Iterate tags in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = Tag> + '_ {
        self.0.iter().map(Tag::from_raw)
    }

    /// `self ⊆ other`, by linear merge (O(|self| + |other|)).
    pub fn is_subset(&self, other: &Label) -> bool {
        self.0.is_subset(&other.0)
    }

    /// True if the labels share no tags.
    pub fn is_disjoint(&self, other: &Label) -> bool {
        self.intersection(other).is_empty()
    }

    /// `self ∪ other`.
    pub fn union(&self, other: &Label) -> Label {
        Label(self.0.union(&other.0))
    }

    /// `self ∩ other`.
    pub fn intersection(&self, other: &Label) -> Label {
        Label(self.0.intersection(&other.0))
    }

    /// `self − other`.
    pub fn difference(&self, other: &Label) -> Label {
        Label(self.0.difference(&other.0))
    }

    /// A copy of `self` with `tag` inserted.
    pub fn with(&self, tag: Tag) -> Label {
        self.union(&Label::singleton(tag))
    }

    /// A copy of `self` with `tag` removed.
    pub fn without(&self, tag: Tag) -> Label {
        self.difference(&Label::singleton(tag))
    }

    /// The ledger's view of this label: the same set as raw tag ids. A
    /// borrow — no conversion, no lock, no table.
    pub fn to_obs(&self) -> &ObsLabel {
        &self.0
    }
}

impl serde::Serialize for Label {
    fn to_json(&self) -> serde::Json {
        self.0.to_json()
    }
}

// Through `Vec<Tag>`, not `ObsLabel`'s deserialiser: a label from outside
// bytes must refuse the zero tag id.
impl serde::Deserialize for Label {
    fn from_json(v: &serde::Json) -> Result<Label, serde::DeError> {
        let tags: Vec<Tag> = serde::Deserialize::from_json(v)?;
        Ok(Label::from_iter(tags))
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, t) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<Tag> for Label {
    fn from_iter<I: IntoIterator<Item = Tag>>(iter: I) -> Label {
        Label::from_iter(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{Hash, Hasher};

    fn l(ids: &[u64]) -> Label {
        Label::from_iter(ids.iter().map(|&i| Tag::from_raw(i)))
    }

    #[test]
    fn from_iter_sorts_and_dedups() {
        let a = l(&[3, 1, 2, 3, 1]);
        let tags: Vec<Tag> = a.iter().collect();
        assert_eq!(tags, [Tag::from_raw(1), Tag::from_raw(2), Tag::from_raw(3)]);
    }

    #[test]
    fn small_labels_stay_inline() {
        assert!(l(&[]).is_inline());
        assert!(l(&[1]).is_inline());
        assert!(l(&[1, 2]).is_inline());
        assert!(!l(&[1, 2, 3]).is_inline());
        // Operations that shrink a heap label back under the cap produce
        // inline results (canonical repr).
        let big = l(&[1, 2, 3, 4]);
        assert!(big.intersection(&l(&[2, 3])).is_inline());
        assert!(big.difference(&l(&[1, 2, 3])).is_inline());
        assert!(big.without(Tag::from_raw(1)).len() == 3);
        // Union that overflows the inline cap spills correctly.
        let u = l(&[1, 2]).union(&l(&[3]));
        assert_eq!(u, l(&[1, 2, 3]));
        assert!(!u.is_inline());
    }

    #[test]
    fn subset_basic() {
        assert!(l(&[]).is_subset(&l(&[])));
        assert!(l(&[]).is_subset(&l(&[1])));
        assert!(l(&[1]).is_subset(&l(&[1, 2])));
        assert!(l(&[1, 2]).is_subset(&l(&[1, 2])));
        assert!(!l(&[1, 3]).is_subset(&l(&[1, 2])));
        assert!(!l(&[1]).is_subset(&l(&[])));
        assert!(!l(&[1, 2, 3]).is_subset(&l(&[1, 2])));
    }

    #[test]
    fn union_intersection_difference() {
        let a = l(&[1, 2, 4]);
        let b = l(&[2, 3]);
        assert_eq!(a.union(&b), l(&[1, 2, 3, 4]));
        assert_eq!(a.intersection(&b), l(&[2]));
        assert_eq!(a.difference(&b), l(&[1, 4]));
        assert_eq!(b.difference(&a), l(&[3]));
    }

    #[test]
    fn with_without() {
        let a = l(&[1, 3]);
        assert_eq!(a.with(Tag::from_raw(2)), l(&[1, 2, 3]));
        assert_eq!(a.with(Tag::from_raw(1)), a);
        assert_eq!(a.without(Tag::from_raw(3)), l(&[1]));
        assert_eq!(a.without(Tag::from_raw(9)), a);
    }

    #[test]
    fn disjoint() {
        assert!(l(&[1, 2]).is_disjoint(&l(&[3, 4])));
        assert!(!l(&[1, 2]).is_disjoint(&l(&[2, 3])));
        assert!(l(&[]).is_disjoint(&l(&[1])));
    }

    #[test]
    fn contains_uses_binary_search() {
        let a = l(&[2, 4, 6, 8]);
        assert!(a.contains(Tag::from_raw(6)));
        assert!(!a.contains(Tag::from_raw(5)));
    }

    #[test]
    fn debug_format() {
        assert_eq!(format!("{:?}", l(&[1, 2])), "{t1,t2}");
        assert_eq!(format!("{:?}", l(&[])), "{}");
    }

    #[test]
    fn eq_and_hash_span_reprs() {
        use std::collections::hash_map::DefaultHasher;
        let a = l(&[5, 9]);
        let b = Label::from_sorted_vec(vec![Tag::from_raw(5), Tag::from_raw(9)]);
        assert_eq!(a, b);
        let hash = |x: &Label| {
            let mut h = DefaultHasher::new();
            x.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&a), hash(&b));
    }

    #[test]
    fn serde_roundtrip_is_a_plain_array() {
        let a = l(&[3, 7, 11]);
        let json = serde_json::to_string(&a).unwrap();
        assert_eq!(json, "[3,7,11]");
        let back: Label = serde_json::from_str(&json).unwrap();
        assert_eq!(back, a);
        assert_eq!(serde_json::to_string(&l(&[])).unwrap(), "[]");
    }
}
