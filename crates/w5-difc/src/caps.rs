//! Capabilities and capability sets.
//!
//! A capability is the pair of a [`Tag`] and a sign: `t+` permits *adding*
//! `t` to a label (raising secrecy / claiming integrity), `t-` permits
//! *removing* it (declassifying / dropping an integrity claim). Holding both
//! halves is called *owning* the tag — the owner can move data tagged `t`
//! across any boundary, which in W5 is exactly the privilege users delegate
//! to declassifiers (paper §3.1).
//!
//! A [`CapSet`] keeps each sign as a [`Label`] — the workspace's one sorted
//! tag set: membership is a binary search, and `union` / `extend` /
//! `is_subset` are that type's single-pass merges. Capability sets sit on
//! the kernel's send/spawn path (the registry's effective-bag computation
//! is a `union`, and a union with an empty private bag shares the global
//! bag's storage), so this is hot-path algebra, not bookkeeping.

use crate::label::Label;
use crate::tag::Tag;
use serde::{DeError, Json};
use std::fmt;

/// Which half of a tag's capability pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize)]
pub enum Privilege {
    /// `t+`: may add the tag to a label.
    Plus,
    /// `t-`: may remove the tag from a label.
    Minus,
}

/// A single capability: a tag plus a sign.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize)]
pub struct Capability {
    /// The tag this capability governs.
    pub tag: Tag,
    /// Which operation it permits.
    pub privilege: Privilege,
}

impl Capability {
    /// The `t+` capability for `tag`.
    pub fn plus(tag: Tag) -> Capability {
        Capability { tag, privilege: Privilege::Plus }
    }

    /// The `t-` capability for `tag`.
    pub fn minus(tag: Tag) -> Capability {
        Capability { tag, privilege: Privilege::Minus }
    }
}

impl fmt::Debug for Capability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.privilege {
            Privilege::Plus => write!(f, "{}+", self.tag),
            Privilege::Minus => write!(f, "{}-", self.tag),
        }
    }
}

/// A set of capabilities — a process's private bag `D`, or a grant bundle
/// handed to a declassifier.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct CapSet {
    /// Tags held with `t+`.
    plus: Label,
    /// Tags held with `t-`.
    minus: Label,
}

impl CapSet {
    /// The empty capability set.
    pub fn empty() -> CapSet {
        CapSet::default()
    }

    /// Build from an iterator of capabilities.
    pub fn from_caps<I: IntoIterator<Item = Capability>>(caps: I) -> CapSet {
        let mut plus = Vec::new();
        let mut minus = Vec::new();
        for c in caps {
            match c.privilege {
                Privilege::Plus => plus.push(c.tag),
                Privilege::Minus => minus.push(c.tag),
            }
        }
        CapSet { plus: Label::from_iter(plus), minus: Label::from_iter(minus) }
    }

    fn side_mut(&mut self, privilege: Privilege) -> &mut Label {
        match privilege {
            Privilege::Plus => &mut self.plus,
            Privilege::Minus => &mut self.minus,
        }
    }

    /// Insert one capability. Returns true if it was newly added.
    pub fn insert(&mut self, cap: Capability) -> bool {
        let side = self.side_mut(cap.privilege);
        let added = !side.contains(cap.tag);
        if added {
            *side = side.with(cap.tag);
        }
        added
    }

    /// Remove one capability. Returns true if it was present.
    pub fn remove(&mut self, cap: Capability) -> bool {
        let side = self.side_mut(cap.privilege);
        let present = side.contains(cap.tag);
        if present {
            *side = side.without(cap.tag);
        }
        present
    }

    /// Grant full ownership (`t+` and `t-`) of a tag.
    pub fn insert_ownership(&mut self, tag: Tag) {
        self.plus = self.plus.with(tag);
        self.minus = self.minus.with(tag);
    }

    /// Does the set contain `t+` for this tag?
    pub fn has_plus(&self, tag: Tag) -> bool {
        self.plus.contains(tag)
    }

    /// Does the set contain `t-` for this tag?
    pub fn has_minus(&self, tag: Tag) -> bool {
        self.minus.contains(tag)
    }

    /// Does the set contain both halves?
    pub fn owns(&self, tag: Tag) -> bool {
        self.has_plus(tag) && self.has_minus(tag)
    }

    /// Does the set contain the given capability?
    pub fn contains(&self, cap: Capability) -> bool {
        match cap.privilege {
            Privilege::Plus => self.has_plus(cap.tag),
            Privilege::Minus => self.has_minus(cap.tag),
        }
    }

    /// All tags with a `t+` here, as a label (used in flow adjustments).
    pub fn plus_label(&self) -> Label {
        self.plus.clone()
    }

    /// All tags with a `t-` here, as a label.
    pub fn minus_label(&self) -> Label {
        self.minus.clone()
    }

    /// Union with another capability set (single-pass sorted merge).
    pub fn union(&self, other: &CapSet) -> CapSet {
        CapSet { plus: self.plus.union(&other.plus), minus: self.minus.union(&other.minus) }
    }

    /// Merge another capability set into this one in place.
    pub fn extend(&mut self, other: &CapSet) {
        *self = self.union(other);
    }

    /// `self ⊆ other` as capability sets.
    pub fn is_subset(&self, other: &CapSet) -> bool {
        self.plus.is_subset(&other.plus) && self.minus.is_subset(&other.minus)
    }

    /// Number of capabilities held.
    pub fn len(&self) -> usize {
        self.plus.len() + self.minus.len()
    }

    /// True if no capabilities are held.
    pub fn is_empty(&self) -> bool {
        self.plus.is_empty() && self.minus.is_empty()
    }

    /// Iterate all capabilities.
    pub fn iter(&self) -> impl Iterator<Item = Capability> + '_ {
        self.plus.iter().map(Capability::plus).chain(self.minus.iter().map(Capability::minus))
    }
}

impl fmt::Debug for CapSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "O{{")?;
        for (i, c) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{c:?}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<Capability> for CapSet {
    fn from_iter<I: IntoIterator<Item = Capability>>(iter: I) -> CapSet {
        CapSet::from_caps(iter)
    }
}

// Manual serde: the wire shape is `{"plus": [...], "minus": [...]}` with
// sorted arrays, and `Label`'s deserialiser re-canonicalizes (and refuses
// tag 0), so a permuted or duplicated input cannot smuggle in a
// non-canonical set.
impl serde::Serialize for CapSet {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("plus".to_string(), self.plus.to_json()),
            ("minus".to_string(), self.minus.to_json()),
        ])
    }
}

impl serde::Deserialize for CapSet {
    fn from_json(v: &Json) -> Result<CapSet, DeError> {
        let side = |name: &'static str| -> Result<Label, DeError> {
            serde::Deserialize::from_json(v.get(name).ok_or_else(|| DeError::missing_field(name))?)
        };
        Ok(CapSet { plus: side("plus")?, minus: side("minus")? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_query_remove() {
        let t = Tag::from_raw(1);
        let mut s = CapSet::empty();
        assert!(s.insert(Capability::plus(t)));
        assert!(!s.insert(Capability::plus(t)), "duplicate insert reports false");
        assert!(s.has_plus(t));
        assert!(!s.has_minus(t));
        assert!(!s.owns(t));
        s.insert(Capability::minus(t));
        assert!(s.owns(t));
        assert!(s.remove(Capability::plus(t)));
        assert!(!s.has_plus(t));
        assert!(!s.remove(Capability::plus(t)));
    }

    #[test]
    fn ownership_insert() {
        let t = Tag::from_raw(2);
        let mut s = CapSet::empty();
        s.insert_ownership(t);
        assert!(s.owns(t));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn union_and_subset() {
        let t1 = Tag::from_raw(1);
        let t2 = Tag::from_raw(2);
        let a = CapSet::from_caps([Capability::plus(t1)]);
        let b = CapSet::from_caps([Capability::minus(t2)]);
        let u = a.union(&b);
        assert!(a.is_subset(&u));
        assert!(b.is_subset(&u));
        assert!(!u.is_subset(&a));
        assert_eq!(u.len(), 2);
    }

    #[test]
    fn union_merges_overlapping_runs() {
        let tags: Vec<Tag> = (1..=9).map(Tag::from_raw).collect();
        let a = CapSet::from_caps(tags.iter().step_by(2).map(|&t| Capability::plus(t)));
        let b = CapSet::from_caps(tags.iter().skip(2).map(|&t| Capability::plus(t)));
        let u = a.union(&b);
        assert_eq!(u.len(), 9 - 1, "1,3,5,7,9 ∪ 3..=9");
        for &t in tags.iter().filter(|t| t.raw() != 2) {
            assert!(u.has_plus(t));
        }
        assert!(!u.has_plus(Tag::from_raw(2)));
        let mut c = a.clone();
        c.extend(&b);
        assert_eq!(c, u, "extend agrees with union");
    }

    #[test]
    fn subset_mid_run_miss() {
        let a = CapSet::from_caps([Capability::plus(Tag::from_raw(2))]);
        let b = CapSet::from_caps([Capability::plus(Tag::from_raw(1)), Capability::plus(Tag::from_raw(3))]);
        assert!(!a.is_subset(&b));
        assert!(CapSet::empty().is_subset(&a));
        assert!(a.is_subset(&a));
    }

    #[test]
    fn plus_minus_labels() {
        let t1 = Tag::from_raw(1);
        let t2 = Tag::from_raw(2);
        let s = CapSet::from_caps([Capability::plus(t1), Capability::minus(t2), Capability::minus(t1)]);
        assert_eq!(s.plus_label(), Label::from_iter([t1]));
        assert_eq!(s.minus_label(), Label::from_iter([t1, t2]));
    }

    #[test]
    fn iter_covers_both_signs() {
        let t = Tag::from_raw(3);
        let mut s = CapSet::empty();
        s.insert_ownership(t);
        let caps: Vec<_> = s.iter().collect();
        assert!(caps.contains(&Capability::plus(t)));
        assert!(caps.contains(&Capability::minus(t)));
    }

    #[test]
    fn debug_format() {
        let t = Tag::from_raw(4);
        let s = CapSet::from_caps([Capability::plus(t)]);
        assert_eq!(format!("{s:?}"), "O{t4+}");
    }

    #[test]
    fn serde_normalizes_unsorted_input() {
        let t1 = Tag::from_raw(1);
        let t2 = Tag::from_raw(2);
        let s = CapSet::from_caps([Capability::plus(t2), Capability::plus(t1)]);
        let json = serde_json::to_string(&s).unwrap();
        assert_eq!(json, r#"{"plus":[1,2],"minus":[]}"#);
        let back: CapSet = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
        // Unsorted / duplicated wire input canonicalizes on decode.
        let messy: CapSet = serde_json::from_str(r#"{"plus":[2,1,2],"minus":[5,5]}"#).unwrap();
        assert_eq!(messy.len(), 3);
        assert!(messy.has_plus(t1) && messy.has_plus(t2) && messy.has_minus(Tag::from_raw(5)));
    }
}
