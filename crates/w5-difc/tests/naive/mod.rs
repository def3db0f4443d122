//! The retained naive reference implementation of label algebra.
//!
//! Plain `Vec<Tag>` sets, rebuilt and re-sorted on every operation, no
//! inline representation, no sharing, no ids. `intern_differential.rs`
//! checks the shipping `Label` algebra, the id table and the flow rules —
//! the read and write rules as set formulas, apart from the shipping
//! predicates — against these functions under proptest-generated tag sets; any
//! divergence is a soundness bug in the shipping code, full stop.

use w5_difc::{Label, Tag};

/// Canonicalize: sort and deduplicate.
pub fn canon(mut tags: Vec<Tag>) -> Vec<Tag> {
    tags.sort_unstable();
    tags.dedup();
    tags
}

/// Set union, by concatenate-and-canonicalize (the old `Label::union`
/// cost model: always allocates, always re-sorts).
pub fn union(a: &[Tag], b: &[Tag]) -> Vec<Tag> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    out.extend_from_slice(a);
    out.extend_from_slice(b);
    canon(out)
}

/// Set intersection by per-element linear membership scans.
pub fn intersect(a: &[Tag], b: &[Tag]) -> Vec<Tag> {
    canon(a.iter().copied().filter(|t| b.contains(t)).collect())
}

/// Set difference `a − b` by per-element linear membership scans.
pub fn difference(a: &[Tag], b: &[Tag]) -> Vec<Tag> {
    canon(a.iter().copied().filter(|t| !b.contains(t)).collect())
}

/// `a ⊆ b` by per-element linear membership scans.
pub fn subset(a: &[Tag], b: &[Tag]) -> bool {
    a.iter().all(|t| b.contains(t))
}

/// `can_flow`: data labeled `src` may flow to an entity labeled `dst`
/// with no privilege exercised iff `src ⊆ dst`.
pub fn can_flow(src: &[Tag], dst: &[Tag]) -> bool {
    subset(src, dst)
}

/// `can_flow_with`: Flume's privileged flow rule,
/// `S_src − O_src⁻ ⊆ S_dst ∪ O_dst⁺`.
pub fn can_flow_with(src: &[Tag], src_minus: &[Tag], dst: &[Tag], dst_plus: &[Tag]) -> bool {
    subset(&difference(src, src_minus), &union(dst, dst_plus))
}

/// A label pair as two naive tag sets: `(secrecy, integrity)`.
pub type Pair = (Vec<Tag>, Vec<Tag>);

/// The read rule: the reader can raise to every secrecy tag of the object
/// (`S_obj ⊆ S_subj ∪ O⁺`) and drop every claim the object lacks
/// (`I_subj ⊆ I_obj ∪ O⁻`).
pub fn may_read(subj: &Pair, plus: &[Tag], minus: &[Tag], obj: &Pair) -> bool {
    subset(&obj.0, &union(&subj.0, plus)) && subset(&subj.1, &union(&obj.1, minus))
}

/// The reader's labels after an allowed read: secrecy accumulates,
/// integrity degrades.
pub fn read_labels(subj: &Pair, obj: &Pair) -> Pair {
    (union(&subj.0, &obj.0), intersect(&subj.1, &obj.1))
}

/// The write rule: the object absorbs what the writer cannot declassify
/// (`S_subj ⊆ S_obj ∪ O⁻`) and the writer vouches every claim of the
/// object (`I_obj ⊆ I_subj ∪ O⁺`).
pub fn may_write(subj: &Pair, plus: &[Tag], minus: &[Tag], obj: &Pair) -> bool {
    subset(&subj.0, &union(&obj.0, minus)) && subset(&obj.1, &union(&subj.1, plus))
}

/// Convert a slice view of a [`Label`] for feeding the reference ops.
pub fn tags_of(label: &Label) -> Vec<Tag> {
    label.iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u64) -> Tag {
        Tag::from_raw(i)
    }

    #[test]
    fn reference_algebra_basics() {
        let a = vec![t(1), t(2)];
        let b = vec![t(2), t(3)];
        assert_eq!(union(&a, &b), vec![t(1), t(2), t(3)]);
        assert_eq!(intersect(&a, &b), vec![t(2)]);
        assert_eq!(difference(&a, &b), vec![t(1)]);
        assert!(subset(&[t(2)], &a));
        assert!(!subset(&a, &b));
        assert!(can_flow(&[], &a));
        assert!(!can_flow(&a, &b));
        // {1,2} − {1} = {2} ⊆ {3} ∪ {2}
        assert!(can_flow_with(&a, &[t(1)], &[t(3)], &[t(2)]));
        assert!(!can_flow_with(&a, &[t(1)], &[t(3)], &[]));
        // A public reader raises to {1} with 1+, and only with it.
        let (public, secret) = ((vec![], vec![]), (vec![t(1)], vec![]));
        assert!(may_read(&public, &[t(1)], &[], &secret));
        assert!(!may_read(&public, &[], &[], &secret));
        assert_eq!(read_labels(&public, &secret), secret);
        // …and, tainted, may write it back out only with 1-.
        assert!(!may_write(&secret, &[], &[], &public));
        assert!(may_write(&secret, &[], &[t(1)], &public));
    }

    #[test]
    fn canon_dedups_unsorted_input() {
        assert_eq!(canon(vec![t(3), t(1), t(3), t(2)]), vec![t(1), t(2), t(3)]);
    }
}
