//! The retained naive reference implementation of label algebra.
//!
//! Plain `Vec<Tag>` sets, rebuilt and re-sorted on every operation, no
//! inline representation, no sharing, no ids. `intern_differential.rs`
//! checks the shipping `Label` algebra, the id table and the flow rules
//! against these functions under proptest-generated tag sets; any
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
    }

    #[test]
    fn canon_dedups_unsorted_input() {
        assert_eq!(canon(vec![t(3), t(1), t(3), t(2)]), vec![t(1), t(2), t(3)]);
    }
}
