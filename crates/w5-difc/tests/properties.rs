//! Property-based tests for the DIFC core.
//!
//! These check the algebraic laws the security argument rests on: label set
//! algebra, monotonicity of `combine`, soundness of the privileged flow
//! checks relative to explicit label changes, and wire-format round trips.

use proptest::prelude::*;
use w5_difc::wire;
use w5_difc::rules::may_read;
use w5_difc::{can_flow, safe_change, CapSet, Capability, Label, LabelPair, Tag};

fn arb_label() -> impl Strategy<Value = Label> {
    proptest::collection::vec(1u64..64, 0..12)
        .prop_map(|ids| Label::from_iter(ids.into_iter().map(Tag::from_raw)))
}

fn arb_capset() -> impl Strategy<Value = CapSet> {
    proptest::collection::vec((1u64..64, any::<bool>()), 0..12).prop_map(|caps| {
        CapSet::from_caps(caps.into_iter().map(|(id, plus)| {
            let t = Tag::from_raw(id);
            if plus {
                Capability::plus(t)
            } else {
                Capability::minus(t)
            }
        }))
    })
}

proptest! {
    #[test]
    fn union_is_commutative_and_idempotent(a in arb_label(), b in arb_label()) {
        prop_assert_eq!(a.union(&b), b.union(&a));
        prop_assert_eq!(a.union(&a), a.clone());
    }

    #[test]
    fn intersection_distributes_over_union(a in arb_label(), b in arb_label(), c in arb_label()) {
        prop_assert_eq!(
            a.intersection(&b.union(&c)),
            a.intersection(&b).union(&a.intersection(&c))
        );
    }

    #[test]
    fn difference_and_intersection_partition(a in arb_label(), b in arb_label()) {
        // a = (a − b) ∪ (a ∩ b), and the parts are disjoint.
        let diff = a.difference(&b);
        let inter = a.intersection(&b);
        prop_assert_eq!(diff.union(&inter), a);
        prop_assert!(diff.is_disjoint(&inter));
    }

    #[test]
    fn subset_iff_union_absorbs(a in arb_label(), b in arb_label()) {
        prop_assert_eq!(a.is_subset(&b), a.union(&b) == b);
    }

    #[test]
    fn flow_is_a_preorder(a in arb_label(), b in arb_label(), c in arb_label()) {
        prop_assert!(can_flow(&a, &a));
        if can_flow(&a, &b) && can_flow(&b, &c) {
            prop_assert!(can_flow(&a, &c));
        }
    }

    #[test]
    fn combine_only_increases_secrecy(a in arb_label(), b in arb_label(), ia in arb_label(), ib in arb_label()) {
        let pa = LabelPair::new(a.clone(), ia.clone());
        let pb = LabelPair::new(b, ib);
        let c = pa.combine(&pb);
        // Secrecy is monotonically non-decreasing, integrity non-increasing.
        prop_assert!(a.is_subset(&c.secrecy));
        prop_assert!(c.integrity.is_subset(&ia));
    }

    #[test]
    fn safe_change_sound_vs_flow(from in arb_label(), to in arb_label(), caps in arb_capset()) {
        // If the label change from→to is safe under caps, then a reader
        // labeled `from` holding `caps` may read data labeled `to` (the
        // change subsumes the raise the read needs).
        if safe_change(&from, &to, &caps).is_ok() {
            let (reader, data) = (LabelPair::new(from, Label::empty()), LabelPair::new(to, Label::empty()));
            prop_assert!(may_read(&reader, &caps, &data));
        }
    }

    #[test]
    fn unprivileged_flow_equals_raw(a in arb_label(), b in arb_label()) {
        // With no capability, a reader labeled `b` may read data labeled
        // `a` exactly when `a` flows to `b`.
        let (reader, data) = (LabelPair::new(b.clone(), Label::empty()), LabelPair::new(a.clone(), Label::empty()));
        prop_assert_eq!(may_read(&reader, &CapSet::empty(), &data), can_flow(&a, &b));
    }

    #[test]
    fn privileged_flow_monotone_in_caps(a in arb_label(), b in arb_label(), caps in arb_capset(), extra in arb_capset()) {
        // Adding capabilities can never turn an allowed read into a denial.
        let (reader, data) = (LabelPair::new(b, Label::empty()), LabelPair::new(a, Label::empty()));
        if may_read(&reader, &caps, &data) {
            prop_assert!(may_read(&reader, &caps.union(&extra), &data));
        }
    }

    #[test]
    fn wire_roundtrip(s in arb_label(), i in arb_label()) {
        let pair = LabelPair::new(s, i);
        let bytes = wire::pair_to_bytes(&pair);
        prop_assert_eq!(wire::pair_from_bytes(&bytes).unwrap(), pair);
    }

    #[test]
    fn wire_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        // Arbitrary bytes must decode or error, never panic or over-allocate.
        let _ = wire::pair_from_bytes(&bytes);
    }

    #[test]
    fn serde_json_roundtrip(s in arb_label(), i in arb_label()) {
        let pair = LabelPair::new(s, i);
        let json = serde_json::to_string(&pair).unwrap();
        let back: LabelPair = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, pair);
    }
}

mod lattice_laws {
    //! Labels under (∪, ∩) form a bounded distributive lattice, and
    //! `can_flow` is exactly its partial order. Every noninterference
    //! argument in the stack leans on these laws; here they are checked
    //! as laws, not as examples.
    use super::*;

    proptest! {
        #[test]
        fn join_and_meet_are_associative(a in arb_label(), b in arb_label(), c in arb_label()) {
            prop_assert_eq!(a.union(&b).union(&c), a.union(&b.union(&c)));
            prop_assert_eq!(
                a.intersection(&b).intersection(&c),
                a.intersection(&b.intersection(&c))
            );
        }

        #[test]
        fn meet_is_commutative_and_idempotent(a in arb_label(), b in arb_label()) {
            prop_assert_eq!(a.intersection(&b), b.intersection(&a));
            prop_assert_eq!(a.intersection(&a), a.clone());
        }

        #[test]
        fn absorption(a in arb_label(), b in arb_label()) {
            // a ∪ (a ∩ b) = a = a ∩ (a ∪ b): join and meet are duals over
            // one underlying order, not two unrelated operations.
            prop_assert_eq!(a.union(&a.intersection(&b)), a.clone());
            prop_assert_eq!(a.intersection(&a.union(&b)), a.clone());
        }

        #[test]
        fn bounds(a in arb_label()) {
            let bottom = Label::empty();
            prop_assert_eq!(a.union(&bottom), a.clone());
            prop_assert_eq!(a.intersection(&bottom), bottom);
        }

        #[test]
        fn order_consistency(a in arb_label(), b in arb_label()) {
            // Four statements of "a is below b" that must agree exactly:
            // subset, join-absorption, meet-absorption, and the secrecy
            // flow rule the kernel actually enforces.
            let le = a.is_subset(&b);
            prop_assert_eq!(le, a.union(&b) == b);
            prop_assert_eq!(le, a.intersection(&b) == a);
            prop_assert_eq!(le, can_flow(&a, &b));
        }

        #[test]
        fn flow_is_antisymmetric(a in arb_label(), b in arb_label()) {
            if can_flow(&a, &b) && can_flow(&b, &a) {
                prop_assert_eq!(a, b);
            }
        }

        #[test]
        fn join_is_least_upper_bound(a in arb_label(), b in arb_label(), c in arb_label()) {
            let j = a.union(&b);
            prop_assert!(can_flow(&a, &j));
            prop_assert!(can_flow(&b, &j));
            // Least: any other upper bound sits above the join.
            if can_flow(&a, &c) && can_flow(&b, &c) {
                prop_assert!(can_flow(&j, &c));
            }
        }

        #[test]
        fn meet_is_greatest_lower_bound(a in arb_label(), b in arb_label(), c in arb_label()) {
            let m = a.intersection(&b);
            prop_assert!(can_flow(&m, &a));
            prop_assert!(can_flow(&m, &b));
            if can_flow(&c, &a) && can_flow(&c, &b) {
                prop_assert!(can_flow(&c, &m));
            }
        }
    }
}

mod registry_laws {
    use super::*;
    use w5_difc::{TagKind, TagRegistry};

    proptest! {
        /// The registry's capability distribution invariants hold for every
        /// kind: exactly one half is public except ReadProtect (none), and
        /// the creator always holds the complement.
        #[test]
        fn registry_distribution_invariant(kind_ix in 0usize..3) {
            let kind = [TagKind::ExportProtect, TagKind::WriteProtect, TagKind::ReadProtect][kind_ix];
            let reg = TagRegistry::new();
            let (tag, creator) = reg.create_tag(kind, "t");
            // The global bag and the creator's caps always cover both halves.
            let held = reg.held(&creator);
            prop_assert!(held.has_plus(tag) && held.has_minus(tag));
            // And the global bag never holds both halves.
            let global = |cap| reg.is_global(cap);
            prop_assert!(!(global(Capability::plus(tag)) && global(Capability::minus(tag))));
        }
    }
}
