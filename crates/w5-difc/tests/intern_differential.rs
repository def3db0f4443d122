//! Differential tests: the shipping label layer vs the naive reference.
//!
//! [`w5_difc::Label`] runs its set algebra on an inline/heap sorted set
//! and [`w5_difc::intern`] hands the store opaque ids for label pairs;
//! [`naive`] retains the plain `Vec<Tag>` implementations with neither.
//! For arbitrary labels — generated across the inline/heap boundary — the
//! two must agree *exactly*: a divergence means a label compared, combined
//! or resolved to the wrong set, which is a security bug.
//!
//! The same properties also run under an armed `w5-chaos` fault storm.
//! The label layer deliberately fires no chaos sites (determinism — see
//! `DESIGN.md` §11), so an injected schedule must not change a single
//! answer; this pins that contract rather than assuming it.

mod naive;

use proptest::prelude::*;
use w5_difc::{intern, rules, Label, LabelPair, PairId, Tag};

fn arb_label() -> impl Strategy<Value = Label> {
    // Raw tag ids in a dedicated range so this test cannot collide with
    // labels interned by other tests sharing the process-global table.
    proptest::collection::vec(900_000_001u64..900_000_064, 0..12)
        .prop_map(|ids| Label::from_iter(ids.into_iter().map(Tag::from_raw)))
}

fn tags(label: &Label) -> Vec<Tag> {
    naive::tags_of(label)
}

/// Assert every label and id-table operation against its naive
/// counterpart for one generated triple of labels.
fn check_agreement(a: &Label, b: &Label, c: &Label) -> Result<(), TestCaseError> {
    let (ta, tb) = (tags(a), tags(b));
    let (ia, ib) = (intern::intern(a), intern::intern(b));

    // Interning is stable and injective on canonical sets, and resolves.
    prop_assert_eq!(intern::intern(a), ia);
    prop_assert_eq!(ia == ib, a == b);
    prop_assert_eq!(ia.resolve(), a.clone());

    // The label algebra, 0 to 11 tags a side.
    prop_assert_eq!(a.is_subset(b), naive::subset(&ta, &tb));
    prop_assert_eq!(b.is_subset(a), naive::subset(&tb, &ta));
    prop_assert_eq!(tags(&a.union(b)), naive::union(&ta, &tb));
    prop_assert_eq!(tags(&a.intersection(b)), naive::intersect(&ta, &tb));
    prop_assert_eq!(tags(&a.difference(b)), naive::difference(&ta, &tb));

    // can_flow (the unprivileged rule is exactly subset).
    prop_assert_eq!(w5_difc::can_flow(a, b), naive::can_flow(&ta, &tb));

    // Pair combine, by id and by value: secrecy unions, integrity
    // intersects.
    let pa = LabelPair::new(a.clone(), c.clone());
    let pb = LabelPair::new(b.clone(), a.clone());
    let combined = PairId::intern(&pa).combine(PairId::intern(&pb)).resolve();
    prop_assert_eq!(&combined, &pa.combine(&pb));
    prop_assert_eq!(tags(&combined.secrecy), naive::union(&ta, &tb));
    prop_assert_eq!(tags(&combined.integrity), naive::intersect(&tags(c), &ta));
    Ok(())
}

proptest! {
    #[test]
    fn interned_ops_agree_with_naive(a in arb_label(), b in arb_label(), c in arb_label()) {
        check_agreement(&a, &b, &c)?;
    }

    /// The same agreement must hold verbatim under an armed fault storm:
    /// the label layer consumes no randomness and volunteers no fault
    /// sites, so chaos schedules cannot perturb it.
    #[test]
    fn interned_ops_agree_under_chaos(
        a in arb_label(),
        b in arb_label(),
        c in arb_label(),
        seed in 0u64..1024,
    ) {
        let injector = w5_chaos::Injector::new(w5_chaos::FaultPlan::storm(seed, 1.0));
        let _guard = w5_chaos::with_injector(injector.clone());
        check_agreement(&a, &b, &c)?;
        // The storm was armed at rate 1.0; if the label layer had consulted
        // any site, the report would show it.
        prop_assert_eq!(injector.report().total_injected(), 0);
    }

    /// The zero-privilege fast path may only ever *agree with* the full
    /// privileged rules: whenever it says yes, they pass with no
    /// capabilities at all, and so does the naive rule.
    #[test]
    fn fast_path_subset_implies_privileged_flow(a in arb_label(), b in arb_label(), c in arb_label()) {
        let (src, dst) = (LabelPair::new(a.clone(), c.clone()), LabelPair::new(b.clone(), a.clone()));
        let none = w5_difc::CapSet::empty();
        let fast = rules::can_flow_unprivileged(&src, &dst);
        prop_assert_eq!(fast, naive::subset(&tags(&a), &tags(&b)) && naive::subset(&tags(&a), &tags(&c)));
        if fast {
            prop_assert!(w5_difc::can_flow_with(&a, &none, &b, &none).is_ok());
            prop_assert!(rules::integrity_flow_with(&c, &none, &a, &none).is_ok());
            prop_assert!(naive::can_flow_with(&tags(&a), &[], &tags(&b), &[]));
        }
    }
}
