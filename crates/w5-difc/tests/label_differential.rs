//! Differential tests: the shipping label layer vs the naive reference.
//!
//! [`w5_difc::Label`] runs its set algebra on an inline/heap sorted set;
//! [`naive`] retains the plain `Vec<Tag>` implementations. For arbitrary
//! labels — generated across the inline/heap boundary — the two must agree
//! *exactly*: a divergence means a label compared or combined to the wrong
//! set, which is a security bug.
//!
//! The same properties also run under an armed `w5-chaos` fault storm.
//! The label layer deliberately fires no chaos sites (determinism — see
//! `DESIGN.md` §11), so an injected schedule must not change a single
//! answer; this pins that contract rather than assuming it.

mod naive;

use proptest::prelude::*;
use w5_difc::{rules, wire, CapSet, Capability, DifcError, FlowCheck, Label, LabelPair, Tag, TagKind, TagRegistry};

fn arb_label() -> impl Strategy<Value = Label> {
    proptest::collection::vec(900_000_001u64..900_000_064, 0..12)
        .prop_map(|ids| Label::from_iter(ids.into_iter().map(Tag::from_raw)))
}

fn tags(label: &Label) -> Vec<Tag> {
    naive::tags_of(label)
}

/// The eight tags the rule properties draw from, so that labels and
/// capabilities overlap often.
const RULE_TAGS: std::ops::Range<u64> = 900_000_101..900_000_109;

fn arb_small_label() -> impl Strategy<Value = Label> {
    proptest::collection::vec(RULE_TAGS, 0..6)
        .prop_map(|ids| Label::from_iter(ids.into_iter().map(Tag::from_raw)))
}

fn arb_pair() -> impl Strategy<Value = LabelPair> {
    (arb_small_label(), arb_small_label()).prop_map(|(s, i)| LabelPair::new(s, i))
}

/// No capability, arbitrary plus and minus halves, or owning every tag.
fn arb_caps() -> impl Strategy<Value = CapSet> {
    let owner = CapSet::from_caps(RULE_TAGS.flat_map(|t| {
        let t = Tag::from_raw(t);
        [Capability::plus(t), Capability::minus(t)]
    }));
    let some = (arb_small_label(), arb_small_label()).prop_map(|(plus, minus)| {
        CapSet::from_caps(plus.iter().map(Capability::plus).chain(minus.iter().map(Capability::minus)))
    });
    prop_oneof![Just(CapSet::empty()), some, Just(owner)]
}

/// A label pair as it arrives over the wire from ids: tags this registry
/// made, and ids past its last one, which it never made.
fn wire_pair((secrecy, integrity): &(Vec<u64>, Vec<u64>)) -> LabelPair {
    let label = |ids: &[u64]| Label::from_iter(ids.iter().map(|&i| Tag::from_raw(i)));
    let pair = LabelPair::new(label(secrecy), label(integrity));
    wire::pair_from_bytes(&wire::pair_to_bytes(&pair)).expect("own encoding")
}

fn arb_ids() -> impl Strategy<Value = (Vec<u64>, Vec<u64>)> {
    let ids = || proptest::collection::vec(1u64..14, 0..5);
    (ids(), ids())
}

fn naive_pair(pair: &LabelPair) -> naive::Pair {
    (tags(&pair.secrecy), tags(&pair.integrity))
}

/// Assert every label operation against its naive counterpart for one
/// generated triple of labels.
fn check_agreement(a: &Label, b: &Label, c: &Label) -> Result<(), TestCaseError> {
    let (ta, tb) = (tags(a), tags(b));

    // Equality is equality of the canonical sets.
    prop_assert_eq!(a == b, ta == tb);

    // The label algebra, 0 to 11 tags a side.
    prop_assert_eq!(a.is_subset(b), naive::subset(&ta, &tb));
    prop_assert_eq!(b.is_subset(a), naive::subset(&tb, &ta));
    prop_assert_eq!(tags(&a.union(b)), naive::union(&ta, &tb));
    prop_assert_eq!(tags(&a.intersection(b)), naive::intersect(&ta, &tb));
    prop_assert_eq!(tags(&a.difference(b)), naive::difference(&ta, &tb));

    // can_flow (the unprivileged rule is exactly subset).
    prop_assert_eq!(w5_difc::can_flow(a, b), naive::can_flow(&ta, &tb));

    // Pair combine: secrecy unions, integrity intersects.
    let pa = LabelPair::new(a.clone(), c.clone());
    let pb = LabelPair::new(b.clone(), a.clone());
    let combined = pa.combine(&pb);
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

    /// The read and write predicates — single, batched, and (for reads)
    /// behind `labels_for_read` — decide exactly the naive set formulas, and an
    /// allowed read derives exactly the naive labels, for labels of 0–5
    /// tags on both axes and capabilities from none through owning.
    #[test]
    fn read_write_predicates_agree_with_naive(
        subj in arb_pair(),
        obj in arb_pair(),
        caps in arb_caps(),
    ) {
        let (plus, minus) = (tags(&caps.plus_label()), tags(&caps.minus_label()));
        let (nsubj, nobj) = (naive_pair(&subj), naive_pair(&obj));

        let read = rules::labels_for_read(&subj, &caps, &obj);
        let may_read = naive::may_read(&nsubj, &plus, &minus, &nobj);
        prop_assert_eq!(read.is_allowed(), may_read);
        prop_assert_eq!(rules::may_read(&subj, &caps, &obj), may_read);
        let derived = naive::read_labels(&nsubj, &nobj);
        let expected = (derived != nsubj).then_some(derived);
        match read {
            FlowCheck::Allowed => prop_assert_eq!(expected, None),
            FlowCheck::AllowedWithChange { new_secrecy, new_integrity } => {
                prop_assert_eq!(expected, Some((tags(&new_secrecy), tags(&new_integrity))));
            }
            // A denial names the secrecy tags it could not raise to, or
            // else the claims it could not drop.
            FlowCheck::Denied(e) => {
                let unraisable = naive::difference(&naive::difference(&nobj.0, &nsubj.0), &plus);
                let undroppable = naive::difference(&naive::difference(&nsubj.1, &nobj.1), &minus);
                prop_assert_eq!(e, if unraisable.is_empty() {
                    DifcError::MissingMinus { tags: Label::from_iter(undroppable) }
                } else {
                    DifcError::MissingPlus { tags: Label::from_iter(unraisable) }
                });
            }
        }

        let may_write = naive::may_write(&nsubj, &plus, &minus, &nobj);
        prop_assert_eq!(rules::may_write(&subj, &caps, &obj), may_write);

        let mut verdicts = rules::Verdicts::new(&subj, &caps);
        prop_assert_eq!(verdicts.may_read(&obj), may_read);
        prop_assert_eq!(verdicts.may_write(&obj), may_write);
    }

    /// The zero-privilege fast path may only ever *agree with* the full
    /// read rule: whenever it says yes, the read passes with no
    /// capabilities at all, and so does the naive flow rule.
    #[test]
    fn fast_path_subset_implies_privileged_flow(a in arb_label(), b in arb_label(), c in arb_label()) {
        let (src, dst) = (LabelPair::new(a.clone(), c.clone()), LabelPair::new(b.clone(), a.clone()));
        let none = w5_difc::CapSet::empty();
        let fast = rules::can_flow_unprivileged(&src, &dst);
        prop_assert_eq!(fast, naive::subset(&tags(&a), &tags(&b)) && naive::subset(&tags(&a), &tags(&c)));
        if fast {
            prop_assert_eq!(rules::labels_for_read(&dst, &none, &src), FlowCheck::Allowed);
            prop_assert!(naive::can_flow_with(&tags(&a), &[], &tags(&b), &[]));
        }
    }

    /// `Ô` is a rule over the registry's tag kinds. The reference keeps it
    /// as the explicit union the registry used to store — every `t+` of an
    /// export tag and `t-` of a write tag it created, added to the private
    /// bag — and on random registries, with labels that arrive over the
    /// wire (including ids the registry never made, which must gain
    /// nothing), the rule must decide every check exactly as the union
    /// does, and the union exactly as the naive formulas do.
    #[test]
    fn the_global_rule_agrees_with_the_explicit_union(
        kinds in proptest::collection::vec(0usize..3, 1..10),
        subj in arb_ids(),
        obj in arb_ids(),
        private in arb_ids(),
    ) {
        let reg = TagRegistry::new();
        let mut global = Vec::new();
        for &k in &kinds {
            let kind = [TagKind::ExportProtect, TagKind::WriteProtect, TagKind::ReadProtect][k];
            let (t, _) = reg.create_tag(kind, "t");
            match kind {
                TagKind::ExportProtect => global.push(Capability::plus(t)),
                TagKind::WriteProtect => global.push(Capability::minus(t)),
                TagKind::ReadProtect => {}
            }
        }
        let (subj, obj) = (wire_pair(&subj), wire_pair(&obj));
        let private = wire_pair(&private);
        let private = CapSet::from_caps(
            private.secrecy.iter().map(Capability::plus).chain(private.integrity.iter().map(Capability::minus)),
        );
        let union = private.union(&CapSet::from_caps(global));
        let held = reg.held(&private);

        for id in 1..14 {
            let t = Tag::from_raw(id);
            prop_assert_eq!(held.has_plus(t), union.has_plus(t), "t{}+", id);
            prop_assert_eq!(held.has_minus(t), union.has_minus(t), "t{}-", id);
        }
        prop_assert_eq!(rules::labels_for_read(&subj, held, &obj), rules::labels_for_read(&subj, &union, &obj));
        let (plus, minus) = (tags(&union.plus_label()), tags(&union.minus_label()));
        let (nsubj, nobj) = (naive_pair(&subj), naive_pair(&obj));
        prop_assert_eq!(rules::may_read(&subj, held, &obj), naive::may_read(&nsubj, &plus, &minus, &nobj));
        prop_assert_eq!(rules::may_write(&subj, held, &obj), naive::may_write(&nsubj, &plus, &minus, &nobj));
    }
}
