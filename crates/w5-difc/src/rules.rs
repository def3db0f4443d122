//! The flow rules: safe label changes and permitted communication.
//!
//! These few functions are the entire security argument of W5. The kernel,
//! the store and the perimeter refuse any data movement these functions do
//! not bless.
//!
//! Notation (Flume, SOSP 2007): a process `p` has secrecy label `S_p`,
//! integrity label `I_p` and effective capability set `O_p` (private bag ∪
//! global bag). `O_p⁺` is the set of tags with `t+ ∈ O_p`, `O_p⁻` likewise.
//!
//! * **Safe label change** `L → L'`: requires `(L' − L) ⊆ O⁺` and
//!   `(L − L') ⊆ O⁻`.
//! * **Secrecy flow** `p → q`: `S_p − O_p⁻ ⊆ S_q ∪ O_q⁺` — the sender may
//!   declassify what it owns minuses for, the receiver may raise for what it
//!   holds pluses on; everything else must already be ⊆.
//! * **Integrity flow** `p → q` (q consumes p's data): `I_q − O_q⁻ ⊆ I_p ∪
//!   O_p⁺` — the receiver's integrity claims must be vouchable by the
//!   sender, modulo claims the receiver may drop and endorsements the
//!   sender may add.

use crate::caps::CapSet;
use crate::error::{DifcError, DifcResult};
use crate::label::Label;
use crate::LabelPair;
use std::sync::atomic::{AtomicU64, Ordering};

/// Check a label change `from → to` against the capability set `caps`
/// (which should already include the global bag; see
/// [`crate::TagRegistry::effective`]).
pub fn safe_change(from: &Label, to: &Label, caps: &CapSet) -> DifcResult<()> {
    let result = safe_change_unobserved(from, to, caps);
    // The flow the check describes carries the union of both labels: a
    // denial reveals something about where the subject stood *and* where
    // it tried to go.
    w5_obs::count_check("change", result.is_ok(), from.union(to).to_obs());
    result
}

fn safe_change_unobserved(from: &Label, to: &Label, caps: &CapSet) -> DifcResult<()> {
    let added = to.difference(from);
    let missing_plus: Label = added.iter().filter(|&t| !caps.has_plus(t)).collect();
    if !missing_plus.is_empty() {
        return Err(DifcError::MissingPlus { tags: missing_plus });
    }
    let removed = from.difference(to);
    let missing_minus: Label = removed.iter().filter(|&t| !caps.has_minus(t)).collect();
    if !missing_minus.is_empty() {
        return Err(DifcError::MissingMinus { tags: missing_minus });
    }
    Ok(())
}

/// Raw flow check: may data with secrecy `s_src` flow to a sink with
/// secrecy `s_dst`, with no privilege exercised? This is the per-message
/// fast path once endpoints have been validated.
pub fn can_flow(s_src: &Label, s_dst: &Label) -> bool {
    s_src.is_subset(s_dst)
}

/// Subset tests [`can_flow_unprivileged`] has run (a relaxed statistic,
/// surfaced as `InternStats::flow_misses`).
static UNPRIVILEGED_TESTS: AtomicU64 = AtomicU64::new(0);

pub(crate) fn unprivileged_tests_run() -> u64 {
    UNPRIVILEGED_TESTS.load(Ordering::Relaxed)
}

/// The zero-privilege flow question, on both axes: may data labeled `src`
/// reach an entity labeled `dst` as the labels stand — `S_src ⊆ S_dst` and
/// `I_dst ⊆ I_src` — with no capability consulted? This is the fast path
/// of the kernel's send (`src` the sender, `dst` the receiver) and of its
/// read taint (`src` the data, `dst` the reader): privileges only ever
/// relax a rule, so `true` implies the privileged rule passes and the
/// capability algebra can be skipped. `false` decides nothing — the caller
/// must fall through to the full rule; a fast path never denies. Writes no
/// ledger event: callers run it under their own guard and count the check
/// once the guard has dropped.
pub fn can_flow_unprivileged(src: &LabelPair, dst: &LabelPair) -> bool {
    fn subset(a: &Label, b: &Label) -> bool {
        // Trivially true, and not counted as a test run.
        if a.is_empty() || a == b {
            return true;
        }
        UNPRIVILEGED_TESTS.fetch_add(1, Ordering::Relaxed);
        a.is_subset(b)
    }
    subset(&src.secrecy, &dst.secrecy) && subset(&dst.integrity, &src.integrity)
}

/// Privileged secrecy flow check: sender with secrecy `s_src` and effective
/// capabilities `o_src` sends to receiver with secrecy `s_dst`, capabilities
/// `o_dst`.
pub fn can_flow_with(s_src: &Label, o_src: &CapSet, s_dst: &Label, o_dst: &CapSet) -> DifcResult<()> {
    // S_src − O_src⁻ ⊆ S_dst ∪ O_dst⁺
    let leaked: Label = s_src
        .iter()
        .filter(|&t| !o_src.has_minus(t))
        .filter(|&t| !s_dst.contains(t) && !o_dst.has_plus(t))
        .collect();
    let allowed = leaked.is_empty();
    w5_obs::count_check("flow", allowed, s_src.to_obs());
    if allowed {
        Ok(())
    } else {
        Err(DifcError::SecrecyViolation { leaked })
    }
}

/// Privileged integrity flow check for `dst` consuming data from `src`:
/// every integrity tag `dst` keeps claiming must be present at the source
/// or endorsable by the source.
pub fn integrity_flow_with(
    i_src: &Label,
    o_src: &CapSet,
    i_dst: &Label,
    o_dst: &CapSet,
) -> DifcResult<()> {
    // I_dst − O_dst⁻ ⊆ I_src ∪ O_src⁺
    let unvouched: Label = i_dst
        .iter()
        .filter(|&t| !o_dst.has_minus(t))
        .filter(|&t| !i_src.contains(t) && !o_src.has_plus(t))
        .collect();
    if unvouched.is_empty() {
        Ok(())
    } else {
        Err(DifcError::IntegrityViolation { unvouched })
    }
}

/// Outcome of a full read/write admissibility check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FlowCheck {
    /// The access is admissible with the labels as they stand.
    Allowed,
    /// The access is admissible only after the subject performs the given
    /// safe label change (e.g. raising secrecy to read a private file).
    AllowedWithChange {
        /// Secrecy label the subject must adopt.
        new_secrecy: Label,
        /// Integrity label the subject must adopt.
        new_integrity: Label,
    },
    /// No safe label change makes the access admissible.
    Denied(DifcError),
}

impl FlowCheck {
    /// True unless the check is a denial.
    pub fn is_allowed(&self) -> bool {
        !matches!(self, FlowCheck::Denied(_))
    }
}

/// May a subject with labels `subj` and effective capabilities `caps` *read*
/// an object labeled `obj`? Reading requires `S_obj ⊆ S_subj` (possibly
/// after raising, which `t+ ∈ Ô` makes free for export-protect tags) and
/// taints the subject's integrity down to `I_subj ∩ I_obj`.
///
/// Returns the label change the subject must undergo, if any.
pub fn labels_for_read(subj: &LabelPair, caps: &CapSet, obj: &LabelPair) -> FlowCheck {
    let check = labels_for_read_unobserved(subj, caps, obj);
    // Reads move the object's data toward the subject: the described flow
    // carries the object's secrecy.
    w5_obs::count_check("read", check.is_allowed(), obj.secrecy.to_obs());
    check
}

fn labels_for_read_unobserved(subj: &LabelPair, caps: &CapSet, obj: &LabelPair) -> FlowCheck {
    let need_raise = obj.secrecy.difference(&subj.secrecy);
    let new_secrecy = if need_raise.is_empty() {
        subj.secrecy.clone()
    } else {
        // Every tag we must add needs a t+ in the effective set.
        let blocked: Label = need_raise.iter().filter(|&t| !caps.has_plus(t)).collect();
        if !blocked.is_empty() {
            return FlowCheck::Denied(DifcError::MissingPlus { tags: blocked });
        }
        subj.secrecy.union(&need_raise)
    };

    // Integrity: reading low-integrity data drops claims the object lacks,
    // unless the subject may keep them via t- ... no: keeping a claim the
    // data doesn't carry would forge provenance. The subject's new integrity
    // is the intersection, and dropping tags requires t- — which is public
    // for write-protect tags, so this nearly always succeeds.
    let dropped = subj.integrity.difference(&obj.integrity);
    let blocked: Label = dropped.iter().filter(|&t| !caps.has_minus(t)).collect();
    if !blocked.is_empty() {
        return FlowCheck::Denied(DifcError::MissingMinus { tags: blocked });
    }
    let new_integrity = subj.integrity.intersection(&obj.integrity);

    if new_secrecy == subj.secrecy && new_integrity == subj.integrity {
        FlowCheck::Allowed
    } else {
        FlowCheck::AllowedWithChange { new_secrecy, new_integrity }
    }
}

/// May a subject with labels `subj` and effective capabilities `caps`
/// *write* an object labeled `obj`?
///
/// Writing requires the object to absorb the subject's secrecy
/// (`S_subj − O⁻ ⊆ S_obj`: no laundering secrets into less-secret files) and
/// the subject to vouch the object's integrity
/// (`I_obj ⊆ I_subj ∪ O⁺`: no forging endorsements).
pub fn labels_for_write(subj: &LabelPair, caps: &CapSet, obj: &LabelPair) -> FlowCheck {
    let check = labels_for_write_unobserved(subj, caps, obj);
    // Writes move the subject's data toward the object: the described flow
    // carries the subject's secrecy.
    w5_obs::count_check("write", check.is_allowed(), subj.secrecy.to_obs());
    check
}

fn labels_for_write_unobserved(subj: &LabelPair, caps: &CapSet, obj: &LabelPair) -> FlowCheck {
    let leaked: Label = subj
        .secrecy
        .iter()
        .filter(|&t| !caps.has_minus(t))
        .filter(|&t| !obj.secrecy.contains(t))
        .collect();
    if !leaked.is_empty() {
        return FlowCheck::Denied(DifcError::SecrecyViolation { leaked });
    }
    let unvouched: Label = obj
        .integrity
        .iter()
        .filter(|&t| !subj.integrity.contains(t) && !caps.has_plus(t))
        .collect();
    if !unvouched.is_empty() {
        return FlowCheck::Denied(DifcError::IntegrityViolation { unvouched });
    }
    FlowCheck::Allowed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::TagRegistry;
    use crate::tag::{Tag, TagKind};

    fn l(ids: &[u64]) -> Label {
        Label::from_iter(ids.iter().map(|&i| Tag::from_raw(i)))
    }

    #[test]
    fn safe_change_rules() {
        let reg = TagRegistry::new();
        let (e, alice) = reg.create_tag(TagKind::ExportProtect, "export:alice");
        let anyone = reg.effective(&CapSet::empty());
        let alice_eff = reg.effective(&alice);

        // Anyone can raise secrecy with an export-protect tag.
        assert!(safe_change(&Label::empty(), &Label::singleton(e), &anyone).is_ok());
        // Only alice can lower it.
        assert!(matches!(
            safe_change(&Label::singleton(e), &Label::empty(), &anyone),
            Err(DifcError::MissingMinus { .. })
        ));
        assert!(safe_change(&Label::singleton(e), &Label::empty(), &alice_eff).is_ok());
    }

    #[test]
    fn write_protect_change_rules() {
        let reg = TagRegistry::new();
        let (w, bob) = reg.create_tag(TagKind::WriteProtect, "write:bob");
        let anyone = reg.effective(&CapSet::empty());
        let bob_eff = reg.effective(&bob);

        // Anyone may drop the integrity claim…
        assert!(safe_change(&Label::singleton(w), &Label::empty(), &anyone).is_ok());
        // …but only bob may claim it.
        assert!(matches!(
            safe_change(&Label::empty(), &Label::singleton(w), &anyone),
            Err(DifcError::MissingPlus { .. })
        ));
        assert!(safe_change(&Label::empty(), &Label::singleton(w), &bob_eff).is_ok());
    }

    #[test]
    fn raw_flow_is_subset() {
        assert!(can_flow(&l(&[]), &l(&[])));
        assert!(can_flow(&l(&[1]), &l(&[1, 2])));
        assert!(!can_flow(&l(&[1, 3]), &l(&[1, 2])));
    }

    #[test]
    fn unprivileged_flow_is_subset_on_both_axes() {
        let pair = |s: &[u64], i: &[u64]| LabelPair::new(l(s), l(i));
        // Secrecy may only grow along the flow, integrity only shrink.
        assert!(can_flow_unprivileged(&pair(&[1], &[8, 9]), &pair(&[1, 2], &[9])));
        assert!(!can_flow_unprivileged(&pair(&[1, 2], &[9]), &pair(&[1], &[9])));
        assert!(!can_flow_unprivileged(&pair(&[1], &[9]), &pair(&[1], &[8, 9])));
        assert!(can_flow_unprivileged(&LabelPair::public(), &pair(&[1], &[])));
        // Whenever it says yes, the privileged rules agree with no
        // capabilities at all: the fast path can only skip work.
        let none = CapSet::empty();
        let (src, dst) = (pair(&[1], &[8, 9]), pair(&[1, 2], &[9]));
        assert!(can_flow_with(&src.secrecy, &none, &dst.secrecy, &none).is_ok());
        assert!(integrity_flow_with(&src.integrity, &none, &dst.integrity, &none).is_ok());
    }

    #[test]
    fn privileged_flow_declassifies_with_minus() {
        let t = Tag::from_raw(1);
        let mut owner = CapSet::empty();
        owner.insert(crate::caps::Capability::minus(t));
        // Tagged data to an untagged sink: only the owner can send it.
        assert!(can_flow_with(&l(&[1]), &CapSet::empty(), &l(&[]), &CapSet::empty()).is_err());
        assert!(can_flow_with(&l(&[1]), &owner, &l(&[]), &CapSet::empty()).is_ok());
        // A receiver holding t+ can accept by raising.
        let mut raiser = CapSet::empty();
        raiser.insert(crate::caps::Capability::plus(t));
        assert!(can_flow_with(&l(&[1]), &CapSet::empty(), &l(&[]), &raiser).is_ok());
    }

    #[test]
    fn integrity_flow_needs_vouching() {
        let w = Tag::from_raw(9);
        // dst claims w, src doesn't carry it and can't endorse: refused.
        assert!(integrity_flow_with(&l(&[]), &CapSet::empty(), &l(&[9]), &CapSet::empty()).is_err());
        // src carries the claim: ok.
        assert!(integrity_flow_with(&l(&[9]), &CapSet::empty(), &l(&[9]), &CapSet::empty()).is_ok());
        // src can endorse: ok.
        let mut endorser = CapSet::empty();
        endorser.insert(crate::caps::Capability::plus(w));
        assert!(integrity_flow_with(&l(&[]), &endorser, &l(&[9]), &CapSet::empty()).is_ok());
        // dst may drop the claim: ok.
        let mut dropper = CapSet::empty();
        dropper.insert(crate::caps::Capability::minus(w));
        assert!(integrity_flow_with(&l(&[]), &CapSet::empty(), &l(&[9]), &dropper).is_ok());
    }

    #[test]
    fn read_raises_secrecy_when_permitted() {
        let reg = TagRegistry::new();
        let (e, _alice) = reg.create_tag(TagKind::ExportProtect, "export:alice");
        let anyone = reg.effective(&CapSet::empty());
        let subj = LabelPair::public();
        let obj = LabelPair::new(Label::singleton(e), Label::empty());
        match labels_for_read(&subj, &anyone, &obj) {
            FlowCheck::AllowedWithChange { new_secrecy, new_integrity } => {
                assert_eq!(new_secrecy, Label::singleton(e));
                assert!(new_integrity.is_empty());
            }
            other => panic!("expected raise, got {other:?}"),
        }
    }

    #[test]
    fn read_protect_blocks_unauthorized_raise() {
        let reg = TagRegistry::new();
        let (r, owner) = reg.create_tag(TagKind::ReadProtect, "read:alice");
        let anyone = reg.effective(&CapSet::empty());
        let subj = LabelPair::public();
        let obj = LabelPair::new(Label::singleton(r), Label::empty());
        assert!(matches!(
            labels_for_read(&subj, &anyone, &obj),
            FlowCheck::Denied(DifcError::MissingPlus { .. })
        ));
        // With the owner's capabilities the raise succeeds.
        assert!(labels_for_read(&subj, &reg.effective(&owner), &obj).is_allowed());
    }

    #[test]
    fn read_taints_integrity() {
        let reg = TagRegistry::new();
        let (w, bob) = reg.create_tag(TagKind::WriteProtect, "write:bob");
        let eff = reg.effective(&bob);
        // Subject currently claims w; reads an object without it.
        let subj = LabelPair::new(Label::empty(), Label::singleton(w));
        let obj = LabelPair::public();
        match labels_for_read(&subj, &eff, &obj) {
            FlowCheck::AllowedWithChange { new_integrity, .. } => {
                assert!(new_integrity.is_empty(), "claim must drop");
            }
            other => panic!("expected taint, got {other:?}"),
        }
    }

    #[test]
    fn write_respects_both_axes() {
        let reg = TagRegistry::new();
        let (e, alice) = reg.create_tag(TagKind::ExportProtect, "export:alice");
        let (w, bob) = reg.create_tag(TagKind::WriteProtect, "write:bob");
        let anyone = reg.effective(&CapSet::empty());

        // A process that has read alice's data cannot write a public file.
        let tainted = LabelPair::new(Label::singleton(e), Label::empty());
        let public_file = LabelPair::public();
        assert!(matches!(
            labels_for_write(&tainted, &anyone, &public_file),
            FlowCheck::Denied(DifcError::SecrecyViolation { .. })
        ));
        // …but alice's declassifier can.
        assert!(labels_for_write(&tainted, &reg.effective(&alice), &public_file).is_allowed());
        // …and anyone can write a file that is itself alice-secret.
        let alice_file = LabelPair::new(Label::singleton(e), Label::empty());
        assert!(labels_for_write(&tainted, &anyone, &alice_file).is_allowed());

        // Writing bob's write-protected file requires endorsement.
        let bob_file = LabelPair::new(Label::empty(), Label::singleton(w));
        let clean = LabelPair::public();
        assert!(matches!(
            labels_for_write(&clean, &anyone, &bob_file),
            FlowCheck::Denied(DifcError::IntegrityViolation { .. })
        ));
        assert!(labels_for_write(&clean, &reg.effective(&bob), &bob_file).is_allowed());
    }

    #[test]
    fn write_after_read_cannot_launder() {
        // The canonical W5 attack: read Bob's photos, write them to a
        // public file, fetch the public file from outside. The write check
        // must stop step two.
        let reg = TagRegistry::new();
        let (e_bob, _bob) = reg.create_tag(TagKind::ExportProtect, "export:bob");
        let anyone = reg.effective(&CapSet::empty());

        let mut app = LabelPair::public();
        let photo = LabelPair::new(Label::singleton(e_bob), Label::empty());
        // The app raises to read — allowed.
        match labels_for_read(&app, &anyone, &photo) {
            FlowCheck::AllowedWithChange { new_secrecy, new_integrity } => {
                app = LabelPair::new(new_secrecy, new_integrity);
            }
            other => panic!("read should raise: {other:?}"),
        }
        // Now it tries to write a public file — denied.
        assert!(!labels_for_write(&app, &anyone, &LabelPair::public()).is_allowed());
    }
}
