//! The flow rules: permitted reads and writes.
//!
//! These few functions are the entire security argument of W5. The kernel,
//! the store and the perimeter refuse any data movement these functions do
//! not bless.
//!
//! Notation (Flume, SOSP 2007): a process `p` has secrecy label `S_p`,
//! integrity label `I_p` and effective capability set `O_p` (private bag ∪
//! global bag). `O_p⁺` is the set of tags with `t+ ∈ O_p`, `O_p⁻` likewise.
//!
//! The rules never build `O_p`. They take a [`Held`] — the private bag and
//! the registry whose kind rule *is* the global bag — and ask it one
//! capability at a time: `t+ ∈ O_p ⇔ t+ ∈ private ∨ kind(t) = Export` and
//! `t- ∈ O_p ⇔ t- ∈ private ∨ kind(t) = Write`. A bare `&CapSet` is a
//! `Held` with no registry: exactly the capabilities it lists.
//!
//! * **Read** (subject `p` reads object `o`): `S_o ⊆ S_p ∪ O_p⁺` and
//!   `I_p ⊆ I_o ∪ O_p⁻`; the reader's labels become `S_p ∪ S_o`, `I_p ∩ I_o`.
//! * **Write** (`p` writes `o`): `S_p ⊆ S_o ∪ O_p⁻` and `I_o ⊆ I_p ∪ O_p⁺`.

use crate::error::DifcError;
use crate::label::Label;
use crate::registry::Held;
use crate::tag::Tag;
use crate::LabelPair;
use std::sync::atomic::{AtomicU64, Ordering};
use w5_obs::CheckOp;

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
/// of the kernel's read taint (`src` the data, `dst` the reader):
/// privileges only ever relax a rule, so `true` implies the privileged
/// rule passes and the capability algebra can be skipped. `false` decides nothing — the caller
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

/// Outcome of a full read admissibility check ([`labels_for_read`]).
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

// ---- read and write admissibility ----
//
// Each rule is stated once, as the tags that block it. The verdict asks
// whether any blocking tag exists — a walk over borrowed labels with
// binary-searched membership, no allocation — and only a read denial
// collects them into its `DifcError`. The read's new labels are derived
// only when the read is allowed and changes the subject.

/// One subject meeting one object: the operands of both rules.
#[derive(Clone, Copy)]
struct Access<'a> {
    subj: &'a LabelPair,
    caps: Held<'a>,
    obj: &'a LabelPair,
}

impl<'a> Access<'a> {
    /// Read, secrecy: tags of `S_obj` the reader neither carries nor holds
    /// `t+` for (raising is free for export-protect tags, whose `t+ ∈ Ô`).
    fn unraisable(self) -> impl Iterator<Item = Tag> + 'a {
        let Access { subj, caps, obj } = self;
        obj.secrecy.iter().filter(move |&t| !subj.secrecy.contains(t) && !caps.has_plus(t))
    }

    /// Read, integrity: the reader's claims `obj` does not carry and the
    /// reader holds no `t-` to drop. Keeping such a claim would forge
    /// provenance, and `t-` is public for write-protect tags, so this nearly
    /// never blocks.
    fn undroppable(self) -> impl Iterator<Item = Tag> + 'a {
        let Access { subj, caps, obj } = self;
        subj.integrity.iter().filter(move |&t| !obj.integrity.contains(t) && !caps.has_minus(t))
    }

    /// Write, secrecy: the writer's tags `obj` does not carry and the writer
    /// holds no `t-` to declassify (no laundering secrets into less-secret
    /// objects).
    fn leaked(self) -> impl Iterator<Item = Tag> + 'a {
        let Access { subj, caps, obj } = self;
        subj.secrecy.iter().filter(move |&t| !caps.has_minus(t) && !obj.secrecy.contains(t))
    }

    /// Write, integrity: claims of `obj` the writer neither carries nor
    /// holds `t+` to endorse (no forging endorsements).
    fn unvouched(self) -> impl Iterator<Item = Tag> + 'a {
        let Access { subj, caps, obj } = self;
        obj.integrity.iter().filter(move |&t| !subj.integrity.contains(t) && !caps.has_plus(t))
    }

    /// The read predicate: `S_obj ⊆ S_subj ∪ O⁺` and `I_subj ⊆ I_obj ∪ O⁻`.
    fn read_ok(self) -> bool {
        self.unraisable().next().is_none() && self.undroppable().next().is_none()
    }

    /// The write predicate: `S_subj ⊆ O⁻ ∪ S_obj` and `I_obj ⊆ I_subj ∪ O⁺`.
    fn write_ok(self) -> bool {
        self.leaked().next().is_none() && self.unvouched().next().is_none()
    }

    fn read_denial(self) -> DifcError {
        let tags: Label = self.unraisable().collect();
        if tags.is_empty() {
            DifcError::MissingMinus { tags: self.undroppable().collect() }
        } else {
            DifcError::MissingPlus { tags }
        }
    }
}

/// May a subject with labels `subj` and effective capabilities `caps` *read*
/// an object labeled `obj`? Reading requires `S_obj ⊆ S_subj` (possibly
/// after raising, which `t+ ∈ Ô` makes free for export-protect tags) and
/// taints the subject's integrity down to `I_subj ∩ I_obj`.
///
/// Returns the label change the subject must undergo, if any. Counted
/// once, like [`may_read`]; use that when the change is not needed.
pub fn labels_for_read<'c>(subj: &LabelPair, caps: impl Into<Held<'c>>, obj: &LabelPair) -> FlowCheck {
    let caps = caps.into();
    if !may_read(subj, caps, obj) {
        return FlowCheck::Denied(Access { subj, caps, obj }.read_denial());
    }
    if obj.secrecy.is_subset(&subj.secrecy) && subj.integrity.is_subset(&obj.integrity) {
        FlowCheck::Allowed
    } else {
        FlowCheck::AllowedWithChange {
            new_secrecy: subj.secrecy.union(&obj.secrecy),
            new_integrity: subj.integrity.intersection(&obj.integrity),
        }
    }
}

/// The verdict of [`labels_for_read`] alone, counted once: no label is
/// derived and nothing allocates.
pub fn may_read<'c>(subj: &LabelPair, caps: impl Into<Held<'c>>, obj: &LabelPair) -> bool {
    let allowed = Access { subj, caps: caps.into(), obj }.read_ok();
    // Reads move the object's data toward the subject: the described flow
    // carries the object's secrecy.
    w5_obs::count_check(CheckOp::Read, allowed, obj.secrecy.to_obs());
    allowed
}

/// May a subject with labels `subj` and effective capabilities `caps`
/// *write* an object labeled `obj`? Writing requires the object to absorb
/// the subject's secrecy (`S_subj − O⁻ ⊆ S_obj`: no laundering secrets into
/// less-secret files) and the subject to vouch the object's integrity
/// (`I_obj ⊆ I_subj ∪ O⁺`: no forging endorsements); it never changes the
/// writer's labels. Counted once; nothing allocates.
pub fn may_write<'c>(subj: &LabelPair, caps: impl Into<Held<'c>>, obj: &LabelPair) -> bool {
    let allowed = Access { subj, caps: caps.into(), obj }.write_ok();
    // Writes move the subject's data toward the object: the described flow
    // carries the subject's secrecy.
    w5_obs::count_check(CheckOp::Write, allowed, subj.secrecy.to_obs());
    allowed
}

/// One subject's read and write verdicts over one statement, counted
/// together: each is [`may_read`] / [`may_write`]'s predicate, and the
/// counts reach the ledger through a [`w5_obs::CheckBatch`] — in order,
/// exactly as one-at-a-time counting would leave it, at the latest when
/// this drops. Borrows every label it is given, so it allocates nothing.
pub struct Verdicts<'a> {
    subj: &'a LabelPair,
    caps: Held<'a>,
    counted: w5_obs::CheckBatch<'a>,
}

impl<'a> Verdicts<'a> {
    /// Verdicts for a subject with labels `subj` and effective caps `caps`.
    pub fn new(subj: &'a LabelPair, caps: impl Into<Held<'a>>) -> Verdicts<'a> {
        Verdicts { subj, caps: caps.into(), counted: w5_obs::CheckBatch::new() }
    }

    /// [`may_read`], counted with the rest of the batch.
    pub fn may_read(&mut self, obj: &'a LabelPair) -> bool {
        let allowed = Access { subj: self.subj, caps: self.caps, obj }.read_ok();
        self.counted.push(CheckOp::Read, allowed, obj.secrecy.to_obs());
        allowed
    }

    /// [`may_write`], counted with the rest of the batch.
    pub fn may_write(&mut self, obj: &'a LabelPair) -> bool {
        let allowed = Access { subj: self.subj, caps: self.caps, obj }.write_ok();
        self.counted.push(CheckOp::Write, allowed, self.subj.secrecy.to_obs());
        allowed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::caps::CapSet;
    use crate::registry::TagRegistry;
    use crate::tag::TagKind;

    fn l(ids: &[u64]) -> Label {
        Label::from_iter(ids.iter().map(|&i| Tag::from_raw(i)))
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
        // Whenever it says yes, the read rule agrees with no capabilities
        // at all: the fast path can only skip work.
        let none = CapSet::empty();
        let (src, dst) = (pair(&[1], &[8, 9]), pair(&[1, 2], &[9]));
        assert_eq!(labels_for_read(&dst, &none, &src), FlowCheck::Allowed);
    }

    #[test]
    fn privileged_flow_declassifies_with_minus() {
        let t = Tag::from_raw(1);
        let mut owner = CapSet::empty();
        owner.insert(crate::caps::Capability::minus(t));
        // A tagged writer to an untagged object: only the owner, holding
        // `t-`, may drop the tag on the way out.
        let (writer, sink) = (LabelPair::new(l(&[1]), l(&[])), LabelPair::public());
        assert!(!may_write(&writer, &CapSet::empty(), &sink));
        assert!(may_write(&writer, &owner, &sink));
        // An untagged reader holding t+ can accept it by raising.
        let mut raiser = CapSet::empty();
        raiser.insert(crate::caps::Capability::plus(t));
        let (reader, data) = (LabelPair::public(), LabelPair::new(l(&[1]), l(&[])));
        assert!(!may_read(&reader, &CapSet::empty(), &data));
        assert!(may_read(&reader, &raiser, &data));
    }

    #[test]
    fn read_raises_secrecy_when_permitted() {
        let reg = TagRegistry::new();
        let (e, _alice) = reg.create_tag(TagKind::ExportProtect, "export:alice");
        let empty_bag = CapSet::empty();
        let anyone = reg.held(&empty_bag);
        let subj = LabelPair::public();
        let obj = LabelPair::new(Label::singleton(e), Label::empty());
        match labels_for_read(&subj, anyone, &obj) {
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
        let empty_bag = CapSet::empty();
        let anyone = reg.held(&empty_bag);
        let subj = LabelPair::public();
        let obj = LabelPair::new(Label::singleton(r), Label::empty());
        assert!(matches!(
            labels_for_read(&subj, anyone, &obj),
            FlowCheck::Denied(DifcError::MissingPlus { .. })
        ));
        // With the owner's capabilities the raise succeeds.
        assert!(labels_for_read(&subj, reg.held(&owner), &obj).is_allowed());
    }

    #[test]
    fn read_taints_integrity() {
        let reg = TagRegistry::new();
        let (w, bob) = reg.create_tag(TagKind::WriteProtect, "write:bob");
        let eff = reg.held(&bob);
        // Subject currently claims w; reads an object without it.
        let subj = LabelPair::new(Label::empty(), Label::singleton(w));
        let obj = LabelPair::public();
        match labels_for_read(&subj, eff, &obj) {
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
        let empty_bag = CapSet::empty();
        let anyone = reg.held(&empty_bag);

        // A process that has read alice's data cannot write a public file.
        let tainted = LabelPair::new(Label::singleton(e), Label::empty());
        let public_file = LabelPair::public();
        assert!(!may_write(&tainted, anyone, &public_file));
        // …but alice's declassifier can.
        assert!(may_write(&tainted, reg.held(&alice), &public_file));
        // …and anyone can write a file that is itself alice-secret.
        let alice_file = LabelPair::new(Label::singleton(e), Label::empty());
        assert!(may_write(&tainted, anyone, &alice_file));

        // Writing bob's write-protected file requires endorsement.
        let bob_file = LabelPair::new(Label::empty(), Label::singleton(w));
        let clean = LabelPair::public();
        assert!(!may_write(&clean, anyone, &bob_file));
        assert!(may_write(&clean, reg.held(&bob), &bob_file));
    }

    #[test]
    fn verdicts_decide_like_single_checks_and_count_when_dropped() {
        let reg = TagRegistry::new();
        let (e, _) = reg.create_tag(TagKind::ExportProtect, "export:alice");
        let (r, _) = reg.create_tag(TagKind::ReadProtect, "read:bob");
        let empty_bag = CapSet::empty();
        let anyone = reg.held(&empty_bag);
        let subj = LabelPair::public();
        let objs = [
            LabelPair::new(Label::singleton(e), Label::empty()),
            LabelPair::new(Label::singleton(r), Label::empty()),
            LabelPair::public(),
        ];
        let ledger = std::sync::Arc::new(w5_obs::Ledger::new());
        let _scope = w5_obs::scoped(ledger.clone());
        {
            let mut verdicts = Verdicts::new(&subj, anyone);
            let reads: Vec<bool> = objs.iter().map(|o| verdicts.may_read(o)).collect();
            let writes: Vec<bool> = objs.iter().map(|o| verdicts.may_write(o)).collect();
            assert_eq!(reads, [true, false, true]);
            assert_eq!(writes, [true, true, true], "a public writer may write anything");
            assert_eq!(ledger.events_recorded(), 0, "counts wait for the batch");
        }
        assert_eq!(ledger.events_recorded(), 6);
        assert_eq!(ledger.aggregate().denied["difc"], 1);
        for o in &objs {
            assert_eq!(may_read(&subj, anyone, o), labels_for_read(&subj, anyone, o).is_allowed());
        }
        assert_eq!(ledger.events_recorded(), 12, "single verdicts count at once");
    }

    #[test]
    fn write_after_read_cannot_launder() {
        // The canonical W5 attack: read Bob's photos, write them to a
        // public file, fetch the public file from outside. The write check
        // must stop step two.
        let reg = TagRegistry::new();
        let (e_bob, _bob) = reg.create_tag(TagKind::ExportProtect, "export:bob");
        let empty_bag = CapSet::empty();
        let anyone = reg.held(&empty_bag);

        let mut app = LabelPair::public();
        let photo = LabelPair::new(Label::singleton(e_bob), Label::empty());
        // The app raises to read — allowed.
        match labels_for_read(&app, anyone, &photo) {
            FlowCheck::AllowedWithChange { new_secrecy, new_integrity } => {
                app = LabelPair::new(new_secrecy, new_integrity);
            }
            other => panic!("read should raise: {other:?}"),
        }
        // Now it tries to write a public file — denied.
        assert!(!may_write(&app, anyone, &LabelPair::public()));
    }
}
