//! The acting subject of a storage operation.

use w5_difc::{rules, CapSet, FlowCheck, LabelPair, PairId, PairIdMap};

/// A snapshot of the acting process's flow-control state: its labels and
/// its *effective* capability set (private bag ∪ global bag).
///
/// The platform constructs a `Subject` from kernel state just before each
/// storage call; the store trusts it the way a kernel trusts the current
/// process context.
#[derive(Clone, Debug)]
pub struct Subject {
    /// The process's current labels.
    pub labels: LabelPair,
    /// The process's effective capabilities.
    pub caps: CapSet,
}

impl Subject {
    /// A subject with the given state.
    pub fn new(labels: LabelPair, caps: CapSet) -> Subject {
        Subject { labels, caps }
    }

    /// An unlabeled, unprivileged subject — an anonymous external client.
    pub fn anonymous() -> Subject {
        Subject { labels: LabelPair::public(), caps: CapSet::empty() }
    }

    /// Can this subject read data labeled `obj` (possibly after raising its
    /// own labels)?
    pub fn may_read(&self, obj: &LabelPair) -> bool {
        rules::labels_for_read(&self.labels, &self.caps, obj).is_allowed()
    }

    /// Can this subject read data labeled `obj` *without* any label change?
    pub fn may_read_at_current_labels(&self, obj: &LabelPair) -> bool {
        matches!(
            rules::labels_for_read(&self.labels, &self.caps, obj),
            FlowCheck::Allowed
        )
    }

    /// Can this subject write data labeled `obj`?
    pub fn may_write(&self, obj: &LabelPair) -> bool {
        rules::labels_for_write(&self.labels, &self.caps, obj).is_allowed()
    }

    /// A per-operation flow memo over this subject. See [`FlowMemo`].
    pub fn memo(&self) -> FlowMemo<'_> {
        FlowMemo { subject: self, read: PairIdMap::default(), write: PairIdMap::default() }
    }
}

/// Memoized flow checks against one fixed subject, keyed by interned
/// [`PairId`] — for scans that meet the same label pair again and again
/// (the reference executor's per-row walk), where every check after the
/// first with each distinct pair becomes a hash probe on a `Copy` key. The
/// partitioned executor meets a pair once per scan and asks the
/// [`Subject`] directly.
///
/// Scoped deliberately: the memo holds `&Subject`, so the borrow checker
/// guarantees the subject's labels and capabilities cannot change while
/// cached verdicts are live (`Subject`'s fields are public and mutable —
/// a longer-lived cache would be unsound). Verdicts depend only on the
/// subject (frozen by the borrow) and on immutable interned labels, so
/// within that scope they never stale.
pub struct FlowMemo<'a> {
    subject: &'a Subject,
    read: PairIdMap<bool>,
    write: PairIdMap<bool>,
}

impl FlowMemo<'_> {
    /// Memoized [`Subject::may_read`]. `pair` is the label pair `id` was
    /// interned from (the partition keeps both), so neither a miss nor a
    /// hit goes back to the id table.
    pub fn may_read(&mut self, id: PairId, pair: &LabelPair) -> bool {
        match self.read.get(&id) {
            Some(&ok) => {
                // Memoized verdicts still tick the ledger: audit sees every
                // per-row check; only the recomputation is skipped.
                w5_obs::count_check("read", ok, pair.secrecy.to_obs());
                ok
            }
            None => {
                let ok = self.subject.may_read(pair);
                self.read.insert(id, ok);
                ok
            }
        }
    }

    /// Memoized [`Subject::may_write`]; `pair` as for [`FlowMemo::may_read`].
    pub fn may_write(&mut self, id: PairId, pair: &LabelPair) -> bool {
        match self.write.get(&id) {
            Some(&ok) => {
                w5_obs::count_check("write", ok, self.subject.labels.secrecy.to_obs());
                ok
            }
            None => {
                let ok = self.subject.may_write(pair);
                self.write.insert(id, ok);
                ok
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use w5_difc::{Label, TagKind, TagRegistry};

    #[test]
    fn anonymous_reads_public_only_writes_unprotected() {
        let reg = Arc::new(TagRegistry::new());
        let (e, _) = reg.create_tag(TagKind::ExportProtect, "export:u");
        let (w, _) = reg.create_tag(TagKind::WriteProtect, "write:u");
        let mut anon = Subject::anonymous();
        anon.caps = reg.effective(&anon.caps);

        let secret = LabelPair::new(Label::singleton(e), Label::empty());
        let protected = LabelPair::new(Label::empty(), Label::singleton(w));

        // Export-protected data is readable (raising is free) but the read
        // taints; it is not readable at current labels.
        assert!(anon.may_read(&secret));
        assert!(!anon.may_read_at_current_labels(&secret));
        // Write-protected data is readable but not writable.
        assert!(anon.may_read(&protected));
        assert!(!anon.may_write(&protected));
        // Public data is both.
        assert!(anon.may_read_at_current_labels(&LabelPair::public()));
        assert!(anon.may_write(&LabelPair::public()));
    }

    #[test]
    fn memo_agrees_with_direct_checks() {
        let reg = Arc::new(TagRegistry::new());
        let (e, _) = reg.create_tag(TagKind::ExportProtect, "export:m");
        let (w, _) = reg.create_tag(TagKind::WriteProtect, "write:m");
        let mut anon = Subject::anonymous();
        anon.caps = reg.effective(&anon.caps);

        let pairs = [
            LabelPair::public(),
            LabelPair::new(Label::singleton(e), Label::empty()),
            LabelPair::new(Label::empty(), Label::singleton(w)),
            LabelPair::new(Label::singleton(e), Label::singleton(w)),
        ];
        let mut memo = anon.memo();
        // Two rounds: the second is answered entirely from the memo and
        // must agree with the direct (uncached) checks.
        for _ in 0..2 {
            for p in &pairs {
                let id = p.interned();
                assert_eq!(memo.may_read(id, p), anon.may_read(p));
                assert_eq!(memo.may_write(id, p), anon.may_write(p));
            }
        }
    }
}
