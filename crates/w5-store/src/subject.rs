//! The acting subject of a storage operation.

use w5_difc::rules::{self, Verdicts};
use w5_difc::{CapSet, LabelPair};

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
    /// own labels)? One verdict, counted at once.
    pub fn may_read(&self, obj: &LabelPair) -> bool {
        rules::may_read(&self.labels, &self.caps, obj)
    }

    /// Can this subject write data labeled `obj`? One verdict, counted at
    /// once.
    pub fn may_write(&self, obj: &LabelPair) -> bool {
        rules::may_write(&self.labels, &self.caps, obj)
    }

    /// The same verdicts for a statement that makes many: counted together,
    /// in order, when the returned batch drops.
    pub(crate) fn verdicts(&self) -> Verdicts<'_> {
        Verdicts::new(&self.labels, &self.caps)
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

        // Export-protected data is readable: raising is free.
        assert!(anon.may_read(&secret));
        // Write-protected data is readable but not writable.
        assert!(anon.may_read(&protected));
        assert!(!anon.may_write(&protected));
        // Public data is both.
        assert!(anon.may_read(&LabelPair::public()));
        assert!(anon.may_write(&LabelPair::public()));
    }
}
