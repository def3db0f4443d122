//! The acting subject of a storage operation.

use w5_difc::rules::{self, Verdicts};
use w5_difc::{CapSet, LabelPair, TagRegistry};

/// A snapshot of the acting process's flow-control state: its labels and
/// its private capability bag.
///
/// The platform constructs a `Subject` from kernel state just before each
/// storage call (both fields share their storage with the kernel's copy, so
/// this allocates nothing); the store trusts it the way a kernel trusts the
/// current process context. The global bag `Ô` is not in `caps`: the
/// store reads it from the provider's registry as a rule.
#[derive(Clone, Debug)]
pub struct Subject {
    /// The process's current labels.
    pub labels: LabelPair,
    /// The process's private capability bag.
    pub caps: CapSet,
}

impl Subject {
    /// A subject with the given state.
    pub fn new(labels: LabelPair, caps: CapSet) -> Subject {
        Subject { labels, caps }
    }

    /// An unlabeled subject with an empty bag — an anonymous external
    /// client. Like every subject, it holds the global bag in a store.
    pub fn anonymous() -> Subject {
        Subject { labels: LabelPair::public(), caps: CapSet::empty() }
    }

    /// Can this subject, holding its bag and `global`'s global bag, read
    /// data labeled `obj` (possibly after raising its own labels)? One
    /// verdict, counted at once.
    pub fn may_read(&self, global: &TagRegistry, obj: &LabelPair) -> bool {
        rules::may_read(&self.labels, global.held(&self.caps), obj)
    }

    /// Can this subject, holding its bag and `global`'s global bag, write
    /// data labeled `obj`? One verdict, counted at once.
    pub fn may_write(&self, global: &TagRegistry, obj: &LabelPair) -> bool {
        rules::may_write(&self.labels, global.held(&self.caps), obj)
    }

    /// The same verdicts for a statement that makes many: counted together,
    /// in order, when the returned batch drops.
    pub(crate) fn verdicts<'a>(&'a self, global: &'a TagRegistry) -> Verdicts<'a> {
        Verdicts::new(&self.labels, global.held(&self.caps))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use w5_difc::{Label, TagKind};

    #[test]
    fn anonymous_reads_public_only_writes_unprotected() {
        let reg = TagRegistry::new();
        let (e, _) = reg.create_tag(TagKind::ExportProtect, "export:u");
        let (w, _) = reg.create_tag(TagKind::WriteProtect, "write:u");
        let anon = Subject::anonymous();
        let global = &reg;

        let secret = LabelPair::new(Label::singleton(e), Label::empty());
        let protected = LabelPair::new(Label::empty(), Label::singleton(w));

        // Export-protected data is readable: raising is free.
        assert!(anon.may_read(global, &secret));
        // Write-protected data is readable but not writable.
        assert!(anon.may_read(global, &protected));
        assert!(!anon.may_write(global, &protected));
        // Public data is both.
        assert!(anon.may_read(global, &LabelPair::public()));
        assert!(anon.may_write(global, &LabelPair::public()));
    }
}
