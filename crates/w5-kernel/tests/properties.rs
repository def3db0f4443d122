//! Property tests for the kernel: label-state soundness under random
//! sequences of the calls a request makes.

use proptest::prelude::*;
use std::sync::Arc;
use w5_difc::{CapSet, Capability, Label, LabelPair, Tag, TagKind, TagRegistry};
use w5_kernel::{Kernel, ProcessId, ResourceLimits};

/// One call of a random schedule, applied as `(act, process #, tag mask)`.
#[derive(Clone, Copy, Debug)]
enum Act {
    /// Create a process holding the `t+` of the read-protect tags in the
    /// mask.
    Launch,
    /// Read data labeled with the tags in the mask.
    Taint,
    /// Exit the process.
    Exit,
    /// Reap the process (refused while it is alive).
    Reap,
}

fn arb_op() -> impl Strategy<Value = (Act, usize, u8)> {
    let act = prop_oneof![
        Just(Act::Launch),
        Just(Act::Taint),
        Just(Act::Taint),
        Just(Act::Exit),
        Just(Act::Reap),
    ];
    (act, 0usize..8, any::<u8>())
}

/// The tags of `tags` whose bit is set in `mask`.
fn pick(tags: &[Tag], mask: u8) -> Label {
    Label::from_iter(tags.iter().enumerate().filter(|(i, _)| mask >> i & 1 == 1).map(|(_, &t)| t))
}

proptest! {
    /// Soundness of label state under random launch, taint, exit and
    /// reap: a process's secrecy only grows, and a read-protected tag
    /// enters it only if the process was created holding that tag's `t+`.
    #[test]
    fn secrecy_only_grows_and_read_protected_tags_need_their_plus(
        ops in proptest::collection::vec(arb_op(), 0..60),
    ) {
        let registry = Arc::new(TagRegistry::new());
        let kernel = Kernel::new(Arc::clone(&registry));
        let export: Vec<Tag> = (0..3).map(|_| registry.create_tag(TagKind::ExportProtect, "e").0).collect();
        let read: Vec<Tag> = (0..3).map(|_| registry.create_tag(TagKind::ReadProtect, "r").0).collect();
        let all = [export, read.clone()].concat();
        // Each process with the read-protect tags it may read.
        let mut procs: Vec<(ProcessId, Label)> = Vec::new();

        for (act, p, mask) in ops {
            let before: Vec<Option<LabelPair>> =
                procs.iter().map(|&(pid, _)| kernel.labels(pid).ok()).collect();
            let target = (!procs.is_empty()).then(|| procs[p % procs.len()].0);
            match (act, target) {
                (Act::Launch, _) => {
                    let plus = pick(&read, mask);
                    let caps = CapSet::from_caps(plus.iter().map(Capability::plus));
                    let pid = kernel.create_process("p", LabelPair::public(), caps, ResourceLimits::unlimited());
                    procs.push((pid, plus));
                }
                (_, None) => {}
                (Act::Taint, Some(pid)) => {
                    let _ = kernel.taint_for_read(pid, &LabelPair::new(pick(&all, mask), Label::empty()));
                }
                (Act::Exit, Some(pid)) => {
                    let _ = kernel.exit(pid);
                }
                (Act::Reap, Some(pid)) => {
                    let _ = kernel.reap(pid);
                }
            }
            for (i, (pid, plus)) in procs.iter().enumerate() {
                let Ok(after) = kernel.labels(*pid) else { continue };
                if let Some(Some(b)) = before.get(i) {
                    prop_assert!(b.secrecy.is_subset(&after.secrecy), "{pid} lost secrecy: {b:?} → {after:?}");
                }
                for t in after.secrecy.iter().filter(|t| read.contains(t)) {
                    prop_assert!(plus.contains(t), "{pid} read {t:?} holding only {plus:?}");
                }
            }
        }
    }
}
