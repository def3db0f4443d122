//! Property tests for the kernel: label-state soundness under random
//! operation sequences, and scheduler determinism.

use proptest::prelude::*;
use std::sync::Arc;
use w5_difc::{CapSet, Capability, Label, LabelPair, Tag, TagKind, TagRegistry};
use w5_kernel::{Kernel, ProcessId, ResourceLimits, Scheduler, Step};

/// One syscall of a random schedule, applied as `(act, process, tag #)`.
#[derive(Clone, Copy, Debug)]
enum Act {
    /// Create an export tag (the creator holds its `t-`).
    CreateTag,
    /// Add the tag to the process's secrecy.
    Raise,
    /// Remove the tag from the process's secrecy.
    Lower,
    /// Read data labeled with the tag.
    Taint,
    /// Shed the tag's `t-`.
    DropMinus,
}

fn arb_op() -> impl Strategy<Value = (Act, usize, usize)> {
    let act = prop_oneof![
        Just(Act::CreateTag),
        Just(Act::Raise),
        Just(Act::Lower),
        Just(Act::Taint),
        Just(Act::DropMinus),
    ];
    (act, 0usize..4, 0usize..6)
}

proptest! {
    /// Soundness of label state under random syscalls: a process's
    /// secrecy loses a tag only if the process held that tag's `t-` when
    /// the tag went. Raising and read taint only ever add.
    #[test]
    fn secrecy_sheds_only_tags_the_process_may_declassify(ops in proptest::collection::vec(arb_op(), 0..60)) {
        let kernel = Kernel::new(Arc::new(TagRegistry::new()));
        let pids: Vec<ProcessId> = (0..4)
            .map(|i| {
                kernel.create_process(
                    &format!("p{i}"),
                    LabelPair::public(),
                    CapSet::empty(),
                    ResourceLimits::unlimited(),
                )
            })
            .collect();
        let mut tags: Vec<Tag> = Vec::new();

        for (act, p, k) in ops {
            let pid = pids[p];
            let before = kernel.labels(pid).unwrap();
            let minus = kernel.caps(pid).unwrap().minus_label();
            let with_secrecy = |s: Label| LabelPair::new(s, before.integrity.clone());
            match (act, tags.get(k).copied()) {
                (Act::CreateTag, _) => tags.push(kernel.create_tag(pid, TagKind::ExportProtect, "t").unwrap()),
                (_, None) => {}
                (Act::Raise, Some(t)) => {
                    let _ = kernel.change_labels(pid, with_secrecy(before.secrecy.with(t)));
                }
                (Act::Lower, Some(t)) => {
                    let _ = kernel.change_labels(pid, with_secrecy(before.secrecy.without(t)));
                }
                (Act::Taint, Some(t)) => {
                    let _ = kernel.taint_for_read(pid, &with_secrecy(Label::singleton(t)));
                }
                (Act::DropMinus, Some(t)) => {
                    kernel.drop_caps(pid, &CapSet::from_caps([Capability::minus(t)])).unwrap();
                }
            }
            let shed = before.secrecy.difference(&kernel.labels(pid).unwrap().secrecy);
            prop_assert!(shed.is_subset(&minus), "{pid} shed {shed:?} holding only {minus:?}");
        }
    }

    /// Scheduler determinism: identical task sets produce identical
    /// reports.
    #[test]
    fn scheduler_is_deterministic(
        works in proptest::collection::vec((1u64..500, 1u64..50), 1..6),
        epoch in 10u64..200,
    ) {
        let run = || {
            let kernel = Kernel::new(Arc::new(TagRegistry::new()));
            let mut sched = Scheduler::new(kernel.clone(), epoch, true);
            for (i, &(total, slice)) in works.iter().enumerate() {
                let pid = kernel.create_process(
                    &format!("w{i}"),
                    LabelPair::public(),
                    CapSet::empty(),
                    ResourceLimits { cpu_per_epoch: 50, ..ResourceLimits::unlimited() },
                );
                let mut left = total;
                sched.add(pid, Box::new(move |_k: &Kernel, _p: ProcessId| {
                    if left == 0 {
                        return Step::Done;
                    }
                    let c = slice.min(left);
                    left -= c;
                    Step::Yield { cost: c }
                }));
            }
            let r = sched.run(100_000);
            (r.total_ticks, r.finished_at, r.executed)
        };
        prop_assert_eq!(run(), run());
    }

    /// All work completes when capacity allows, regardless of shape.
    #[test]
    fn all_tasks_finish_given_time(
        works in proptest::collection::vec((1u64..200, 1u64..20), 1..5),
    ) {
        let kernel = Kernel::new(Arc::new(TagRegistry::new()));
        let mut sched = Scheduler::new(kernel.clone(), 100, true);
        let mut pids = Vec::new();
        for (i, &(total, slice)) in works.iter().enumerate() {
            let pid = kernel.create_process(
                &format!("w{i}"),
                LabelPair::public(),
                CapSet::empty(),
                ResourceLimits { cpu_per_epoch: 30, ..ResourceLimits::unlimited() },
            );
            pids.push(pid);
            let mut left = total;
            sched.add(pid, Box::new(move |_k: &Kernel, _p: ProcessId| {
                if left == 0 {
                    return Step::Done;
                }
                let c = slice.min(left);
                left -= c;
                Step::Yield { cost: c }
            }));
        }
        let r = sched.run(1_000_000);
        for pid in pids {
            prop_assert!(r.finished_at.contains_key(&pid), "{pid} unfinished: {r:?}");
        }
    }
}
