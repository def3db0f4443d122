//! Serial/concurrent oracle for the kernel, as an instance of
//! [`crate::harness`].
//!
//! [`w5_kernel::Kernel`] is called from many connection threads at once.
//! This oracle checks that threads change nothing an observer can see: the
//! same seeded schedule runs serially and under real OS-thread
//! interleavings, and the two must agree on everything a syscall client or
//! an auditor could see — per-process labels, capability bags, lifecycle
//! states, launch tallies, flow-decision counters and obs-ledger
//! aggregates.
//!
//! Beyond the harness's ownership rule (thread `t` taints, changes labels
//! and edits capabilities only on its own processes), the cross-thread
//! traffic is the launch cycle every `Platform::invoke` makes: create an
//! app process, charge it, exit it and reap it. Every thread's launches
//! allocate pids from the one counter and insert into and remove from the
//! one process table, so the table lock sees the launch path's own
//! contention; a launched process is the launching thread's alone, so its
//! quota verdict and its labels are fixed before the threads start.
//! Process *ids* are racy, which is why state is keyed by process *name*.
//!
//! The kernel volunteers no fault site, so a stormy spec fires nothing
//! here. With one thread at a time the event stream itself is
//! deterministic, so a serial run's digest is a pure function of the spec
//! — `tests/concurrency.rs` pins it to golden values.

use crate::harness::{self, Mode, Oracle, Run, Spec};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeMap;
use std::sync::Arc;
use w5_chaos::Site;
use w5_difc::{CapSet, Capability, Label, LabelPair, Privilege, Tag, TagKind, TagRegistry};
use w5_kernel::{Kernel, KernelStats, ProcessId, ResourceKind, ResourceLimits};
use w5_obs::Ledger;
use w5_sync::lockdep;

/// Long-lived processes per thread; op indices are taken modulo this.
const PROCS_PER_THREAD: usize = 4;

/// The CPU quota of a launched process: a launch charges up to twice
/// this, so about half of them are refused.
const LAUNCH_CPU: u64 = 50;

/// Everything observable about one process at the end of a run, keyed by
/// audit name (pids are interleaving-dependent; names are not).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProcState {
    /// Sorted raw secrecy tags.
    pub secrecy: Vec<u64>,
    /// Sorted raw integrity tags.
    pub integrity: Vec<u64>,
    /// Sorted `(tag, is_minus)` private capability bag.
    pub caps: Vec<(u64, bool)>,
    /// Lifecycle state, `Debug`-rendered.
    pub state: String,
}

/// What one thread's launches came to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct Launches {
    /// Processes created, charged, exited and reaped.
    pub launched: u64,
    /// Launches whose CPU charge the quota refused.
    pub over_quota: u64,
    /// Launches that ended tainted.
    pub tainted: u64,
}

/// The observable outcome of one run. Both arms replaying the same
/// [`Spec`] must compare equal, whatever the interleaving.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct ConcOutcome {
    /// Final state of every long-lived process, by name.
    pub procs: BTreeMap<String, ProcState>,
    /// Each thread's launch tally, in thread order.
    pub launches: Vec<Launches>,
    /// Live processes at the end: launches leave none behind.
    pub live_processes: usize,
    /// Kernel flow-decision counters.
    pub stats: KernelStats,
    /// Obs-ledger events recorded per layer (exact atomics).
    pub ledger_events: BTreeMap<String, u64>,
    /// Obs-ledger denials per layer (exact atomics).
    pub ledger_denied: BTreeMap<String, u64>,
}

/// One step of a thread's schedule. All indices are taken modulo the
/// thread's process list.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    /// The launch cycle of `Platform::invoke`: create a public process
    /// with a [`LAUNCH_CPU`] quota, charge it `ticks`, taint it with the
    /// thread's tag if `taint`, read its labels, exit and reap it.
    Launch { ticks: u64, taint: bool },
    /// Taint an own process with the thread's tag (`t+` is global for
    /// `ExportProtect`).
    Taint { who: usize },
    /// Attempt declassification back to public; succeeds only while the
    /// process holds the thread's `t-`.
    Declass { who: usize },
    /// Shed the thread tag's `t-` from an own process.
    DropMinus { who: usize },
    /// Grant the thread tag's `t-` to an own process.
    GrantMinus { who: usize },
}

/// One thread's working set: its tag, its own (name, pid) process list,
/// and its launch tally.
pub struct ThreadCtx {
    t: usize,
    tag: Tag,
    procs: Vec<(String, ProcessId)>,
    launches: Launches,
}

impl ThreadCtx {
    fn proc(&self, i: usize) -> ProcessId {
        self.procs[i % self.procs.len()].1
    }

    fn minus(&self) -> CapSet {
        CapSet::from_caps([Capability::minus(self.tag)])
    }

    fn tag_data(&self) -> LabelPair {
        LabelPair::new(Label::singleton(self.tag), Label::empty())
    }
}

/// The kernel oracle. It has one implementation under test; the arms differ
/// only in [`Mode`].
#[derive(Clone, Copy, Debug)]
pub struct KernelOracle;

impl Oracle for KernelOracle {
    const NAME: &'static str = "concurrency";
    const SITES: &'static [Site] = &[];
    type Op = Op;
    type Seq = ThreadCtx;
    type Step = ();
    type World = Kernel;
    type Outcome = ConcOutcome;

    fn gen_op(rng: &mut StdRng) -> Op {
        match rng.gen_range(0..100u32) {
            0..=39 => {
                Op::Launch { ticks: rng.gen_range(0..2 * LAUNCH_CPU), taint: rng.gen_bool(0.5) }
            }
            40..=59 => Op::Taint { who: rng.gen_range(0..64) },
            60..=74 => Op::Declass { who: rng.gen_range(0..64) },
            75..=86 => Op::DropMinus { who: rng.gen_range(0..64) },
            _ => Op::GrantMinus { who: rng.gen_range(0..64) },
        }
    }

    /// Per-thread processes and per-thread tags, in one order on every arm,
    /// so pid streams and registry tag ids start out aligned.
    fn setup(&self, spec: &Spec) -> (Kernel, Vec<ThreadCtx>) {
        let k = Kernel::new(Arc::new(TagRegistry::new()));
        let ctxs = (0..spec.threads)
            .map(|t| {
                let procs: Vec<(String, ProcessId)> = (0..PROCS_PER_THREAD)
                    .map(|i| {
                        let name = format!("t{t}.p{i}");
                        let pid = k.create_process(
                            &name,
                            LabelPair::public(),
                            CapSet::empty(),
                            ResourceLimits::unlimited(),
                        );
                        (name, pid)
                    })
                    .collect();
                // p0 creates the thread's tag and so holds its `t-`; siblings
                // start without it (only Taint/Grant/Drop ops move it later).
                let tag = k
                    .create_tag(procs[0].1, TagKind::ExportProtect, &format!("conc:t{t}"))
                    .expect("fresh process can create a tag");
                ThreadCtx { t, tag, procs, launches: Launches::default() }
            })
            .collect();
        (k, ctxs)
    }

    fn apply(k: &Kernel, ctx: &mut ThreadCtx, op: &Op) {
        match *op {
            Op::Launch { ticks, taint } => {
                let limits =
                    ResourceLimits { cpu_per_epoch: LAUNCH_CPU, ..ResourceLimits::sandbox_default() };
                let name = format!("t{}.app", ctx.t);
                let pid = k.create_process(&name, LabelPair::public(), CapSet::empty(), limits);
                if k.charge(pid, ResourceKind::Cpu, ticks).is_err() {
                    ctx.launches.over_quota += 1;
                }
                if taint {
                    let _ = k.taint_for_read(pid, &ctx.tag_data());
                }
                if k.labels(pid).is_ok_and(|l| !l.secrecy.is_empty()) {
                    ctx.launches.tainted += 1;
                }
                let _ = k.exit(pid);
                let _ = k.reap(pid);
                ctx.launches.launched += 1;
            }
            Op::Taint { who } => {
                let _ = k.taint_for_read(ctx.proc(who), &ctx.tag_data());
            }
            Op::Declass { who } => {
                let _ = k.change_labels(ctx.proc(who), LabelPair::public());
            }
            Op::DropMinus { who } => {
                let _ = k.drop_caps(ctx.proc(who), &ctx.minus());
            }
            Op::GrantMinus { who } => {
                let _ = k.grant_caps(ctx.proc(who), &ctx.minus());
            }
        }
    }

    fn observe(&self, k: Kernel, ctxs: Vec<ThreadCtx>, _: Vec<Vec<()>>, ledger: &Ledger) -> ConcOutcome {
        let launches = ctxs.iter().map(|ctx| ctx.launches).collect();
        let procs = ctxs
            .into_iter()
            .flat_map(|ctx| ctx.procs)
            .map(|(name, pid)| {
                let info = k.process_info(pid).expect("long-lived processes are never reaped");
                let caps = k.caps(pid).expect("long-lived processes are never reaped");
                let mut bag: Vec<(u64, bool)> =
                    caps.iter().map(|c| (c.tag.raw(), c.privilege == Privilege::Minus)).collect();
                bag.sort_unstable();
                let state = ProcState {
                    secrecy: info.labels.secrecy.iter().map(Tag::raw).collect(),
                    integrity: info.labels.integrity.iter().map(Tag::raw).collect(),
                    caps: bag,
                    state: format!("{:?}", info.state),
                };
                (name, state)
            })
            .collect();
        let agg = ledger.aggregate();
        ConcOutcome {
            procs,
            launches,
            live_processes: k.live_processes(),
            stats: k.stats(),
            ledger_events: agg.events,
            ledger_denied: agg.denied,
        }
    }

    /// The kernel's relaxed-atomic counters: lock-free, as a context
    /// provider must be, so it can run mid-acquisition.
    fn lock_context(k: &Kernel) -> Option<Box<lockdep::ContextFn>> {
        let k = k.clone();
        Some(Box::new(move || serde_json::to_string(&k.stats()).unwrap_or_default()))
    }
}

/// The differential check used by tests and CI: serial ≡ threads (and the
/// serial digest replays). Returns the two runs, serial first.
pub fn assert_differential(spec: &Spec) -> Vec<Run<ConcOutcome>> {
    harness::assert_arms(spec, &[(KernelOracle, Mode::Serial), (KernelOracle, Mode::Threads)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::run;

    #[test]
    fn four_arms_agree_on_default_spec() {
        assert_differential(&Spec { seed: 2007, threads: 4, ops_per_thread: 150, fault_rate: 0.05 });
    }

    #[test]
    fn calm_run_agrees_without_faults() {
        let runs = assert_differential(&Spec { seed: 9, threads: 2, ops_per_thread: 120, fault_rate: 0.0 });
        assert_eq!(runs[0].injected(), 0);
    }

    #[test]
    fn workload_actually_exercises_flow_machinery() {
        let run = run(&KernelOracle, &Spec::new(20070824, 400), Mode::Serial);
        let out = &run.outcome;
        assert!(out.stats.label_changes_denied > 0, "declass without t- must be denied");
        assert!(out.procs.values().any(|p| !p.secrecy.is_empty()), "some process must end tainted");
        for l in &out.launches {
            assert!(l.over_quota > 0 && l.over_quota < l.launched, "some, not all, over quota: {l:?}");
            assert!(l.tainted > 0 && l.tainted < l.launched, "some, not all, tainted: {l:?}");
        }
        assert_eq!(out.live_processes, 4 * PROCS_PER_THREAD, "every launch is reaped");
    }
}
