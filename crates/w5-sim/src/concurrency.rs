//! Serial/concurrent oracle for the kernel, as an instance of
//! [`crate::harness`].
//!
//! [`w5_kernel::Kernel`] is called from many connection threads at once.
//! This oracle checks that threads change nothing an observer can see: the
//! same seeded schedule runs serially and under real OS-thread
//! interleavings, and the two must agree on everything a syscall client or
//! an auditor could see — per-process labels and capability bags, launch
//! and read tallies, live processes and obs-ledger aggregates.
//!
//! The schedule is made of the calls a request makes: launch, charge,
//! read taint, exit and reap. Beyond the harness's ownership rule (thread
//! `t` taints only its own processes), the cross-thread traffic is the
//! launch cycle every `Platform::invoke` makes: create an app process,
//! charge it, exit it and reap it. Every thread's launches allocate pids
//! from the one counter and insert into and remove from the one process
//! table, so the table lock sees the launch path's own contention; a
//! launched process is the launching thread's alone, so its quota verdict
//! and its labels are fixed before the threads start. Each thread also
//! reads read-protected data with processes that hold its `t+` (one of
//! four) and processes that do not, so the schedule has refusals as well
//! as raises. Process *ids* are racy, which is why state is keyed by
//! process *name*.
//!
//! The kernel volunteers no fault site, so the oracle arms none. With one
//! thread at a time the event stream itself is deterministic, so a serial
//! run's digest is a pure function of the spec — `tests/concurrency.rs`
//! pins it to golden values.

use crate::harness::{self, Mode, Oracle, Run, Spec};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeMap;
use std::sync::Arc;
use w5_chaos::Site;
use w5_difc::{CapSet, Label, LabelPair, Privilege, Tag, TagKind, TagRegistry};
use w5_kernel::{Kernel, ProcessId, ResourceKind, ResourceLimits};
use w5_obs::Ledger;

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
}

/// What one thread's calls came to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct Tally {
    /// Processes created, charged, exited and reaped.
    pub launched: u64,
    /// Launches whose CPU charge the quota refused.
    pub over_quota: u64,
    /// Launches that ended tainted.
    pub tainted: u64,
    /// Reads of read-protected data refused to a process without `t+`.
    pub reads_refused: u64,
}

/// The observable outcome of one run. Both arms replaying the same
/// [`Spec`] must compare equal, whatever the interleaving.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct ConcOutcome {
    /// Final state of every long-lived process, by name.
    pub procs: BTreeMap<String, ProcState>,
    /// Each thread's tally, in thread order.
    pub tallies: Vec<Tally>,
    /// Live processes at the end: launches leave none behind.
    pub live_processes: usize,
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
    /// thread's export tag if `taint`, read its labels, exit and reap it.
    Launch { ticks: u64, taint: bool },
    /// Taint an own process with the thread's export tag (`t+` is global
    /// for `ExportProtect`).
    Taint { who: usize },
    /// Taint an own process with the thread's read-protect tag: allowed
    /// to the process holding its `t+`, refused to the others.
    ReadLocked { who: usize },
}

/// One thread's working set: its two tags, its own (name, pid) process
/// list, and its tally.
pub struct ThreadCtx {
    t: usize,
    export: Tag,
    locked: Tag,
    procs: Vec<(String, ProcessId)>,
    tally: Tally,
}

impl ThreadCtx {
    fn proc(&self, i: usize) -> ProcessId {
        self.procs[i % self.procs.len()].1
    }
}

fn data(tag: Tag) -> LabelPair {
    LabelPair::new(Label::singleton(tag), Label::empty())
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
            40..=74 => Op::Taint { who: rng.gen_range(0..64) },
            _ => Op::ReadLocked { who: rng.gen_range(0..64) },
        }
    }

    /// Per-thread tags and processes, in one order on every arm, so pid
    /// streams and registry tag ids start out aligned. The registry is the
    /// kernel's, so it knows the export tags' kind.
    fn setup(&self, spec: &Spec) -> (Kernel, Vec<ThreadCtx>) {
        let registry = Arc::new(TagRegistry::new());
        let k = Kernel::new(Arc::clone(&registry));
        let ctxs = (0..spec.threads)
            .map(|t| {
                let (export, export_caps) =
                    registry.create_tag(TagKind::ExportProtect, &format!("conc:t{t}"));
                let (locked, locked_caps) =
                    registry.create_tag(TagKind::ReadProtect, &format!("conc:r{t}"));
                // p0 owns the thread's tags; its siblings hold nothing.
                let owner = export_caps.union(&locked_caps);
                let procs = (0..PROCS_PER_THREAD)
                    .map(|i| {
                        let name = format!("t{t}.p{i}");
                        let caps = if i == 0 { owner.clone() } else { CapSet::empty() };
                        let pid = k.create_process(
                            &name,
                            LabelPair::public(),
                            caps,
                            ResourceLimits::unlimited(),
                        );
                        (name, pid)
                    })
                    .collect();
                ThreadCtx { t, export, locked, procs, tally: Tally::default() }
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
                    ctx.tally.over_quota += 1;
                }
                if taint {
                    let _ = k.taint_for_read(pid, &data(ctx.export));
                }
                if k.labels(pid).is_ok_and(|l| !l.secrecy.is_empty()) {
                    ctx.tally.tainted += 1;
                }
                let _ = k.exit(pid);
                let _ = k.reap(pid);
                ctx.tally.launched += 1;
            }
            Op::Taint { who } => {
                let _ = k.taint_for_read(ctx.proc(who), &data(ctx.export));
            }
            Op::ReadLocked { who } => {
                if k.taint_for_read(ctx.proc(who), &data(ctx.locked)).is_err() {
                    ctx.tally.reads_refused += 1;
                }
            }
        }
    }

    fn observe(&self, k: Kernel, ctxs: Vec<ThreadCtx>, _: Vec<Vec<()>>, ledger: &Ledger) -> ConcOutcome {
        let tallies = ctxs.iter().map(|ctx| ctx.tally).collect();
        let procs = ctxs
            .into_iter()
            .flat_map(|ctx| ctx.procs)
            .map(|(name, pid)| {
                let (labels, caps) = k.subject(pid).expect("long-lived processes are never reaped");
                let mut bag: Vec<(u64, bool)> =
                    caps.iter().map(|c| (c.tag.raw(), c.privilege == Privilege::Minus)).collect();
                bag.sort_unstable();
                let state = ProcState {
                    secrecy: labels.secrecy.iter().map(Tag::raw).collect(),
                    integrity: labels.integrity.iter().map(Tag::raw).collect(),
                    caps: bag,
                };
                (name, state)
            })
            .collect();
        let agg = ledger.aggregate();
        ConcOutcome {
            procs,
            tallies,
            live_processes: k.live_processes(),
            ledger_events: agg.events,
            ledger_denied: agg.denied,
        }
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

    // The kernel arms no fault site, so both specs run at `fault_rate: 0.0`;
    // the first test keeps its historical name from when there were four arms.
    #[test]
    fn four_arms_agree_on_default_spec() {
        assert_differential(&Spec { seed: 2007, threads: 4, ops_per_thread: 150, fault_rate: 0.0 });
    }

    #[test]
    fn calm_run_agrees_without_faults() {
        assert_differential(&Spec { seed: 9, threads: 2, ops_per_thread: 120, fault_rate: 0.0 });
    }

    #[test]
    fn workload_actually_exercises_flow_machinery() {
        let run = run(&KernelOracle, &Spec::new(20070824, 400), Mode::Serial);
        let out = &run.outcome;
        assert!(out.procs.values().any(|p| !p.secrecy.is_empty()), "some process must end tainted");
        for l in &out.tallies {
            assert!(l.over_quota > 0 && l.over_quota < l.launched, "some, not all, over quota: {l:?}");
            assert!(l.tainted > 0 && l.tainted < l.launched, "some, not all, tainted: {l:?}");
            assert!(l.reads_refused > 0, "a read without t+ must be refused: {l:?}");
        }
        // The owner of each thread's read-protect tag read it; nobody else.
        for (name, p) in &out.procs {
            assert_eq!(p.secrecy.len() == 2, name.ends_with(".p0"), "{name}: {p:?}");
        }
        assert_eq!(out.live_processes, 4 * PROCS_PER_THREAD, "every launch is reaped");
    }
}
