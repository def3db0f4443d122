//! Deterministic cooperative scheduler.
//!
//! Drives a set of [`Task`]s round-robin over virtual time, refilling CPU
//! token buckets at epoch boundaries. This is the harness for the paper's
//! §3.5 resource-allocation experiment (E8): with containers enabled, a
//! spinning rogue application exhausts its own bucket and honest tasks keep
//! their latency; with containers disabled, the rogue starves everyone.
//!
//! Virtual time is measured in *ticks*; each task step reports its cost.
//! Nothing depends on the wall clock, so runs are exactly reproducible.

use crate::ids::ProcessId;
use crate::kernel::Kernel;
use crate::resource::ResourceKind;
use std::collections::BTreeMap;

/// What a task did during one step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// Performed `cost` ticks of work and wants to run again.
    Yield {
        /// CPU ticks consumed by this step (≥ 1 is charged as ≥ 1).
        cost: u64,
    },
    /// Waiting for an external event this scheduler cannot see; skip it
    /// this round (it stays schedulable next round).
    Blocked,
    /// Finished; remove from the run queue.
    Done,
}

/// A schedulable unit of application work.
pub trait Task {
    /// Execute one bounded slice of work.
    fn step(&mut self, kernel: &Kernel, pid: ProcessId) -> Step;
}

impl<F: FnMut(&Kernel, ProcessId) -> Step> Task for F {
    fn step(&mut self, kernel: &Kernel, pid: ProcessId) -> Step {
        self(kernel, pid)
    }
}

/// Result of a scheduler run.
#[derive(Clone, Debug, Default)]
pub struct SchedulerReport {
    /// Total virtual ticks elapsed.
    pub total_ticks: u64,
    /// Epochs completed.
    pub epochs: u64,
    /// Virtual tick at which each task finished (absent = never finished).
    pub finished_at: BTreeMap<ProcessId, u64>,
    /// Ticks each task actually executed.
    pub executed: BTreeMap<ProcessId, u64>,
    /// Times a task was denied CPU by its container.
    pub throttled: BTreeMap<ProcessId, u64>,
}

struct Entry {
    pid: ProcessId,
    task: Box<dyn Task>,
    done: bool,
}

/// A deterministic epoch clock for code that charges CPU token buckets
/// *outside* a [`Scheduler`] run — e.g. the HTTP request pipeline, whose
/// admission stage charges each admitted request against its principal's
/// [`crate::resource::ResourceContainer`]. Virtual time there is counted
/// in *admitted requests*, not ticks: every `period` ticks of the pacer,
/// the caller is told to run [`Kernel::refill_epoch`]. Nothing touches
/// the wall clock, so boundary throttling replays exactly like the
/// scheduler's own epochs.
#[derive(Debug)]
pub struct EpochPacer {
    period: u64,
    count: std::sync::atomic::AtomicU64,
}

impl EpochPacer {
    /// A pacer that completes an epoch every `period` ticks. A period of
    /// zero never completes an epoch (token buckets are then cumulative
    /// over the process lifetime).
    pub fn new(period: u64) -> EpochPacer {
        EpochPacer { period, count: std::sync::atomic::AtomicU64::new(0) }
    }

    /// Count one tick; true when this tick closes an epoch and the caller
    /// should refill the kernel's token buckets.
    pub fn tick(&self) -> bool {
        if self.period == 0 {
            return false;
        }
        let n = self.count.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
        n.is_multiple_of(self.period)
    }

    /// Ticks counted so far.
    pub fn ticks(&self) -> u64 {
        self.count.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// The configured epoch length (0 = epochs never complete).
    pub fn period(&self) -> u64 {
        self.period
    }
}

/// Round-robin scheduler over kernel processes.
pub struct Scheduler {
    kernel: Kernel,
    entries: Vec<Entry>,
    /// Epoch length in virtual ticks.
    epoch_ticks: u64,
    /// When false, CPU charges are skipped entirely — the "no resource
    /// containers" baseline arm.
    enforce: bool,
}

impl Scheduler {
    /// A scheduler over the given kernel. `epoch_ticks` is the virtual-time
    /// length of one token-bucket epoch.
    pub fn new(kernel: Kernel, epoch_ticks: u64, enforce: bool) -> Scheduler {
        assert!(epoch_ticks > 0, "epoch must be positive");
        Scheduler { kernel, entries: Vec::new(), epoch_ticks, enforce }
    }

    /// Add a task bound to an existing kernel process.
    pub fn add(&mut self, pid: ProcessId, task: Box<dyn Task>) {
        self.entries.push(Entry { pid, task, done: false });
    }

    /// Number of unfinished tasks.
    pub fn pending(&self) -> usize {
        self.entries.iter().filter(|e| !e.done).count()
    }

    /// Run until every task is done or `max_ticks` of virtual time elapse.
    pub fn run(&mut self, max_ticks: u64) -> SchedulerReport {
        let mut report = SchedulerReport::default();
        let mut now: u64 = 0;
        let mut next_epoch = self.epoch_ticks;
        self.kernel.refill_epoch();
        report.epochs = 1;

        while now < max_ticks {
            if self.entries.iter().all(|e| e.done) {
                break;
            }
            let mut progressed = false;
            for entry in &mut self.entries {
                if entry.done || now >= max_ticks {
                    continue;
                }
                // Container gate: a task with an empty bucket skips its turn.
                if self.enforce {
                    match self.kernel.cpu_tokens(entry.pid) {
                        Ok(0) => {
                            *report.throttled.entry(entry.pid).or_default() += 1;
                            continue;
                        }
                        Ok(_) => {}
                        Err(_) => {
                            entry.done = true;
                            continue;
                        }
                    }
                }
                match entry.task.step(&self.kernel, entry.pid) {
                    Step::Yield { cost } => {
                        let mut cost = cost.max(1);
                        // Preemption storm: an injected fault cuts the slice
                        // to a single tick, as a hostile timer interrupt
                        // would. Work is not lost — the task just reports
                        // less progress per turn.
                        if w5_chaos::inject(w5_chaos::Site::SchedPreempt).is_some() {
                            cost = 1;
                        }
                        if self.enforce {
                            // Preemption: the slice is cut off at the
                            // container's remaining budget, exactly as a
                            // timer interrupt would cut off a real process.
                            let tokens = self.kernel.cpu_tokens(entry.pid).unwrap_or(0);
                            cost = cost.min(tokens.max(1));
                            let _ = self.kernel.charge(entry.pid, ResourceKind::Cpu, cost);
                        }
                        now += cost;
                        *report.executed.entry(entry.pid).or_default() += cost;
                        // Quantum accounting is labeled with the task's
                        // current secrecy: CPU-use patterns of a tainted
                        // process are themselves tainted (§3.5).
                        let labels = self.kernel.labels(entry.pid).unwrap_or_default();
                        w5_obs::record(
                            labels.secrecy.to_obs(),
                            w5_obs::EventKind::ScheduleQuantum { pid: entry.pid.0, ticks: cost },
                        );
                        progressed = true;
                    }
                    Step::Blocked => {}
                    Step::Done => {
                        entry.done = true;
                        report.finished_at.insert(entry.pid, now);
                        progressed = true;
                    }
                }
                while now >= next_epoch {
                    self.kernel.refill_epoch();
                    next_epoch += self.epoch_ticks;
                    report.epochs += 1;
                }
            }
            if !progressed {
                // Every runnable task is throttled until the next epoch:
                // advance virtual time to the refill point.
                if self.entries.iter().all(|e| e.done) {
                    break;
                }
                now = next_epoch.min(max_ticks);
                while now >= next_epoch && now < max_ticks {
                    next_epoch += self.epoch_ticks;
                }
                self.kernel.refill_epoch();
                next_epoch = next_epoch.max(now + self.epoch_ticks);
                report.epochs += 1;
            }
        }
        report.total_ticks = now;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::ResourceLimits;
    use std::sync::Arc;
    use w5_difc::{CapSet, LabelPair, TagRegistry};

    fn kernel() -> Kernel {
        Kernel::new(Arc::new(TagRegistry::new()))
    }

    /// A task that does `total` ticks of work in `slice`-tick steps.
    fn worker(total: u64, slice: u64) -> impl FnMut(&Kernel, ProcessId) -> Step {
        let mut left = total;
        move |_k, _pid| {
            if left == 0 {
                return Step::Done;
            }
            let c = slice.min(left);
            left -= c;
            Step::Yield { cost: c }
        }
    }

    #[test]
    fn single_task_runs_to_completion() {
        let k = kernel();
        let pid = k.create_process("w", LabelPair::public(), CapSet::empty(), ResourceLimits::unlimited());
        let mut s = Scheduler::new(k, 100, true);
        s.add(pid, Box::new(worker(50, 10)));
        let r = s.run(10_000);
        assert_eq!(r.executed[&pid], 50);
        assert!(r.finished_at.contains_key(&pid));
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn round_robin_interleaves_fairly() {
        let k = kernel();
        let a = k.create_process("a", LabelPair::public(), CapSet::empty(), ResourceLimits::unlimited());
        let b = k.create_process("b", LabelPair::public(), CapSet::empty(), ResourceLimits::unlimited());
        let mut s = Scheduler::new(k, 1_000, true);
        s.add(a, Box::new(worker(100, 10)));
        s.add(b, Box::new(worker(100, 10)));
        let r = s.run(10_000);
        // Both finish, and neither finishes before the other has run at all.
        assert_eq!(r.executed[&a], 100);
        assert_eq!(r.executed[&b], 100);
        let fa = r.finished_at[&a];
        let fb = r.finished_at[&b];
        assert!((fa as i64 - fb as i64).abs() <= 10, "fa={fa} fb={fb}");
    }

    #[test]
    fn containers_throttle_a_spinner() {
        let k = kernel();
        // Rogue gets 10 ticks/epoch; honest unlimited.
        let rogue = k.create_process(
            "rogue",
            LabelPair::public(),
            CapSet::empty(),
            ResourceLimits { cpu_per_epoch: 10, ..ResourceLimits::unlimited() },
        );
        let honest = k.create_process(
            "honest",
            LabelPair::public(),
            CapSet::empty(),
            ResourceLimits { cpu_per_epoch: 100, ..ResourceLimits::unlimited() },
        );
        let mut s = Scheduler::new(k, 100, true);
        s.add(rogue, Box::new(worker(1_000_000, 10))); // effectively infinite spin
        s.add(honest, Box::new(worker(200, 10)));
        let r = s.run(100_000);
        assert!(r.finished_at.contains_key(&honest), "honest task must finish");
        // The rogue must have been throttled.
        assert!(r.throttled.get(&rogue).copied().unwrap_or(0) > 0);
        // The honest task's share of executed ticks must dominate the rogue's
        // within the window it was running.
        let honest_done = r.finished_at[&honest];
        assert!(
            honest_done <= 600,
            "honest latency {honest_done} should be bounded under enforcement"
        );
    }

    #[test]
    fn without_containers_rogue_starves_honest() {
        let k = kernel();
        let rogue = k.create_process("rogue", LabelPair::public(), CapSet::empty(), ResourceLimits::unlimited());
        let honest = k.create_process("honest", LabelPair::public(), CapSet::empty(), ResourceLimits::unlimited());
        let mut s = Scheduler::new(k, 100, false);
        // The rogue takes huge slices; round-robin still alternates but each
        // rogue turn burns 1000 ticks to the honest task's 10.
        s.add(rogue, Box::new(worker(u64::MAX / 2, 1_000)));
        s.add(honest, Box::new(worker(200, 10)));
        let r = s.run(50_000);
        let honest_done = r.finished_at.get(&honest).copied().unwrap_or(u64::MAX);
        // Latency is far worse than the enforced case (each of the ~20
        // honest slices pays a 1000-tick rogue tax).
        assert!(honest_done > 15_000, "honest latency without containers: {honest_done}");
    }

    #[test]
    fn blocked_tasks_do_not_stall_the_run() {
        let k = kernel();
        let a = k.create_process("a", LabelPair::public(), CapSet::empty(), ResourceLimits::unlimited());
        let b = k.create_process("b", LabelPair::public(), CapSet::empty(), ResourceLimits::unlimited());
        let mut s = Scheduler::new(k, 100, true);
        s.add(a, Box::new(|_k: &Kernel, _p: ProcessId| Step::Blocked));
        s.add(b, Box::new(worker(30, 10)));
        let r = s.run(1_000);
        assert!(r.finished_at.contains_key(&b));
        assert!(!r.finished_at.contains_key(&a));
    }

    #[test]
    fn max_ticks_bounds_the_run() {
        let k = kernel();
        let a = k.create_process("a", LabelPair::public(), CapSet::empty(), ResourceLimits::unlimited());
        let mut s = Scheduler::new(k, 100, true);
        s.add(a, Box::new(worker(u64::MAX / 2, 100)));
        let r = s.run(5_000);
        assert!(r.total_ticks >= 5_000 && r.total_ticks < 5_200);
    }
}
