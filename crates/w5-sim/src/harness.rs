//! The one seeded driver behind the kernel, store and net oracles.
//!
//! An oracle is an [`Oracle`] impl: how to build a world and one working set
//! per sequence (`setup`), one op of a sequence's schedule (`gen_op`,
//! `apply`), and what a run is compared on (`observe`). Everything else is
//! written here, once:
//!
//! * **Schedule.** A [`Spec`] names a seed, a sequence count, a length and
//!   a storm rate. Sequence `t` draws its ops from an RNG seeded from
//!   `(seed, t)` and rolls faults from an injector of its own, seeded from
//!   `(seed, t)` and arming the oracle's [`Oracle::SITES`]. Both streams
//!   are pure functions of the spec, whichever way the sequences run.
//! * **Isolation.** A run scopes a private [`Ledger`] and a lock-order
//!   recorder before setup, so setup events are part of its digest and
//!   every classed-lock acquisition it makes lands in its order graph.
//!   [`Mode::Threads`] gives each sequence a scoped OS thread that carries
//!   the ledger, the recorder and the sequence's injector (all three are
//!   thread-local); [`Mode::Serial`] runs the sequences one after another.
//! * **Gate.** Before a run returns, `crate::lockgate` checks its order
//!   graph and panics on any finding at or above `W5_LOCKDEP_DENY`.
//! * **Arms.** [`assert_arms`] runs a list of `(oracle, mode)` arms on one
//!   spec and requires every outcome and every per-sequence fault tally to
//!   equal the first arm's, and every serial arm's ledger digest to survive
//!   a replay.
//!
//! # Why an instance's schedules are interleaving-invariant
//!
//! Each instance arranges the same three things, so that real thread timing
//! cannot change what it observes:
//!
//! * **Ownership** — sequence `t` mutates only state it owns (its
//!   processes, its table, its app), so every verdict it sees is a function
//!   of its own op stream.
//! * **Per-sequence chaos** — the injector is the sequence's own, so the
//!   faults it sees are the same under threads, serially, and on the other
//!   arms.
//! * **Pre-created tags** — tags are allocated in single-threaded setup on a
//!   fresh registry per run, so raw tag ids line up across arms and labels
//!   compare by value.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Debug;
use std::sync::Arc;
use std::thread;
use w5_chaos::{ChaosReport, FaultPlan, Injector, Site};
use w5_obs::Ledger;
use w5_sync::lockdep;

/// One run's shape: a seed, a sequence count, a length and a storm rate.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Seeds every sequence's op stream and fault plan.
    pub seed: u64,
    /// Sequences; one OS thread each under [`Mode::Threads`].
    pub threads: usize,
    /// Ops each sequence runs.
    pub ops_per_thread: usize,
    /// Injection probability at the oracle's fault sites (0.0 = calm).
    pub fault_rate: f64,
}

impl Spec {
    /// Four sequences of `ops_per_thread` ops under a light (5 %) storm.
    pub fn new(seed: u64, ops_per_thread: usize) -> Spec {
        Spec { seed, threads: 4, ops_per_thread, fault_rate: 0.05 }
    }
}

/// How the sequences of one run are driven.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// One after another on the calling thread.
    Serial,
    /// One scoped OS thread per sequence.
    Threads,
}

/// What one arm's run produced.
#[derive(Clone, Debug)]
pub struct Run<T> {
    /// What the arms are compared on.
    pub outcome: T,
    /// Each sequence's fault tally, in sequence order.
    pub faults: Vec<ChaosReport>,
    /// What the run charged ([`Oracle::take_cost`]): compared directionally,
    /// never for equality.
    pub cost: u64,
    /// The private ledger's digest ([`Oracle::digest`]): a pure function of
    /// the spec for serial runs, timing-dependent under threads.
    pub digest: u64,
}

impl<T> Run<T> {
    /// Faults injected over all sequences.
    pub fn injected(&self) -> u64 {
        self.faults.iter().map(ChaosReport::total_injected).sum()
    }
}

/// One oracle: a world, a per-sequence op vocabulary, and what a run is
/// compared on. `Self` is the arm (which implementation is under test);
/// [`Oracle::setup`] builds its world inside the run's scopes.
pub trait Oracle: Debug {
    /// Names the harness in lock-order reports and failure messages.
    const NAME: &'static str;
    /// The fault sites every sequence's injector arms at `Spec::fault_rate`.
    const SITES: &'static [Site];
    /// One op of a sequence's schedule.
    type Op: Sync;
    /// One sequence's working set.
    type Seq: Send;
    /// What applying one op returns.
    type Step: Send;
    /// What every sequence shares: the kernel, the store, the platform.
    type World: Sync;
    /// What a run is compared on.
    type Outcome;

    /// Draw one op.
    fn gen_op(rng: &mut StdRng) -> Self::Op;

    /// Build the world and one working set per sequence, single-threaded and
    /// outside any injector.
    fn setup(&self, spec: &Spec) -> (Self::World, Vec<Self::Seq>);

    /// Apply one op of a sequence, under that sequence's injector.
    fn apply(world: &Self::World, seq: &mut Self::Seq, op: &Self::Op) -> Self::Step;

    /// Read the outcome once every sequence has finished, outside any
    /// injector. `steps[t]` holds sequence `t`'s steps in order, their cost
    /// already taken.
    fn observe(
        &self,
        world: Self::World,
        seqs: Vec<Self::Seq>,
        steps: Vec<Vec<Self::Step>>,
        ledger: &Ledger,
    ) -> Self::Outcome;

    /// Remove and return what one step charged. Nothing, unless overridden.
    fn take_cost(_step: &mut Self::Step) -> u64 {
        0
    }

    /// The run's ledger digest: every event, unless overridden.
    fn digest(ledger: &Ledger) -> u64 {
        ledger.digest()
    }

    /// A lock-free description of the world's state, stamped on each new
    /// order-graph edge. None, unless overridden.
    fn lock_context(_world: &Self::World) -> Option<Box<lockdep::ContextFn>> {
        None
    }
}

/// Run `oracle` on the spec's seeded schedule.
pub fn run<O: Oracle>(oracle: &O, spec: &Spec, mode: Mode) -> Run<O::Outcome> {
    let ops = (0..spec.threads as u64)
        .map(|t| {
            let mut rng =
                StdRng::seed_from_u64(spec.seed ^ (t + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            (0..spec.ops_per_thread).map(|_| O::gen_op(&mut rng)).collect()
        })
        .collect();
    run_ops(oracle, spec, ops, mode)
}

/// Run `oracle` on given op lists, one per sequence (`ops.len()` must be
/// `spec.threads`); the spec still seeds the injectors.
pub fn run_ops<O: Oracle>(oracle: &O, spec: &Spec, ops: Vec<Vec<O::Op>>, mode: Mode) -> Run<O::Outcome> {
    assert!(spec.threads >= 1, "need at least one sequence");
    assert_eq!(ops.len(), spec.threads, "one op list per sequence");
    let ledger = Arc::new(Ledger::new());
    let _obs = w5_obs::scoped(Arc::clone(&ledger));
    let recorder = Arc::new(lockdep::Recorder::new());
    let _lockdep = lockdep::scoped(Arc::clone(&recorder));

    let (world, mut seqs) = oracle.setup(spec);
    assert_eq!(seqs.len(), spec.threads, "one working set per sequence");
    if let Some(context) = O::lock_context(&world) {
        recorder.set_context_provider(context);
    }
    let injectors: Vec<Arc<Injector>> = (0..spec.threads as u64)
        .map(|t| {
            let plan = FaultPlan::new(spec.seed ^ (t + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93));
            Injector::new(O::SITES.iter().fold(plan, |plan, &site| plan.with(site, spec.fault_rate)))
        })
        .collect();

    let mut steps = drive(&mut seqs, &injectors, mode, &ledger, &recorder, |t, seq| {
        ops[t].iter().map(|op| O::apply(&world, seq, op)).collect::<Vec<_>>()
    });
    let cost = steps.iter_mut().flatten().map(O::take_cost).sum();
    let faults = injectors.iter().map(|i| i.report()).collect();
    let outcome = oracle.observe(world, seqs, steps, &ledger);

    recorder.note("harness", O::NAME);
    recorder.note("arm", &format!("{oracle:?} {mode:?}"));
    recorder.note("threads", &spec.threads.to_string());
    crate::lockgate::enforce(&recorder, O::NAME);
    Run { outcome, faults, cost, digest: O::digest(&ledger) }
}

/// Run every arm on `spec` and require each outcome and each fault tally to
/// equal the first arm's, and each serial arm's digest to equal a replay's.
/// Returns the runs, in arm order, for the oracle's own checks. Panics,
/// naming the arms, on the first difference.
pub fn assert_arms<O: Oracle>(spec: &Spec, arms: &[(O, Mode)]) -> Vec<Run<O::Outcome>>
where
    O::Outcome: PartialEq + Debug,
{
    let runs: Vec<_> = arms.iter().map(|(oracle, mode)| run(oracle, spec, *mode)).collect();
    let (first, oracle) = (&runs[0], &arms[0]);
    for ((arm, mode), r) in arms.iter().zip(&runs) {
        assert_eq!(first.outcome, r.outcome, "{}: {arm:?} {mode:?} diverged from {oracle:?}", O::NAME);
        assert_eq!(first.faults, r.faults, "{}: {arm:?} {mode:?} saw other faults than {oracle:?}", O::NAME);
        if *mode == Mode::Serial {
            let replay = run(arm, spec, Mode::Serial).digest;
            let name = O::NAME;
            assert_eq!(r.digest, replay, "{name}: {arm:?}'s serial ledger digest is not replay-deterministic");
        }
    }
    runs
}

/// Run `step(t, &mut seqs[t])` for every sequence, each under `injectors[t]`,
/// and return the results in sequence order. Under threads, each sequence's
/// thread also scopes the run's ledger and recorder.
fn drive<C: Send, R: Send>(
    seqs: &mut [C],
    injectors: &[Arc<Injector>],
    mode: Mode,
    ledger: &Arc<Ledger>,
    recorder: &Arc<lockdep::Recorder>,
    step: impl Fn(usize, &mut C) -> R + Sync,
) -> Vec<R> {
    let sequences = seqs.iter_mut().zip(injectors).enumerate();
    if mode == Mode::Serial {
        return sequences
            .map(|(t, (seq, injector))| {
                let _chaos = w5_chaos::with_injector(Arc::clone(injector));
                step(t, seq)
            })
            .collect();
    }
    let step = &step;
    thread::scope(|s| {
        let handles: Vec<_> = sequences
            .map(|(t, (seq, injector))| {
                let (ledger, recorder) = (Arc::clone(ledger), Arc::clone(recorder));
                s.spawn(move || {
                    let _obs = w5_obs::scoped(ledger);
                    let _lockdep = lockdep::scoped(recorder);
                    let _chaos = w5_chaos::with_injector(Arc::clone(injector));
                    step(t, seq)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("sequence thread panicked")).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use std::sync::atomic::{AtomicU64, Ordering};
    use w5_obs::{EventKind, ObsLabel};

    /// A toy oracle: each sequence sums its ops, an injected fault skips
    /// one, and every op is a ledger event. The variants break one of the
    /// harness's checks each.
    #[derive(Debug)]
    enum Tally {
        Honest,
        /// Adds one more per op than it should.
        Skewed,
        /// Ends every run with an event no replay repeats.
        Unreplayable,
    }

    static RUNS: AtomicU64 = AtomicU64::new(0);

    impl Oracle for Tally {
        const NAME: &'static str = "tally";
        const SITES: &'static [Site] = &[Site::SqlQuery];
        type Op = u64;
        type Seq = u64;
        type Step = (u64, u64);
        type World = u64;
        type Outcome = Vec<u64>;

        fn gen_op(rng: &mut StdRng) -> u64 {
            rng.gen_range(1..10)
        }

        fn setup(&self, spec: &Spec) -> (u64, Vec<u64>) {
            (matches!(self, Tally::Skewed).into(), vec![0; spec.threads])
        }

        fn apply(skew: &u64, sum: &mut u64, &op: &u64) -> (u64, u64) {
            if w5_chaos::inject(Site::SqlQuery).is_some() {
                return (*sum, 0);
            }
            w5_obs::record(&ObsLabel::empty(), EventKind::IpcRecv { pid: *sum, bytes: op });
            *sum += op + skew;
            (*sum, op)
        }

        fn observe(&self, _: u64, sums: Vec<u64>, steps: Vec<Vec<(u64, u64)>>, _: &Ledger) -> Vec<u64> {
            assert!(steps.iter().flatten().all(|&(_, cost)| cost == 0), "cost is taken before observe");
            if let Tally::Unreplayable = self {
                let run = RUNS.fetch_add(1, Ordering::Relaxed);
                w5_obs::record(&ObsLabel::empty(), EventKind::IpcRecv { pid: run, bytes: 0 });
            }
            sums
        }

        fn take_cost((_, cost): &mut (u64, u64)) -> u64 {
            std::mem::take(cost)
        }
    }

    const SPEC: Spec = Spec { seed: 7, threads: 3, ops_per_thread: 200, fault_rate: 0.2 };

    #[test]
    fn each_sequence_sees_one_schedule_and_one_fault_stream_in_both_modes() {
        let runs = assert_arms(&SPEC, &[(Tally::Honest, Mode::Serial), (Tally::Honest, Mode::Threads)]);
        let serial = &runs[0];
        assert!(serial.injected() > 0, "the storm must fire");
        assert_eq!(serial.cost, serial.outcome.iter().sum::<u64>(), "cost is what the steps charged");
        let other_seed = run(&Tally::Honest, &Spec { seed: 8, ..SPEC }, Mode::Serial);
        assert_ne!(serial.outcome, other_seed.outcome, "the seed drives the schedule");
    }

    #[test]
    #[should_panic(expected = "tally: Skewed Threads diverged from (Honest, Serial)")]
    fn an_arm_that_disagrees_is_named() {
        assert_arms(&SPEC, &[(Tally::Honest, Mode::Serial), (Tally::Skewed, Mode::Threads)]);
    }

    #[test]
    #[should_panic(expected = "tally: Unreplayable's serial ledger digest is not replay-deterministic")]
    fn a_serial_digest_that_does_not_replay_is_caught() {
        assert_arms(&SPEC, &[(Tally::Unreplayable, Mode::Serial)]);
    }
}
