//! Serial/concurrent oracle for the kernel.
//!
//! [`w5_kernel::Kernel`] is called from many connection threads at once.
//! This module checks that threads change nothing an observer can see:
//! replay the *same seeded operation schedule* once serially and once
//! under real OS-thread interleavings, and compare everything a syscall
//! client or an auditor could see — per-process labels, capability bags,
//! mailbox depths, lifecycle states, flow-decision counters, obs-ledger
//! aggregates, and per-thread fault-injection reports.
//!
//! # Why the schedules are interleaving-invariant
//!
//! A differential test is only as good as its oracle, and a concurrent
//! oracle is only usable if the expected outcome does not depend on
//! which interleaving the scheduler happened to pick. The generated
//! schedules guarantee that by construction:
//!
//! * **Ownership** — thread `t` performs label changes, taints,
//!   capability edits, receives and spawns *only* on its own processes.
//!   Every per-process observable is therefore a pure function of one
//!   thread's deterministic op sequence.
//! * **Hubs** — the only cross-thread traffic is sends to per-thread
//!   "hub" processes whose labels never change (public, never tainted,
//!   never receive-drained). A send verdict depends on the sender's
//!   labels (own-thread-deterministic) and the hub's (constant), so
//!   every delivery/drop verdict — and thus every counter — is fixed
//!   before the threads even start. Only the *order* of messages in a
//!   hub mailbox is timing-dependent, so the oracle compares mailbox
//!   depths, not contents.
//! * **Per-thread chaos** — each thread carries its own
//!   [`w5_chaos::Injector`] (injector scopes are thread-local), so the
//!   fault stream each op sequence experiences is a pure function of
//!   `(seed, thread)` — identical between the concurrent run and the
//!   serial replay. Both are driven by `crate::drive`, which all three
//!   oracles share.
//! * **Pre-created tags** — all tags are created in single-threaded
//!   setup, so the shared [`w5_difc::TagRegistry`] allocates identical
//!   tag ids in both arms.
//!
//! Process *ids* are still racy (threads interleave allocations), which
//! is why the oracle keys state by process *name* and maps parent links
//! back to names.
//!
//! Serial replays additionally expose the run's private
//! [`w5_obs::Ledger::digest`]: with one thread the event stream itself
//! is deterministic, so the digest is a pure function of the spec —
//! `tests/concurrency.rs` pins it to golden values.

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::collections::HashMap;
use std::sync::Arc;
use w5_difc::{CapSet, Capability, Label, LabelPair, Privilege, Tag, TagKind, TagRegistry};
use w5_kernel::{Kernel, KernelStats, ProcessId, ResourceLimits, SpawnSpec};
use w5_obs::Ledger;
use w5_sync::lockdep;

/// Per-thread process count at setup; op indices are taken modulo the
/// live list, which grows as the thread spawns children.
const PROCS_PER_THREAD: usize = 4;

/// One oracle run: a schedule seed, a thread count, a length and a storm
/// rate for the kernel fault sites.
#[derive(Clone, Copy, Debug)]
pub struct ConcSpec {
    /// Seeds every thread's op stream and fault plan.
    pub seed: u64,
    /// Worker threads (the paper's "many users at once"); 2–8 in tests.
    pub threads: usize,
    /// Ops each thread executes.
    pub ops_per_thread: usize,
    /// Injection probability for `KernelSend`/`KernelSpawn` (0.0 = calm).
    pub fault_rate: f64,
}

impl ConcSpec {
    /// A moderate default: 4 threads, 400 ops each, a light fault storm.
    pub fn new(seed: u64) -> ConcSpec {
        ConcSpec { seed, threads: 4, ops_per_thread: 400, fault_rate: 0.05 }
    }
}

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
    /// Queued messages.
    pub mailbox_len: usize,
    /// Parent's audit name, if spawned.
    pub parent: Option<String>,
}

/// The full observable outcome of one run. Both arms replaying the same
/// [`ConcSpec`] must compare equal, whatever the interleaving.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct ConcOutcome {
    /// Final state of every process, by name.
    pub procs: BTreeMap<String, ProcState>,
    /// Kernel flow-decision counters.
    pub stats: KernelStats,
    /// Obs-ledger events recorded per layer (exact atomics).
    pub ledger_events: BTreeMap<String, u64>,
    /// Obs-ledger denials per layer (exact atomics).
    pub ledger_denied: BTreeMap<String, u64>,
    /// Per-thread fault-injection tallies, in thread order.
    pub faults: Vec<w5_chaos::ChaosReport>,
}

/// One step of a thread's schedule. All indices are taken modulo the
/// thread's live process list at execution time.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Send between two of the thread's own processes (flow verdict
    /// depends on both ends — both own-thread-deterministic).
    SendOwn { from: usize, to: usize },
    /// Send to another thread's hub (the only cross-thread traffic).
    SendHub { from: usize, hub: usize },
    /// Drain one message from an own process.
    Recv { who: usize },
    /// Taint an own process with the thread's tag (`t+` is global for
    /// `ExportProtect`).
    Taint { who: usize },
    /// Attempt declassification back to public; succeeds only while the
    /// process holds the thread's `t-`.
    Declass { who: usize },
    /// Spawn a child at the parent's current labels; the child joins the
    /// thread's process list.
    Spawn { from: usize },
    /// Shed the thread tag's `t-` from an own process.
    DropMinus { who: usize },
    /// Grant the thread tag's `t-` to an own process.
    GrantMinus { who: usize },
}

fn gen_ops(spec: &ConcSpec, t: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(
        spec.seed ^ (t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    (0..spec.ops_per_thread)
        .map(|_| match rng.gen_range(0..100u32) {
            0..=49 => Op::SendOwn { from: rng.gen_range(0..64), to: rng.gen_range(0..64) },
            50..=64 => Op::SendHub { from: rng.gen_range(0..64), hub: rng.gen_range(0..64) },
            65..=74 => Op::Recv { who: rng.gen_range(0..64) },
            75..=81 => Op::Taint { who: rng.gen_range(0..64) },
            82..=86 => Op::Declass { who: rng.gen_range(0..64) },
            87..=91 => Op::Spawn { from: rng.gen_range(0..64) },
            92..=95 => Op::DropMinus { who: rng.gen_range(0..64) },
            _ => Op::GrantMinus { who: rng.gen_range(0..64) },
        })
        .collect()
}

fn injector_for(spec: &ConcSpec, t: usize) -> Arc<w5_chaos::Injector> {
    w5_chaos::Injector::new(
        w5_chaos::FaultPlan::new(spec.seed ^ (t as u64 + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93))
            .with(w5_chaos::Site::KernelSend, spec.fault_rate)
            .with(w5_chaos::Site::KernelSpawn, spec.fault_rate),
    )
}

/// One thread's working set: its tag, the global hub list, and its own
/// (name, pid) process list, which grows as it spawns.
struct ThreadCtx {
    t: usize,
    tag: Tag,
    hubs: Vec<ProcessId>,
    procs: Vec<(String, ProcessId)>,
    spawned: usize,
}

fn apply_ops(k: &Kernel, ctx: &mut ThreadCtx, ops: &[Op]) {
    let payload = Bytes::from_static(b"conc");
    for op in ops {
        match *op {
            Op::SendOwn { from, to } => {
                let f = ctx.procs[from % ctx.procs.len()].1;
                let to = ctx.procs[to % ctx.procs.len()].1;
                let _ = k.send(f, to, payload.clone(), CapSet::empty());
            }
            Op::SendHub { from, hub } => {
                let f = ctx.procs[from % ctx.procs.len()].1;
                let h = ctx.hubs[hub % ctx.hubs.len()];
                let _ = k.send(f, h, payload.clone(), CapSet::empty());
            }
            Op::Recv { who } => {
                let p = ctx.procs[who % ctx.procs.len()].1;
                let _ = k.recv(p);
            }
            Op::Taint { who } => {
                let p = ctx.procs[who % ctx.procs.len()].1;
                let data = LabelPair::new(Label::singleton(ctx.tag), Label::empty());
                let _ = k.taint_for_read(p, &data);
            }
            Op::Declass { who } => {
                let p = ctx.procs[who % ctx.procs.len()].1;
                let _ = k.change_labels(p, LabelPair::public());
            }
            Op::Spawn { from } => {
                let parent = ctx.procs[from % ctx.procs.len()].1;
                let Ok(labels) = k.labels(parent) else { continue };
                let name = format!("t{}.c{}", ctx.t, ctx.spawned);
                let spec = SpawnSpec {
                    name: name.clone(),
                    labels,
                    grant: CapSet::empty(),
                    limits: ResourceLimits::sandbox_default(),
                };
                if let Ok(pid) = k.spawn(parent, spec) {
                    ctx.procs.push((name, pid));
                    ctx.spawned += 1;
                }
            }
            Op::DropMinus { who } => {
                let p = ctx.procs[who % ctx.procs.len()].1;
                let mut c = CapSet::empty();
                c.insert(Capability::minus(ctx.tag));
                let _ = k.drop_caps(p, &c);
            }
            Op::GrantMinus { who } => {
                let p = ctx.procs[who % ctx.procs.len()].1;
                let mut c = CapSet::empty();
                c.insert(Capability::minus(ctx.tag));
                let _ = k.grant_caps(p, &c);
            }
        }
    }
}

/// Identical single-threaded setup for both arms: hubs, per-thread
/// processes, per-thread tags — so pid streams and registry tag ids
/// start out aligned.
fn setup(k: &Kernel, spec: &ConcSpec) -> Vec<ThreadCtx> {
    let hubs: Vec<ProcessId> = (0..spec.threads)
        .map(|t| {
            k.create_process(
                &format!("hub{t}"),
                LabelPair::public(),
                CapSet::empty(),
                ResourceLimits::unlimited(),
            )
        })
        .collect();
    (0..spec.threads)
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
            ThreadCtx { t, tag, hubs: hubs.clone(), procs, spawned: 0 }
        })
        .collect()
}

fn collect(
    k: &Kernel,
    ledger: &Ledger,
    ctxs: &[ThreadCtx],
    faults: Vec<w5_chaos::ChaosReport>,
) -> ConcOutcome {
    let mut all: Vec<(String, ProcessId)> = Vec::new();
    for (t, ctx) in ctxs.iter().enumerate() {
        all.push((format!("hub{t}"), ctx.hubs[t]));
        all.extend(ctx.procs.iter().cloned());
    }
    let names: HashMap<ProcessId, String> =
        all.iter().map(|(n, p)| (*p, n.clone())).collect();
    let procs = all
        .iter()
        .map(|(name, pid)| {
            let info = k.process_info(*pid).expect("workload never reaps");
            let caps = k.caps(*pid).expect("workload never reaps");
            let mut bag: Vec<(u64, bool)> = caps
                .iter()
                .map(|c| (c.tag.raw(), c.privilege == Privilege::Minus))
                .collect();
            bag.sort_unstable();
            (
                name.clone(),
                ProcState {
                    secrecy: info.labels.secrecy.iter().map(Tag::raw).collect(),
                    integrity: info.labels.integrity.iter().map(Tag::raw).collect(),
                    caps: bag,
                    state: format!("{:?}", info.state),
                    mailbox_len: info.mailbox_len,
                    parent: info.parent.map(|p| names[&p].clone()),
                },
            )
        })
        .collect();
    let agg = ledger.aggregate();
    ConcOutcome {
        procs,
        stats: k.stats(),
        ledger_events: agg.events,
        ledger_denied: agg.denied,
        faults,
    }
}

/// Drive a fresh kernel through the spec's schedule. `concurrent` selects
/// real OS threads vs. a serial replay of the same per-thread sequences.
/// Returns the outcome plus the private ledger's digest — meaningful for
/// comparison only between serial runs (ring/event *order* is
/// timing-dependent under threads; counts are not).
fn run(spec: &ConcSpec, concurrent: bool) -> (ConcOutcome, u64) {
    assert!(spec.threads >= 1, "need at least one thread");
    let k = Kernel::new(Arc::new(TagRegistry::new()));
    // Private ledger first: setup events are part of the serial digest,
    // exactly like the chaos harness.
    let ledger = Arc::new(Ledger::new());
    let _obs_guard = w5_obs::scoped(Arc::clone(&ledger));
    // Private order graph second: every classed-lock acquisition this run
    // makes (setup, workers, teardown) lands here and is checked against
    // the declared manifest before the outcome is returned. Its edge
    // context is the kernel's relaxed-atomic counter snapshot — lock-free
    // (the provider contract), so it can run mid-acquisition.
    let stats_of = k.clone();
    let recorder = crate::lockgate::recorder(Some(Box::new(move || {
        w5_obs::snapshot_json(&stats_of).unwrap_or_default()
    })));
    let _lock_guard = lockdep::scoped(Arc::clone(&recorder));

    let mut ctxs = setup(&k, spec);
    let op_lists: Vec<Vec<Op>> = (0..spec.threads).map(|t| gen_ops(spec, t)).collect();
    let injectors: Vec<Arc<w5_chaos::Injector>> =
        (0..spec.threads).map(|t| injector_for(spec, t)).collect();

    let faults = crate::drive::drive(&mut ctxs, &injectors, concurrent, |t, ctx| {
        apply_ops(&k, ctx, &op_lists[t]);
        injectors[t].report()
    });

    let outcome = collect(&k, &ledger, &ctxs, faults);
    recorder.note("harness", "concurrency");
    recorder.note("threads", &spec.threads.to_string());
    crate::lockgate::enforce(&recorder, "concurrency");
    (outcome, ledger.digest())
}

/// The kernel under real thread interleavings.
pub fn run_concurrent(spec: &ConcSpec) -> ConcOutcome {
    run(spec, true).0
}

/// Serial replay. The digest covers the full private event stream and is
/// a pure function of the spec.
pub fn run_serial(spec: &ConcSpec) -> (ConcOutcome, u64) {
    run(spec, false)
}

/// The differential check used by tests and CI: the run under threads
/// must equal the serial replay. Panics with a labeled diff on mismatch.
pub fn assert_differential(spec: &ConcSpec) {
    let (serial, _) = run_serial(spec);
    let concurrent = run_concurrent(spec);
    assert_eq!(serial, concurrent, "kernel under threads diverged from the serial oracle");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_arms_agree_on_default_spec() {
        assert_differential(&ConcSpec { seed: 2007, threads: 4, ops_per_thread: 150, fault_rate: 0.05 });
    }

    #[test]
    fn calm_run_agrees_without_faults() {
        let spec = ConcSpec { seed: 9, threads: 2, ops_per_thread: 120, fault_rate: 0.0 };
        assert_differential(&spec);
        let (out, _) = run_serial(&spec);
        assert_eq!(out.faults.iter().map(|f| f.total_injected()).sum::<u64>(), 0);
    }

    #[test]
    fn workload_actually_exercises_flow_machinery() {
        let spec = ConcSpec::new(20070824);
        let (out, _) = run_serial(&spec);
        assert!(out.stats.sends_checked > 0);
        assert!(out.stats.sends_dropped > 0, "taint must force some drops");
        assert!(out.stats.label_changes_denied > 0, "declass without t- must be denied");
        assert!(
            out.procs.values().any(|p| !p.secrecy.is_empty()),
            "some process must end tainted"
        );
        assert!(
            out.faults.iter().map(|f| f.total_injected()).sum::<u64>() > 0,
            "storm must fire"
        );
    }
}
