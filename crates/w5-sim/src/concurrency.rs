//! Serial/concurrent oracle for the kernel, as an instance of
//! [`crate::harness`].
//!
//! [`w5_kernel::Kernel`] is called from many connection threads at once.
//! This oracle checks that threads change nothing an observer can see: the
//! same seeded schedule runs serially and under real OS-thread
//! interleavings, and the two must agree on everything a syscall client or
//! an auditor could see — per-process labels, capability bags, mailbox
//! depths, lifecycle states, flow-decision counters, obs-ledger aggregates,
//! and (compared by the harness) per-thread fault tallies.
//!
//! Beyond the harness's ownership rule (thread `t` changes labels, taints,
//! edits capabilities, receives and spawns only on its own processes), the
//! one cross-thread traffic is sends to per-thread **hub** processes whose
//! labels never change (public, never tainted, never drained). A send
//! verdict depends on the sender's labels and the hub's constant ones, so
//! every delivery or drop — and thus every counter — is fixed before the
//! threads start; only the *order* of a hub's mailbox is timing-dependent,
//! so the oracle compares mailbox depths, not contents. Process *ids* are
//! racy too, which is why state is keyed by process *name*.
//!
//! With one thread at a time the event stream itself is deterministic, so
//! a serial run's digest is a pure function of the spec —
//! `tests/concurrency.rs` pins it to golden values.

use crate::harness::{self, Mode, Oracle, Run, Spec};
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeMap;
use std::collections::HashMap;
use std::sync::Arc;
use w5_chaos::Site;
use w5_difc::{CapSet, Capability, Label, LabelPair, Privilege, Tag, TagKind, TagRegistry};
use w5_kernel::{Kernel, KernelStats, ProcessId, ResourceLimits, SpawnSpec};
use w5_obs::Ledger;
use w5_sync::lockdep;

/// Per-thread process count at setup; op indices are taken modulo the
/// live list, which grows as the thread spawns children.
const PROCS_PER_THREAD: usize = 4;

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

/// The observable outcome of one run. Both arms replaying the same
/// [`Spec`] must compare equal, whatever the interleaving.
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
}

/// One step of a thread's schedule. All indices are taken modulo the
/// thread's live process list at execution time.
#[derive(Clone, Copy, Debug)]
pub enum Op {
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

/// One thread's working set: its tag, the global hub list, and its own
/// (name, pid) process list, which grows as it spawns.
pub struct ThreadCtx {
    t: usize,
    tag: Tag,
    hubs: Vec<ProcessId>,
    procs: Vec<(String, ProcessId)>,
    spawned: usize,
}

impl ThreadCtx {
    fn proc(&self, i: usize) -> ProcessId {
        self.procs[i % self.procs.len()].1
    }

    fn minus(&self) -> CapSet {
        let mut c = CapSet::empty();
        c.insert(Capability::minus(self.tag));
        c
    }
}

/// The kernel oracle. It has one implementation under test; the arms differ
/// only in [`Mode`].
#[derive(Clone, Copy, Debug)]
pub struct KernelOracle;

impl Oracle for KernelOracle {
    const NAME: &'static str = "concurrency";
    const SITES: &'static [Site] = &[Site::KernelSend, Site::KernelSpawn];
    type Op = Op;
    type Seq = ThreadCtx;
    type Step = ();
    type World = Kernel;
    type Outcome = ConcOutcome;

    fn gen_op(rng: &mut StdRng) -> Op {
        match rng.gen_range(0..100u32) {
            0..=49 => Op::SendOwn { from: rng.gen_range(0..64), to: rng.gen_range(0..64) },
            50..=64 => Op::SendHub { from: rng.gen_range(0..64), hub: rng.gen_range(0..64) },
            65..=74 => Op::Recv { who: rng.gen_range(0..64) },
            75..=81 => Op::Taint { who: rng.gen_range(0..64) },
            82..=86 => Op::Declass { who: rng.gen_range(0..64) },
            87..=91 => Op::Spawn { from: rng.gen_range(0..64) },
            92..=95 => Op::DropMinus { who: rng.gen_range(0..64) },
            _ => Op::GrantMinus { who: rng.gen_range(0..64) },
        }
    }

    /// Hubs, per-thread processes and per-thread tags, in one order on every
    /// arm, so pid streams and registry tag ids start out aligned.
    fn setup(&self, spec: &Spec) -> (Kernel, Vec<ThreadCtx>) {
        let k = Kernel::new(Arc::new(TagRegistry::new()));
        let public = |name: &str| {
            k.create_process(name, LabelPair::public(), CapSet::empty(), ResourceLimits::unlimited())
        };
        let hubs: Vec<ProcessId> = (0..spec.threads).map(|t| public(&format!("hub{t}"))).collect();
        let ctxs = (0..spec.threads)
            .map(|t| {
                let procs: Vec<(String, ProcessId)> = (0..PROCS_PER_THREAD)
                    .map(|i| {
                        let name = format!("t{t}.p{i}");
                        let pid = public(&name);
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
            .collect();
        (k, ctxs)
    }

    fn apply(k: &Kernel, ctx: &mut ThreadCtx, op: &Op) {
        let payload = Bytes::from_static(b"conc");
        match *op {
            Op::SendOwn { from, to } => {
                let _ = k.send(ctx.proc(from), ctx.proc(to), payload, CapSet::empty());
            }
            Op::SendHub { from, hub } => {
                let h = ctx.hubs[hub % ctx.hubs.len()];
                let _ = k.send(ctx.proc(from), h, payload, CapSet::empty());
            }
            Op::Recv { who } => {
                let _ = k.recv(ctx.proc(who));
            }
            Op::Taint { who } => {
                let data = LabelPair::new(Label::singleton(ctx.tag), Label::empty());
                let _ = k.taint_for_read(ctx.proc(who), &data);
            }
            Op::Declass { who } => {
                let _ = k.change_labels(ctx.proc(who), LabelPair::public());
            }
            Op::Spawn { from } => {
                let parent = ctx.proc(from);
                let Ok(labels) = k.labels(parent) else { return };
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
                let _ = k.drop_caps(ctx.proc(who), &ctx.minus());
            }
            Op::GrantMinus { who } => {
                let _ = k.grant_caps(ctx.proc(who), &ctx.minus());
            }
        }
    }

    fn observe(&self, k: Kernel, ctxs: Vec<ThreadCtx>, _: Vec<Vec<()>>, ledger: &Ledger) -> ConcOutcome {
        let mut all: Vec<(String, ProcessId)> = Vec::new();
        for (t, ctx) in ctxs.into_iter().enumerate() {
            all.push((format!("hub{t}"), ctx.hubs[t]));
            all.extend(ctx.procs);
        }
        let names: HashMap<ProcessId, String> = all.iter().map(|(n, p)| (*p, n.clone())).collect();
        let procs = all
            .iter()
            .map(|(name, pid)| {
                let info = k.process_info(*pid).expect("workload never reaps");
                let caps = k.caps(*pid).expect("workload never reaps");
                let mut bag: Vec<(u64, bool)> =
                    caps.iter().map(|c| (c.tag.raw(), c.privilege == Privilege::Minus)).collect();
                bag.sort_unstable();
                let state = ProcState {
                    secrecy: info.labels.secrecy.iter().map(Tag::raw).collect(),
                    integrity: info.labels.integrity.iter().map(Tag::raw).collect(),
                    caps: bag,
                    state: format!("{:?}", info.state),
                    mailbox_len: info.mailbox_len,
                    parent: info.parent.map(|p| names[&p].clone()),
                };
                (name.clone(), state)
            })
            .collect();
        let agg = ledger.aggregate();
        ConcOutcome { procs, stats: k.stats(), ledger_events: agg.events, ledger_denied: agg.denied }
    }

    /// The kernel's relaxed-atomic counters: lock-free, as a context
    /// provider must be, so it can run mid-acquisition.
    fn lock_context(k: &Kernel) -> Option<Box<lockdep::ContextFn>> {
        let k = k.clone();
        Some(Box::new(move || w5_obs::snapshot_json(&k).unwrap_or_default()))
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
        assert!(out.stats.sends_checked > 0);
        assert!(out.stats.sends_dropped > 0, "taint must force some drops");
        assert!(out.stats.label_changes_denied > 0, "declass without t- must be denied");
        assert!(out.procs.values().any(|p| !p.secrecy.is_empty()), "some process must end tainted");
        assert!(run.injected() > 0, "storm must fire");
    }
}
