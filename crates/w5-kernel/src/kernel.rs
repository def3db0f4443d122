//! The kernel proper: process table and system-call surface.
//!
//! All flow enforcement funnels through here. The platform (`w5-platform`)
//! is the only trusted caller; applications reach the kernel exclusively
//! through the platform's API object, which passes their [`ProcessId`]
//! along so every operation is checked against *their* labels, not the
//! platform's.
//!
//! # Concurrency
//!
//! The process table is one `HashMap` behind one classed mutex
//! (`kernel.procs`). Every syscall takes it at most once and never
//! nests it, so the kernel has no internal lock order to get wrong, and
//! a send's check-charge-deliver is atomic by construction. Critical
//! sections are short: a read taint whose data is already covered asks
//! only the zero-privilege question of the labels as they stand
//! ([`rules::can_flow_unprivileged`], an allocation-free merge) and
//! defers its ledger write until the guard has dropped.
//!
//! Flow-decision counters ([`KernelStats`]) are relaxed atomics outside
//! the lock: exact totals, no ordering claims between counters, readable
//! while the table is locked elsewhere.

use crate::ids::ProcessId;
use crate::message::Message;
use crate::process::{Process, ProcessInfo, ProcessState};
use crate::resource::{QuotaExceeded, ResourceContainer, ResourceKind, ResourceLimits, ResourceUsage};
use bytes::Bytes;
use w5_sync::{lockdep, Mutex};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock};
use w5_difc::{
    rules, CapSet, Capability, DifcError, LabelPair, Tag, TagKind, TagRegistry,
};

/// Errors surfaced by kernel syscalls.
///
/// Note that [`Kernel::send`] deliberately does *not* surface
/// [`KernelError::Difc`] — see the crate docs on covert-channel hygiene.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KernelError {
    /// The process id is unknown.
    NoSuchProcess(ProcessId),
    /// The process has exited.
    ProcessDead(ProcessId),
    /// A flow rule refused the operation.
    Difc(DifcError),
    /// A resource quota refused the operation.
    Quota(QuotaExceeded),
    /// A capability grant included capabilities the granter does not hold.
    GrantNotHeld,
    /// A deterministic fault-injection site fired (`w5-chaos`). Transient:
    /// the operation had no effect and may be retried.
    Injected(&'static str),
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::NoSuchProcess(p) => write!(f, "no such process {p}"),
            KernelError::ProcessDead(p) => write!(f, "process {p} has exited"),
            KernelError::Difc(e) => write!(f, "flow control: {e}"),
            KernelError::Quota(e) => write!(f, "resource: {e}"),
            KernelError::GrantNotHeld => write!(f, "grant includes capabilities not held"),
            KernelError::Injected(site) => write!(f, "injected fault at {site}"),
        }
    }
}

impl std::error::Error for KernelError {}

impl From<DifcError> for KernelError {
    fn from(e: DifcError) -> Self {
        KernelError::Difc(e)
    }
}

impl From<QuotaExceeded> for KernelError {
    fn from(e: QuotaExceeded) -> Self {
        KernelError::Quota(e)
    }
}

// Span names, shared: a sampled span records them without allocating.
static SPAN_CREATE_PROCESS: LazyLock<w5_obs::Name> = LazyLock::new(|| "kernel.create_process".into());
static SPAN_SPAWN: LazyLock<w5_obs::Name> = LazyLock::new(|| "kernel.spawn".into());
static SPAN_SEND: LazyLock<w5_obs::Name> = LazyLock::new(|| "kernel.send".into());

/// Result alias for kernel syscalls.
pub type KernelResult<T> = Result<T, KernelError>;

/// Outcome of a (non-strict) send.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Delivery {
    /// The message was queued at the receiver.
    Delivered,
    /// The message was silently dropped (flow violation). The *sender* is
    /// never told which; this value is only observable by trusted code that
    /// also owns the receiver.
    Dropped,
}

/// Parameters for [`Kernel::spawn`].
#[derive(Clone, Debug)]
pub struct SpawnSpec {
    /// Audit name for the child.
    pub name: String,
    /// Labels the child starts with. Must be safely reachable from the
    /// parent's labels given the parent's effective capabilities.
    pub labels: LabelPair,
    /// Capabilities granted to the child. Must be a subset of the parent's
    /// effective capabilities.
    pub grant: CapSet,
    /// Resource limits for the child's container.
    pub limits: ResourceLimits,
}

/// Flow-decision counters, for the evaluation harnesses. Serializable
/// so lockdep reports can name the operation mix active when an
/// acquisition edge was recorded ([`Kernel::stats`] is lock-free).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct KernelStats {
    /// Messages checked for delivery.
    pub sends_checked: u64,
    /// Messages dropped by flow rules.
    pub sends_dropped: u64,
    /// Label changes attempted.
    pub label_changes: u64,
    /// Label changes refused.
    pub label_changes_denied: u64,
}

type ProcMap = HashMap<ProcessId, Process>;

struct Shared {
    registry: Arc<TagRegistry>,
    procs: Mutex<ProcMap>,
    next_pid: AtomicU64,
    sends_checked: AtomicU64,
    sends_dropped: AtomicU64,
    label_changes: AtomicU64,
    label_changes_denied: AtomicU64,
}

/// The liveness gate every mutating or deciding syscall goes through:
/// an unknown pid is `NoSuchProcess`, an exited one `ProcessDead`.
fn live(procs: &ProcMap, pid: ProcessId) -> KernelResult<&Process> {
    match procs.get(&pid) {
        None => Err(KernelError::NoSuchProcess(pid)),
        Some(p) if p.state == ProcessState::Dead => Err(KernelError::ProcessDead(pid)),
        Some(p) => Ok(p),
    }
}

/// [`live`], mutably.
fn live_mut(procs: &mut ProcMap, pid: ProcessId) -> KernelResult<&mut Process> {
    match procs.get_mut(&pid) {
        None => Err(KernelError::NoSuchProcess(pid)),
        Some(p) if p.state == ProcessState::Dead => Err(KernelError::ProcessDead(pid)),
        Some(p) => Ok(p),
    }
}

/// The simulated DIFC kernel. Cheap to share: `Kernel` is `Clone` and all
/// clones view the same machine.
#[derive(Clone)]
pub struct Kernel {
    shared: Arc<Shared>,
}

impl Kernel {
    /// A fresh machine sharing the given tag registry.
    pub fn new(registry: Arc<TagRegistry>) -> Kernel {
        Kernel {
            shared: Arc::new(Shared {
                registry,
                procs: Mutex::new("kernel.procs", HashMap::new()),
                next_pid: AtomicU64::new(1),
                sends_checked: AtomicU64::new(0),
                sends_dropped: AtomicU64::new(0),
                label_changes: AtomicU64::new(0),
                label_changes_denied: AtomicU64::new(0),
            }),
        }
    }

    /// Post-mortem view: answers for any pid still in the table, dead or
    /// alive, so an auditor can inspect an exited process until it is
    /// reaped.
    fn view<T>(&self, pid: ProcessId, f: impl FnOnce(&Process) -> T) -> KernelResult<T> {
        self.shared
            .procs
            .lock()
            .get(&pid)
            .map(f)
            .ok_or(KernelError::NoSuchProcess(pid))
    }

    /// The shared tag registry.
    pub fn registry(&self) -> &Arc<TagRegistry> {
        &self.shared.registry
    }

    /// Trusted process creation (used by the platform for launchers,
    /// exporters and app instances). No reachability check: the platform
    /// decides initial labels per user policy.
    pub fn create_process(
        &self,
        name: &str,
        labels: LabelPair,
        caps: CapSet,
        limits: ResourceLimits,
    ) -> ProcessId {
        let id = ProcessId(self.shared.next_pid.fetch_add(1, Ordering::Relaxed));
        let secrecy = labels.secrecy.clone();
        // Child span inside an active sampled trace (e.g. an app launch
        // under `platform.invoke`); a single thread-local read otherwise.
        let mut trace_span = w5_obs::span_if_active(
            &*SPAN_CREATE_PROCESS,
            w5_obs::Layer::Kernel,
            &w5_obs::ObsLabel::empty(),
        );
        if let Some(s) = trace_span.as_mut() {
            s.add_secrecy(secrecy.to_obs());
        }
        let proc = Process {
            id,
            name: name.to_string(),
            labels,
            caps,
            state: ProcessState::Runnable,
            mailbox: Default::default(),
            container: ResourceContainer::new(limits),
            parent: None,
        };
        self.shared.procs.lock().insert(id, proc);
        w5_obs::record(
            secrecy.to_obs(),
            w5_obs::EventKind::ProcSpawn { pid: id.0, parent: 0, name: name.to_string() },
        );
        id
    }

    /// Spawn a child from an existing process, enforcing Flume's spawn
    /// rules: child labels must be a safe change away from the parent's,
    /// and the grant must be covered by the parent's effective caps.
    pub fn spawn(&self, parent: ProcessId, spec: SpawnSpec) -> KernelResult<ProcessId> {
        // Fault injection happens before any state changes: a failed spawn
        // must leave no trace of the child.
        if w5_chaos::inject(w5_chaos::Site::KernelSpawn).is_some() {
            return Err(KernelError::Injected(w5_chaos::Site::KernelSpawn.as_str()));
        }
        // Child span only inside an already-sampled trace: outside one this
        // is a single thread-local read. The label (the child's secrecy) is
        // unioned in below, once the spawn is validated.
        let mut trace_span = w5_obs::span_if_active(
            &*SPAN_SPAWN,
            w5_obs::Layer::Kernel,
            &w5_obs::ObsLabel::empty(),
        );
        let mut procs = self.shared.procs.lock();
        let p = live(&procs, parent)?;
        // Fast path: a child at the parent's exact labels with no grant
        // (the dominant spawn shape) is trivially safe — `safe_change` of
        // a label to itself always passes — so the capability algebra is
        // skipped entirely.
        if spec.labels != p.labels || !spec.grant.is_empty() {
            let held = self.shared.registry.held(&p.caps);
            // `safe_change` counts its check in the flow ledger while the
            // process-table guard is held; intentional (the labels under
            // validation live inside the guarded table).
            let _obs_permit = lockdep::allow_held("obs.ledger");
            rules::safe_change(&p.labels.secrecy, &spec.labels.secrecy, held)?;
            rules::safe_change(&p.labels.integrity, &spec.labels.integrity, held)?;
            if !held.covers(&spec.grant) {
                return Err(KernelError::GrantNotHeld);
            }
        }
        // Pid allocated only *after* validation: a denied spawn consumes no
        // pid, so refusals leave no gap another process could read off the
        // pid stream (and the golden ledger digests, which cover pids, see
        // a denial as the absence of a spawn, nothing more).
        let id = ProcessId(self.shared.next_pid.fetch_add(1, Ordering::Relaxed));
        let secrecy = spec.labels.secrecy.clone();
        let child_name = spec.name.clone();
        let child = Process {
            id,
            name: spec.name,
            labels: spec.labels,
            caps: spec.grant,
            state: ProcessState::Runnable,
            mailbox: Default::default(),
            container: ResourceContainer::new(spec.limits),
            parent: Some(parent),
        };
        procs.insert(id, child);
        drop(procs);
        if let Some(s) = trace_span.as_mut() {
            s.add_secrecy(secrecy.to_obs());
        }
        w5_obs::record(
            secrecy.to_obs(),
            w5_obs::EventKind::ProcSpawn { pid: id.0, parent: parent.0, name: child_name },
        );
        Ok(id)
    }

    /// Snapshot of a process's public metadata.
    pub fn process_info(&self, pid: ProcessId) -> KernelResult<ProcessInfo> {
        self.view(pid, Process::info)
    }

    /// Current labels of a process.
    pub fn labels(&self, pid: ProcessId) -> KernelResult<LabelPair> {
        self.view(pid, |p| p.labels.clone())
    }

    /// The process's *private* capability bag.
    pub fn caps(&self, pid: ProcessId) -> KernelResult<CapSet> {
        self.view(pid, |p| p.caps.clone())
    }

    /// The capabilities a store call should carry for the process: its
    /// private bag, which is all a subject needs. The global bag `Ô` is
    /// not added: the flow rules apply it themselves, as the registry's
    /// kind rule (see [`TagRegistry::held`]).
    pub fn effective_caps(&self, pid: ProcessId) -> KernelResult<CapSet> {
        self.caps(pid)
    }

    /// The process's labels and private bag, read under one lock: what a
    /// store call's subject carries. Neither clone allocates (labels share
    /// their storage).
    pub fn subject(&self, pid: ProcessId) -> KernelResult<(LabelPair, CapSet)> {
        self.view(pid, |p| (p.labels.clone(), p.caps.clone()))
    }

    /// Create a tag on behalf of a process; the creator capabilities enter
    /// the process's private bag, and the public half is global by the
    /// tag's kind.
    pub fn create_tag(&self, pid: ProcessId, kind: TagKind, name: &str) -> KernelResult<Tag> {
        // Allocate outside the process-table lock; the registry has its own.
        let (tag, creator_caps) = self.shared.registry.create_tag(kind, name);
        live_mut(&mut self.shared.procs.lock(), pid)?.caps.extend(&creator_caps);
        w5_obs::record(
            &w5_obs::ObsLabel::empty(),
            w5_obs::EventKind::TagGrant { pid: pid.0, tag: tag.raw() },
        );
        Ok(tag)
    }

    /// Change a process's own labels, subject to the safe-change rule.
    pub fn change_labels(&self, pid: ProcessId, new: LabelPair) -> KernelResult<()> {
        self.shared.label_changes.fetch_add(1, Ordering::Relaxed);
        let mut procs = self.shared.procs.lock();
        let p = live_mut(&mut procs, pid)?;
        let held = self.shared.registry.held(&p.caps);
        // The safe-change checks ledger their verdicts under the
        // process-table guard; intentional (see `spawn`).
        let _obs_permit = lockdep::allow_held("obs.ledger");
        let check = rules::safe_change(&p.labels.secrecy, &new.secrecy, held)
            .and_then(|()| rules::safe_change(&p.labels.integrity, &new.integrity, held));
        match check {
            Ok(()) => {
                p.labels = new;
                Ok(())
            }
            Err(e) => {
                self.shared.label_changes_denied.fetch_add(1, Ordering::Relaxed);
                Err(e.into())
            }
        }
    }

    /// Permanently drop capabilities from a process's private bag
    /// (privilege shedding before running untrusted code).
    pub fn drop_caps(&self, pid: ProcessId, caps: &CapSet) -> KernelResult<()> {
        {
            let mut procs = self.shared.procs.lock();
            let p = live_mut(&mut procs, pid)?;
            for c in caps.iter() {
                p.caps.remove(c);
            }
        }
        w5_obs::record(
            &w5_obs::ObsLabel::empty(),
            w5_obs::EventKind::CapabilityUse {
                pid: pid.0,
                op: "drop".to_string(),
                count: caps.len() as u64,
            },
        );
        Ok(())
    }

    /// Add capabilities to a process's private bag. Trusted (platform)
    /// entry point, used when a user's policy grants a declassifier
    /// privileges over the user's tags.
    pub fn grant_caps(&self, pid: ProcessId, caps: &CapSet) -> KernelResult<()> {
        live_mut(&mut self.shared.procs.lock(), pid)?.caps.extend(caps);
        w5_obs::record(
            &w5_obs::ObsLabel::empty(),
            w5_obs::EventKind::CapabilityUse {
                pid: pid.0,
                op: "grant".to_string(),
                count: caps.len() as u64,
            },
        );
        Ok(())
    }

    /// Send a message. Delivery is checked against flow rules; on refusal
    /// the message is **silently dropped** and `Ok(Delivery::Dropped)` is
    /// returned. Untrusted callers must not branch on the returned value —
    /// the platform API hides it from applications.
    pub fn send(
        &self,
        from: ProcessId,
        to: ProcessId,
        payload: Bytes,
        grant: CapSet,
    ) -> KernelResult<Delivery> {
        match self.send_strict(from, to, payload, grant) {
            Ok(()) => Ok(Delivery::Delivered),
            Err(KernelError::Difc(_)) => Ok(Delivery::Dropped),
            Err(e) => Err(e),
        }
    }

    /// Send with the flow decision surfaced. Only trusted components may
    /// call this; the platform never exposes it to applications.
    pub fn send_strict(
        &self,
        from: ProcessId,
        to: ProcessId,
        payload: Bytes,
        grant: CapSet,
    ) -> KernelResult<()> {
        // Transient IPC failure: injected before the flow check so neither
        // counters nor mailboxes move — the message simply never happened.
        if w5_chaos::inject(w5_chaos::Site::KernelSend).is_some() {
            return Err(KernelError::Injected(w5_chaos::Site::KernelSend.as_str()));
        }
        // Child span only inside an already-sampled trace; the sender's
        // secrecy is unioned in once snapshotted (below).
        let mut trace_span = w5_obs::span_if_active(
            &*SPAN_SEND,
            w5_obs::Layer::Kernel,
            &w5_obs::ObsLabel::empty(),
        );
        self.shared.sends_checked.fetch_add(1, Ordering::Relaxed);
        let registry = &*self.shared.registry;
        // One guard for the whole check-and-deliver: sender labels,
        // receiver labels, quota charge and mailbox push are one atomic
        // step, so no taint can land between the check and the delivery.
        let mut procs = self.shared.procs.lock();

        // Snapshot sender state.
        let (s_labels, s_caps) = {
            let p = live(&procs, from)?;
            (p.labels.clone(), p.caps.clone())
        };
        let s_held = registry.held(&s_caps);
        if !s_held.covers(&grant) {
            return Err(KernelError::GrantNotHeld);
        }

        let r_labels = &live(&procs, to)?.labels;

        // Delivery is checked against the receiver's labels *as they stand*:
        // a receiver that wants high-secrecy data must raise its label first
        // (Flume's endpoint discipline). Only the sender's privileges adjust
        // the comparison — if the receiver's effective `t+` were consulted
        // here, any process could absorb export-protected data while staying
        // unlabeled, which is exactly the laundering W5 must prevent.
        let flow = {
            // The rule evaluation ledgers its flow check while the guard is
            // held; intentional (the labels under comparison live inside
            // the guarded table).
            let _obs_permit = lockdep::allow_held("obs.ledger");
            // Secrecy: sender may shed tags it can declassify.
            rules::can_flow_with(&s_labels.secrecy, s_held, &r_labels.secrecy, &CapSet::empty())
                // Integrity: every claim the receiver holds must be carried
                // or endorsable by the sender.
                .and(rules::integrity_flow_with(
                    &s_labels.integrity,
                    s_held,
                    &r_labels.integrity,
                    &CapSet::empty(),
                ))
        };
        if let Err(e) = flow {
            self.shared.sends_dropped.fetch_add(1, Ordering::Relaxed);
            drop(procs);
            if let Some(s) = trace_span.as_mut() {
                s.add_secrecy(s_labels.secrecy.to_obs());
            }
            // The drop itself is sender-labeled data: who tried to reach whom
            // is only visible to viewers cleared for the sender's secrecy.
            w5_obs::record(
                s_labels.secrecy.to_obs(),
                w5_obs::EventKind::IpcSend {
                    from: from.0,
                    to: to.0,
                    bytes: payload.len() as u64,
                    delivered: false,
                },
            );
            return Err(e.into());
        }

        // Charge the sender's network/IPC budget.
        let size = payload.len() as u64;
        let s_secrecy = s_labels.secrecy.clone();
        // Both were checked live above under this guard: the `else`s are unreachable.
        let Some(sender) = procs.get_mut(&from) else {
            return Err(KernelError::NoSuchProcess(from));
        };
        sender.container.charge_network(size)?;
        let msg = Message { from, payload, labels: s_labels, grant };
        let Some(q) = procs.get_mut(&to) else {
            return Err(KernelError::NoSuchProcess(to));
        };
        q.mailbox.push_back(msg);
        if q.state == ProcessState::Blocked {
            q.state = ProcessState::Runnable;
        }
        drop(procs);
        if let Some(s) = trace_span.as_mut() {
            s.add_secrecy(s_secrecy.to_obs());
        }
        w5_obs::record(
            s_secrecy.to_obs(),
            w5_obs::EventKind::IpcSend { from: from.0, to: to.0, bytes: size, delivered: true },
        );
        Ok(())
    }

    /// Dequeue the next message for `pid`, merging any capability grant into
    /// the receiver's private bag. Returns `None` (and blocks the process)
    /// when the mailbox is empty.
    pub fn recv(&self, pid: ProcessId) -> KernelResult<Option<Message>> {
        let mut procs = self.shared.procs.lock();
        let p = live_mut(&mut procs, pid)?;
        match p.mailbox.pop_front() {
            Some(msg) => {
                p.caps.extend(&msg.grant);
                drop(procs);
                w5_obs::record(
                    msg.labels.secrecy.to_obs(),
                    w5_obs::EventKind::IpcRecv { pid: pid.0, bytes: msg.payload.len() as u64 },
                );
                Ok(Some(msg))
            }
            None => {
                p.state = ProcessState::Blocked;
                Ok(None)
            }
        }
    }

    /// Charge a resource against a process's container.
    pub fn charge(&self, pid: ProcessId, kind: ResourceKind, amount: u64) -> KernelResult<()> {
        let mut procs = self.shared.procs.lock();
        let p = live_mut(&mut procs, pid)?;
        let res = match kind {
            ResourceKind::Cpu => p.container.charge_cpu(amount),
            ResourceKind::Memory => p.container.charge_memory(amount),
            ResourceKind::Disk => p.container.charge_disk(amount),
            ResourceKind::Network => p.container.charge_network(amount),
        };
        res.map_err(Into::into)
    }

    /// Release previously charged memory.
    pub fn release_memory(&self, pid: ProcessId, amount: u64) -> KernelResult<()> {
        live_mut(&mut self.shared.procs.lock(), pid)?.container.release_memory(amount);
        Ok(())
    }

    /// Resource usage snapshot for a process.
    pub fn usage(&self, pid: ProcessId) -> KernelResult<ResourceUsage> {
        self.view(pid, |p| p.container.usage())
    }

    /// CPU tokens remaining this epoch for a process.
    pub fn cpu_tokens(&self, pid: ProcessId) -> KernelResult<u64> {
        self.view(pid, |p| p.container.cpu_tokens())
    }

    /// Refill every live process's CPU bucket — the scheduler epoch boundary.
    pub fn refill_epoch(&self) {
        for p in self.shared.procs.lock().values_mut() {
            if p.state != ProcessState::Dead {
                p.container.refill_epoch();
            }
        }
    }

    /// Terminate a process. Its mailbox is discarded and further syscalls
    /// fail with [`KernelError::ProcessDead`]; only the read-only views
    /// (`process_info`, `labels`, `caps`, `effective_caps`, `usage`,
    /// `cpu_tokens`, `holds`) keep answering until [`Kernel::reap`].
    /// Idempotent on an already-dead process.
    pub fn exit(&self, pid: ProcessId) -> KernelResult<()> {
        let mut procs = self.shared.procs.lock();
        let p = procs.get_mut(&pid).ok_or(KernelError::NoSuchProcess(pid))?;
        p.state = ProcessState::Dead;
        p.mailbox.clear();
        Ok(())
    }

    /// Remove a dead process from the table entirely (platform GC).
    pub fn reap(&self, pid: ProcessId) -> KernelResult<()> {
        let mut procs = self.shared.procs.lock();
        match procs.get(&pid) {
            Some(p) if p.state == ProcessState::Dead => {
                procs.remove(&pid);
                Ok(())
            }
            Some(_) => Err(KernelError::ProcessDead(pid)), // still alive: refuse
            None => Err(KernelError::NoSuchProcess(pid)),
        }
    }

    /// Number of live (non-dead) processes.
    pub fn live_processes(&self) -> usize {
        self.shared
            .procs
            .lock()
            .values()
            .filter(|p| p.state != ProcessState::Dead)
            .count()
    }

    /// Flow-decision counters. Lock-free (relaxed atomics), so lockdep
    /// context providers and sim harnesses can sample the live operation
    /// mix while the process-table lock is held elsewhere.
    pub fn stats(&self) -> KernelStats {
        KernelStats {
            sends_checked: self.shared.sends_checked.load(Ordering::Relaxed),
            sends_dropped: self.shared.sends_dropped.load(Ordering::Relaxed),
            label_changes: self.shared.label_changes.load(Ordering::Relaxed),
            label_changes_denied: self.shared.label_changes_denied.load(Ordering::Relaxed),
        }
    }

    /// Convenience used throughout the platform: can data labeled `data`
    /// currently be read by process `pid` (with its effective caps), and if
    /// so, raise the process's labels accordingly.
    pub fn taint_for_read(&self, pid: ProcessId, data: &LabelPair) -> KernelResult<()> {
        let mut procs = self.shared.procs.lock();
        let p = live_mut(&mut procs, pid)?;
        // Fast path: already tainted at least as high as the data and the
        // data vouches every claim the process holds — `labels_for_read`
        // would return `Allowed` without consulting capabilities, so the
        // capability algebra is skipped. (Ledger parity: the slow path
        // counts one "read" check.)
        if rules::can_flow_unprivileged(data, &p.labels) {
            drop(procs);
            w5_obs::count_check(w5_obs::CheckOp::Read, true, data.secrecy.to_obs());
            return Ok(());
        }
        let held = self.shared.registry.held(&p.caps);
        // The read check ledgers its verdict under the guard; intentional
        // (taint raising must be atomic with the check).
        let _obs_permit = lockdep::allow_held("obs.ledger");
        match rules::labels_for_read(&p.labels, held, data) {
            rules::FlowCheck::Allowed => Ok(()),
            rules::FlowCheck::AllowedWithChange { new_secrecy, new_integrity } => {
                p.labels = LabelPair::new(new_secrecy, new_integrity);
                Ok(())
            }
            rules::FlowCheck::Denied(e) => Err(e.into()),
        }
    }

    /// Would a write by `pid` to an object labeled `obj` be admissible?
    pub fn check_write(&self, pid: ProcessId, obj: &LabelPair) -> KernelResult<()> {
        let procs = self.shared.procs.lock();
        let p = live(&procs, pid)?;
        let held = self.shared.registry.held(&p.caps);
        // The write check ledgers its verdict under the guard; intentional
        // (the verdict must describe the labels it inspected).
        let _obs_permit = lockdep::allow_held("obs.ledger");
        match rules::labels_for_write(&p.labels, held, obj) {
            rules::FlowCheck::Denied(e) => Err(e.into()),
            _ => Ok(()),
        }
    }

    /// Does `pid` effectively hold the capability?
    pub fn holds(&self, pid: ProcessId, cap: Capability) -> KernelResult<bool> {
        self.view(pid, |p| self.shared.registry.held(&p.caps).contains(cap))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use w5_difc::Label;

    fn kernel() -> Kernel {
        Kernel::new(Arc::new(TagRegistry::new()))
    }

    fn mk(k: &Kernel, name: &str) -> ProcessId {
        k.create_process(name, LabelPair::public(), CapSet::empty(), ResourceLimits::unlimited())
    }

    #[test]
    fn create_and_info() {
        let k = kernel();
        let pid = mk(&k, "a");
        let info = k.process_info(pid).unwrap();
        assert_eq!(info.name, "a");
        assert_eq!(info.state, ProcessState::Runnable);
        assert_eq!(info.mailbox_len, 0);
        assert_eq!(k.live_processes(), 1);
    }

    #[test]
    fn send_recv_roundtrip() {
        let k = kernel();
        let a = mk(&k, "a");
        let b = mk(&k, "b");
        let d = k.send(a, b, Bytes::from_static(b"hi"), CapSet::empty()).unwrap();
        assert_eq!(d, Delivery::Delivered);
        let msg = k.recv(b).unwrap().unwrap();
        assert_eq!(&msg.payload[..], b"hi");
        assert_eq!(msg.from, a);
        // Empty mailbox blocks.
        assert!(k.recv(b).unwrap().is_none());
        assert_eq!(k.process_info(b).unwrap().state, ProcessState::Blocked);
        // A new message unblocks.
        k.send(a, b, Bytes::from_static(b"x"), CapSet::empty()).unwrap();
        assert_eq!(k.process_info(b).unwrap().state, ProcessState::Runnable);
    }

    #[test]
    fn tainted_sender_is_silently_dropped() {
        let k = kernel();
        let a = mk(&k, "tainted");
        let b = mk(&k, "clean");
        let e = k.create_tag(a, TagKind::ExportProtect, "export:bob").unwrap();
        // a raises its secrecy (t+ is global).
        k.change_labels(a, LabelPair::new(Label::singleton(e), Label::empty()))
            .unwrap();
        // a created the tag so it holds e-; drop it to model an untrusted app
        // that merely read Bob's data.
        let mut minus = CapSet::empty();
        minus.insert(Capability::minus(e));
        k.drop_caps(a, &minus).unwrap();

        let d = k.send(a, b, Bytes::from_static(b"secret"), CapSet::empty()).unwrap();
        assert_eq!(d, Delivery::Dropped, "flow to unlabeled receiver must drop");
        assert!(k.recv(b).unwrap().is_none());
        assert_eq!(k.stats().sends_dropped, 1);

        // Strict variant surfaces the denial (trusted callers only).
        let err = k
            .send_strict(a, b, Bytes::from_static(b"secret"), CapSet::empty())
            .unwrap_err();
        assert!(matches!(err, KernelError::Difc(DifcError::SecrecyViolation { .. })));
    }

    #[test]
    fn receiver_with_plus_accepts_high_secrecy() {
        let k = kernel();
        let owner = mk(&k, "owner");
        let a = mk(&k, "a");
        let b = mk(&k, "b");
        let e = k.create_tag(owner, TagKind::ReadProtect, "read:x").unwrap();
        // a is granted read access (e+) and raises to hold the data; it has
        // no e-, so it cannot declassify toward unlabeled receivers.
        let mut aplus = CapSet::empty();
        aplus.insert(Capability::plus(e));
        k.grant_caps(a, &aplus).unwrap();
        k.change_labels(a, LabelPair::new(Label::singleton(e), Label::empty()))
            .unwrap();
        // b cannot receive while unlabeled: delivery is checked raw.
        assert_eq!(
            k.send(a, b, Bytes::from_static(b"s"), CapSet::empty()).unwrap(),
            Delivery::Dropped
        );
        // b cannot even raise its label: ReadProtect keeps t+ private.
        let high = LabelPair::new(Label::singleton(e), Label::empty());
        assert!(k.change_labels(b, high.clone()).is_err());
        // Grant b the t+, let it raise, and delivery succeeds.
        let mut plus = CapSet::empty();
        plus.insert(Capability::plus(e));
        k.grant_caps(b, &plus).unwrap();
        k.change_labels(b, high).unwrap();
        assert_eq!(
            k.send(a, b, Bytes::from_static(b"s"), CapSet::empty()).unwrap(),
            Delivery::Delivered
        );
    }

    #[test]
    fn grant_requires_holding() {
        let k = kernel();
        let a = mk(&k, "a");
        let b = mk(&k, "b");
        let t = Tag::from_raw(1234); // never allocated to a
        let mut g = CapSet::empty();
        g.insert(Capability::minus(t));
        let err = k.send(a, b, Bytes::new(), g).unwrap_err();
        assert_eq!(err, KernelError::GrantNotHeld);
    }

    #[test]
    fn caps_transfer_over_ipc() {
        let k = kernel();
        let a = mk(&k, "user");
        let b = mk(&k, "declassifier");
        let e = k.create_tag(a, TagKind::ExportProtect, "export:u").unwrap();
        let mut g = CapSet::empty();
        g.insert(Capability::minus(e));
        k.send(a, b, Bytes::from_static(b"here is my export privilege"), g)
            .unwrap();
        k.recv(b).unwrap().unwrap();
        assert!(k.caps(b).unwrap().has_minus(e), "grant merged on recv");
    }

    #[test]
    fn spawn_inherits_within_rules() {
        let k = kernel();
        let a = mk(&k, "parent");
        let e = k.create_tag(a, TagKind::ExportProtect, "export:u").unwrap();
        // Child at S={e}: fine, t+ is global.
        let child = k
            .spawn(
                a,
                SpawnSpec {
                    name: "child".into(),
                    labels: LabelPair::new(Label::singleton(e), Label::empty()),
                    grant: CapSet::empty(),
                    limits: ResourceLimits::sandbox_default(),
                },
            )
            .unwrap();
        assert_eq!(k.process_info(child).unwrap().parent, Some(a));
        // Child under a read-protect tag: refused, only its owner holds t+.
        let owner = mk(&k, "owner");
        let r = k.create_tag(owner, TagKind::ReadProtect, "read:o").unwrap();
        let locked = SpawnSpec {
            name: "locked".into(),
            labels: LabelPair::new(Label::from_iter([e, r]), Label::empty()),
            grant: CapSet::empty(),
            limits: ResourceLimits::unlimited(),
        };
        assert!(matches!(k.spawn(a, locked), Err(KernelError::Difc(_))));

        // Child granted caps the parent holds: fine.
        let mut g = CapSet::empty();
        g.insert(Capability::minus(e));
        assert!(k
            .spawn(
                a,
                SpawnSpec {
                    name: "c2".into(),
                    labels: LabelPair::public(),
                    grant: g.clone(),
                    limits: ResourceLimits::unlimited(),
                }
            )
            .is_ok());

        // A *tainted* parent cannot spawn an untainted child without e-.
        k.change_labels(a, LabelPair::new(Label::singleton(e), Label::empty()))
            .unwrap();
        k.drop_caps(a, &g).unwrap();
        let err = k
            .spawn(
                a,
                SpawnSpec {
                    name: "laundry".into(),
                    labels: LabelPair::public(),
                    grant: CapSet::empty(),
                    limits: ResourceLimits::unlimited(),
                },
            )
            .unwrap_err();
        assert!(matches!(err, KernelError::Difc(_)), "spawn is not a declassification channel");
    }

    #[test]
    fn quotas_enforced_on_send() {
        let k = kernel();
        let a = k.create_process(
            "limited",
            LabelPair::public(),
            CapSet::empty(),
            ResourceLimits { network_bytes: 10, ..ResourceLimits::unlimited() },
        );
        let b = mk(&k, "sink");
        assert!(k.send(a, b, Bytes::from(vec![0u8; 10]), CapSet::empty()).is_ok());
        let err = k.send(a, b, Bytes::from(vec![0u8; 1]), CapSet::empty()).unwrap_err();
        assert!(matches!(err, KernelError::Quota(_)), "quota errors are not silent: {err:?}");
    }

    #[test]
    fn exit_and_reap() {
        let k = kernel();
        let a = mk(&k, "a");
        let b = mk(&k, "b");
        k.exit(b).unwrap();
        assert!(matches!(
            k.send(a, b, Bytes::new(), CapSet::empty()),
            Err(KernelError::ProcessDead(_))
        ));
        assert!(matches!(k.reap(a), Err(KernelError::ProcessDead(_))), "cannot reap live process");
        k.reap(b).unwrap();
        assert!(matches!(
            k.process_info(b),
            Err(KernelError::NoSuchProcess(_))
        ));
        assert_eq!(k.live_processes(), 1);
    }

    #[test]
    fn dead_process_refuses_mutating_and_deciding_syscalls() {
        let k = kernel();
        let a = mk(&k, "a");
        let t = k.create_tag(a, TagKind::ExportProtect, "export:a").unwrap();
        k.charge(a, ResourceKind::Memory, 7).unwrap();
        let (caps, usage) = (k.caps(a).unwrap(), k.usage(a).unwrap());
        k.exit(a).unwrap();

        let dead = Err(KernelError::ProcessDead(a));
        let mut minus = CapSet::empty();
        minus.insert(Capability::minus(t));
        let mut foreign = CapSet::empty();
        foreign.insert(Capability::minus(Tag::from_raw(4321)));
        assert_eq!(k.drop_caps(a, &minus), dead);
        assert_eq!(k.grant_caps(a, &foreign), dead);
        assert_eq!(k.charge(a, ResourceKind::Memory, 1), dead);
        assert_eq!(k.release_memory(a, 1), dead);
        assert_eq!(k.check_write(a, &LabelPair::public()), dead);
        assert_eq!(k.taint_for_read(a, &LabelPair::public()), dead);

        // The post-mortem views still answer, and nothing above moved them.
        assert_eq!(k.caps(a).unwrap(), caps);
        assert_eq!(k.usage(a).unwrap(), usage);
        assert_eq!(k.process_info(a).unwrap().state, ProcessState::Dead);
        assert!(k.holds(a, Capability::minus(t)).unwrap());
    }

    #[test]
    fn taint_for_read_and_check_write() {
        let k = kernel();
        let app = mk(&k, "app");
        let owner = mk(&k, "owner");
        let e = k.create_tag(owner, TagKind::ExportProtect, "export:o").unwrap();
        let data = LabelPair::new(Label::singleton(e), Label::empty());

        // Reading taints, and reading again what the label covers changes
        // nothing.
        k.taint_for_read(app, &data).unwrap();
        assert_eq!(k.labels(app).unwrap().secrecy, Label::singleton(e));
        k.taint_for_read(app, &data).unwrap();
        assert_eq!(k.labels(app).unwrap().secrecy, Label::singleton(e));
        // Read-protected data it holds no t+ for: refused, labels kept.
        let r = k.create_tag(owner, TagKind::ReadProtect, "read:o").unwrap();
        let locked = LabelPair::new(Label::from_iter([e, r]), Label::empty());
        assert!(matches!(k.taint_for_read(app, &locked), Err(KernelError::Difc(_))));
        assert_eq!(k.labels(app).unwrap().secrecy, Label::singleton(e));
        // Tainted app cannot write public objects.
        assert!(k.check_write(app, &LabelPair::public()).is_err());
        // But can write objects at the same secrecy.
        assert!(k.check_write(app, &data).is_ok());
        // The owner (holding e-) can write public objects even after reading.
        k.taint_for_read(owner, &data).unwrap();
        assert!(k.check_write(owner, &LabelPair::public()).is_ok());
    }

    #[test]
    fn epoch_refill() {
        let k = kernel();
        let a = k.create_process(
            "cpu-bound",
            LabelPair::public(),
            CapSet::empty(),
            ResourceLimits { cpu_per_epoch: 5, ..ResourceLimits::unlimited() },
        );
        k.charge(a, ResourceKind::Cpu, 5).unwrap();
        assert!(k.charge(a, ResourceKind::Cpu, 1).is_err());
        k.refill_epoch();
        assert!(k.charge(a, ResourceKind::Cpu, 1).is_ok());
        assert_eq!(k.cpu_tokens(a).unwrap(), 4);
    }

    #[test]
    fn cross_shard_send_works_both_directions() {
        let k = kernel();
        let a = mk(&k, "a");
        let b = mk(&k, "b");
        k.send_strict(a, b, Bytes::from_static(b"up"), CapSet::empty()).unwrap();
        k.send_strict(b, a, Bytes::from_static(b"down"), CapSet::empty()).unwrap();
        assert_eq!(&k.recv(b).unwrap().unwrap().payload[..], b"up");
        assert_eq!(&k.recv(a).unwrap().unwrap().payload[..], b"down");
    }

    #[test]
    fn self_send_single_shard() {
        let k = kernel();
        let a = mk(&k, "loopback");
        k.send_strict(a, a, Bytes::from_static(b"echo"), CapSet::empty()).unwrap();
        assert_eq!(&k.recv(a).unwrap().unwrap().payload[..], b"echo");
        assert_eq!(k.stats().sends_checked, 1);
    }
}
