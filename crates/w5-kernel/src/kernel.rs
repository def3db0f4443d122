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
//! a label change's check-and-set is atomic by construction. Critical
//! sections are short: a read taint whose data is already covered asks
//! only the zero-privilege question of the labels as they stand
//! ([`rules::can_flow_unprivileged`], an allocation-free merge) and
//! defers its ledger write until the guard has dropped.
//!
//! Flow-decision counters ([`KernelStats`]) are relaxed atomics outside
//! the lock: exact totals, no ordering claims between counters, readable
//! while the table is locked elsewhere.

use crate::ids::ProcessId;
use crate::process::{Process, ProcessInfo, ProcessState};
use crate::resource::{QuotaExceeded, ResourceContainer, ResourceKind, ResourceLimits, ResourceUsage};
use w5_sync::{lockdep, Mutex};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock};
use w5_difc::{rules, CapSet, DifcError, LabelPair, Tag, TagKind, TagRegistry};

/// Errors surfaced by kernel syscalls.
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
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::NoSuchProcess(p) => write!(f, "no such process {p}"),
            KernelError::ProcessDead(p) => write!(f, "process {p} has exited"),
            KernelError::Difc(e) => write!(f, "flow control: {e}"),
            KernelError::Quota(e) => write!(f, "resource: {e}"),
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

// The span name, shared: a sampled span records it without allocating.
static SPAN_CREATE_PROCESS: LazyLock<w5_obs::Name> = LazyLock::new(|| "kernel.create_process".into());

/// Result alias for kernel syscalls.
pub type KernelResult<T> = Result<T, KernelError>;

/// Flow-decision counters, for the evaluation harnesses. Serializable
/// so lockdep reports can name the operation mix active when an
/// acquisition edge was recorded ([`Kernel::stats`] is lock-free).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct KernelStats {
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
    label_changes: AtomicU64,
    label_changes_denied: AtomicU64,
}

/// The liveness gate every mutating or deciding syscall goes through:
/// an unknown pid is `NoSuchProcess`, an exited one `ProcessDead`.
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

    /// Trusted process creation, the kernel's only way to start a process
    /// (used by the platform for launchers, exporters and app instances).
    /// No reachability check: the platform decides initial labels per user
    /// policy.
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
            container: ResourceContainer::new(limits),
        };
        self.shared.procs.lock().insert(id, proc);
        w5_obs::record(
            secrecy.to_obs(),
            w5_obs::EventKind::ProcSpawn { pid: id.0, parent: 0, name: name.to_string() },
        );
        id
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
        // process-table guard; intentional (the labels under validation
        // live inside the guarded table).
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

    /// Terminate a process. Further syscalls fail with
    /// [`KernelError::ProcessDead`]; only the read-only views
    /// (`process_info`, `labels`, `caps`, `effective_caps`, `subject`,
    /// `usage`, `cpu_tokens`) keep answering until [`Kernel::reap`].
    /// Idempotent on an already-dead process.
    pub fn exit(&self, pid: ProcessId) -> KernelResult<()> {
        let mut procs = self.shared.procs.lock();
        let p = procs.get_mut(&pid).ok_or(KernelError::NoSuchProcess(pid))?;
        p.state = ProcessState::Dead;
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

}

#[cfg(test)]
mod tests {
    use super::*;
    use w5_difc::{Capability, Label};

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
        assert_eq!(k.live_processes(), 1);
    }

    #[test]
    fn change_labels_follows_the_safe_change_rule() {
        let k = kernel();
        let owner = mk(&k, "owner");
        let app = mk(&k, "app");
        let e = k.create_tag(owner, TagKind::ExportProtect, "export:o").unwrap();
        let r = k.create_tag(owner, TagKind::ReadProtect, "read:o").unwrap();
        let at = |t: Tag| LabelPair::new(Label::singleton(t), Label::empty());

        // Raising to an export tag is free (`t+` is global); coming back
        // down needs the `t-` only its creator holds.
        k.change_labels(app, at(e)).unwrap();
        assert!(matches!(k.change_labels(app, LabelPair::public()), Err(KernelError::Difc(_))));
        assert_eq!(k.labels(app).unwrap(), at(e), "a refused change leaves the labels");
        // A read-protect tag keeps its `t+` private until granted.
        assert!(k.change_labels(app, at(r)).is_err());
        k.grant_caps(app, &CapSet::from_caps([Capability::plus(r)])).unwrap();
        k.change_labels(app, LabelPair::new(Label::from_iter([e, r]), Label::empty())).unwrap();
        // The creator declassifies until it sheds its `t-`.
        k.change_labels(owner, at(e)).unwrap();
        k.change_labels(owner, LabelPair::public()).unwrap();
        k.change_labels(owner, at(e)).unwrap();
        k.drop_caps(owner, &CapSet::from_caps([Capability::minus(e)])).unwrap();
        assert!(k.change_labels(owner, LabelPair::public()).is_err());

        let stats = k.stats();
        assert_eq!((stats.label_changes, stats.label_changes_denied), (8, 3));
    }

    #[test]
    fn exit_and_reap() {
        let k = kernel();
        let a = mk(&k, "a");
        let b = mk(&k, "b");
        k.exit(b).unwrap();
        assert_eq!(k.charge(b, ResourceKind::Network, 1), Err(KernelError::ProcessDead(b)));
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
        assert_eq!(k.change_labels(a, LabelPair::public()), dead);
        assert_eq!(k.taint_for_read(a, &LabelPair::public()), dead);

        // The post-mortem views still answer, and nothing above moved them.
        assert_eq!(k.caps(a).unwrap(), caps);
        assert_eq!(k.usage(a).unwrap(), usage);
        assert_eq!(k.process_info(a).unwrap().state, ProcessState::Dead);
        assert!(k.caps(a).unwrap().has_minus(t));
    }

    #[test]
    fn taint_for_read_raises_and_refuses() {
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
        // Its creator holds the t+ and reads it.
        k.taint_for_read(owner, &locked).unwrap();
        assert_eq!(k.labels(owner).unwrap().secrecy, Label::from_iter([e, r]));
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
}
