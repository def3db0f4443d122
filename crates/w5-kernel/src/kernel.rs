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
//! a read taint's check-and-raise is atomic by construction. The taint is
//! the only way a process's labels change after creation: its
//! capabilities are fixed by [`Kernel::create_process`], and tags come
//! from the [`TagRegistry`]. Critical sections are short: a read taint
//! whose data is already covered asks only the zero-privilege question
//! of the labels as they stand ([`rules::can_flow_unprivileged`], an
//! allocation-free merge) and defers its ledger write until the guard
//! has dropped.

use crate::ids::ProcessId;
use crate::process::{Process, ProcessState};
use crate::resource::{QuotaExceeded, ResourceContainer, ResourceKind, ResourceLimits, ResourceUsage};
use w5_sync::{lockdep, Mutex};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock};
use w5_difc::{rules, CapSet, DifcError, LabelPair, TagRegistry};

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

/// Kernel counters, read by the socket-to-store benchmark.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Always 0: the kernel has no label-change syscall (a read taint is
    /// the one way labels move). Kept because `w5bench` reports it as
    /// `kernel.label_changes_per_req`.
    pub label_changes: u64,
}

type ProcMap = HashMap<ProcessId, Process>;

struct Shared {
    registry: Arc<TagRegistry>,
    procs: Mutex<ProcMap>,
    next_pid: AtomicU64,
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

    /// Trusted process creation, the kernel's only way to start a process
    /// (used by the platform for launchers, exporters and app instances).
    /// No reachability check: the platform decides initial labels and the
    /// capability bag per user policy, and no syscall changes the bag
    /// afterwards.
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

    /// Current labels of a process.
    pub fn labels(&self, pid: ProcessId) -> KernelResult<LabelPair> {
        self.view(pid, |p| p.labels.clone())
    }

    /// The capabilities a store call should carry for the process: its
    /// private bag, which is all a subject needs. The global bag `Ô` is
    /// not added: the flow rules apply it themselves, as the registry's
    /// kind rule (see [`TagRegistry::held`]).
    pub fn effective_caps(&self, pid: ProcessId) -> KernelResult<CapSet> {
        self.view(pid, |p| p.caps.clone())
    }

    /// The process's labels and private bag, read under one lock: what a
    /// store call's subject carries. Neither clone allocates (labels share
    /// their storage).
    pub fn subject(&self, pid: ProcessId) -> KernelResult<(LabelPair, CapSet)> {
        self.view(pid, |p| (p.labels.clone(), p.caps.clone()))
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

    /// Refill every live process's CPU bucket: an epoch boundary of the
    /// request-counted [`crate::EpochPacer`].
    pub fn refill_epoch(&self) {
        for p in self.shared.procs.lock().values_mut() {
            if p.state != ProcessState::Dead {
                p.container.refill_epoch();
            }
        }
    }

    /// Terminate a process. Further syscalls fail with
    /// [`KernelError::ProcessDead`]; only the read-only views (`labels`,
    /// `effective_caps`, `subject`, `usage`) keep answering until
    /// [`Kernel::reap`].
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

    /// Kernel counters (see [`KernelStats`]).
    pub fn stats(&self) -> KernelStats {
        KernelStats::default()
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
    use w5_difc::{Capability, Label, Tag, TagKind};

    fn kernel() -> Kernel {
        Kernel::new(Arc::new(TagRegistry::new()))
    }

    /// A kernel and the registry it reads tag kinds from.
    fn kernel_and_registry() -> (Kernel, Arc<TagRegistry>) {
        let registry = Arc::new(TagRegistry::new());
        (Kernel::new(Arc::clone(&registry)), registry)
    }

    fn mk(k: &Kernel, name: &str) -> ProcessId {
        k.create_process(name, LabelPair::public(), CapSet::empty(), ResourceLimits::unlimited())
    }

    #[test]
    fn create_and_info() {
        let k = kernel();
        let caps = CapSet::from_caps([Capability::plus(Tag::from_raw(7))]);
        let pid = k.create_process("a", LabelPair::public(), caps.clone(), ResourceLimits::unlimited());
        assert_eq!(k.labels(pid).unwrap(), LabelPair::public());
        assert_eq!(k.effective_caps(pid).unwrap(), caps);
        assert_eq!(k.subject(pid).unwrap(), (LabelPair::public(), caps));
        assert_eq!(k.usage(pid).unwrap(), ResourceUsage::default());
        assert_eq!(k.live_processes(), 1);
        assert_eq!(k.stats(), KernelStats::default());
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
        assert_eq!(k.labels(b), Err(KernelError::NoSuchProcess(b)));
        assert_eq!(k.live_processes(), 1);
    }

    #[test]
    fn dead_process_refuses_mutating_and_deciding_syscalls() {
        let (k, registry) = kernel_and_registry();
        let (r, r_caps) = registry.create_tag(TagKind::ReadProtect, "read:a");
        let a = k.create_process("a", LabelPair::public(), r_caps.clone(), ResourceLimits::unlimited());
        k.charge(a, ResourceKind::Memory, 7).unwrap();
        let usage = k.usage(a).unwrap();
        k.exit(a).unwrap();

        // Neither a charge nor a read taint reaches a dead process, not
        // even one its capabilities would allow.
        let dead = Err(KernelError::ProcessDead(a));
        let secret = LabelPair::new(Label::singleton(r), Label::empty());
        for kind in [ResourceKind::Cpu, ResourceKind::Memory, ResourceKind::Disk, ResourceKind::Network] {
            assert_eq!(k.charge(a, kind, 1), dead);
        }
        assert_eq!(k.taint_for_read(a, &LabelPair::public()), dead);
        assert_eq!(k.taint_for_read(a, &secret), dead);

        // The post-mortem views still answer, and nothing above moved them.
        assert_eq!(k.labels(a).unwrap(), LabelPair::public());
        assert_eq!(k.effective_caps(a).unwrap(), r_caps);
        assert_eq!(k.usage(a).unwrap(), usage);
        assert_eq!(k.live_processes(), 0);
    }

    #[test]
    fn taint_for_read_raises_and_refuses() {
        let (k, registry) = kernel_and_registry();
        let (e, _) = registry.create_tag(TagKind::ExportProtect, "export:o");
        let (r, r_caps) = registry.create_tag(TagKind::ReadProtect, "read:o");
        let app = mk(&k, "app");
        let owner = k.create_process("owner", LabelPair::public(), r_caps, ResourceLimits::unlimited());
        let data = LabelPair::new(Label::singleton(e), Label::empty());

        // Reading taints, and reading again what the label covers changes
        // nothing.
        k.taint_for_read(app, &data).unwrap();
        assert_eq!(k.labels(app).unwrap().secrecy, Label::singleton(e));
        k.taint_for_read(app, &data).unwrap();
        assert_eq!(k.labels(app).unwrap().secrecy, Label::singleton(e));
        // Read-protected data it holds no t+ for: refused, labels kept.
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
        k.charge(a, ResourceKind::Cpu, 4).unwrap();
        assert!(k.charge(a, ResourceKind::Cpu, 2).is_err(), "one token left after the refill");
        assert_eq!(k.usage(a).unwrap().cpu_ticks, 9);
    }
}
