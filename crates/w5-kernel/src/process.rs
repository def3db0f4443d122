//! Process objects: the unit of labeled execution.

use crate::resource::ResourceContainer;
use w5_difc::{CapSet, LabelPair};

/// Lifecycle state of a process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ProcessState {
    /// Eligible to run / perform syscalls.
    Runnable,
    /// Exited; the slot is retained for audit but refuses syscalls.
    Dead,
}

/// Kernel-internal per-process record. Its name is recorded only in the
/// `ProcSpawn` event that [`crate::Kernel::create_process`] writes.
#[derive(Debug)]
pub(crate) struct Process {
    /// Current secrecy/integrity labels.
    pub labels: LabelPair,
    /// Private capability bag `D` (the global bag lives in the registry).
    pub caps: CapSet,
    pub state: ProcessState,
    pub container: ResourceContainer,
}
