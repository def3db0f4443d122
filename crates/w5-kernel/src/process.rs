//! Process objects: the unit of labeled execution.

use crate::ids::ProcessId;
use crate::resource::ResourceContainer;
use w5_difc::{CapSet, LabelPair};

/// Lifecycle state of a process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProcessState {
    /// Eligible to run / perform syscalls.
    Runnable,
    /// Exited; the slot is retained for audit but refuses syscalls.
    Dead,
}

/// Kernel-internal per-process record.
#[derive(Debug)]
pub(crate) struct Process {
    pub id: ProcessId,
    /// Audit name, e.g. `"app:photo/crop@devA"`.
    pub name: String,
    /// Current secrecy/integrity labels.
    pub labels: LabelPair,
    /// Private capability bag `D` (the global bag lives in the registry).
    pub caps: CapSet,
    pub state: ProcessState,
    pub container: ResourceContainer,
}

/// Public, copyable snapshot of process metadata, returned by
/// [`crate::Kernel::process_info`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProcessInfo {
    /// The process id.
    pub id: ProcessId,
    /// Audit name.
    pub name: String,
    /// Current labels.
    pub labels: LabelPair,
    /// Lifecycle state.
    pub state: ProcessState,
}

impl Process {
    pub(crate) fn info(&self) -> ProcessInfo {
        ProcessInfo {
            id: self.id,
            name: self.name.clone(),
            labels: self.labels.clone(),
            state: self.state,
        }
    }
}
