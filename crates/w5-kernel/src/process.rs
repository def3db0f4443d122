//! Process objects: the unit of labeled execution.

use crate::ids::ProcessId;
use crate::message::Message;
use crate::resource::ResourceContainer;
use std::collections::VecDeque;
use w5_difc::{CapSet, LabelPair};

/// Lifecycle state of a process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProcessState {
    /// Eligible to run / perform syscalls.
    Runnable,
    /// Waiting on a mailbox receive.
    Blocked,
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
    pub mailbox: VecDeque<Message>,
    pub container: ResourceContainer,
    /// Parent process, if spawned rather than created by the platform.
    pub parent: Option<ProcessId>,
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
    /// Queued messages.
    pub mailbox_len: usize,
    /// Parent, if any.
    pub parent: Option<ProcessId>,
}

impl Process {
    pub(crate) fn info(&self) -> ProcessInfo {
        ProcessInfo {
            id: self.id,
            name: self.name.clone(),
            labels: self.labels.clone(),
            state: self.state,
            mailbox_len: self.mailbox.len(),
            parent: self.parent,
        }
    }
}
