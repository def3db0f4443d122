//! # w5-kernel — the simulated operating-system substrate
//!
//! The W5 paper assumes a DIFC operating system (Asbestos, HiStar, or Flume
//! on Linux) underneath the meta-application. This crate is that substrate,
//! scoped to one deterministic in-process "machine":
//!
//! * [`Kernel`] — the system-call surface: labeled [`process`]es, tag
//!   creation, safe label changes, capability grants, message-passing IPC
//!   with flow checks, and labeled spawn.
//! * [`resource`] — resource containers (paper §3.5): CPU / memory / disk /
//!   network budgets per process, enforced at the syscall boundary so a
//!   rogue application cannot degrade the cluster.
//! * [`sched`] — a deterministic round-robin scheduler driving cooperative
//!   tasks, used by the resource-allocation and covert-channel experiments.
//!
//! ## Concurrency
//!
//! [`Kernel`] is `Clone + Send + Sync`; its process table sits behind one
//! mutex that no syscall nests. See the module docs in [`kernel`] and
//! DESIGN.md §14.
//!
//! ## Covert-channel hygiene
//!
//! A flow denial is itself a bit of information. Following Flume, the
//! kernel offers two send flavors: [`Kernel::send`] *silently drops*
//! messages whose delivery would violate flow rules (the sender learns
//! nothing), while [`Kernel::send_strict`] surfaces the denial and is only
//! exposed to trusted platform components. The same discipline appears in
//! `w5-store`, where unreadable rows are silently filtered.
//!
//! Nothing here uses wall-clock time or OS randomness: experiments are
//! bit-for-bit reproducible.

#![forbid(unsafe_code)]

pub mod ids;
pub mod kernel;
pub mod message;
pub mod process;
pub mod resource;
pub mod sched;

pub use ids::ProcessId;
pub use kernel::{Delivery, Kernel, KernelError, KernelResult, KernelStats, SpawnSpec};
pub use message::Message;
pub use process::{ProcessInfo, ProcessState};
pub use resource::{ResourceContainer, ResourceKind, ResourceLimits, ResourceUsage};
pub use resource::QuotaExceeded;
pub use sched::{EpochPacer, Scheduler, SchedulerReport, Step, Task};
