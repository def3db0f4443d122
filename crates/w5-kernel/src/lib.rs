//! # w5-kernel — the simulated operating-system substrate
//!
//! The W5 paper assumes a DIFC operating system (Asbestos, HiStar, or Flume
//! on Linux) underneath the meta-application. This crate is that substrate,
//! scoped to one deterministic in-process "machine":
//!
//! * [`Kernel`] — the system-call surface: labeled [`process`]es, tag
//!   creation, safe label changes, read taint and capability grants.
//!   Processes do not message each other through the kernel: modules talk
//!   through labeled rows in the store (DESIGN.md §7), so every message
//!   passes the same read check as any other datum.
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
//! Nothing here uses wall-clock time or OS randomness: experiments are
//! bit-for-bit reproducible.

#![forbid(unsafe_code)]

pub mod ids;
pub mod kernel;
pub mod process;
pub mod resource;
pub mod sched;

pub use ids::ProcessId;
pub use kernel::{Kernel, KernelError, KernelResult, KernelStats};
pub use process::{ProcessInfo, ProcessState};
pub use resource::{ResourceContainer, ResourceKind, ResourceLimits, ResourceUsage};
pub use resource::QuotaExceeded;
pub use sched::{EpochPacer, Scheduler, SchedulerReport, Step, Task};
