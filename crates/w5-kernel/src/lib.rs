//! # w5-kernel — the simulated operating-system substrate
//!
//! The W5 paper assumes a DIFC operating system (Asbestos, HiStar, or Flume
//! on Linux) underneath the meta-application. This crate is the part of
//! that substrate a request reaches:
//!
//! * [`Kernel`] — labeled processes in one table: creation with fixed
//!   labels and capabilities, read taint (the one way a process's labels
//!   change), resource charges, exit and reap. Tags come from the
//!   platform's [`w5_difc::TagRegistry`]. Processes do not message each
//!   other through the kernel: modules talk through labeled rows in the
//!   store (DESIGN.md §7), so every message passes the same read check as
//!   any other datum.
//! * [`resource`] — resource containers (paper §3.5): CPU / memory / disk /
//!   network budgets per process, enforced at the syscall boundary, and
//!   the request-counted [`EpochPacer`] that refills the CPU buckets. The
//!   HTTP pipeline's admission stage charges them, so a rogue principal
//!   cannot degrade the cluster.
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
mod process;
pub mod resource;

pub use ids::ProcessId;
pub use kernel::{Kernel, KernelError, KernelResult, KernelStats};
pub use resource::{EpochPacer, ResourceContainer, ResourceKind, ResourceLimits, ResourceUsage};
pub use resource::QuotaExceeded;
