//! Resource containers (paper §3.5).
//!
//! "Processes must be limited to reasonable amounts of disk, network,
//! memory and CPU usage, lest rogue applications degrade the performance of
//! the W5 cluster." Each process is attached to a [`ResourceContainer`]
//! holding [`ResourceLimits`]; every syscall that consumes a resource
//! charges the container and fails with [`QuotaExceeded`] once the budget
//! is gone.
//!
//! CPU is a *rate*: a token bucket refilled each epoch of an
//! [`EpochPacer`], so a flooding principal is throttled rather than
//! killed. Memory is a *level*:
//! charges and releases move a gauge. Disk and network are *cumulative*
//! within an accounting period.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// The four resource axes of §3.5.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ResourceKind {
    /// CPU ticks per epoch (token bucket).
    Cpu,
    /// Resident bytes (gauge).
    Memory,
    /// Bytes written to storage (cumulative).
    Disk,
    /// Bytes sent to the network layer (cumulative).
    Network,
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ResourceKind::Cpu => "cpu",
            ResourceKind::Memory => "memory",
            ResourceKind::Disk => "disk",
            ResourceKind::Network => "network",
        };
        f.write_str(s)
    }
}

/// A quota violation: which axis, how much was requested, how much remained.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QuotaExceeded {
    /// The exhausted resource.
    pub kind: ResourceKind,
    /// Units requested by the failing charge.
    pub requested: u64,
    /// Units that were still available.
    pub available: u64,
}

impl fmt::Display for QuotaExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} quota exceeded: requested {}, {} available",
            self.kind, self.requested, self.available
        )
    }
}

impl std::error::Error for QuotaExceeded {}

/// Per-container budgets. `u64::MAX` means unlimited.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResourceLimits {
    /// CPU ticks allowed per epoch.
    pub cpu_per_epoch: u64,
    /// Maximum resident bytes.
    pub memory_bytes: u64,
    /// Maximum bytes written to disk per accounting period.
    pub disk_bytes: u64,
    /// Maximum bytes sent per accounting period.
    pub network_bytes: u64,
}

impl ResourceLimits {
    /// No limits — used for trusted platform components.
    pub fn unlimited() -> ResourceLimits {
        ResourceLimits {
            cpu_per_epoch: u64::MAX,
            memory_bytes: u64::MAX,
            disk_bytes: u64::MAX,
            network_bytes: u64::MAX,
        }
    }

    /// The platform's default sandbox for untrusted applications. One
    /// "epoch" is one request for launcher-created instances, so the CPU
    /// budget is a per-request work bound; it is sized to admit a full
    /// maximum-budget database scan (`QueryCost::sandbox_default`, 100k
    /// rows) with room for the app's own logic.
    pub fn sandbox_default() -> ResourceLimits {
        ResourceLimits {
            cpu_per_epoch: 500_000,
            memory_bytes: 64 << 20,
            disk_bytes: 256 << 20,
            network_bytes: 64 << 20,
        }
    }
}

impl Default for ResourceLimits {
    fn default() -> Self {
        ResourceLimits::unlimited()
    }
}

/// A snapshot of cumulative consumption.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResourceUsage {
    /// Total CPU ticks charged over the container's lifetime.
    pub cpu_ticks: u64,
    /// Current resident bytes.
    pub memory_bytes: u64,
    /// Total disk bytes written.
    pub disk_bytes: u64,
    /// Total network bytes sent.
    pub network_bytes: u64,
    /// Number of charges refused.
    pub denials: u64,
}

/// A resource container: limits plus live accounting.
///
/// Containers are owned by the kernel's process table and accessed under
/// its lock, so the fields here are plain integers.
#[derive(Clone, Debug)]
pub struct ResourceContainer {
    limits: ResourceLimits,
    /// CPU tokens remaining in the current epoch.
    cpu_tokens: u64,
    usage: ResourceUsage,
}

impl ResourceContainer {
    /// A container with the given limits, starting with a full CPU bucket.
    pub fn new(limits: ResourceLimits) -> ResourceContainer {
        ResourceContainer {
            limits,
            cpu_tokens: limits.cpu_per_epoch,
            usage: ResourceUsage::default(),
        }
    }

    /// Consumption so far.
    pub fn usage(&self) -> ResourceUsage {
        self.usage
    }

    /// Refill the CPU bucket; called at each epoch boundary.
    pub fn refill_epoch(&mut self) {
        self.cpu_tokens = self.limits.cpu_per_epoch;
    }

    /// Charge `ticks` of CPU. On success the tokens are consumed.
    pub fn charge_cpu(&mut self, ticks: u64) -> Result<(), QuotaExceeded> {
        if ticks > self.cpu_tokens {
            self.usage.denials += 1;
            return Err(QuotaExceeded {
                kind: ResourceKind::Cpu,
                requested: ticks,
                available: self.cpu_tokens,
            });
        }
        self.cpu_tokens -= ticks;
        self.usage.cpu_ticks += ticks;
        Ok(())
    }

    /// Charge resident memory (a gauge: pair with [`release_memory`]).
    ///
    /// [`release_memory`]: ResourceContainer::release_memory
    pub fn charge_memory(&mut self, bytes: u64) -> Result<(), QuotaExceeded> {
        let new = self.usage.memory_bytes.saturating_add(bytes);
        if new > self.limits.memory_bytes {
            self.usage.denials += 1;
            return Err(QuotaExceeded {
                kind: ResourceKind::Memory,
                requested: bytes,
                available: self.limits.memory_bytes - self.usage.memory_bytes,
            });
        }
        self.usage.memory_bytes = new;
        Ok(())
    }

    /// Release previously charged memory.
    pub fn release_memory(&mut self, bytes: u64) {
        self.usage.memory_bytes = self.usage.memory_bytes.saturating_sub(bytes);
    }

    /// Charge bytes written to disk.
    pub fn charge_disk(&mut self, bytes: u64) -> Result<(), QuotaExceeded> {
        let new = self.usage.disk_bytes.saturating_add(bytes);
        if new > self.limits.disk_bytes {
            self.usage.denials += 1;
            return Err(QuotaExceeded {
                kind: ResourceKind::Disk,
                requested: bytes,
                available: self.limits.disk_bytes - self.usage.disk_bytes,
            });
        }
        self.usage.disk_bytes = new;
        Ok(())
    }

    /// Charge bytes handed to the network layer.
    pub fn charge_network(&mut self, bytes: u64) -> Result<(), QuotaExceeded> {
        let new = self.usage.network_bytes.saturating_add(bytes);
        if new > self.limits.network_bytes {
            self.usage.denials += 1;
            return Err(QuotaExceeded {
                kind: ResourceKind::Network,
                requested: bytes,
                available: self.limits.network_bytes - self.usage.network_bytes,
            });
        }
        self.usage.network_bytes = new;
        Ok(())
    }
}

impl Default for ResourceContainer {
    fn default() -> Self {
        ResourceContainer::new(ResourceLimits::unlimited())
    }
}

/// A deterministic epoch clock for the CPU token buckets: the HTTP
/// request pipeline's admission stage (`w5_platform::NetAdmission`)
/// charges each admitted request against its principal's container and
/// ticks the pacer on every charge. Virtual time is counted in charges,
/// not wall-clock time: every `period` ticks the caller is told to run
/// [`crate::Kernel::refill_epoch`], so throttling replays exactly.
#[derive(Debug)]
pub struct EpochPacer {
    period: u64,
    count: AtomicU64,
}

impl EpochPacer {
    /// A pacer that completes an epoch every `period` ticks. A period of
    /// zero never completes an epoch (token buckets are then cumulative
    /// over the process lifetime).
    pub fn new(period: u64) -> EpochPacer {
        EpochPacer { period, count: AtomicU64::new(0) }
    }

    /// Count one tick; true when this tick closes an epoch and the caller
    /// should refill the kernel's token buckets.
    pub fn tick(&self) -> bool {
        if self.period == 0 {
            return false;
        }
        let n = self.count.fetch_add(1, Ordering::Relaxed) + 1;
        n.is_multiple_of(self.period)
    }

    /// The configured epoch length (0 = epochs never complete).
    pub fn period(&self) -> u64 {
        self.period
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_bucket_throttles_and_refills() {
        let mut rc = ResourceContainer::new(ResourceLimits {
            cpu_per_epoch: 10,
            ..ResourceLimits::unlimited()
        });
        assert!(rc.charge_cpu(7).is_ok());
        assert!(rc.charge_cpu(3).is_ok());
        let err = rc.charge_cpu(1).unwrap_err();
        assert_eq!(err.kind, ResourceKind::Cpu);
        assert_eq!(err.available, 0);
        rc.refill_epoch();
        assert!(rc.charge_cpu(10).is_ok());
        assert_eq!(rc.usage().cpu_ticks, 20);
        assert_eq!(rc.usage().denials, 1);
    }

    #[test]
    fn memory_is_a_gauge() {
        let mut rc = ResourceContainer::new(ResourceLimits {
            memory_bytes: 100,
            ..ResourceLimits::unlimited()
        });
        assert!(rc.charge_memory(60).is_ok());
        assert!(rc.charge_memory(50).is_err());
        rc.release_memory(30);
        assert!(rc.charge_memory(50).is_ok());
        assert_eq!(rc.usage().memory_bytes, 80);
    }

    #[test]
    fn disk_and_network_are_cumulative() {
        let mut rc = ResourceContainer::new(ResourceLimits {
            disk_bytes: 10,
            network_bytes: 5,
            ..ResourceLimits::unlimited()
        });
        assert!(rc.charge_disk(10).is_ok());
        assert!(rc.charge_disk(1).is_err());
        assert!(rc.charge_network(5).is_ok());
        assert!(rc.charge_network(1).is_err());
        assert_eq!(rc.usage().denials, 2);
    }

    #[test]
    fn unlimited_never_denies() {
        let mut rc = ResourceContainer::default();
        for _ in 0..1000 {
            rc.charge_cpu(u32::MAX as u64).unwrap();
            rc.charge_disk(1 << 40).unwrap();
        }
        assert_eq!(rc.usage().denials, 0);
    }

    #[test]
    fn quota_error_display() {
        let e = QuotaExceeded { kind: ResourceKind::Disk, requested: 9, available: 3 };
        assert_eq!(format!("{e}"), "disk quota exceeded: requested 9, 3 available");
    }
}
