//! The kernel under real thread interleavings — the tier-1 face of
//! `w5_sim::concurrency`.
//!
//! Two claims:
//!
//! 1. **Serial ≡ concurrent** (property) — for any seeded schedule
//!    (2–8 threads, mixed launch/taint/declass/cap traffic), the kernel's
//!    final observable state — labels, capability bags, launch tallies,
//!    counters, ledger aggregates — is identical whether the schedule ran
//!    on real threads or was replayed serially.
//! 2. **Digest regression** — for fixed seeds, the serial replay digest
//!    of the private obs ledger equals golden values (the same event
//!    stream, not merely the same counts), and the platform-level
//!    `ChaosOutcome` digest still replays bit-identically.
//!
//! The kernel arms no fault site, so the kernel schedules here run
//! without a fault storm (`fault_rate: 0.0`); faults are exercised by
//! the platform-level chaos run, which rolls `fs.write` and `sql.query`.
//! Seeding is explicit everywhere: outcomes depend only on the specs
//! below, never on `RUST_TEST_THREADS` or scheduler timing.

use w5_sim::concurrency::{assert_differential, KernelOracle};
use w5_sim::harness::{run, Mode, Spec};
use w5_sim::{run_chaos, ChaosSpec};

// ---- 1. serial ≡ concurrent ----

#[test]
fn threads_agree_with_serial_replay_on_fixed_seeds() {
    for (seed, threads) in [(1u64, 2usize), (42, 4), (20070824, 8)] {
        assert_differential(&Spec { seed, threads, ops_per_thread: 200, fault_rate: 0.0 });
    }
}

mod properties {
    //! Random schedules: proptest picks the shape, every shape must
    //! agree between its threaded run and its serial replay.
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn any_schedule_agrees_threaded_and_serial(
            seed in any::<u64>(),
            threads in 2usize..=8,
            ops in 30usize..120,
        ) {
            assert_differential(&Spec { seed, threads, ops_per_thread: ops, fault_rate: 0.0 });
        }
    }
}

// ---- 2. digest regressions ----

#[test]
fn serial_ledger_digest_matches_the_recorded_stream() {
    // Golden test. These are the serial-run digests of the launch,
    // taint, declassify and capability schedule (EXPERIMENTS.md §P44).
    // The kernel must keep emitting the *same event stream* — FNV digest
    // over events, ring order and counters — for the same schedules.
    for (seed, golden) in [
        (1u64, 0x375f_e2e2_a528_3c6fu64),
        (42, 0x7cd7_e065_b276_f5ba),
        (1007, 0xa59a_63a1_b123_cf06),
        (20070824, 0xdd82_98a9_51d6_c20c),
    ] {
        let spec = Spec { seed, threads: 4, ops_per_thread: 250, fault_rate: 0.0 };
        let digest = run(&KernelOracle, &spec, Mode::Serial).digest;
        assert_eq!(
            digest, golden,
            "seed {seed}: serial ledger digest {digest:#018x} left the recorded reference stream"
        );
    }
}

#[test]
fn chaos_outcome_digest_replays_on_sharded_kernel() {
    // The platform runs on this kernel; the chaos harness's whole-run
    // FNV digest must be a pure function of its seeds.
    let spec = ChaosSpec { seed: 22325, steps: 250, fault_rate: 0.08 };
    let first = run_chaos(&spec);
    let second = run_chaos(&spec);
    assert_eq!(first, second, "ChaosOutcome must replay bit-identically");
    assert!(first.violations.is_empty(), "{:?}", first.violations);
    assert!(first.faults.total_injected() > 0, "storm never fired");
}

#[test]
fn concurrent_outcome_independent_of_run_order() {
    // Same spec, run concurrently twice plus serially once: all equal.
    // Catches timing-dependence smuggled into the outcome type itself.
    let spec = Spec { seed: 1007, threads: 6, ops_per_thread: 180, fault_rate: 0.0 };
    let [a, b, c] = [Mode::Threads, Mode::Threads, Mode::Serial].map(|mode| {
        let r = run(&KernelOracle, &spec, mode);
        (r.outcome, r.faults)
    });
    assert_eq!(a, b, "two concurrent runs of one spec diverged");
    assert_eq!(a, c, "concurrent run diverged from serial replay");
}
