//! The kernel under real thread interleavings — the tier-1 face of
//! `w5_sim::concurrency`.
//!
//! Five claims:
//!
//! 1. **Serial ≡ concurrent** (property) — for any seeded schedule
//!    (2–8 threads, mixed send/spawn/taint/declass/cap traffic, with or
//!    without a `w5-chaos` fault storm), the kernel's final observable
//!    state — labels, capability bags, mailbox depths, counters, ledger
//!    aggregates, per-thread fault tallies — is identical whether the
//!    schedule ran on real threads or was replayed serially.
//! 2. **Deadlock freedom** (unit) — opposite-direction sends, self-sends
//!    and spawns all complete under contention.
//! 3. **No lost taint** — a taint applied by one thread is visible to
//!    every subsequent send from another; concurrency never launders a
//!    label.
//! 4. **Exit/reap under fire** — a process can exit and be reaped while
//!    other threads send to it; nothing is delivered after `exit` returns.
//! 5. **Digest regression** — for fixed seeds, the serial replay digest
//!    of the private obs ledger equals golden values recorded from the
//!    former single-lock reference kernel (the same event stream, not
//!    merely the same counts), and the platform-level `ChaosOutcome`
//!    digest still replays bit-identically.
//!
//! Seeding is explicit everywhere: outcomes depend only on the specs
//! below, never on `RUST_TEST_THREADS` or scheduler timing.

use bytes::Bytes;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use w5_difc::{CapSet, Label, LabelPair, TagKind, TagRegistry};
use w5_kernel::{Delivery, Kernel, KernelError, ProcessId, ResourceLimits, SpawnSpec};
use w5_sim::concurrency::{assert_differential, run_concurrent, run_serial, ConcSpec};
use w5_sim::{run_chaos, ChaosSpec};

fn mk(k: &Kernel, name: &str) -> ProcessId {
    k.create_process(name, LabelPair::public(), CapSet::empty(), ResourceLimits::unlimited())
}

// ---- 1. serial ≡ concurrent ----

#[test]
fn differential_fixed_seeds_calm_and_stormy() {
    for (seed, threads, rate) in
        [(1u64, 2usize, 0.0), (42, 4, 0.05), (20070824, 8, 0.10)]
    {
        assert_differential(&ConcSpec {
            seed,
            threads,
            ops_per_thread: 200,
            fault_rate: rate,
        });
    }
}

mod properties {
    //! Random schedules: proptest picks the shape, every shape must
    //! agree across both arms — including under fault storms.
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn any_schedule_agrees_across_kernels(
            seed in any::<u64>(),
            threads in 2usize..=8,
            ops in 30usize..120,
            rate_pct in 0u32..25,
        ) {
            assert_differential(&ConcSpec {
                seed,
                threads,
                ops_per_thread: ops,
                fault_rate: rate_pct as f64 / 100.0,
            });
        }
    }
}

// ---- 2. deadlock freedom ----

#[test]
fn opposite_direction_cross_shard_sends_never_deadlock() {
    // Thread 1 sends a→b while thread 2 sends b→a. Every send needs both
    // processes at once; any scheme that locked them separately and in
    // argument order would deadlock here almost immediately.
    let k = Kernel::new(Arc::new(TagRegistry::new()));
    let (a, b) = (mk(&k, "a"), mk(&k, "b"));
    const N: usize = 5_000;
    let barrier = Barrier::new(2);
    thread::scope(|s| {
        let k1 = k.clone();
        let k2 = k.clone();
        let b1 = &barrier;
        s.spawn(move || {
            b1.wait();
            for _ in 0..N {
                k1.send_strict(a, b, Bytes::from_static(b"->"), CapSet::empty()).unwrap();
            }
        });
        let b2 = &barrier;
        s.spawn(move || {
            b2.wait();
            for _ in 0..N {
                k2.send_strict(b, a, Bytes::from_static(b"<-"), CapSet::empty()).unwrap();
            }
        });
    });
    assert_eq!(k.stats().sends_checked, 2 * N as u64);
    assert_eq!(k.process_info(a).unwrap().mailbox_len, N);
    assert_eq!(k.process_info(b).unwrap().mailbox_len, N);
}

#[test]
fn self_send_takes_single_shard() {
    let k = Kernel::new(Arc::new(TagRegistry::new()));
    let a = mk(&k, "loop");
    for _ in 0..1_000 {
        k.send_strict(a, a, Bytes::from_static(b"echo"), CapSet::empty()).unwrap();
    }
    assert_eq!(k.process_info(a).unwrap().mailbox_len, 1_000);
}

#[test]
fn concurrent_spawns_into_foreign_shards() {
    // Four parents spawn children at once while sends run between two of
    // them: this must complete without deadlock, every parent link must
    // be intact and no child may be lost.
    let k = Kernel::new(Arc::new(TagRegistry::new()));
    let parents: Vec<ProcessId> = (0..4).map(|i| mk(&k, &format!("p{i}"))).collect();
    const SPAWNS: usize = 400;
    thread::scope(|s| {
        for &parent in &parents {
            let k = k.clone();
            s.spawn(move || {
                for i in 0..SPAWNS {
                    let child = k
                        .spawn(
                            parent,
                            SpawnSpec {
                                name: format!("c{}-{i}", parent.0),
                                labels: LabelPair::public(),
                                grant: CapSet::empty(),
                                limits: ResourceLimits::sandbox_default(),
                            },
                        )
                        .unwrap();
                    assert_eq!(k.process_info(child).unwrap().parent, Some(parent));
                }
            });
        }
        let k2 = k.clone();
        let (a, b) = (parents[0], parents[1]);
        s.spawn(move || {
            for _ in 0..2_000 {
                k2.send_strict(a, b, Bytes::from_static(b"x"), CapSet::empty()).unwrap();
            }
        });
    });
    assert_eq!(k.live_processes(), 4 + 4 * SPAWNS);
}

// ---- 3. no lost taint across threads ----

#[test]
fn taint_applied_in_one_shard_is_seen_by_sends_from_another() {
    // One thread taints the sender; the main thread keeps sending
    // sender→sink. From the moment the tainting thread observes its
    // taint_for_read returned,
    // every *subsequent* send must be dropped — a delivered message
    // after that point would be a lost-taint race.
    for trial in 0..20u64 {
        let k = Kernel::new(Arc::new(TagRegistry::new()));
        let owner = mk(&k, "owner");
        let sender = mk(&k, "sender");
        let sink = mk(&k, "sink");
        let e = k.create_tag(owner, TagKind::ExportProtect, &format!("t{trial}")).unwrap();
        let data = LabelPair::new(Label::singleton(e), Label::empty());
        let tainted = Arc::new(AtomicBool::new(false));

        thread::scope(|s| {
            let kt = k.clone();
            let flag = Arc::clone(&tainted);
            s.spawn(move || {
                // `sender` holds no e-: after this, public sinks are
                // unreachable from it, forever (nothing declassifies).
                kt.taint_for_read(sender, &data).unwrap();
                flag.store(true, Ordering::Release);
            });
            let mut saw_taint = false;
            loop {
                let taint_known = tainted.load(Ordering::Acquire);
                let d = k.send(sender, sink, Bytes::from_static(b"s"), CapSet::empty()).unwrap();
                if taint_known {
                    assert_eq!(
                        d,
                        Delivery::Dropped,
                        "trial {trial}: send delivered after taint was acknowledged"
                    );
                    if saw_taint {
                        break; // two post-taint sends verified
                    }
                    saw_taint = true;
                }
            }
        });
        assert_eq!(k.labels(sender).unwrap().secrecy, Label::singleton(e));
    }
}

// ---- 4. exit / reap under fire ----

#[test]
fn exit_and_reap_race_with_senders() {
    // Senders hammer one target while its owner exits and then reaps it.
    // A send may see the target alive, dead or gone — nothing else — and
    // once `exit` has returned no send may be delivered: the liveness
    // check and the mailbox push are one critical section.
    const SENDERS: usize = 4;
    let k = Kernel::new(Arc::new(TagRegistry::new()));
    let sources: Vec<ProcessId> = (0..SENDERS).map(|i| mk(&k, &format!("src{i}"))).collect();
    let baseline = k.live_processes();
    for trial in 0..50 {
        let target = mk(&k, "target");
        let exited = AtomicBool::new(false);
        let gone = AtomicBool::new(false);
        let start = Barrier::new(SENDERS + 1);
        thread::scope(|s| {
            for &src in &sources {
                let (k, exited, gone, start) = (k.clone(), &exited, &gone, &start);
                s.spawn(move || {
                    start.wait();
                    loop {
                        // Read the flags *before* the send: if they were
                        // already set, the send started after the call
                        // returned.
                        let (was_exited, was_gone) =
                            (exited.load(Ordering::Acquire), gone.load(Ordering::Acquire));
                        match k.send(src, target, Bytes::from_static(b"x"), CapSet::empty()) {
                            Ok(Delivery::Delivered) => {
                                assert!(!was_exited, "trial {trial}: delivered after exit returned")
                            }
                            Err(KernelError::ProcessDead(p)) => {
                                assert_eq!(p, target);
                                assert!(!was_gone, "trial {trial}: dead after reap returned");
                            }
                            Err(KernelError::NoSuchProcess(p)) => assert_eq!(p, target),
                            other => panic!("trial {trial}: unexpected send outcome {other:?}"),
                        }
                        if was_gone {
                            break; // one send verified after the reap
                        }
                    }
                });
            }
            start.wait();
            let exit = k.exit(target);
            exited.store(true, Ordering::Release);
            let queued = k.process_info(target).map(|info| info.mailbox_len);
            let reap = k.reap(target);
            // Release the senders before asserting, so a failure here
            // fails the test instead of leaving them spinning.
            gone.store(true, Ordering::Release);
            assert_eq!((exit, reap), (Ok(()), Ok(())), "trial {trial}");
            assert_eq!(queued, Ok(0), "trial {trial}: exit discards the mailbox for good");
        });
        assert_eq!(k.live_processes(), baseline, "trial {trial}");
    }
}

// ---- 5. digest regressions ----

#[test]
fn serial_ledger_digest_identical_between_kernels() {
    // Golden test. These are the `run_reference_serial` digests of the
    // single-lock reference kernel, recorded at the last commit that
    // carried it (92c06cb; EXPERIMENTS.md §P14). The surviving kernel
    // must still emit the *same event stream* — FNV digest over events,
    // ring order and counters — for the same schedules.
    for (seed, golden) in [
        (1u64, 0x1412_fa64_e623_bc8fu64),
        (42, 0xdeb8_6c32_0fc3_e421),
        (1007, 0x7233_f2a9_f12a_0eb9),
        (20070824, 0x209d_7eaf_6af4_a31e),
    ] {
        let spec = ConcSpec { seed, threads: 4, ops_per_thread: 250, fault_rate: 0.08 };
        let (_, digest) = run_serial(&spec);
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
    let spec = ConcSpec { seed: 1007, threads: 6, ops_per_thread: 180, fault_rate: 0.06 };
    let a = run_concurrent(&spec);
    let b = run_concurrent(&spec);
    let (c, _) = run_serial(&spec);
    assert_eq!(a, b, "two concurrent runs of one spec diverged");
    assert_eq!(a, c, "concurrent run diverged from serial replay");
}
