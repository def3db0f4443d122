//! Fault storm: hammer one ledger from many threads — writers recording
//! labeled and unlabeled events, readers snapshotting the ring — and
//! check that the ring stays whole under contention:
//!
//! * no panics, no deadlocks (the test finishing is the assertion);
//! * no snapshot holds more than the ring's capacity;
//! * no snapshot holds one `seq` twice.
//!
//! A snapshot need not be in `seq` order: two recorders reserve their
//! `seq` before either takes the ring lock, so under contention the later
//! number can reach the ring first.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use w5_obs::{CheckOp, EventKind, Ledger, ObsLabel};

const SECRET_TAGS: [u64; 3] = [11, 22, 33];

/// Ring capacity of the stormed ledger.
const CAP: usize = 512;

fn storm_kind(rng: &mut StdRng) -> (ObsLabel, EventKind) {
    let secrecy = match rng.gen_range(0..4) {
        0 => ObsLabel::empty(),
        n => ObsLabel::singleton(SECRET_TAGS[n - 1]),
    };
    let kind = match rng.gen_range(0..4) {
        0 => EventKind::ProcSpawn { pid: rng.gen_range(1..100), parent: 0, name: "p".into() },
        1 => EventKind::StoreRead {
            path: "/storm".into(),
            bytes: rng.gen_range(0..4096),
            allowed: rng.gen_bool(0.8),
        },
        2 => EventKind::LabelCheck { op: CheckOp::Read, allowed: rng.gen_bool(0.7) },
        _ => EventKind::DeclassifierInvoke { name: "friends-only".into(), allowed: rng.gen_bool(0.5) },
    };
    (secrecy, kind)
}

#[test]
fn concurrent_storm_keeps_the_ring_bounded_and_seqs_unique() {
    let ledger = Arc::new(Ledger::with_capacity(CAP));
    let stop = Arc::new(AtomicBool::new(false));

    // Writers: 4 threads × 4000 events with mixed labels.
    let writers: Vec<_> = (0..4u64)
        .map(|t| {
            let l = Arc::clone(&ledger);
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(1000 + t);
                for _ in 0..4000 {
                    let (secrecy, kind) = storm_kind(&mut rng);
                    l.record(&secrecy, kind);
                }
            })
        })
        .collect();

    // Readers: 3 threads snapshotting while the writers are mid-flight;
    // every intermediate snapshot must already hold the invariants.
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let l = Arc::clone(&ledger);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut snapshots = 0u32;
                // Stop is checked at the bottom: every reader takes at
                // least one snapshot even if the writers win the scheduling
                // race and finish before this thread first runs.
                loop {
                    let events = l.events();
                    assert!(
                        events.len() <= CAP,
                        "snapshot of {} events past the cap",
                        events.len()
                    );
                    let seqs: HashSet<u64> = events.iter().map(|e| e.seq).collect();
                    assert_eq!(seqs.len(), events.len(), "a seq repeated within a snapshot");
                    snapshots += 1;
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
                snapshots
            })
        })
        .collect();

    for w in writers {
        w.join().expect("writer panicked under storm");
    }
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        let snapshots = r.join().expect("reader panicked under storm");
        assert!(snapshots > 0, "reader never ran");
    }

    // Steady state after the storm: counters account for every event, and
    // the ring is full.
    assert_eq!(ledger.events_recorded(), 4 * 4000);
    assert_eq!(ledger.events().len(), CAP, "the ring must be full after the storm");
}

#[test]
fn digest_is_stable_under_replay_and_sensitive_to_any_event() {
    // Single-threaded replay: identical streams give identical digests…
    let run = |n: u64| {
        let l = Ledger::new();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..n {
            let (s, k) = storm_kind(&mut rng);
            l.record(&s, k);
        }
        l.digest()
    };
    assert_eq!(run(500), run(500));
    // …and one extra event changes the digest.
    assert_ne!(run(500), run(501));
}
