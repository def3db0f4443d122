//! Fault storm: hammer one ledger from many threads — writers recording
//! labeled and unlabeled events, viewers snapshotting with every
//! clearance — and check that the covert-channel defenses hold under
//! contention exactly as they do single-threaded:
//!
//! * no panics, no deadlocks (the test finishing is the assertion);
//! * every redacted view's aggregate is floored to [`QUANTUM`];
//! * every redacted view's sequence numbers are dense from zero;
//! * no view ever contains an event its clearance does not cover.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use w5_obs::ledger::QUANTUM;
use w5_obs::{CheckOp, EventKind, Ledger, ObsLabel};

const SECRET_TAGS: [u64; 3] = [11, 22, 33];

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
        2 => EventKind::LabelCheck { op: CheckOp::Flow, allowed: rng.gen_bool(0.7) },
        _ => EventKind::DeclassifierInvoke { name: "friends-only".into(), allowed: rng.gen_bool(0.5) },
    };
    (secrecy, kind)
}

#[test]
fn concurrent_storm_upholds_redaction_invariants() {
    let ledger = Arc::new(Ledger::with_capacity(512));
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

    // Viewers: 3 threads snapshotting with rotating clearances while the
    // writers are mid-flight; every intermediate view must already honor
    // the invariants (they are not post-hoc cleanup).
    let viewers: Vec<_> = (0..3u64)
        .map(|t| {
            let l = Arc::clone(&ledger);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let clearances = [
                    ObsLabel::empty(),
                    ObsLabel::singleton(SECRET_TAGS[0]),
                    ObsLabel::from_tags(SECRET_TAGS),
                ];
                let mut i = t as usize;
                let mut views = 0u32;
                // Stop is checked at the bottom: every viewer takes at
                // least one view even if the writers win the scheduling
                // race and finish before this thread first runs.
                loop {
                    let clearance = &clearances[i % clearances.len()];
                    i += 1;
                    let v = l.view(clearance);
                    for e in &v.events {
                        assert!(
                            e.secrecy.is_subset(clearance),
                            "view leaked an event above its clearance"
                        );
                    }
                    if v.redacted {
                        for (layer, n) in v.aggregate.events.iter().chain(v.aggregate.denied.iter())
                        {
                            assert_eq!(n % QUANTUM, 0, "unquantized {layer} count {n} in redacted view");
                        }
                        for (ix, e) in v.events.iter().enumerate() {
                            assert_eq!(e.seq, ix as u64, "redacted view seqs must be dense");
                        }
                    }
                    views += 1;
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
                views
            })
        })
        .collect();

    for w in writers {
        w.join().expect("writer panicked under storm");
    }
    stop.store(true, Ordering::Relaxed);
    for v in viewers {
        let views = v.join().expect("viewer panicked under storm");
        assert!(views > 0, "viewer never ran");
    }

    // Steady state after the storm: counters account for every event.
    assert_eq!(ledger.events_recorded(), 4 * 4000);
    let full = ledger.view(&ObsLabel::from_tags(SECRET_TAGS));
    assert!(!full.redacted, "full clearance must see everything");
    let zero = ledger.view(&ObsLabel::empty());
    assert!(zero.redacted, "a storm with labeled events must redact the empty view");
    assert!(
        zero.events.iter().all(|e| e.secrecy.is_subset(&ObsLabel::empty())),
        "zero clearance recovered a labeled event"
    );
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
