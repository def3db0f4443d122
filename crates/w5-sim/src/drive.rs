//! The one schedule driver behind the kernel, store and net oracles.
//!
//! Each oracle owns a list of per-sequence contexts (one per simulated
//! thread or client) and replays them either serially or on one real OS
//! thread each. The scoped ledger, the lock-order recorder and the chaos
//! injector are all thread-local, so the threaded arm has to carry the
//! caller's ledger and recorder into every thread; [`drive`] is the only
//! place that knows that.

use std::sync::Arc;
use std::thread;
use w5_sync::lockdep;

/// Run `step(i, &mut items[i])` for every sequence and return the results
/// in sequence order. Sequence `i` runs under `injectors[i]` in both modes,
/// so the fault stream it sees is a pure function of its own plan.
/// `concurrent` gives each sequence its own scoped thread, recording into
/// the ledger and lock-order recorder the caller has scoped (it must have
/// scoped both); otherwise the sequences run one after another right here.
pub(crate) fn drive<C: Send, R: Send>(
    items: &mut [C],
    injectors: &[Arc<w5_chaos::Injector>],
    concurrent: bool,
    step: impl Fn(usize, &mut C) -> R + Sync,
) -> Vec<R> {
    assert_eq!(items.len(), injectors.len(), "one injector per sequence");
    let sequences = items.iter_mut().zip(injectors).enumerate();
    if !concurrent {
        return sequences
            .map(|(i, (item, injector))| {
                let _chaos = w5_chaos::with_injector(Arc::clone(injector));
                step(i, item)
            })
            .collect();
    }
    let ledger = w5_obs::current_scoped().expect("caller scopes a ledger");
    let recorder = lockdep::current_scoped().expect("caller scopes a lock-order recorder");
    let step = &step;
    thread::scope(|s| {
        let handles: Vec<_> = sequences
            .map(|(i, (item, injector))| {
                let (ledger, recorder) = (Arc::clone(&ledger), Arc::clone(&recorder));
                s.spawn(move || {
                    let _obs = w5_obs::scoped(ledger);
                    let _lockdep = lockdep::scoped(recorder);
                    let _chaos = w5_chaos::with_injector(Arc::clone(injector));
                    step(i, item)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("sequence thread panicked")).collect()
    })
}
