//! Lock-order gate under every [`crate::harness`] run.
//!
//! Each run installs a scoped [`w5_sync::lockdep::Recorder`] and the
//! harness carries it into every sequence thread (with the scoped ledger
//! and the chaos injectors), so the run leaves behind an order graph of
//! every classed-lock acquisition it performed. [`enforce`] then
//! replays that graph through `w5-lockdep` against the workspace manifest
//! and panics if any finding reaches the deny threshold — a deadlock
//! hazard observed under test is a test failure, not a log line.
//!
//! The threshold comes from `W5_LOCKDEP_DENY` (`info` | `warning` |
//! `error`, default `error`); set it to `off` to record without gating.

use w5_lockdep::{analyze, Manifest, Severity};
use w5_sync::lockdep;

/// The deny threshold from `W5_LOCKDEP_DENY`; `None` means the gate is off.
fn deny_threshold() -> Option<Severity> {
    match std::env::var("W5_LOCKDEP_DENY") {
        Err(_) => Some(Severity::Error),
        Ok(v) if v.eq_ignore_ascii_case("off") => None,
        Ok(v) => Some(v.parse().unwrap_or(Severity::Error)),
    }
}

/// Check the run's order graph against the workspace manifest. Panics
/// with the human-readable report when any finding is at or above the
/// deny threshold.
pub fn enforce(recorder: &lockdep::Recorder, harness: &str) {
    let Some(deny) = deny_threshold() else {
        return;
    };
    let run = recorder.snapshot();
    let report = analyze(&Manifest::workspace(), &run);
    assert!(
        report.passes(deny),
        "w5-lockdep: {harness} harness recorded lock-order findings at or above `{}`:\n{}",
        deny.name(),
        report.render_human(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn clean_run_passes_the_gate() {
        let rec = Arc::new(lockdep::Recorder::new());
        {
            let _scope = lockdep::scoped(Arc::clone(&rec));
            let a = w5_sync::Mutex::with_index("difc.registry", 0, ());
            let b = w5_sync::Mutex::with_index("difc.registry", 1, ());
            let _ga = a.lock();
            let _gb = b.lock();
        }
        enforce(&rec, "unit");
    }

    #[test]
    #[should_panic(expected = "lock-order findings")]
    fn inverted_run_panics() {
        let rec = Arc::new(lockdep::Recorder::new());
        {
            let _scope = lockdep::scoped(Arc::clone(&rec));
            let a = w5_sync::Mutex::with_index("difc.registry", 0, ());
            let b = w5_sync::Mutex::with_index("difc.registry", 1, ());
            let _gb = b.lock();
            let _ga = a.lock();
        }
        enforce(&rec, "unit");
    }
}
