//! Acquisition recording: held stacks, order-graph edges, scoped recorders.
//!
//! The wrappers in the crate root call [`acquire`] on every lock/read/
//! write and drop the returned [`HeldToken`] when the guard drops. The
//! held stack is thread-local and always maintained; the *recording* of
//! edges into a [`Recorder`] happens only when one is reachable:
//!
//! * a thread-scoped recorder installed with [`scoped`] (a sim harness run
//!   installs its recorder in every worker thread it spawns, exactly like
//!   `w5_obs::scoped`), or
//! * the process-global recorder, when [`enable`] has switched it on
//!   (`W5_LOCKDEP=1` in CI test jobs).
//!
//! A [`Recorder`] dedupes facts by key, keeps the first site per edge, and
//! samples an optional lock-free context provider (e.g. a `KernelStats`
//! snapshot) the first time each edge is seen, so a later W5D finding can
//! name the operation mix that was active. [`Recorder::snapshot`] returns
//! a serializable [`ObservedRun`] consumed by `w5-lockdep`.

use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::panic::Location;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Context provider: sampled (lock-free!) when a new edge is first
/// recorded. Must not acquire any classed lock — recording is re-entrancy
/// guarded, so a provider that locks would silently lose its own edges.
pub type ContextFn = dyn Fn() -> String + Send + Sync;

/// One held lock, as seen by the recording thread.
#[derive(Clone, Copy)]
struct Held {
    class: &'static str,
    index: u32,
    token: u64,
}

thread_local! {
    /// Locks currently held by this thread, acquisition order.
    static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
    /// Active `allow_held` annotations (class names, innermost last).
    static ALLOW: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    /// Thread-scoped recorder stack, innermost last.
    static SCOPED: RefCell<Vec<Arc<Recorder>>> = const { RefCell::new(Vec::new()) };
    /// Re-entrancy guard: set while writing into a recorder so a context
    /// provider (or the recorder's own mutex) cannot recurse into us.
    static RECORDING: RefCell<bool> = const { RefCell::new(false) };
}

static GLOBAL_ON: AtomicBool = AtomicBool::new(false);
static NEXT_TOKEN: AtomicU64 = AtomicU64::new(1);

fn global() -> &'static Arc<Recorder> {
    static GLOBAL: OnceLock<Arc<Recorder>> = OnceLock::new();
    GLOBAL.get_or_init(|| Arc::new(Recorder::new()))
}

/// Switch recording into the process-global recorder on or off.
pub fn enable(on: bool) {
    GLOBAL_ON.store(on, Ordering::Relaxed);
}

/// True when the global recorder is collecting. (Thread-scoped recorders
/// collect regardless of this flag.)
pub fn enabled() -> bool {
    GLOBAL_ON.load(Ordering::Relaxed)
}

/// The process-global recorder. Collects only while [`enable`]d.
pub fn global_recorder() -> Arc<Recorder> {
    Arc::clone(global())
}

/// Install `recorder` as this thread's recorder until the guard drops.
/// Nested scopes stack; the innermost wins.
pub fn scoped(recorder: Arc<Recorder>) -> ScopedRecorder {
    SCOPED.with(|s| s.borrow_mut().push(recorder));
    ScopedRecorder { _private: () }
}

/// Guard returned by [`scoped`]; pops the recorder on drop.
pub struct ScopedRecorder {
    _private: (),
}

impl Drop for ScopedRecorder {
    fn drop(&mut self) {
        let _ = SCOPED.try_with(|s| {
            s.borrow_mut().pop();
        });
    }
}

fn current_recorder() -> Option<Arc<Recorder>> {
    if let Some(r) = SCOPED.with(|s| s.borrow().last().cloned()) {
        return Some(r);
    }
    if enabled() {
        return Some(Arc::clone(global()));
    }
    None
}

/// Declare that acquiring `class` while other locks are held is
/// intentional within the returned guard's scope (e.g.
/// `allow_held("obs.ledger")` around a flow-check that must run under a
/// shard guard). Recorded edges into `class` are marked `allowed`, which
/// downgrades W5D006 to silence; blocking sites named `class` are likewise
/// marked for W5D003.
pub fn allow_held(class: &'static str) -> AllowHeldGuard {
    ALLOW.with(|a| a.borrow_mut().push(class));
    AllowHeldGuard { _private: () }
}

/// Guard returned by [`allow_held`]; pops the annotation on drop.
pub struct AllowHeldGuard {
    _private: (),
}

impl Drop for AllowHeldGuard {
    fn drop(&mut self) {
        let _ = ALLOW.try_with(|a| {
            a.borrow_mut().pop();
        });
    }
}

/// Token representing one entry on the thread's held stack. Dropping it
/// (when the owning guard drops) removes the entry by identity, so guards
/// may be released in any order.
pub struct HeldToken {
    token: u64,
}

impl Drop for HeldToken {
    fn drop(&mut self) {
        if self.token == 0 {
            return;
        }
        let token = self.token;
        let _ = HELD.try_with(|h| {
            h.borrow_mut().retain(|e| e.token != token);
        });
    }
}

/// Record the acquisition of `(class, index)` by this thread: emit edges
/// against everything currently held, then push the new entry. Called by
/// the lock wrappers with `#[track_caller]` so the site is the caller's.
#[track_caller]
pub fn acquire(class: &'static str, index: u32) -> HeldToken {
    let site = Location::caller();
    let token = NEXT_TOKEN.fetch_add(1, Ordering::Relaxed);
    let nested = HELD.with(|h| {
        let mut h = h.borrow_mut();
        h.push(Held { class, index, token });
        h.len() > 1
    });
    // The held set is copied out only for a recorder to read: an
    // unrecorded acquisition is one push on this thread's stack.
    if nested {
        if let Some(rec) = current_recorder() {
            let held_now: Vec<Held> = HELD.with(|h| {
                let h = h.borrow();
                h[..h.len() - 1].to_vec()
            });
            let allowed = ALLOW.with(|a| a.borrow().contains(&class));
            record_guarded(|| {
                rec.record_acquisition(&held_now, class, index, site, allowed);
            });
        }
    }
    HeldToken { token }
}

/// Mark a blocking call site (socket write, fs I/O, ledger flush). A
/// no-op when no classed lock is held; otherwise records a blocking event
/// carrying the held set (lint W5D003 unless annotated via
/// [`allow_held`]`(site)` or the manifest).
#[track_caller]
pub fn blocking(site: &'static str) {
    let location = Location::caller();
    if HELD.with(|h| h.borrow().is_empty()) {
        return;
    }
    if let Some(rec) = current_recorder() {
        let held_now: Vec<Held> = HELD.with(|h| h.borrow().clone());
        let allowed = ALLOW.with(|a| a.borrow().contains(&site));
        record_guarded(|| {
            rec.record_blocking(site, &held_now, location, allowed);
        });
    }
}

/// Run `f` with the re-entrancy flag set: classed locks acquired inside
/// (the recorder's own mutex is unclassed, but a careless context
/// provider might lock) do not recurse into recording.
fn record_guarded(f: impl FnOnce()) {
    let entered = RECORDING.with(|r| {
        let mut r = r.borrow_mut();
        if *r {
            false
        } else {
            *r = true;
            true
        }
    });
    if !entered {
        return;
    }
    f();
    let _ = RECORDING.try_with(|r| *r.borrow_mut() = false);
}

// ---------------------------------------------------------------------------
// Recorder
// ---------------------------------------------------------------------------

type EdgeKey = (&'static str, &'static str, bool);
type SameKey = (&'static str, u32, u32, &'static str, u32);
type BlockKey = (&'static str, &'static str, u32);

struct EdgeInfo {
    site_file: &'static str,
    site_line: u32,
    held_index: u32,
    acquired_index: u32,
    count: u64,
    context: Option<String>,
}

struct RunState {
    edges: BTreeMap<EdgeKey, EdgeInfo>,
    same_class: BTreeMap<SameKey, u64>,
    blocking: BTreeMap<BlockKey, (Vec<String>, bool, u64)>,
    notes: Vec<(String, String)>,
}

/// Collects acquisition facts for one run. Cheap to share across threads;
/// facts are deduplicated by key and bounded by the class catalog, not by
/// run length.
pub struct Recorder {
    state: parking_lot::Mutex<RunState>,
    context: parking_lot::Mutex<Option<Box<ContextFn>>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// A fresh, empty recorder.
    pub fn new() -> Recorder {
        Recorder {
            state: parking_lot::Mutex::new(RunState {
                edges: BTreeMap::new(),
                same_class: BTreeMap::new(),
                blocking: BTreeMap::new(),
                notes: Vec::new(),
            }),
            context: parking_lot::Mutex::new(None),
        }
    }

    /// Install a lock-free context provider, sampled once per new edge.
    pub fn set_context_provider(&self, f: Box<ContextFn>) {
        *self.context.lock() = Some(f);
    }

    /// Attach a run-level note (e.g. the store's `scanned` total) that the
    /// report renders next to any findings from this run.
    pub fn note(&self, key: &str, value: &str) {
        self.state.lock().notes.push((key.to_string(), value.to_string()));
    }

    /// Drop all recorded facts (the context provider stays).
    pub fn reset(&self) {
        let mut st = self.state.lock();
        st.edges.clear();
        st.same_class.clear();
        st.blocking.clear();
        st.notes.clear();
    }

    fn record_acquisition(
        &self,
        held: &[Held],
        class: &'static str,
        index: u32,
        site: &Location<'static>,
        allowed: bool,
    ) {
        // Sample context outside the state lock; provider must be lock-free.
        let fresh_context = {
            let needs = {
                let st = self.state.lock();
                held.iter().any(|h| {
                    h.class != class && !st.edges.contains_key(&(h.class, class, allowed))
                })
            };
            if needs {
                self.context.lock().as_ref().map(|f| f())
            } else {
                None
            }
        };
        let mut st = self.state.lock();
        for h in held {
            if h.class == class {
                let key: SameKey = (class, h.index, index, site.file(), site.line());
                *st.same_class.entry(key).or_insert(0) += 1;
            } else {
                let e = st.edges.entry((h.class, class, allowed)).or_insert_with(|| EdgeInfo {
                    site_file: site.file(),
                    site_line: site.line(),
                    held_index: h.index,
                    acquired_index: index,
                    count: 0,
                    context: fresh_context.clone(),
                });
                e.count += 1;
            }
        }
    }

    fn record_blocking(
        &self,
        site: &'static str,
        held: &[Held],
        location: &Location<'static>,
        allowed: bool,
    ) {
        let mut st = self.state.lock();
        let key: BlockKey = (site, location.file(), location.line());
        let entry = st.blocking.entry(key).or_insert_with(|| {
            let held_names =
                held.iter().map(|h| format!("{}#{}", h.class, h.index)).collect::<Vec<_>>();
            (held_names, allowed, 0)
        });
        entry.1 = entry.1 && allowed;
        entry.2 += 1;
    }

    /// Snapshot the recorded facts as a serializable run.
    pub fn snapshot(&self) -> ObservedRun {
        let st = self.state.lock();
        ObservedRun {
            edges: st
                .edges
                .iter()
                .map(|((held, acquired, allowed), info)| ObservedEdge {
                    held: held.to_string(),
                    held_index: info.held_index,
                    acquired: acquired.to_string(),
                    acquired_index: info.acquired_index,
                    site: format!("{}:{}", info.site_file, info.site_line),
                    allowed: *allowed,
                    count: info.count,
                    context: info.context.clone().unwrap_or_default(),
                })
                .collect(),
            same_class: st
                .same_class
                .iter()
                .map(|((class, held_index, acquired_index, file, line), count)| SameClassEvent {
                    class: class.to_string(),
                    held_index: *held_index,
                    acquired_index: *acquired_index,
                    site: format!("{file}:{line}"),
                    count: *count,
                })
                .collect(),
            blocking: st
                .blocking
                .iter()
                .map(|((site, file, line), (held, allowed, count))| BlockingEvent {
                    site: site.to_string(),
                    location: format!("{file}:{line}"),
                    held: held.clone(),
                    allowed: *allowed,
                    count: *count,
                })
                .collect(),
            notes: st
                .notes
                .iter()
                .map(|(k, v)| RunNote { key: k.clone(), value: v.clone() })
                .collect(),
        }
    }
}

// ---------------------------------------------------------------------------
// Serializable run
// ---------------------------------------------------------------------------

/// One deduplicated cross-class acquisition edge.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ObservedEdge {
    /// Class already held when the acquisition happened.
    pub held: String,
    /// Instance index of the held lock (first observation).
    #[serde(default)]
    pub held_index: u32,
    /// Class being acquired.
    pub acquired: String,
    /// Instance index being acquired (first observation).
    #[serde(default)]
    pub acquired_index: u32,
    /// `file:line` of the acquiring call site (first observation).
    pub site: String,
    /// True when an `allow_held(acquired)` annotation was active.
    #[serde(default)]
    pub allowed: bool,
    /// Occurrences recorded.
    #[serde(default)]
    pub count: u64,
    /// Context-provider sample from the first observation ("" if none).
    #[serde(default)]
    pub context: String,
}

/// A second acquisition within one class while an instance is held.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SameClassEvent {
    /// The class acquired twice.
    pub class: String,
    /// Index already held.
    pub held_index: u32,
    /// Index acquired on top of it.
    pub acquired_index: u32,
    /// `file:line` of the acquiring call site.
    pub site: String,
    /// Occurrences recorded.
    #[serde(default)]
    pub count: u64,
}

/// A marked blocking call reached with classed locks held.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BlockingEvent {
    /// Declared blocking-site name, e.g. `net.socket.write`.
    pub site: String,
    /// `file:line` of the marker.
    pub location: String,
    /// Held locks as `class#index`, acquisition order.
    pub held: Vec<String>,
    /// True when every occurrence ran under `allow_held(site)`.
    #[serde(default)]
    pub allowed: bool,
    /// Occurrences recorded.
    #[serde(default)]
    pub count: u64,
}

/// A run-level note attached via [`Recorder::note`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunNote {
    /// Note key, e.g. `store.scanned`.
    pub key: String,
    /// Note value (free-form, often JSON).
    pub value: String,
}

/// Everything one recorder observed: the input to `w5-lockdep` analysis
/// and the JSON payload `w5deadlock` accepts on its command line.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ObservedRun {
    /// Cross-class edges, deduplicated.
    pub edges: Vec<ObservedEdge>,
    /// Same-class double acquisitions.
    #[serde(default)]
    pub same_class: Vec<SameClassEvent>,
    /// Blocking sites reached with locks held.
    #[serde(default)]
    pub blocking: Vec<BlockingEvent>,
    /// Run-level notes.
    #[serde(default)]
    pub notes: Vec<RunNote>,
}

impl ObservedRun {
    /// An empty run.
    pub fn empty() -> ObservedRun {
        ObservedRun { edges: Vec::new(), same_class: Vec::new(), blocking: Vec::new(), notes: Vec::new() }
    }

    /// Merge another run's facts into this one (counts add; `allowed`
    /// weakens to false if either side was unannotated).
    pub fn merge(&mut self, other: &ObservedRun) {
        for e in &other.edges {
            if let Some(mine) = self
                .edges
                .iter_mut()
                .find(|m| m.held == e.held && m.acquired == e.acquired && m.allowed == e.allowed)
            {
                mine.count += e.count;
            } else {
                self.edges.push(e.clone());
            }
        }
        for s in &other.same_class {
            if let Some(mine) = self.same_class.iter_mut().find(|m| {
                m.class == s.class
                    && m.held_index == s.held_index
                    && m.acquired_index == s.acquired_index
                    && m.site == s.site
            }) {
                mine.count += s.count;
            } else {
                self.same_class.push(s.clone());
            }
        }
        for b in &other.blocking {
            if let Some(mine) = self
                .blocking
                .iter_mut()
                .find(|m| m.site == b.site && m.location == b.location)
            {
                mine.count += b.count;
                mine.allowed = mine.allowed && b.allowed;
            } else {
                self.blocking.push(b.clone());
            }
        }
        self.notes.extend(other.notes.iter().cloned());
    }

    /// Every class name appearing anywhere in the run, sorted.
    pub fn classes(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        let mut push = |c: &str| {
            if !out.iter().any(|x| x == c) {
                out.push(c.to_string());
            }
        };
        for e in &self.edges {
            push(&e.held);
            push(&e.acquired);
        }
        for s in &self.same_class {
            push(&s.class);
        }
        for b in &self.blocking {
            for h in &b.held {
                push(h.split('#').next().unwrap_or(h));
            }
        }
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mutex;

    #[test]
    fn blocking_with_no_locks_is_silent() {
        let rec = Arc::new(Recorder::new());
        let _scope = scoped(Arc::clone(&rec));
        blocking("test.noop");
        assert!(rec.snapshot().blocking.is_empty());
    }

    #[test]
    fn blocking_under_a_lock_is_recorded_with_the_held_set() {
        let rec = Arc::new(Recorder::new());
        let m = Mutex::with_index("test.block.holder", 7, ());
        {
            let _scope = scoped(Arc::clone(&rec));
            let _g = m.lock();
            blocking("test.block.site");
        }
        let run = rec.snapshot();
        assert_eq!(run.blocking.len(), 1);
        let b = &run.blocking[0];
        assert_eq!(b.site, "test.block.site");
        assert_eq!(b.held, vec!["test.block.holder#7".to_string()]);
        assert!(!b.allowed);
    }

    #[test]
    fn allow_held_marks_edges_and_blocking() {
        let rec = Arc::new(Recorder::new());
        let outer = Mutex::new("test.allow.outer", ());
        let inner = Mutex::new("test.allow.inner", ());
        {
            let _scope = scoped(Arc::clone(&rec));
            let _g = outer.lock();
            let _permit = allow_held("test.allow.inner");
            let _gi = inner.lock();
            let _permit2 = allow_held("test.allow.site");
            blocking("test.allow.site");
        }
        let run = rec.snapshot();
        assert!(run.edges.iter().all(|e| e.allowed));
        assert!(run.blocking.iter().all(|b| b.allowed));
    }

    #[test]
    fn same_class_events_are_separate_from_edges() {
        let rec = Arc::new(Recorder::new());
        let a = Mutex::with_index("test.same", 0, ());
        let b = Mutex::with_index("test.same", 1, ());
        {
            let _scope = scoped(Arc::clone(&rec));
            let _ga = a.lock();
            let _gb = b.lock();
        }
        let run = rec.snapshot();
        assert!(run.edges.is_empty(), "same-class nesting must not create a cycle-able edge");
        assert_eq!(run.same_class.len(), 1);
        let s = &run.same_class[0];
        assert_eq!((s.held_index, s.acquired_index), (0, 1));
    }

    #[test]
    fn context_provider_is_sampled_on_first_edge() {
        let rec = Arc::new(Recorder::new());
        rec.set_context_provider(Box::new(|| "ops=42".to_string()));
        let a = Mutex::new("test.ctx.a", ());
        let b = Mutex::new("test.ctx.b", ());
        {
            let _scope = scoped(Arc::clone(&rec));
            let _ga = a.lock();
            let _gb = b.lock();
        }
        let run = rec.snapshot();
        assert_eq!(run.edges[0].context, "ops=42");
    }

    #[test]
    fn run_round_trips_through_json_and_merges() {
        let rec = Arc::new(Recorder::new());
        let a = Mutex::new("test.json.a", ());
        let b = Mutex::new("test.json.b", ());
        {
            let _scope = scoped(Arc::clone(&rec));
            let _ga = a.lock();
            let _gb = b.lock();
        }
        rec.note("workload", "unit-test");
        let run = rec.snapshot();
        let json = serde_json::to_string_pretty(&run).unwrap();
        let back: ObservedRun = serde_json::from_str(&json).unwrap();
        assert_eq!(run, back);
        let mut merged = ObservedRun::empty();
        merged.merge(&run);
        merged.merge(&back);
        assert_eq!(merged.edges.len(), 1);
        assert_eq!(merged.edges[0].count, 2 * run.edges[0].count);
        assert_eq!(merged.classes(), vec!["test.json.a".to_string(), "test.json.b".to_string()]);
    }

    #[test]
    fn global_recorder_collects_only_when_enabled() {
        // Serialize access to the global flag with a dedicated lock class
        // so parallel tests in this binary don't interleave enable states.
        let a = Mutex::new("test.global.a", ());
        let b = Mutex::new("test.global.b", ());
        {
            let _ga = a.lock();
            let _gb = b.lock(); // disabled, no scope: nothing recorded
        }
        let before = global_recorder().snapshot();
        assert!(!before.edges.iter().any(|e| e.held.starts_with("test.global")));
        enable(true);
        {
            let _ga = a.lock();
            let _gb = b.lock();
        }
        enable(false);
        let after = global_recorder().snapshot();
        assert!(after.edges.iter().any(|e| e.held == "test.global.a" && e.acquired == "test.global.b"));
    }
}
