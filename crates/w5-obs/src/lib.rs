//! # w5-obs — the label-aware flow ledger
//!
//! Unified tracing, metrics and audit for the whole W5 stack. Every layer
//! (kernel, DIFC rules, platform, net, store) records typed [`Event`]s and
//! timed [`SpanRecord`]s into one process-wide [`Ledger`]; each carries
//! the **secrecy label of the flow it describes**. The ledger is the
//! operator's record and has no other reader: [`Ledger::events`],
//! [`Ledger::spans`] and [`Ledger::aggregate`] return everything, labels
//! and exact timings included. Its rings are bounded and shared across
//! labels, so what a hidden flow records decides what survives of a
//! public one — the §3.5 covert channel, were anyone below the operator
//! to read them. Users and developers see observations only through logs
//! partitioned by what they own (`/audit`, `/dev/faults`; DESIGN §9).
//!
//! Layering: this crate sits *below* `w5-difc` so that even the flow rules
//! themselves can be instrumented. That makes it the lowest crate that
//! needs a tag set, so the workspace's one sorted-set implementation lives
//! here: [`ObsLabel`] is the set over raw tag ids, and `w5_difc::Label` is
//! a typed view over it.
//!
//! Cost model: counters are lock-free atomics on every path; the bounded
//! event ring and span ring take a short mutex. The hottest
//! call sites (per-message flow checks in `w5-difc::rules`) use
//! [`Ledger::count_check`], which only touches atomics for passes and
//! reserves ring writes for denials plus a deterministic 1-in-16 sample
//! of passes; a statement that decides one verdict per partition hands
//! them over together through a [`CheckBatch`].

#![forbid(unsafe_code)]

pub mod event;
pub mod histogram;
pub mod label;
pub mod ledger;
pub mod trace;

pub use event::{CheckOp, Event, EventKind, Layer, Name};
pub use histogram::Histogram;
pub use label::ObsLabel;
pub use ledger::{Aggregate, Check, Ledger};
pub use trace::{SpanRecord, TraceContext, TRACE_HEADER};

use std::cell::RefCell;
use std::sync::{Arc, OnceLock};

static GLOBAL: OnceLock<Ledger> = OnceLock::new();

thread_local! {
    static SCOPED: RefCell<Vec<Arc<Ledger>>> = const { RefCell::new(Vec::new()) };
}

/// The process-wide ledger all instrumentation records into.
pub fn global() -> &'static Ledger {
    GLOBAL.get_or_init(Ledger::new)
}

/// Redirects this thread's [`record`]/[`count_check`]/[`span`] calls into a
/// private ledger for the guard's lifetime. Guards nest; the innermost
/// ledger wins. The chaos harness uses this to collect a per-run event
/// stream whose [`Ledger::digest`] is unpolluted by concurrently running
/// tests (which write to the global ledger from their own threads).
pub struct ScopedLedger {
    _private: (),
}

impl Drop for ScopedLedger {
    fn drop(&mut self) {
        SCOPED.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// Install `ledger` as this thread's recording target until the returned
/// guard drops. The scope is thread-local: a thread spawned inside it
/// records into the global ledger unless it installs the scope too, as
/// `w5_sim::harness` does for every sequence thread.
pub fn scoped(ledger: Arc<Ledger>) -> ScopedLedger {
    SCOPED.with(|s| s.borrow_mut().push(ledger));
    ScopedLedger { _private: () }
}

fn current() -> Option<Arc<Ledger>> {
    SCOPED.with(|s| s.borrow().last().cloned())
}

/// The 64-bit FNV-1a offset basis: the state before any byte is folded.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `bytes` into a 64-bit FNV-1a state. The ledger digests and the
/// trace sampler share this one mixer, so their values are pinned together.
pub(crate) fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Record an event into the current ledger (this thread's scoped ledger if
/// one is installed, the process-wide global otherwise). The secrecy label
/// must be the label of the *flow the event describes* (the data moved,
/// the process scheduled, the response checked) — not the label of the
/// code recording it.
pub fn record(secrecy: &ObsLabel, kind: EventKind) {
    match current() {
        Some(l) => l.record(secrecy, kind),
        None => global().record(secrecy, kind),
    }
}

/// Hot-path flow-check accounting on the current ledger (see
/// [`Ledger::count_check`]).
pub fn count_check(op: CheckOp, allowed: bool, secrecy: &ObsLabel) {
    match current() {
        Some(l) => l.count_check(op, allowed, secrecy),
        None => global().count_check(op, allowed, secrecy),
    }
}

/// Verdicts a [`CheckBatch`] holds before it hands them on.
const BATCH_CHUNK: usize = 64;

/// Filler for a [`CheckBatch`]'s unused slots; never counted.
static NO_LABEL: ObsLabel = ObsLabel::empty();

/// One statement's flow verdicts on their way to the current ledger: they
/// are held in order in a fixed inline chunk (no heap) and reach
/// [`Ledger::count_checks`] together when the chunk fills and when the
/// batch drops — so every exit of the code that made them, error or
/// panic included, counts exactly the verdicts made before it. The ledger
/// ends up as [`count_check`] one verdict at a time would leave it, as long
/// as nothing else records on this thread while the batch is live.
pub struct CheckBatch<'a> {
    len: usize,
    checks: [Check<'a>; BATCH_CHUNK],
}

impl<'a> CheckBatch<'a> {
    /// An empty batch. Dropping it unused touches no ledger.
    pub fn new() -> CheckBatch<'a> {
        CheckBatch { len: 0, checks: [(CheckOp::Read, true, &NO_LABEL); BATCH_CHUNK] }
    }

    /// Append one verdict (see [`Check`]).
    pub fn push(&mut self, op: CheckOp, allowed: bool, secrecy: &'a ObsLabel) {
        self.checks[self.len] = (op, allowed, secrecy);
        self.len += 1;
        if self.len == BATCH_CHUNK {
            self.flush();
        }
    }

    fn flush(&mut self) {
        let checks = &self.checks[..self.len];
        if checks.is_empty() {
            return;
        }
        match current() {
            Some(l) => l.count_checks(checks),
            None => global().count_checks(checks),
        }
        self.len = 0;
    }
}

impl Default for CheckBatch<'_> {
    fn default() -> Self {
        CheckBatch::new()
    }
}

impl Drop for CheckBatch<'_> {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Configure head-based trace sampling on the current ledger (see
/// [`Ledger::set_trace_sampling`]).
pub fn set_trace_sampling(rate: f64, seed: u64) {
    match current() {
        Some(l) => l.set_trace_sampling(rate, seed),
        None => global().set_trace_sampling(rate, seed),
    }
}

// ---- the thread-local span stack ----
//
// Spans nest lexically within a thread: `span()` makes the new span a
// child of the innermost open one, or a fresh root (new trace id, head
// sampling decision) when the stack is empty. Server threads start their
// root from the wire's `TraceContext` via `span_with_remote`, which is
// how cross-instance trees stitch. The guard records the completed
// `SpanRecord` on drop — into the ledger that was current when the span
// *started*, so a span never straddles two ledgers.

/// A live entry on the thread's span stack.
#[derive(Clone, Copy)]
struct ActiveSpan {
    trace: u64,
    /// 0 when the trace is unsampled (no record will be written, so no
    /// id is spent on it).
    id: u64,
    sampled: bool,
}

thread_local! {
    static SPAN_STACK: RefCell<Vec<ActiveSpan>> = const { RefCell::new(Vec::new()) };
}

/// Where a span records on drop: the ledger captured at span start.
enum Target {
    Global,
    Scoped(Arc<Ledger>),
}

impl Target {
    fn capture() -> Target {
        match current() {
            Some(l) => Target::Scoped(l),
            None => Target::Global,
        }
    }

    fn ledger(&self) -> &Ledger {
        match self {
            Target::Global => global(),
            Target::Scoped(l) => l,
        }
    }
}

/// Pending record data for a sampled span.
struct OpenSpan {
    target: Target,
    trace: u64,
    id: u64,
    parent: Option<u64>,
    name: Name,
    layer: Layer,
    secrecy: ObsLabel,
    start_us: u64,
}

/// Closes its span on drop. Unsampled guards are inert (no timestamps,
/// nothing recorded); they still hold the stack slot so descendants and
/// outgoing wire contexts see a consistent trace.
pub struct SpanGuard {
    open: Option<OpenSpan>,
    /// Guards pop a thread-local stack: keep them on the thread that
    /// made them.
    _not_send: std::marker::PhantomData<*const ()>,
}

impl SpanGuard {
    /// Union extra secrecy into the span's label, for operations whose
    /// flow label is only known at the end (e.g. `platform.invoke` learns
    /// the response label after the app ran).
    pub fn add_secrecy(&mut self, extra: &ObsLabel) {
        if let Some(open) = &mut self.open {
            if !extra.is_subset(&open.secrecy) {
                open.secrecy = open.secrecy.union(extra);
            }
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        SPAN_STACK.with(|s| {
            s.borrow_mut().pop();
        });
        if let Some(open) = self.open.take() {
            let ledger = open.target.ledger();
            ledger.record_span(SpanRecord {
                trace: open.trace,
                id: open.id,
                parent: open.parent,
                name: open.name,
                layer: open.layer,
                secrecy: open.secrecy,
                start_us: open.start_us,
                end_us: ledger.now_us(),
            });
        }
    }
}

fn push_span(
    target: Target,
    trace: u64,
    parent: Option<u64>,
    sampled: bool,
    name: impl Into<Name>,
    layer: Layer,
    secrecy: &ObsLabel,
) -> SpanGuard {
    let open = if sampled {
        let ledger = target.ledger();
        let id = ledger.alloc_id();
        let start_us = ledger.now_us();
        SPAN_STACK.with(|s| s.borrow_mut().push(ActiveSpan { trace, id, sampled }));
        Some(OpenSpan {
            target,
            trace,
            id,
            parent,
            name: name.into(),
            layer,
            secrecy: secrecy.clone(),
            start_us,
        })
    } else {
        SPAN_STACK.with(|s| s.borrow_mut().push(ActiveSpan { trace, id: 0, sampled }));
        None
    };
    SpanGuard { open, _not_send: std::marker::PhantomData }
}

/// Open a span: a child of the innermost open span on this thread, or a
/// fresh root (new trace id, head sampling decision) when none is open.
/// `secrecy` is the label of the flow the span times, like [`record`].
/// `name` becomes a [`Name`] only if the span is sampled: pass a `&Name`
/// (cloned, no allocation) on a hot path, text elsewhere.
pub fn span(name: impl Into<Name>, layer: Layer, secrecy: &ObsLabel) -> SpanGuard {
    let target = Target::capture();
    match SPAN_STACK.with(|s| s.borrow().last().copied()) {
        Some(top) => {
            let parent = (top.id != 0).then_some(top.id);
            push_span(target, top.trace, parent, top.sampled, name, layer, secrecy)
        }
        None => {
            let ledger = target.ledger();
            let trace = ledger.alloc_id();
            let sampled = ledger.trace_sampled(trace);
            push_span(target, trace, None, sampled, name, layer, secrecy)
        }
    }
}

/// Open a root span continuing a remote trace (the server side of a wire
/// hop). Falls back to [`span`] semantics when `remote` is absent or the
/// thread already has an open span.
pub fn span_with_remote(
    name: impl Into<Name>,
    layer: Layer,
    secrecy: &ObsLabel,
    remote: Option<&TraceContext>,
) -> SpanGuard {
    let local_top = SPAN_STACK.with(|s| s.borrow().last().copied());
    match (remote, local_top) {
        (Some(ctx), None) => {
            let parent = (ctx.parent != 0).then_some(ctx.parent);
            push_span(Target::capture(), ctx.trace, parent, ctx.sampled, name, layer, secrecy)
        }
        _ => span(name, layer, secrecy),
    }
}

/// Open a child span only when this thread already has an open *sampled*
/// trace; `None` otherwise. This is the hot-path form (kernel send/spawn):
/// outside a sampled trace it is one thread-local read — no ids, no
/// clocks, no allocation.
pub fn span_if_active(name: impl Into<Name>, layer: Layer, secrecy: &ObsLabel) -> Option<SpanGuard> {
    let top = SPAN_STACK.with(|s| s.borrow().last().copied())?;
    if !top.sampled {
        return None;
    }
    let parent = (top.id != 0).then_some(top.id);
    Some(push_span(Target::capture(), top.trace, parent, true, name, layer, secrecy))
}

/// The wire context for an outgoing request from the current span, if a
/// trace is open on this thread (`parent` = the innermost open span).
pub fn current_context() -> Option<TraceContext> {
    SPAN_STACK.with(|s| {
        s.borrow()
            .last()
            .map(|top| TraceContext { trace: top.trace, parent: top.id, sampled: top.sampled })
    })
}
