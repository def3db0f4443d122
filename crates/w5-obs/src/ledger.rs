//! The flow ledger: event ring, counters and span ring — the operator's
//! record of what every layer did.
//!
//! Writes are cheap: per-layer counters are lock-free atomics; the bounded
//! event ring and span ring take one short `obs.ledger`-classed `w5_sync`
//! mutex each (instances ring=0, spans=1; never nested). Timing is
//! recorded once, as a span (see `crate::trace`); there is no second
//! latency registry. Every event and span keeps the secrecy label of the
//! flow it describes, and the reads ([`Ledger::events`], [`Ledger::spans`],
//! [`Ledger::aggregate`]) return all of it: the ledger has one reader,
//! the operator. Both rings are bounded and shared across every label, so
//! what one label records decides what survives of another's — which is
//! why nothing below the operator may read them. A user or developer reads
//! only a log partitioned by what they own (`/audit`, `/dev/faults`;
//! DESIGN §9), never this one.

use crate::event::{CheckOp, Event, EventKind, Layer};
use crate::label::ObsLabel;
use crate::trace::{sample_decision, SpanRecord};
use crate::{fnv1a, FNV_OFFSET};
use w5_sync::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Ring capacity (events retained).
const DEFAULT_RING_CAP: usize = 4096;

/// Span ring capacity (completed spans retained).
const DEFAULT_SPAN_CAP: usize = 4096;

/// Pass-outcome flow checks are written to the ring once per this many
/// checks (denials always are). The sampled passes show the operator
/// which labels a scan passed, in decision order. The sample's phase
/// counts checks across all labels, which would matter only to a reader
/// below the operator, and the ledger has none (DESIGN §9).
const CHECK_SAMPLE: u64 = 16;

/// One flow verdict as the ledger counts it: the rule, whether it passed,
/// and the secrecy label of the flow it describes.
pub type Check<'a> = (CheckOp, bool, &'a ObsLabel);

#[derive(Default)]
struct LayerCounters {
    events: AtomicU64,
    denied: AtomicU64,
}

/// Per-layer event totals.
#[derive(Clone, Debug, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Aggregate {
    /// Events recorded per layer, keyed by [`Layer::name`].
    pub events: BTreeMap<String, u64>,
    /// Denials recorded per layer.
    pub denied: BTreeMap<String, u64>,
}

/// The label-aware flow ledger.
pub struct Ledger {
    seq: AtomicU64,
    counters: [LayerCounters; 5],
    checks: AtomicU64,
    ring: Mutex<VecDeque<Event>>,
    ring_cap: usize,
    /// Completed spans, oldest first (see `crate::trace`).
    spans: Mutex<VecDeque<SpanRecord>>,
    span_cap: usize,
    /// Spans recorded per layer (index = `Layer::index`), survives ring
    /// eviction; mixed into `digest`.
    span_counters: [AtomicU64; 5],
    spans_recorded: AtomicU64,
    /// Trace and span id allocator; 0 is reserved for "none".
    ids: AtomicU64,
    /// Head-based sampling: a trace is recorded iff
    /// `sample_decision(trace, seed, threshold)`.
    sample_threshold: AtomicU64,
    sample_seed: AtomicU64,
    /// Base for span timestamps (µs since this instant).
    epoch: Instant,
}

impl Default for Ledger {
    fn default() -> Self {
        Ledger::new()
    }
}

impl Ledger {
    /// A fresh ledger with default capacity.
    pub fn new() -> Ledger {
        Ledger::with_capacity(DEFAULT_RING_CAP)
    }

    /// A fresh ledger retaining at most `ring_cap` events.
    pub fn with_capacity(ring_cap: usize) -> Ledger {
        assert!(ring_cap > 0, "ring capacity must be positive");
        Ledger {
            seq: AtomicU64::new(0),
            counters: Default::default(),
            checks: AtomicU64::new(0),
            ring: Mutex::with_index("obs.ledger", 0, VecDeque::with_capacity(ring_cap.min(1024))),
            ring_cap,
            spans: Mutex::with_index("obs.ledger", 1, VecDeque::with_capacity(DEFAULT_SPAN_CAP.min(1024))),
            span_cap: DEFAULT_SPAN_CAP,
            span_counters: Default::default(),
            spans_recorded: AtomicU64::new(0),
            ids: AtomicU64::new(0),
            sample_threshold: AtomicU64::new(u64::MAX),
            sample_seed: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }

    /// Record one event. Counters always tick; the event enters the ring.
    pub fn record(&self, secrecy: &ObsLabel, kind: EventKind) {
        let seq = self.count(&kind);
        self.push_ring([Event { seq, secrecy: secrecy.clone(), kind }]);
    }

    /// Hot-path accounting for one flow check (`w5-difc::rules`): a run of
    /// one for [`Ledger::count_checks`].
    pub fn count_check(&self, op: CheckOp, allowed: bool, secrecy: &ObsLabel) {
        self.count_checks(&[(op, allowed, secrecy)]);
    }

    /// Hot-path accounting for a run of flow checks, in the order they
    /// were decided. Counters always tick; denials are always written to
    /// the ring; passes are ring-sampled once per [`CHECK_SAMPLE`] checks,
    /// so a pass costs a share of a few atomic adds. The run leaves exactly
    /// what [`Ledger::count_check`] one check at a time would — the same
    /// ring entries with the same `seq`, label and op, the same totals —
    /// but reserves its check and sequence numbers with one add each and
    /// takes the ring lock at most once.
    pub fn count_checks(&self, checks: &[Check<'_>]) {
        let n = checks.len() as u64;
        if n == 0 {
            return;
        }
        let first = self.checks.fetch_add(n, Ordering::Relaxed);
        let denied = checks.iter().filter(|&&(_, allowed, _)| !allowed).count() as u64;
        let c = &self.counters[Layer::Difc.index()];
        c.events.fetch_add(n, Ordering::Relaxed);
        if denied > 0 {
            c.denied.fetch_add(denied, Ordering::Relaxed);
        }
        let seq = self.seq.fetch_add(n, Ordering::Relaxed);
        // Offset of the first check in the run whose number is sampled.
        let sampled_from = (CHECK_SAMPLE - first % CHECK_SAMPLE) % CHECK_SAMPLE;
        if denied > 0 || sampled_from < n {
            self.push_ring(
                (0..n)
                    .zip(checks)
                    .filter(|&(i, &(_, allowed, _))| !allowed || (first + i).is_multiple_of(CHECK_SAMPLE))
                    .map(|(i, &(op, allowed, secrecy))| Event {
                        seq: seq + i,
                        secrecy: secrecy.clone(),
                        kind: EventKind::LabelCheck { op, allowed },
                    }),
            );
        }
    }

    /// Total events recorded (all layers, including ring-sampled checks).
    pub fn events_recorded(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Exact live per-layer aggregate over every label.
    pub fn aggregate(&self) -> Aggregate {
        let mut agg = Aggregate::default();
        for (layer, c) in Layer::ALL.iter().zip(&self.counters) {
            agg.events.insert(layer.name().to_string(), c.events.load(Ordering::Relaxed));
            agg.denied.insert(layer.name().to_string(), c.denied.load(Ordering::Relaxed));
        }
        agg
    }

    /// The retained events in the order they entered the ring, each with
    /// its recorded `seq` and its label.
    pub fn events(&self) -> Vec<Event> {
        self.ring.lock().iter().cloned().collect()
    }

    /// JSON export of [`Ledger::events`].
    pub fn snapshot_json(&self) -> serde_json::Result<String> {
        serde_json::to_string_pretty(&self.events())
    }

    // ---- causal tracing (see `crate::trace`) ----

    /// Microseconds since this ledger's epoch (span timestamp base).
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Allocate a fresh trace or span id (never 0). Ids are ledger-local
    /// and, on a single-threaded scoped ledger, fully deterministic — the
    /// chaos harness relies on that.
    pub fn alloc_id(&self) -> u64 {
        self.ids.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Configure head-based trace sampling: `rate` in `[0.0, 1.0]` (the
    /// approximate fraction of traces recorded) and a seed. The decision
    /// per trace is the pure function [`sample_decision`], so a replay
    /// with the same seed samples the same traces.
    pub fn set_trace_sampling(&self, rate: f64, seed: u64) {
        let threshold = (rate.clamp(0.0, 1.0) * u64::MAX as f64) as u64;
        self.sample_threshold.store(threshold, Ordering::Relaxed);
        self.sample_seed.store(seed, Ordering::Relaxed);
    }

    /// The sampling decision for a trace id under the current config.
    pub fn trace_sampled(&self, trace: u64) -> bool {
        sample_decision(
            trace,
            self.sample_seed.load(Ordering::Relaxed),
            self.sample_threshold.load(Ordering::Relaxed),
        )
    }

    /// Record one completed span. Counters always tick; the span enters
    /// the bounded span ring.
    pub fn record_span(&self, span: SpanRecord) {
        self.span_counters[span.layer.index()].fetch_add(1, Ordering::Relaxed);
        self.spans_recorded.fetch_add(1, Ordering::Relaxed);
        let mut spans = self.spans.lock();
        if spans.len() >= self.span_cap {
            spans.pop_front();
        }
        spans.push_back(span);
    }

    /// Total spans recorded (all layers, including ring-evicted ones).
    pub fn spans_recorded(&self) -> u64 {
        self.spans_recorded.load(Ordering::Relaxed)
    }

    /// The retained spans in the order they closed, each with its label
    /// and exact timestamps.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.lock().iter().cloned().collect()
    }

    /// JSON export of [`Ledger::spans`] (what `w5trace` reads).
    pub fn traces_json(&self) -> serde_json::Result<String> {
        serde_json::to_string_pretty(&self.spans())
    }

    /// A stable 64-bit digest (FNV-1a) over the ledger's observable state:
    /// total events recorded, the per-layer counters, every retained ring
    /// event in order, and the *structure* of every retained span (ids,
    /// parent edges, names, layers, labels — everything except wall-clock
    /// timestamps, which legitimately vary between replays). Two runs
    /// that produced the same event and span streams produce the same
    /// digest; the chaos harness uses this to prove that a fault schedule
    /// replays bit-identically from its seed, tracing included.
    pub fn digest(&self) -> u64 {
        let mut h = FNV_OFFSET;
        fnv1a(&mut h, &self.events_recorded().to_le_bytes());
        let agg = self.aggregate();
        for (layer, count) in agg.events.iter().chain(agg.denied.iter()) {
            fnv1a(&mut h, layer.as_bytes());
            fnv1a(&mut h, &count.to_le_bytes());
        }
        let ring = self.ring.lock();
        for e in ring.iter() {
            fold_event(&mut h, e.seq, e);
        }
        drop(ring);
        fnv1a(&mut h, &self.spans_recorded().to_le_bytes());
        for (layer, counter) in Layer::ALL.iter().zip(&self.span_counters) {
            fnv1a(&mut h, layer.name().as_bytes());
            fnv1a(&mut h, &counter.load(Ordering::Relaxed).to_le_bytes());
        }
        for s in self.spans.lock().iter() {
            fold_span(&mut h, s);
        }
        h
    }

    /// Like [`Ledger::digest`], but folds only the ring events `keep`
    /// admits, with sequence numbers re-issued densely over the retained
    /// stream, and skips the per-layer aggregates (which would count the
    /// excluded events). Span structure is folded as in `digest`.
    ///
    /// This exists for differential oracles whose two arms legitimately
    /// differ in *executor-dependent metadata* — e.g. the staged pipeline
    /// emits `QueueAdmit`/`WorkerOccupancy` gauges that the bare arm
    /// (`w5_sim::netdiff::BareHandler`, the handler with nothing in front
    /// of it) never does — while the handler-visible event stream must
    /// still match event for event.
    pub fn digest_where(&self, keep: impl Fn(&EventKind) -> bool) -> u64 {
        let mut h = FNV_OFFSET;
        let ring = self.ring.lock();
        // Dense renumbering: the original seq would count the excluded
        // events, which one arm records and the other does not.
        for (reissued, e) in ring.iter().filter(|e| keep(&e.kind)).enumerate() {
            fold_event(&mut h, reissued as u64, e);
        }
        drop(ring);
        for s in self.spans.lock().iter() {
            fold_span(&mut h, s);
        }
        h
    }

    fn count(&self, kind: &EventKind) -> u64 {
        let c = &self.counters[kind.layer().index()];
        c.events.fetch_add(1, Ordering::Relaxed);
        if kind.denied() {
            c.denied.fetch_add(1, Ordering::Relaxed);
        }
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Append events under one take of the ring lock, evicting oldest first.
    fn push_ring(&self, events: impl IntoIterator<Item = Event>) {
        let mut ring = self.ring.lock();
        for event in events {
            if ring.len() >= self.ring_cap {
                ring.pop_front();
            }
            ring.push_back(event);
        }
    }
}

/// A digest's fold of one ring event: `seq` as the caller numbers it, the
/// secrecy tags, and the kind as JSON (stable field order).
fn fold_event(h: &mut u64, seq: u64, e: &Event) {
    fnv1a(h, &seq.to_le_bytes());
    for tag in e.secrecy.iter() {
        fnv1a(h, &tag.to_le_bytes());
    }
    let kind = serde::render_json(&serde::Serialize::to_json(&e.kind));
    fnv1a(h, kind.as_bytes());
}

/// A digest's fold of one span's structure. Deliberately NOT
/// `start_us`/`end_us`: wall time is the one thing a bit-identical replay
/// cannot reproduce.
fn fold_span(h: &mut u64, s: &SpanRecord) {
    fnv1a(h, &s.trace.to_le_bytes());
    fnv1a(h, &s.id.to_le_bytes());
    fnv1a(h, &s.parent.unwrap_or(0).to_le_bytes());
    fnv1a(h, s.name.as_bytes());
    fnv1a(h, s.layer.name().as_bytes());
    for tag in s.secrecy.iter() {
        fnv1a(h, &tag.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn spawn_kind(pid: u64) -> EventKind {
        EventKind::ProcSpawn { pid, parent: 0, name: format!("p{pid}") }
    }

    #[test]
    fn record_and_full_view() {
        let l = Ledger::new();
        l.record(&ObsLabel::empty(), spawn_kind(1));
        l.record(&ObsLabel::singleton(7), EventKind::StoreRead {
            path: "/photos/bob/cat.jpg".into(),
            bytes: 4,
            allowed: true,
        });
        let v = l.events();
        assert_eq!(v.len(), 2);
        assert_eq!(l.aggregate().events["kernel"], 1);
        assert_eq!(l.aggregate().events["store"], 1);
        assert_eq!((v[0].seq, &v[0].secrecy), (0, &ObsLabel::empty()));
        assert_eq!((v[1].seq, &v[1].secrecy), (1, &ObsLabel::singleton(7)));
    }

    /// Checks counted from many threads at once are each counted once.
    #[test]
    fn contended_checks_count_exactly() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 10_000;
        let l = Ledger::new();
        let secret = ObsLabel::singleton(5);
        let start = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    start.wait();
                    for i in 0..PER_THREAD {
                        l.count_check(CheckOp::Read, i % 1000 != 0, &secret);
                    }
                });
            }
        });
        let total = THREADS * PER_THREAD;
        assert_eq!(l.events_recorded(), total);
        let agg = l.aggregate();
        for layer in Layer::ALL {
            let (events, denied) = match layer {
                Layer::Difc => (total, THREADS * PER_THREAD / 1000),
                _ => (0, 0),
            };
            assert_eq!(agg.events[layer.name()], events, "{} events", layer.name());
            assert_eq!(agg.denied[layer.name()], denied, "{} denials", layer.name());
        }
    }

    #[test]
    fn ring_evicts_oldest_first() {
        let l = Ledger::with_capacity(4);
        for i in 0..10 {
            l.record(&ObsLabel::empty(), spawn_kind(i));
        }
        let v = l.events();
        assert_eq!(v.len(), 4);
        let pids: Vec<u64> = v
            .iter()
            .map(|e| match &e.kind {
                EventKind::ProcSpawn { pid, .. } => *pid,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(pids, vec![6, 7, 8, 9], "oldest entries evicted, order kept");
        let seqs: Vec<u64> = v.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "each event keeps its recorded seq");
        // Counters survive eviction.
        assert_eq!(l.aggregate().events["kernel"], 10);
    }

    #[test]
    fn check_sampling_always_keeps_denials() {
        let l = Ledger::new();
        for _ in 0..100 {
            l.count_check(CheckOp::Read, true, &ObsLabel::empty());
        }
        for _ in 0..3 {
            l.count_check(CheckOp::Read, false, &ObsLabel::singleton(2));
        }
        // Counters are exact.
        let agg = l.aggregate();
        assert_eq!(agg.events["difc"], 103);
        assert_eq!(agg.denied["difc"], 3);
        // Ring holds all denials but only sampled passes.
        let v = l.events();
        let denials = v
            .iter()
            .filter(|e| matches!(&e.kind, EventKind::LabelCheck { allowed: false, .. }))
            .count();
        let passes = v
            .iter()
            .filter(|e| matches!(&e.kind, EventKind::LabelCheck { allowed: true, .. }))
            .count();
        assert_eq!(denials, 3);
        assert!(passes < 100 && passes >= 100 / CHECK_SAMPLE as usize, "{passes}");
    }

    /// A run of checks — handed over whole, or through a chunked
    /// [`crate::CheckBatch`] — leaves the ledger exactly as the same checks
    /// one at a time: totals, ring entries (seq, label, op, order) and
    /// digest, at every phase of the 1-in-16 sample, with denials, and with
    /// a ring small enough to evict.
    #[test]
    fn a_run_of_checks_leaves_what_one_at_a_time_would() {
        const OPS: [CheckOp; 3] = [CheckOp::Read, CheckOp::Write, CheckOp::Change];
        let labels: Vec<ObsLabel> = (1..=5).map(ObsLabel::singleton).collect();
        // A denial in every seventh check; ops and labels cycle.
        let verdicts = |n: usize, salt: usize| -> Vec<Check<'_>> {
            (salt..salt + n).map(|k| (OPS[k % 3], k % 7 != 3, &labels[k % 5])).collect()
        };
        for cap in [4, DEFAULT_RING_CAP] {
            for size in [1, 15, 16, 17, 200] {
                for offset in 0..CHECK_SAMPLE as usize {
                    let ledgers: [Arc<Ledger>; 3] =
                        std::array::from_fn(|_| Arc::new(Ledger::with_capacity(cap)));
                    let [whole, chunked, single] = &ledgers;
                    // Put the run at every phase of the sample, and make
                    // `seq` and the check count disagree.
                    for l in &ledgers {
                        l.record(&ObsLabel::empty(), spawn_kind(0));
                        for (op, allowed, secrecy) in verdicts(offset, 1000) {
                            l.count_check(op, allowed, secrecy);
                        }
                    }
                    let run = verdicts(size, offset);
                    whole.count_checks(&run);
                    {
                        let _scope = crate::scoped(Arc::clone(chunked));
                        let mut batch = crate::CheckBatch::new();
                        for &(op, allowed, secrecy) in &run {
                            batch.push(op, allowed, secrecy);
                        }
                    }
                    for &(op, allowed, secrecy) in &run {
                        single.count_check(op, allowed, secrecy);
                    }
                    let case = format!("cap {cap}, size {size}, offset {offset}");
                    for l in [whole, chunked] {
                        assert_eq!(l.digest(), single.digest(), "{case}");
                        assert_eq!(l.aggregate(), single.aggregate(), "{case}");
                        assert_eq!(l.events_recorded(), single.events_recorded(), "{case}");
                        assert_eq!(l.events(), single.events(), "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn snapshot_json_roundtrips() {
        let l = Ledger::new();
        l.record(&ObsLabel::empty(), EventKind::HttpRequest {
            method: "GET".into(),
            path: "/app/photos".into(),
            status: 200,
        });
        let json = l.snapshot_json().unwrap();
        let back: Vec<Event> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, l.events());
    }
}
