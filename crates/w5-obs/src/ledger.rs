//! The flow ledger: event ring, counters, span ring and clearance-gated
//! views.
//!
//! Writes are cheap: per-layer counters are lock-free atomics; the bounded
//! event ring and span ring take one short `obs.ledger`-classed `w5_sync`
//! mutex each (instances ring=0, published=1, spans=2; never nested), and
//! the published aggregate's mutex is taken only by the one event in
//! [`REFRESH_EVERY`] that republishes it. Timing is recorded once, as a
//! span (see `crate::trace`); there is no second latency registry. Reads
//! are **labeled operations**: [`Ledger::view`] takes the viewer's
//! clearance (their secrecy label, as an [`ObsLabel`]) and
//!
//! * returns verbatim only events whose secrecy label is a subset of the
//!   clearance (the no-privilege secrecy-flow rule);
//! * replaces everything else with label-aggregated per-layer counts that
//!   are **quantized** (floored to a coarse granularity) and
//!   **rate-limited** (republished only every [`REFRESH_EVERY`] recorded
//!   events, so a low-clearance poller sees a stale snapshot, not a live
//!   signal);
//! * re-issues sequence numbers densely whenever anything was withheld,
//!   so gaps in `seq` cannot leak the exact count of hidden events.
//!
//! Without those three measures the ledger would be precisely the §3.5
//! covert channel: a tainted app could modulate secret bits into event
//! counts and an untainted reader could poll them out.

use crate::event::{CheckOp, Event, EventKind, Layer};
use crate::label::ObsLabel;
use crate::trace::{redact_spans, sample_decision, SpanRecord, TraceView};
use crate::{fnv1a, FNV_OFFSET};
use w5_sync::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Ring capacity (events retained for cleared viewers).
const DEFAULT_RING_CAP: usize = 4096;

/// Span ring capacity (completed spans retained for trace viewers).
const DEFAULT_SPAN_CAP: usize = 4096;

/// Redacted aggregates are republished every this many recorded events.
pub const REFRESH_EVERY: u64 = 64;

/// Redacted counts are floored to a multiple of this.
pub const QUANTUM: u64 = 16;

/// Pass-outcome flow checks are written to the ring once per this many
/// checks (denials always are).
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

/// Per-layer `(events, denied)` totals, in [`Layer::ALL`] order.
type Totals = [(u64, u64); 5];

impl Aggregate {
    fn from_totals(totals: &Totals) -> Aggregate {
        let mut agg = Aggregate::default();
        for (layer, &(events, denied)) in Layer::ALL.iter().zip(totals) {
            agg.events.insert(layer.name().to_string(), events);
            agg.denied.insert(layer.name().to_string(), denied);
        }
        agg
    }
}

/// The label-aware flow ledger.
pub struct Ledger {
    seq: AtomicU64,
    counters: [LayerCounters; 5],
    checks: AtomicU64,
    ring: Mutex<VecDeque<Event>>,
    ring_cap: usize,
    /// The published (stale, quantized) totals a redacted viewer sees; none
    /// before the first republish. Kept as numbers, so republishing
    /// allocates nothing; the viewer builds the maps.
    published: Mutex<Option<Totals>>,
    /// Events recorded when `published` was last built (0 = never). Written
    /// only under the `published` lock; read without it, so every event but
    /// the one that republishes decides with one load. It guards no data —
    /// the aggregate is read under the mutex — hence `Relaxed`: a stale read
    /// can only send a thread to the lock, where it looks again.
    published_at: AtomicU64,
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
            published: Mutex::with_index("obs.ledger", 1, None),
            published_at: AtomicU64::new(0),
            spans: Mutex::with_index("obs.ledger", 2, VecDeque::with_capacity(DEFAULT_SPAN_CAP.min(1024))),
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
    /// but reserves its check and sequence numbers with one add each,
    /// takes the ring lock at most once and republishes at most once.
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
        // Like `record`: the snapshot is brought up to date before any of
        // the run's events can be seen in the ring.
        self.maybe_republish();
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

    /// Exact live per-layer aggregate (trusted/test use; [`Ledger::view`]
    /// is the clearance-gated path).
    pub fn aggregate(&self) -> Aggregate {
        Aggregate::from_totals(&self.totals())
    }

    fn totals(&self) -> Totals {
        self.counters
            .each_ref()
            .map(|c| (c.events.load(Ordering::Relaxed), c.denied.load(Ordering::Relaxed)))
    }

    /// Read the ledger with the given clearance. This is the **only** path
    /// untrusted viewers get.
    pub fn view(&self, clearance: &ObsLabel) -> LedgerView {
        let ring = self.ring.lock();
        let mut events = Vec::new();
        let mut withheld = 0u64;
        for e in ring.iter() {
            if e.secrecy.is_subset(clearance) {
                events.push(e.clone());
            } else {
                withheld += 1;
            }
        }
        drop(ring);

        let redacted = withheld > 0;
        if redacted {
            // Dense re-issue: seq gaps would count hidden events exactly.
            for (i, e) in events.iter_mut().enumerate() {
                e.seq = i as u64;
            }
        }

        let aggregate = if redacted {
            // Stale + quantized: the published snapshot, floored to QUANTUM.
            let published = *self.published.lock();
            published.as_ref().map_or_else(Aggregate::default, Aggregate::from_totals)
        } else {
            self.aggregate()
        };

        LedgerView { clearance: clearance.clone(), events, redacted, aggregate }
    }

    /// JSON snapshot of a clearance-gated view (the exporter).
    pub fn snapshot_json(&self, clearance: &ObsLabel) -> serde_json::Result<String> {
        serde_json::to_string_pretty(&self.view(clearance))
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

    /// Read the span ring with the given clearance: spans the clearance
    /// covers come back verbatim, everything else in redacted form (name
    /// hidden, label hidden, timings floored — see
    /// [`SpanRecord::redacted`]). This is the only trace path untrusted
    /// viewers get.
    pub fn trace_view(&self, clearance: &ObsLabel) -> TraceView {
        let spans: Vec<SpanRecord> = self.spans.lock().iter().cloned().collect();
        let (spans, redacted_spans) = redact_spans(&spans, clearance);
        TraceView { clearance: clearance.clone(), spans, redacted_spans }
    }

    /// JSON export of a clearance-gated trace view (what `w5trace` reads).
    pub fn traces_json(&self, clearance: &ObsLabel) -> serde_json::Result<String> {
        serde_json::to_string_pretty(&self.trace_view(clearance))
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
    /// differ in *executor-dependent metadata* — e.g. the pipelined HTTP
    /// engine emits `QueueAdmit`/`WorkerOccupancy` gauges the reference
    /// thread-per-connection engine never does — while the handler-visible
    /// event stream must still match event for event.
    pub fn digest_where(&self, keep: impl Fn(&EventKind) -> bool) -> u64 {
        let mut h = FNV_OFFSET;
        let ring = self.ring.lock();
        // Dense re-issue, exactly like a redacted view: the original seq
        // would count the excluded events.
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
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.maybe_republish();
        seq
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

    /// Republish the quantized aggregate at most once per [`REFRESH_EVERY`]
    /// recorded events. Between refreshes, redacted viewers read a stale
    /// snapshot — that staleness *is* the rate limit.
    fn maybe_republish(&self) {
        let now = self.seq.load(Ordering::Relaxed);
        let fresh = |at: u64| at != 0 && now < at + REFRESH_EVERY;
        if fresh(self.published_at.load(Ordering::Relaxed)) {
            return;
        }
        let mut published = self.published.lock();
        // Another thread may have republished while this one waited.
        if fresh(self.published_at.load(Ordering::Relaxed)) {
            return;
        }
        let floor = |n: u64| n - n % QUANTUM;
        *published = Some(self.totals().map(|(events, denied)| (floor(events), floor(denied))));
        self.published_at.store(now.max(1), Ordering::Relaxed);
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

/// What a viewer with some clearance gets back.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct LedgerView {
    /// The clearance this view was computed for.
    pub clearance: ObsLabel,
    /// Events the clearance covers, oldest first. When `redacted`, `seq`
    /// is re-issued densely.
    pub events: Vec<Event>,
    /// True when any event was withheld; the aggregate is then the stale
    /// quantized snapshot rather than live counters.
    pub redacted: bool,
    /// Per-layer counts (live and exact iff `redacted == false`).
    pub aggregate: Aggregate,
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
        let omniscient = ObsLabel::from_tags([7]);
        let v = l.view(&omniscient);
        assert!(!v.redacted);
        assert_eq!(v.events.len(), 2);
        assert_eq!(v.aggregate.events["kernel"], 1);
        assert_eq!(v.aggregate.events["store"], 1);
        // Full views keep original sequence numbers.
        assert_eq!(v.events[0].seq, 0);
        assert_eq!(v.events[1].seq, 1);
    }

    #[test]
    fn low_clearance_cannot_recover_labeled_events() {
        let l = Ledger::new();
        // 5 public events, 3 secret ones (tag 9).
        for i in 0..5 {
            l.record(&ObsLabel::empty(), spawn_kind(i));
        }
        for _ in 0..3 {
            l.record(&ObsLabel::singleton(9), EventKind::StoreRead {
                path: "/diary/alice.txt".into(),
                bytes: 10,
                allowed: true,
            });
        }
        let v = l.view(&ObsLabel::empty());
        assert!(v.redacted);
        assert_eq!(v.events.len(), 5, "only public events visible");
        assert!(v.events.iter().all(|e| e.secrecy.is_empty()));
        assert!(
            v.events.iter().all(|e| !format!("{:?}", e.kind).contains("diary")),
            "no secret payload may appear"
        );
        // Sequence numbers are dense — gaps cannot count hidden events.
        for (i, e) in v.events.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
        }
        // The aggregate is quantized: 8 total events floored to QUANTUM.
        let store = v.aggregate.events.get("store").copied().unwrap_or(0);
        assert_eq!(store % QUANTUM, 0, "redacted counts must be quantized");
        // The cleared viewer, by contrast, sees everything.
        let v9 = l.view(&ObsLabel::singleton(9));
        assert!(!v9.redacted);
        assert_eq!(v9.events.len(), 8);
        assert_eq!(v9.aggregate.events["store"], 3);
    }

    #[test]
    fn redacted_aggregate_is_rate_limited() {
        let l = Ledger::new();
        l.record(&ObsLabel::singleton(5), spawn_kind(0));
        let before = l.view(&ObsLabel::empty()).aggregate.clone();
        // Record fewer than REFRESH_EVERY further events: the published
        // snapshot must not move, no matter how often we poll.
        for i in 0..(REFRESH_EVERY - 2) {
            l.record(&ObsLabel::singleton(5), spawn_kind(i));
            assert_eq!(l.view(&ObsLabel::empty()).aggregate, before, "snapshot moved early");
        }
        // Crossing the refresh boundary (plus quantization slack) updates it.
        for i in 0..(REFRESH_EVERY + QUANTUM) {
            l.record(&ObsLabel::singleton(5), spawn_kind(i));
        }
        let after = l.view(&ObsLabel::empty()).aggregate;
        assert!(after.events["kernel"] > before.events["kernel"]);
        assert_eq!(after.events["kernel"] % QUANTUM, 0);
    }

    /// The republish guard is read without the lock, so pin what it may not
    /// cost: a single count under contention, or a refresh that comes late.
    #[test]
    fn contended_checks_count_exactly_and_republish_on_cadence() {
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
        // Wherever the threads left the snapshot, the next REFRESH_EVERY
        // events must bring it to within REFRESH_EVERY of the live count.
        for _ in 0..REFRESH_EVERY {
            l.count_check(CheckOp::Read, true, &secret);
        }
        let v = l.view(&ObsLabel::empty());
        assert!(v.redacted, "tag 5 events are withheld from an empty clearance");
        let (published, exact) = (v.aggregate.events["difc"], total + REFRESH_EVERY);
        assert_eq!(published % QUANTUM, 0);
        assert!(
            published <= exact && exact - published <= REFRESH_EVERY,
            "published {published} against {exact} recorded"
        );
    }

    #[test]
    fn ring_evicts_oldest_first() {
        let l = Ledger::with_capacity(4);
        for i in 0..10 {
            l.record(&ObsLabel::empty(), spawn_kind(i));
        }
        let v = l.view(&ObsLabel::empty());
        assert_eq!(v.events.len(), 4);
        let pids: Vec<u64> = v
            .events
            .iter()
            .map(|e| match &e.kind {
                EventKind::ProcSpawn { pid, .. } => *pid,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(pids, vec![6, 7, 8, 9], "oldest entries evicted, order kept");
        // Counters survive eviction.
        assert_eq!(v.aggregate.events["kernel"], 10);
    }

    #[test]
    fn check_sampling_always_keeps_denials() {
        let l = Ledger::new();
        for _ in 0..100 {
            l.count_check(CheckOp::Flow, true, &ObsLabel::empty());
        }
        for _ in 0..3 {
            l.count_check(CheckOp::Flow, false, &ObsLabel::singleton(2));
        }
        // Counters are exact.
        let agg = l.aggregate();
        assert_eq!(agg.events["difc"], 103);
        assert_eq!(agg.denied["difc"], 3);
        // Ring holds all denials but only sampled passes.
        let v = l.view(&ObsLabel::from_tags([2]));
        let denials = v
            .events
            .iter()
            .filter(|e| matches!(&e.kind, EventKind::LabelCheck { allowed: false, .. }))
            .count();
        let passes = v
            .events
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
        const OPS: [CheckOp; 4] = [CheckOp::Read, CheckOp::Write, CheckOp::Flow, CheckOp::Change];
        let labels: Vec<ObsLabel> = (1..=5).map(ObsLabel::singleton).collect();
        let clearance = ObsLabel::from_tags(1..=5);
        // A denial in every seventh check; ops and labels cycle.
        let verdicts = |n: usize, salt: usize| -> Vec<Check<'_>> {
            (salt..salt + n).map(|k| (OPS[k % 4], k % 7 != 3, &labels[k % 5])).collect()
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
                        let (v, expected) = (l.view(&clearance), single.view(&clearance));
                        assert!(!v.redacted, "{case}");
                        assert_eq!(v.events, expected.events, "{case}");
                        assert_eq!(v.aggregate, expected.aggregate, "{case}");
                    }
                }
            }
        }
    }

    /// Runs of checks republish the redacted aggregate on the same terms as
    /// single events: quantized, no more often than every [`REFRESH_EVERY`]
    /// events, and never staler than that.
    #[test]
    fn runs_of_checks_republish_on_cadence() {
        let l = Ledger::new();
        let secret = ObsLabel::singleton(9);
        let mut refreshed: Option<(Aggregate, u64)> = None;
        for &size in [1u64, 15, 16, 17, 200, 3, 64, 65].iter().cycle().take(64) {
            // Each run opens with a denial, so the ring always withholds
            // something from the empty clearance.
            let run: Vec<Check<'_>> =
                (0..size).map(|i| (CheckOp::Read, i % 5 != 0, &secret)).collect();
            l.count_checks(&run);
            let now = l.events_recorded();
            let v = l.view(&ObsLabel::empty());
            assert!(v.redacted);
            let agg = v.aggregate;
            assert!(agg.events.values().chain(agg.denied.values()).all(|n| n % QUANTUM == 0));
            let published = agg.events["difc"];
            assert!(published <= now, "{published} at {now}");
            assert!(now - published < REFRESH_EVERY + QUANTUM, "{published} at {now}");
            match &refreshed {
                Some((prev, _)) if *prev == agg => {}
                Some((_, at)) if now - at < REFRESH_EVERY => {
                    panic!("republished at {now}, {} events after {at}", now - at)
                }
                _ => {
                    assert_eq!(published, now - now % QUANTUM, "a refresh publishes the count it ran at");
                    refreshed = Some((agg, now));
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
            micros: 123,
        });
        let json = l.snapshot_json(&ObsLabel::empty()).unwrap();
        let back: LedgerView = serde_json::from_str(&json).unwrap();
        assert_eq!(back.events.len(), 1);
        assert!(!back.redacted);
    }
}
