//! Causal tracing: spans, wire context and critical-path analysis.
//!
//! A [`SpanRecord`] is one timed operation with a parent edge, so a whole
//! request reconstructs as a tree — across instances too, because the
//! federation protocol forwards a compact [`TraceContext`] (trace id,
//! parent span id, sampling decision) in the [`TRACE_HEADER`] request
//! header. Every span carries the secrecy [`ObsLabel`] of the flow it
//! timed and its exact timestamps; `Ledger::spans` returns them as they
//! were recorded, to the ledger's one reader, the operator. A span's
//! name is its operation plus routing metadata (an HTTP method and path,
//! an app, a federation link), never a row or a body.
//!
//! Sampling is head-based and deterministic: the decision is a pure
//! function of the trace id and a seed ([`sample_decision`]), made once
//! at the root and propagated on the wire, so a chaos replay with the
//! same seed samples the same traces and `Ledger::digest` stays
//! bit-identical.
//!
//! The analysis helpers here ([`render_tree`], [`critical_path`],
//! [`layer_attribution`], [`slowest_traces`]) are the whole back end of
//! the `w5trace` CLI; the binary only parses flags and JSON.

use crate::event::{Layer, Name};
use crate::label::ObsLabel;
use std::collections::BTreeMap;

/// HTTP header that carries a [`TraceContext`] between instances.
pub const TRACE_HEADER: &str = "x-w5-trace";

/// The compact trace context propagated on the wire.
///
/// Encodes as `"<trace:016x>-<parent:016x>-<0|1>"`. Span ids are
/// ledger-local; cross-instance stitching assumes peers draw from
/// disjoint id spaces (one shared ledger, or instance-prefixed ids).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceContext {
    /// The trace this request belongs to.
    pub trace: u64,
    /// The span on the calling side that caused this request (0 = none).
    pub parent: u64,
    /// The head-based sampling decision, made once at the root.
    pub sampled: bool,
}

impl TraceContext {
    /// Render as the [`TRACE_HEADER`] value.
    pub fn encode(&self) -> String {
        format!("{:016x}-{:016x}-{}", self.trace, self.parent, u8::from(self.sampled))
    }

    /// Parse a [`TRACE_HEADER`] value; `None` on any malformation (a bad
    /// header starts a fresh trace rather than failing the request).
    pub fn parse(s: &str) -> Option<TraceContext> {
        let mut parts = s.trim().split('-');
        let trace = u64::from_str_radix(parts.next()?, 16).ok()?;
        let parent = u64::from_str_radix(parts.next()?, 16).ok()?;
        let sampled = match parts.next()? {
            "0" => false,
            "1" => true,
            _ => return None,
        };
        if parts.next().is_some() {
            return None;
        }
        Some(TraceContext { trace, parent, sampled })
    }
}

/// The deterministic head-based sampling decision: FNV-1a of the trace id
/// xor the seed, compared against a threshold (`rate * u64::MAX`). Pure,
/// so replaying a chaos schedule replays the same decisions.
pub fn sample_decision(trace: u64, seed: u64, threshold: u64) -> bool {
    let mut h = crate::FNV_OFFSET;
    crate::fnv1a(&mut h, &(trace ^ seed).to_le_bytes());
    h <= threshold
}

/// One completed span: a timed operation with a parent edge and the
/// secrecy label of the flow it timed. Timestamps are microseconds since
/// the owning ledger's epoch; `Ledger::digest` mixes every field of this
/// record *except* the two timestamps, so wall-clock jitter never
/// perturbs a chaos replay digest.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SpanRecord {
    /// Trace this span belongs to.
    pub trace: u64,
    /// This span's id (unique within the recording ledger).
    pub id: u64,
    /// Parent span id; `None` for a local root. A root started from a
    /// wire context keeps the remote parent id so cross-instance trees
    /// stitch.
    pub parent: Option<u64>,
    /// Operation name, e.g. `"platform.invoke"`.
    pub name: Name,
    /// Layer whose span counter this record bumped.
    pub layer: Layer,
    /// Secrecy label of the flow the span timed.
    pub secrecy: ObsLabel,
    /// Start, µs since the ledger epoch.
    pub start_us: u64,
    /// End, µs since the ledger epoch.
    pub end_us: u64,
}

impl SpanRecord {
    /// Wall time this span covered.
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// One step on a trace's critical path.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CriticalPathStep {
    /// Span name.
    pub name: String,
    /// Layer the span ran in.
    pub layer: Layer,
    /// Total wall time of the span.
    pub total_us: u64,
    /// Wall time not covered by any child (attributed to this span).
    pub self_us: u64,
}

/// All distinct trace ids present, ascending.
pub fn trace_ids(spans: &[SpanRecord]) -> Vec<u64> {
    let mut ids: Vec<u64> = spans.iter().map(|s| s.trace).collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// Spans of one trace in stable tree order: siblings sorted by
/// `(start_us, id)`, so siblings that start in the same microsecond order
/// identically across runs.
fn children_of(spans: &[SpanRecord]) -> BTreeMap<Option<u64>, Vec<usize>> {
    let have: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.id).collect();
    let mut map: BTreeMap<Option<u64>, Vec<usize>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        // A span whose parent is not in the set is a root of this view
        // (e.g. the remote half of a stitched trace was exported by the
        // peer instance).
        let key = match s.parent {
            Some(p) if have.contains(&p) => Some(p),
            _ => None,
        };
        map.entry(key).or_default().push(i);
    }
    for v in map.values_mut() {
        v.sort_by_key(|&i| (spans[i].start_us, spans[i].id));
    }
    map
}

/// Render the request tree(s) in a trace, `w5trace --tree` style:
///
/// ```text
/// trace 0000000000000001 — 3 spans
///   net.http GET /app [net] 1200µs
///     platform.invoke [platform] 1100µs {7}
/// ```
///
/// Non-empty secrecy labels print as `{tag,tag}`.
pub fn render_tree(spans: &[SpanRecord]) -> String {
    let mut out = String::new();
    for trace in trace_ids(spans) {
        let of_trace: Vec<SpanRecord> =
            spans.iter().filter(|s| s.trace == trace).cloned().collect();
        out.push_str(&format!("trace {trace:016x} — {} spans\n", of_trace.len()));
        let map = children_of(&of_trace);
        fn walk(
            out: &mut String,
            spans: &[SpanRecord],
            map: &BTreeMap<Option<u64>, Vec<usize>>,
            key: Option<u64>,
            depth: usize,
        ) {
            let Some(kids) = map.get(&key) else { return };
            for &i in kids {
                let s = &spans[i];
                let label = if s.secrecy.is_empty() {
                    String::new()
                } else {
                    let tags: Vec<String> = s.secrecy.iter().map(|t| t.to_string()).collect();
                    format!(" {{{}}}", tags.join(","))
                };
                out.push_str(&format!(
                    "{}{} [{}] {}µs{}\n",
                    "  ".repeat(depth + 1),
                    s.name,
                    s.layer.name(),
                    s.duration_us(),
                    label,
                ));
                walk(out, spans, map, Some(s.id), depth + 1);
            }
        }
        walk(&mut out, &of_trace, &map, None, 0);
    }
    out
}

/// The critical path of one trace: starting from its slowest root,
/// repeatedly descend into the child covering the most wall time. Each
/// step reports the span's total and self time (duration minus the sum
/// of its children's durations, clipped at zero).
pub fn critical_path(spans: &[SpanRecord], trace: u64) -> Vec<CriticalPathStep> {
    let of_trace: Vec<SpanRecord> = spans.iter().filter(|s| s.trace == trace).cloned().collect();
    let map = children_of(&of_trace);
    let mut path = Vec::new();
    // Slowest root first; ties broken by id for determinism.
    let mut cur = map
        .get(&None)
        .and_then(|roots| {
            roots.iter().copied().max_by_key(|&i| (of_trace[i].duration_us(), u64::MAX - of_trace[i].id))
        });
    while let Some(i) = cur {
        let s = &of_trace[i];
        let kids = map.get(&Some(s.id));
        let child_total: u64 =
            kids.map(|k| k.iter().map(|&c| of_trace[c].duration_us()).sum()).unwrap_or(0);
        path.push(CriticalPathStep {
            name: s.name.to_string(),
            layer: s.layer,
            total_us: s.duration_us(),
            self_us: s.duration_us().saturating_sub(child_total),
        });
        cur = kids.and_then(|k| {
            k.iter().copied().max_by_key(|&c| (of_trace[c].duration_us(), u64::MAX - of_trace[c].id))
        });
    }
    path
}

/// Attribute a trace's wall time to layers: each span's self time
/// (duration minus children) accumulates under its layer's name.
pub fn layer_attribution(spans: &[SpanRecord], trace: u64) -> BTreeMap<String, u64> {
    let of_trace: Vec<&SpanRecord> = spans.iter().filter(|s| s.trace == trace).collect();
    let mut child_total: BTreeMap<u64, u64> = BTreeMap::new();
    for s in &of_trace {
        if let Some(p) = s.parent {
            *child_total.entry(p).or_default() += s.duration_us();
        }
    }
    let mut by_layer: BTreeMap<String, u64> = BTreeMap::new();
    for s in &of_trace {
        let own = s.duration_us().saturating_sub(child_total.get(&s.id).copied().unwrap_or(0));
        *by_layer.entry(s.layer.name().to_string()).or_default() += own;
    }
    by_layer
}

/// Traces ranked by root wall time, slowest first: `(trace id, total µs)`.
pub fn slowest_traces(spans: &[SpanRecord], n: usize) -> Vec<(u64, u64)> {
    let mut totals: Vec<(u64, u64)> = trace_ids(spans)
        .into_iter()
        .map(|t| {
            let of_trace: Vec<SpanRecord> =
                spans.iter().filter(|s| s.trace == t).cloned().collect();
            let map = children_of(&of_trace);
            let total = map
                .get(&None)
                .map(|roots| roots.iter().map(|&i| of_trace[i].duration_us()).sum())
                .unwrap_or(0);
            (t, total)
        })
        .collect();
    totals.sort_by_key(|&(t, total)| (u64::MAX - total, t));
    totals.truncate(n);
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: u64, id: u64, parent: Option<u64>, name: &str, layer: Layer, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            trace,
            id,
            parent,
            name: name.into(),
            layer,
            secrecy: ObsLabel::empty(),
            start_us: start,
            end_us: end,
        }
    }

    #[test]
    fn context_roundtrips_and_rejects_malformed() {
        let ctx = TraceContext { trace: 0xabc, parent: 7, sampled: true };
        let s = ctx.encode();
        assert_eq!(s, "0000000000000abc-0000000000000007-1");
        assert_eq!(TraceContext::parse(&s), Some(ctx));
        assert_eq!(TraceContext::parse("0-0-0"), Some(TraceContext { trace: 0, parent: 0, sampled: false }));
        for bad in ["", "xyz", "1-2", "1-2-3", "1-2-1-4", "1-g-0"] {
            assert_eq!(TraceContext::parse(bad), None, "{bad:?} must not parse");
        }
    }

    #[test]
    fn sampling_is_deterministic_and_rate_bounded() {
        for trace in 0..64u64 {
            assert!(sample_decision(trace, 9, u64::MAX), "rate 1.0 samples everything");
            assert_eq!(sample_decision(trace, 9, u64::MAX / 2), sample_decision(trace, 9, u64::MAX / 2));
        }
        let hits = (0..1000u64).filter(|&t| sample_decision(t, 42, u64::MAX / 2)).count();
        assert!((300..700).contains(&hits), "rate 0.5 sampled {hits}/1000");
    }

    #[test]
    fn tree_renders_nested_and_stitched_roots() {
        let spans = vec![
            span(5, 1, None, "federation.pull", Layer::Net, 0, 500),
            span(5, 2, Some(1), "net.http GET /federation/export", Layer::Net, 50, 450),
            span(5, 3, Some(2), "platform.export_check", Layer::Platform, 100, 200),
            // A span whose parent was recorded by the *other* instance:
            // renders as a root of this view rather than vanishing.
            span(6, 9, Some(100), "net.http GET /x", Layer::Net, 0, 10),
        ];
        let t = render_tree(&spans);
        assert!(t.contains("trace 0000000000000005 — 3 spans"));
        let pull = t.find("federation.pull").unwrap();
        let http = t.find("net.http GET /federation/export").unwrap();
        let check = t.find("platform.export_check").unwrap();
        assert!(pull < http && http < check, "nesting order:\n{t}");
        assert!(t.contains("    net.http"), "child indented:\n{t}");
        assert!(t.contains("trace 0000000000000006"));
    }

    #[test]
    fn critical_path_follows_slowest_child_and_attributes_self_time() {
        let spans = vec![
            span(1, 1, None, "net.http", Layer::Net, 0, 1000),
            span(1, 2, Some(1), "platform.invoke", Layer::Platform, 100, 900),
            span(1, 3, Some(2), "platform.export_check", Layer::Platform, 150, 250),
            span(1, 4, Some(2), "kernel.send", Layer::Kernel, 300, 800),
        ];
        let path = critical_path(&spans, 1);
        let names: Vec<&str> = path.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["net.http", "platform.invoke", "kernel.send"]);
        assert_eq!(path[0].total_us, 1000);
        assert_eq!(path[0].self_us, 200, "root self = 1000 - 800 child");
        assert_eq!(path[1].self_us, 200, "invoke self = 800 - (100 + 500)");

        let attr = layer_attribution(&spans, 1);
        assert_eq!(attr["net"], 200);
        assert_eq!(attr["platform"], 300);
        assert_eq!(attr["kernel"], 500);
        assert_eq!(attr.values().sum::<u64>(), 1000, "attribution partitions the root");
    }

    #[test]
    fn slowest_ranks_by_root_duration() {
        let spans = vec![
            span(1, 1, None, "a", Layer::Net, 0, 100),
            span(2, 2, None, "b", Layer::Net, 0, 300),
            span(3, 3, None, "c", Layer::Net, 0, 200),
        ];
        assert_eq!(slowest_traces(&spans, 2), vec![(2, 300), (3, 200)]);
    }

    #[test]
    fn span_record_json_roundtrips() {
        let mut s = span(3, 4, Some(2), "kernel.send", Layer::Kernel, 10, 20);
        s.secrecy = ObsLabel::from_tags([7, 9]);
        let j = serde_json::to_string(&s).unwrap();
        let back: SpanRecord = serde_json::from_str(&j).unwrap();
        assert_eq!(back, s);
    }
}
