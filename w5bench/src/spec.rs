//! The benchmark's fixed tables: workloads, end-to-end metrics and their
//! regression bounds, per-layer metrics. `BENCHMARK.json` at the repository
//! root repeats these names; `tests/smoke.rs` checks the two agree.

use w5_sim::workload::MixWeights;

/// How requests enter the system.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Entry {
    /// Real loopback TCP, one keep-alive connection per client thread.
    KeepAlive,
    /// Real loopback TCP, a new connection per request.
    ConnClose,
    /// Straight into `Platform::invoke`, one thread, no net layer.
    Invoke,
}

/// One workload. A run is a sequence of identical *rounds*; every round
/// builds a fresh same-seed world and drives `warmup + measured` requests,
/// so a faster build completes more rounds but never sees a bigger table.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub users: usize,
    pub photos_per_user: usize,
    pub posts_per_user: usize,
    /// Requests per round at `--scale 1.0`.
    pub warmup: usize,
    pub measured: usize,
    /// Equal-count slices the measured phase is cut into: at least 1,000
    /// requests each at scale 1.0, so a slice's p99 has ten samples beyond it.
    pub slices: usize,
    pub mix: MixWeights,
    /// Every n-th request is rewritten to a stranger's `view` (403 under
    /// IFC); 0 disables the rewrite.
    pub stranger_every: usize,
    pub entry: Entry,
    pub ifc: bool,
}

impl Workload {
    /// Client threads: two on the socket (one per core of the 2-core
    /// reference host), one for direct invocation.
    pub fn clients(&self) -> usize {
        match self.entry {
            Entry::KeepAlive | Entry::ConnClose => 2,
            Entry::Invoke => 1,
        }
    }

    /// Per-round `(warmup, measured)` request counts at `scale`; measured
    /// is kept a multiple of `slices`.
    pub fn counts(&self, scale: f64) -> (usize, usize) {
        let scaled = |n: usize| ((n as f64 * scale) as usize).max(self.slices * 10);
        (
            scaled(self.warmup),
            scaled(self.measured) / self.slices * self.slices,
        )
    }

    /// Measured requests the traced run replays at each depth: a quarter
    /// of a round, so that five worlds' worth of replays stay near the
    /// length of an end-to-end run on the slow workloads too.
    pub fn traced(&self, scale: f64) -> usize {
        TRACE_REQUESTS.min(self.counts(scale).1 / 4)
    }
}

/// Most requests replayed per peel depth in the traced run; see
/// [`Workload::traced`].
pub const TRACE_REQUESTS: usize = 2000;

/// Read-only requests replayed against `Gateway::handle` after the
/// measured phase; the two answers must match byte for byte.
pub const REPLAY_REQUESTS: usize = 200;

const MIX: MixWeights = MixWeights {
    view_photo: 40,
    list_photos: 20,
    list_blog: 25,
    write_post: 5,
    feed: 10,
};
const BLOG_RW: MixWeights = MixWeights {
    view_photo: 0,
    list_photos: 0,
    list_blog: 70,
    write_post: 30,
    feed: 0,
};

/// The default mix on the default-sized world over two keep-alive
/// connections; the other mix workloads vary one thing each.
const MIX_KEEPALIVE: Workload = Workload {
    name: "mix_keepalive",
    why: "Headline: default read-heavy mix over 2 keep-alive connections; every layer runs and socket+pipeline own most of the latency, so a net fix shows here and a store fix should not.",
    users: 200,
    photos_per_user: 2,
    posts_per_user: 8,
    warmup: 1_000,
    measured: 10_000,
    slices: 10,
    mix: MIX,
    stranger_every: 20,
    entry: Entry::KeepAlive,
    ifc: true,
};

const INVOKE_MIX: Workload = Workload {
    name: "invoke_mix",
    why: "The mix straight into Platform::invoke on one thread: net is zero, so a label, kernel, store or ledger change can move an end-to-end number; the bypass for every net change.",
    warmup: 2_500,
    measured: 25_000,
    slices: 10,
    entry: Entry::Invoke,
    ..MIX_KEEPALIVE
};

/// In-process workloads first, then the socket ones.
pub const WORKLOADS: [Workload; 5] = [
    INVOKE_MIX,
    Workload {
        name: "invoke_mix_noifc",
        why: "invoke_mix on w5_baseline::no_ifc_platform: the control arm; a difc change must not move it, and its p50 is the denominator of difc.ifc_tax_p50.",
        ifc: false,
        ..INVOKE_MIX
    },
    MIX_KEEPALIVE,
    Workload {
        name: "mix_connclose",
        why: "Same stream with a new TCP connection per request: accept, thread spawn and handshake dominate; a keep-alive-only fix predicts no change here.",
        warmup: 500,
        measured: 10_000,
        slices: 4,
        entry: Entry::ConnClose,
        ..MIX_KEEPALIVE
    },
    Workload {
        name: "blog_rw_large",
        why: "70% blog list / 30% blog write over a large blog_posts table: store-dominated, and writes run beside reads so a read gain paid for by inserts shows up.",
        posts_per_user: 250,
        warmup: 500,
        measured: 5_000,
        slices: 5,
        mix: BLOG_RW,
        stranger_every: 0,
        ..MIX_KEEPALIVE
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// An end-to-end metric: what a user of the system sees. `bound` is the
/// share of the parent's median by which it may worsen before `compare`
/// (and the driver) call it a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: f64,
}

#[rustfmt::skip]
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd { name: "throughput_rps", unit: "req/s", higher_is_better: true, bound: 0.25 },
    EndToEnd { name: "latency_p50_us", unit: "us", higher_is_better: false, bound: 0.25 },
    EndToEnd { name: "latency_p99_us", unit: "us", higher_is_better: false, bound: 0.25 },
    EndToEnd { name: "cpu_us_per_req", unit: "us", higher_is_better: false, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", higher_is_better: false, bound: 0.10 },
    EndToEnd { name: "setup_s", unit: "s", higher_is_better: false, bound: 0.25 },
];

/// Per-layer metrics `(name, unit, higher_is_better)`, layers named after
/// the crates plus `client` and `proc` for the harness's own readings.
/// They carry no bound. BENCHMARK.md says which end-to-end metric on which
/// workload each one should move.
pub const PER_LAYER: [(&str, &str, bool); 46] = [
    ("client.requests", "count", true),
    ("client.samples", "count", true),
    ("client.latency_p999_us", "us", false),
    ("client.latency_max_us", "us", false),
    ("client.traced_p50_us", "us", false),
    ("net.socket_self_us", "us", false),
    ("net.connect_us", "us", false),
    ("net.pipeline_self_us", "us", false),
    ("net.codec_us", "us", false),
    ("net.tcp_segs_per_req", "count", false),
    ("net.resp_bytes_per_req", "bytes", false),
    ("net.pipeline_admitted_per_req", "count", false),
    ("net.pipeline_shed", "count", false),
    ("net.pipeline_quota_denied", "count", false),
    ("net.pipeline_panics", "count", false),
    ("platform.gateway_self_us", "us", false),
    ("platform.invoke_us", "us", false),
    ("platform.session_validate_us", "us", false),
    ("platform.export_check_us", "us", false),
    ("platform.exports_blocked_per_req", "count", false),
    ("platform.declassifier_calls_per_req", "count", false),
    ("platform.faults", "count", false),
    ("platform.invoke_residual_us", "us", false),
    ("kernel.spawn_exit_us", "us", false),
    ("kernel.label_changes_per_req", "count", false),
    ("kernel.live_processes_end", "count", false),
    ("store.sql_parse_us", "us", false),
    ("store.sql_select_us", "us", false),
    ("store.rows_scanned_per_select", "count", false),
    ("store.sql_insert_us", "us", false),
    ("store.fs_read_us", "us", false),
    ("store.per_req_us", "us", false),
    ("store.rows_total_end", "count", false),
    ("difc.flow_check_ns", "ns", false),
    ("difc.checks_per_req", "count", false),
    ("difc.flow_cache_hit_ratio", "ratio", true),
    ("difc.intern_calls_per_req", "count", false),
    ("difc.intern_hit_ratio", "ratio", true),
    ("difc.ifc_tax_p50", "ratio", false),
    ("obs.events_per_req", "count", false),
    ("obs.spans_per_req", "count", false),
    ("obs.record_ns", "ns", false),
    ("obs.per_req_us", "us", false),
    ("obs.trace_tax_ratio", "ratio", false),
    ("proc.vol_ctx_switches_per_req", "count", false),
    // Low 48 bits of the FNV-1a digest of the request stream: the same
    // seed must give the same inputs.
    ("client.stream_digest", "count", false),
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
        .unwrap_or_else(|| panic!("metric {name} is not in the spec tables"))
}
