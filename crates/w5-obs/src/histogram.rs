//! Log-bucketed latency histograms.
//!
//! Promoted from `w5-sim` (which now re-exports this module) so the ledger
//! and the experiment harnesses share one implementation. Buckets are
//! powers of two subdivided 16 ways, giving ~4% worst-case resolution from
//! nanoseconds to minutes.

use std::time::Duration;

/// A histogram over nanosecond values with ~4% resolution buckets
/// (powers of 2 subdivided 16 ways), good from nanoseconds to minutes.
#[derive(Clone, Debug)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

const SUB: u64 = 16;

fn bucket_of(ns: u64) -> usize {
    if ns < SUB {
        return ns as usize;
    }
    let exp = 63 - ns.leading_zeros() as u64;
    let base = (exp - 3) * SUB;
    let sub = (ns >> (exp - 4)) - SUB;
    (base + sub) as usize
}

fn bucket_low(bucket: usize) -> u64 {
    let b = bucket as u64;
    if b < SUB {
        return b;
    }
    let exp = b / SUB + 3;
    let sub = b % SUB;
    (SUB + sub) << (exp - 4)
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            counts: vec![0; (64 * SUB) as usize],
            total: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }

    /// Record a duration.
    pub fn record(&mut self, d: Duration) {
        self.record_ns(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Record raw nanoseconds.
    pub fn record_ns(&mut self, ns: u64) {
        let b = bucket_of(ns).min(self.counts.len() - 1);
        self.counts[b] += 1;
        self.total += 1;
        self.sum_ns += ns as u128;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean in nanoseconds.
    pub fn mean_ns(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.total as f64
        }
    }

    /// Approximate percentile, as the lower bound of the containing
    /// bucket. `p` is a fraction in `0.0..=1.0`, not a percentage: 99.0
    /// would read as the max, so debug builds refuse an out-of-range `p`.
    pub fn percentile_ns(&self, p: f64) -> u64 {
        debug_assert!((0.0..=1.0).contains(&p), "percentile_ns takes a fraction, got {p}");
        if self.total == 0 {
            return 0;
        }
        let rank = (p * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_low(b).max(self.min_ns).min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// Minimum sample.
    pub fn min_ns(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min_ns
        }
    }

    /// Maximum sample.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum_ns += other.sum_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// One-line summary: `n=… mean=… p50=… p99=… max=…` in µs.
    pub fn summary(&self) -> String {
        format!(
            "n={} mean={:.1}us p50={:.1}us p90={:.1}us p99={:.1}us max={:.1}us",
            self.total,
            self.mean_ns() / 1e3,
            self.percentile_ns(0.50) as f64 / 1e3,
            self.percentile_ns(0.90) as f64 / 1e3,
            self.percentile_ns(0.99) as f64 / 1e3,
            self.max_ns as f64 / 1e3,
        )
    }

    /// A serializable point-in-time digest (what ledger views export).
    pub fn digest(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.total,
            mean_ns: self.mean_ns(),
            p50_ns: self.percentile_ns(0.50),
            p90_ns: self.percentile_ns(0.90),
            p99_ns: self.percentile_ns(0.99),
            min_ns: self.min_ns(),
            max_ns: self.max_ns(),
        }
    }
}

/// Plain-struct digest of a [`Histogram`], for JSON snapshots.
#[derive(Clone, Debug, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Mean in nanoseconds.
    pub mean_ns: f64,
    /// Median (lower bucket bound).
    pub p50_ns: u64,
    /// 90th percentile.
    pub p90_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// Minimum sample.
    pub min_ns: u64,
    /// Maximum sample.
    pub max_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_monotone() {
        let mut last = 0;
        for ns in [0u64, 1, 15, 16, 17, 100, 1000, 1 << 20, 1 << 40] {
            let b = bucket_of(ns);
            assert!(b >= last, "bucket({ns})={b} < {last}");
            last = b;
            assert!(bucket_low(b) <= ns, "low({b})={} > {ns}", bucket_low(b));
        }
    }

    #[test]
    fn bucket_resolution_within_7_percent() {
        for ns in [100u64, 999, 12345, 1_000_000, 123_456_789] {
            let low = bucket_low(bucket_of(ns));
            let err = (ns - low) as f64 / ns as f64;
            assert!(err < 0.07, "ns={ns} low={low} err={err}");
        }
    }

    #[test]
    fn stats_on_known_data() {
        let mut h = Histogram::new();
        for i in 1..=1000u64 {
            h.record_ns(i * 1000); // 1µs..1ms
        }
        assert_eq!(h.count(), 1000);
        assert!((h.mean_ns() - 500_500.0).abs() < 1.0);
        let p50 = h.percentile_ns(0.5);
        assert!((450_000..=550_000).contains(&p50), "{p50}");
        let p99 = h.percentile_ns(0.99);
        assert!((930_000..=1_000_000).contains(&p99), "{p99}");
        assert_eq!(h.min_ns(), 1000);
        assert_eq!(h.max_ns(), 1_000_000);
    }

    #[test]
    fn percentiles_track_exact_quantiles_within_bucket_resolution() {
        // Uniform samples over a wide range: every reported percentile must
        // be a lower bound on the exact quantile and within one bucket
        // (~7%) of it.
        let mut h = Histogram::new();
        let n = 10_000u64;
        for i in 1..=n {
            h.record_ns(i * 37); // 37ns .. 370µs
        }
        for &(p, rank) in &[(0.5, n / 2), (0.9, n * 9 / 10), (0.99, n * 99 / 100)] {
            let exact = rank * 37;
            let approx = h.percentile_ns(p);
            assert!(approx <= exact, "p{p}: approx {approx} > exact {exact}");
            let err = (exact - approx) as f64 / exact as f64;
            assert!(err < 0.07, "p{p}: approx {approx} exact {exact} err {err}");
        }
        // Extremes: p0 is the exact minimum; p100 is within a bucket of the
        // exact maximum (and never above it).
        assert_eq!(h.percentile_ns(0.0), 37);
        let p100 = h.percentile_ns(1.0);
        assert!(p100 <= n * 37 && p100 >= n * 37 * 93 / 100, "{p100}");
    }

    #[test]
    fn empty_histogram_is_calm() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean_ns(), 0.0);
        assert_eq!(h.percentile_ns(0.99), 0);
        assert_eq!(h.min_ns(), 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "takes a fraction")]
    fn percentage_instead_of_fraction_is_refused() {
        Histogram::new().percentile_ns(99.0);
    }

    #[test]
    fn merge_combines() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record_ns(100);
        b.record_ns(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min_ns(), 100);
        assert_eq!(a.max_ns(), 1_000_000);
    }

    #[test]
    fn summary_formats() {
        let mut h = Histogram::new();
        h.record(Duration::from_micros(50));
        let s = h.summary();
        assert!(s.contains("n=1"), "{s}");
    }

    #[test]
    fn digest_roundtrips_through_json() {
        let mut h = Histogram::new();
        for i in 1..=100u64 {
            h.record_ns(i * 10);
        }
        let d = h.digest();
        let s = serde_json::to_string(&d).unwrap();
        let back: HistogramSummary = serde_json::from_str(&s).unwrap();
        assert_eq!(back, d);
        assert_eq!(back.count, 100);
    }
}
