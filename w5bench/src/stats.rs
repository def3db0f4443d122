//! Exact order statistics over raw samples, and the `/proc` readers the
//! harness uses for its own resource metrics.

/// The value at quantile `q` of `sorted` (nearest-rank on the raw samples;
/// no histogram buckets, which are ~11% wide in `w5_obs::Histogram`).
pub fn quantile_sorted<T: Copy>(sorted: &[T], q: f64) -> T {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Quantile `q` of latency samples in nanoseconds, as microseconds.
pub fn quantile_us(samples_ns: &mut [u32], q: f64) -> f64 {
    samples_ns.sort_unstable();
    quantile_sorted(samples_ns, q) as f64 / 1e3
}

pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// The quartile of `values` on which the host interfered least: the lower
/// quartile of a cost, the upper quartile of a rate. This sandbox's speed
/// swings by half for seconds at a time, and interference only adds time,
/// so this is the better estimate of the build's own cost (BENCHMARK.md has
/// the measurements).
pub fn quiet_quartile(values: &mut [f64], higher_is_better: bool) -> f64 {
    assert!(!values.is_empty(), "quartile of no values");
    values.sort_by(f64::total_cmp);
    quantile_sorted(values, if higher_is_better { 0.75 } else { 0.25 })
}

/// Process CPU time (user + system, all threads, dead ones included) in
/// microseconds. `/proc/self/stat` counts in 10 ms ticks on Linux.
pub fn cpu_us() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = &stat[stat.rfind(')').expect("comm in /proc/self/stat") + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut ticks = || {
        fields
            .next()
            .and_then(|f| f.parse::<u64>().ok())
            .expect("utime/stime")
    };
    (ticks() + ticks()) * 10_000
}

fn status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set size of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").expect("VmHWM in /proc/self/status") / 1024.0
}

/// Voluntary context switches summed over the live threads. Threads that
/// have exited are gone from `/proc`, so this under-counts on
/// connection-per-request workloads.
pub fn voluntary_ctx_switches() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("status")).ok())
        .filter_map(|s| {
            s.lines()
                .find(|l| l.starts_with("voluntary_ctxt_switches:"))
                .and_then(|l| l.split_ascii_whitespace().nth(1)?.parse::<u64>().ok())
        })
        .sum()
}

/// Host-wide TCP segments sent (`/proc/net/snmp`, `Tcp: OutSegs`); `None`
/// where the file is unreadable.
pub fn tcp_out_segs() -> Option<u64> {
    let snmp = std::fs::read_to_string("/proc/net/snmp").ok()?;
    let mut tcp = snmp.lines().filter(|l| l.starts_with("Tcp:"));
    let names = tcp.next()?.split_ascii_whitespace();
    let mut values = tcp.next()?.split_ascii_whitespace();
    let col = names.into_iter().position(|n| n == "OutSegs")?;
    values.nth(col)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50);
        assert_eq!(quantile_sorted(&v, 0.99), 99);
        assert_eq!(quantile_sorted(&v, 1.0), 100);
        assert_eq!(quantile_sorted(&[7u32], 0.99), 7);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn proc_readers_work_here() {
        assert!(peak_rss_mb() > 0.0);
        let before = cpu_us();
        assert!(cpu_us() >= before);
    }
}
