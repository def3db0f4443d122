//! BENCH_store — label-partitioned storage vs the seed per-row scan.
//!
//! Every scenario builds two identical worlds and runs the same query
//! stream against both executors:
//!
//! - **reference**: [`w5_store::ReferenceExec`] — the seed engine kept
//!   verbatim: every row visited in insertion order, one memoized flow
//!   check and one budget unit per row.
//! - **partitioned**: [`w5_store::PartitionedExec`] — rows grouped into
//!   label partitions (one flow check per partition, unreadable
//!   partitions skipped at flat cost) with per-partition ordered indexes
//!   serving indexed `WHERE` clauses.
//!
//! Three shapes, at 1k and 100k rows:
//!
//! - `point_lookup` — indexed `WHERE id = k` by one owner among many:
//!   index probe + partition pruning vs full scan.
//! - `range_scan` — indexed range over a public table: pure index win,
//!   no label skew.
//! - `label_skew` — full aggregate by an owner who can read 1 of 100
//!   partitions: pure pruning win, no index.
//!
//! And one probe of the partitioned engine alone, `point_lookup_parts_N`:
//! the same indexed point lookup at a fixed 100k rows spread over 10, 100
//! and 1000 partitions of which the reader may read one — what a statement
//! pays per partition it has to ask about, as ns per partition.
//!
//! Emits `BENCH_store.json` (via `w5_bench::metrics`, so
//! `W5_METRICS_DIR` redirects it). `--short` shrinks sizes and budgets
//! for CI smoke runs; `--check <baseline.json>` exits non-zero if any
//! paired speedup regressed more than 5x against the committed baseline.
//! Full runs also enforce the PR's acceptance floors: ≥5x on the
//! 100k-row label-skewed scan, ≥10x on 100k-row indexed point lookups.

use std::sync::Arc;
use std::time::Duration;
use w5_difc::{CapSet, Label, LabelPair, TagKind, TagRegistry};
use w5_store::{Database, QueryCost, QueryMode, Subject};

/// One measured arm.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
struct BenchEntry {
    name: String,
    ns_per_op: f64,
    ops_per_sec: f64,
}

/// A reference-vs-partitioned pairing; `speedup` = ref ns / partitioned ns.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
struct Speedup {
    name: String,
    speedup: f64,
}

/// One `point_lookup_parts_N` reading: query time over partitions walked.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
struct PerPartition {
    name: String,
    partitions: usize,
    ns_per_partition: f64,
}

/// The whole artifact.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
struct BenchStore {
    short: bool,
    entries: Vec<BenchEntry>,
    speedups: Vec<Speedup>,
    per_partition: Vec<PerPartition>,
}

struct Harness {
    budget: Duration,
    entries: Vec<BenchEntry>,
    speedups: Vec<Speedup>,
}

impl Harness {
    fn bench<F: FnMut()>(&mut self, name: &str, mut f: F) -> f64 {
        let (iters, elapsed) = w5_bench::throughput(self.budget, &mut f);
        let ns = elapsed.as_nanos() as f64 / iters as f64;
        println!("  {name:<34} {:>12}  {ns:>12.0} ns/query", w5_bench::ops_per_sec(iters, elapsed));
        self.entries.push(BenchEntry {
            name: name.to_string(),
            ns_per_op: ns,
            ops_per_sec: iters as f64 / elapsed.as_secs_f64(),
        });
        ns
    }

    fn pair<FR: FnMut(), FP: FnMut()>(
        &mut self,
        name: &str,
        reference: FR,
        partitioned: FP,
    ) {
        let r = self.bench(&format!("{name} (reference)"), reference);
        let p = self.bench(&format!("{name} (partitioned)"), partitioned);
        let speedup = r / p;
        println!("  {name:<34} speedup {speedup:.1}x");
        self.speedups.push(Speedup { name: name.to_string(), speedup });
    }
}

/// Fill `items` with `rows` rows spread over `labels` round-robin
/// (`labels.len()` partitions), unique indexed `id`, then index it.
fn build(db: &Database, rows: usize, labels: &[LabelPair]) {
    let trusted = Subject::anonymous();
    db.execute(
        &trusted,
        QueryMode::Filtered,
        QueryCost::unlimited(),
        &LabelPair::public(),
        "CREATE TABLE items (id INTEGER, v INTEGER, owner INTEGER)",
    )
    .unwrap();
    for (u, l) in labels.iter().enumerate() {
        // Owner u's rows are the ids ≡ u (mod owners), batched.
        let ids: Vec<usize> = (0..rows).filter(|i| i % labels.len() == u).collect();
        for chunk in ids.chunks(500) {
            let values: Vec<String> =
                chunk.iter().map(|i| format!("({i}, {}, {u})", i * 7 % 1000)).collect();
            db.execute(
                &trusted,
                QueryMode::Filtered,
                QueryCost::unlimited(),
                l,
                &format!("INSERT INTO items VALUES {}", values.join(",")),
            )
            .unwrap();
        }
    }
    db.create_index("items", "id").unwrap();
}

fn select(db: &Database, reader: &Subject, sql: &str) -> u64 {
    let out = db
        .execute(reader, QueryMode::Filtered, QueryCost::unlimited(), &LabelPair::public(), sql)
        .unwrap();
    std::hint::black_box(out.scanned)
}

/// Compare against a committed baseline: any paired speedup that fell by
/// more than 5x fails the run.
fn check_against(baseline_path: &str, current: &BenchStore) -> Result<(), String> {
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("read {baseline_path}: {e}"))?;
    let baseline: BenchStore =
        serde_json::from_str(&text).map_err(|e| format!("parse {baseline_path}: {e}"))?;
    let mut failures = Vec::new();
    let mut compared = 0usize;
    for base in &baseline.speedups {
        let Some(cur) = current.speedups.iter().find(|s| s.name == base.name) else {
            // A --short run only covers the small sizes; a full run must
            // cover everything the baseline has.
            if !current.short {
                failures.push(format!("{}: missing from current run", base.name));
            }
            continue;
        };
        compared += 1;
        if cur.speedup < base.speedup / 5.0 {
            failures.push(format!(
                "{}: speedup {:.2}x is >5x below baseline {:.2}x",
                base.name, cur.speedup, base.speedup
            ));
        }
    }
    if failures.is_empty() {
        if compared == 0 {
            return Err(format!("no common pairings with {baseline_path}"));
        }
        println!("check vs {baseline_path}: ok ({compared} pairings)");
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let short = args.iter().any(|a| a == "--short");
    let check = args
        .iter()
        .position(|a| a == "--check")
        .map(|i| args.get(i + 1).expect("--check needs a path").clone());

    w5_bench::banner(
        "BENCH_store",
        "label-partitioned storage vs seed per-row scan",
        "§3.5",
    );
    let mut h = Harness {
        budget: if short { Duration::from_millis(40) } else { Duration::from_millis(300) },
        entries: Vec::new(),
        speedups: Vec::new(),
    };

    const OWNERS: usize = 100;
    let reg = Arc::new(TagRegistry::new());
    // Owner labels are read-protected: only the tag holder sees the rows.
    let mut owner_caps = Vec::new();
    let owner_labels: Vec<LabelPair> = (0..OWNERS)
        .map(|i| {
            let (t, caps) = reg.create_tag(TagKind::ReadProtect, &format!("bench:u{i}"));
            owner_caps.push(caps);
            LabelPair::new(Label::singleton(t), Label::empty())
        })
        .collect();
    let owner0 = Subject::new(LabelPair::public(), reg.effective(&owner_caps[0]));
    let public_reader = Subject::new(LabelPair::public(), reg.effective(&CapSet::empty()));

    let sizes: &[usize] = if short { &[1_000, 10_000] } else { &[1_000, 100_000] };
    for &rows in sizes {
        // --- Indexed point lookups by one owner among 100. ---
        let rdb = Database::reference();
        let pdb = Database::new();
        build(&rdb, rows, &owner_labels);
        build(&pdb, rows, &owner_labels);
        // Rotate over owner 0's own ids (i ≡ 0 mod OWNERS), one counter
        // per arm so both see the same id sequence.
        let (mut kr, mut kp) = (0usize, 0usize);
        h.pair(
            &format!("point_lookup_{rows}"),
            || {
                let id = (kr * OWNERS) % rows;
                kr += 1;
                select(&rdb, &owner0, &format!("SELECT v FROM items WHERE id = {id}"));
            },
            || {
                let id = (kp * OWNERS) % rows;
                kp += 1;
                select(&pdb, &owner0, &format!("SELECT v FROM items WHERE id = {id}"));
            },
        );

        // --- Label-skewed full scan: owner 0 aggregates a table that is
        // 99% other people's partitions. ---
        h.pair(
            &format!("label_skew_{rows}"),
            || {
                select(&rdb, &owner0, "SELECT COUNT(*), SUM(v) FROM items");
            },
            || {
                select(&pdb, &owner0, "SELECT COUNT(*), SUM(v) FROM items");
            },
        );

        // --- Indexed range scan over an all-public table: the pure index
        // win, no label skew at all. ---
        let rpub = Database::reference();
        let ppub = Database::new();
        build(&rpub, rows, std::slice::from_ref(&LabelPair::public()));
        build(&ppub, rows, std::slice::from_ref(&LabelPair::public()));
        let (mut ar, mut ap) = (0usize, 0usize);
        let range_sql = |a: usize| {
            let lo = (a * 131) % rows;
            let hi = (lo + 100).min(rows);
            format!("SELECT COUNT(*), SUM(v) FROM items WHERE id >= {lo} AND id < {hi}")
        };
        h.pair(
            &format!("range_scan_{rows}"),
            || {
                select(&rpub, &public_reader, &range_sql(ar));
                ar += 1;
            },
            || {
                select(&ppub, &public_reader, &range_sql(ap));
                ap += 1;
            },
        );
    }

    // --- The per-partition constant: one readable partition among N
    // read-protected ones, row count fixed, so only N moves. Tags made
    // here are not in `owner0`'s capability snapshot: it reads partition 0
    // and is refused everywhere else, as above. ---
    let rows = if short { 10_000 } else { 100_000 };
    let part_counts: &[usize] = if short { &[10, 100] } else { &[10, 100, 1000] };
    let mut labels = owner_labels;
    let mut per_partition = Vec::new();
    for &parts in part_counts {
        for i in labels.len()..parts {
            let (t, _) = reg.create_tag(TagKind::ReadProtect, &format!("bench:u{i}"));
            labels.push(LabelPair::new(Label::singleton(t), Label::empty()));
        }
        let db = Database::new();
        build(&db, rows, &labels[..parts]);
        let name = format!("point_lookup_parts_{parts}");
        let mut k = 0usize;
        let ns = h.bench(&format!("{name} (partitioned)"), || {
            let id = (k * parts) % rows;
            k += 1;
            select(&db, &owner0, &format!("SELECT v FROM items WHERE id = {id}"));
        });
        let ns_per_partition = ns / parts as f64;
        println!("  {name:<34} {ns_per_partition:.0} ns/partition");
        per_partition.push(PerPartition { name, partitions: parts, ns_per_partition });
    }

    let out = BenchStore { short, entries: h.entries, speedups: h.speedups, per_partition };
    let path = w5_bench::metrics::write_metrics("BENCH_store", &out).expect("write metrics");
    println!();
    println!("wrote {}", path.display());

    // Acceptance floors (full runs only — --short sizes are CI smoke).
    if !short {
        let floors = [("label_skew_100000", 5.0), ("point_lookup_100000", 10.0)];
        for (name, floor) in floors {
            let s = out
                .speedups
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("{name} missing"));
            if s.speedup < floor {
                eprintln!("FAIL: {} speedup {:.2}x < {floor}x acceptance floor", name, s.speedup);
                std::process::exit(1);
            }
        }
    }

    if let Some(baseline) = check {
        if let Err(e) = check_against(&baseline, &out) {
            eprintln!("FAIL: {e}");
            std::process::exit(1);
        }
    }
}
