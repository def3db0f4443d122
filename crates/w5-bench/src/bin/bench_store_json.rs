//! BENCH_store — what the labeled store's pruning and indexes are worth.
//!
//! Rows live in label partitions (one flow check per partition, unreadable
//! ones skipped at flat cost) with per-partition ordered indexes. If either
//! stops working, a query's time starts to follow the table's size; so each
//! shape runs at 1k rows and at 100k and the figure kept is
//! `size_ratio = ns(large) / ns(1k)`: ≈ 1 while both work, ≈ 100 when one
//! does not. (How many rows a statement *visits* is deterministic and pinned
//! by `scanned` in `sql_engine.rs` and `noninterference::scan_cost`.)
//!
//! - `point_lookup` — indexed `WHERE id = k` by one owner among many:
//!   index probe + partition pruning.
//! - `range_scan` — indexed range over a public table: the index alone.
//! - `label_skew` — full aggregate by an owner who can read 1 of 100
//!   partitions: pruning alone.
//!
//! And one probe, `point_lookup_parts_N`: the same indexed point lookup at
//! a fixed 100k rows spread over 10, 100 and 1000 partitions of which the
//! reader may read one — what a statement pays per partition it has to ask
//! about, as ns per partition.
//!
//! Emits `BENCH_store.json` (via `w5_bench::metrics`, so `W5_METRICS_DIR`
//! redirects it). `--short` shrinks sizes and budgets for CI smoke runs.
//! Every run fails on a size ratio above 5; `--check <baseline.json>` also
//! fails one more than 5x the committed baseline's.

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

/// One shape's growth with table size: ns at the large size over ns at 1k.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
struct SizeRatio {
    name: String,
    ratio: f64,
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
    size_ratios: Vec<SizeRatio>,
    per_partition: Vec<PerPartition>,
}

struct Harness {
    budget: Duration,
    entries: Vec<BenchEntry>,
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

/// The hard ceiling on every size ratio, and the slack `--check` allows
/// against the baseline's.
const MAX_RATIO: f64 = 5.0;

/// Compare against a committed baseline. (A `--short` run's large size is
/// smaller than the baseline's, which only makes its ratios easier to meet.)
fn check_against(baseline_path: &str, current: &BenchStore) -> Result<(), String> {
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("read {baseline_path}: {e}"))?;
    let baseline: BenchStore =
        serde_json::from_str(&text).map_err(|e| format!("parse {baseline_path}: {e}"))?;
    let mut failures = Vec::new();
    for base in &baseline.size_ratios {
        match current.size_ratios.iter().find(|r| r.name == base.name) {
            None => failures.push(format!("{}: missing from current run", base.name)),
            Some(cur) if cur.ratio > base.ratio * MAX_RATIO => failures.push(format!(
                "{}: size ratio {:.2} is >5x the baseline's {:.2}",
                base.name, cur.ratio, base.ratio
            )),
            Some(_) => {}
        }
    }
    if baseline.size_ratios.is_empty() {
        return Err(format!("no size ratios in {baseline_path}"));
    }
    if failures.is_empty() {
        println!("check vs {baseline_path}: ok ({} shapes)", baseline.size_ratios.len());
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
        "labeled store: query time against table size and partition count",
        "§3.5",
    );
    let mut h = Harness {
        budget: if short { Duration::from_millis(40) } else { Duration::from_millis(300) },
        entries: Vec::new(),
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

    const SHAPES: [&str; 3] = ["point_lookup", "label_skew", "range_scan"];
    let sizes: [usize; 2] = if short { [1_000, 10_000] } else { [1_000, 100_000] };
    let mut ns = [[0f64; 2]; 3];
    for (si, &rows) in sizes.iter().enumerate() {
        // --- Indexed point lookups by one owner among 100, rotating over
        // owner 0's own ids (i ≡ 0 mod OWNERS). ---
        let db = Database::new();
        build(&db, rows, &owner_labels);
        let mut k = 0usize;
        ns[0][si] = h.bench(&format!("point_lookup_{rows}"), || {
            let id = (k * OWNERS) % rows;
            k += 1;
            select(&db, &owner0, &format!("SELECT v FROM items WHERE id = {id}"));
        });

        // --- Label-skewed full scan: owner 0 aggregates a table that is
        // 99% other people's partitions. ---
        ns[1][si] = h.bench(&format!("label_skew_{rows}"), || {
            select(&db, &owner0, "SELECT COUNT(*), SUM(v) FROM items");
        });

        // --- Indexed range scan over an all-public table: the index
        // alone, no label skew at all. ---
        let public = Database::new();
        build(&public, rows, std::slice::from_ref(&LabelPair::public()));
        let mut a = 0usize;
        ns[2][si] = h.bench(&format!("range_scan_{rows}"), || {
            let lo = (a * 131) % rows;
            let hi = (lo + 100).min(rows);
            a += 1;
            select(
                &public,
                &public_reader,
                &format!("SELECT COUNT(*), SUM(v) FROM items WHERE id >= {lo} AND id < {hi}"),
            );
        });
    }
    let size_ratios: Vec<SizeRatio> = SHAPES
        .iter()
        .zip(ns)
        .map(|(name, [small, large])| {
            let ratio = large / small;
            println!("  {name:<34} size ratio {ratio:.2} ({} rows / {})", sizes[1], sizes[0]);
            SizeRatio { name: name.to_string(), ratio }
        })
        .collect();

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
        let ns = h.bench(&name, || {
            let id = (k * parts) % rows;
            k += 1;
            select(&db, &owner0, &format!("SELECT v FROM items WHERE id = {id}"));
        });
        let ns_per_partition = ns / parts as f64;
        println!("  {name:<34} {ns_per_partition:.0} ns/partition");
        per_partition.push(PerPartition { name, partitions: parts, ns_per_partition });
    }

    let out = BenchStore { short, entries: h.entries, size_ratios, per_partition };
    let path = w5_bench::metrics::write_metrics("BENCH_store", &out).expect("write metrics");
    println!();
    println!("wrote {}", path.display());

    for r in &out.size_ratios {
        if r.ratio > MAX_RATIO {
            eprintln!("FAIL: {} takes {:.2}x as long on the large table (ceiling {MAX_RATIO})", r.name, r.ratio);
            std::process::exit(1);
        }
    }

    if let Some(baseline) = check {
        if let Err(e) = check_against(&baseline, &out) {
            eprintln!("FAIL: {e}");
            std::process::exit(1);
        }
    }
}
