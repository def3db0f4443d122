//! E11 — labeled store scaling (paper §2 storage path).
//!
//! Query latency versus table size and label diversity (how many distinct
//! users' rows share the table), for the W5 filtered store against the
//! naive unlabeled scan. The per-row label check is the marginal cost of
//! commingling everyone's data in one table — the aggregation-over-
//! isolation bet of §5.
//!
//! The store is label-partitioned (one flow check per partition, pruning,
//! ordered indexes). The rows/s column is the number the paper's bet
//! depends on — partitioning is what keeps the shared table competitive
//! with per-user silos as label diversity grows.

use std::sync::Arc;
use std::time::Duration;
use w5_difc::{Label, LabelPair, TagKind, TagRegistry};
use w5_store::{Database, QueryCost, QueryMode, Subject};
use w5_sim::Table;

fn build_db(db: &Database, rows: usize, users: usize, reg: &Arc<TagRegistry>) {
    let trusted = Subject::anonymous();
    db.execute(&trusted, QueryMode::Filtered, QueryCost::unlimited(), &LabelPair::public(),
        "CREATE TABLE items (n INTEGER, owner INTEGER)").unwrap();
    let labels: Vec<LabelPair> = (0..users)
        .map(|i| {
            let (t, _) = reg.create_tag(TagKind::ExportProtect, &format!("u{i}"));
            LabelPair::new(Label::singleton(t), Label::empty())
        })
        .collect();
    // Insert in batches per user (rows carry that user's label).
    let per_user = rows / users;
    for (u, l) in labels.iter().enumerate() {
        let mut remaining = per_user;
        let mut base = 0;
        while remaining > 0 {
            let chunk = remaining.min(500);
            let values: Vec<String> =
                (0..chunk).map(|i| format!("({}, {u})", base + i)).collect();
            db.execute(&trusted, QueryMode::Filtered, QueryCost::unlimited(), l,
                &format!("INSERT INTO items VALUES {}", values.join(","))).unwrap();
            remaining -= chunk;
            base += chunk;
        }
    }
}

fn main() {
    w5_bench::banner("E11", "labeled store: scan cost vs rows and label diversity", "§2, §5");
    let budget = Duration::from_millis(300);

    let mut table = Table::new([
        "rows",
        "distinct users",
        "mode",
        "scan latency",
        "rows/s",
    ]);

    for &(rows, users) in &[(1_000usize, 1usize), (10_000, 1), (10_000, 10), (10_000, 100), (50_000, 100)] {
        let db = Database::new();
        let reg = Arc::new(TagRegistry::new());
        build_db(&db, rows, users, &reg);
        let reader = Subject::new(LabelPair::public(), reg.effective(&w5_difc::CapSet::empty()));
        for (mode_name, mode) in [("w5 filtered", QueryMode::Filtered), ("naive", QueryMode::Naive)] {
            let (iters, elapsed) = w5_bench::throughput(budget, || {
                let out = db
                    .execute(&reader, mode, QueryCost::unlimited(), &LabelPair::public(),
                        "SELECT COUNT(*) FROM items WHERE n % 2 = 0")
                    .unwrap();
                std::hint::black_box(out.scanned);
            });
            let per_scan = elapsed.as_secs_f64() / iters as f64;
            table.row([
                rows.to_string(),
                users.to_string(),
                mode_name.to_string(),
                format!("{:.2}ms", per_scan * 1e3),
                w5_bench::ops_per_sec(iters * rows as u64, elapsed),
            ]);
        }
    }
    println!("{table}");
    println!("shape check: both modes scale linearly in rows here (every partition is");
    println!("             readable-with-taint, so nothing prunes); what filtering adds to the");
    println!("             naive scan is one flow check per partition, not per row. Pruning");
    println!("             and the indexes are measured by bench_store_json.");
}
