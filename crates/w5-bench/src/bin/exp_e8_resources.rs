//! E8 — resource allocation (paper §3.5).
//!
//! "Processes must be limited to reasonable amounts of disk, network,
//! memory and CPU usage, lest rogue applications degrade the performance
//! of the W5 cluster." Two arms:
//!
//! 1. **CPU**: a spinning rogue task shares the deterministic scheduler
//!    with honest tasks, with resource containers on and off. Metric:
//!    honest-task completion latency (virtual ticks).
//! 2. **SQL**: a pathological full-scan query against a large table, with
//!    and without the per-query scan budget. Metric: rows actually
//!    scanned before the engine cuts it off.

use std::sync::Arc;
use w5_difc::{CapSet, LabelPair, TagRegistry};
use w5_kernel::{Kernel, ResourceLimits, Scheduler, Step};
use w5_store::{Database, QueryCost, QueryError, QueryMode, Subject};
use w5_sim::Table;

fn worker(total: u64, slice: u64) -> impl FnMut(&Kernel, w5_kernel::ProcessId) -> Step {
    let mut left = total;
    move |_k, _p| {
        if left == 0 {
            return Step::Done;
        }
        let c = slice.min(left);
        left -= c;
        Step::Yield { cost: c }
    }
}

fn cpu_arm(enforce: bool, rogues: usize) -> (u64, u64) {
    let kernel = Kernel::new(Arc::new(TagRegistry::new()));
    let mut sched = Scheduler::new(kernel.clone(), 100, enforce);
    // Honest task: 200 ticks of real work.
    let honest = kernel.create_process(
        "honest",
        LabelPair::public(),
        CapSet::empty(),
        ResourceLimits { cpu_per_epoch: 100, ..ResourceLimits::unlimited() },
    );
    sched.add(honest, Box::new(worker(200, 10)));
    for i in 0..rogues {
        let rogue = kernel.create_process(
            &format!("rogue{i}"),
            LabelPair::public(),
            CapSet::empty(),
            ResourceLimits { cpu_per_epoch: 10, ..ResourceLimits::unlimited() },
        );
        sched.add(rogue, Box::new(worker(u64::MAX / 4, 1000)));
    }
    let report = sched.run(2_000_000);
    let honest_done = report.finished_at.get(&honest).copied().unwrap_or(u64::MAX);
    let rogue_executed: u64 = report
        .executed
        .iter()
        .filter(|(pid, _)| **pid != honest)
        .map(|(_, t)| *t)
        .sum();
    (honest_done, rogue_executed)
}

fn main() {
    w5_bench::banner("E8", "rogue apps vs resource containers", "§3.5");

    // --- CPU containment.
    let mut cpu = Table::new([
        "rogues",
        "honest latency (no containers)",
        "honest latency (containers)",
        "speedup",
    ]);
    for &rogues in &[1usize, 2, 4, 8] {
        let (off, _) = cpu_arm(false, rogues);
        let (on, _) = cpu_arm(true, rogues);
        cpu.row([
            rogues.to_string(),
            off.to_string(),
            on.to_string(),
            format!("{:.1}x", off as f64 / on as f64),
        ]);
    }
    println!("{cpu}");

    // --- SQL budget containment.
    let db = Database::new(Arc::new(TagRegistry::new()));
    let trusted = Subject::anonymous();
    db.execute(&trusted, QueryMode::Filtered, QueryCost::unlimited(), &LabelPair::public(),
        "CREATE TABLE big (n INTEGER)").unwrap();
    // 50k rows in batches.
    for chunk in 0..50 {
        let values: Vec<String> = (0..1000).map(|i| format!("({})", chunk * 1000 + i)).collect();
        db.execute(&trusted, QueryMode::Filtered, QueryCost::unlimited(), &LabelPair::public(),
            &format!("INSERT INTO big VALUES {}", values.join(","))).unwrap();
    }

    let mut sql = Table::new(["budget (rows)", "outcome", "rows scanned", "time ms"]);
    let evil = "SELECT COUNT(*) FROM big WHERE n * 3 % 7 = 1 OR n * 5 % 11 = 2";
    for budget in [u64::MAX, 100_000, 10_000, 1_000] {
        let cost = QueryCost { max_rows_scanned: budget };
        let t = std::time::Instant::now();
        let res = db.execute(&trusted, QueryMode::Filtered, cost, &LabelPair::public(), evil);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let (outcome, scanned) = match &res {
            Ok(out) => ("completed", out.scanned),
            Err(QueryError::BudgetExhausted) => ("aborted (budget)", budget),
            Err(e) => panic!("{e}"),
        };
        sql.row([
            if budget == u64::MAX { "unlimited".to_string() } else { budget.to_string() },
            outcome.to_string(),
            scanned.to_string(),
            format!("{ms:.2}"),
        ]);
    }
    println!("{sql}");

    println!("shape check: with containers, honest latency is flat in the number of rogues;");
    println!("             without, it degrades ~linearly. Budgeted queries abort in O(budget).");
}
