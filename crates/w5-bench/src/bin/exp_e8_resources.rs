//! E8 — resource allocation (paper §3.5).
//!
//! "Processes must be limited to reasonable amounts of disk, network,
//! memory and CPU usage, lest rogue applications degrade the performance
//! of the W5 cluster." Two arms:
//!
//! 1. **CPU**: the request path's own containers. `N` rogue app classes
//!    flood the HTTP request pipeline (`w5_net::Pipeline`) beside one
//!    honest class, in rounds: each rogue submits [`FLOOD`] requests, then
//!    the honest class submits one. With containers the pipeline's
//!    admission is `w5_platform::NetAdmission`, which charges every class
//!    one CPU token per request against a bucket of [`SHARE`] tokens per
//!    epoch; without them it is `OpenAdmission`, which charges nothing.
//!    Metric: rogue handler executions between consecutive honest
//!    requests, the honest request's latency counted in rogue work. The
//!    run is one thread and counts requests, so it is deterministic.
//! 2. **SQL**: a pathological full-scan query against a large table, with
//!    and without the per-query scan budget. Metric: rows actually
//!    scanned before the engine cuts it off.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use w5_difc::{LabelPair, TagRegistry};
use w5_kernel::ResourceLimits;
use w5_net::{Admission, OpenAdmission, Pipeline, PipelineConfig, Request, Response, Status};
use w5_platform::{NetAdmission, Platform};
use w5_store::{Database, QueryCost, QueryError, QueryMode, Subject};
use w5_sim::Table;

/// Requests each rogue class submits per round.
const FLOOD: u64 = 64;
/// CPU tokens per class per epoch: the share every class gets.
const SHARE: u64 = 1;
/// Rounds per run; each ends with one honest request.
const ROUNDS: u64 = 200;

/// The admission charges one round makes once every bucket is full at
/// its start: each rogue's `SHARE` admitted requests tick the pacer twice
/// (request and response), its refused ones once, and the honest request
/// twice. An epoch of this many charges is one round.
fn charges_per_round(rogues: u64) -> u64 {
    rogues * (FLOOD + SHARE) + 2
}

/// Run the rounds through a pipeline with `admission`: (rogue handler
/// executions per honest request, honest requests refused).
fn cpu_arm(admission: Arc<dyn Admission>, rogues: u64) -> (f64, u64) {
    let rogue_runs = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&rogue_runs);
    let handler = move |request: Request, _: SocketAddr| {
        if request.path.starts_with("/app/rogue") {
            counter.fetch_add(1, Ordering::Relaxed);
        }
        Response::text("ok")
    };
    let pipeline = Pipeline::start(PipelineConfig::default(), Arc::new(handler), admission);
    let peer: SocketAddr = "127.0.0.1:4080".parse().unwrap();
    let mut refused = 0;
    for _ in 0..ROUNDS {
        for i in 0..rogues {
            for _ in 0..FLOOD {
                pipeline.submit(Request::get(&format!("/app/rogue{i}/spin")), peer);
            }
        }
        if pipeline.submit(Request::get("/app/honest/blog"), peer).status != Status::OK {
            refused += 1;
        }
    }
    (rogue_runs.load(Ordering::Relaxed) as f64 / ROUNDS as f64, refused)
}

/// NetAdmission over a fresh platform, every class held to `SHARE` CPU
/// tokens per `epoch` charges.
fn containers(epoch: u64) -> Arc<dyn Admission> {
    let limits = ResourceLimits { cpu_per_epoch: SHARE, ..ResourceLimits::unlimited() };
    NetAdmission::new(Platform::new_default("e8"), limits, epoch)
}

fn main() {
    w5_bench::banner("E8", "rogue apps vs resource containers", "§3.5");

    // --- CPU containment on the request path.
    let fixed = charges_per_round(1);
    let mut cpu = Table::new([
        "rogues",
        "no containers",
        "containers, epoch = 1 round",
        &format!("containers, epoch = {fixed} charges"),
        "honest refused",
    ]);
    for rogues in [1u64, 2, 4, 8] {
        let (off, off_refused) = cpu_arm(Arc::new(OpenAdmission), rogues);
        let (on, on_refused) = cpu_arm(containers(charges_per_round(rogues)), rogues);
        let (on_fixed, fixed_refused) = cpu_arm(containers(fixed), rogues);
        cpu.row([
            rogues.to_string(),
            format!("{off:.1}"),
            format!("{on:.1}"),
            format!("{on_fixed:.1}"),
            format!("{off_refused} / {on_refused} / {fixed_refused}"),
        ]);
    }
    println!("rogue handler executions per honest request ({FLOOD} rogue requests per rogue per round, {SHARE} CPU token per class per epoch)");
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

    println!("shape check: without containers each rogue costs an honest request its whole flood;");
    println!("             with them, one share per epoch. Budgeted queries abort in O(budget).");
}
