//! Differential storage oracle for the label-partitioned SQL store.
//!
//! The partitioned executor ([`w5_store::PartitionedExec`]) claims to
//! preserve, observable by observable, the behavior of the seed engine's
//! per-row scan ([`w5_store::ReferenceExec`]) — while skipping unreadable
//! partitions wholesale and serving indexed `WHERE` clauses from sorted
//! runs. This module checks that claim the same way PR 7's kernel oracle
//! does: replay the *same seeded statement schedule* against both
//! executors — under real OS-thread interleavings and serially — and
//! compare everything a SQL client could see: result rows, resolved row
//! labels, combined output labels, affected counts, and error verdicts.
//!
//! What is deliberately **excluded** from the comparison is
//! `QueryOutput::scanned`: the two executors charge different costs by
//! design (that is the whole point of partition pruning). The oracle
//! instead asserts the direction — the partitioned engine must never
//! charge *more* than the reference for the same schedule.
//!
//! # Why the schedules are interleaving-invariant
//!
//! * **Ownership** — thread `t` touches only its own table `t{t}` and its
//!   own subjects, so every statement verdict is a pure function of one
//!   thread's deterministic op sequence.
//! * **Per-thread chaos** — each thread carries its own
//!   [`w5_chaos::Injector`] for `Site::SqlQuery`, so the abort stream a
//!   sequence experiences depends only on `(seed, thread)` — identical
//!   between the concurrent run and the serial replay (both driven by
//!   `crate::drive`).
//! * **Pre-created tags** — all tags are created in single-threaded
//!   setup on a fresh [`w5_difc::TagRegistry`] per arm, so raw tag ids
//!   align across arms. Digests always fold *resolved* labels (sorted
//!   raw tags), never interned pair ids, because the intern table is
//!   process-global and allocation order differs between arms.
//!
//! Serial replays additionally expose the run's private
//! [`w5_obs::Ledger::digest`]. Unlike the kernel oracle it is *not*
//! comparable across executors (they perform different numbers of flow
//! checks by design); it is compared across *repeated serial runs of the
//! same executor*, pinning replay determinism.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;
use w5_difc::{CapSet, Label, LabelPair, Tag, TagKind, TagRegistry};
use w5_obs::Ledger;
use w5_sync::lockdep;
use w5_store::{Database, QueryCost, QueryError, QueryMode, QueryOutput, Subject};

/// Seed rows inserted per table before the op streams start.
const SEED_ROWS: usize = 12;
/// Insert/point ids are drawn from this domain, small enough that point
/// lookups, updates and deletes regularly collide with live rows.
const ID_DOMAIN: i64 = 48;

/// One differential run: a schedule seed, a thread count, a length, and a
/// storm rate for the `SqlQuery` fault site.
#[derive(Clone, Copy, Debug)]
pub struct StoreSpec {
    /// Seeds every thread's op stream and fault plan.
    pub seed: u64,
    /// Worker threads; each owns one table.
    pub threads: usize,
    /// Statements each thread executes.
    pub ops_per_thread: usize,
    /// Injection probability for `Site::SqlQuery` (0.0 = calm).
    pub fault_rate: f64,
}

impl StoreSpec {
    /// A moderate default: 4 threads, 300 statements each, a light storm.
    pub fn new(seed: u64) -> StoreSpec {
        StoreSpec { seed, threads: 4, ops_per_thread: 300, fault_rate: 0.05 }
    }
}

/// The observable outcome of one run. Two arms replaying the same
/// [`StoreSpec`] must compare equal, whatever the executor or
/// interleaving.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct StoreOutcome {
    /// Per-thread FNV-1a digests folded over every statement outcome
    /// (rows, resolved labels, affected counts, error verdicts — never
    /// `scanned`).
    pub digests: Vec<u64>,
    /// Final rendered rows of every table, sorted (a trusted full dump).
    pub tables: BTreeMap<String, Vec<String>>,
    /// Per-thread fault-injection tallies, in thread order.
    pub faults: Vec<w5_chaos::ChaosReport>,
}

/// One arm's result: the comparable outcome plus two executor-specific
/// measurements that are checked directionally, not for equality.
#[derive(Clone, Debug)]
pub struct StoreRun {
    /// The interleaving-invariant observable surface.
    pub outcome: StoreOutcome,
    /// Total cost units charged across all successful statements.
    pub scanned: u64,
    /// Private obs-ledger digest — deterministic for serial runs of one
    /// executor, meaningless to compare across executors.
    pub ledger_digest: u64,
}

/// One statement of a thread's schedule.
#[derive(Clone, Debug)]
enum Op {
    /// Owner INSERT at one of the three label kinds (public / secret /
    /// guarded-integrity).
    Insert { kind: u8, id: i64, v: i64 },
    /// Indexed-column point lookup, as owner or stranger.
    PointSelect { stranger: bool, id: i64 },
    /// Range scan over the (sometimes) indexed `v` column.
    RangeSelect { stranger: bool, lo: i64, span: i64 },
    /// Full-table aggregates.
    Agg { stranger: bool },
    /// ORDER BY + LIMIT over a non-key column (exercises tie-breaking).
    OrderLimit { stranger: bool, limit: usize },
    /// Owner point update of the unindexed payload column.
    Update { id: i64, v: i64 },
    /// Owner update that rewrites the indexed key column (forces a
    /// index rebuild mid-schedule).
    Shift { id: i64 },
    /// Stranger blanket update: write-protected rows it can *read* but
    /// not write make this surface `WriteDenied` deterministically.
    StrangerUpdate { v: i64 },
    /// Owner point delete (empties partitions over time).
    Delete { id: i64 },
    /// Stranger scan in `Naive` mode — the covert-channel baseline path.
    NaiveScan,
    /// `CREATE INDEX` interleaved with DML (idempotent; chaos can abort
    /// it like any other statement).
    CreateIndex { col: u8 },
}

fn gen_ops(spec: &StoreSpec, t: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(
        spec.seed ^ (t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    (0..spec.ops_per_thread)
        .map(|_| match rng.gen_range(0..100u32) {
            0..=24 => Op::Insert {
                kind: rng.gen_range(0..3u32) as u8,
                id: rng.gen_range(0..ID_DOMAIN),
                v: rng.gen_range(0..1000),
            },
            25..=39 => Op::PointSelect {
                stranger: rng.gen_range(0..2u32) == 0,
                id: rng.gen_range(0..ID_DOMAIN),
            },
            40..=51 => Op::RangeSelect {
                stranger: rng.gen_range(0..2u32) == 0,
                lo: rng.gen_range(0..900),
                span: rng.gen_range(1..200),
            },
            52..=59 => Op::Agg { stranger: rng.gen_range(0..2u32) == 0 },
            60..=67 => Op::OrderLimit {
                stranger: rng.gen_range(0..2u32) == 0,
                limit: rng.gen_range(1..8u32) as usize,
            },
            68..=77 => Op::Update { id: rng.gen_range(0..ID_DOMAIN), v: rng.gen_range(0..1000) },
            78..=82 => Op::Shift { id: rng.gen_range(0..ID_DOMAIN) },
            83..=86 => Op::StrangerUpdate { v: rng.gen_range(0..1000) },
            87..=93 => Op::Delete { id: rng.gen_range(0..ID_DOMAIN) },
            94..=96 => Op::NaiveScan,
            _ => Op::CreateIndex { col: rng.gen_range(0..2u32) as u8 },
        })
        .collect()
}

fn injector_for(spec: &StoreSpec, t: usize) -> Arc<w5_chaos::Injector> {
    w5_chaos::Injector::new(
        w5_chaos::FaultPlan::new(spec.seed ^ (t as u64 + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93))
            .with(w5_chaos::Site::SqlQuery, spec.fault_rate),
    )
}

/// One thread's working set: its table and the two subjects that drive it.
struct ThreadCtx {
    table: String,
    /// Owns the thread's tags: reads its secret rows, writes its
    /// write-protected rows.
    owner: Subject,
    /// Public labels, no capabilities: secret rows are invisible,
    /// guarded rows are readable but unwritable.
    stranger: Subject,
    /// `S={e_t}, I={w_t}` — invisible to the stranger.
    secret: LabelPair,
    /// `S={}, I={w_t}` — stranger-visible, owner-only writable.
    guarded: LabelPair,
}

impl ThreadCtx {
    fn insert_label(&self, kind: u8) -> LabelPair {
        match kind % 3 {
            0 => LabelPair::public(),
            1 => self.secret.clone(),
            _ => self.guarded.clone(),
        }
    }
}

/// Identical single-threaded setup for every arm: per-thread tags on a
/// fresh registry (so raw tag ids align), one table per thread with a
/// deterministic seed population, and an `id` index on even threads so
/// the schedule starts with a mix of indexed and unindexed tables.
fn setup(db: &Database, spec: &StoreSpec) -> Vec<ThreadCtx> {
    let reg = Arc::new(TagRegistry::new());
    (0..spec.threads)
        .map(|t| {
            let (e, mut caps) = reg.create_tag(TagKind::ReadProtect, &format!("store:r{t}"));
            let (w, wc) = reg.create_tag(TagKind::WriteProtect, &format!("store:w{t}"));
            caps.extend(&wc);
            let ctx = ThreadCtx {
                table: format!("t{t}"),
                owner: Subject::new(
                    LabelPair::new(Label::empty(), Label::singleton(w)),
                    reg.effective(&caps),
                ),
                stranger: Subject::new(LabelPair::public(), reg.effective(&CapSet::empty())),
                secret: LabelPair::new(Label::singleton(e), Label::singleton(w)),
                guarded: LabelPair::new(Label::empty(), Label::singleton(w)),
            };
            db.execute(
                &ctx.owner,
                QueryMode::Filtered,
                QueryCost::unlimited(),
                &LabelPair::public(),
                &format!("CREATE TABLE {} (id INTEGER, v INTEGER, s TEXT)", ctx.table),
            )
            .expect("setup: create table");
            for i in 0..SEED_ROWS {
                let labels = ctx.insert_label(i as u8);
                db.execute(
                    &ctx.owner,
                    QueryMode::Filtered,
                    QueryCost::unlimited(),
                    &labels,
                    &format!(
                        "INSERT INTO {} VALUES ({}, {}, 'seed{i}')",
                        ctx.table,
                        i as i64 % ID_DOMAIN,
                        (i as i64) * 37 % 1000,
                    ),
                )
                .expect("setup: seed row");
            }
            if t % 2 == 0 {
                db.create_index(&ctx.table, "id").expect("setup: index");
            }
            ctx
        })
        .collect()
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fold(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

/// Resolved-label signature: sorted raw tags, arm-stable because tags are
/// allocated in identical order on each arm's fresh registry.
fn label_sig(l: &LabelPair) -> String {
    let mut s: Vec<u64> = l.secrecy.iter().map(Tag::raw).collect();
    s.sort_unstable();
    let mut i: Vec<u64> = l.integrity.iter().map(Tag::raw).collect();
    i.sort_unstable();
    format!("{s:?}/{i:?}")
}

fn err_code(e: &QueryError) -> u8 {
    match e {
        QueryError::Sql(_) => 0,
        QueryError::NoSuchTable(_) => 1,
        QueryError::NoSuchColumn(_) => 2,
        QueryError::TypeMismatch { .. } => 3,
        QueryError::WriteDenied => 4,
        QueryError::BudgetExhausted => 5,
        QueryError::Eval(_) => 6,
        QueryError::TableExists(_) => 7,
        QueryError::Aborted => 8,
    }
}

/// Fold one statement outcome into a thread digest. Everything a client
/// can see goes in — except `scanned`, which is executor-dependent by
/// design and checked directionally instead.
fn fold_result(h: &mut u64, i: usize, r: &Result<QueryOutput, QueryError>) {
    fold(h, &(i as u64).to_le_bytes());
    match r {
        Ok(out) => {
            fold(h, b"ok");
            fold(h, &(out.affected as u64).to_le_bytes());
            fold(h, label_sig(&out.labels).as_bytes());
            for row in &out.rows {
                for v in &row.values {
                    fold(h, format!("{v:?}").as_bytes());
                    fold(h, b"|");
                }
                fold(h, label_sig(&row.labels).as_bytes());
                fold(h, b";");
            }
        }
        Err(e) => {
            fold(h, b"err");
            fold(h, &[err_code(e)]);
        }
    }
}

fn apply_ops(db: &Database, ctx: &ThreadCtx, ops: &[Op]) -> (u64, u64) {
    let mut h = FNV_OFFSET;
    let mut scanned = 0u64;
    let t = &ctx.table;
    for (i, op) in ops.iter().enumerate() {
        let public = LabelPair::public();
        let (subj, mode, labels, sql) = match op {
            Op::Insert { kind, id, v } => (
                &ctx.owner,
                QueryMode::Filtered,
                ctx.insert_label(*kind),
                format!("INSERT INTO {t} VALUES ({id}, {v}, 'r{id}')"),
            ),
            Op::PointSelect { stranger, id } => (
                if *stranger { &ctx.stranger } else { &ctx.owner },
                QueryMode::Filtered,
                public,
                format!("SELECT id, v, s FROM {t} WHERE id = {id}"),
            ),
            Op::RangeSelect { stranger, lo, span } => (
                if *stranger { &ctx.stranger } else { &ctx.owner },
                QueryMode::Filtered,
                public,
                format!(
                    "SELECT id, v FROM {t} WHERE v >= {lo} AND v < {} ORDER BY id",
                    lo + span
                ),
            ),
            Op::Agg { stranger } => (
                if *stranger { &ctx.stranger } else { &ctx.owner },
                QueryMode::Filtered,
                public,
                format!("SELECT COUNT(*), SUM(v), MIN(v), MAX(id) FROM {t}"),
            ),
            Op::OrderLimit { stranger, limit } => (
                if *stranger { &ctx.stranger } else { &ctx.owner },
                QueryMode::Filtered,
                public,
                format!("SELECT id, v FROM {t} ORDER BY v DESC LIMIT {limit}"),
            ),
            Op::Update { id, v } => (
                &ctx.owner,
                QueryMode::Filtered,
                public,
                format!("UPDATE {t} SET v = {v} WHERE id = {id}"),
            ),
            Op::Shift { id } => (
                &ctx.owner,
                QueryMode::Filtered,
                public,
                format!("UPDATE {t} SET id = id + {ID_DOMAIN} WHERE id = {id}"),
            ),
            Op::StrangerUpdate { v } => (
                &ctx.stranger,
                QueryMode::Filtered,
                public,
                format!("UPDATE {t} SET s = 'x' WHERE v >= {v}"),
            ),
            Op::Delete { id } => (
                &ctx.owner,
                QueryMode::Filtered,
                public,
                format!("DELETE FROM {t} WHERE id = {id}"),
            ),
            Op::NaiveScan => (
                &ctx.stranger,
                QueryMode::Naive,
                public,
                format!("SELECT id, v, s FROM {t} ORDER BY id LIMIT 20"),
            ),
            Op::CreateIndex { col } => (
                &ctx.owner,
                QueryMode::Filtered,
                public,
                format!(
                    "CREATE INDEX ON {t} ({})",
                    if *col == 0 { "id" } else { "v" }
                ),
            ),
        };
        let r = db.execute(subj, mode, QueryCost::unlimited(), &labels, &sql);
        if let Ok(out) = &r {
            scanned += out.scanned;
        }
        fold_result(&mut h, i, &r);
    }
    (h, scanned)
}

/// Trusted full dump of one table (Naive mode sees every row), rendered
/// and sorted so row order cannot leak into the comparison.
fn dump(db: &Database, table: &str) -> Vec<String> {
    let out = db
        .execute(
            &Subject::anonymous(),
            QueryMode::Naive,
            QueryCost::unlimited(),
            &LabelPair::public(),
            &format!("SELECT * FROM {table}"),
        )
        .expect("dump never fails");
    let mut rows: Vec<String> = out
        .rows
        .iter()
        .map(|r| format!("{:?} @ {}", r.values, label_sig(&r.labels)))
        .collect();
    rows.sort();
    rows
}

/// Drive one database through the spec's schedule. `concurrent` selects
/// real OS threads vs. a serial replay of the same per-thread sequences.
fn run_arm(db: &Database, spec: &StoreSpec, concurrent: bool) -> StoreRun {
    assert!(spec.threads >= 1, "need at least one thread");
    let ledger = Arc::new(Ledger::new());
    let _obs_guard = w5_obs::scoped(Arc::clone(&ledger));
    // Order graph for this arm: partition-lock acquisitions (and anything
    // they nest, e.g. intern-table reads) are recorded and gated below.
    let recorder = crate::lockgate::recorder(None);
    let _lock_guard = lockdep::scoped(Arc::clone(&recorder));

    let mut ctxs = setup(db, spec);
    let op_lists: Vec<Vec<Op>> = (0..spec.threads).map(|t| gen_ops(spec, t)).collect();
    let injectors: Vec<Arc<w5_chaos::Injector>> =
        (0..spec.threads).map(|t| injector_for(spec, t)).collect();

    let results = crate::drive::drive(&mut ctxs, &injectors, concurrent, |t, ctx| {
        let (digest, scanned) = apply_ops(db, ctx, &op_lists[t]);
        (digest, scanned, injectors[t].report())
    });

    let tables: BTreeMap<String, Vec<String>> =
        ctxs.iter().map(|ctx| (ctx.table.clone(), dump(db, &ctx.table))).collect();
    let scanned = results.iter().map(|r| r.1).sum();
    recorder.note("harness", "storediff");
    recorder.note("executor", db.executor_name());
    recorder.note("rows_scanned", &u64::to_string(&scanned));
    crate::lockgate::enforce(&recorder, "storediff");
    StoreRun {
        outcome: StoreOutcome {
            digests: results.iter().map(|r| r.0).collect(),
            tables,
            faults: results.into_iter().map(|r| r.2).collect(),
        },
        scanned,
        ledger_digest: ledger.digest(),
    }
}

/// Partitioned executor, serial replay.
pub fn run_partitioned_serial(spec: &StoreSpec) -> StoreRun {
    run_arm(&Database::new(), spec, false)
}

/// Reference executor, serial replay.
pub fn run_reference_serial(spec: &StoreSpec) -> StoreRun {
    run_arm(&Database::reference(), spec, false)
}

/// Partitioned executor under real thread interleavings.
pub fn run_partitioned_concurrent(spec: &StoreSpec) -> StoreRun {
    run_arm(&Database::new(), spec, true)
}

/// Reference executor under real thread interleavings (the trivially
/// correct baseline).
pub fn run_reference_concurrent(spec: &StoreSpec) -> StoreRun {
    run_arm(&Database::reference(), spec, true)
}

/// The full four-arm differential check, used by tests and CI:
/// partitioned concurrent ≡ reference concurrent ≡ reference serial ≡
/// partitioned serial on the whole observable surface, with the
/// partitioned engine charging no more than the reference, and serial
/// ledger digests stable under replay. Panics with a labeled diff on the
/// first mismatch.
pub fn assert_store_differential(spec: &StoreSpec) {
    let ref_serial = run_reference_serial(spec);
    let part_serial = run_partitioned_serial(spec);
    assert_eq!(
        ref_serial.outcome, part_serial.outcome,
        "serial replay diverged between reference and partitioned executors"
    );
    assert!(
        part_serial.scanned <= ref_serial.scanned,
        "partition pruning charged more ({}) than the reference scan ({})",
        part_serial.scanned,
        ref_serial.scanned,
    );
    // Replay determinism: the same executor must emit a bit-identical
    // private event stream on a second serial run.
    let ref_again = run_reference_serial(spec);
    assert_eq!(
        ref_serial.ledger_digest, ref_again.ledger_digest,
        "reference serial ledger digest is not replay-deterministic"
    );
    let part_again = run_partitioned_serial(spec);
    assert_eq!(
        part_serial.ledger_digest, part_again.ledger_digest,
        "partitioned serial ledger digest is not replay-deterministic"
    );
    let part_conc = run_partitioned_concurrent(spec);
    assert_eq!(
        ref_serial.outcome, part_conc.outcome,
        "partitioned executor under threads diverged from the serial oracle"
    );
    assert_eq!(
        part_serial.scanned, part_conc.scanned,
        "partitioned scan cost is interleaving-dependent"
    );
    let ref_conc = run_reference_concurrent(spec);
    assert_eq!(
        ref_serial.outcome, ref_conc.outcome,
        "reference executor under threads diverged from its own serial replay \
         (schedule is not interleaving-invariant — harness bug)"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_arms_agree_on_default_spec() {
        assert_store_differential(&StoreSpec {
            seed: 2007,
            threads: 4,
            ops_per_thread: 150,
            fault_rate: 0.05,
        });
    }

    #[test]
    fn calm_run_agrees_without_faults() {
        let spec = StoreSpec { seed: 11, threads: 2, ops_per_thread: 120, fault_rate: 0.0 };
        assert_store_differential(&spec);
        let out = run_partitioned_serial(&spec);
        assert_eq!(
            out.outcome.faults.iter().map(|f| f.total_injected()).sum::<u64>(),
            0
        );
    }

    #[test]
    fn workload_actually_exercises_the_store() {
        let spec = StoreSpec::new(20070824);
        let run = run_partitioned_serial(&spec);
        assert!(
            run.outcome.tables.values().any(|rows| !rows.is_empty()),
            "tables must end non-empty"
        );
        assert!(
            run.outcome.faults.iter().map(|f| f.total_injected()).sum::<u64>() > 0,
            "storm must fire"
        );
        // Pruning must actually pay off on this schedule, not merely tie.
        let reference = run_reference_serial(&spec);
        assert!(
            run.scanned < reference.scanned,
            "partitioned run should visit fewer rows ({} vs {})",
            run.scanned,
            reference.scanned,
        );
    }
}
