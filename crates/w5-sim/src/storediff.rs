//! Differential storage oracle for the labeled SQL store, as an instance of
//! [`crate::harness`].
//!
//! What the store ([`w5_store::Database`]) must *mean* is stated apart from
//! it, flat, in [`crate::storemodel`]. This oracle replays the *same seeded
//! statement schedule* against the model (serially) and against the store
//! (serially and under real OS-thread interleavings) and compares everything
//! a SQL client could see — columns, rows, row labels, combined labels,
//! affected counts, errors — plus the final contents of every table. The two
//! sides share no storage, so a row lost, duplicated or mis-filed by insert,
//! delete or compaction is a disagreement, not a wrong answer given twice.
//!
//! `QueryOutput::scanned` is deliberately **excluded**: the store prunes and
//! the model does not. It is the run's cost instead, and the oracle asserts
//! the direction — the store never charges *more* than the flat scan — and
//! that the charge does not depend on interleaving. Sequence `t` owns table
//! `t{t}`; `Site::SqlQuery` is the one fault site, rolled once per statement
//! on both sides.

use crate::harness::{self, Mode, Oracle, Run, Spec};
use crate::storemodel::Model;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeMap;
use std::sync::Arc;
use w5_chaos::Site;
use w5_difc::{CapSet, Label, LabelPair, TagKind, TagRegistry};
use w5_obs::Ledger;
use w5_store::{Database, QueryCost, QueryError, QueryMode, QueryOutput, Row, Subject};

/// Seed rows inserted per table before the op streams start.
const SEED_ROWS: i64 = 12;
/// Insert/point keys are drawn from `0..ID_DOMAIN`, small enough that point
/// lookups, updates and deletes regularly collide with live rows; a key
/// shift adds `ID_DOMAIN`, and window ends are drawn from twice the domain
/// so shifted keys stay in reach.
pub const ID_DOMAIN: i64 = 24;

/// The observable outcome of one run. Every arm replaying the same [`Spec`]
/// must compare equal: model or store, serial or threaded.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct StoreOutcome {
    /// Per sequence, what every statement returned (`scanned` zeroed).
    pub statements: Vec<Vec<Outcome>>,
    /// Final rows of every table, oldest first.
    pub tables: BTreeMap<String, Vec<Row>>,
}

/// One statement over a `(id INTEGER, v INTEGER, s TEXT)` table: the one op
/// vocabulary of the seeded schedules here and the proptest strategy in
/// `tests/store.rs`. [`StoreOp::render`] turns it into SQL for the store;
/// the model interprets it as it stands.
#[derive(Clone, Debug)]
pub enum StoreOp {
    /// `CREATE TABLE`, once, in setup; schema means nothing to the model.
    CreateTable,
    /// Owner INSERT at label kind public / secret / guarded-integrity. A
    /// NULL key is indexed but matched by no probe.
    Insert { kind: u8, id: Option<i64>, v: i64 },
    /// Point lookup on the (sometimes) indexed key, as owner or stranger,
    /// alone or beside a second conjunct `v < below` — which an index probe
    /// on the key must still apply to the rows it returns.
    Point { stranger: bool, id: i64, below: Option<i64> },
    /// Key window, `(end, inclusive)`: proper, one-point, empty or inverted.
    Window { stranger: bool, lo: (i64, bool), hi: (i64, bool) },
    /// Range scan over the (sometimes) indexed `v` column, ordered by key.
    Range { stranger: bool, lo: i64, span: i64 },
    /// Aggregates over everything visible.
    Agg { stranger: bool },
    /// ORDER BY + LIMIT over a non-key column (exercises tie-breaking).
    OrderLimit { stranger: bool, limit: usize },
    /// Owner point update of the payload column.
    Update { id: i64, v: i64 },
    /// Owner update that rewrites the key column (forces index rebuilds).
    Shift { id: i64 },
    /// Stranger blanket update: write-protected rows it can *read* but
    /// not write make this surface `WriteDenied` deterministically.
    StrangerUpdate { v: i64 },
    /// Owner point delete (empties partitions over time).
    Delete { id: i64 },
    /// Owner window delete: takes partitions to their last row and past it.
    DeleteWindow { lo: i64, hi: i64 },
    /// Stranger scan in `Naive` mode — the covert-channel baseline path.
    NaiveScan,
    /// Every row, through the same path: how a run reads each table's final
    /// contents. No generator draws it.
    Dump,
    /// `CREATE INDEX` amid the DML (idempotent; chaos can abort it too).
    CreateIndex { on_v: bool },
    /// `id = k` and one or two more equalities: the conjunctions the store
    /// answers by intersecting index postings when every column is
    /// indexed. Only the proptest strategy and hand-written lists draw it.
    Meet { stranger: bool, id: i64, also: EqTerm, then: Option<EqTerm> },
    /// `COUNT(*)` of one key, alone in its statement (the store counts
    /// without a row list), in `Filtered` or `Unprivileged` mode. Only the
    /// proptest strategy draws it.
    Count { stranger: bool, id: i64, unprivileged: bool },
}

/// One more equality conjunct of a [`StoreOp::Meet`].
#[derive(Clone, Copy, Debug)]
pub enum EqTerm {
    /// `id = m`: the key column again, the same key or another.
    Id(i64),
    /// `v = n`: the payload column, indexed once `CREATE INDEX ON (v)` ran.
    V(i64),
    /// `v = 'n'`: a literal of another type than the column; never true.
    VText(i64),
    /// `id = NULL`: never true, and never pushed to an index.
    IdNull,
}

impl EqTerm {
    fn sql(self) -> String {
        match self {
            EqTerm::Id(m) => format!("id = {m}"),
            EqTerm::V(n) => format!("v = {n}"),
            EqTerm::VText(n) => format!("v = '{n}'"),
            EqTerm::IdNull => "id = NULL".to_string(),
        }
    }
}

impl StoreOp {
    /// Who runs the statement, in which mode, the label an INSERT stamps,
    /// and the SQL text.
    pub fn render<'w>(&self, w: &'w StoreWorld) -> (&'w Subject, QueryMode, LabelPair, String) {
        let (t, owner) = (&w.table, &w.owner);
        let cmp = |strict: &'static str, (end, inclusive): (i64, bool)| {
            format!("id {strict}{} {end}", if inclusive { "=" } else { "" })
        };
        let naive = |sql| (&w.stranger, QueryMode::Naive, LabelPair::public(), sql);
        let (subject, sql) = match *self {
            StoreOp::Insert { kind, id, v } => {
                let id = id.map_or("NULL".to_string(), |id| id.to_string());
                let sql = format!("INSERT INTO {t} VALUES ({id}, {v}, 'r{id}')");
                return (owner, QueryMode::Filtered, w.insert_label(kind), sql);
            }
            StoreOp::NaiveScan => return naive(format!("SELECT id, v, s FROM {t} ORDER BY id LIMIT 20")),
            StoreOp::Dump => return naive(format!("SELECT id, v, s FROM {t}")),
            StoreOp::Count { stranger, id, unprivileged } => {
                let mode = if unprivileged { QueryMode::Unprivileged } else { QueryMode::Filtered };
                let sql = format!("SELECT COUNT(*) FROM {t} WHERE id = {id}");
                return (w.reader(stranger), mode, LabelPair::public(), sql);
            }
            StoreOp::Point { stranger, id, below } => {
                let and = below.map_or(String::new(), |b| format!(" AND v < {b}"));
                (w.reader(stranger), format!("SELECT id, v, s FROM {t} WHERE id = {id}{and}"))
            }
            StoreOp::Meet { stranger, id, also, then } => {
                let then = then.map_or(String::new(), |e| format!(" AND {}", e.sql()));
                (w.reader(stranger), format!("SELECT id, v, s FROM {t} WHERE id = {id} AND {}{then}", also.sql()))
            }
            StoreOp::Window { stranger, lo, hi } => (
                w.reader(stranger),
                format!("SELECT id, v FROM {t} WHERE {} AND {}", cmp(">", lo), cmp("<", hi)),
            ),
            StoreOp::Range { stranger, lo, span } => (
                w.reader(stranger),
                format!("SELECT id, v FROM {t} WHERE v >= {lo} AND v < {} ORDER BY id", lo + span),
            ),
            StoreOp::Agg { stranger } => (
                w.reader(stranger),
                format!("SELECT COUNT(*), COUNT(id), SUM(v), MIN(id), MAX(v) FROM {t}"),
            ),
            StoreOp::OrderLimit { stranger, limit } => {
                (w.reader(stranger), format!("SELECT id, v FROM {t} ORDER BY v DESC LIMIT {limit}"))
            }
            StoreOp::Update { id, v } => (owner, format!("UPDATE {t} SET v = {v} WHERE id = {id}")),
            StoreOp::Shift { id } => {
                (owner, format!("UPDATE {t} SET id = id + {ID_DOMAIN} WHERE id = {id}"))
            }
            StoreOp::StrangerUpdate { v } => {
                (&w.stranger, format!("UPDATE {t} SET s = 'x' WHERE v >= {v}"))
            }
            StoreOp::Delete { id } => (owner, format!("DELETE FROM {t} WHERE id = {id}")),
            StoreOp::DeleteWindow { lo, hi } => {
                (owner, format!("DELETE FROM {t} WHERE id >= {lo} AND id <= {hi}"))
            }
            StoreOp::CreateIndex { on_v } => {
                (owner, format!("CREATE INDEX ON {t} ({})", if on_v { "v" } else { "id" }))
            }
            StoreOp::CreateTable => {
                (owner, format!("CREATE TABLE {t} (id INTEGER, v INTEGER, s TEXT)"))
            }
        };
        (subject, QueryMode::Filtered, LabelPair::public(), sql)
    }
}

/// One sequence's working set: its table and the two subjects that drive it.
pub struct StoreWorld {
    /// The table every statement of the sequence names.
    pub table: String,
    /// Owns the sequence's tags: reads its secret rows, writes its
    /// write-protected rows.
    pub owner: Subject,
    /// Public labels, no capabilities: secret rows are invisible,
    /// guarded rows are readable but unwritable.
    pub stranger: Subject,
    /// What an INSERT stamps, by kind: public; secret (`S={e}, I={w}`,
    /// invisible to the stranger); guarded (`S={}, I={w}`, stranger-visible,
    /// owner-only writable).
    kinds: [LabelPair; 3],
    /// The registry the tags came from: its kind rule is the global bag
    /// both arms apply.
    pub global: Arc<TagRegistry>,
}

impl StoreWorld {
    /// A world over `table` with two fresh tags from `reg`. Arms that are to
    /// be compared create their worlds in the same order on registries of
    /// their own, so raw tag ids line up.
    pub fn new(reg: &Arc<TagRegistry>, table: &str) -> StoreWorld {
        let (e, mut caps) = reg.create_tag(TagKind::ReadProtect, &format!("store:r:{table}"));
        let (w, wc) = reg.create_tag(TagKind::WriteProtect, &format!("store:w:{table}"));
        caps.extend(&wc);
        let secret = LabelPair::new(Label::singleton(e), Label::singleton(w));
        let guarded = LabelPair::new(Label::empty(), Label::singleton(w));
        StoreWorld {
            table: table.to_string(),
            owner: Subject::new(guarded.clone(), caps.clone()),
            stranger: Subject::new(LabelPair::public(), CapSet::empty()),
            kinds: [LabelPair::public(), secret, guarded],
            global: Arc::clone(reg),
        }
    }

    /// The label an INSERT of `kind` stamps.
    pub fn insert_label(&self, kind: u8) -> LabelPair {
        self.kinds[usize::from(kind) % 3].clone()
    }

    /// The subject a read runs as.
    pub fn reader(&self, stranger: bool) -> &Subject {
        if stranger {
            &self.stranger
        } else {
            &self.owner
        }
    }
}

/// What one statement returned.
pub type Outcome = Result<QueryOutput, QueryError>;

/// One side of the comparison, holding one sequence's table: the store, the
/// model, or (in tests) a deliberately wrong model.
pub trait Arm: Send {
    /// Execute one statement.
    fn apply(&mut self, w: &StoreWorld, op: &StoreOp) -> Outcome;
}

impl Arm for Database {
    fn apply(&mut self, w: &StoreWorld, op: &StoreOp) -> Outcome {
        let (subject, mode, labels, sql) = op.render(w);
        self.execute(subject, mode, QueryCost::unlimited(), &labels, &sql)
    }
}

/// The store oracle. An arm names itself and gives each sequence its
/// [`Arm`], handed the run's one fresh [`Database`].
#[derive(Clone, Copy)]
pub struct StoreOracle {
    /// Names the arm in failure messages.
    pub name: &'static str,
    /// One sequence's side of the comparison.
    pub arm: fn(&Database) -> Box<dyn Arm>,
}

impl StoreOracle {
    /// The flat model, one per table.
    pub const MODEL: StoreOracle = StoreOracle { name: "model", arm: |_| Box::new(Model::default()) };
    /// The store: every sequence's table in one shared database.
    pub const STORE: StoreOracle = StoreOracle { name: "store", arm: |db| Box::new(db.clone()) };
}

impl std::fmt::Debug for StoreOracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name)
    }
}

impl Oracle for StoreOracle {
    const NAME: &'static str = "storediff";
    const SITES: &'static [Site] = &[Site::SqlQuery];
    type Op = StoreOp;
    type Seq = (StoreWorld, Box<dyn Arm>);
    type Step = Outcome;
    type World = ();
    type Outcome = StoreOutcome;

    fn gen_op(rng: &mut StdRng) -> StoreOp {
        let coin = |rng: &mut StdRng| rng.gen_range(0..2u32) == 0;
        match rng.gen_range(0..100u32) {
            0..=22 => StoreOp::Insert {
                kind: rng.gen_range(0..3u32) as u8,
                id: (rng.gen_range(0..8u32) != 7).then(|| rng.gen_range(0..ID_DOMAIN)),
                v: rng.gen_range(0..1000),
            },
            // The second conjunct is the proptest strategy's to draw: the
            // pinned schedules here keep the stream they were written for.
            23..=35 => {
                StoreOp::Point { stranger: coin(rng), id: rng.gen_range(0..ID_DOMAIN), below: None }
            }
            36..=41 => StoreOp::Window {
                stranger: coin(rng),
                lo: (rng.gen_range(0..2 * ID_DOMAIN), coin(rng)),
                hi: (rng.gen_range(0..2 * ID_DOMAIN), coin(rng)),
            },
            42..=51 => StoreOp::Range {
                stranger: coin(rng),
                lo: rng.gen_range(0..900),
                span: rng.gen_range(1..200),
            },
            52..=59 => StoreOp::Agg { stranger: coin(rng) },
            60..=67 => {
                StoreOp::OrderLimit { stranger: coin(rng), limit: rng.gen_range(1..8u32) as usize }
            }
            68..=77 => StoreOp::Update { id: rng.gen_range(0..ID_DOMAIN), v: rng.gen_range(0..1000) },
            78..=82 => StoreOp::Shift { id: rng.gen_range(0..ID_DOMAIN) },
            83..=86 => StoreOp::StrangerUpdate { v: rng.gen_range(0..1000) },
            87..=91 => StoreOp::Delete { id: rng.gen_range(0..ID_DOMAIN) },
            92..=93 => {
                let lo = rng.gen_range(0..2 * ID_DOMAIN);
                StoreOp::DeleteWindow { lo, hi: lo + rng.gen_range(0..4i64) }
            }
            94..=96 => StoreOp::NaiveScan,
            _ => StoreOp::CreateIndex { on_v: coin(rng) },
        }
    }

    /// Per-sequence tags on a fresh registry, one table per sequence with the
    /// deterministic seed population, and a key index from the start on even
    /// sequences, so the schedule meets indexed and unindexed tables.
    fn setup(&self, spec: &Spec) -> ((), Vec<Self::Seq>) {
        let reg = Arc::new(TagRegistry::new());
        let db = Database::new(Arc::clone(&reg));
        let seqs = (0..spec.threads)
            .map(|t| {
                let w = StoreWorld::new(&reg, &format!("t{t}"));
                let mut arm = (self.arm)(&db);
                arm.apply(&w, &StoreOp::CreateTable).expect("setup: create table");
                for i in 0..SEED_ROWS {
                    let seed = StoreOp::Insert { kind: i as u8, id: Some(i % ID_DOMAIN), v: i * 37 % 1000 };
                    arm.apply(&w, &seed).expect("setup: seed row");
                }
                if t % 2 == 0 {
                    arm.apply(&w, &StoreOp::CreateIndex { on_v: false }).expect("setup: index");
                }
                (w, arm)
            })
            .collect();
        ((), seqs)
    }

    fn apply(_: &(), (w, arm): &mut Self::Seq, op: &StoreOp) -> Outcome {
        arm.apply(w, op)
    }

    /// The statements, and each table's final rows through the trusted
    /// [`StoreOp::Dump`].
    fn observe(
        &self,
        _: (),
        seqs: Vec<Self::Seq>,
        statements: Vec<Vec<Outcome>>,
        _: &Ledger,
    ) -> StoreOutcome {
        let tables = seqs
            .into_iter()
            .map(|(w, mut arm)| {
                let rows = arm.apply(&w, &StoreOp::Dump).expect("dump never fails").rows;
                (w.table, rows)
            })
            .collect();
        StoreOutcome { statements, tables }
    }

    fn take_cost(step: &mut Outcome) -> u64 {
        step.as_mut().map_or(0, |out| std::mem::take(&mut out.scanned))
    }
}

/// The full differential check, used by tests and CI: model ≡ store serial
/// ≡ store under threads on the whole observable surface and the final table
/// contents, with the store charging no more than the model's flat scan and
/// the same under threads as serially. Returns the runs in that order.
pub fn assert_store_differential(spec: &Spec) -> Vec<Run<StoreOutcome>> {
    use Mode::{Serial, Threads};
    let (model, store) = (StoreOracle::MODEL, StoreOracle::STORE);
    let runs = harness::assert_arms(spec, &[(model, Serial), (store, Serial), (store, Threads)]);
    let (flat, serial, threads) = (runs[0].cost, runs[1].cost, runs[2].cost);
    assert!(serial <= flat, "partition pruning charged more ({serial}) than the flat scan ({flat})");
    assert_eq!(serial, threads, "the store's scan cost is interleaving-dependent");
    runs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::run;
    use crate::storemodel::ModelRow;

    const PINNED: Spec = Spec { seed: 2007, threads: 4, ops_per_thread: 150, fault_rate: 0.05 };

    #[test]
    fn four_arms_agree_on_default_spec() {
        assert_store_differential(&PINNED);
    }

    #[test]
    fn calm_run_agrees_without_faults() {
        let spec = Spec { seed: 11, threads: 2, ops_per_thread: 120, fault_rate: 0.0 };
        let runs = assert_store_differential(&spec);
        assert_eq!(runs[1].injected(), 0);
    }

    #[test]
    fn workload_actually_exercises_the_store() {
        let spec = Spec::new(20070824, 300);
        let store = run(&StoreOracle::STORE, &spec, Mode::Serial);
        assert!(store.outcome.tables.values().any(|rows| !rows.is_empty()), "tables must end non-empty");
        assert!(store.injected() > 0, "storm must fire");
        // Pruning must actually pay off on this schedule, not merely tie.
        let model = run(&StoreOracle::MODEL, &spec, Mode::Serial);
        let (pruned, flat) = (store.cost, model.cost);
        assert!(pruned < flat, "the store should visit fewer rows ({pruned} vs {flat})");
    }

    /// The model, except that its first DELETE to leave a row behind under a
    /// label it deleted from silently takes one such row as well: a storage
    /// bug (a row lost when a partition is compacted), seen from the other
    /// side of a symmetric comparison.
    #[derive(Default)]
    struct Widened {
        model: Model,
        done: bool,
    }

    impl Arm for Widened {
        fn apply(&mut self, w: &StoreWorld, op: &StoreOp) -> Outcome {
            let before = self.model.rows.clone();
            let out = self.model.apply(w, op);
            let rows = &mut self.model.rows;
            if !self.done && rows.len() < before.len() {
                let held = |rows: &[ModelRow], l| rows.iter().filter(|r| &r.labels == l).count();
                let extra = rows.iter().rposition(|r| held(&before, &r.labels) > held(rows, &r.labels));
                if let Some(i) = extra {
                    rows.remove(i);
                    self.done = true;
                }
            }
            out
        }
    }

    #[test]
    fn a_delete_that_takes_one_row_too_many_is_seen() {
        let store = run(&StoreOracle::STORE, &PINNED, Mode::Serial).outcome;
        let wrong = StoreOracle { name: "widened", arm: |_| Box::new(Widened::default()) };
        let widened = run(&wrong, &PINNED, Mode::Serial).outcome;
        // The DELETE itself reports the same `affected` on both sides, so a
        // differing outcome is a *later* statement seeing the missing row. (A
        // table's final contents can converge again: a later DELETE of the
        // lost row's key takes it from the store too.)
        for t in 0..PINNED.threads {
            assert_ne!(store.statements[t], widened.statements[t], "thread {t}: nothing saw the lost row");
        }
        assert_ne!(store.tables, widened.tables, "final contents agree");
    }

    /// Conjunctions of indexed equalities on both columns, a repeated
    /// column, a literal of the wrong type and a NULL literal, over rows
    /// that match them, before and after both columns are indexed: the
    /// store's intersections answer as the flat model does.
    #[test]
    fn intersected_equalities_agree_with_the_model() {
        let insert = |kind, id, v| StoreOp::Insert { kind, id, v };
        let meet = |stranger, id, also, then| StoreOp::Meet { stranger, id, also, then };
        let mut ops = Vec::new();
        for round in 0..3 {
            for i in 0..8 {
                ops.push(insert((i % 3) as u8, Some(i % 4), i % 2));
            }
            ops.push(insert(0, None, 1));
            for stranger in [false, true] {
                for id in 0..4 {
                    ops.extend([
                        meet(stranger, id, EqTerm::V(1), None),
                        meet(stranger, id, EqTerm::Id(id), None),
                        meet(stranger, id, EqTerm::Id(id + 1), None),
                        meet(stranger, id, EqTerm::VText(1), None),
                        meet(stranger, id, EqTerm::IdNull, None),
                        meet(stranger, id, EqTerm::V(0), Some(EqTerm::Id(id))),
                        meet(stranger, id, EqTerm::V(1), Some(EqTerm::IdNull)),
                        meet(stranger, id, EqTerm::Id(id), Some(EqTerm::VText(0))),
                    ]);
                }
            }
            // Unindexed, then the key, then both columns.
            if round < 2 {
                ops.push(StoreOp::CreateIndex { on_v: round == 1 });
            }
            ops.push(StoreOp::Delete { id: round });
        }
        let spec = Spec { seed: 5, threads: 1, ops_per_thread: ops.len(), fault_rate: 0.0 };
        let model = crate::harness::run_ops(&StoreOracle::MODEL, &spec, vec![ops.clone()], Mode::Serial);
        let store = crate::harness::run_ops(&StoreOracle::STORE, &spec, vec![ops], Mode::Serial);
        assert_eq!(model.outcome, store.outcome);
        let hits = store.outcome.statements[0].iter().filter(|o| o.as_ref().is_ok_and(|q| !q.rows.is_empty()));
        assert!(hits.count() > 20, "the conjunctions must match rows, not only miss");
    }

    /// A lone `COUNT(*)`, which the store counts without a row list, in
    /// both modes, over rows of every label kind, unindexed and indexed:
    /// the store's number and labels are the model's, and the owner's
    /// unprivileged count misses the rows only its capabilities reveal.
    #[test]
    fn counts_agree_with_the_model_in_both_modes() {
        let mut ops: Vec<StoreOp> =
            (0..12).map(|i| StoreOp::Insert { kind: (i % 3) as u8, id: Some(i % 4), v: i }).collect();
        for round in 0..2 {
            for stranger in [false, true] {
                for id in 0..4 {
                    for unprivileged in [false, true] {
                        ops.push(StoreOp::Count { stranger, id, unprivileged });
                    }
                }
            }
            if round == 0 {
                ops.push(StoreOp::CreateIndex { on_v: false });
            }
        }
        let spec = Spec { seed: 5, threads: 1, ops_per_thread: ops.len(), fault_rate: 0.0 };
        let model = crate::harness::run_ops(&StoreOracle::MODEL, &spec, vec![ops.clone()], Mode::Serial);
        let store = crate::harness::run_ops(&StoreOracle::STORE, &spec, vec![ops.clone()], Mode::Serial);
        assert_eq!(model.outcome, store.outcome);
        let count = |i: usize| store.outcome.statements[0][i].as_ref().map(|q| q.rows[0].values[0].clone()).ok();
        let owner_differs = (0..ops.len())
            .filter(|&i| matches!(ops[i], StoreOp::Count { stranger: false, unprivileged: false, .. }))
            .any(|i| count(i) != count(i + 1));
        assert!(owner_differs, "the owner's capabilities must show in some filtered count");
    }
}
