//! Query execution over labeled rows.
//!
//! Rows live in label partitions (see [`storage`](super::storage)), so
//! visibility is decided **once per partition met**, by one call of the
//! flow rule on the label pair the partition holds (no memo, and the scan's
//! verdicts reach the ledger as one ordered batch);
//! unreadable partitions are skipped wholesale for a flat one-unit charge
//! and never probed, and WHERE clauses on indexed columns are served from
//! the readable partitions' ordered indexes via [`plan`](super::plan)
//! pushdown, visiting (and charging) only candidate rows. A keyed scan
//! whose subject may read every open partition meets only the closed
//! partitions and the open ones the table's directory files under its key;
//! an open partition without the key would have passed its verdict and
//! yielded nothing, so only that verdict is no longer made. What the engine
//! must *mean* — a flat list of labeled rows, one flow check each — is
//! stated apart from it, in `w5_sim::storemodel`, and checked against it by
//! `w5_sim::storediff` and `tests/store.rs`.
//!
//! ## Label-safe cost accounting
//!
//! `QueryOutput::scanned` is part of the observable surface (the platform
//! charges CPU by it), so it must not leak hidden state. A skipped
//! unreadable partition costs exactly **one unit regardless of its row
//! count**: what a subject can observe through `scanned` or a
//! `BudgetExhausted` verdict depends only on rows it may read plus the
//! number of distinct hidden label pairs — never on how many rows hide
//! behind them. (`tests/noninterference.rs` proves this by differencing two
//! worlds whose hidden partitions differ only in size.) Index-pruned rows
//! are never visited and never charged.

use super::ast::{BinOp, Expr, SelectItem, Statement};
use super::lexer::SqlError;
use super::output::QueryOutput;
use super::parser::parse;
use super::plan::{self, Key, Probe, Pushdown};
use super::storage::{col_index, RowLoc, StoredRow, Table};
use super::value::{like_match, ColumnType, Value};
use crate::subject::Subject;
use w5_sync::RwLock;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use w5_difc::rules::Verdicts;
use w5_difc::{CapSet, LabelPair, TagRegistry};

/// How the engine treats rows the subject may not read. See the module docs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryMode {
    /// W5 semantics: unreadable rows are silently invisible.
    Filtered,
    /// Status-quo shared database: all rows visible to application SQL.
    Naive,
    /// As `Filtered`, but the scan's verdicts exercise no capability —
    /// neither the subject's bag nor the global bag `Ô` — so a row is
    /// visible only if it flows to the subject as its labels stand. For
    /// trusted readers whose answers leave without labels (the platform's
    /// relationship oracle): they must not see what only a raise reveals.
    Unprivileged,
}

/// Per-query resource budget (§3.5: the database must survive malicious
/// queries). `max_rows_scanned` bounds the work one query may perform.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueryCost {
    /// Maximum number of row visits before the query is aborted.
    pub max_rows_scanned: u64,
}

impl QueryCost {
    /// Effectively unbounded (trusted callers / experiments).
    pub fn unlimited() -> QueryCost {
        QueryCost { max_rows_scanned: u64::MAX }
    }

    /// The platform default for untrusted application queries.
    pub fn sandbox_default() -> QueryCost {
        QueryCost { max_rows_scanned: 100_000 }
    }
}

/// Execution errors.
#[derive(Clone, Debug, PartialEq)]
pub enum QueryError {
    /// Parse-time error.
    Sql(SqlError),
    /// Unknown table.
    NoSuchTable(String),
    /// Unknown column.
    NoSuchColumn(String),
    /// A value did not fit its column type.
    TypeMismatch { column: String, expected: ColumnType },
    /// A write touched a row the subject may not write.
    WriteDenied,
    /// The query exceeded its row-scan budget.
    BudgetExhausted,
    /// Runtime evaluation error (e.g. division by zero).
    Eval(String),
    /// The table already exists.
    TableExists(String),
    /// The statement was aborted by an injected fault (`w5-chaos`) before
    /// it executed. No rows were read or written.
    Aborted,
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Sql(e) => write!(f, "{e}"),
            QueryError::NoSuchTable(t) => write!(f, "no such table: {t}"),
            QueryError::NoSuchColumn(c) => write!(f, "no such column: {c}"),
            QueryError::TypeMismatch { column, expected } => {
                write!(f, "type mismatch for column {column}: expected {expected}")
            }
            QueryError::WriteDenied => write!(f, "write denied by label policy"),
            QueryError::BudgetExhausted => write!(f, "query exceeded its scan budget"),
            QueryError::Eval(m) => write!(f, "evaluation error: {m}"),
            QueryError::TableExists(t) => write!(f, "table already exists: {t}"),
            QueryError::Aborted => write!(f, "query aborted before execution"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<SqlError> for QueryError {
    fn from(e: SqlError) -> Self {
        QueryError::Sql(e)
    }
}

/// Visit `t`'s rows and hand those that are visible to `subject` under
/// `mode`, satisfy `probe`, and (when `write` is set) are writable by the
/// subject to `on_match` — partition-major, ascending row order within a
/// partition. A `WriteDenied` on any matching row aborts the scan. Budget
/// is charged per the module docs' cost model; returns the units consumed.
///
/// The partitions met are every partition, in creation order, unless the
/// open directory serves the scan (see [`Met`]). Every met partition's
/// verdict goes into one batch, which hands them to the ledger in order
/// when it drops — on `Ok` and on every error exit alike, while the caller
/// still holds the table guard and the ledger permit.
#[allow(clippy::too_many_arguments)]
fn scan(
    t: &Table,
    subject: &Subject,
    global: &TagRegistry,
    mode: QueryMode,
    cost: QueryCost,
    probe: Probe<'_>,
    write: bool,
    on_match: &mut impl FnMut(RowLoc),
) -> Result<u64, QueryError> {
    let Probe { push, filter } = probe;
    let none = CapSet::empty();
    let mut verdicts = match mode {
        QueryMode::Unprivileged => Verdicts::new(&subject.labels, &none),
        _ => subject.verdicts(global),
    };
    let met = match push {
        Some(p @ Pushdown::Keys { .. }) if reads_every_open_partition(subject, global, mode) => {
            Met::Merge { open: t.open_posting(p.keys().map(|k| (k.slot, k.value))), closed: &t.closed }
        }
        _ => Met::All(0..t.partitions.len()),
    };
    let mut scanned = 0u64;
    let mut cands: Vec<u32> = Vec::new();
    for pi in met {
        let part = &t.partitions[pi];
        if part.rows.is_empty() {
            // Unreachable by invariant (empty partitions are dropped);
            // charging nothing keeps it harmless if that ever changes.
            continue;
        }
        // A partition is met once per scan, so there is nothing to
        // memoize: one verdict on the pair the partition holds.
        if mode != QueryMode::Naive && !verdicts.may_read(&part.pair) {
            // The label-safe skip: one flat unit, whatever the size.
            scanned += 1;
            if scanned > cost.max_rows_scanned {
                return Err(QueryError::BudgetExhausted);
            }
            continue;
        }
        let mut write_ok = false;
        let mut visit = |ri: usize| -> Result<(), QueryError> {
            scanned += 1;
            if scanned > cost.max_rows_scanned {
                return Err(QueryError::BudgetExhausted);
            }
            let row = &part.rows[ri];
            if let Some(f) = filter {
                if !eval(f, &t.columns, &row.values)?.is_truthy() {
                    return Ok(());
                }
            }
            if write && !write_ok {
                // One write check per partition with a matching row:
                // labels are uniform, so the verdict is too.
                if !verdicts.may_write(&part.pair) {
                    return Err(QueryError::WriteDenied);
                }
                write_ok = true;
            }
            on_match(RowLoc { part: pi, row: ri, seq: row.seq });
            Ok(())
        };
        // Candidates are visited in row order so within-partition
        // behaviour (and any eval-error surfacing) is stable: one key's
        // rows are stored ascending, an intersection of keys keeps that
        // order, and a window's are sorted here.
        match push {
            None => (0..part.rows.len()).try_for_each(visit)?,
            Some(p @ Pushdown::Keys { .. }) => {
                let mut postings: [&[u32]; plan::MAX_KEYS] = [&[]; plan::MAX_KEYS];
                let mut n = 0;
                for k in p.keys() {
                    postings[n] = part.indexes[k.slot].probe_eq(k.value);
                    n += 1;
                }
                each_common(&postings[..n], &mut |ri| visit(ri as usize))?;
            }
            Some(Pushdown::Range { slot, lo, hi, .. }) => {
                cands.clear();
                part.indexes[slot].probe_range(lo, hi, &mut cands);
                cands.sort_unstable();
                cands.iter().try_for_each(|&ri| visit(ri as usize))?;
            }
        }
    }
    Ok(scanned)
}

/// Does `mode` let `subject` read every open partition, so that a keyed
/// scan need meet only the open partitions that hold its key? `Naive` reads
/// everything; under `Filtered`, `Ô` raises every export tag, and the
/// subject passes as long as it can drop each of its integrity claims.
/// `Unprivileged` exercises no capability. Asks no verdict: nothing counted.
fn reads_every_open_partition(subject: &Subject, global: &TagRegistry, mode: QueryMode) -> bool {
    match mode {
        QueryMode::Naive => true,
        QueryMode::Filtered => {
            let held = global.held(&subject.caps);
            subject.labels.integrity.iter().all(|t| held.has_minus(t))
        }
        QueryMode::Unprivileged => false,
    }
}

/// The partitions one scan meets, ascending: all of them, or — for a keyed
/// scan whose subject reads every open partition — the closed partitions
/// merged with the open ones filed under the key.
enum Met<'t> {
    All(std::ops::Range<usize>),
    Merge { open: &'t [u32], closed: &'t [u32] },
}

impl Iterator for Met<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        match self {
            Met::All(all) => all.next(),
            Met::Merge { open, closed } => {
                // The two lists are disjoint and each ascending.
                let side = match (open.first(), closed.first()) {
                    (Some(o), Some(c)) if o > c => closed,
                    (Some(_), _) => open,
                    (None, _) => closed,
                };
                let (&pi, rest) = side.split_first()?;
                *side = rest;
                Some(pi as usize)
            }
        }
    }
}

/// Call `f` on every row index present in all of `lists`, ascending. Each
/// list is ascending; the shortest drives, and every other list keeps a
/// cursor that only moves forward, so the walk costs at most the lists'
/// total length and allocates nothing.
fn each_common(
    lists: &[&[u32]],
    f: &mut impl FnMut(u32) -> Result<(), QueryError>,
) -> Result<(), QueryError> {
    let Some(shortest) = (0..lists.len()).min_by_key(|&i| lists[i].len()) else {
        return Ok(());
    };
    let mut cursors = [0usize; plan::MAX_KEYS];
    'rows: for &ri in lists[shortest] {
        for (j, list) in lists.iter().enumerate() {
            if j == shortest {
                continue;
            }
            let c = &mut cursors[j];
            while list.get(*c).is_some_and(|&x| x < ri) {
                *c += 1;
            }
            match list.get(*c) {
                None => return Ok(()),
                Some(&x) if x != ri => continue 'rows,
                Some(_) => {}
            }
        }
        f(ri)?;
    }
    Ok(())
}

/// A labeled database. Cheap to clone (shared state).
#[derive(Clone)]
pub struct Database {
    tables: Arc<RwLock<HashMap<String, Table>>>,
    /// The provider's tag registry, whose kind rule is the global bag
    /// every subject holds.
    global: Arc<TagRegistry>,
}

impl Database {
    /// An empty database whose subjects hold `registry`'s global bag `Ô`
    /// as well as their own capabilities.
    pub fn new(registry: Arc<TagRegistry>) -> Database {
        Database { tables: Arc::new(RwLock::new("store.partition", HashMap::new())), global: registry }
    }

    /// Parse and execute one statement.
    ///
    /// * `subject` — the acting process's labels/capabilities.
    /// * `mode` — row-visibility semantics (see [`QueryMode`]).
    /// * `cost` — scan budget.
    /// * `insert_labels` — labels stamped on rows created by INSERT; must be
    ///   writable by the subject.
    pub fn execute(
        &self,
        subject: &Subject,
        mode: QueryMode,
        cost: QueryCost,
        insert_labels: &LabelPair,
        sql: &str,
    ) -> Result<QueryOutput, QueryError> {
        let stmt = parse(sql)?;
        self.execute_stmt(subject, mode, cost, insert_labels, stmt)
    }

    /// Execute a pre-parsed statement (the hot path for benchmarks).
    pub fn execute_stmt(
        &self,
        subject: &Subject,
        mode: QueryMode,
        cost: QueryCost,
        insert_labels: &LabelPair,
        stmt: Statement,
    ) -> Result<QueryOutput, QueryError> {
        let _obs_permit = admit()?;
        match stmt {
            Statement::CreateTable { name, columns } => self.create_table(&name, columns),
            Statement::DropTable { name } => self.drop_table(subject, &name),
            Statement::CreateIndex { table, column } => {
                self.create_index(&table, &column)?;
                Ok(empty_output())
            }
            Statement::Insert { table, columns, rows } => {
                self.insert(subject, insert_labels, &table, columns, rows)
            }
            Statement::Select { items, table, join, filter, order_by, limit } => {
                self.select(subject, mode, cost, &table, join, items, filter, order_by, limit)
            }
            Statement::Update { table, sets, filter } => {
                self.update(subject, mode, cost, &table, sets, filter)
            }
            Statement::Delete { table, filter } => {
                self.delete(subject, mode, cost, &table, filter)
            }
        }
    }

    /// Does `table` hold a row with every `(column, value)` text pair, among
    /// the rows a public reader may read as their labels stand
    /// ([`QueryMode::Unprivileged`])? The question of trusted code whose
    /// answer leaves without labels — the platform's relationship oracle —
    /// asked without a statement: the pairs are the probe, so every column
    /// must be indexed, and an unindexed one (or more pairs than one probe
    /// intersects) answers `false`. The scan meets every partition and
    /// counts one verdict each, as `SELECT COUNT(*) FROM table WHERE c1 =
    /// 'v1' AND …` would; it rolls the same fault site.
    pub fn holds(&self, table: &str, row: &[(&str, &str)]) -> Result<bool, QueryError> {
        let _obs_permit = admit()?;
        let tables = self.tables.read();
        let t = tables
            .get(table)
            .ok_or_else(|| QueryError::NoSuchTable(table.to_string()))?;
        if row.is_empty() || row.len() > plan::MAX_KEYS {
            return Ok(false);
        }
        let mut slots = [(0, 0); plan::MAX_KEYS];
        for (at, &(column, _)) in slots.iter_mut().zip(row) {
            let col = t.col_index(column)?;
            let Some(slot) = t.index_slot(col) else { return Ok(false) };
            *at = (col, slot);
        }
        let values: [Value; plan::MAX_KEYS] =
            std::array::from_fn(|i| row.get(i).map_or(Value::Null, |&(_, v)| Value::Text(v.to_string())));
        let keys = std::array::from_fn(|i| {
            (i < row.len()).then(|| Key { col: slots[i].0, slot: slots[i].1, value: &values[i] })
        });
        let probe = Probe { push: Some(Pushdown::Keys { keys, exact: true }), filter: None };
        let (subject, mode, cost) = (Subject::anonymous(), QueryMode::Unprivileged, QueryCost::unlimited());
        let mut found = false;
        scan(t, &subject, &self.global, mode, cost, probe, false, &mut |_| found = true)?;
        Ok(found)
    }

    /// Names of all tables (schema metadata is public).
    pub fn table_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.tables.read().keys().cloned().collect();
        v.sort();
        v
    }

    /// Total stored rows across tables (trusted accounting).
    pub fn total_rows(&self) -> usize {
        self.tables.read().values().map(Table::row_count).sum()
    }

    /// Create a secondary equality/range index on `table.column`.
    /// Idempotent. Indexes are schema metadata: like table and column
    /// names they are public, and building one never widens visibility —
    /// indexes only ever prune the rows a query *visits*, inside partitions
    /// the subject already passed the flow check for.
    pub fn create_index(&self, table: &str, column: &str) -> Result<(), QueryError> {
        let mut tables = self.tables.write();
        let t = tables
            .get_mut(table)
            .ok_or_else(|| QueryError::NoSuchTable(table.to_string()))?;
        let ci = t.col_index(column)?;
        t.add_index(ci);
        Ok(())
    }

    /// Per-table census of row labels: for each table, the distinct label
    /// pairs stamped on its rows with their row counts, sorted
    /// deterministically. Trusted accounting for configuration audits
    /// (`w5-analyze`) — this reveals *which* labels exist, never row
    /// contents, and is only reachable from platform-trusted code.
    pub fn label_census(&self) -> Vec<(String, Vec<(LabelPair, usize)>)> {
        let tables = self.tables.read();
        let mut out: Vec<(String, Vec<(LabelPair, usize)>)> = tables
            .iter()
            .map(|(name, t)| {
                let mut entries: Vec<(LabelPair, usize)> = t
                    .partitions
                    .iter()
                    .map(|p| (p.pair.clone(), p.rows.len()))
                    .collect();
                entries.sort_by(|a, b| a.0.cmp(&b.0));
                (name.clone(), entries)
            })
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    fn create_table(
        &self,
        name: &str,
        columns: Vec<(String, ColumnType)>,
    ) -> Result<QueryOutput, QueryError> {
        let mut tables = self.tables.write();
        if tables.contains_key(name) {
            return Err(QueryError::TableExists(name.to_string()));
        }
        tables.insert(name.to_string(), Table::new(columns));
        Ok(empty_output())
    }

    fn drop_table(&self, subject: &Subject, name: &str) -> Result<QueryOutput, QueryError> {
        let mut tables = self.tables.write();
        let t = tables
            .get(name)
            .ok_or_else(|| QueryError::NoSuchTable(name.to_string()))?;
        // Dropping destroys every row, so it is a write to each of them.
        // The check is uniform over all partitions (visible or not) to
        // avoid turning DROP into an existence oracle; labels are uniform
        // within a partition, so per-partition is verdict-equivalent to
        // the seed engine's per-row pass. The verdicts reach the ledger,
        // as one batch, before the guard can drop.
        let writable = {
            let mut verdicts = subject.verdicts(&self.global);
            t.partitions.iter().all(|p| verdicts.may_write(&p.pair))
        };
        if !writable {
            return Err(QueryError::WriteDenied);
        }
        tables.remove(name);
        Ok(empty_output())
    }

    fn insert(
        &self,
        subject: &Subject,
        insert_labels: &LabelPair,
        table: &str,
        columns: Option<Vec<String>>,
        rows: Vec<Vec<Expr>>,
    ) -> Result<QueryOutput, QueryError> {
        if !subject.may_write(&self.global, insert_labels) {
            return Err(QueryError::WriteDenied);
        }
        let mut tables = self.tables.write();
        let t = tables
            .get_mut(table)
            .ok_or_else(|| QueryError::NoSuchTable(table.to_string()))?;
        // Resolve the column order once.
        let idxs: Vec<usize> = match &columns {
            Some(cols) => cols
                .iter()
                .map(|c| t.col_index(c))
                .collect::<Result<_, _>>()?,
            None => (0..t.columns.len()).collect(),
        };
        let mut staged = Vec::with_capacity(rows.len());
        for exprs in &rows {
            if exprs.len() != idxs.len() {
                return Err(QueryError::Eval(format!(
                    "expected {} values, got {}",
                    idxs.len(),
                    exprs.len()
                )));
            }
            let mut values = vec![Value::Null; t.columns.len()];
            for (expr, &ix) in exprs.iter().zip(&idxs) {
                let v = eval_const(expr)?;
                let (ref cname, cty) = t.columns[ix];
                if !v.fits(cty) {
                    return Err(QueryError::TypeMismatch { column: cname.clone(), expected: cty });
                }
                values[ix] = v;
            }
            staged.push(values);
        }
        // All rows validated: apply atomically.
        let n = staged.len();
        for values in staged {
            t.insert_row(&self.global, insert_labels, values);
        }
        Ok(QueryOutput { affected: n, ..empty_output() })
    }

    #[allow(clippy::too_many_arguments)]
    fn select(
        &self,
        subject: &Subject,
        mode: QueryMode,
        cost: QueryCost,
        table: &str,
        join: Option<crate::sql::ast::Join>,
        items: Vec<SelectItem>,
        filter: Option<Expr>,
        order_by: Option<(String, bool)>,
        limit: Option<usize>,
    ) -> Result<QueryOutput, QueryError> {
        let tables = self.tables.read();
        let t = tables
            .get(table)
            .ok_or_else(|| QueryError::NoSuchTable(table.to_string()))?;

        // With a JOIN, materialize the (visibility-filtered) combined
        // relation first; the rest of the pipeline is shared.
        let joined: Option<Table> = match &join {
            None => None,
            Some(j) => {
                let t2 = tables
                    .get(&j.table)
                    .ok_or_else(|| QueryError::NoSuchTable(j.table.clone()))?;
                Some(join_tables(
                    subject,
                    &self.global,
                    mode,
                    cost,
                    table,
                    t,
                    &j.table,
                    t2,
                    &j.left,
                    &j.right,
                )?)
            }
        };
        let t = joined.as_ref().unwrap_or(t);

        validate_columns(&t.columns, filter.as_ref())?;

        // `COUNT(*)` alone, unordered and unlimited, needs no row list: the
        // scan counts its matches and folds in the pair of each partition
        // they come from (a partition's matches arrive together).
        if let ([SelectItem::CountStar], None, None) = (items.as_slice(), &order_by, limit) {
            let (mut n, mut labels, mut last) = (0, None::<LabelPair>, usize::MAX);
            let probe = Probe::plan(t, filter.as_ref());
            let scanned = scan(t, subject, &self.global, mode, cost, probe, false, &mut |l| {
                n += 1;
                if l.part != last {
                    last = l.part;
                    let pair = &t.partitions[l.part].pair;
                    labels = Some(labels.take().map_or_else(|| pair.clone(), |all| all.combine(pair)));
                }
            })?;
            let labels = labels.unwrap_or_else(LabelPair::public);
            return Ok(one_row(vec![items[0].header()], vec![Value::Int(n)], labels, scanned));
        }

        // Each match: its row, and the partition it lives in.
        let mut hits: Vec<Hit> = Vec::new();
        let probe = Probe::plan(t, filter.as_ref());
        let scanned = scan(t, subject, &self.global, mode, cost, probe, false, &mut |l| {
            hits.push(Hit { row: &t.partitions[l.part].rows[l.row], part: l.part })
        })?;
        // Back to insertion order: the scan visits partition-major.
        hits.sort_unstable_by_key(|h| h.row.seq);

        if let Some((col, asc)) = &order_by {
            let ix = t.col_index(col)?;
            hits.sort_by(|a, b| {
                let ord = a.row.values[ix].order(&b.row.values[ix]);
                if *asc {
                    ord
                } else {
                    ord.reverse()
                }
            });
        }
        if let Some(n) = limit {
            hits.truncate(n);
        }

        // Each partition the kept rows come from gets one slot in the pair
        // table, in order of first appearance: its pair is cloned once, and
        // a row records only the slot. The pairs are distinct (a table's
        // partitions hold distinct pairs), so they also fold, once each,
        // into the combined labels.
        let mut slot = vec![u32::MAX; t.partitions.len()];
        let mut pairs: Vec<LabelPair> = Vec::new();
        let row_pairs: Vec<u32> = hits
            .iter()
            .map(|h| {
                if slot[h.part] == u32::MAX {
                    slot[h.part] = pairs.len() as u32;
                    pairs.push(t.partitions[h.part].pair.clone());
                }
                slot[h.part]
            })
            .collect();
        let labels = combine_labels(&pairs);

        // One pass sorts the select list into aggregate values *or* row
        // projections. The parser admits no mix of the two; a hand-built
        // `Statement` that has one is refused below.
        let mut headers = Vec::new();
        let mut aggregates: Vec<Value> = Vec::new();
        let mut proj: Vec<Projection> = Vec::new();
        for item in &items {
            match item {
                SelectItem::Wildcard => {
                    for (i, (name, _)) in t.columns.iter().enumerate() {
                        headers.push(name.clone());
                        proj.push(Projection::Col(i));
                    }
                    continue;
                }
                SelectItem::Expr(Expr::Column(c)) => proj.push(Projection::Col(t.col_index(c)?)),
                SelectItem::Expr(e) => {
                    let mut cols = Vec::new();
                    e.columns(&mut cols);
                    for c in &cols {
                        t.col_index(c)?;
                    }
                    proj.push(Projection::Expr(e));
                }
                SelectItem::CountStar => aggregates.push(Value::Int(hits.len() as i64)),
                SelectItem::Count(c) => aggregates.push(count(t.col_index(c)?, &hits)),
                SelectItem::Sum(c) => aggregates.push(sum(t.col_index(c)?, &hits)?),
                SelectItem::Min(c) => aggregates.push(extreme(t.col_index(c)?, &hits, Ordering::is_lt)),
                SelectItem::Max(c) => aggregates.push(extreme(t.col_index(c)?, &hits, Ordering::is_gt)),
            }
            headers.push(item.header());
        }
        if !aggregates.is_empty() {
            if !proj.is_empty() {
                return Err(QueryError::Eval("cannot mix aggregates and plain columns".into()));
            }
            return Ok(one_row(headers, aggregates, labels, scanned));
        }

        // Every kept row's cells, row-major, in one buffer.
        let mut cells = Vec::with_capacity(hits.len() * proj.len());
        for h in &hits {
            for p in &proj {
                cells.push(match p {
                    Projection::Col(i) => h.row.values[*i].clone(),
                    Projection::Expr(e) => eval(e, &t.columns, &h.row.values)?.into_owned(),
                });
            }
        }
        Ok(QueryOutput { columns: headers, cells, row_pairs, pairs, labels, affected: 0, scanned })
    }

    fn update(
        &self,
        subject: &Subject,
        mode: QueryMode,
        cost: QueryCost,
        table: &str,
        sets: Vec<(String, Expr)>,
        filter: Option<Expr>,
    ) -> Result<QueryOutput, QueryError> {
        let mut tables = self.tables.write();
        let t = tables
            .get_mut(table)
            .ok_or_else(|| QueryError::NoSuchTable(table.to_string()))?;
        validate_columns(&t.columns, filter.as_ref())?;
        let set_idx: Vec<(usize, Expr)> = sets
            .into_iter()
            .map(|(c, e)| t.col_index(&c).map(|i| (i, e)))
            .collect::<Result<_, _>>()?;

        let mut locs = Vec::new();
        let probe = Probe::plan(t, filter.as_ref());
        let scanned = scan(t, subject, &self.global, mode, cost, probe, true, &mut |l| locs.push(l))?;
        // Stage in insertion order so SET-expression evaluation (and any
        // error it surfaces) does not depend on layout; apply only once every
        // row staged cleanly — a failure aborts the whole statement.
        locs.sort_unstable_by_key(|l| l.seq);
        let mut staged: Vec<(RowLoc, Vec<(usize, Value)>)> = Vec::with_capacity(locs.len());
        for &loc in &locs {
            let row = &t.partitions[loc.part].rows[loc.row];
            let mut cells = Vec::with_capacity(set_idx.len());
            for (ci, e) in &set_idx {
                let v = eval(e, &t.columns, &row.values)?.into_owned();
                let (ref cname, cty) = t.columns[*ci];
                if !v.fits(cty) {
                    return Err(QueryError::TypeMismatch { column: cname.clone(), expected: cty });
                }
                cells.push((*ci, v));
            }
            staged.push((loc, cells));
        }
        let affected = staged.len();
        for (loc, cells) in staged {
            for (ci, v) in cells {
                t.partitions[loc.part].rows[loc.row].values[ci] = v;
            }
        }
        // Index maintenance: rewriting an indexed column invalidates the
        // touched partitions' indexes.
        if set_idx.iter().any(|(ci, _)| t.index_slot(*ci).is_some()) {
            let mut parts: Vec<usize> = locs.iter().map(|l| l.part).collect();
            parts.sort_unstable();
            parts.dedup();
            for pi in parts {
                t.rebuild_indexes(pi);
            }
        }
        Ok(QueryOutput { affected, scanned, ..empty_output() })
    }

    fn delete(
        &self,
        subject: &Subject,
        mode: QueryMode,
        cost: QueryCost,
        table: &str,
        filter: Option<Expr>,
    ) -> Result<QueryOutput, QueryError> {
        let mut tables = self.tables.write();
        let t = tables
            .get_mut(table)
            .ok_or_else(|| QueryError::NoSuchTable(table.to_string()))?;
        validate_columns(&t.columns, filter.as_ref())?;
        // Mark (scan), then sweep — so WriteDenied and budget errors abort
        // the statement without partial effects.
        let mut locs = Vec::new();
        let probe = Probe::plan(t, filter.as_ref());
        let scanned = scan(t, subject, &self.global, mode, cost, probe, true, &mut |l| locs.push(l))?;
        let affected = locs.len();
        if affected > 0 {
            let mut doomed: Vec<Option<Vec<bool>>> = vec![None; t.partitions.len()];
            for l in &locs {
                let n = t.partitions[l.part].rows.len();
                doomed[l.part].get_or_insert_with(|| vec![false; n])[l.row] = true;
            }
            for (pi, d) in doomed.iter().enumerate() {
                let Some(d) = d else { continue };
                let mut i = 0;
                t.partitions[pi].rows.retain(|_| {
                    let keep = !d[i];
                    i += 1;
                    keep
                });
                if !t.partitions[pi].rows.is_empty() {
                    // Surviving rows shifted: rebuild this partition's indexes.
                    t.rebuild_indexes(pi);
                }
            }
            t.drop_empty_partitions();
        }
        Ok(QueryOutput { affected, scanned, ..empty_output() })
    }
}

enum Projection<'a> {
    Col(usize),
    Expr(&'a Expr),
}

/// What every entry into the store does first. Statements execute
/// all-or-nothing: an injected `sql.query` abort fires before any row is
/// visited, so there is never a half-applied write. Then the permit: flow
/// verdicts are ledgered while the table lock is held; intentional (the
/// verdict must describe the partition it filtered, and the scan cannot
/// release the lock row by row).
fn admit() -> Result<w5_sync::lockdep::AllowHeldGuard, QueryError> {
    if w5_chaos::inject(w5_chaos::Site::SqlQuery).is_some() {
        return Err(QueryError::Aborted);
    }
    Ok(w5_sync::lockdep::allow_held("obs.ledger"))
}

/// Materialize an inner equi-join as a temporary table whose columns are
/// qualified (`left.col`, `right.col`). Row labels combine the two source
/// rows' labels — derived data carries both provenances. Visibility
/// filtering happens per *source* row (via [`scan`], so it is decided per
/// partition), and invisible rows can never influence the join output.
#[allow(clippy::too_many_arguments)]
fn join_tables(
    subject: &Subject,
    global: &TagRegistry,
    mode: QueryMode,
    cost: QueryCost,
    lname: &str,
    left: &Table,
    rname: &str,
    right: &Table,
    on_left: &str,
    on_right: &str,
) -> Result<Table, QueryError> {
    if lname == rname {
        return Err(QueryError::Eval("self-joins are not supported".into()));
    }
    let mut columns: Vec<(String, ColumnType)> = Vec::new();
    for (n, ty) in &left.columns {
        columns.push((format!("{lname}.{n}"), *ty));
    }
    for (n, ty) in &right.columns {
        columns.push((format!("{rname}.{n}"), *ty));
    }
    let strip = |qualified: &str, table: &str| -> Option<String> {
        qualified
            .strip_prefix(table)
            .and_then(|rest| rest.strip_prefix('.'))
            .map(str::to_string)
    };
    let lcol = strip(on_left, lname)
        .ok_or_else(|| QueryError::NoSuchColumn(on_left.to_string()))?;
    let rcol = strip(on_right, rname)
        .ok_or_else(|| QueryError::NoSuchColumn(on_right.to_string()))?;
    let li = left.col_index(&lcol)?;
    let ri = right.col_index(&rcol)?;

    // The prefilter: every visible row, in insertion order. It charges
    // nothing — a join budgets the candidate *pair* count instead.
    let visible = |t: &Table| -> Result<Vec<RowLoc>, QueryError> {
        let mut locs = Vec::new();
        let all = Probe { push: None, filter: None };
        scan(t, subject, global, mode, QueryCost::unlimited(), all, false, &mut |l| locs.push(l))?;
        locs.sort_unstable_by_key(|l| l.seq);
        Ok(locs)
    };
    let (lvis, rvis) = (visible(left)?, visible(right)?);

    // Nested-loop join with the pair count charged against the budget.
    let pairs = lvis.len() as u64 * rvis.len() as u64;
    if pairs > cost.max_rows_scanned {
        return Err(QueryError::BudgetExhausted);
    }
    let mut out = Table::new(columns);
    for a in &lvis {
        let lpart = &left.partitions[a.part];
        let lrow = &lpart.rows[a.row];
        for b in &rvis {
            let rpart = &right.partitions[b.part];
            let rrow = &rpart.rows[b.row];
            if lrow.values[li].sql_eq(&rrow.values[ri]) != Value::Bool(true) {
                continue;
            }
            let mut values = Vec::with_capacity(out.columns.len());
            values.extend(lrow.values.iter().cloned());
            values.extend(rrow.values.iter().cloned());
            out.insert_row(global, &lpart.pair.combine(&rpart.pair), values);
        }
    }
    Ok(out)
}

fn empty_output() -> QueryOutput {
    QueryOutput::new(Vec::new())
}

/// A one-row answer (an aggregate): the row carries the combined `labels`.
fn one_row(columns: Vec<String>, values: Vec<Value>, labels: LabelPair, scanned: u64) -> QueryOutput {
    let (row_pairs, pairs) = (vec![0], vec![labels.clone()]);
    QueryOutput { columns, cells: values, row_pairs, pairs, labels, affected: 0, scanned }
}

/// Validate that every column a filter references exists, so "no such
/// column" errors surface deterministically (not only when a row matches).
fn validate_columns(
    cols: &[(String, ColumnType)],
    filter: Option<&Expr>,
) -> Result<(), QueryError> {
    // Left to right, as `Expr::columns` lists them, without collecting.
    fn walk(cols: &[(String, ColumnType)], e: &Expr) -> Result<(), QueryError> {
        match e {
            Expr::Literal(_) => Ok(()),
            Expr::Column(c) => col_index(cols, c).map(drop),
            Expr::Binary { left, right, .. } => walk(cols, left).and_then(|()| walk(cols, right)),
            Expr::Not(e) | Expr::Neg(e) | Expr::IsNull { expr: e, .. } => walk(cols, e),
        }
    }
    filter.map_or(Ok(()), |f| walk(cols, f))
}

/// Combined labels of the rows that contributed to a result, folded over
/// the distinct pairs they carry, so the set algebra is bounded by
/// partitions hit, not rows.
fn combine_labels(pairs: &[LabelPair]) -> LabelPair {
    // Fold from the first pair, not from PUBLIC: integrity combines by
    // intersection, and an empty seed would erase every integrity claim.
    match pairs.split_first() {
        None => LabelPair::public(),
        Some((first, rest)) => rest.iter().fold(first.clone(), |all, pair| all.combine(pair)),
    }
}

/// Evaluate `expr` against one row. Literals and column cells — the
/// operands of nearly every comparison a filter makes — come back borrowed,
/// so comparing them clones nothing; computed values are owned.
fn eval<'a>(
    expr: &'a Expr,
    cols: &[(String, ColumnType)],
    row: &'a [Value],
) -> Result<Cow<'a, Value>, QueryError> {
    let computed = match expr {
        Expr::Literal(v) => return Ok(Cow::Borrowed(v)),
        Expr::Column(c) => return Ok(Cow::Borrowed(&row[col_index(cols, c)?])),
        Expr::Not(e) => Value::Bool(!eval(e, cols, row)?.is_truthy()),
        Expr::Neg(e) => match *eval(e, cols, row)? {
            Value::Int(i) => Value::Int(
                i.checked_neg().ok_or_else(|| QueryError::Eval("integer overflow".into()))?,
            ),
            Value::Null => Value::Null,
            _ => return Err(QueryError::Eval("cannot negate a non-integer".into())),
        },
        Expr::IsNull { expr, negated } => {
            let isnull = matches!(*eval(expr, cols, row)?, Value::Null);
            Value::Bool(isnull != *negated)
        }
        Expr::Binary { op, left, right } => match OpKind::of(*op) {
            // Logic short-circuits: the right side may never run.
            OpKind::And => Value::Bool(
                eval(left, cols, row)?.is_truthy() && eval(right, cols, row)?.is_truthy(),
            ),
            OpKind::Or => Value::Bool(
                eval(left, cols, row)?.is_truthy() || eval(right, cols, row)?.is_truthy(),
            ),
            OpKind::Strict(op) => {
                let (l, r) = (eval(left, cols, row)?, eval(right, cols, row)?);
                strict(op, &l, &r)?
            }
        },
    };
    Ok(Cow::Owned(computed))
}

/// [`BinOp`] by how it is evaluated, so that [`eval`] and [`strict`] each
/// match only the operators they can be handed.
enum OpKind {
    And,
    Or,
    Strict(Strict),
}

/// The operators that see both operand values; NULL in, NULL out.
enum Strict {
    Eq,
    NotEq,
    /// `<`, `<=`, `>`, `>=`: the test applied to how the operands order.
    Order(fn(Ordering) -> bool),
    Like,
    /// Checked integer arithmetic; `/` and `%` name the error a zero
    /// right-hand side raises.
    Arith(fn(i64, i64) -> Option<i64>, Option<&'static str>),
}

impl OpKind {
    fn of(op: BinOp) -> OpKind {
        OpKind::Strict(match op {
            BinOp::And => return OpKind::And,
            BinOp::Or => return OpKind::Or,
            BinOp::Eq => Strict::Eq,
            BinOp::NotEq => Strict::NotEq,
            BinOp::Lt => Strict::Order(Ordering::is_lt),
            BinOp::LtEq => Strict::Order(Ordering::is_le),
            BinOp::Gt => Strict::Order(Ordering::is_gt),
            BinOp::GtEq => Strict::Order(Ordering::is_ge),
            BinOp::Like => Strict::Like,
            BinOp::Add => Strict::Arith(i64::checked_add, None),
            BinOp::Sub => Strict::Arith(i64::checked_sub, None),
            BinOp::Mul => Strict::Arith(i64::checked_mul, None),
            BinOp::Div => Strict::Arith(i64::checked_div, Some("division by zero")),
            BinOp::Mod => Strict::Arith(i64::checked_rem, Some("modulo by zero")),
        })
    }
}

/// Apply a non-logical binary operator to two evaluated operands.
fn strict(op: Strict, l: &Value, r: &Value) -> Result<Value, QueryError> {
    if matches!(l, Value::Null) || matches!(r, Value::Null) {
        return Ok(Value::Null);
    }
    match op {
        Strict::Eq => Ok(l.sql_eq(r)),
        Strict::NotEq => match l.sql_eq(r) {
            Value::Bool(b) => Ok(Value::Bool(!b)),
            v => Ok(v),
        },
        Strict::Order(test) => {
            let ord = match (l, r) {
                (Value::Int(a), Value::Int(b)) => a.cmp(b),
                (Value::Text(a), Value::Text(b)) => a.cmp(b),
                _ => return Err(QueryError::Eval("incomparable values".into())),
            };
            Ok(Value::Bool(test(ord)))
        }
        Strict::Like => match (l, r) {
            (Value::Text(t), Value::Text(p)) => Ok(Value::Bool(like_match(t, p))),
            _ => Err(QueryError::Eval("LIKE needs text operands".into())),
        },
        Strict::Arith(apply, on_zero) => {
            let (a, b) = match (l, r) {
                (Value::Int(a), Value::Int(b)) => (*a, *b),
                _ => return Err(QueryError::Eval("arithmetic needs integers".into())),
            };
            if let (0, Some(msg)) = (b, on_zero) {
                return Err(QueryError::Eval(msg.into()));
            }
            apply(a, b).map(Value::Int).ok_or_else(|| QueryError::Eval("integer overflow".into()))
        }
    }
}

/// Evaluate an expression with no row context (INSERT values).
fn eval_const(expr: &Expr) -> Result<Value, QueryError> {
    eval(expr, &[], &[]).map(Cow::into_owned)
}

/// One row a SELECT keeps, and the index of the partition it lives in.
struct Hit<'t> {
    row: &'t StoredRow,
    part: usize,
}

/// `COUNT(col)`: the non-NULL cells.
fn count(col: usize, hits: &[Hit]) -> Value {
    Value::Int(hits.iter().filter(|h| !matches!(h.row.values[col], Value::Null)).count() as i64)
}

/// `SUM(col)`: NULL cells are skipped; no integer at all sums to NULL.
fn sum(col: usize, hits: &[Hit]) -> Result<Value, QueryError> {
    let mut sum = 0i64;
    let mut any = false;
    for h in hits {
        match &h.row.values[col] {
            Value::Int(v) => {
                sum = sum
                    .checked_add(*v)
                    .ok_or_else(|| QueryError::Eval("SUM overflow".into()))?;
                any = true;
            }
            Value::Null => {}
            _ => return Err(QueryError::Eval("SUM needs an integer column".into())),
        }
    }
    Ok(if any { Value::Int(sum) } else { Value::Null })
}

/// `MIN(col)` / `MAX(col)`: the first non-NULL cell that none `beats` under
/// [`Value::order`].
fn extreme(col: usize, hits: &[Hit], beats: fn(Ordering) -> bool) -> Value {
    let mut best: Option<&Value> = None;
    for h in hits {
        let v = &h.row.values[col];
        if !matches!(v, Value::Null) && best.is_none_or(|b| beats(v.order(b))) {
            best = Some(v);
        }
    }
    best.cloned().unwrap_or(Value::Null)
}
