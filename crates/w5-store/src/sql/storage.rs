//! Label-partitioned table storage.
//!
//! A table's rows are grouped into **partitions keyed by their interned
//! [`PairId`]**: every row in a partition carries exactly the same
//! (secrecy, integrity) label pair. Visibility under DIFC is therefore a
//! per-partition property — a query performs one flow check per partition,
//! against the resolved [`LabelPair`] the partition keeps beside its id, and
//! then either streams the partition wholesale or skips it wholesale.
//!
//! Each partition additionally carries one **ordered index per indexed
//! column** (see [`Index`]): a map from each distinct value to the ascending
//! row indexes holding it. Indexes are maintained on the write path only —
//! probes never mutate — so the read path stays lock-free inside the table's
//! `RwLock` read guard. The index is per partition, not per table, on
//! purpose: a probe then touches only postings the subject may read, so its
//! cost cannot depend on what unreadable partitions hold.
//!
//! Invariant: partitions are never empty. A partition is created by the
//! insert of its first row and dropped by the delete of its last, so the
//! per-partition skip charge in the cost model (see `exec`) depends only on
//! which distinct label pairs currently hold live rows.

use super::value::{ColumnType, Value};
use crate::sql::exec::QueryError;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::ops::Bound;
use w5_difc::{LabelPair, PairId, PairIdMap};

/// A stored row: cell values plus the table-wide insertion sequence number.
/// Scans are re-sorted by `seq` before ORDER BY / LIMIT /
/// projection, which reproduces the flat-storage engine's insertion-order
/// semantics exactly even though rows physically live partition-major.
#[derive(Clone, Debug)]
pub(crate) struct StoredRow {
    pub(crate) seq: u64,
    pub(crate) values: Vec<Value>,
}

/// The address of one stored row: partition index, row index within the
/// partition, and the row's insertion sequence number (denormalized so
/// result pipelines can order hits without chasing the partition again).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct RowLoc {
    pub(crate) part: usize,
    pub(crate) row: usize,
    pub(crate) seq: u64,
}

/// One secondary index over one column of one partition: each distinct
/// value (keys ordered by [`Value::order`]) maps to the ascending indexes of
/// the rows holding it. A probe is one map lookup; an insert is one lookup
/// plus a push, because a new row's index exceeds every index already
/// stored. Deletes and updates of indexed columns rebuild the affected
/// partition's indexes eagerly on the write path.
#[derive(Clone, Debug, Default)]
pub(crate) struct Index(BTreeMap<Value, Vec<u32>>);

impl Index {
    /// Build an index over `col` of every row in the partition.
    pub(crate) fn build(rows: &[StoredRow], col: usize) -> Index {
        let mut index = Index::default();
        for (i, r) in rows.iter().enumerate() {
            index.push(&r.values[col], i as u32);
        }
        index
    }

    /// Record a newly appended row's value. The key is cloned only the
    /// first time a value is seen.
    pub(crate) fn push(&mut self, v: &Value, ix: u32) {
        match self.0.get_mut(v) {
            Some(rows) => rows.push(ix),
            None => {
                self.0.insert(v.clone(), vec![ix]);
            }
        }
    }

    /// Ascending row indexes whose value equals `v` under [`Value::order`].
    /// NULL keys never match (`sql_eq` with NULL is never true, so the
    /// caller never probes with NULL).
    pub(crate) fn probe_eq(&self, v: &Value) -> &[u32] {
        self.0.get(v).map_or(&[], Vec::as_slice)
    }

    /// Row indexes within `(lo, hi)` under [`Value::order`], grouped by key;
    /// each bound is `(value, inclusive)`. The result only needs to be a
    /// *superset* of the rows the original predicate accepts — the executor
    /// re-evaluates the full filter on every candidate.
    pub(crate) fn probe_range(
        &self,
        lo: Option<&(Value, bool)>,
        hi: Option<&(Value, bool)>,
        out: &mut Vec<u32>,
    ) {
        // `BTreeMap::range` panics on an inverted or empty-and-excluded
        // window, and hostile SQL (`id > 5 AND id < 3`) folds into exactly
        // that: an empty window has no candidates.
        if let (Some(l), Some(h)) = (lo, hi) {
            match l.0.cmp(&h.0) {
                Ordering::Greater => return,
                Ordering::Equal if !(l.1 && h.1) => return,
                _ => {}
            }
        }
        fn bound(b: Option<&(Value, bool)>) -> Bound<&Value> {
            match b {
                None => Bound::Unbounded,
                Some((v, true)) => Bound::Included(v),
                Some((v, false)) => Bound::Excluded(v),
            }
        }
        for (_, rows) in self.0.range::<Value, _>((bound(lo), bound(hi))) {
            out.extend_from_slice(rows);
        }
    }
}

/// One label partition: the rows sharing one label pair — kept both as the
/// interned id the directory routes by and as the resolved pair flow checks
/// read — plus one index per indexed column (parallel to
/// [`Table::indexed`]).
#[derive(Clone, Debug)]
pub(crate) struct Partition {
    pub(crate) labels: PairId,
    pub(crate) pair: LabelPair,
    pub(crate) rows: Vec<StoredRow>,
    pub(crate) indexes: Vec<Index>,
}

/// A table: schema plus label partitions and their indexes.
#[derive(Clone, Debug, Default)]
pub(crate) struct Table {
    pub(crate) columns: Vec<(String, ColumnType)>,
    pub(crate) partitions: Vec<Partition>,
    /// Partition directory: interned label pair → index into `partitions`.
    pub(crate) by_label: PairIdMap<usize>,
    /// Indexed column positions, in index-creation order;
    /// `Partition::indexes` is parallel to this vector.
    pub(crate) indexed: Vec<usize>,
    /// Next insertion sequence number.
    pub(crate) next_seq: u64,
}

/// Resolve a column name against a schema.
pub(crate) fn col_index(
    cols: &[(String, ColumnType)],
    name: &str,
) -> Result<usize, QueryError> {
    cols.iter()
        .position(|(n, _)| n == name)
        .ok_or_else(|| QueryError::NoSuchColumn(name.to_string()))
}

impl Table {
    pub(crate) fn new(columns: Vec<(String, ColumnType)>) -> Table {
        Table { columns, ..Table::default() }
    }

    pub(crate) fn col_index(&self, name: &str) -> Result<usize, QueryError> {
        col_index(&self.columns, name)
    }

    pub(crate) fn row_count(&self) -> usize {
        self.partitions.iter().map(|p| p.rows.len()).sum()
    }

    /// The slot in `Partition::indexes` serving column `col`, if indexed.
    pub(crate) fn index_slot(&self, col: usize) -> Option<usize> {
        self.indexed.iter().position(|&c| c == col)
    }

    /// Add a secondary index on `col`, building it in every partition.
    /// Idempotent; returns whether a new index was created.
    pub(crate) fn add_index(&mut self, col: usize) -> bool {
        if self.indexed.contains(&col) {
            return false;
        }
        self.indexed.push(col);
        for p in &mut self.partitions {
            p.indexes.push(Index::build(&p.rows, col));
        }
        true
    }

    /// Append one row, routing it to (or creating) its label partition and
    /// maintaining every index. A new partition resolves its id once, here,
    /// so no later flow check has to.
    pub(crate) fn insert_row(&mut self, labels: PairId, values: Vec<Value>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let pi = match self.by_label.get(&labels) {
            Some(&i) => i,
            None => {
                let i = self.partitions.len();
                self.partitions.push(Partition {
                    labels,
                    pair: labels.resolve(),
                    rows: Vec::new(),
                    indexes: self.indexed.iter().map(|_| Index::default()).collect(),
                });
                self.by_label.insert(labels, i);
                i
            }
        };
        let p = &mut self.partitions[pi];
        let ix = p.rows.len() as u32;
        for (slot, &col) in self.indexed.iter().enumerate() {
            p.indexes[slot].push(&values[col], ix);
        }
        p.rows.push(StoredRow { seq, values });
    }

    /// Rebuild every index of partition `pi` (after deletes or updates of
    /// indexed columns shifted or rewrote its rows).
    pub(crate) fn rebuild_indexes(&mut self, pi: usize) {
        let p = &mut self.partitions[pi];
        for (slot, &col) in self.indexed.iter().enumerate() {
            p.indexes[slot] = Index::build(&p.rows, col);
        }
    }

    /// Drop partitions whose last row was deleted, restoring the non-empty
    /// invariant (and with it, label-safe skip accounting) and rebuilding
    /// the partition directory.
    pub(crate) fn drop_empty_partitions(&mut self) {
        if self.partitions.iter().all(|p| !p.rows.is_empty()) {
            return;
        }
        self.partitions.retain(|p| !p.rows.is_empty());
        self.by_label =
            self.partitions.iter().enumerate().map(|(i, p)| (p.labels, i)).collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows_of(vals: &[i64]) -> Vec<StoredRow> {
        vals.iter()
            .enumerate()
            .map(|(i, &v)| StoredRow { seq: i as u64, values: vec![Value::Int(v)] })
            .collect()
    }

    fn range(index: &Index, lo: Option<(i64, bool)>, hi: Option<(i64, bool)>) -> Vec<u32> {
        let bound = |b: Option<(i64, bool)>| b.map(|(v, incl)| (Value::Int(v), incl));
        let mut out = Vec::new();
        index.probe_range(bound(lo).as_ref(), bound(hi).as_ref(), &mut out);
        out.sort_unstable();
        out
    }

    #[test]
    fn probe_eq_finds_all_duplicates() {
        let rows = rows_of(&[5, 3, 5, 1]);
        let mut index = Index::build(&rows, 0);
        index.push(&Value::Int(5), 4);
        index.push(&Value::Int(2), 5);
        assert_eq!(index.probe_eq(&Value::Int(5)), [0, 2, 4]);
        assert!(index.probe_eq(&Value::Int(9)).is_empty());
    }

    #[test]
    fn probe_range_respects_inclusivity() {
        let rows = rows_of(&[1, 2, 3, 4, 5]);
        let mut index = Index::build(&rows, 0);
        index.push(&Value::Int(6), 5);
        // (2, 5]: exclusive low, inclusive high.
        assert_eq!(range(&index, Some((2, false)), Some((5, true))), vec![2, 3, 4]);
        // [3, ∞): rows pushed after the build included.
        assert_eq!(range(&index, Some((3, true)), None), vec![2, 3, 4, 5]);
    }

    #[test]
    fn probe_range_survives_hostile_windows() {
        let index = Index::build(&rows_of(&[3, 4, 5, 5, 6]), 0);
        // Inverted, and every way of writing an empty window around 5.
        assert!(range(&index, Some((5, false)), Some((3, false))).is_empty());
        assert!(range(&index, Some((5, true)), Some((3, true))).is_empty());
        assert!(range(&index, Some((5, false)), Some((5, false))).is_empty());
        assert!(range(&index, Some((5, true)), Some((5, false))).is_empty());
        assert!(range(&index, Some((5, false)), Some((5, true))).is_empty());
        // The one-point window is not empty.
        assert_eq!(range(&index, Some((5, true)), Some((5, true))), vec![2, 3]);
        // A window of another type than the keys is empty, not a panic.
        let mut out = Vec::new();
        index.probe_range(
            Some(&(Value::Text("a".into()), false)),
            Some(&(Value::Text("b".into()), false)),
            &mut out,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn probes_stay_exact_across_many_pushes() {
        let mut index = Index::build(&[], 0);
        for i in 0..1000u32 {
            index.push(&Value::Int(i64::from(i % 97)), i);
        }
        let expect: Vec<u32> = (0..1000).filter(|i| i % 97 == 13).collect();
        assert_eq!(index.probe_eq(&Value::Int(13)), expect);
    }

    #[test]
    fn partitions_route_by_label_and_drop_when_empty() {
        let a = PairId::PUBLIC;
        let mut t = Table::new(vec![("n".into(), ColumnType::Integer)]);
        t.insert_row(a, vec![Value::Int(1)]);
        t.insert_row(a, vec![Value::Int(2)]);
        assert_eq!(t.partitions.len(), 1);
        assert_eq!(t.partitions[0].pair, LabelPair::public());
        assert_eq!(t.row_count(), 2);
        t.partitions[0].rows.clear();
        t.drop_empty_partitions();
        assert!(t.partitions.is_empty());
        assert!(t.by_label.is_empty());
    }
}
