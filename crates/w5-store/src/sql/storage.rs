//! Label-partitioned table storage.
//!
//! A table's rows are grouped into **partitions keyed by their
//! [`LabelPair`]**: every row in a partition carries exactly the same
//! (secrecy, integrity) label pair, and the partition holds that pair once.
//! Visibility under DIFC is therefore a per-partition property — a query
//! performs one flow check per partition it meets, against the pair the
//! partition holds, and then either streams the partition wholesale or
//! skips it wholesale.
//!
//! Each partition additionally carries one **ordered index per indexed
//! column** (see [`Index`]): a map from each distinct value to the ascending
//! row indexes holding it. Indexes are maintained on the write path only —
//! probes never mutate — so the read path stays lock-free inside the table's
//! `RwLock` read guard.
//!
//! Beside them the table keeps the **open directory**: per indexed column,
//! each value maps to the ascending indexes of the *open* partitions whose
//! own index holds it. A partition is open when every tag of its secrecy is
//! export-protect, so under the global bag `Ô` every subject that can drop
//! its integrity claims may read it. Only open partitions are ever filed, so
//! a probe of the directory lists partitions its reader could read anyway;
//! the closed ones are listed apart ([`Table::closed`]) and walked one
//! verdict each, as a scan walks every partition (DESIGN §15).
//!
//! Invariant: partitions are never empty. A partition is created by the
//! insert of its first row and dropped by the delete of its last, so the
//! per-partition skip charge in the cost model (see `exec`) depends only on
//! which distinct label pairs currently hold live rows.

use super::value::{ColumnType, Value};
use crate::sql::exec::QueryError;
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;
use w5_difc::{LabelPair, TagKind, TagRegistry};

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

    /// Record a newly appended row's value; returns whether the value is
    /// new to the partition. The key is cloned only the first time a value
    /// is seen.
    pub(crate) fn push(&mut self, v: &Value, ix: u32) -> bool {
        match self.0.get_mut(v) {
            Some(rows) => {
                rows.push(ix);
                false
            }
            None => {
                self.0.insert(v.clone(), vec![ix]);
                true
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
        lo: Option<(&Value, bool)>,
        hi: Option<(&Value, bool)>,
        out: &mut Vec<u32>,
    ) {
        // `BTreeMap::range` panics on an inverted or empty-and-excluded
        // window, and hostile SQL (`id > 5 AND id < 3`) folds into exactly
        // that: an empty window has no candidates.
        if let (Some(l), Some(h)) = (lo, hi) {
            match l.0.cmp(h.0) {
                Ordering::Greater => return,
                Ordering::Equal if !(l.1 && h.1) => return,
                _ => {}
            }
        }
        fn bound(b: Option<(&Value, bool)>) -> Bound<&Value> {
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

/// One label partition: the rows sharing one label pair, the pair itself,
/// and one index per indexed column (parallel to [`Table::indexed`]).
#[derive(Clone, Debug)]
pub(crate) struct Partition {
    pub(crate) pair: LabelPair,
    /// Every secrecy tag is export-protect (see the module docs). Fixed at
    /// creation: a pair never changes, and neither does a tag's kind.
    pub(crate) open: bool,
    pub(crate) rows: Vec<StoredRow>,
    pub(crate) indexes: Vec<Index>,
}

/// A table: schema plus label partitions and their indexes.
#[derive(Clone, Debug, Default)]
pub(crate) struct Table {
    pub(crate) columns: Vec<(String, ColumnType)>,
    pub(crate) partitions: Vec<Partition>,
    /// Label pair → index into `partitions`: routes INSERTs.
    pub(crate) by_label: HashMap<LabelPair, usize>,
    /// Indexed column positions, in index-creation order;
    /// `Partition::indexes` and `directory` are parallel to this vector.
    pub(crate) indexed: Vec<usize>,
    /// The open directory, per indexed column: each value → the ascending
    /// indexes of the open partitions whose own index holds it.
    pub(crate) directory: Vec<BTreeMap<Value, Vec<u32>>>,
    /// Ascending indexes of the partitions that are not open.
    pub(crate) closed: Vec<u32>,
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

    /// Add a secondary index on `col`, building it in every partition and
    /// in the open directory. Idempotent; returns whether a new index was
    /// created.
    pub(crate) fn add_index(&mut self, col: usize) -> bool {
        if self.indexed.contains(&col) {
            return false;
        }
        self.indexed.push(col);
        for p in &mut self.partitions {
            p.indexes.push(Index::build(&p.rows, col));
        }
        self.rebuild_directory();
        true
    }

    /// Append one row, routing it to (or creating) its label partition and
    /// maintaining every index and the open directory. Only a new partition
    /// clones the pair and asks `registry` for its tags' kinds.
    pub(crate) fn insert_row(&mut self, registry: &TagRegistry, labels: &LabelPair, values: Vec<Value>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let pi = match self.by_label.get(labels) {
            Some(&i) => i,
            None => {
                let i = self.partitions.len();
                let open = labels.secrecy.iter().all(|t| registry.kind(t) == Some(TagKind::ExportProtect));
                if !open {
                    self.closed.push(i as u32);
                }
                self.partitions.push(Partition {
                    pair: labels.clone(),
                    open,
                    rows: Vec::new(),
                    indexes: self.indexed.iter().map(|_| Index::default()).collect(),
                });
                self.by_label.insert(labels.clone(), i);
                i
            }
        };
        let p = &mut self.partitions[pi];
        let ix = p.rows.len() as u32;
        for (slot, &col) in self.indexed.iter().enumerate() {
            if p.indexes[slot].push(&values[col], ix) && p.open {
                file(&mut self.directory[slot], &values[col], pi as u32);
            }
        }
        p.rows.push(StoredRow { seq, values });
    }

    /// Rebuild every index of partition `pi` (after deletes or updates of
    /// indexed columns shifted or rewrote its rows), and move an open
    /// partition out of the directory postings of the keys it lost and into
    /// those of the keys it gained.
    pub(crate) fn rebuild_indexes(&mut self, pi: usize) {
        let p = &mut self.partitions[pi];
        for (slot, &col) in self.indexed.iter().enumerate() {
            let index = Index::build(&p.rows, col);
            if p.open {
                let (dir, old, new) = (&mut self.directory[slot], &p.indexes[slot].0, &index.0);
                for v in old.keys().filter(|v| !new.contains_key(*v)) {
                    unfile(dir, v, pi as u32);
                }
                for v in new.keys().filter(|v| !old.contains_key(*v)) {
                    file(dir, v, pi as u32);
                }
            }
            p.indexes[slot] = index;
        }
    }

    /// Drop partitions whose last row was deleted, restoring the non-empty
    /// invariant (and with it, label-safe skip accounting) and rebuilding
    /// the label map and the open directory, whose indexes shifted.
    pub(crate) fn drop_empty_partitions(&mut self) {
        if self.partitions.iter().all(|p| !p.rows.is_empty()) {
            return;
        }
        self.partitions.retain(|p| !p.rows.is_empty());
        self.by_label =
            self.partitions.iter().enumerate().map(|(i, p)| (p.pair.clone(), i)).collect();
        self.rebuild_directory();
    }

    /// Rebuild the open directory and the closed list from the partitions'
    /// own indexes.
    fn rebuild_directory(&mut self) {
        self.directory = self.indexed.iter().map(|_| BTreeMap::new()).collect();
        self.closed.clear();
        for (pi, p) in self.partitions.iter().enumerate() {
            if !p.open {
                self.closed.push(pi as u32);
                continue;
            }
            for (dir, index) in self.directory.iter_mut().zip(&p.indexes) {
                for v in index.0.keys() {
                    dir.entry(v.clone()).or_default().push(pi as u32);
                }
            }
        }
    }

    /// The open partitions a scan keyed on `keys` (their slots and values)
    /// has to meet: the shortest of the keys' directory postings, ascending.
    /// A partition must hold every key to match, so any one posting covers
    /// them all.
    pub(crate) fn open_posting<'v>(&self, keys: impl Iterator<Item = (usize, &'v Value)>) -> &[u32] {
        keys.map(|(slot, v)| self.directory[slot].get(v).map_or(&[][..], Vec::as_slice))
            .min_by_key(|posting| posting.len())
            .unwrap_or(&[])
    }
}

/// File open partition `pi` under `v`, keeping the posting ascending.
fn file(dir: &mut BTreeMap<Value, Vec<u32>>, v: &Value, pi: u32) {
    let posting = dir.entry(v.clone()).or_default();
    if let Err(at) = posting.binary_search(&pi) {
        posting.insert(at, pi);
    }
}

/// Take partition `pi` out of `v`'s posting, and the posting out of the
/// directory once it is empty.
fn unfile(dir: &mut BTreeMap<Value, Vec<u32>>, v: &Value, pi: u32) {
    if let Some(posting) = dir.get_mut(v) {
        if let Ok(at) = posting.binary_search(&pi) {
            posting.remove(at);
        }
        if posting.is_empty() {
            dir.remove(v);
        }
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
        let (lo, hi) = (lo.map(|(v, incl)| (Value::Int(v), incl)), hi.map(|(v, incl)| (Value::Int(v), incl)));
        fn bound(b: &Option<(Value, bool)>) -> Option<(&Value, bool)> {
            b.as_ref().map(|(v, incl)| (v, *incl))
        }
        let mut out = Vec::new();
        index.probe_range(bound(&lo), bound(&hi), &mut out);
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
            Some((&Value::Text("a".into()), false)),
            Some((&Value::Text("b".into()), false)),
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
        let a = LabelPair::public();
        let mut t = Table::new(vec![("n".into(), ColumnType::Integer)]);
        t.insert_row(&TagRegistry::new(), &a, vec![Value::Int(1)]);
        t.insert_row(&TagRegistry::new(), &a, vec![Value::Int(2)]);
        assert_eq!(t.partitions.len(), 1);
        assert_eq!(t.partitions[0].pair, LabelPair::public());
        assert_eq!(t.row_count(), 2);
        t.partitions[0].rows.clear();
        t.drop_empty_partitions();
        assert!(t.partitions.is_empty());
        assert!(t.by_label.is_empty());
    }

    /// The directory files exactly the open partitions under the keys
    /// their own indexes hold, through inserts, rebuilds and drops.
    #[test]
    fn the_directory_follows_the_open_partitions_indexes() {
        use w5_difc::Label;
        let reg = TagRegistry::new();
        let pair = |kind| LabelPair::new(Label::singleton(reg.create_tag(kind, "t").0), Label::empty());
        let (e1, r, e2) = (pair(TagKind::ExportProtect), pair(TagKind::ReadProtect), pair(TagKind::ExportProtect));
        let mut t = Table::new(vec![("n".into(), ColumnType::Integer)]);
        for (labels, n) in [(&e1, 1), (&r, 1), (&e2, 2), (&e2, 1)] {
            t.insert_row(&reg, labels, vec![Value::Int(n)]);
        }
        assert!(t.add_index(0));
        let posting = |t: &Table, n| t.open_posting([(0, &Value::Int(n))].into_iter()).to_vec();
        assert_eq!((posting(&t, 1), posting(&t, 2), t.closed.clone()), (vec![0, 2], vec![2], vec![1]));
        // A new key of an open partition is filed in order; a closed one's never.
        t.insert_row(&reg, &e1, vec![Value::Int(2)]);
        t.insert_row(&reg, &r, vec![Value::Int(3)]);
        assert_eq!((posting(&t, 2), posting(&t, 3)), (vec![0, 2], vec![]));
        // A rewritten partition is refiled under what it holds now.
        for row in &mut t.partitions[2].rows {
            row.values[0] = Value::Int(3);
        }
        t.rebuild_indexes(2);
        assert_eq!((posting(&t, 1), posting(&t, 2), posting(&t, 3)), (vec![0], vec![0], vec![2]));
        // Dropping partition 0 shifts the others down.
        t.partitions[0].rows.clear();
        t.drop_empty_partitions();
        assert_eq!((posting(&t, 1), posting(&t, 3), t.closed.clone()), (vec![], vec![1], vec![0]));
    }
}
