//! What a statement returns: one flat, row-major buffer of cells.
//!
//! A SELECT's rows are not materialised one by one. The result holds every
//! cell in one `Vec<Value>`, `columns.len()` per row, and for each row the
//! index of its label pair in a small table that holds each distinct pair
//! once. A partition's pair is therefore cloned once per result, not once
//! per row, and a row costs no allocation beyond its text cells. Rows are
//! read through borrowed [`Row`] views; each still carries its own
//! partition's labels (DESIGN §15).

use super::value::Value;
use std::fmt;
use std::ops::Range;
use w5_difc::LabelPair;

/// One result row, borrowed from its [`QueryOutput`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Row<'a> {
    /// Cell values, in result-column order.
    pub values: &'a [Value],
    /// The stored row's labels (for SELECT results); an aggregate's one row
    /// carries the combined labels.
    pub labels: &'a LabelPair,
}

/// The result of executing a statement.
///
/// Equality is what a reader sees: the columns, each row's values and
/// labels, the combined labels, `affected` and `scanned` — never how the
/// pair table happens to be laid out.
#[derive(Clone)]
pub struct QueryOutput {
    /// Result column headers (empty for DML).
    pub columns: Vec<String>,
    /// Every row's cells, row-major, `columns.len()` per row.
    pub(crate) cells: Vec<Value>,
    /// Per row, the index of its labels in `pairs`.
    pub(crate) row_pairs: Vec<u32>,
    /// Each distinct row label pair once.
    pub(crate) pairs: Vec<LabelPair>,
    /// Combined labels of all data that contributed to the result. The
    /// caller must taint the reading process with these labels.
    pub labels: LabelPair,
    /// Rows inserted/updated/deleted by DML.
    pub affected: usize,
    /// Cost units consumed (per row visited, plus one per unreadable
    /// partition skipped; see the `exec` module docs).
    pub scanned: u64,
}

impl QueryOutput {
    /// A result with `columns` and no rows: public, nothing affected or
    /// scanned.
    pub fn new(columns: Vec<String>) -> QueryOutput {
        QueryOutput {
            columns,
            cells: Vec::new(),
            row_pairs: Vec::new(),
            pairs: Vec::new(),
            labels: LabelPair::public(),
            affected: 0,
            scanned: 0,
        }
    }

    /// Append one row: its `values`, one per column, under `labels`. The
    /// pair is stored only if no earlier row carries it.
    pub fn push_row(&mut self, values: impl IntoIterator<Item = Value>, labels: &LabelPair) {
        let start = self.cells.len();
        self.cells.extend(values);
        debug_assert_eq!(self.cells.len() - start, self.columns.len(), "one value per column");
        let at = match self.pairs.iter().position(|p| p == labels) {
            Some(at) => at,
            None => {
                self.pairs.push(labels.clone());
                self.pairs.len() - 1
            }
        };
        self.row_pairs.push(at as u32);
    }

    /// The rows, in result order.
    pub fn rows(&self) -> Rows<'_> {
        Rows { out: self }
    }

    /// Row `i`. Panics if there is no such row, as indexing does.
    pub fn row(&self, i: usize) -> Row<'_> {
        let width = self.columns.len();
        Row { values: &self.cells[i * width..][..width], labels: &self.pairs[self.row_pairs[i] as usize] }
    }
}

impl PartialEq for QueryOutput {
    fn eq(&self, other: &QueryOutput) -> bool {
        self.columns == other.columns
            && self.rows() == other.rows()
            && self.labels == other.labels
            && self.affected == other.affected
            && self.scanned == other.scanned
    }
}

impl fmt::Debug for QueryOutput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueryOutput")
            .field("columns", &self.columns)
            .field("rows", &self.rows())
            .field("labels", &self.labels)
            .field("affected", &self.affected)
            .field("scanned", &self.scanned)
            .finish()
    }
}

/// The rows of a [`QueryOutput`], borrowed.
#[derive(Clone, Copy)]
pub struct Rows<'a> {
    out: &'a QueryOutput,
}

impl<'a> Rows<'a> {
    /// How many rows there are.
    pub fn len(&self) -> usize {
        self.out.row_pairs.len()
    }

    /// Whether there are none.
    pub fn is_empty(&self) -> bool {
        self.out.row_pairs.is_empty()
    }

    /// Row `i`, if there is one.
    pub fn get(&self, i: usize) -> Option<Row<'a>> {
        (i < self.len()).then(|| self.out.row(i))
    }

    /// The first row, if there is one.
    pub fn first(&self) -> Option<Row<'a>> {
        self.get(0)
    }

    /// Every row, in order.
    pub fn iter(&self) -> RowIter<'a> {
        RowIter { out: self.out, next: 0..self.len() }
    }
}

impl<'a> IntoIterator for Rows<'a> {
    type Item = Row<'a>;
    type IntoIter = RowIter<'a>;

    fn into_iter(self) -> RowIter<'a> {
        self.iter()
    }
}

impl PartialEq for Rows<'_> {
    fn eq(&self, other: &Rows<'_>) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl fmt::Debug for Rows<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// An iterator over the rows of a [`QueryOutput`].
#[derive(Clone)]
pub struct RowIter<'a> {
    out: &'a QueryOutput,
    next: Range<usize>,
}

impl<'a> Iterator for RowIter<'a> {
    type Item = Row<'a>;

    fn next(&mut self) -> Option<Row<'a>> {
        self.next.next().map(|i| self.out.row(i))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.next.size_hint()
    }
}

impl ExactSizeIterator for RowIter<'_> {}
