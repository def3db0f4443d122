//! The store's semantics, stated once and flat: the model `storediff` and
//! `tests/store.rs` check the labeled SQL engine against.
//!
//! One table is a `Vec` of rows in insertion order, each carrying its own
//! label pair. There are no partitions, no label ids, no indexes, no parser
//! and no expression evaluator: [`Model::apply`] interprets the structured
//! [`StoreOp`] directly, so a row the store loses, duplicates or files under
//! the wrong label between two statements shows up as a disagreement. What
//! the model shares with the store is `Subject::may_read` / `may_write` (one
//! call per row, never per group of rows) and the `Value` / `QueryOutput`
//! types it answers in; nothing else. JOIN, DROP and scan budgets are outside
//! the op vocabulary and therefore outside what it can see.
//!
//! Cost: every scanning statement charges one unit per stored row, visible
//! or not — the flat scan's price, and the ceiling the store's pruned
//! `scanned` is compared against.

use crate::storediff::{Arm, EqTerm, Outcome, StoreOp, StoreWorld, ID_DOMAIN};
use std::cmp::Reverse;
use w5_difc::{rules, CapSet, LabelPair};
use w5_store::QueryMode::{Filtered, Naive, Unprivileged};
use w5_store::{QueryError, QueryMode, QueryOutput, Row, Subject, Value};

#[derive(Clone, Debug)]
pub(crate) struct ModelRow {
    pub(crate) labels: LabelPair,
    id: Option<i64>,
    v: i64,
    s: String,
}

/// One table of `(id INTEGER, v INTEGER, s TEXT)` rows, oldest first.
#[derive(Clone, Debug, Default)]
pub struct Model {
    pub(crate) rows: Vec<ModelRow>,
}

fn int(v: Option<i64>) -> Value {
    v.map_or(Value::Null, Value::Int)
}

impl Model {
    /// Indexes of the rows `subject` sees under `mode` that satisfy `pred`.
    fn hits(&self, w: &StoreWorld, subject: &Subject, mode: QueryMode, pred: impl Fn(&ModelRow) -> bool) -> Vec<usize> {
        let sees = |r: &ModelRow| match mode {
            Naive => true,
            Filtered => subject.may_read(&w.global, &r.labels),
            // No capability at all: not the subject's, not the global bag's.
            Unprivileged => rules::may_read(&subject.labels, &CapSet::empty(), &r.labels),
        };
        (0..self.rows.len()).filter(|&i| sees(&self.rows[i]) && pred(&self.rows[i])).collect()
    }

    /// The same rows, for a SELECT to order and cut.
    fn seen(&self, w: &StoreWorld, subject: &Subject, mode: QueryMode, pred: impl Fn(&ModelRow) -> bool) -> Vec<&ModelRow> {
        self.hits(w, subject, mode, pred).into_iter().map(|i| &self.rows[i]).collect()
    }

    /// A SELECT's answer: `values` of each hit (of all of them at once for an
    /// aggregate), under the labels of everything that reached the result —
    /// secrecy accumulates, integrity degrades.
    fn answer(&self, columns: &[&str], hits: &[&ModelRow], aggregate: Option<Vec<Value>>) -> Outcome {
        let labels = hits
            .iter()
            .map(|r| r.labels.clone())
            .reduce(|a, b| a.combine(&b))
            .unwrap_or_else(LabelPair::public);
        let rows = match aggregate {
            Some(values) => vec![Row { values, labels: labels.clone() }],
            None => hits
                .iter()
                .map(|r| {
                    let all = [int(r.id), Value::Int(r.v), Value::Text(r.s.clone())];
                    Row { values: all[..columns.len()].to_vec(), labels: r.labels.clone() }
                })
                .collect(),
        };
        let columns = columns.iter().map(|c| c.to_string()).collect();
        Ok(QueryOutput { columns, rows, labels, affected: 0, scanned: self.rows.len() as u64 })
    }

    /// An UPDATE or DELETE: every visible match, all of them writable or the
    /// statement fails whole; `change` returns whether the row stays.
    fn write(
        &mut self,
        w: &StoreWorld,
        subject: &Subject,
        pred: impl Fn(&ModelRow) -> bool,
        change: impl Fn(&mut ModelRow) -> bool,
    ) -> Outcome {
        let hits = self.hits(w, subject, Filtered, pred);
        if hits.iter().any(|&i| !subject.may_write(&w.global, &self.rows[i].labels)) {
            return Err(QueryError::WriteDenied);
        }
        let scanned = self.rows.len();
        for &i in hits.iter().rev() {
            if !change(&mut self.rows[i]) {
                self.rows.remove(i);
            }
        }
        dml(hits.len(), scanned)
    }
}

fn dml(affected: usize, scanned: usize) -> Outcome {
    let labels = LabelPair::public();
    Ok(QueryOutput { columns: Vec::new(), rows: Vec::new(), labels, affected, scanned: scanned as u64 })
}

impl Arm for Model {
    fn apply(&mut self, w: &StoreWorld, op: &StoreOp) -> Outcome {
        // The store rolls this die once per statement, before it touches a
        // row; rolling it here keeps the two abort streams in step.
        if w5_chaos::inject(w5_chaos::Site::SqlQuery).is_some() {
            return Err(QueryError::Aborted);
        }
        let keyed = |k: i64| move |r: &ModelRow| r.id == Some(k);
        match *op {
            StoreOp::Insert { kind, id, v } => {
                let labels = w.insert_label(kind);
                if !w.owner.may_write(&w.global, &labels) {
                    return Err(QueryError::WriteDenied);
                }
                let s = id.map_or("rNULL".to_string(), |id| format!("r{id}"));
                self.rows.push(ModelRow { labels, id, v, s });
                dml(1, 0)
            }
            StoreOp::Point { stranger, id, below } => {
                let pred = |r: &ModelRow| keyed(id)(r) && below.is_none_or(|b| r.v < b);
                self.answer(&["id", "v", "s"], &self.seen(w, w.reader(stranger), Filtered, pred), None)
            }
            StoreOp::Meet { stranger, id, also, then } => {
                // A NULL literal and a literal of another type never
                // compare equal; `v` is never NULL.
                let holds = |r: &ModelRow, e: EqTerm| match e {
                    EqTerm::Id(m) => r.id == Some(m),
                    EqTerm::V(n) => r.v == n,
                    EqTerm::VText(_) | EqTerm::IdNull => false,
                };
                let pred = |r: &ModelRow| keyed(id)(r) && holds(r, also) && then.is_none_or(|e| holds(r, e));
                self.answer(&["id", "v", "s"], &self.seen(w, w.reader(stranger), Filtered, pred), None)
            }
            StoreOp::Window { stranger, lo, hi } => {
                // NULL keys are in no window; an inverted window is empty.
                let inside = |r: &ModelRow| {
                    r.id.is_some_and(|id| {
                        (id > lo.0 || (lo.1 && id == lo.0)) && (id < hi.0 || (hi.1 && id == hi.0))
                    })
                };
                self.answer(&["id", "v"], &self.seen(w, w.reader(stranger), Filtered, inside), None)
            }
            StoreOp::Range { stranger, lo, span } => {
                let mut hits = self.seen(w, w.reader(stranger), Filtered, |r| r.v >= lo && r.v < lo + span);
                // ORDER BY id: NULL first, as `Option` orders; ties keep
                // insertion order (the sort is stable).
                hits.sort_by_key(|r| r.id);
                self.answer(&["id", "v"], &hits, None)
            }
            StoreOp::Agg { stranger } => {
                let hits = self.seen(w, w.reader(stranger), Filtered, |_| true);
                let ids = hits.iter().filter_map(|r| r.id);
                let vs = hits.iter().map(|r| r.v);
                let values = vec![
                    Value::Int(hits.len() as i64),
                    Value::Int(ids.clone().count() as i64),
                    int((!hits.is_empty()).then(|| vs.clone().sum())),
                    int(ids.min()),
                    int(vs.max()),
                ];
                let names = ["COUNT(*)", "COUNT(id)", "SUM(v)", "MIN(id)", "MAX(v)"];
                self.answer(&names, &hits, Some(values))
            }
            StoreOp::OrderLimit { stranger, limit } => {
                let mut hits = self.seen(w, w.reader(stranger), Filtered, |_| true);
                hits.sort_by_key(|r| Reverse(r.v));
                hits.truncate(limit);
                self.answer(&["id", "v"], &hits, None)
            }
            StoreOp::NaiveScan => {
                let mut hits = self.seen(w, &w.stranger, Naive, |_| true);
                hits.sort_by_key(|r| r.id);
                hits.truncate(20);
                self.answer(&["id", "v", "s"], &hits, None)
            }
            StoreOp::Count { stranger, id, unprivileged } => {
                let mode = if unprivileged { Unprivileged } else { Filtered };
                let hits = self.seen(w, w.reader(stranger), mode, keyed(id));
                self.answer(&["COUNT(*)"], &hits, Some(vec![Value::Int(hits.len() as i64)]))
            }
            StoreOp::Dump => self.answer(&["id", "v", "s"], &self.seen(w, &w.stranger, Naive, |_| true), None),
            StoreOp::Update { id, v } => self.write(w, &w.owner, keyed(id), |r| {
                r.v = v;
                true
            }),
            StoreOp::Shift { id } => self.write(w, &w.owner, keyed(id), |r| {
                r.id = Some(id + ID_DOMAIN);
                true
            }),
            StoreOp::StrangerUpdate { v } => self.write(w, &w.stranger, |r| r.v >= v, |r| {
                r.s = "x".to_string();
                true
            }),
            StoreOp::Delete { id } => self.write(w, &w.owner, keyed(id), |_| false),
            StoreOp::DeleteWindow { lo, hi } => {
                self.write(w, &w.owner, |r| r.id.is_some_and(|id| id >= lo && id <= hi), |_| false)
            }
            StoreOp::CreateTable | StoreOp::CreateIndex { .. } => dml(0, 0),
        }
    }
}
