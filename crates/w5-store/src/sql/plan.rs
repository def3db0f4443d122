//! Predicate pushdown: turn WHERE clauses into index probes.
//!
//! The planner walks the top-level `AND` conjuncts of a filter looking for
//! comparisons of the shape `column op literal` (or the mirror image) where
//! the column carries a secondary index. The chosen bounds drive an
//! [`Index`](super::storage::Index) probe per visible partition;
//! the executor then re-evaluates the **full** original filter on every
//! candidate row, so the probe only has to produce a superset of the
//! matching rows. Soundness of the superset claim:
//!
//! * `Eq` — `sql_eq` is only `TRUE` for same-variant equal values, and
//!   [`Value::order`](super::value::Value::order), which keys the index,
//!   agrees with that equality, so one map lookup covers every possible
//!   match. NULL literals are never pushed (`x = NULL` is never true).
//! * Ranges — pushed only when the literal's type matches the declared
//!   column type. A truthy `<`/`<=`/`>`/`>=` requires same-type operands
//!   (anything else evaluates to an error or NULL), and on same-type values
//!   `Value::order` agrees with SQL comparison, so order-based windows
//!   cover every row on which the conjunct can be true.
//!
//! What pushdown deliberately changes: rows pruned by the probe are never
//! visited, so they are not charged against the scan budget and runtime
//! evaluation errors that *other* conjuncts would have raised on them (e.g.
//! a division by zero) do not surface. Like any real planner, error
//! surfacing for rows the plan never touches is plan-dependent; the
//! differential oracle keeps its workloads evaluation-error-free.

use super::ast::{BinOp, Expr};
use super::storage::Table;
use super::value::Value;
use std::cmp::Ordering;

/// Bounds extracted from a filter for one indexed column. `eq` takes
/// precedence over the range pair.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Pushdown {
    /// Column index the probe runs against.
    pub(crate) col: usize,
    /// Equality probe key.
    pub(crate) eq: Option<Value>,
    /// Lower bound `(value, inclusive)`.
    pub(crate) lo: Option<(Value, bool)>,
    /// Upper bound `(value, inclusive)`.
    pub(crate) hi: Option<(Value, bool)>,
}

/// One normalized `column op literal` conjunct.
struct Bound<'e> {
    col: usize,
    op: BinOp,
    lit: &'e Value,
}

/// Extract the best index probe for `filter` against `t`, if any.
pub(crate) fn pushdown(t: &Table, filter: &Expr) -> Option<Pushdown> {
    if t.indexed.is_empty() {
        return None;
    }
    let mut conj = Vec::new();
    conjuncts(filter, &mut conj);
    let mut bounds: Vec<Bound<'_>> = Vec::new();
    for e in conj {
        if let Some(b) = normalize(t, e) {
            bounds.push(b);
        }
    }
    // An equality probe beats any range window.
    if let Some(b) = bounds.iter().find(|b| b.op == BinOp::Eq) {
        return Some(Pushdown { col: b.col, eq: Some(b.lit.clone()), lo: None, hi: None });
    }
    // Otherwise take the first column with a range bound and fold every
    // bound on that column into the tightest window.
    let col = bounds.first()?.col;
    let mut push = Pushdown { col, eq: None, lo: None, hi: None };
    for b in bounds.iter().filter(|b| b.col == col) {
        let (bound, is_lo) = match b.op {
            BinOp::Gt => ((b.lit.clone(), false), true),
            BinOp::GtEq => ((b.lit.clone(), true), true),
            BinOp::Lt => ((b.lit.clone(), false), false),
            BinOp::LtEq => ((b.lit.clone(), true), false),
            _ => continue,
        };
        let slot = if is_lo { &mut push.lo } else { &mut push.hi };
        *slot = Some(match slot.take() {
            None => bound,
            Some(old) => tighter(old, bound, is_lo),
        });
    }
    (push.lo.is_some() || push.hi.is_some()).then_some(push)
}

/// Of two bounds on the same side, the one that admits fewer values.
fn tighter(a: (Value, bool), b: (Value, bool), is_lo: bool) -> (Value, bool) {
    match a.0.order(&b.0) {
        Ordering::Equal => {
            // Exclusive is tighter than inclusive.
            if a.1 { b } else { a }
        }
        Ordering::Less => {
            if is_lo {
                b
            } else {
                a
            }
        }
        Ordering::Greater => {
            if is_lo {
                a
            } else {
                b
            }
        }
    }
}

/// Flatten nested `AND`s; every collected expression must be truthy for the
/// whole filter to be truthy.
fn conjuncts<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
    if let Expr::Binary { op: BinOp::And, left, right } = e {
        conjuncts(left, out);
        conjuncts(right, out);
    } else {
        out.push(e);
    }
}

/// Normalize one conjunct to `indexed-column op literal`, mirroring
/// `literal op column` comparisons. Returns `None` for anything the index
/// cannot serve.
fn normalize<'e>(t: &Table, e: &'e Expr) -> Option<Bound<'e>> {
    let Expr::Binary { op, left, right } = e else { return None };
    let (col_name, lit, op) = match (left.as_ref(), right.as_ref()) {
        (Expr::Column(c), Expr::Literal(v)) => (c, v, *op),
        (Expr::Literal(v), Expr::Column(c)) => (c, v, mirror(*op)?),
        _ => return None,
    };
    if matches!(lit, Value::Null) {
        return None;
    }
    let col = t.col_index(col_name).ok()?;
    t.index_slot(col)?;
    match op {
        BinOp::Eq => {}
        BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => {
            // Range probes require the literal to inhabit the column type;
            // see the module docs for why equality does not.
            if !lit.fits(t.columns[col].1) {
                return None;
            }
        }
        _ => return None,
    }
    Some(Bound { col, op, lit })
}

/// `lit op col` rewritten as `col op' lit`.
fn mirror(op: BinOp) -> Option<BinOp> {
    Some(match op {
        BinOp::Eq => BinOp::Eq,
        BinOp::Lt => BinOp::Gt,
        BinOp::LtEq => BinOp::GtEq,
        BinOp::Gt => BinOp::Lt,
        BinOp::GtEq => BinOp::LtEq,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::super::parser::parse;
    use super::super::value::ColumnType;
    use super::*;

    fn table() -> Table {
        let mut t = Table::new(vec![
            ("id".into(), ColumnType::Integer),
            ("name".into(), ColumnType::Text),
            ("plain".into(), ColumnType::Integer),
        ]);
        t.add_index(0);
        t.add_index(1);
        t
    }

    fn filter_of(sql: &str) -> Expr {
        match parse(&format!("SELECT * FROM t WHERE {sql}")).unwrap() {
            super::super::ast::Statement::Select { filter: Some(f), .. } => f,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn equality_beats_range() {
        let t = table();
        let p = pushdown(&t, &filter_of("id > 3 AND name = 'x'")).unwrap();
        assert_eq!(p.col, 1);
        assert_eq!(p.eq, Some(Value::Text("x".into())));
    }

    #[test]
    fn range_bounds_fold_to_tightest_window() {
        let t = table();
        let p = pushdown(&t, &filter_of("id > 3 AND id >= 5 AND id < 10 AND id <= 20")).unwrap();
        assert_eq!(p.col, 0);
        assert_eq!(p.lo, Some((Value::Int(5), true)));
        assert_eq!(p.hi, Some((Value::Int(10), false)));
    }

    #[test]
    fn mirrored_literal_comparisons_flip() {
        let t = table();
        let p = pushdown(&t, &filter_of("10 > id")).unwrap();
        assert_eq!(p.col, 0);
        assert_eq!(p.hi, Some((Value::Int(10), false)));
        assert_eq!(p.lo, None);
    }

    #[test]
    fn unindexed_or_unsuitable_conjuncts_are_ignored() {
        let t = table();
        assert!(pushdown(&t, &filter_of("plain = 5")).is_none());
        assert!(pushdown(&t, &filter_of("id = NULL")).is_none());
        // OR is not a conjunction: nothing is pushable.
        assert!(pushdown(&t, &filter_of("id = 1 OR id = 2")).is_none());
        // Type-mismatched range bound stays un-pushed (Eval semantics).
        assert!(pushdown(&t, &filter_of("id < 'zzz'")).is_none());
        // NotEq / LIKE cannot drive a probe.
        assert!(pushdown(&t, &filter_of("id != 4")).is_none());
        assert!(pushdown(&t, &filter_of("name LIKE 'a%'")).is_none());
    }

    #[test]
    fn pushdown_is_a_conjunct_of_the_filter() {
        // `id = 1 AND plain > 2`: probing id is sound because the probe is
        // a superset and the executor re-checks the full filter.
        let t = table();
        let p = pushdown(&t, &filter_of("id = 1 AND plain > 2")).unwrap();
        assert_eq!(p.col, 0);
        assert_eq!(p.eq, Some(Value::Int(1)));
    }
}
