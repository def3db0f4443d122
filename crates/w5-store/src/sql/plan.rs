//! Predicate pushdown: turn WHERE clauses into index probes.
//!
//! The planner walks the top-level `AND` conjuncts of a filter looking for
//! comparisons of the shape `column op literal` (or the mirror image) where
//! the column carries a secondary index. The chosen bounds drive
//! [`Index`](super::storage::Index) probes per visible partition: every
//! indexed equality conjunct is probed and their ascending postings are
//! intersected; with no equality, one column's range window is probed. The
//! executor then re-evaluates the **full** original filter on every
//! candidate row, so the probes only have to produce a superset of the
//! matching rows — unless every conjunct *is* a pushed equality
//! ([`Pushdown::exact`]): then the intersection is exactly the matching
//! rows (see `Eq` below: every row under a key is same-variant equal to
//! that non-NULL literal, so each conjunct is `TRUE` on each row of the
//! intersection and raises no error, and a row outside it fails some
//! conjunct), and re-evaluating the filter would only repeat the lookups'
//! answer. Soundness of the superset claim:
//!
//! * `Eq` — `sql_eq` is only `TRUE` for same-variant equal values, and
//!   [`Value::order`](super::value::Value::order), which keys the index,
//!   agrees with that equality, so one map lookup covers every possible
//!   match of one conjunct, and the intersection of the lookups every
//!   possible match of all of them. NULL literals are never pushed
//!   (`x = NULL` is never true); a literal of another type than the column
//!   is pushed and finds no key, as `sql_eq` finds no match; a column named
//!   twice intersects with itself.
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
//!
//! Planning allocates nothing: bounds borrow their literals from the
//! filter, and the equality keys sit in a fixed array.

use super::ast::{BinOp, Expr};
use super::storage::Table;
use super::value::Value;
use std::cmp::Ordering;

/// Most equality conjuncts one probe intersects. A filter with more keeps
/// the first ones as its probe and is re-checked per row.
pub(crate) const MAX_KEYS: usize = 4;

/// One pushed equality: the column, its index slot, and the key.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Key<'e> {
    pub(crate) col: usize,
    pub(crate) slot: usize,
    pub(crate) value: &'e Value,
}

/// The probes extracted from a filter. Equality keys take precedence over
/// a range window.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Pushdown<'e> {
    /// The indexed equality conjuncts, in conjunct order, the first set:
    /// their postings intersect. `exact`: every conjunct of the filter is
    /// one of them, so every row of the intersection matches and the
    /// executor need not evaluate the filter on it again.
    Keys { keys: [Option<Key<'e>>; MAX_KEYS], exact: bool },
    /// The tightest window the bounds on one indexed column allow, each
    /// bound `(value, inclusive)`.
    Range { col: usize, slot: usize, lo: Option<(&'e Value, bool)>, hi: Option<(&'e Value, bool)> },
}

impl<'e> Pushdown<'e> {
    /// The equality keys (none for a window).
    pub(crate) fn keys(&self) -> impl Iterator<Item = Key<'e>> + '_ {
        let keys: &[Option<Key<'e>>] = match self {
            Pushdown::Keys { keys, .. } => keys,
            Pushdown::Range { .. } => &[],
        };
        keys.iter().map_while(|k| *k)
    }

    /// Does the probe decide every row it returns?
    pub(crate) fn exact(&self) -> bool {
        matches!(self, Pushdown::Keys { exact: true, .. })
    }
}

/// What a scan asks of each partition it reads: the index probe, if any,
/// and the part of the filter the probe has not already decided.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Probe<'e> {
    pub(crate) push: Option<Pushdown<'e>>,
    pub(crate) filter: Option<&'e Expr>,
}

impl<'e> Probe<'e> {
    /// Plan `filter` against `t`. Probes that are the whole filter have
    /// already decided every row they return ([`Pushdown::exact`]);
    /// anything else is re-checked per row.
    pub(crate) fn plan(t: &Table, filter: Option<&'e Expr>) -> Probe<'e> {
        let push = filter.and_then(|f| pushdown(t, f));
        Probe { push, filter: filter.filter(|_| !push.is_some_and(|p| p.exact())) }
    }
}

/// One normalized `column op literal` conjunct.
struct Bound<'e> {
    col: usize,
    slot: usize,
    op: BinOp,
    lit: &'e Value,
}

/// Extract the index probes for `filter` against `t`, if any.
pub(crate) fn pushdown<'e>(t: &Table, filter: &'e Expr) -> Option<Pushdown<'e>> {
    if t.indexed.is_empty() {
        return None;
    }
    let (mut keys, mut nkeys, mut conjuncts, mut range) = ([None; MAX_KEYS], 0, 0, None);
    each_conjunct(filter, &mut |e| {
        conjuncts += 1;
        match normalize(t, e) {
            Some(b) if b.op == BinOp::Eq && nkeys < MAX_KEYS => {
                keys[nkeys] = Some(Key { col: b.col, slot: b.slot, value: b.lit });
                nkeys += 1;
            }
            Some(b) if b.op != BinOp::Eq => {
                range.get_or_insert((b.col, b.slot));
            }
            _ => {}
        }
    });
    // Equality probes beat any range window.
    if nkeys > 0 {
        return Some(Pushdown::Keys { keys, exact: nkeys == conjuncts });
    }
    // Otherwise take the first column with a range bound and fold every
    // bound on that column into the tightest window.
    let (col, slot) = range?;
    let (mut lo, mut hi) = (None, None);
    each_conjunct(filter, &mut |e| {
        let Some(b) = normalize(t, e).filter(|b| b.col == col) else { return };
        let (bound, is_lo) = match b.op {
            BinOp::Gt => ((b.lit, false), true),
            BinOp::GtEq => ((b.lit, true), true),
            BinOp::Lt => ((b.lit, false), false),
            BinOp::LtEq => ((b.lit, true), false),
            _ => return,
        };
        let side = if is_lo { &mut lo } else { &mut hi };
        *side = Some(match side.take() {
            None => bound,
            Some(old) => tighter(old, bound, is_lo),
        });
    });
    Some(Pushdown::Range { col, slot, lo, hi })
}

/// Of two bounds on the same side, the one that admits fewer values.
fn tighter<'e>(a: (&'e Value, bool), b: (&'e Value, bool), is_lo: bool) -> (&'e Value, bool) {
    match a.0.order(b.0) {
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

/// Visit the flattened `AND` conjuncts in order; every one must be truthy
/// for the whole filter to be truthy.
fn each_conjunct<'e>(e: &'e Expr, f: &mut impl FnMut(&'e Expr)) {
    if let Expr::Binary { op: BinOp::And, left, right } = e {
        each_conjunct(left, f);
        each_conjunct(right, f);
    } else {
        f(e);
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
    let slot = t.index_slot(col)?;
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
    Some(Bound { col, slot, op, lit })
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

    /// The equality keys' columns and values.
    fn keys(p: &Pushdown) -> Vec<(usize, Value)> {
        p.keys().map(|k| (k.col, k.value.clone())).collect()
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
        let f = filter_of("id > 3 AND name = 'x'");
        let p = pushdown(&t, &f).unwrap();
        assert_eq!(keys(&p), [(1, Value::Text("x".into()))]);
    }

    #[test]
    fn range_bounds_fold_to_tightest_window() {
        let t = table();
        let f = filter_of("id > 3 AND id >= 5 AND id < 10 AND id <= 20");
        let Some(Pushdown::Range { col, lo, hi, .. }) = pushdown(&t, &f) else { panic!("a window") };
        assert_eq!(col, 0);
        assert_eq!(lo, Some((&Value::Int(5), true)));
        assert_eq!(hi, Some((&Value::Int(10), false)));
    }

    #[test]
    fn mirrored_literal_comparisons_flip() {
        let t = table();
        let f = filter_of("10 > id");
        let Some(Pushdown::Range { col, lo, hi, .. }) = pushdown(&t, &f) else { panic!("a window") };
        assert_eq!(col, 0);
        assert_eq!(hi, Some((&Value::Int(10), false)));
        assert_eq!(lo, None);
    }

    #[test]
    fn unindexed_or_unsuitable_conjuncts_are_ignored() {
        let t = table();
        assert!(pushdown(&t, &filter_of("plain = 5")).is_none());
        assert!(pushdown(&t, &filter_of("id = NULL")).is_none());
        assert!(pushdown(&t, &filter_of("NULL = name")).is_none());
        assert!(pushdown(&t, &filter_of("id = NULL AND name = NULL")).is_none());
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
        let f = filter_of("id = 1 AND plain > 2");
        let p = pushdown(&t, &f).unwrap();
        assert_eq!(keys(&p), [(0, Value::Int(1))]);
        assert!(!p.exact());
    }

    #[test]
    fn a_lone_equality_is_exact() {
        let t = table();
        for sql in ["name = 'a'", "'a' = name"] {
            let f = filter_of(sql);
            let p = pushdown(&t, &f).unwrap();
            assert_eq!((keys(&p), p.exact()), (vec![(1, Value::Text("a".into()))], true), "{sql}");
        }
    }

    #[test]
    fn anything_beside_the_equality_is_not_exact() {
        let t = table();
        for sql in [
            "name = 'a' AND plain = 2",
            "plain = 2 AND name = 'a'",
            "name = 'a' AND id = NULL",
            "id = 1 AND id > 0",
            "id > 3",
            "id > 3 AND id < 9",
            "2 >= id",
        ] {
            assert!(!pushdown(&t, &filter_of(sql)).unwrap().exact(), "{sql}");
        }
    }

    #[test]
    fn indexed_equalities_intersect_and_are_exact_together() {
        let t = table();
        for (sql, want) in [
            ("name = 'a' AND id = 1", vec![(1, Value::Text("a".into())), (0, Value::Int(1))]),
            // A column named twice is two keys on one index.
            ("name = 'a' AND name = 'a'", vec![(1, Value::Text("a".into())), (1, Value::Text("a".into()))]),
            ("name = 'a' AND name = 'b'", vec![(1, Value::Text("a".into())), (1, Value::Text("b".into()))]),
            // A literal of another type is pushed; it matches no key.
            ("id = 'x' AND 'a' = name", vec![(0, Value::Text("x".into())), (1, Value::Text("a".into()))]),
            ("id = 1 AND name = 'a' AND id = 2", vec![
                (0, Value::Int(1)),
                (1, Value::Text("a".into())),
                (0, Value::Int(2)),
            ]),
        ] {
            let f = filter_of(sql);
            let p = pushdown(&t, &f).unwrap();
            assert_eq!(keys(&p), want, "{sql}");
            assert!(p.exact(), "{sql}");
            for k in p.keys() {
                assert_eq!(t.index_slot(k.col), Some(k.slot), "{sql}");
            }
        }
        // Past the fixed key array, the extra keys are re-checked per row.
        let f = filter_of("id = 1 AND id = 1 AND id = 1 AND id = 1 AND id = 1");
        let p = pushdown(&t, &f).unwrap();
        assert_eq!((p.keys().count(), p.exact()), (MAX_KEYS, false));
    }
}
