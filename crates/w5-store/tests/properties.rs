//! Property-based tests: a model-checked filesystem and a
//! never-panicking SQL front end.

// The fs model branches on `contains_key` to assert *different outcomes*,
// not to guard an insert; the entry API would obscure the oracle.
#![allow(clippy::map_entry)]

use bytes::Bytes;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use w5_difc::LabelPair;
use w5_store::{FsError, LabeledFs, QueryCost, QueryMode, Subject};

/// Operations the fs model understands.
#[derive(Clone, Debug)]
enum FsOp {
    Create(u8, Vec<u8>),
    Write(u8, Vec<u8>),
    Read(u8),
    Delete(u8),
    List,
}

fn arb_op() -> impl Strategy<Value = FsOp> {
    prop_oneof![
        (0u8..8, proptest::collection::vec(any::<u8>(), 0..32)).prop_map(|(p, d)| FsOp::Create(p, d)),
        (0u8..8, proptest::collection::vec(any::<u8>(), 0..32)).prop_map(|(p, d)| FsOp::Write(p, d)),
        (0u8..8).prop_map(FsOp::Read),
        (0u8..8).prop_map(FsOp::Delete),
        Just(FsOp::List),
    ]
}

fn path(p: u8) -> String {
    format!("/model/f{p}")
}

proptest! {
    /// The labeled fs, driven with public labels by one subject, behaves
    /// exactly like a HashMap<path, bytes> model.
    #[test]
    fn fs_matches_model(ops in proptest::collection::vec(arb_op(), 1..60)) {
        let fs = LabeledFs::new(Arc::new(w5_difc::TagRegistry::new()));
        let subject = Subject::anonymous();
        let mut model: HashMap<String, Vec<u8>> = HashMap::new();

        for op in ops {
            match op {
                FsOp::Create(p, data) => {
                    let r = fs.create(&subject, &path(p), LabelPair::public(), Bytes::from(data.clone()));
                    if model.contains_key(&path(p)) {
                        prop_assert_eq!(r, Err(FsError::AlreadyExists));
                    } else {
                        prop_assert_eq!(r, Ok(()));
                        model.insert(path(p), data);
                    }
                }
                FsOp::Write(p, data) => {
                    let r = fs.write(&subject, &path(p), Bytes::from(data.clone()));
                    if model.contains_key(&path(p)) {
                        prop_assert_eq!(r, Ok(()));
                        model.insert(path(p), data);
                    } else {
                        prop_assert_eq!(r, Err(FsError::NotFound));
                    }
                }
                FsOp::Read(p) => {
                    let r = fs.read(&subject, &path(p));
                    match model.get(&path(p)) {
                        Some(data) => {
                            let (bytes, labels) = r.unwrap();
                            prop_assert_eq!(&bytes[..], &data[..]);
                            prop_assert!(labels.is_public());
                        }
                        None => prop_assert_eq!(r.map(|_| ()), Err(FsError::NotFound)),
                    }
                }
                FsOp::Delete(p) => {
                    let r = fs.delete(&subject, &path(p));
                    if model.remove(&path(p)).is_some() {
                        prop_assert_eq!(r, Ok(()));
                    } else {
                        prop_assert_eq!(r, Err(FsError::NotFound));
                    }
                }
                FsOp::List => {
                    let listed = fs.list(&subject, "/model").unwrap();
                    prop_assert_eq!(listed.len(), model.len());
                    let total: usize = model.values().map(Vec::len).sum();
                    prop_assert_eq!(fs.bytes_used(), total);
                }
            }
        }
    }

    /// The SQL front end must never panic, whatever string arrives —
    /// parse errors are fine, crashes are not. (Applications feed it
    /// arbitrary text.)
    #[test]
    fn sql_never_panics_on_arbitrary_input(input in ".{0,200}") {
        let db = w5_store::Database::new(Arc::new(w5_difc::TagRegistry::new()));
        let subject = Subject::anonymous();
        let _ = db.execute(
            &subject,
            QueryMode::Filtered,
            QueryCost::sandbox_default(),
            &LabelPair::public(),
            &input,
        );
    }

    /// Nor on structured-ish garbage built from SQL fragments.
    #[test]
    fn sql_never_panics_on_fragment_soup(
        parts in proptest::collection::vec(
            prop_oneof![
                Just("SELECT"), Just("FROM"), Just("WHERE"), Just("*"), Just("("), Just(")"),
                Just("'a'"), Just("1"), Just(","), Just("="), Just("t"), Just("JOIN"),
                Just("ON"), Just("ORDER"), Just("BY"), Just("LIMIT"), Just("COUNT"),
                Just("NULL"), Just("--x"), Just("t.c"), Just("%"), Just("+")
            ],
            0..24,
        )
    ) {
        let sql = parts.join(" ");
        let db = w5_store::Database::new(Arc::new(w5_difc::TagRegistry::new()));
        let subject = Subject::anonymous();
        let _ = db.execute(
            &subject,
            QueryMode::Filtered,
            QueryCost::sandbox_default(),
            &LabelPair::public(),
            &sql,
        );
    }

    /// Statement atomicity: a failed multi-row INSERT leaves no rows.
    #[test]
    fn failed_insert_is_atomic(good in 1usize..6, typed_bad in any::<bool>()) {
        let db = w5_store::Database::new(Arc::new(w5_difc::TagRegistry::new()));
        let subject = Subject::anonymous();
        db.execute(&subject, QueryMode::Filtered, QueryCost::unlimited(), &LabelPair::public(),
            "CREATE TABLE t (n INTEGER)").unwrap();
        let mut values: Vec<String> = (0..good).map(|i| format!("({i})")).collect();
        values.push(if typed_bad { "('oops')".to_string() } else { "(1, 2)".to_string() });
        let sql = format!("INSERT INTO t VALUES {}", values.join(","));
        prop_assert!(db.execute(&subject, QueryMode::Filtered, QueryCost::unlimited(),
            &LabelPair::public(), &sql).is_err());
        let out = db.execute(&subject, QueryMode::Filtered, QueryCost::unlimited(),
            &LabelPair::public(), "SELECT COUNT(*) FROM t").unwrap();
        prop_assert_eq!(&out.rows[0].values[0], &w5_store::Value::Int(0));
    }
}
