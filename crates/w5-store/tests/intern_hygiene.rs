//! A statement that stores nothing must not grow the label id table.
//!
//! The table (`w5_difc::intern`) is process-global, append-only and charged
//! to no resource container, and `CreateLabels::Derived` lets an app pick
//! the pair an INSERT is stamped with — so an INSERT that fails must leave
//! the table where it was. This file holds one test on purpose: it reads a
//! process-wide count, and a second test interning beside it would race it.

use w5_difc::intern::stats;
use w5_difc::{Label, LabelPair, TagKind, TagRegistry};
use w5_store::{Database, QueryCost, QueryMode, Subject};

#[test]
fn failed_inserts_intern_nothing() {
    let reg = TagRegistry::new();
    let (a, mut caps) = reg.create_tag(TagKind::ExportProtect, "hygiene:a");
    let (b, caps_b) = reg.create_tag(TagKind::ExportProtect, "hygiene:b");
    caps.extend(&caps_b);
    let subject = Subject::new(LabelPair::public(), reg.effective(&caps));
    // A two-tag secrecy label nothing in this process has interned.
    let never_seen = LabelPair::new(Label::from_iter([a, b]), Label::empty());

    let db = Database::new();
    let run = |labels: &LabelPair, sql: &str| {
        db.execute(&subject, QueryMode::Filtered, QueryCost::unlimited(), labels, sql)
    };
    run(&LabelPair::public(), "CREATE TABLE t (n INTEGER, s TEXT)").unwrap();

    let before = stats().labels;
    for sql in [
        "INSERT INTO missing VALUES (1, 'x')",
        "INSERT INTO t VALUES (1)",
        "INSERT INTO t (n) VALUES (1, 2)",
        "INSERT INTO t (nope) VALUES (1)",
        "INSERT INTO t (n, s) VALUES ('oops', 'x')",
        "INSERT INTO t VALUES (1, 'ok'), (2, 3)",
    ] {
        assert!(run(&never_seen, sql).is_err(), "{sql} should fail");
        assert_eq!(stats().labels, before, "{sql} stored nothing but interned its label");
    }
    assert_eq!(db.total_rows(), 0);

    // The control: the same pair on an INSERT that stores a row is interned
    // (one new label: the two-tag secrecy; the empty integrity is id 0).
    run(&never_seen, "INSERT INTO t VALUES (1, 'ok')").unwrap();
    assert_eq!(stats().labels, before + 1);
}
