//! End-to-end tests of the labeled SQL engine: CRUD, label filtering,
//! naive-vs-filtered covert-channel semantics, budgets and atomicity.

use std::sync::Arc;
use w5_difc::{CapSet, Label, LabelPair, TagKind, TagRegistry};
use w5_obs::{CheckOp, ObsLabel};
use w5_store::sql::{SelectItem, Statement};
use w5_store::{Database, QueryCost, QueryError, QueryMode, Subject, Value};

struct World {
    db: Database,
    /// Bob: owns his export tag (can declassify) and write tag (can endorse).
    bob: Subject,
    bob_rows: LabelPair,
    /// An unprivileged application.
    app: Subject,
    /// Alice, another user.
    alice: Subject,
    alice_rows: LabelPair,
}

fn world() -> World {
    let reg = Arc::new(TagRegistry::new());
    let (e_bob, mut bob_caps) = reg.create_tag(TagKind::ExportProtect, "export:bob");
    let (w_bob, w1) = reg.create_tag(TagKind::WriteProtect, "write:bob");
    bob_caps.extend(&w1);
    let (e_alice, mut alice_caps) = reg.create_tag(TagKind::ExportProtect, "export:alice");
    let (w_alice, w2) = reg.create_tag(TagKind::WriteProtect, "write:alice");
    alice_caps.extend(&w2);

    let bob = Subject::new(
        LabelPair::new(Label::empty(), Label::singleton(w_bob)),
        bob_caps.clone(),
    );
    let alice = Subject::new(
        LabelPair::new(Label::empty(), Label::singleton(w_alice)),
        alice_caps.clone(),
    );
    let app = Subject::new(LabelPair::public(), CapSet::empty());

    World {
        db: Database::new(Arc::clone(&reg)),
        bob,
        bob_rows: LabelPair::new(Label::singleton(e_bob), Label::singleton(w_bob)),
        app,
        alice,
        alice_rows: LabelPair::new(Label::singleton(e_alice), Label::singleton(w_alice)),
    }
}

fn run(
    w: &World,
    subj: &Subject,
    labels: &LabelPair,
    sql: &str,
) -> Result<w5_store::QueryOutput, QueryError> {
    w.db
        .execute(subj, QueryMode::Filtered, QueryCost::unlimited(), labels, sql)
}

#[test]
fn create_insert_select() {
    let w = world();
    run(&w, &w.bob, &LabelPair::public(), "CREATE TABLE photos (id INTEGER, title TEXT, private BOOLEAN)").unwrap();
    let out = run(
        &w,
        &w.bob,
        &w.bob_rows,
        "INSERT INTO photos (id, title, private) VALUES (1, 'cat', FALSE), (2, 'dog', TRUE)",
    )
    .unwrap();
    assert_eq!(out.affected, 2);
    let out = run(&w, &w.bob, &LabelPair::public(), "SELECT id, title FROM photos ORDER BY id").unwrap();
    assert_eq!(out.columns, vec!["id", "title"]);
    assert_eq!(out.rows().len(), 2);
    assert_eq!(out.row(0).values, vec![Value::Int(1), Value::Text("cat".into())]);
    // The result carries Bob's labels: the platform will taint the reader.
    assert_eq!(out.labels, w.bob_rows);
}

#[test]
fn where_order_limit_like() {
    let w = world();
    run(&w, &w.bob, &LabelPair::public(), "CREATE TABLE t (n INTEGER, s TEXT)").unwrap();
    for i in 0..20 {
        run(
            &w,
            &w.bob,
            &w.bob_rows,
            &format!("INSERT INTO t (n, s) VALUES ({i}, 'item_{i}')"),
        )
        .unwrap();
    }
    let out = run(
        &w,
        &w.bob,
        &LabelPair::public(),
        "SELECT n FROM t WHERE n % 2 = 0 AND s LIKE 'item%' ORDER BY n DESC LIMIT 3",
    )
    .unwrap();
    let ns: Vec<i64> = out
        .rows()
        .iter()
        .map(|r| match r.values[0] {
            Value::Int(i) => i,
            _ => panic!(),
        })
        .collect();
    assert_eq!(ns, vec![18, 16, 14]);
}

#[test]
fn aggregates() {
    let w = world();
    run(&w, &w.bob, &LabelPair::public(), "CREATE TABLE t (n INTEGER)").unwrap();
    run(&w, &w.bob, &w.bob_rows, "INSERT INTO t VALUES (1), (2), (3), (NULL)").unwrap();
    let out = run(
        &w,
        &w.bob,
        &LabelPair::public(),
        "SELECT COUNT(*), COUNT(n), SUM(n), MIN(n), MAX(n) FROM t",
    )
    .unwrap();
    assert_eq!(
        out.row(0).values,
        vec![Value::Int(4), Value::Int(3), Value::Int(6), Value::Int(1), Value::Int(3)]
    );
    // The parser refuses a list that mixes aggregates with plain columns; a
    // hand-built statement that has one gets an error too, not a panic.
    let mixed = Statement::Select {
        items: vec![SelectItem::CountStar, SelectItem::Wildcard],
        table: "t".into(),
        join: None,
        filter: None,
        order_by: None,
        limit: None,
    };
    let (mode, cost) = (QueryMode::Filtered, QueryCost::unlimited());
    let out = w.db.execute_stmt(&w.bob, mode, cost, &LabelPair::public(), mixed);
    assert_eq!(out, Err(QueryError::Eval("cannot mix aggregates and plain columns".into())));
}

#[test]
fn filtered_mode_hides_other_users_rows() {
    let w = world();
    run(&w, &w.bob, &LabelPair::public(), "CREATE TABLE inbox (owner TEXT, body TEXT)").unwrap();
    run(&w, &w.bob, &w.bob_rows, "INSERT INTO inbox VALUES ('bob', 'bob secret')").unwrap();
    run(&w, &w.alice, &w.alice_rows, "INSERT INTO inbox VALUES ('alice', 'alice secret')").unwrap();

    // The unprivileged app *can* read both (export tags are raise-free), and
    // the result labels then carry BOTH users' tags.
    let out = run(&w, &w.app, &LabelPair::public(), "SELECT body FROM inbox").unwrap();
    assert_eq!(out.rows().len(), 2);
    assert_eq!(out.labels.secrecy.len(), 2);

    // Alice, whose capabilities only cover her own tag… also reads both:
    // export protection is about *export*, not read. But a subject already
    // carrying conflicting labels is a different story — covered in the
    // covert-channel test below via ReadProtect.
    let out = run(&w, &w.alice, &LabelPair::public(), "SELECT COUNT(*) FROM inbox").unwrap();
    assert_eq!(out.row(0).values, vec![Value::Int(2)]);
}

#[test]
fn read_protected_rows_are_invisible_and_uncountable() {
    let reg = Arc::new(TagRegistry::new());
    let (r, owner_caps) = reg.create_tag(TagKind::ReadProtect, "read:alice");
    let alice = Subject::new(LabelPair::public(), owner_caps.clone());
    let stranger = Subject::new(LabelPair::public(), CapSet::empty());
    let db = Database::new(Arc::clone(&reg));
    let secret = LabelPair::new(Label::singleton(r), Label::empty());

    db.execute(&alice, QueryMode::Filtered, QueryCost::unlimited(), &LabelPair::public(),
        "CREATE TABLE diary (day INTEGER, entry TEXT)").unwrap();
    db.execute(&alice, QueryMode::Filtered, QueryCost::unlimited(), &secret,
        "INSERT INTO diary VALUES (1, 'secret thoughts')").unwrap();

    // Filtered mode: the stranger sees an empty table — COUNT included.
    let out = db.execute(&stranger, QueryMode::Filtered, QueryCost::unlimited(), &LabelPair::public(),
        "SELECT COUNT(*) FROM diary").unwrap();
    assert_eq!(out.row(0).values, vec![Value::Int(0)]);
    let out = db.execute(&stranger, QueryMode::Filtered, QueryCost::unlimited(), &LabelPair::public(),
        "SELECT * FROM diary").unwrap();
    assert!(out.rows().is_empty());
    assert!(out.labels.is_public(), "empty result must not carry labels");

    // Naive mode: the count leaks — this is the §3.5 covert channel.
    let out = db.execute(&stranger, QueryMode::Naive, QueryCost::unlimited(), &LabelPair::public(),
        "SELECT COUNT(*) FROM diary").unwrap();
    assert_eq!(out.row(0).values, vec![Value::Int(1)]);

    // The owner sees her row either way.
    let out = db.execute(&alice, QueryMode::Filtered, QueryCost::unlimited(), &LabelPair::public(),
        "SELECT COUNT(*) FROM diary").unwrap();
    assert_eq!(out.row(0).values, vec![Value::Int(1)]);
}

#[test]
fn update_delete_respect_write_protection() {
    let w = world();
    run(&w, &w.bob, &LabelPair::public(), "CREATE TABLE t (n INTEGER)").unwrap();
    run(&w, &w.bob, &w.bob_rows, "INSERT INTO t VALUES (1), (2)").unwrap();

    // The app can read Bob's rows but neither vandalize nor delete them.
    assert_eq!(
        run(&w, &w.app, &LabelPair::public(), "UPDATE t SET n = 0"),
        Err(QueryError::WriteDenied)
    );
    assert_eq!(
        run(&w, &w.app, &LabelPair::public(), "DELETE FROM t"),
        Err(QueryError::WriteDenied)
    );
    // And the failed statements changed nothing (atomicity).
    let out = run(&w, &w.bob, &LabelPair::public(), "SELECT SUM(n) FROM t").unwrap();
    assert_eq!(out.row(0).values, vec![Value::Int(3)]);

    // Bob can do both.
    assert_eq!(run(&w, &w.bob, &LabelPair::public(), "UPDATE t SET n = n * 10 WHERE n = 1").unwrap().affected, 1);
    assert_eq!(run(&w, &w.bob, &LabelPair::public(), "DELETE FROM t WHERE n = 2").unwrap().affected, 1);
    let out = run(&w, &w.bob, &LabelPair::public(), "SELECT * FROM t").unwrap();
    assert_eq!(out.rows().len(), 1);
    assert_eq!(out.row(0).values, vec![Value::Int(10)]);
}

#[test]
fn update_skips_invisible_rows_silently() {
    let reg = Arc::new(TagRegistry::new());
    let (r, owner_caps) = reg.create_tag(TagKind::ReadProtect, "read:alice");
    let alice = Subject::new(LabelPair::public(), owner_caps.clone());
    let stranger = Subject::new(LabelPair::public(), CapSet::empty());
    let db = Database::new(Arc::clone(&reg));
    let secret = LabelPair::new(Label::singleton(r), Label::empty());
    db.execute(&alice, QueryMode::Filtered, QueryCost::unlimited(), &LabelPair::public(),
        "CREATE TABLE t (n INTEGER)").unwrap();
    db.execute(&alice, QueryMode::Filtered, QueryCost::unlimited(), &secret,
        "INSERT INTO t VALUES (1)").unwrap();
    db.execute(&stranger, QueryMode::Filtered, QueryCost::unlimited(), &LabelPair::public(),
        "INSERT INTO t VALUES (2)").unwrap();
    // The stranger's blanket UPDATE touches only its own visible row — no
    // error, no effect on the hidden row, affected = 1.
    let out = db.execute(&stranger, QueryMode::Filtered, QueryCost::unlimited(), &LabelPair::public(),
        "UPDATE t SET n = 99").unwrap();
    assert_eq!(out.affected, 1);
    let out = db.execute(&alice, QueryMode::Filtered, QueryCost::unlimited(), &LabelPair::public(),
        "SELECT n FROM t ORDER BY n").unwrap();
    assert_eq!(out.rows().len(), 2);
    assert_eq!(out.row(0).values, vec![Value::Int(1)], "hidden row untouched");
}

#[test]
fn insert_requires_writable_labels() {
    let w = world();
    run(&w, &w.bob, &LabelPair::public(), "CREATE TABLE t (n INTEGER)").unwrap();
    // The app cannot claim Bob's integrity tag on rows it writes.
    assert_eq!(
        run(&w, &w.app, &w.bob_rows, "INSERT INTO t VALUES (1)"),
        Err(QueryError::WriteDenied)
    );
    // It can write unprotected rows.
    assert!(run(&w, &w.app, &LabelPair::public(), "INSERT INTO t VALUES (1)").is_ok());
}

#[test]
fn scan_budget_aborts_pathological_queries() {
    let w = world();
    run(&w, &w.bob, &LabelPair::public(), "CREATE TABLE big (n INTEGER)").unwrap();
    let values: Vec<String> = (0..500).map(|i| format!("({i})")).collect();
    run(
        &w,
        &w.bob,
        &w.bob_rows,
        &format!("INSERT INTO big VALUES {}", values.join(", ")),
    )
    .unwrap();
    let tight = QueryCost { max_rows_scanned: 100 };
    let err = w
        .db
        .execute(&w.bob, QueryMode::Filtered, tight, &LabelPair::public(), "SELECT COUNT(*) FROM big")
        .unwrap_err();
    assert_eq!(err, QueryError::BudgetExhausted);
    // A LIMITed scan still pays full scan cost (no index), so it aborts too.
    let err = w
        .db
        .execute(&w.bob, QueryMode::Filtered, tight, &LabelPair::public(), "DELETE FROM big")
        .unwrap_err();
    assert_eq!(err, QueryError::BudgetExhausted);
    // With an adequate budget it succeeds and reports cost.
    let out = run(&w, &w.bob, &LabelPair::public(), "SELECT COUNT(*) FROM big").unwrap();
    assert_eq!(out.scanned, 500);
}

#[test]
fn type_checking() {
    let w = world();
    run(&w, &w.bob, &LabelPair::public(), "CREATE TABLE t (n INTEGER, s TEXT)").unwrap();
    assert!(matches!(
        run(&w, &w.bob, &w.bob_rows, "INSERT INTO t (n) VALUES ('oops')"),
        Err(QueryError::TypeMismatch { .. })
    ));
    run(&w, &w.bob, &w.bob_rows, "INSERT INTO t (n, s) VALUES (1, 'ok')").unwrap();
    assert!(matches!(
        run(&w, &w.bob, &LabelPair::public(), "UPDATE t SET n = 'bad'"),
        Err(QueryError::TypeMismatch { .. })
    ));
}

#[test]
fn failed_inserts_store_nothing() {
    // An INSERT applies all of its rows or none, under labels no earlier
    // statement used.
    let w = world();
    let both = w.bob_rows.combine(&w.alice_rows);
    run(&w, &w.bob, &LabelPair::public(), "CREATE TABLE t (n INTEGER, s TEXT)").unwrap();
    for sql in [
        "INSERT INTO missing VALUES (1, 'x')",
        "INSERT INTO t VALUES (1)",
        "INSERT INTO t (n) VALUES (1, 2)",
        "INSERT INTO t (nope) VALUES (1)",
        "INSERT INTO t (n, s) VALUES ('oops', 'x')",
        "INSERT INTO t VALUES (1, 'ok'), (2, 3)",
    ] {
        assert!(run(&w, &w.app, &both, sql).is_err(), "{sql} should fail");
        assert_eq!(w.db.total_rows(), 0, "{sql} stored a row");
    }
    run(&w, &w.app, &both, "INSERT INTO t VALUES (1, 'ok')").unwrap();
    assert_eq!(w.db.total_rows(), 1);
}

#[test]
fn subset_selects_carry_exactly_the_picked_tags() {
    // A SELECT's label is the union over the partitions that gave it rows,
    // and the WHERE clause picks those: every multi-partition subset of ten
    // partitions, read by a subject holding no capability.
    let reg = Arc::new(TagRegistry::new());
    let db = Database::new(Arc::clone(&reg));
    let exec = |subject: &Subject, labels: &LabelPair, sql: &str| {
        db.execute(subject, QueryMode::Filtered, QueryCost::unlimited(), labels, sql).unwrap()
    };
    exec(&Subject::anonymous(), &LabelPair::public(), "CREATE TABLE t (k INTEGER)");
    let tags: Vec<_> = (0..10)
        .map(|k| {
            let (tag, _) = reg.create_tag(TagKind::ExportProtect, &format!("subset:{k}"));
            let pair = LabelPair::new(Label::singleton(tag), Label::empty());
            exec(&Subject::anonymous(), &pair, &format!("INSERT INTO t VALUES ({k})"));
            tag
        })
        .collect();
    let reader = Subject::new(LabelPair::public(), CapSet::empty());
    let subsets = (1u32..1 << 10).filter(|s| s.count_ones() >= 2);
    for subset in subsets.clone() {
        let picked: Vec<usize> = (0..10).filter(|k| subset & (1 << k) != 0).collect();
        let clause: Vec<String> = picked.iter().map(|k| format!("k = {k}")).collect();
        let out = exec(&reader, &LabelPair::public(), &format!("SELECT k FROM t WHERE {}", clause.join(" OR ")));
        let keys: Vec<Value> = picked.iter().map(|&k| Value::Int(k as i64)).collect();
        assert_eq!(out.rows().iter().map(|r| r.values[0].clone()).collect::<Vec<_>>(), keys);
        let expected = Label::from_iter(picked.iter().map(|&k| tags[k]));
        assert_eq!(out.labels, LabelPair::new(expected, Label::empty()), "{subset:b}");
    }
    assert_eq!(subsets.count(), 1013);
}

#[test]
fn errors_for_missing_things() {
    let w = world();
    assert!(matches!(
        run(&w, &w.bob, &LabelPair::public(), "SELECT * FROM nope"),
        Err(QueryError::NoSuchTable(_))
    ));
    run(&w, &w.bob, &LabelPair::public(), "CREATE TABLE t (n INTEGER)").unwrap();
    assert!(matches!(
        run(&w, &w.bob, &LabelPair::public(), "SELECT zz FROM t"),
        Err(QueryError::NoSuchColumn(_))
    ));
    assert!(matches!(
        run(&w, &w.bob, &LabelPair::public(), "SELECT * FROM t WHERE zz = 1"),
        Err(QueryError::NoSuchColumn(_))
    ));
    assert!(matches!(
        run(&w, &w.bob, &LabelPair::public(), "CREATE TABLE t (n INTEGER)"),
        Err(QueryError::TableExists(_))
    ));
}

#[test]
fn drop_table_requires_write_on_all_rows() {
    let w = world();
    run(&w, &w.bob, &LabelPair::public(), "CREATE TABLE t (n INTEGER)").unwrap();
    run(&w, &w.bob, &w.bob_rows, "INSERT INTO t VALUES (1)").unwrap();
    assert_eq!(
        run(&w, &w.app, &LabelPair::public(), "DROP TABLE t"),
        Err(QueryError::WriteDenied)
    );
    assert!(run(&w, &w.bob, &LabelPair::public(), "DROP TABLE t").is_ok());
    assert!(w.db.table_names().is_empty());
}

#[test]
fn division_by_zero_and_overflow_are_errors_not_panics() {
    let w = world();
    run(&w, &w.bob, &LabelPair::public(), "CREATE TABLE t (n INTEGER)").unwrap();
    run(&w, &w.bob, &LabelPair::public(), "INSERT INTO t VALUES (1)").unwrap();
    assert!(matches!(
        run(&w, &w.bob, &LabelPair::public(), "SELECT * FROM t WHERE n / 0 = 1"),
        Err(QueryError::Eval(_))
    ));
    assert!(matches!(
        run(&w, &w.bob, &LabelPair::public(), "SELECT * FROM t WHERE n = 9223372036854775807 + 1"),
        Err(QueryError::Eval(_))
    ));
}

#[test]
fn null_semantics_in_where() {
    let w = world();
    run(&w, &w.bob, &LabelPair::public(), "CREATE TABLE t (n INTEGER)").unwrap();
    run(&w, &w.bob, &LabelPair::public(), "INSERT INTO t VALUES (1), (NULL)").unwrap();
    // NULL = NULL is not true.
    let out = run(&w, &w.bob, &LabelPair::public(), "SELECT * FROM t WHERE n = NULL").unwrap();
    assert!(out.rows().is_empty());
    let out = run(&w, &w.bob, &LabelPair::public(), "SELECT * FROM t WHERE n IS NULL").unwrap();
    assert_eq!(out.rows().len(), 1);
    let out = run(&w, &w.bob, &LabelPair::public(), "SELECT * FROM t WHERE n IS NOT NULL").unwrap();
    assert_eq!(out.rows().len(), 1);
}

#[test]
fn inner_join_basics() {
    let w = world();
    run(&w, &w.bob, &LabelPair::public(), "CREATE TABLE users (id INTEGER, name TEXT)").unwrap();
    run(&w, &w.bob, &LabelPair::public(), "CREATE TABLE posts (author INTEGER, title TEXT)").unwrap();
    run(&w, &w.bob, &LabelPair::public(),
        "INSERT INTO users VALUES (1, 'bob'), (2, 'alice')").unwrap();
    run(&w, &w.bob, &LabelPair::public(),
        "INSERT INTO posts VALUES (1, 'hello'), (1, 'again'), (2, 'hi'), (3, 'orphan')").unwrap();

    let out = run(
        &w,
        &w.bob,
        &LabelPair::public(),
        "SELECT users.name, posts.title FROM users JOIN posts ON users.id = posts.author \
         ORDER BY posts.title",
    )
    .unwrap();
    assert_eq!(out.columns, vec!["users.name", "posts.title"]);
    let rows: Vec<(String, String)> = out
        .rows()
        .iter()
        .map(|r| (r.values[0].render(), r.values[1].render()))
        .collect();
    assert_eq!(
        rows,
        vec![
            ("bob".to_string(), "again".to_string()),
            ("bob".to_string(), "hello".to_string()),
            ("alice".to_string(), "hi".to_string()),
        ]
    );
}

#[test]
fn join_with_where_and_aggregates() {
    let w = world();
    run(&w, &w.bob, &LabelPair::public(), "CREATE TABLE a (k INTEGER)").unwrap();
    run(&w, &w.bob, &LabelPair::public(), "CREATE TABLE b (k INTEGER, v INTEGER)").unwrap();
    run(&w, &w.bob, &LabelPair::public(), "INSERT INTO a VALUES (1), (2), (3)").unwrap();
    run(&w, &w.bob, &LabelPair::public(), "INSERT INTO b VALUES (1, 10), (2, 20), (2, 30)").unwrap();
    let out = run(
        &w,
        &w.bob,
        &LabelPair::public(),
        "SELECT COUNT(*), SUM(b.v) FROM a INNER JOIN b ON a.k = b.k WHERE b.v > 10",
    )
    .unwrap();
    assert_eq!(out.row(0).values, vec![Value::Int(2), Value::Int(50)]);
}

#[test]
fn join_labels_combine_and_filter() {
    // The labeled heart of the join: combined rows carry both owners'
    // tags, and rows invisible to the subject never join.
    let w = world();
    run(&w, &w.bob, &LabelPair::public(), "CREATE TABLE left_t (k INTEGER)").unwrap();
    run(&w, &w.bob, &LabelPair::public(), "CREATE TABLE right_t (k INTEGER, s TEXT)").unwrap();
    run(&w, &w.bob, &w.bob_rows, "INSERT INTO left_t VALUES (1)").unwrap();
    run(&w, &w.alice, &w.alice_rows, "INSERT INTO right_t VALUES (1, 'alice data')").unwrap();

    let out = run(
        &w,
        &w.app,
        &LabelPair::public(),
        "SELECT right_t.s FROM left_t JOIN right_t ON left_t.k = right_t.k",
    )
    .unwrap();
    assert_eq!(out.rows().len(), 1);
    // The result carries BOTH export tags.
    assert_eq!(out.labels.secrecy.len(), 2);

    // Under read-protection, invisible rows cannot join at all.
    let reg = std::sync::Arc::new(w5_difc::TagRegistry::new());
    let (r, owner_caps) = reg.create_tag(w5_difc::TagKind::ReadProtect, "read:x");
    let owner = Subject::new(LabelPair::public(), owner_caps.clone());
    let stranger = Subject::new(LabelPair::public(), w5_difc::CapSet::empty());
    let db = w5_store::Database::new(std::sync::Arc::clone(&reg));
    let secret = LabelPair::new(w5_difc::Label::singleton(r), w5_difc::Label::empty());
    db.execute(&owner, QueryMode::Filtered, QueryCost::unlimited(), &LabelPair::public(),
        "CREATE TABLE l (k INTEGER)").unwrap();
    db.execute(&owner, QueryMode::Filtered, QueryCost::unlimited(), &LabelPair::public(),
        "CREATE TABLE r2 (k INTEGER)").unwrap();
    db.execute(&owner, QueryMode::Filtered, QueryCost::unlimited(), &LabelPair::public(),
        "INSERT INTO l VALUES (1)").unwrap();
    db.execute(&owner, QueryMode::Filtered, QueryCost::unlimited(), &secret,
        "INSERT INTO r2 VALUES (1)").unwrap();
    let out = db.execute(&stranger, QueryMode::Filtered, QueryCost::unlimited(), &LabelPair::public(),
        "SELECT COUNT(*) FROM l JOIN r2 ON l.k = r2.k").unwrap();
    assert_eq!(out.row(0).values, vec![Value::Int(0)], "hidden rows never join");
    let out = db.execute(&owner, QueryMode::Filtered, QueryCost::unlimited(), &LabelPair::public(),
        "SELECT COUNT(*) FROM l JOIN r2 ON l.k = r2.k").unwrap();
    assert_eq!(out.row(0).values, vec![Value::Int(1)]);

    // Integrity degrades across a join: a joined row vouches only for the
    // claims both of its sources carry.
    let (w1, mut caps) = reg.create_tag(TagKind::WriteProtect, "write:1");
    let (w2, caps2) = reg.create_tag(TagKind::WriteProtect, "write:2");
    caps.extend(&caps2);
    let writer = Subject::new(LabelPair::public(), caps.clone());
    let vouched = |tags: &[w5_difc::Tag]| LabelPair::new(Label::empty(), Label::from_iter(tags.iter().copied()));
    for (subject, labels, sql) in [
        (&owner, LabelPair::public(), "CREATE TABLE il (k INTEGER)"),
        (&owner, LabelPair::public(), "CREATE TABLE ir (k INTEGER)"),
        (&writer, vouched(&[w1, w2]), "INSERT INTO il VALUES (1)"),
        (&writer, vouched(&[w2]), "INSERT INTO ir VALUES (1)"),
    ] {
        db.execute(subject, QueryMode::Filtered, QueryCost::unlimited(), &labels, sql).unwrap();
    }
    let out = db.execute(&stranger, QueryMode::Filtered, QueryCost::unlimited(), &LabelPair::public(),
        "SELECT il.k FROM il JOIN ir ON il.k = ir.k").unwrap();
    assert_eq!(out.rows().len(), 1);
    assert_eq!(out.row(0).labels, &vouched(&[w2]), "the intersection of the sources' integrity");
    assert_eq!(out.labels, vouched(&[w2]));
}

#[test]
fn join_budget_bounds_pair_count() {
    let w = world();
    run(&w, &w.bob, &LabelPair::public(), "CREATE TABLE j1 (k INTEGER)").unwrap();
    run(&w, &w.bob, &LabelPair::public(), "CREATE TABLE j2 (k INTEGER)").unwrap();
    let vals: Vec<String> = (0..100).map(|i| format!("({i})")).collect();
    run(&w, &w.bob, &LabelPair::public(), &format!("INSERT INTO j1 VALUES {}", vals.join(","))).unwrap();
    run(&w, &w.bob, &LabelPair::public(), &format!("INSERT INTO j2 VALUES {}", vals.join(","))).unwrap();
    // 100x100 pairs exceed a 5000-row budget: the nested loop never runs.
    let tight = QueryCost { max_rows_scanned: 5_000 };
    let err = w.db
        .execute(&w.bob, QueryMode::Filtered, tight, &LabelPair::public(),
            "SELECT COUNT(*) FROM j1 JOIN j2 ON j1.k = j2.k")
        .unwrap_err();
    assert_eq!(err, QueryError::BudgetExhausted);
}

#[test]
fn join_errors() {
    let w = world();
    run(&w, &w.bob, &LabelPair::public(), "CREATE TABLE t1 (k INTEGER)").unwrap();
    // Unknown join table.
    assert!(matches!(
        run(&w, &w.bob, &LabelPair::public(), "SELECT * FROM t1 JOIN ghost ON t1.k = ghost.k"),
        Err(QueryError::NoSuchTable(_))
    ));
    run(&w, &w.bob, &LabelPair::public(), "CREATE TABLE t2 (k INTEGER)").unwrap();
    // Unqualified / wrong-table ON columns.
    assert!(matches!(
        run(&w, &w.bob, &LabelPair::public(), "SELECT * FROM t1 JOIN t2 ON k = t2.k"),
        Err(QueryError::NoSuchColumn(_))
    ));
    assert!(matches!(
        run(&w, &w.bob, &LabelPair::public(), "SELECT * FROM t1 JOIN t2 ON t2.k = t2.k"),
        Err(QueryError::NoSuchColumn(_))
    ));
    // Self-joins are out of scope.
    assert!(matches!(
        run(&w, &w.bob, &LabelPair::public(), "SELECT * FROM t1 JOIN t1 ON t1.k = t1.k"),
        Err(QueryError::Eval(_))
    ));
}

/// Windows a hostile client can write — inverted, empty with either end
/// excluded, of another type than the column, `= NULL` — fold into index
/// probes that must come back empty, not panic with the table lock held;
/// rows, `affected`, errors and the charge are all pinned literally.
/// Indexed equalities decide a row on their own only when they are the
/// whole filter: beside another conjunct, the probed rows are still
/// filtered on it, wherever it stands. Either way the charge is the probed
/// rows — with two indexed equalities, the rows under both keys.
#[test]
fn indexed_equality_with_a_second_conjunct_still_filters() {
    let w = world();
    run(&w, &w.bob, &LabelPair::public(), "CREATE TABLE posts (owner TEXT, title TEXT)").unwrap();
    run(&w, &w.bob, &LabelPair::public(), "CREATE INDEX ON posts (owner)").unwrap();
    run(
        &w,
        &w.bob,
        &w.bob_rows,
        "INSERT INTO posts VALUES ('bob', 'a'), ('amy', 'b'), ('bob', 'c'), ('bob', NULL)",
    )
    .unwrap();
    let select = |sql: &str| {
        let out = run(&w, &w.bob, &LabelPair::public(), sql).unwrap();
        let titles: Vec<Value> = out.rows().iter().map(|r| r.values[0].clone()).collect();
        (titles, out.scanned)
    };
    let text = |s: &str| Value::Text(s.into());
    let cases = [
        ("owner = 'bob'", vec![text("a"), text("c"), Value::Null], 3),
        ("'bob' = owner", vec![text("a"), text("c"), Value::Null], 3),
        ("owner = 'bob' AND title = 'c'", vec![text("c")], 3),
        ("title = 'c' AND owner = 'bob'", vec![text("c")], 3),
        ("owner = 'bob' AND title != 'a'", vec![text("c")], 3),
        ("owner = 'bob' AND owner = 'amy'", vec![], 0),
        ("owner = 'bob' AND owner = 'bob'", vec![text("a"), text("c"), Value::Null], 3),
    ];
    for (filter, titles, charge) in cases {
        let sql = format!("SELECT title FROM posts WHERE {filter}");
        assert_eq!(select(&sql), (titles, charge), "{sql}");
    }
    let affected = |sql: &str| run(&w, &w.bob, &w.bob_rows, sql).unwrap().affected;
    assert_eq!(affected("UPDATE posts SET title = 'z' WHERE owner = 'bob' AND title = 'a'"), 1);
    assert_eq!(affected("DELETE FROM posts WHERE owner = 'bob' AND title = 'c'"), 1);
    assert_eq!(select("SELECT title FROM posts WHERE owner = 'bob'"), (vec![text("z"), Value::Null], 2));
    assert_eq!(select("SELECT title FROM posts WHERE owner = 'amy'"), (vec![text("b")], 1));
}

#[test]
fn hostile_range_windows_answer_literally_and_never_panic() {
    let reg = Arc::new(TagRegistry::new());
    let (e, _) = reg.create_tag(TagKind::ExportProtect, "export:windows");
    let (r, _) = reg.create_tag(TagKind::ReadProtect, "read:windows");
    let shared = LabelPair::new(Label::singleton(e), Label::empty());
    let hidden = LabelPair::new(Label::singleton(r), Label::empty());
    let app = Subject::new(LabelPair::public(), CapSet::empty());

    let db = Database::new(Arc::clone(&reg));
    let run = |labels: &LabelPair, sql: &str| {
        db.execute(&app, QueryMode::Filtered, QueryCost::unlimited(), labels, sql)
    };
    run(&LabelPair::public(), "CREATE TABLE t (id INTEGER, s TEXT)").unwrap();
    run(&LabelPair::public(), "CREATE INDEX ON t (id)").unwrap();
    run(
        &LabelPair::public(),
        "INSERT INTO t VALUES (1, 'a'), (3, 'b'), (5, 'c'), (5, 'd'), (7, 'e'), (NULL, 'f')",
    )
    .unwrap();
    run(&shared, "INSERT INTO t VALUES (4, 'g'), (5, 'h'), (6, 'i')").unwrap();
    // One partition the app cannot read, holding every probed key.
    run(&hidden, "INSERT INTO t VALUES (3, 'x'), (4, 'x'), (5, 'x'), (6, 'x'), (NULL, 'x')").unwrap();

    // What a statement must answer: its rows (in insertion order), rows
    // affected, and the charge — candidates visited in the two readable
    // partitions plus one unit for the hidden one.
    let matched = ["c", "d", "h"].map(|s| vec![Value::Text(s.into())]).to_vec();
    let nothing = |scanned: u64| Ok((Vec::new(), 0usize, scanned));
    let cases = [
        ("SELECT s FROM t WHERE id > 5 AND id < 3", nothing(1)),
        ("SELECT s FROM t WHERE id > 5 AND id < 5", nothing(1)),
        ("SELECT s FROM t WHERE id >= 5 AND id < 5", nothing(1)),
        ("SELECT s FROM t WHERE id > 5 AND id <= 5", nothing(1)),
        // The one-point window is the only one here that matches anything.
        ("SELECT s FROM t WHERE id >= 5 AND id <= 5", Ok((matched, 0, 3 + 1))),
        ("SELECT s FROM t WHERE 3 > id AND 5 < id", nothing(1)),
        ("SELECT COUNT(*) FROM t WHERE id > 5 AND id < 3", Ok((vec![vec![Value::Int(0)]], 0, 1))),
        ("SELECT s FROM t WHERE id = NULL", nothing(9 + 1)),
        // Not pushed down (the bound does not inhabit the column type), so
        // the comparison itself fails on the first non-NULL id.
        ("SELECT s FROM t WHERE id > 'a' AND id < 'b'", Err(QueryError::Eval("incomparable values".into()))),
        ("UPDATE t SET s = 'z' WHERE id > 5 AND id < 3", nothing(1)),
        ("DELETE FROM t WHERE id >= 5 AND id < 5", nothing(1)),
    ];
    for (sql, expected) in cases {
        let got = run(&LabelPair::public(), sql).map(|out| {
            (out.rows().iter().map(|r| r.values.to_vec()).collect::<Vec<_>>(), out.affected, out.scanned)
        });
        assert_eq!(got, expected, "{sql}");
    }
    assert_eq!(db.total_rows(), 14, "no hostile UPDATE or DELETE touched a row");
}

/// How a partition of the check-order tests is labelled.
#[derive(Clone, Copy, PartialEq)]
enum Secrecy {
    Public,
    Export,
    /// Read-protected, and the reading app holds the tag's `t+`.
    ReadHeld,
    Read,
}

/// One partition of the check-order tests: its pair, how its secrecy is
/// made, whether its integrity carries the claim, whether it holds k = 7.
type Part = (LabelPair, Secrecy, bool, bool);

/// A keyed SELECT asks the flow rule once, in creation order, about each
/// partition it meets, and tells the ledger each time. A subject that may
/// read every open partition (every secrecy tag export-protect) meets every
/// closed partition — readable or not — and only those open partitions that
/// hold the key. `Unprivileged`, and a subject with an integrity claim it
/// cannot drop, still meet every partition. What a check costs may change;
/// this may not.
#[test]
fn one_read_check_per_partition_in_creation_order() {
    const N: usize = 40;
    // `Ledger::count_check` rings every denial and every 16th check.
    const CHECK_SAMPLE: usize = 16;
    let reg = Arc::new(TagRegistry::new());
    let db = Database::new(Arc::clone(&reg));
    let run_as = |subject: &Subject, mode, labels: &LabelPair, sql: &str| {
        db.execute(subject, mode, QueryCost::unlimited(), labels, sql).unwrap()
    };
    let run = |labels: &LabelPair, sql: &str| run_as(&Subject::anonymous(), QueryMode::Filtered, labels, sql);
    run(&LabelPair::public(), "CREATE TABLE t (k INTEGER, s TEXT)");
    run(&LabelPair::public(), "CREATE INDEX ON t (k)");
    // The claim: an export tag, so its `t+` is global and its `t-` is not.
    let (claim, _) = reg.create_tag(TagKind::ExportProtect, "claim");
    // Every third partition is unreadable, every fifth other one is
    // read-protected under a tag the app holds, one is public; every
    // other one lacks k = 7, and every fourth carries the claim.
    let mut app_caps = CapSet::empty();
    let mut parts: Vec<Part> = (0..N)
        .map(|i| {
            let secrecy = match i {
                4 => Secrecy::Public,
                _ if i % 3 == 1 => Secrecy::Read,
                _ if i % 5 == 0 => Secrecy::ReadHeld,
                _ => Secrecy::Export,
            };
            let tags = match secrecy {
                Secrecy::Public => Label::empty(),
                Secrecy::Export => Label::singleton(reg.create_tag(TagKind::ExportProtect, &format!("part:{i}")).0),
                Secrecy::Read | Secrecy::ReadHeld => {
                    let (tag, caps) = reg.create_tag(TagKind::ReadProtect, &format!("part:{i}"));
                    if secrecy == Secrecy::ReadHeld {
                        app_caps.extend(&caps);
                    }
                    Label::singleton(tag)
                }
            };
            let claimed = i % 4 == 2;
            let pair = LabelPair::new(tags, if claimed { Label::singleton(claim) } else { Label::empty() });
            let has_key = i % 2 == 0;
            run(&pair, &format!("INSERT INTO t VALUES ({}, 'p{i}'), (100, 'q{i}')", if has_key { 7 } else { 8 }));
            (pair, secrecy, claimed, has_key)
        })
        .collect();
    // The global bag now holds every export tag's `t+` and no read tag's.
    let app = Subject::new(LabelPair::public(), app_caps);
    let claimant = Subject::new(LabelPair::new(Label::empty(), Label::singleton(claim)), CapSet::empty());
    let open = |s: Secrecy| matches!(s, Secrecy::Public | Secrecy::Export);

    // Which partitions `subject` meets under `mode`, and which it reads.
    type Pick<'a> = &'a dyn Fn(&Part) -> bool;
    let check = |parts: &[Part], subject: &Subject, mode, meets: Pick, reads: Pick| {
        let ledger = Arc::new(w5_obs::Ledger::new());
        let out = {
            let _scope = w5_obs::scoped(ledger.clone());
            run_as(subject, mode, &LabelPair::public(), "SELECT s FROM t WHERE k = 7")
        };
        let met: Vec<&Part> = parts.iter().filter(|p| meets(p)).collect();
        let found = met.iter().filter(|p| reads(p) && p.3).count();
        let denied = met.iter().filter(|p| !reads(p)).count();
        assert_eq!(out.rows().len(), found);
        assert_eq!(out.scanned, (found + denied) as u64);

        assert_eq!(ledger.events_recorded(), met.len() as u64);
        let agg = ledger.aggregate();
        assert_eq!(agg.events["difc"], met.len() as u64);
        assert_eq!(agg.denied["difc"], denied as u64);
        let ringed: Vec<(w5_obs::ObsLabel, bool)> = ledger
            .events()
            .into_iter()
            .map(|e| match e.kind {
                w5_obs::EventKind::LabelCheck { op: CheckOp::Read, allowed } => (e.secrecy, allowed),
                other => panic!("unexpected ledger event {other:?}"),
            })
            .collect();
        let expected: Vec<(w5_obs::ObsLabel, bool)> = met
            .iter()
            .enumerate()
            .filter(|(j, p)| !reads(p) || j % CHECK_SAMPLE == 0)
            .map(|(_, p)| (p.0.secrecy.to_obs().clone(), reads(p)))
            .collect();
        assert_eq!(ringed, expected);
        met.len()
    };
    let every = |_: &Part| true;
    let check_all = |parts: &[Part]| {
        // The app: every closed partition, and the open ones holding k = 7.
        let served = check(parts, &app, QueryMode::Filtered, &|p| !open(p.1) || p.3, &|p| p.1 != Secrecy::Read);
        assert!(served < parts.len(), "the directory must spare the open partitions without the key");
        // Unprivileged: every partition; only public data flows as it stands.
        check(parts, &app, QueryMode::Unprivileged, &every, &|p| p.1 == Secrecy::Public);
        // The claimant cannot drop its claim: every partition; it reads the
        // open ones that carry the claim.
        check(parts, &claimant, QueryMode::Filtered, &every, &|p| open(p.1) && p.2);
    };
    check_all(&parts);

    // Empty one open partition holding the key: it is dropped, and with it
    // its check; the partitions after it move down in the directory.
    let deleted = run_as(&app, QueryMode::Filtered, &LabelPair::public(), "DELETE FROM t WHERE s = 'p6' OR s = 'q6'");
    assert_eq!(deleted.affected, 2);
    parts.remove(6);
    check_all(&parts);
}

/// The directory bounds a keyed SELECT by what its subject may read: over
/// 200 open partitions and over 20,000 — one row each, the key in one of
/// them, plus five read-protected partitions that all hold it — the
/// statement records the same events and returns the same `scanned` and
/// rows.
#[test]
fn a_keyed_select_costs_the_same_over_200_and_20000_open_partitions() {
    const HIDDEN: usize = 5;
    let select = |users: usize| {
        let reg = Arc::new(TagRegistry::new());
        let db = Database::new(Arc::clone(&reg));
        let run = |labels: &LabelPair, sql: &str| {
            db.execute(&Subject::anonymous(), QueryMode::Filtered, QueryCost::unlimited(), labels, sql).unwrap()
        };
        run(&LabelPair::public(), "CREATE TABLE t (k INTEGER, s TEXT)");
        run(&LabelPair::public(), "CREATE INDEX ON t (k)");
        let hidden_at = users / (HIDDEN + 1);
        for i in 0..users {
            if i % hidden_at == hidden_at / 2 && i / hidden_at < HIDDEN {
                let (tag, _) = reg.create_tag(TagKind::ReadProtect, "hidden");
                run(&LabelPair::new(Label::singleton(tag), Label::empty()), "INSERT INTO t VALUES (7, 'hidden')");
            }
            let (tag, _) = reg.create_tag(TagKind::ExportProtect, "user");
            run(&LabelPair::new(Label::singleton(tag), Label::empty()), &format!("INSERT INTO t VALUES ({i}, 'u{i}')"));
        }
        let ledger = Arc::new(w5_obs::Ledger::new());
        let out = {
            let _scope = w5_obs::scoped(ledger.clone());
            let app = Subject::new(LabelPair::public(), CapSet::empty());
            let sql = "SELECT s FROM t WHERE k = 7";
            db.execute(&app, QueryMode::Filtered, QueryCost::unlimited(), &LabelPair::public(), sql).unwrap()
        };
        let rows: Vec<Value> = out.rows().iter().flat_map(|r| r.values.iter().cloned()).collect();
        (ledger.events_recorded(), out.scanned, rows)
    };
    let small = select(200);
    assert_eq!(small, (1 + HIDDEN as u64, 1 + HIDDEN as u64, vec![Value::Text("u7".into())]));
    assert_eq!(select(20_000), small);
}

/// A statement's flow verdicts as the ledger should count them: the rule,
/// the label of the flow it describes, and the outcome, in decision order.
type Verdict = (CheckOp, ObsLabel, bool);

/// Run `sql` on a fresh scoped ledger and require that the ledger holds the
/// footprint of exactly `expected`, counted one at a time: the totals, and
/// every denial plus every 16th check in the ring, in order.
fn assert_footprint(
    db: &Database,
    subject: &Subject,
    cost: QueryCost,
    sql: &str,
    expected: &[Verdict],
) -> Result<w5_store::QueryOutput, QueryError> {
    const CHECK_SAMPLE: usize = 16;
    let ledger = Arc::new(w5_obs::Ledger::new());
    let out = {
        let _scope = w5_obs::scoped(ledger.clone());
        db.execute(subject, QueryMode::Filtered, cost, &LabelPair::public(), sql)
    };
    let denied = expected.iter().filter(|(_, _, allowed)| !allowed).count() as u64;
    assert_eq!(ledger.events_recorded(), expected.len() as u64, "{sql}");
    let agg = ledger.aggregate();
    assert_eq!(agg.events["difc"], expected.len() as u64, "{sql}");
    assert_eq!(agg.denied["difc"], denied, "{sql}");
    let ringed: Vec<Verdict> = ledger
        .events()
        .into_iter()
        .map(|e| match e.kind {
            w5_obs::EventKind::LabelCheck { op, allowed } => (op, e.secrecy, allowed),
            other => panic!("unexpected ledger event {other:?}"),
        })
        .collect();
    let sampled: Vec<Verdict> = expected
        .iter()
        .enumerate()
        .filter(|(i, (_, _, allowed))| !allowed || i % CHECK_SAMPLE == 0)
        .map(|(_, v)| v.clone())
        .collect();
    assert_eq!(ringed, sampled, "{sql}");
    out
}

/// A scan's verdicts reach the ledger on every exit: a SELECT stopped by
/// its budget mid-scan and a DELETE refused at one partition each leave
/// exactly the verdicts made before the exit — no more, none lost.
#[test]
fn error_exits_count_exactly_the_verdicts_made() {
    const N: usize = 40;
    /// The one write-protected partition: readable, holding k = 7.
    const GUARDED: usize = 26;
    let reg = Arc::new(TagRegistry::new());
    let db = Database::new(Arc::clone(&reg));
    let run_as = |subject: &Subject, labels: &LabelPair, sql: &str| {
        db.execute(subject, QueryMode::Filtered, QueryCost::unlimited(), labels, sql).unwrap()
    };
    run_as(&Subject::anonymous(), &LabelPair::public(), "CREATE TABLE t (k INTEGER, s TEXT)");
    // Every third partition is unreadable, every other one lacks k = 7, and
    // each holds two rows.
    let parts: Vec<(LabelPair, bool, bool)> = (0..N)
        .map(|i| {
            let readable = i % 3 != 1;
            let kind = if readable { TagKind::ExportProtect } else { TagKind::ReadProtect };
            let (tag, _) = reg.create_tag(kind, &format!("part:{i}"));
            let (integrity, writer) = if i == GUARDED {
                let (w, caps) = reg.create_tag(TagKind::WriteProtect, "write:guarded");
                (Label::singleton(w), Subject::new(LabelPair::public(), caps))
            } else {
                (Label::empty(), Subject::anonymous())
            };
            let pair = LabelPair::new(Label::singleton(tag), integrity);
            let has_key = i % 2 == 0;
            let key = if has_key { 7 } else { 8 };
            run_as(&writer, &pair, &format!("INSERT INTO t VALUES ({key}, 'p{i}'), (100, 'q{i}')"));
            (pair, readable, has_key)
        })
        .collect();
    assert!(parts[GUARDED].1 && parts[GUARDED].2);
    let app = Subject::new(LabelPair::public(), CapSet::empty());
    let read = |i: usize| (CheckOp::Read, parts[i].0.secrecy.to_obs().clone(), parts[i].1);

    // SELECT under a budget that runs out inside partition `stop`: a
    // readable partition charges its two rows, a skipped one one unit.
    for budget in [0, 1, 2, 17, 50] {
        let mut scanned = 0;
        let stop = (0..N)
            .find(|&i| {
                scanned += if parts[i].1 { 2 } else { 1 };
                scanned > budget
            })
            .expect("the budget runs out mid-scan");
        let expected: Vec<Verdict> = (0..=stop).map(read).collect();
        let cost = QueryCost { max_rows_scanned: budget };
        let out = assert_footprint(&db, &app, cost, "SELECT s FROM t", &expected);
        assert_eq!(out, Err(QueryError::BudgetExhausted), "budget {budget}");
    }

    // DELETE: a read verdict per partition, and a write verdict for each
    // readable one holding k = 7 — refused at GUARDED, which ends it.
    let mut expected = Vec::new();
    for (i, &(_, readable, has_key)) in parts.iter().enumerate().take(GUARDED + 1) {
        expected.push(read(i));
        if readable && has_key {
            expected.push((CheckOp::Write, ObsLabel::empty(), i != GUARDED));
        }
    }
    let unlimited = QueryCost::unlimited();
    let out = assert_footprint(&db, &app, unlimited, "DELETE FROM t WHERE k = 7", &expected);
    assert_eq!(out, Err(QueryError::WriteDenied));
    assert_eq!(db.total_rows(), 2 * N, "a refused DELETE removes nothing");

    // An evaluation error exits the same way: the first readable
    // partition's first row fails the comparison.
    let out = assert_footprint(
        &db,
        &app,
        unlimited,
        "SELECT s FROM t WHERE s > 1",
        &[read(0)],
    );
    assert!(matches!(out, Err(QueryError::Eval(_))), "{out:?}");
}

/// `Database::holds` is `SELECT COUNT(*) … WHERE a = 'x' AND b = 'y'` run
/// unprivileged, answered without a statement: the same yes or no, the
/// same verdicts in the ledger, in the same order — over public, export-
/// and read-protected partitions and hostile values. An unindexed column
/// answers no; an unknown table or column is an error.
#[test]
fn holds_answers_as_an_unprivileged_count_and_counts_the_same_verdicts() {
    let reg = Arc::new(TagRegistry::new());
    let db = Database::new(Arc::clone(&reg));
    let run = |mode, labels: &LabelPair, sql: &str| {
        db.execute(&Subject::anonymous(), mode, QueryCost::unlimited(), labels, sql)
    };
    run(QueryMode::Filtered, &LabelPair::public(), "CREATE TABLE t (a TEXT, b TEXT, c TEXT)").unwrap();
    db.create_index("t", "a").unwrap();
    db.create_index("t", "b").unwrap();
    let values = ["al", "bo", "o'brien", "' OR '1'='1", "é✓", ""];
    let quote = |v: &str| v.replace('\'', "''");
    for (i, kind) in [None, Some(TagKind::ExportProtect), Some(TagKind::ReadProtect), None].into_iter().enumerate() {
        let pair = match kind {
            None => LabelPair::public(),
            Some(kind) => LabelPair::new(Label::singleton(reg.create_tag(kind, &format!("part:{i}")).0), Label::empty()),
        };
        for (j, x) in values.iter().enumerate() {
            let y = values[(i + 2 * j) % values.len()];
            let sql = format!("INSERT INTO t VALUES ('{}', '{}', 'c')", quote(x), quote(y));
            run(QueryMode::Filtered, &pair, &sql).unwrap();
        }
    }
    let footprint = |ask: &dyn Fn() -> bool| {
        let ledger = Arc::new(w5_obs::Ledger::new());
        let answer = {
            let _scope = w5_obs::scoped(ledger.clone());
            ask()
        };
        let ringed: Vec<String> = ledger.events().iter().map(|e| format!("{:?} {:?}", e.kind, e.secrecy)).collect();
        (answer, ledger.events_recorded(), ringed)
    };
    let mut yes = 0;
    for x in values {
        for y in values {
            let direct = footprint(&|| db.holds("t", &[("a", x), ("b", y)]).unwrap());
            let sql = format!("SELECT COUNT(*) FROM t WHERE a = '{}' AND b = '{}'", quote(x), quote(y));
            let counted = footprint(&|| {
                let out = run(QueryMode::Unprivileged, &LabelPair::public(), &sql).unwrap();
                out.row(0).values[0] != Value::Int(0)
            });
            assert_eq!(direct, counted, "{x:?} {y:?}");
            yes += usize::from(direct.0);
        }
    }
    // Only the public partitions' rows answer yes.
    assert_eq!(yes, 2 * values.len());
    assert_eq!(db.holds("t", &[("a", "al"), ("c", "c")]), Ok(false));
    assert_eq!(db.holds("t", &[]), Ok(false));
    assert_eq!(db.holds("t", &[("a", "al"), ("zz", "c")]), Err(QueryError::NoSuchColumn("zz".into())));
    assert_eq!(db.holds("nope", &[("a", "al")]), Err(QueryError::NoSuchTable("nope".into())));
}

/// Rows of two partitions, inserted partition by partition, come back
/// interleaved by ORDER BY: each row still carries its own partition's
/// pair, the combined labels fold the pairs of the rows kept, and a LIMIT
/// that cuts one partition out leaves its pair out of the combined labels.
#[test]
fn interleaved_rows_keep_their_own_partitions_labels() {
    let w = world();
    run(&w, &w.bob, &LabelPair::public(), "CREATE TABLE t (n INTEGER)").unwrap();
    run(&w, &w.bob, &w.bob_rows, "INSERT INTO t VALUES (0), (2), (4), (6)").unwrap();
    run(&w, &w.alice, &w.alice_rows, "INSERT INTO t VALUES (1), (3), (5), (7)").unwrap();
    for sql in ["SELECT n FROM t ORDER BY n", "SELECT * FROM t ORDER BY n DESC"] {
        let out = run(&w, &w.app, &LabelPair::public(), sql).unwrap();
        assert_eq!(out.rows().len(), 8, "{sql}");
        for row in out.rows() {
            let Value::Int(n) = row.values[0] else { panic!("{sql}: {row:?}") };
            let own = if n % 2 == 0 { &w.bob_rows } else { &w.alice_rows };
            assert_eq!(row.labels, own, "{sql}: row {n}");
        }
        assert_eq!(out.labels, w.bob_rows.combine(&w.alice_rows), "{sql}");
    }
    let out = run(&w, &w.app, &LabelPair::public(), "SELECT n FROM t ORDER BY n LIMIT 1").unwrap();
    assert_eq!((out.row(0).values, out.row(0).labels), (&[Value::Int(0)][..], &w.bob_rows));
    assert_eq!(out.labels, w.bob_rows, "alice's rows were cut: her pair stays out");
}
