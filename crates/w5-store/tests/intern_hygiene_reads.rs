//! A statement that only reads must not grow the label id table.
//!
//! A SELECT's combined label is the union over the partitions that gave it
//! rows, and the WHERE clause picks those: a subject holding no capability
//! can name `2^n` unions over `n` readable partitions, and the id table
//! (`w5_difc::intern`) is append-only and charged to no container. One test
//! per file, as in `intern_hygiene.rs`: it reads a process-wide count.

use w5_difc::intern::stats;
use w5_difc::{CapSet, Label, LabelPair, Tag, TagKind, TagRegistry};
use w5_store::{Database, QueryCost, QueryMode, Subject, Value};

#[test]
fn subset_selects_intern_nothing() {
    const PARTS: usize = 10;
    let reg = TagRegistry::new();
    let db = Database::new();
    let setup = Subject::anonymous();
    let run = |subject: &Subject, labels: &LabelPair, sql: &str| {
        db.execute(subject, QueryMode::Filtered, QueryCost::unlimited(), labels, sql).unwrap()
    };
    run(&setup, &LabelPair::public(), "CREATE TABLE t (k INTEGER)");
    let tags: Vec<Tag> = (0..PARTS)
        .map(|k| {
            let (tag, _) = reg.create_tag(TagKind::ExportProtect, &format!("subset:{k}"));
            let pair = LabelPair::new(Label::singleton(tag), Label::empty());
            run(&setup, &pair, &format!("INSERT INTO t VALUES ({k})"));
            tag
        })
        .collect();
    // No capability of its own: export protection is readable with taint.
    let reader = Subject::new(LabelPair::public(), reg.effective(&CapSet::empty()));

    let before = stats().labels;
    let mut statements = 0;
    for subset in 1u32..(1 << PARTS) {
        let picked: Vec<usize> = (0..PARTS).filter(|k| subset & (1 << k) != 0).collect();
        if picked.len() < 2 {
            continue;
        }
        let clause: Vec<String> = picked.iter().map(|k| format!("k = {k}")).collect();
        let out = run(
            &reader,
            &LabelPair::public(),
            &format!("SELECT k FROM t WHERE {}", clause.join(" OR ")),
        );
        let keys: Vec<Value> = picked.iter().map(|&k| Value::Int(k as i64)).collect();
        assert_eq!(out.rows.iter().map(|r| r.values[0].clone()).collect::<Vec<_>>(), keys);
        // Exactly the tags of the partitions that contributed.
        let expected = LabelPair::new(Label::from_iter(picked.iter().map(|&k| tags[k])), Label::empty());
        assert_eq!(out.labels, expected);
        statements += 1;
    }
    assert_eq!(statements, 1013);
    assert_eq!(stats().labels, before, "{statements} read-only statements grew the id table");
}
