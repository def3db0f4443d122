use super::*;
use w5_store::sql::parse;

#[test]
fn platform_statements_are_what_the_parser_builds() {
    assert_eq!(
        count_where("w5_friends", &[("friend", "alice"), ("owner", "bob")]),
        parse("SELECT COUNT(*) FROM w5_friends WHERE friend = 'alice' AND owner = 'bob'").unwrap()
    );
    assert_eq!(
        count_where("w5_groups", &[("member", "al"), ("grp", "roommates"), ("owner", "bob")]),
        parse("SELECT COUNT(*) FROM w5_groups WHERE member = 'al' AND grp = 'roommates' AND owner = 'bob'")
            .unwrap()
    );
    assert_eq!(
        insert_row("w5_friends", &[("owner", "o'brien"), ("friend", "x")]),
        parse("INSERT INTO w5_friends (owner, friend) VALUES ('o''brien', 'x')").unwrap()
    );
}

#[test]
fn hostile_names_are_values_not_sql() {
    let p = Platform::new_default("oracle-hostile");
    p.add_friend("o'brien", "x");
    p.add_group_member("o'brien", "room'mates", "x");
    let oracle = p.oracle();
    assert!(oracle.are_friends("o'brien", "x"));
    assert!(oracle.in_group("o'brien", "room'mates", "x"));
    assert!(!oracle.are_friends("a' OR '1'='1", "x"));
    assert!(!oracle.are_friends("o'brien", "x' OR 'a'='a"));
    assert!(!oracle.in_group("a", "g' --", "x"));
    assert!(!oracle.in_group("o'brien", "room'mates' OR '1'='1", "x"));
    assert!(p.fault_reports().is_empty(), "none of them was an error");
}

#[test]
fn a_refused_trusted_statement_is_a_fault_report_not_a_panic() {
    let p = Platform::new_default("trusted-refused");
    p.add_friend("bob", "alice");
    assert!(p.oracle().are_friends("bob", "alice"));
    p.db.execute(
        &Subject::anonymous(),
        QueryMode::Filtered,
        QueryCost::unlimited(),
        &LabelPair::public(),
        "DROP TABLE w5_friends",
    )
    .unwrap();

    p.add_friend("bob", "carol");

    let faults = p.fault_reports();
    assert_eq!(faults.len(), 1);
    assert_eq!(faults[0].kind, FaultKind::Infrastructure);
    assert_eq!(faults[0].app, "w5/platform");
    assert!(!faults[0].redacted);
    assert_eq!(p.stats_view().faults, 1);
    // And the perimeter's question about a table that is gone is a "no".
    assert!(!p.oracle().are_friends("bob", "alice"));
    assert!(!p.oracle().are_friends("bob", "carol"));
}
