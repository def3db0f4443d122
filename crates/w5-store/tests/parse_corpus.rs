//! The SQL front end, pinned: what `parse` returns — statement or error,
//! message and offset — over a corpus of the statements the workspace
//! formats, folded into one digest. (`properties.rs` holds the
//! never-panics properties over arbitrary text.)
//!
//! The corpus is every statement shape the apps, the platform, the
//! simulator's oracles, the benches and the store's tests format,
//! instantiated with hostile values (quotes, comment openers, Unicode,
//! reserved words), both escaped as the platform escapes them and raw;
//! each text is also parsed truncated at every char boundary and with its
//! ASCII case flipped. A change to the lexer or parser that moves any
//! answer, error message or error offset moves the digest.

use w5_store::sql::parse;

/// Statement shapes. `{s}` is a text slot (inside quotes in the template),
/// `{n}` an integer slot.
const TEMPLATES: &[&str] = &[
    // Apps.
    "INSERT INTO blog_posts (owner, title, body) VALUES ('{s}', '{s}', '{s}')",
    "SELECT title FROM blog_posts WHERE owner = '{s}' ORDER BY title",
    "SELECT body FROM blog_posts WHERE owner = '{s}' AND title = '{s}'",
    "CREATE TABLE blog_posts (owner TEXT, title TEXT, body TEXT)",
    "SELECT friend FROM w5_friends WHERE owner = '{s}' ORDER BY friend",
    "SELECT friend FROM w5_friends WHERE owner = '{s}'",
    "SELECT title, body FROM blog_posts WHERE owner = '{s}'",
    "INSERT INTO covert_signal (x) VALUES ({n})",
    "SELECT COUNT(*) FROM covert_signal",
    "CREATE TABLE mal_escrow (victim TEXT)",
    "INSERT INTO mal_escrow (victim) VALUES ('{s}')",
    "CREATE TABLE covert_signal (x INTEGER)",
    // Platform.
    "INSERT INTO w5_mail (app, body, seq) VALUES ('{s}', '{s}', {n})",
    "SELECT seq, body FROM w5_mail WHERE app = '{s}' AND seq > {n} ORDER BY seq",
    "CREATE TABLE w5_friends (owner TEXT, friend TEXT)",
    "CREATE TABLE w5_groups (owner TEXT, grp TEXT, member TEXT)",
    "CREATE TABLE w5_mail (app TEXT, body TEXT, seq INTEGER)",
    "INSERT INTO w5_friends (owner, friend) VALUES ('{s}', '{s}')",
    "INSERT INTO w5_groups (owner, grp, member) VALUES ('{s}', '{s}', '{s}')",
    "SELECT COUNT(*) FROM w5_friends WHERE friend = '{s}' AND owner = '{s}'",
    "SELECT COUNT(*) FROM w5_groups WHERE member = '{s}' AND grp = '{s}' AND owner = '{s}'",
    // Simulator oracles.
    "INSERT INTO t VALUES ({n}, {n})",
    "SELECT v FROM t WHERE id = {n} ORDER BY v",
    "SELECT COUNT(*), SUM(v) FROM t",
    "DELETE FROM t WHERE id = {n}",
    "CREATE TABLE ndt0 (id INTEGER, v INTEGER)",
    "INSERT INTO t VALUES ({n}, {n}, 'r{s}')",
    "SELECT id, v, s FROM t ORDER BY id LIMIT {n}",
    "SELECT id, v, s FROM t",
    "SELECT COUNT(*) FROM t WHERE id = {n}",
    "SELECT id, v, s FROM t WHERE id = {n} AND v = '{s}'",
    "SELECT id, v, s FROM t WHERE id = {n} AND id = NULL",
    "SELECT id, v FROM t WHERE id > {n} AND id < {n}",
    "SELECT id, v FROM t WHERE v >= {n} AND v < {n} ORDER BY id",
    "SELECT COUNT(*), COUNT(id), SUM(v), MIN(id), MAX(v) FROM t",
    "SELECT id, v FROM t ORDER BY v DESC LIMIT {n}",
    "UPDATE t SET v = {n} WHERE id = {n}",
    "UPDATE t SET id = id + {n} WHERE id = {n}",
    "UPDATE t SET s = '{s}' WHERE v >= {n}",
    "DELETE FROM t WHERE id >= {n} AND id <= {n}",
    "CREATE INDEX ON t (v)",
    "CREATE INDEX t_id ON t (id)",
    "CREATE TABLE t (id INTEGER, v INTEGER, s TEXT)",
    // Benches.
    "SELECT COUNT(*) FROM signal",
    "INSERT INTO signal VALUES ({n})",
    "DELETE FROM signal",
    "INSERT INTO items VALUES ({n}, {n}),({n}, {n})",
    "SELECT COUNT(*) FROM items WHERE n % 2 = {n}",
    "SELECT COUNT(*) FROM big WHERE n * 3 % 7 = 1 OR n * 5 % 11 = {n}",
    "CREATE TABLE items (id INTEGER, v INTEGER, owner INTEGER)",
    "SELECT COUNT(*), SUM(v) FROM items WHERE id >= {n} AND id < {n}",
    // Store tests: the rest of the grammar.
    "SELECT * FROM t WHERE a OR b AND c",
    "SELECT * FROM t WHERE x = 1 + 2 * 3 - -{n} / 4",
    "SELECT * FROM t WHERE a IS NULL OR b IS NOT NULL",
    "SELECT * FROM t WHERE NOT ok AND name LIKE '{s}%'",
    "SELECT * FROM t WHERE (a <> {n}) OR (b != '{s}') OR c <= {n}",
    "SELECT a.x, b.y FROM a JOIN b ON a.id = b.id WHERE a.x = '{s}'",
    "SELECT a.x FROM a INNER JOIN b ON a.id = b.id ORDER BY a.x ASC",
    "SELECT id, COUNT(*) FROM t",
    "SELECT 1 -- trailing comment\n, 2",
    "INSERT INTO t VALUES (TRUE), (FALSE), (NULL)",
    "CREATE TABLE t (a INT, b VARCHAR, c BOOL, d BOOLEAN)",
    "DROP TABLE t",
    "DROP TABLE t; DROP TABLE u",
    "SELECT * FROM t garbage",
    "SELECT from FROM t",
    "CREATE TABLE select (a INTEGER)",
    "SELECT * FROM t LIMIT -{n}",
    "SELECT * FROM t WHERE a = 'x' @ 1",
    "SELECT * FROM t WHERE !a",
    "SELECT \"x\" FROM t",
    "SELECT COUNT(x) FROM t WHERE x = {n}",
    "SELECT SUM(t.x) FROM t",
    "CREATE TABLE t ()",
    "UPDATE t SET a = a + {n}, b = '{s}' WHERE a < {n}",
    "",
];

/// Hostile text values: quotes, doubled quotes, comment openers, Unicode,
/// reserved words, injection attempts.
const TEXTS: &[&str] = &[
    "user17",
    "",
    "'",
    "''",
    "o'brien",
    "' OR '1'='1",
    "--",
    "x -- y",
    "héllo✓😀",
    "SELECT",
    "from",
    "a\nb\t",
];

/// Integer values, including one past the range.
const NUMBERS: &[&str] = &[
    "0",
    "7",
    "-1",
    "9223372036854775807",
    "99999999999999999999",
];

/// 64-bit FNV-1a over `bytes`, continuing from `h`.
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `s` with every ASCII letter's case flipped.
fn flip_case(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_ascii_lowercase() {
                c.to_ascii_uppercase()
            } else {
                c.to_ascii_lowercase()
            }
        })
        .collect()
}

/// Every text of the corpus before truncation and case flips: each
/// template with each text value (escaped, then raw) and each number.
fn corpus() -> Vec<String> {
    let mut out = Vec::new();
    for t in TEMPLATES {
        for (i, text) in TEXTS.iter().enumerate() {
            let number = NUMBERS[i % NUMBERS.len()];
            for value in [text.replace('\'', "''"), text.to_string()] {
                out.push(t.replace("{s}", &value).replace("{n}", number));
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Fold what `parse` answers for `s`, and for every prefix of `s` ending on
/// a char boundary, into `h`.
fn fold(mut h: u64, s: &str) -> u64 {
    for (end, _) in s.char_indices().chain([(s.len(), ' ')]) {
        let prefix = &s[..end];
        h = fnv(h, format!("{:?}", parse(prefix)).as_bytes());
        h = fnv(h, &[0xff]);
    }
    h
}

/// The digest of the corpus's parses, as the front end answered before it
/// stopped copying its input.
const PINNED: u64 = 0xefc4_02dd_76e3_a82f;

#[test]
fn the_corpus_parses_as_pinned() {
    let mut h = 0xcbf2_9ce4_8422_2325;
    let texts = corpus();
    for s in &texts {
        h = fold(h, s);
        h = fold(h, &flip_case(s));
    }
    assert_eq!(h, PINNED, "digest {h:#018x} over {} texts", texts.len());
}

#[test]
fn the_corpus_reaches_every_statement_and_error_kind() {
    // The digest is only worth what the corpus covers: every statement
    // kind, and lexer and parser errors alike.
    let answers: Vec<String> = corpus().iter().map(|s| format!("{:?}", parse(s))).collect();
    for needle in [
        "Ok(CreateTable",
        "Ok(DropTable",
        "Ok(CreateIndex",
        "Ok(Insert",
        "Ok(Select",
        "Ok(Update",
        "Ok(Delete",
        "unterminated string literal",
        "unexpected character",
        "integer literal out of range",
        "is a reserved word",
        "unexpected trailing tokens",
        "expected an expression",
        "LIMIT needs a non-negative integer",
        "cannot mix aggregates and plain columns",
        "expected '=' after '!'",
        "expected a statement",
    ] {
        assert!(
            answers.iter().any(|a| a.contains(needle)),
            "no answer contains {needle:?}"
        );
    }
}
