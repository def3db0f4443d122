use super::*;
use crate::perimeter::{Clearance, PerimeterStats};
use crate::{ApiError, CreateLabels, GrantScope};
use w5_store::sql::parse;

#[test]
fn platform_statements_are_what_the_parser_builds() {
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

/// Stores one note per user (`write`), renders anyone's (`read`), panics
/// on `crash`; any other action is an error result.
struct Notes;

impl W5App for Notes {
    fn handle(&self, req: &AppRequest, api: &mut PlatformApi<'_>) -> Result<AppResponse, ApiError> {
        match req.action.as_str() {
            "write" => {
                let owner = api.viewer().ok_or(ApiError::Denied)?.to_string();
                api.create_file(
                    &format!("/notes/{owner}"),
                    Bytes::from("note"),
                    CreateLabels::ViewerData,
                )?;
                Ok(AppResponse::text("saved"))
            }
            "read" => {
                let data = api.read_file(&format!("/notes/{}", req.param("user").unwrap_or("")))?;
                Ok(AppResponse::text(String::from_utf8_lossy(&data).into_owned()))
            }
            "crash" => panic!("boom"),
            _ => Err(ApiError::NotFound),
        }
    }

    fn source_lines(&self) -> usize {
        16
    }
}

#[test]
fn counters_match_the_invocations_they_count() {
    let p = Platform::new_default("counters");
    p.apps
        .publish(AppManifest {
            name: "notes".into(),
            developer: "devA".into(),
            version: 1,
            description: "notes".into(),
            module_slots: vec![],
            imports: vec![],
            forked_from: None,
            source: None,
        })
        .unwrap();
    p.install_app("devA/notes", Arc::new(Notes));
    let bob = p.accounts.register("bob", "pw").unwrap();
    let alice = p.accounts.register("alice", "pw").unwrap();
    let carol = p.accounts.register("carol", "pw").unwrap();
    p.policies.grant_declassifier(bob.id, "friends-only", GrantScope::App("devA/notes".into()));
    p.add_friend("bob", "alice");

    let call = |viewer: Option<&Account>, app: &str, action: &str, params: &[(&str, &str)]| {
        let req = Platform::make_request("GET", action, params, viewer, Bytes::new());
        p.invoke(viewer, app, req)
    };
    let bobs = [("user", "bob")];
    // Refused inside the app (no write delegation yet): a fault, not an export block.
    let mut results = vec![call(Some(&bob), "devA/notes", "write", &[])];
    p.policies.delegate_write(bob.id, "devA/notes");
    results.extend([
        call(Some(&bob), "devA/notes", "write", &[]), // allowed, public reply
        call(Some(&bob), "devA/notes", "read", &bobs), // owner session clears
        call(Some(&alice), "devA/notes", "read", &bobs), // friends-only allows
        call(Some(&carol), "devA/notes", "read", &bobs), // friends-only refuses
        call(None, "devA/notes", "read", &bobs),      // friends-only refuses
        call(Some(&alice), "devA/notes", "crash", &[]),
        call(Some(&alice), "devA/notes", "nope", &[]),
        call(Some(&alice), "devA/missing", "read", &[]), // 404 before launch
    ]);

    let count =
        |pred: &dyn Fn(&InvokeResult) -> bool| results.iter().filter(|r| pred(r)).count() as u64;
    let checked = count(&|r| r.export.is_some());
    let blocked = count(&|r| r.export.as_ref().is_some_and(|d| !d.allowed));
    let faults = count(&|r| r.fault.is_some());
    // Bob's one grant is put to every tag the owner session does not clear.
    let consulted: usize = results
        .iter()
        .filter_map(|r| r.export.as_ref())
        .map(|d| {
            let declassified = d.cleared.iter().filter(|(_, c)| c != &Clearance::OwnerSession);
            d.blocked.len() + declassified.count()
        })
        .sum();
    assert_eq!((checked, blocked, consulted, faults), (5, 2, 3, 3), "the mix covers every outcome");
    assert_eq!(
        p.stats_view(),
        PlatformStats { invocations: results.len() as u64, exports_blocked: blocked, faults }
    );
    assert_eq!(
        p.exporter.stats_view(),
        PerimeterStats { checked, blocked, declassifier_calls: consulted as u64 }
    );
}

/// Answers every request with the same HTML body, invalid UTF-8 and all.
struct RawHtml(&'static [u8]);

impl W5App for RawHtml {
    fn handle(&self, _req: &AppRequest, _api: &mut PlatformApi<'_>) -> Result<AppResponse, ApiError> {
        Ok(AppResponse { content_type: "text/html; charset=utf-8".into(), body: Bytes::from_static(self.0) })
    }

    fn source_lines(&self) -> usize {
        3
    }
}

#[test]
fn html_with_invalid_utf8_exports_as_it_always_did() {
    let p = Platform::new_default("raw-html");
    p.apps
        .publish(AppManifest {
            name: "raw".into(),
            developer: "devA".into(),
            version: 1,
            description: "raw".into(),
            module_slots: vec![],
            imports: vec![],
            forked_from: None,
            source: None,
        })
        .unwrap();
    p.install_app("devA/raw", Arc::new(RawHtml(b"<p>caf\xe9 \xf0\x9f\x98</p>\xff<b onclick=\"x\">ok</b><script>\xc3</script>\xe2\x82")));
    let req = Platform::make_request("GET", "view", &[], None, Bytes::new());
    let out = p.invoke(None, "devA/raw", req);
    assert_eq!(out.status, 200);
    // Each invalid sequence is one U+FFFD, as `String::from_utf8_lossy`
    // decides it; the filter then runs on that text. Pinned from the
    // lossy-only implementation.
    assert_eq!(&out.body[..], "<p>caf\u{FFFD} \u{FFFD}</p>\u{FFFD}<b>ok</b>\u{FFFD}".as_bytes());
}

/// Reads alice's note, then writes a friendship row under the taint that
/// read left: the row exists only because of what alice's data says.
struct Smuggler;

impl W5App for Smuggler {
    fn handle(&self, _req: &AppRequest, api: &mut PlatformApi<'_>) -> Result<AppResponse, ApiError> {
        api.read_file("/notes/alice")?;
        api.query("INSERT INTO w5_friends (owner, friend) VALUES ('carol', 'mallory')", CreateLabels::Derived)?;
        Ok(AppResponse::text("done"))
    }

    fn source_lines(&self) -> usize {
        5
    }
}

#[test]
fn a_tainted_friendship_row_decides_no_export() {
    let p = Platform::new_default("tainted-friends");
    for name in ["notes", "smuggler"] {
        p.apps
            .publish(AppManifest {
                name: name.into(),
                developer: "devA".into(),
                version: 1,
                description: name.into(),
                module_slots: vec![],
                imports: vec![],
                forked_from: None,
                source: None,
            })
            .unwrap();
    }
    p.install_app("devA/notes", Arc::new(Notes));
    p.install_app("devA/smuggler", Arc::new(Smuggler));
    let alice = p.accounts.register("alice", "pw").unwrap();
    let carol = p.accounts.register("carol", "pw").unwrap();
    let mallory = p.accounts.register("mallory", "pw").unwrap();
    let call = |viewer: Option<&Account>, app: &str, action: &str, params: &[(&str, &str)]| {
        let req = Platform::make_request("GET", action, params, viewer, Bytes::new());
        p.invoke(viewer, app, req)
    };
    for owner in [&alice, &carol] {
        p.policies.delegate_write(owner.id, "devA/notes");
        assert_eq!(call(Some(owner), "devA/notes", "write", &[]).status, 200);
    }
    p.policies.grant_declassifier(carol.id, "friends-only", GrantScope::App("devA/notes".into()));

    let smuggled = call(Some(&mallory), "devA/smuggler", "run", &[]);
    assert!(smuggled.export.is_some_and(|d| !d.allowed), "the smuggler's own reply is alice's");
    // The row is there, under alice's export tag, and a reader that raises
    // (as every process may) counts it.
    let e_alice = LabelPair::new(w5_difc::Label::singleton(alice.export_tag), w5_difc::Label::empty());
    let count = "SELECT COUNT(*) FROM w5_friends WHERE owner = 'carol' AND friend = 'mallory'";
    let raised = p
        .db
        .execute(&Subject::anonymous(), QueryMode::Filtered, QueryCost::unlimited(), &LabelPair::public(), count)
        .unwrap();
    assert_eq!((&raised.row(0).values[0], &raised.labels), (&Value::Int(1), &e_alice));

    // The oracle does not: its answer leaves unlabeled, so alice's data
    // decides nothing about carol's.
    assert!(!p.oracle().are_friends("carol", "mallory"));
    let read = call(Some(&mallory), "devA/notes", "read", &[("user", "carol")]);
    assert!(read.export.is_some_and(|d| !d.allowed), "carol's note stays with carol's friends");
}
