//! Tests for the §3.1/§3.2 policy extensions: read protection, editor
//! endorsements, and integrity-protected launching.

use bytes::Bytes;
use std::sync::Arc;
use w5_platform::{
    ApiError, AppManifest, AppRequest, AppResponse, CreateLabels, Platform, PlatformApi, W5App,
};

/// An app that writes one read-protected note per user and reads it back.
struct VaultApp;

impl W5App for VaultApp {
    fn handle(&self, req: &AppRequest, api: &mut PlatformApi<'_>) -> Result<AppResponse, ApiError> {
        let me = api.viewer().ok_or(ApiError::Denied)?.to_string();
        match req.action.as_str() {
            "put" => {
                let text = req.param("text").unwrap_or("").to_string();
                api.create_file(
                    &format!("/vault/{me}"),
                    Bytes::from(text),
                    CreateLabels::ViewerPrivate,
                )?;
                Ok(AppResponse::text("stored"))
            }
            "get" => {
                let data = api.read_file(&format!("/vault/{me}"))?;
                Ok(AppResponse::text(String::from_utf8_lossy(&data).into_owned()))
            }
            _ => Err(ApiError::NotFound),
        }
    }
    fn source_lines(&self) -> usize {
        20
    }
}

fn publish(p: &Arc<Platform>, dev: &str, name: &str, version: u32, imports: Vec<String>) {
    p.apps
        .publish(AppManifest {
            name: name.into(),
            developer: dev.into(),
            version,
            description: String::new(),
            module_slots: vec![],
            imports,
            forked_from: None,
            source: None,
        })
        .unwrap();
}

#[test]
fn read_protection_requires_both_delegations() {
    let p = Platform::new_default("vault-test");
    publish(&p, "devV", "vault", 1, vec![]);
    p.install_app("devV/vault", Arc::new(VaultApp));

    let bob = p.accounts.register("bob", "pw").unwrap();
    p.policies.delegate_write(bob.id, "devV/vault");

    // Without read protection enabled, ViewerPrivate creation is refused.
    let req = Platform::make_request("POST", "put", &[("text", "deep secret")], Some(&bob), Bytes::new());
    assert_eq!(p.invoke(Some(&bob), "devV/vault", req).status, 403);

    // Enable read protection; storing works (write needs no read access).
    p.accounts.enable_read_protection(bob.id).unwrap();
    let bob = p.accounts.get(bob.id).unwrap(); // refresh: read_tag now set
    let req = Platform::make_request("POST", "put", &[("text", "deep secret")], Some(&bob), Bytes::new());
    let r = p.invoke(Some(&bob), "devV/vault", req);
    assert_eq!(r.status, 200, "{:?}", String::from_utf8_lossy(&r.body));

    // Reading back WITHOUT read delegation: the file is invisible to the
    // instance (NotFound, not Forbidden — existence is protected too).
    let req = Platform::make_request("GET", "get", &[], Some(&bob), Bytes::new());
    assert_eq!(p.invoke(Some(&bob), "devV/vault", req).status, 404);

    // Delegate read: the instance can raise to r_bob, reads the data, and
    // the perimeter clears bob's own session for both tags.
    p.policies.delegate_read(bob.id, "devV/vault");
    let req = Platform::make_request("GET", "get", &[], Some(&bob), Bytes::new());
    let r = p.invoke(Some(&bob), "devV/vault", req);
    assert_eq!(r.status, 200, "{:?}", String::from_utf8_lossy(&r.body));
    assert_eq!(String::from_utf8_lossy(&r.body), "deep secret");

    // Another user, even with their own read delegation, sees nothing of
    // bob's vault: their instance lacks r_bob+.
    let alice = p.accounts.register("alice", "pw").unwrap();
    p.accounts.enable_read_protection(alice.id).unwrap();
    let alice = p.accounts.get(alice.id).unwrap();
    p.policies.delegate_read(alice.id, "devV/vault");
    p.policies.delegate_write(alice.id, "devV/vault");

    struct Snoop;
    impl W5App for Snoop {
        fn handle(&self, _req: &AppRequest, api: &mut PlatformApi<'_>) -> Result<AppResponse, ApiError> {
            let data = api.read_file("/vault/bob")?;
            Ok(AppResponse::text(String::from_utf8_lossy(&data).into_owned()))
        }
        fn source_lines(&self) -> usize {
            5
        }
    }
    publish(&p, "devV", "snoop", 1, vec![]);
    p.install_app("devV/snoop", Arc::new(Snoop));
    p.policies.delegate_read(alice.id, "devV/snoop");
    let req = Platform::make_request("GET", "x", &[], Some(&alice), Bytes::new());
    assert_eq!(
        p.invoke(Some(&alice), "devV/snoop", req).status,
        404,
        "read-protected data is invisible, not merely unexportable"
    );
}

#[test]
fn endorsement_required_launch_gate() {
    let p = Platform::new_default("editors-test");
    publish(&p, "devC", "syslib", 1, vec![]);
    publish(&p, "devA", "photos", 1, vec!["devC/syslib".into()]);
    struct Trivial;
    impl W5App for Trivial {
        fn handle(&self, _r: &AppRequest, _a: &mut PlatformApi<'_>) -> Result<AppResponse, ApiError> {
            Ok(AppResponse::text("ok"))
        }
        fn source_lines(&self) -> usize {
            3
        }
    }
    p.install_app("devA/photos", Arc::new(Trivial));

    let bob = p.accounts.register("bob", "pw").unwrap();
    // Default: no endorsement requirement, runs fine.
    let req = Platform::make_request("GET", "x", &[], Some(&bob), Bytes::new());
    assert_eq!(p.invoke(Some(&bob), "devA/photos", req).status, 200);

    // Bob turns on integrity protection and trusts an editor.
    p.policies.set_require_endorsement(bob.id, true);
    p.policies.trust_editor(bob.id, "trade-journal");

    // Unendorsed app: refused, naming the offending component.
    let req = Platform::make_request("GET", "x", &[], Some(&bob), Bytes::new());
    let r = p.invoke(Some(&bob), "devA/photos", req);
    assert_eq!(r.status, 403);
    assert!(String::from_utf8_lossy(&r.body).contains("devA/photos"));

    // Endorse the app but not its import: still refused, on the import.
    p.editors.endorse("trade-journal", "devA/photos", 1, "audited");
    let req = Platform::make_request("GET", "x", &[], Some(&bob), Bytes::new());
    let r = p.invoke(Some(&bob), "devA/photos", req);
    assert_eq!(r.status, 403);
    assert!(String::from_utf8_lossy(&r.body).contains("devC/syslib"));

    // Endorse the whole closure: runs.
    p.editors.endorse("trade-journal", "devC/syslib", 1, "audited");
    let req = Platform::make_request("GET", "x", &[], Some(&bob), Bytes::new());
    assert_eq!(p.invoke(Some(&bob), "devA/photos", req).status, 200);

    // An endorsement from an editor bob does not trust is worthless.
    let carol = p.accounts.register("carol", "pw").unwrap();
    p.policies.set_require_endorsement(carol.id, true);
    p.policies.trust_editor(carol.id, "some-other-editor");
    let req = Platform::make_request("GET", "x", &[], Some(&carol), Bytes::new());
    assert_eq!(p.invoke(Some(&carol), "devA/photos", req).status, 403);

    // Other users are unaffected by bob's strictness.
    let dave = p.accounts.register("dave", "pw").unwrap();
    let req = Platform::make_request("GET", "x", &[], Some(&dave), Bytes::new());
    assert_eq!(p.invoke(Some(&dave), "devA/photos", req).status, 200);
}

#[test]
fn inter_app_messages_carry_labels() {
    let p = Platform::new_default("mail-test");
    publish(&p, "devM", "sender", 1, vec![]);
    publish(&p, "devM", "receiver", 1, vec![]);

    /// Sends either a public note or one derived from the viewer's file.
    struct Sender;
    impl W5App for Sender {
        fn handle(&self, req: &AppRequest, api: &mut PlatformApi<'_>) -> Result<AppResponse, ApiError> {
            if req.param("taint") == Some("1") {
                let me = api.viewer().unwrap().to_string();
                let _secret = api.read_file(&format!("/files/{me}"))?; // acquire taint
            }
            let seq = api.send_message("devM/receiver", req.param("text").unwrap_or("hi"))?;
            Ok(AppResponse::text(format!("sent #{seq}")))
        }
        fn source_lines(&self) -> usize {
            10
        }
    }
    /// Reads its mailbox and renders everything it can see.
    struct Receiver;
    impl W5App for Receiver {
        fn handle(&self, _req: &AppRequest, api: &mut PlatformApi<'_>) -> Result<AppResponse, ApiError> {
            let msgs = api.recv_messages(0)?;
            let bodies: Vec<String> = msgs.into_iter().map(|(_, b)| b).collect();
            Ok(AppResponse::text(bodies.join("|")))
        }
        fn source_lines(&self) -> usize {
            8
        }
    }
    p.install_app("devM/sender", Arc::new(Sender));
    p.install_app("devM/receiver", Arc::new(Receiver));

    let bob = p.accounts.register("bob", "pw").unwrap();
    let carol = p.accounts.register("carol", "pw").unwrap();
    // Bob stores a secret file the tainted sender will read.
    let subject = w5_store::Subject::new(
        w5_difc::LabelPair::public(),
        bob.owner_caps.clone(),
    );
    p.fs.create(&subject, "/files/bob", bob.data_labels(), Bytes::from_static(b"SECRET"))
        .unwrap();

    // 1. A public message flows: carol sends, carol receives.
    let req = Platform::make_request("POST", "x", &[("text", "public hello")], Some(&carol), Bytes::new());
    assert_eq!(p.invoke(Some(&carol), "devM/sender", req).status, 200);
    let req = Platform::make_request("GET", "x", &[], Some(&carol), Bytes::new());
    let r = p.invoke(Some(&carol), "devM/receiver", req);
    assert_eq!(r.status, 200);
    assert!(String::from_utf8_lossy(&r.body).contains("public hello"));

    // 2. Bob sends a *tainted* message (his instance read his secret
    //    first). The send succeeds server-side; the confirmation to bob is
    //    fine (it's his own tag).
    let req = Platform::make_request(
        "POST",
        "x",
        &[("text", "derived from SECRET"), ("taint", "1")],
        Some(&bob),
        Bytes::new(),
    );
    assert_eq!(p.invoke(Some(&bob), "devM/sender", req).status, 200);

    // 3. Carol's receiver now reads a mailbox containing bob-tainted mail:
    //    the instance is tainted and the perimeter blocks her response.
    let req = Platform::make_request("GET", "x", &[], Some(&carol), Bytes::new());
    let r = p.invoke(Some(&carol), "devM/receiver", req);
    assert_eq!(r.status, 403, "tainted mail must not reach carol: {:?}", r.body);

    // 4. Bob's receiver gets everything — his session clears his tag.
    let req = Platform::make_request("GET", "x", &[], Some(&bob), Bytes::new());
    let r = p.invoke(Some(&bob), "devM/receiver", req);
    assert_eq!(r.status, 200);
    let body = String::from_utf8_lossy(&r.body).into_owned();
    assert!(body.contains("public hello") && body.contains("derived from SECRET"), "{body}");
}
