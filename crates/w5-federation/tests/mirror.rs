//! Two providers over real TCP: opt-in mirroring, bidirectional
//! convergence, and refusal paths.

use bytes::Bytes;
use std::sync::Arc;
use w5_federation::service::opt_in;
use w5_federation::{AccountLink, FederationService, SyncAgent, FEDERATION_TOKEN_HEADER};
use w5_net::{HttpClient, Server, ServerConfig};
use w5_platform::{Account, Platform};
use w5_store::Subject;

const TOKEN: &str = "peering-secret-123";

struct Provider {
    platform: Arc<Platform>,
    server: w5_net::ServerHandle,
}

impl Provider {
    fn start(name: &str) -> Provider {
        let platform = Platform::new_default(name);
        let svc = FederationService::new(Arc::clone(&platform), TOKEN);
        let server = Server::start("127.0.0.1:0", ServerConfig::default(), Arc::new(svc)).unwrap();
        Provider { platform, server }
    }

    fn subject_for(&self, account: &Account) -> Subject {
        Subject::new(
            w5_difc::LabelPair::public(),
            account.owner_caps.clone(),
        )
    }

    fn put(&self, account: &Account, path: &str, data: &[u8]) {
        let subject = self.subject_for(account);
        match self.platform.fs.write(&subject, path, Bytes::copy_from_slice(data)) {
            Ok(()) => {}
            Err(w5_store::FsError::NotFound) => self
                .platform
                .fs
                .create(&subject, path, account.data_labels(), Bytes::copy_from_slice(data))
                .unwrap(),
            Err(e) => panic!("{e}"),
        }
    }

    fn get(&self, account: &Account, path: &str) -> Option<Vec<u8>> {
        let subject = self.subject_for(account);
        self.platform.fs.read(&subject, path).ok().map(|(d, _)| d.to_vec())
    }
}

#[test]
fn mirror_requires_opt_in_and_converges() {
    let a = Provider::start("provider-a");
    let b = Provider::start("provider-b");
    let bob_a = a.platform.accounts.register("bob", "pw").unwrap();
    let bob_b = b.platform.accounts.register("bob", "pw").unwrap();

    a.put(&bob_a, "/photos/bob/cat.img", b"CAT-V1");
    let link = AccountLink { remote_user: "bob".into(), local_user: "bob".into() };
    let agent_b = SyncAgent::new(Arc::clone(&b.platform), TOKEN);

    // Without the grant, provider A refuses the peer.
    let err = agent_b.pull(a.server.addr(), &link).unwrap_err();
    assert!(
        matches!(err, w5_federation::SyncError::Refused { status: 403, .. }),
        "{err}"
    );

    // Bob opts in on A; the pull mirrors his photo to B.
    opt_in(&a.platform, bob_a.id);
    let r = agent_b.pull(a.server.addr(), &link).unwrap();
    assert_eq!(r.created, 1);
    assert_eq!(b.get(&bob_b, "/photos/bob/cat.img").unwrap(), b"CAT-V1");

    // The mirrored copy carries B-side labels (B's tags, not A's).
    let subject = b.subject_for(&bob_b);
    let meta = b.platform.fs.stat(&subject, "/photos/bob/cat.img").unwrap();
    assert!(meta.labels.secrecy.contains(bob_b.export_tag));

    // Re-pull: converged, nothing to do.
    let r = agent_b.pull(a.server.addr(), &link).unwrap();
    assert_eq!(r.unchanged, 1);
    assert_eq!(r.created + r.updated, 0);

    // Update on A propagates as an update.
    a.put(&bob_a, "/photos/bob/cat.img", b"CAT-V2");
    let r = agent_b.pull(a.server.addr(), &link).unwrap();
    assert_eq!(r.updated, 1);
    assert_eq!(b.get(&bob_b, "/photos/bob/cat.img").unwrap(), b"CAT-V2");

    a.server.shutdown();
    b.server.shutdown();
}

#[test]
fn bidirectional_mirror_converges_without_ping_pong() {
    let a = Provider::start("a");
    let b = Provider::start("b");
    let bob_a = a.platform.accounts.register("bob", "pw").unwrap();
    let bob_b = b.platform.accounts.register("bob", "pw").unwrap();
    opt_in(&a.platform, bob_a.id);
    opt_in(&b.platform, bob_b.id);

    a.put(&bob_a, "/notes/from-a", b"alpha");
    b.put(&bob_b, "/notes/from-b", b"beta");

    let link = AccountLink { remote_user: "bob".into(), local_user: "bob".into() };
    let agent_a = SyncAgent::new(Arc::clone(&a.platform), TOKEN);
    let agent_b = SyncAgent::new(Arc::clone(&b.platform), TOKEN);

    // One round each direction.
    agent_b.pull(a.server.addr(), &link).unwrap();
    agent_a.pull(b.server.addr(), &link).unwrap();
    assert_eq!(a.get(&bob_a, "/notes/from-b").unwrap(), b"beta");
    assert_eq!(b.get(&bob_b, "/notes/from-a").unwrap(), b"alpha");

    // Second round: fully converged — nothing created or updated.
    let rb = agent_b.pull(a.server.addr(), &link).unwrap();
    let ra = agent_a.pull(b.server.addr(), &link).unwrap();
    assert_eq!(rb.created + rb.updated, 0, "{rb:?}");
    assert_eq!(ra.created + ra.updated, 0, "{ra:?}");

    a.server.shutdown();
    b.server.shutdown();
}

#[test]
fn only_the_linked_users_own_data_crosses() {
    let a = Provider::start("a");
    let b = Provider::start("b");
    let bob_a = a.platform.accounts.register("bob", "pw").unwrap();
    let alice_a = a.platform.accounts.register("alice", "pw").unwrap();
    let _bob_b = b.platform.accounts.register("bob", "pw").unwrap();
    opt_in(&a.platform, bob_a.id);
    // alice has NOT opted in.
    a.put(&bob_a, "/notes/bob-note", b"bob data");
    a.put(&alice_a, "/notes/alice-note", b"alice data");

    let agent_b = SyncAgent::new(Arc::clone(&b.platform), TOKEN);
    let link = AccountLink { remote_user: "bob".into(), local_user: "bob".into() };
    let r = agent_b.pull(a.server.addr(), &link).unwrap();
    // Only bob's file crossed: selection is by labels.
    assert_eq!(r.examined, 1);
    assert_eq!(b.platform.fs.file_count(), 1);

    // Pulling alice without her grant fails.
    let alice_link = AccountLink { remote_user: "alice".into(), local_user: "bob".into() };
    assert!(agent_b.pull(a.server.addr(), &alice_link).is_err());

    a.server.shutdown();
    b.server.shutdown();
}

#[test]
fn wrong_token_and_unknown_user_refused() {
    let a = Provider::start("a");
    let bob = a.platform.accounts.register("bob", "pw").unwrap();
    opt_in(&a.platform, bob.id);

    let c = HttpClient::new();
    // Wrong token.
    let resp = c
        .get_with_headers(
            a.server.addr(),
            "/federation/export?user=bob",
            &[(FEDERATION_TOKEN_HEADER, "wrong")],
        )
        .unwrap();
    assert_eq!(resp.status.0, 401);
    // Unknown user.
    let resp = c
        .get_with_headers(
            a.server.addr(),
            "/federation/export?user=ghost",
            &[(FEDERATION_TOKEN_HEADER, TOKEN)],
        )
        .unwrap();
    assert_eq!(resp.status.0, 404);
    // Unknown route.
    let resp = c.get(a.server.addr(), "/federation/nope").unwrap();
    assert_eq!(resp.status.0, 404);

    a.server.shutdown();
}
