//! Cross-layer ledger integration: every W5 layer records into the one
//! global flow ledger, each event under the label of the flow it
//! describes, and the operator reads all of it back.
//!
//! The global ledger is shared by every test in this binary, so all
//! assertions are presence-based or relative — never exact global counts.

use bytes::Bytes;
use std::collections::BTreeSet;
use std::sync::Arc;
use w5_difc::{CapSet, Label, LabelPair, TagKind, TagRegistry};
use w5_kernel::{Kernel, ResourceLimits};
use w5_net::{HttpClient, Request, Response, Server, ServerConfig};
use w5_obs::{CheckOp, Event, EventKind, Layer, ObsLabel};
use w5_platform::{
    DeclassifierRegistry, GrantScope, PolicyStore, StaticRelations,
};
use w5_platform::perimeter::Exporter;
use w5_platform::principal::AccountStore;
use w5_store::{LabeledFs, Subject};

/// A path string that exists only inside secret-labeled events.
const SECRET_MARKER: &str = "/vault/observability-secret-marker";

/// Drive all five layers against one registry, returning the tag ids that
/// label the secret flows.
fn drive_all_layers() -> Vec<u64> {
    let registry = Arc::new(TagRegistry::new());
    let mut secret_tags = Vec::new();

    // ---- kernel (+ difc): an export tag and a read-protect tag from the
    // registry, a process that holds the latter's `t+` from its creation
    // and one that does not; a read taint raises the first and the same
    // read is refused to the second.
    let kernel = Kernel::new(Arc::clone(&registry));
    let (t, _) = registry.create_tag(TagKind::ExportProtect, "export:obs-itest");
    let (r, r_caps) = registry.create_tag(TagKind::ReadProtect, "read:obs-itest");
    secret_tags.extend([t.raw(), r.raw()]);
    let a = kernel.create_process("obs-a", LabelPair::public(), r_caps.clone(), ResourceLimits::unlimited());
    let b = kernel.create_process("obs-b", LabelPair::public(), CapSet::empty(), ResourceLimits::unlimited());
    let secret = LabelPair::new(Label::from_iter([t, r]), Label::empty());
    kernel.taint_for_read(a, &secret).unwrap();
    assert_eq!(kernel.labels(a).unwrap(), secret);
    assert!(kernel.taint_for_read(b, &secret).is_err());

    // ---- store: a read-protected secret file; the owner reads it, a
    // stranger is refused (and the refusal is itself secret-labeled).
    let fs = LabeledFs::new(Arc::clone(&registry));
    let secret = LabelPair::new(Label::singleton(r), Label::empty());
    let owner = Subject::new(LabelPair::public(), r_caps.clone());
    fs.create(&owner, SECRET_MARKER, secret, Bytes::from_static(b"classified"))
        .unwrap();
    assert!(fs.read(&owner, SECRET_MARKER).is_ok());
    let stranger = Subject::new(LabelPair::public(), CapSet::empty());
    assert!(fs.read(&stranger, SECRET_MARKER).is_err());

    // ---- platform (+ difc declassifiers): the export perimeter blocks a
    // stranger viewing bob's export-protected data, after consulting the
    // declassifier bob granted (the consultation is the platform layer's
    // ledger event; the decision itself goes to the exporter's audit).
    let accounts = AccountStore::new(Arc::clone(&registry));
    let bob = accounts.register("obs-bob", "pw").unwrap();
    let alice = accounts.register("obs-alice", "pw").unwrap();
    secret_tags.push(bob.export_tag.raw());
    let exporter = Exporter::new();
    let policies = PolicyStore::new();
    let declass = DeclassifierRegistry::with_builtins();
    let rel = StaticRelations::new();
    policies.grant_declassifier(bob.id, "friends-only", GrantScope::AllApps);
    let bob_data = LabelPair::new(Label::singleton(bob.export_tag), Label::empty());
    let denied = exporter.check(
        &bob_data,
        Some(&alice),
        "devA/photos",
        &accounts,
        &policies,
        &declass,
        &rel,
    );
    assert!(!denied.allowed);
    let allowed = exporter.check(
        &bob_data,
        Some(&bob),
        "devA/photos",
        &accounts,
        &policies,
        &declass,
        &rel,
    );
    assert!(allowed.allowed);

    // ---- net: one request over loopback (the public wire-facing layer).
    get_over_loopback("/app/photos");

    secret_tags
}

/// Serve one GET through a real `Server` on a loopback port. The
/// connection thread records the request into the global ledger before it
/// writes the response, so the event is there once this returns.
fn get_over_loopback(path: &str) {
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig::default(),
        Arc::new(|_: Request, _| Response::text("ok")),
    )
    .unwrap();
    let response = HttpClient::new().get(server.addr(), path).unwrap();
    assert_eq!(response.status.0, 200);
    server.shutdown();
}

fn layers_of(events: &[Event]) -> BTreeSet<Layer> {
    events.iter().map(|e| e.kind.layer()).collect()
}

fn event_mentions_marker(kind: &EventKind) -> bool {
    format!("{kind:?}").contains(SECRET_MARKER)
}

#[test]
fn ledger_records_all_layers_under_their_flow_labels() {
    let secret_tags = drive_all_layers();

    // The operator sees events from every layer, including the secret
    // store accesses verbatim, each under its flow's label.
    let full = w5_obs::global().events();
    assert_eq!(
        layers_of(&full),
        Layer::ALL.iter().copied().collect::<BTreeSet<_>>(),
        "the ledger must record events from all five layers"
    );
    assert!(
        full.iter().any(|e| event_mentions_marker(&e.kind)
            && secret_tags.iter().any(|&t| e.secrecy.contains(t))),
        "the operator sees the secret store path verbatim, under its secret label"
    );
    assert!(
        full.iter().any(|e| {
            e.kind == EventKind::LabelCheck { op: CheckOp::Read, allowed: false }
                && secret_tags.iter().any(|&t| e.secrecy.contains(t))
        }),
        "the refused read must appear, under the secret label"
    );
}

#[test]
fn snapshot_json_roundtrips_the_event_ring() {
    // Record a public event so the snapshot is non-trivial even if this
    // test runs first.
    get_over_loopback("/ping");

    let json = w5_obs::global().snapshot_json().unwrap();
    let back: Vec<Event> = serde_json::from_str(&json).unwrap();
    assert!(!back.is_empty());
    assert!(back
        .iter()
        .any(|e| matches!(&e.kind, EventKind::HttpRequest { path, .. } if path == "/ping")));
}

/// What one perimeter crossing leaves in the ledger: the friendship
/// lookup's read check on the (public) `w5_friends` partition and the
/// declassifier's verdict under the owner's tag, plus the two spans — and
/// one audit entry, the decision's only record. The launch/export fast
/// path may change what is copied, never this.
#[test]
fn one_export_leaves_the_same_ledger_footprint_for_friend_and_stranger() {
    use w5_platform::{GrantScope, Platform};

    let p = Platform::new_default("obs-perimeter");
    let bob = p.accounts.register("bob", "pw").unwrap();
    let alice = p.accounts.register("alice", "pw").unwrap();
    let carol = p.accounts.register("carol", "pw").unwrap();
    p.policies.grant_declassifier(bob.id, "friends-only", GrantScope::AllApps);
    p.add_friend("bob", "alice");
    let bobs = ObsLabel::singleton(bob.export_tag.raw());

    for (viewer, is_friend) in [(&alice, true), (&carol, false)] {
        let ledger = Arc::new(w5_obs::Ledger::new());
        let audited = p.exporter.audit_log().len();
        let decision = {
            let _scope = w5_obs::scoped(Arc::clone(&ledger));
            p.exporter.check(
                &bob.data_labels(),
                Some(viewer),
                "devA/photos",
                &p.accounts,
                &p.policies,
                &p.declassifiers,
                &p.oracle(),
            )
        };
        assert_eq!(decision.allowed, is_friend);

        let events: Vec<(ObsLabel, EventKind)> = ledger
            .events()
            .into_iter()
            .map(|e| (e.secrecy, e.kind))
            .collect();
        assert_eq!(
            events,
            vec![
                (ObsLabel::empty(), EventKind::LabelCheck { op: CheckOp::Read, allowed: true }),
                (
                    bobs.clone(),
                    EventKind::DeclassifierInvoke { name: "friends-only".into(), allowed: is_friend },
                ),
            ]
        );
        assert_eq!(ledger.events_recorded(), 2, "nothing counted beside the ring");

        let spans: Vec<(String, ObsLabel)> =
            ledger.spans().into_iter().map(|s| (s.name.to_string(), s.secrecy)).collect();
        assert_eq!(
            spans,
            vec![
                ("platform.declass.friends-only".to_string(), bobs.clone()),
                ("platform.export_check".to_string(), bobs.clone()),
            ],
            "spans close innermost first"
        );

        let audit = p.exporter.audit_log();
        assert_eq!(audit.len(), audited + 1);
        let entry = audit.last().unwrap();
        assert_eq!(
            (entry.viewer, entry.app.as_str(), entry.allowed, &entry.secrecy),
            (Some(viewer.id), "devA/photos", is_friend, &Label::singleton(bob.export_tag))
        );
    }
}
