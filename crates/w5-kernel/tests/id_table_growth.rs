//! The label id table (`w5_difc::intern`) is append-only and charged to no
//! resource container, so nothing an untrusted app can drive may add to
//! it. An app chooses its own labels — every export tag's `t+` is in the
//! global bag — so the kernel's label syscalls and the ledger must work on
//! label values and never intern them. This file holds exactly one test:
//! the table is process-global, and a second test in this binary could
//! move the counters under it.

use bytes::Bytes;
use std::sync::Arc;
use w5_difc::{CapSet, Label, LabelPair, Tag, TagKind, TagRegistry};
use w5_kernel::{Delivery, Kernel, ProcessId, ResourceLimits, SpawnSpec};

const ROUNDS: usize = 32;

#[test]
fn app_chosen_labels_never_reach_the_id_table() {
    let registry = Arc::new(TagRegistry::new());
    let kernel = Kernel::new(Arc::clone(&registry));
    let mk = |name: &str| {
        kernel.create_process(name, LabelPair::public(), CapSet::empty(), ResourceLimits::unlimited())
    };
    let (owner, app) = (mk("owner"), mk("app"));
    // Export tags anyone may raise to, and one read-protect tag only its
    // owner may: labels that name it are the denied cases.
    let export: Vec<Tag> = (0..ROUNDS + 2)
        .map(|i| kernel.create_tag(owner, TagKind::ExportProtect, &format!("e{i}")).unwrap())
        .collect();
    let locked = kernel.create_tag(owner, TagKind::ReadProtect, "r").unwrap();
    let secret = |tags: &[Tag]| LabelPair::new(Label::from_iter(tags.iter().copied()), Label::empty());
    let spawn = |parent: ProcessId, labels: LabelPair| {
        kernel.spawn(
            parent,
            SpawnSpec {
                name: "child".into(),
                labels,
                grant: CapSet::empty(),
                limits: ResourceLimits::unlimited(),
            },
        )
    };

    let table = || {
        let s = w5_difc::intern::stats();
        (s.labels, s.intern_hits + s.intern_misses)
    };
    let before = table();
    for i in 0..ROUNDS {
        // Every label below is a multi-tag set no earlier round used.
        let (a, b, c) = (export[i], export[i + 1], export[i + 2]);

        // Spawn and safe label change, allowed and denied.
        let child = spawn(app, secret(&[a, b])).expect("anyone may raise to export tags");
        assert!(spawn(app, secret(&[a, locked])).is_err(), "no t+ for the locked tag");
        kernel.change_labels(child, secret(&[a, b, c])).expect("raise");
        assert!(kernel.change_labels(child, secret(&[a, b, c, locked])).is_err());

        // Sends on the fast path (equal labels) and the slow path
        // (dropped: the reader is public).
        let twin = spawn(child, secret(&[a, b, c])).unwrap();
        let reader = mk("reader");
        let send = |to| kernel.send(child, to, Bytes::from_static(b"x"), CapSet::empty());
        assert_eq!(send(twin), Ok(Delivery::Delivered));
        assert_eq!(send(reader), Ok(Delivery::Dropped));
        assert!(kernel.recv(twin).unwrap().is_some());

        // Read taint: already covered, raised, refused, and on a dead pid.
        kernel.taint_for_read(twin, &secret(&[a, c])).expect("covered");
        kernel.taint_for_read(reader, &secret(&[b, c])).expect("raise");
        assert!(kernel.taint_for_read(twin, &secret(&[c, locked])).is_err());
        kernel.exit(twin).unwrap();
        assert!(kernel.taint_for_read(twin, &secret(&[a, locked])).is_err());

        // Handing a label to the ledger is a borrow.
        w5_obs::record(
            secret(&[b, c, locked]).secrecy.to_obs(),
            w5_obs::EventKind::TagGrant { pid: app.0, tag: b.raw() },
        );
    }
    assert_eq!(table(), before, "the kernel and the ledger must not intern");
}
