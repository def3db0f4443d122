//! Crash recovery: an interrupted labeled write either fully applies or
//! fully disappears — and a file's label is never downgraded by a fault.
//!
//! The `fs.write` chaos site aborts a write *before* it commits; these
//! tests pin down exactly what "before" must mean: the previous contents,
//! labels and version are bit-for-bit intact, and a failed create leaves
//! no file at all (not even an unlabeled stub — a stub would be a
//! declassification).

use bytes::Bytes;
use std::sync::Arc;
use w5_chaos::{FaultPlan, Injector, Site};
use w5_difc::{CapSet, Capability, Label, LabelPair, Tag};
use w5_store::{FsError, LabeledFs, Subject};

fn secret_pair(tag: u64) -> LabelPair {
    LabelPair::new(Label::from_iter([Tag::from_raw(tag)]), Label::empty())
}

/// A subject holding both halves of `tag`'s capability — allowed to do
/// everything, so every denial in these tests is the fault injector, not
/// the flow rules.
fn owner(tag: u64) -> Subject {
    let t = Tag::from_raw(tag);
    Subject::new(
        LabelPair::public(),
        CapSet::from_caps([Capability::plus(t), Capability::minus(t)]),
    )
}

#[test]
fn aborted_write_leaves_old_state_fully_intact() {
    let fs = LabeledFs::new(Arc::new(w5_difc::TagRegistry::new()));
    let subject = owner(7);
    let labels = secret_pair(7);
    fs.create(&subject, "/f", labels.clone(), Bytes::from_static(b"v1")).unwrap();
    let before = fs.stat(&subject, "/f").unwrap();

    let inj = Injector::new(FaultPlan::new(1).with(Site::FsWrite, 1.0));
    let guard = w5_chaos::with_injector(Arc::clone(&inj));
    let err = fs.write(&subject, "/f", Bytes::from_static(b"v2-this-must-vanish")).unwrap_err();
    drop(guard);
    assert_eq!(err, FsError::Aborted);

    // All-or-nothing: data, labels and version are exactly as before.
    let (data, got_labels) = fs.read(&subject, "/f").unwrap();
    assert_eq!(data, Bytes::from_static(b"v1"));
    assert_eq!(got_labels, labels);
    let after = fs.stat(&subject, "/f").unwrap();
    assert_eq!(after, before, "an aborted write must not even bump the version");
}

#[test]
fn aborted_create_leaves_no_file_behind() {
    let fs = LabeledFs::new(Arc::new(w5_difc::TagRegistry::new()));
    let subject = owner(7);

    let inj = Injector::new(FaultPlan::new(1).with(Site::FsWrite, 1.0));
    let guard = w5_chaos::with_injector(Arc::clone(&inj));
    let err = fs
        .create(&subject, "/new", secret_pair(7), Bytes::from_static(b"ghost"))
        .unwrap_err();
    drop(guard);
    assert_eq!(err, FsError::Aborted);

    assert_eq!(fs.read(&subject, "/new").unwrap_err(), FsError::NotFound);
    assert_eq!(fs.file_count(), 0);
    assert_eq!(fs.bytes_used(), 0, "an aborted create must not charge quota");

    // And the path is still usable afterwards.
    fs.create(&subject, "/new", secret_pair(7), Bytes::from_static(b"real")).unwrap();
    assert_eq!(fs.read(&subject, "/new").unwrap().0, Bytes::from_static(b"real"));
}

#[test]
fn labels_never_downgrade_across_a_fault_storm() {
    // Hammer a labeled file with writes under a heavy abort rate; after
    // every attempt the file's secrecy must still be exactly the original
    // label. A single missing tag after any fault would be a
    // declassification performed by the failure path.
    let fs = LabeledFs::new(Arc::new(w5_difc::TagRegistry::new()));
    let subject = owner(9);
    let labels = secret_pair(9);
    fs.create(&subject, "/s", labels.clone(), Bytes::from_static(b"seed")).unwrap();

    let inj = Injector::new(FaultPlan::new(20070824).with(Site::FsWrite, 0.5));
    let guard = w5_chaos::with_injector(Arc::clone(&inj));
    let mut committed = 0u32;
    let mut aborted = 0u32;
    for i in 0..200u32 {
        match fs.write(&subject, "/s", Bytes::from(format!("gen-{i}"))) {
            Ok(()) => committed += 1,
            Err(FsError::Aborted) => aborted += 1,
            Err(e) => panic!("unexpected error under fault storm: {e:?}"),
        }
        let (_, got) = fs.read(&subject, "/s").unwrap();
        assert_eq!(got, labels, "write attempt {i} changed the file's labels");
    }
    drop(guard);
    assert!(committed > 0 && aborted > 0, "storm must exercise both paths");

    // Version counts exactly the committed writes — aborts left no trace.
    let meta = fs.stat(&subject, "/s").unwrap();
    assert_eq!(meta.version, 1 + committed as u64);
}
