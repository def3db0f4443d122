//! What two differently-cleared auditors see in the same ledger.
//!
//! Records a handful of public and secret-labeled events, then prints the
//! JSON snapshot for a fully-cleared auditor next to the one for an
//! empty-clearance viewer — the latter gets only public events, dense
//! seqs, and quantized aggregates.
//!
//! Run with: `cargo run -p w5-obs --example snapshot`

use w5_obs::{EventKind, Ledger, ObsLabel};

fn main() {
    let ledger = Ledger::new();
    let secret = ObsLabel::singleton(7);

    for i in 0..3 {
        ledger.record(
            &ObsLabel::empty(),
            EventKind::RouteResolve { path: format!("/app/photos/{i}"), matched: true },
        );
    }
    ledger.record(
        &secret,
        EventKind::StoreRead { path: "/bob/diary".into(), bytes: 512, allowed: true },
    );
    ledger.record(
        &secret,
        EventKind::DeclassifierInvoke { name: "friends-only".into(), allowed: false },
    );

    println!("=== cleared auditor (tag 7) ===");
    println!("{}", ledger.snapshot_json(&secret).unwrap());
    println!();
    println!("=== empty clearance ===");
    println!("{}", ledger.snapshot_json(&ObsLabel::empty()).unwrap());
}
