//! The §3 threat model, live: every attack from the malicious-application
//! suite runs against a real victim and is defeated by the platform, not
//! by the applications.
//!
//! ```sh
//! cargo run -p w5-examples --example attack_demo
//! ```

use bytes::Bytes;
use w5_platform::{Account, Platform};

fn run(
    p: &std::sync::Arc<Platform>,
    viewer: &Account,
    app: &str,
    action: &str,
    params: &[(&str, &str)],
) -> u16 {
    let req = Platform::make_request("GET", action, params, Some(viewer), Bytes::new());
    p.invoke(Some(viewer), app, req).status
}

fn main() {
    let p = Platform::new_default("under-attack");
    w5_apps::install_all(&p);
    let bob = p.accounts.register("bob", "pw").unwrap();
    let mallory = p.accounts.register("mallory", "pw").unwrap();
    p.policies.delegate_write(bob.id, "devA/photos");
    assert_eq!(w5_apps::photos::upload_test_photo(&p, &bob, "private", 8), 200);
    println!("victim: bob uploads /photos/bob/private\n");

    let secret_path = [("path", "/photos/bob/private")];

    let s = run(&p, &mallory, "mal/exfiltrator", "steal", &secret_path);
    println!("1. direct theft          → {s} (perimeter blocks mallory)");

    let s1 = run(&p, &mallory, "mal/stasher", "stash", &[("path", "/photos/bob/private"), ("tag", "1")]);
    let s2 = run(&p, &mallory, "mal/confederate", "fetch", &[("tag", "1")]);
    println!("2. confederate relay     → stash {s1}, fetch {s2} (taint follows the data)");

    let s = run(&p, &mallory, "mal/vandal", "x", &secret_path);
    println!("3. vandalism             → {s} (needs bob's w+)");

    let s = run(&p, &mallory, "mal/deleter", "x", &secret_path);
    println!("4. deletion              → {s}");

    let s = run(&p, &mallory, "mal/misrepresenter", "x", &[("victim", "bob")]);
    println!("5. misrepresentation     → {s} (file created, but carries no integrity tag)");

    let s = run(&p, &mallory, "mal/crashleaker", "x", &secret_path);
    let redacted = p.fault_reports().iter().all(|r| {
        r.detail.as_deref().map(|d| !d.contains("W5IMG")).unwrap_or(true)
    });
    println!("6. crash-report leak     → {s} (fault report redacted: {redacted})");

    let s = run(&p, &mallory, "mal/covert", "send", &[("path", "/photos/bob/private"), ("bit", "1")]);
    let r = run(&p, &mallory, "mal/covert", "recv", &[]);
    println!("7. SQL covert channel    → send {s}, recv {r} (count never exports)");

    // And through it all, bob's data is intact and bob can still use the
    // very same "malicious" apps on his own data.
    let s = run(&p, &bob, "devA/photos", "view", &[("user", "bob"), ("name", "private")]);
    println!("\nbob's photo intact: {s}");
    let s = run(&p, &bob, "mal/exfiltrator", "steal", &secret_path);
    println!("bob using the evil app on his own data: {s} (owner session clears)");

    let stats = p.exporter.stats_view();
    println!("\nperimeter audit: {} exports checked, {} blocked", stats.checked, stats.blocked);
    println!("every blocked attempt is in the provider's audit log:");
    for e in p.exporter.audit_log().iter().filter(|e| !e.allowed).take(5) {
        println!("  viewer={:?} app={} tags={:?}", e.viewer, e.app, e.secrecy_tags);
    }
}
