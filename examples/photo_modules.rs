//! Fine-grained competition between software modules (paper §1–§2):
//! "select his favorite photo cropping module from a set contributed by
//! independent developers, just as many people exert choice over their
//! text editor" — plus forking an application and pinning a version.
//!
//! ```sh
//! cargo run -p w5-examples --example photo_modules
//! ```

use bytes::Bytes;
use w5_apps::image::Image;
use w5_platform::{Account, Platform};

fn crop(p: &std::sync::Arc<Platform>, user: &Account) -> Image {
    let req = Platform::make_request(
        "GET",
        "crop",
        &[("user", user.username.as_str()), ("name", "card"), ("w", "4"), ("h", "4")],
        Some(user),
        Bytes::new(),
    );
    let r = p.invoke(Some(user), "devA/photos", req);
    assert_eq!(r.status, 200, "{:?}", String::from_utf8_lossy(&r.body));
    Image::decode(&r.body).unwrap()
}

fn main() {
    let p = Platform::new_default("modules-demo");
    w5_apps::install_all(&p);
    let bob = p.accounts.register("bob", "pw").unwrap();
    p.policies.delegate_write(bob.id, "devA/photos");

    // Upload a 10x10 gradient test card.
    let req = Platform::make_request(
        "POST",
        "upload",
        &[("name", "card"), ("w", "10"), ("h", "10")],
        Some(&bob),
        Bytes::new(),
    );
    assert_eq!(p.invoke(Some(&bob), "devA/photos", req).status, 200);

    // The catalog offers two crop modules for the same slot.
    println!("modules offered for devA/photos#crop:");
    for m in p.apps.modules_for("devA/photos", "crop") {
        println!("  {} — {}", m.developer, m.description);
    }

    // Default: developer A's top-left cropper.
    let img = crop(&p, &bob);
    println!("\ndefault (devA, top-left):  first pixel = {}", img.get(0, 0));

    // One policy action switches Bob to developer B's centered cropper.
    // Identical app, identical data, different module — per user.
    p.policies.choose_module(bob.id, "devA/photos", "crop", "devB");
    let img = crop(&p, &bob);
    println!("after choosing devB:       first pixel = {} (centered crop)", img.get(0, 0));

    // Another user keeps the default, unaffected by Bob's choice.
    let alice = p.accounts.register("alice", "pw").unwrap();
    p.policies.delegate_write(alice.id, "devA/photos");
    let req = Platform::make_request(
        "POST",
        "upload",
        &[("name", "card"), ("w", "10"), ("h", "10")],
        Some(&alice),
        Bytes::new(),
    );
    assert_eq!(p.invoke(Some(&alice), "devA/photos", req).status, 200);
    let img = crop(&p, &alice);
    println!("alice (still devA):        first pixel = {}", img.get(0, 0));

    // Forking: devZ forks the whole photos app and instantly has a user
    // pool — anyone can switch by enrolling.
    let fork = p.apps.fork("devA/photos", "devZ", "photos, but cooler").unwrap();
    println!("\nforked: {} v{} (from {})", fork.key(), fork.version, fork.forked_from.unwrap());

    // Version pinning: publish v2, Bob pins v1.
    let mut v2 = (*p.apps.latest("devA/photos").unwrap()).clone();
    v2.version = 2;
    v2.description = "photos v2 (new and questionable)".into();
    p.apps.publish(v2).unwrap();
    p.policies.pin_version(bob.id, "devA/photos", 1);
    println!(
        "bob resolves devA/photos to v{} (pinned); alice gets v{}",
        p.resolve_manifest(Some(&bob), "devA/photos").unwrap().version,
        p.resolve_manifest(Some(&alice), "devA/photos").unwrap().version,
    );
}
