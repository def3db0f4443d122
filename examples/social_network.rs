//! The paper's §2 social scenario, end to end: profiles, friends-only
//! declassification, a commingled feed, the recommendation digest over
//! private data, and the chameleon profile.
//!
//! ```sh
//! cargo run -p w5-examples --example social_network
//! ```

use bytes::Bytes;
use w5_platform::{Account, GrantScope, Platform};

fn invoke(
    p: &std::sync::Arc<Platform>,
    viewer: &Account,
    app: &str,
    method: &str,
    action: &str,
    params: &[(&str, &str)],
) -> (u16, String) {
    let req = Platform::make_request(method, action, params, Some(viewer), Bytes::new());
    let r = p.invoke(Some(viewer), app, req);
    (r.status, String::from_utf8_lossy(&r.body).into_owned())
}

fn main() {
    let p = Platform::new_default("social-demo");
    w5_apps::install_all(&p);

    // Three users; bob ↔ alice friends, carol is bob's love interest.
    let bob = p.accounts.register("bob", "pw").unwrap();
    let alice = p.accounts.register("alice", "pw").unwrap();
    let carol = p.accounts.register("carol", "pw").unwrap();
    for u in [&bob, &alice, &carol] {
        for app in ["devC/social", "devB/blog", "devD/recommender"] {
            p.policies.delegate_write(u.id, app);
        }
    }
    p.add_friend("bob", "alice");
    p.add_friend("alice", "bob");

    // Bob's chameleon profile: scifi hidden from carol.
    let (s, _) = invoke(&p, &bob, "devC/social", "POST", "set_profile", &[
        ("bio", "hi, I am bob"),
        ("interests", "scifi,cooking,chess"),
        ("hide", "scifi:carol"),
    ]);
    println!("bob sets chameleon profile: {s}");
    p.policies.grant_declassifier(bob.id, "public-read", GrantScope::App("devC/social".into()));

    for viewer in [&alice, &carol] {
        let (s, body) = invoke(&p, viewer, "devC/social", "GET", "view", &[("user", "bob")]);
        let scifi = if body.contains("scifi") { "sees scifi" } else { "scifi hidden" };
        println!("{} views bob's profile: {s} → {scifi}", viewer.username);
    }

    // Alice posts privately; bob's digest needs her friends-only grant.
    for (t, b) in [("jazz night", "a long post about jazz"), ("groceries", "a post about chores")] {
        let (s, _) = invoke(&p, &alice, "devB/blog", "POST", "post", &[("title", t), ("body", b)]);
        assert_eq!(s, 200);
    }
    let (s, _) = invoke(&p, &bob, "devD/recommender", "POST", "prefs", &[("keywords", "jazz")]);
    assert_eq!(s, 200);

    let (s, _) = invoke(&p, &bob, "devD/recommender", "GET", "digest", &[("n", "3")]);
    println!("bob's digest before alice grants: {s} (blocked — her tag is on it)");

    p.policies.grant_declassifier(alice.id, "friends-only", GrantScope::AllApps);
    let (s, body) = invoke(&p, &bob, "devD/recommender", "GET", "digest", &[("n", "3")]);
    println!("bob's digest after the grant:    {s}");
    for line in body.lines().filter(|l| l.contains("<li>")) {
        println!("   {}", line.trim());
    }

    // Carol (not alice's friend) still cannot pull alice's posts, even
    // through a different app: the grant travels with the *data*.
    let (s, _) = invoke(&p, &carol, "devB/blog", "GET", "read", &[("user", "alice"), ("title", "jazz night")]);
    println!("carol reads alice's post:        {s} (not her friend)");

    let stats = p.exporter.stats_view();
    println!("\nperimeter: {} checks, {} blocked", stats.checked, stats.blocked);
}
