//! Scenario tests: the paper's §2 examples and §3 attacks, end to end on
//! the platform.

use bytes::Bytes;
use std::sync::Arc;
use w5_apps::{install_all, photos::upload_test_photo};
use w5_platform::{Account, GrantScope, Platform};

struct World {
    p: Arc<Platform>,
    bob: Account,
    alice: Account,
    carol: Account,
}

/// bob ↔ alice are friends; carol is a stranger. Everyone delegates write
/// to the honest apps they use.
fn world() -> World {
    let p = Platform::new_default("test");
    install_all(&p);
    let bob = p.accounts.register("bob", "pw").unwrap();
    let alice = p.accounts.register("alice", "pw").unwrap();
    let carol = p.accounts.register("carol", "pw").unwrap();
    for u in [&bob, &alice, &carol] {
        for app in ["devA/photos", "devB/blog", "devC/social", "devD/recommender", "devD/dating"] {
            p.policies.delegate_write(u.id, app);
            p.policies.enroll(u.id, app);
        }
    }
    p.add_friend("bob", "alice");
    p.add_friend("alice", "bob");
    World { p, bob, alice, carol }
}

fn invoke(
    w: &World,
    viewer: Option<&Account>,
    app: &str,
    method: &str,
    action: &str,
    params: &[(&str, &str)],
) -> w5_platform::InvokeResult {
    let req = Platform::make_request(method, action, params, viewer, Bytes::new());
    w.p.invoke(viewer, app, req)
}

#[test]
fn photo_upload_view_and_module_choice() {
    let w = world();
    assert_eq!(upload_test_photo(&w.p, &w.bob, "cat", 10), 200);

    // Bob views his own photo.
    let r = invoke(&w, Some(&w.bob), "devA/photos", "GET", "view", &[("user", "bob"), ("name", "cat")]);
    assert_eq!(r.status, 200);

    // Default crop module is devA (top-left ⇒ first pixel 0).
    let r = invoke(
        &w,
        Some(&w.bob),
        "devA/photos",
        "GET",
        "crop",
        &[("user", "bob"), ("name", "cat"), ("w", "4"), ("h", "4")],
    );
    assert_eq!(r.status, 200);
    let img = w5_apps::image::Image::decode(&r.body).unwrap();
    assert_eq!(img.get(0, 0), 0, "devA crops top-left");

    // Bob switches to devB's centered cropper — pure policy, no app change.
    w.p.policies.choose_module(w.bob.id, "devA/photos", "crop", "devB");
    let r = invoke(
        &w,
        Some(&w.bob),
        "devA/photos",
        "GET",
        "crop",
        &[("user", "bob"), ("name", "cat"), ("w", "4"), ("h", "4")],
    );
    assert_eq!(r.status, 200);
    let img = w5_apps::image::Image::decode(&r.body).unwrap();
    assert_eq!(img.get(0, 0), 6, "devB crops centered");

    // Alice (friend, but no grant yet) cannot see Bob's photo.
    let r = invoke(&w, Some(&w.alice), "devA/photos", "GET", "view", &[("user", "bob"), ("name", "cat")]);
    assert_eq!(r.status, 403);
    // With a friends-only grant she can.
    w.p.policies
        .grant_declassifier(w.bob.id, "friends-only", GrantScope::App("devA/photos".into()));
    let r = invoke(&w, Some(&w.alice), "devA/photos", "GET", "view", &[("user", "bob"), ("name", "cat")]);
    assert_eq!(r.status, 200);
    // Carol (stranger) still cannot.
    let r = invoke(&w, Some(&w.carol), "devA/photos", "GET", "view", &[("user", "bob"), ("name", "cat")]);
    assert_eq!(r.status, 403);
}

#[test]
fn blog_post_and_cross_user_reads() {
    let w = world();
    let r = invoke(
        &w,
        Some(&w.bob),
        "devB/blog",
        "POST",
        "post",
        &[("title", "hello"), ("body", "my first post about rust")],
    );
    assert_eq!(r.status, 200, "{:?}", String::from_utf8_lossy(&r.body));

    // Bob lists and reads his own blog.
    let r = invoke(&w, Some(&w.bob), "devB/blog", "GET", "list", &[("user", "bob")]);
    assert_eq!(r.status, 200);
    assert!(String::from_utf8_lossy(&r.body).contains("hello"));
    let r = invoke(&w, Some(&w.bob), "devB/blog", "GET", "read", &[("user", "bob"), ("title", "hello")]);
    assert_eq!(r.status, 200);
    assert!(String::from_utf8_lossy(&r.body).contains("rust"));

    // The world reads it only after a public grant — the "private blog"
    // default of §1.
    let r = invoke(&w, None, "devB/blog", "GET", "read", &[("user", "bob"), ("title", "hello")]);
    assert_eq!(r.status, 403);
    w.p.policies
        .grant_declassifier(w.bob.id, "public-read", GrantScope::App("devB/blog".into()));
    let r = invoke(&w, None, "devB/blog", "GET", "read", &[("user", "bob"), ("title", "hello")]);
    assert_eq!(r.status, 200);
}

#[test]
fn chameleon_profile_adjusts_by_viewer() {
    let w = world();
    // Bob hides scifi from carol (his love interest), not from alice.
    let r = invoke(
        &w,
        Some(&w.bob),
        "devC/social",
        "POST",
        "set_profile",
        &[
            ("bio", "hi"),
            ("interests", "scifi,cooking"),
            ("hide", "scifi:carol"),
        ],
    );
    assert_eq!(r.status, 200, "{:?}", String::from_utf8_lossy(&r.body));
    w.p.policies
        .grant_declassifier(w.bob.id, "public-read", GrantScope::App("devC/social".into()));

    let r = invoke(&w, Some(&w.alice), "devC/social", "GET", "view", &[("user", "bob")]);
    assert_eq!(r.status, 200);
    assert!(String::from_utf8_lossy(&r.body).contains("scifi"));

    let r = invoke(&w, Some(&w.carol), "devC/social", "GET", "view", &[("user", "bob")]);
    assert_eq!(r.status, 200);
    let body = String::from_utf8_lossy(&r.body).into_owned();
    assert!(!body.contains("scifi"), "{body}");
    assert!(body.contains("cooking"));
}

#[test]
fn feed_commingles_and_requires_every_grant() {
    let w = world();
    // Alice and Bob both have profiles; Bob's feed shows Alice (his friend).
    for (u, bio) in [(&w.bob, "bob here"), (&w.alice, "alice here")] {
        let r = invoke(&w, Some(u), "devC/social", "POST", "set_profile", &[("bio", bio), ("interests", "x")]);
        assert_eq!(r.status, 200);
    }
    // Bob's feed contains Alice's data ⇒ carries her tag ⇒ blocked until
    // she grants something that clears Bob.
    let r = invoke(&w, Some(&w.bob), "devC/social", "GET", "feed", &[]);
    assert_eq!(r.status, 403, "alice's tag blocks bob's own feed");
    w.p.policies
        .grant_declassifier(w.alice.id, "friends-only", GrantScope::App("devC/social".into()));
    let r = invoke(&w, Some(&w.bob), "devC/social", "GET", "feed", &[]);
    assert_eq!(r.status, 200, "{:?}", String::from_utf8_lossy(&r.body));
    assert!(String::from_utf8_lossy(&r.body).contains("alice here"));
}

#[test]
fn recommender_digest_over_friends_posts() {
    let w = world();
    // Alice posts two entries; Bob sets preferences and asks for a digest.
    for (t, b) in [("jazz night", "a post about jazz"), ("laundry", "chores")] {
        let r = invoke(&w, Some(&w.alice), "devB/blog", "POST", "post", &[("title", t), ("body", b)]);
        assert_eq!(r.status, 200);
    }
    let r = invoke(&w, Some(&w.bob), "devD/recommender", "POST", "prefs", &[("keywords", "jazz")]);
    assert_eq!(r.status, 200);

    // The digest reads Alice's posts ⇒ blocked until she clears Bob.
    let r = invoke(&w, Some(&w.bob), "devD/recommender", "GET", "digest", &[("n", "5")]);
    assert_eq!(r.status, 403);
    w.p.policies
        .grant_declassifier(w.alice.id, "friends-only", GrantScope::AllApps);
    let r = invoke(&w, Some(&w.bob), "devD/recommender", "GET", "digest", &[("n", "5")]);
    assert_eq!(r.status, 200, "{:?}", String::from_utf8_lossy(&r.body));
    let body = String::from_utf8_lossy(&r.body).into_owned();
    // jazz-scored item ranks first.
    let jazz_pos = body.find("jazz night").expect("jazz item present");
    let chores_pos = body.find("laundry").expect("laundry item present");
    assert!(jazz_pos < chores_pos, "{body}");
}

#[test]
fn dating_match_with_custom_metric() {
    let w = world();
    for (u, scores, weights) in [
        (&w.bob, "9,0,0,0,9", Some("10,1,1,1,1")), // music-weighted metric
        (&w.alice, "9,0,0,0,0", None),
        (&w.carol, "0,0,0,0,9", None),
    ] {
        let mut params = vec![("scores", scores)];
        if let Some(ws) = weights {
            params.push(("weights", ws));
        }
        let r = invoke(&w, Some(u), "devD/dating", "POST", "profile", &params);
        assert_eq!(r.status, 200);
    }
    // Candidates must clear Bob for even the scores to export.
    for u in [&w.alice, &w.carol] {
        w.p.policies
            .grant_declassifier(u.id, "public-read", GrantScope::App("devD/dating".into()));
    }
    let r = invoke(
        &w,
        Some(&w.bob),
        "devD/dating",
        "GET",
        "match",
        &[("candidates", "alice,carol")],
    );
    assert_eq!(r.status, 200, "{:?}", String::from_utf8_lossy(&r.body));
    let body = String::from_utf8_lossy(&r.body).into_owned();
    // Bob's music-heavy metric ranks alice (music match) above carol.
    let a = body.find("alice").unwrap();
    let c = body.find("carol").unwrap();
    assert!(a < c, "{body}");
}

// ---------------------------------------------------------------------
// The §3 attack suite.
// ---------------------------------------------------------------------

#[test]
fn attack_direct_theft_blocked() {
    let w = world();
    assert_eq!(upload_test_photo(&w.p, &w.bob, "private", 8), 200);
    // Carol uses the exfiltrator to steal Bob's photo.
    let r = invoke(
        &w,
        Some(&w.carol),
        "mal/exfiltrator",
        "GET",
        "steal",
        &[("path", "/photos/bob/private")],
    );
    assert_eq!(r.status, 403, "perimeter must block");
    assert!(!String::from_utf8_lossy(&r.body).contains("W5IMG"), "no pixels in error");
    // Bob using the same evil app on his own data: allowed (it's his).
    let r = invoke(
        &w,
        Some(&w.bob),
        "mal/exfiltrator",
        "GET",
        "steal",
        &[("path", "/photos/bob/private")],
    );
    assert_eq!(r.status, 200, "evil code may serve the owner");
}

#[test]
fn attack_confederate_blocked() {
    let w = world();
    assert_eq!(upload_test_photo(&w.p, &w.bob, "private", 8), 200);
    // Stage 1: carol stashes. The stash itself is tainted, so even the
    // "stashed at …" confirmation cannot reach her.
    let r = invoke(
        &w,
        Some(&w.carol),
        "mal/stasher",
        "GET",
        "stash",
        &[("path", "/photos/bob/private"), ("tag", "77")],
    );
    assert_eq!(r.status, 403);
    // Stage 2: even so, suppose the file exists — the confederate's export
    // is blocked by the same tag on the drop file.
    let r = invoke(&w, Some(&w.carol), "mal/confederate", "GET", "fetch", &[("tag", "77")]);
    assert!(r.status == 403 || r.status == 404, "got {}", r.status);
}

#[test]
fn attack_vandalism_and_deletion_blocked() {
    let w = world();
    assert_eq!(upload_test_photo(&w.p, &w.bob, "precious", 8), 200);
    let r = invoke(&w, Some(&w.carol), "mal/vandal", "POST", "x", &[("path", "/photos/bob/precious")]);
    assert_eq!(r.status, 403);
    let r = invoke(&w, Some(&w.carol), "mal/deleter", "POST", "x", &[("path", "/photos/bob/precious")]);
    assert_eq!(r.status, 403);
    // The file is intact.
    let r = invoke(&w, Some(&w.bob), "devA/photos", "GET", "view", &[("user", "bob"), ("name", "precious")]);
    assert_eq!(r.status, 200);
}

#[test]
fn attack_misrepresentation_is_detectable() {
    let w = world();
    // Carol plants a fake "bob" photo. Creation at unvouched labels is
    // permitted (it's just a write of carol-derived data)…
    let r = invoke(&w, Some(&w.carol), "mal/misrepresenter", "POST", "x", &[("victim", "bob")]);
    assert_eq!(r.status, 200);
    assert!(String::from_utf8_lossy(&r.body).contains("integrity tags: 0"));
    // …but a genuine photo of Bob's carries his write-protection tag, so
    // consumers can tell them apart.
    assert_eq!(upload_test_photo(&w.p, &w.bob, "real", 4), 200);
    let subject = w5_store::Subject::new(
        w5_difc::LabelPair::public(),
        w.p.registry.effective(&w5_difc::CapSet::empty()),
    );
    let real = w.p.fs.stat(&subject, "/photos/bob/real").unwrap();
    let fake = w.p.fs.stat(&subject, "/photos/bob/planted.img").unwrap();
    assert!(real.labels.integrity.contains(w.bob.write_tag));
    assert!(!fake.labels.integrity.contains(w.bob.write_tag));
}

#[test]
fn attack_crash_leak_redacted() {
    let w = world();
    assert_eq!(upload_test_photo(&w.p, &w.bob, "secret", 4), 200);
    let r = invoke(
        &w,
        Some(&w.carol),
        "mal/crashleaker",
        "GET",
        "x",
        &[("path", "/photos/bob/secret")],
    );
    assert_eq!(r.status, 500);
    let report = r.fault.expect("fault recorded");
    assert!(report.redacted, "tainted crash must redact");
    assert_eq!(report.detail, None);
}

#[test]
fn attack_covert_channel_never_exports_the_count() {
    // The §3.5 SQL covert channel. Under W5 the *value* can never reach
    // the receiver: counting a tainted row taints the counting instance,
    // so the response is blocked at the perimeter — and, crucially, every
    // blocked probe leaves an audit entry. (Contrast the naive store,
    // measured in E9, where the count leaks silently.) Rows under
    // read-protect tags are invisible outright; that arm is covered by the
    // w5-store test `read_protected_rows_are_invisible_and_uncountable`.
    let w = world();
    assert_eq!(upload_test_photo(&w.p, &w.bob, "bit", 4), 200);
    let blocked_before = w.p.exporter.stats_view().blocked;

    // Receiver baseline: no tainted rows ⇒ plain "0".
    let r = invoke(&w, Some(&w.carol), "mal/covert", "GET", "recv", &[]);
    assert_eq!(r.status, 200);
    assert_eq!(String::from_utf8_lossy(&r.body), "0");

    // Sender transmits bit=1 using Bob's secret as the taint source.
    let r = invoke(
        &w,
        Some(&w.carol),
        "mal/covert",
        "GET",
        "send",
        &[("path", "/photos/bob/bit"), ("bit", "1")],
    );
    // The send's own confirmation is already blocked (the instance is
    // tainted), whatever the bit was.
    assert_eq!(r.status, 403);

    // The receiver probes. It never sees "1": the count taints the
    // instance with Bob's tag and the perimeter blocks the response.
    let r = invoke(&w, Some(&w.carol), "mal/covert", "GET", "recv", &[]);
    assert_eq!(r.status, 403);
    assert!(!String::from_utf8_lossy(&r.body).contains('1'), "count must not leak");

    // Every probe left an audit trail for the provider.
    let blocked_after = w.p.exporter.stats_view().blocked;
    assert!(blocked_after >= blocked_before + 2, "blocks are audited");
    let log = w.p.exporter.audit_log();
    assert!(log.iter().any(|e| !e.allowed && e.app == "mal/covert"));
}

/// The list pages, byte for byte as they leave the perimeter: the pages'
/// builders and the HTML filter may get faster, never different.
#[test]
fn list_pages_are_pinned_byte_for_byte() {
    let w = world();
    let page = |viewer: &Account, app: &str, action: &str, params: &[(&str, &str)]| {
        let r = invoke(&w, Some(viewer), app, "GET", action, params);
        assert_eq!(r.status, 200, "{app} {action}");
        String::from_utf8(r.body.to_vec()).unwrap()
    };
    for title in ["zebra", "<b onclick=steal()>bold</b>", "a post"] {
        let r = invoke(&w, Some(&w.bob), "devB/blog", "POST", "post", &[("title", title)]);
        assert_eq!(r.status, 200);
    }
    assert_eq!(
        page(&w.bob, "devB/blog", "list", &[("user", "bob")]),
        "<html><body><h1>bob's blog</h1><ul><li><b>bold</b></li><li>a post</li>\
         <li>zebra</li></ul></body></html>"
    );

    assert_eq!(upload_test_photo(&w.p, &w.bob, "cat", 4), 200);
    assert_eq!(upload_test_photo(&w.p, &w.bob, "dog", 2), 200);
    assert_eq!(
        page(&w.bob, "devA/photos", "list", &[("user", "bob")]),
        "<html><body><h1>bob's photos</h1><ul><li>/photos/bob/cat (26 bytes)</li>\
         <li>/photos/bob/dog (14 bytes)</li></ul></body></html>"
    );

    let profile = [("bio", "hi"), ("interests", "scifi,cooking"), ("hide", "scifi:carol")];
    let r = invoke(&w, Some(&w.alice), "devC/social", "POST", "set_profile", &profile);
    assert_eq!(r.status, 200);
    w.p.policies
        .grant_declassifier(w.alice.id, "friends-only", GrantScope::App("devC/social".into()));
    assert_eq!(
        page(&w.bob, "devC/social", "view", &[("user", "alice")]),
        "<html><body><h1>alice</h1><p>hi</p><ul><li>cooking</li><li>scifi</li></ul></body></html>"
    );
    w.p.add_friend("bob", "carol");
    assert_eq!(
        page(&w.bob, "devC/social", "feed", &[]),
        "<html><body><h1>bob's feed</h1><h2>alice</h2><p>hi</p><h2>carol</h2>\
         <p>(no profile)</p></body></html>"
    );
}
