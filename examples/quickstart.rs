//! Quickstart: boot a W5 provider, serve it over HTTP, sign up a user,
//! store a private note through an untrusted app, and watch the export
//! perimeter do its job.
//!
//! ```sh
//! cargo run -p w5-examples --example quickstart
//! ```

use std::sync::Arc;
use w5_net::{HttpClient, Server, ServerConfig};
use w5_platform::{Gateway, Platform, SESSION_COOKIE};

fn main() {
    // 1. Boot a provider: tag registry, DIFC kernel, labeled storage,
    //    accounts, declassifier catalog, perimeter — one call.
    let platform = Platform::new_default("quickstart-provider");
    w5_apps::install_all(&platform);

    // 2. Put the HTTP front end on a real socket. Any of "today's Web
    //    clients" can talk to it; we use the bundled client.
    let gateway = Gateway::new(Arc::clone(&platform));
    let server = Server::start("127.0.0.1:0", ServerConfig::default(), Arc::new(gateway)).unwrap();
    let addr = server.addr();
    println!("provider listening on http://{addr}");

    let client = HttpClient::new();

    // 3. Bob signs up (one account, for every app on the platform).
    let resp = client
        .post(addr, "/signup", "application/x-www-form-urlencoded", b"user=bob&password=hunter2")
        .unwrap();
    let cookie = w5_platform::session_cookie_of(&resp).expect("session cookie");
    let bob_cookie = format!("{}={}", SESSION_COOKIE, cookie.value);
    let auth = [("cookie", bob_cookie.as_str())];
    println!("signed up bob → session cookie {}…", &cookie.value[..8]);

    // 4. Bob lets the blog app write on his behalf (exercise his w_bob+),
    //    then posts. The post rows carry S={e_bob}, I={w_bob}.
    client
        .post_with_headers(addr, "/policy/delegate-write", "application/x-www-form-urlencoded",
            b"app=devB/blog", &auth)
        .unwrap();
    let resp = client
        .post_with_headers(addr, "/app/devB/blog/post", "application/x-www-form-urlencoded",
            b"title=hello&body=my+private+thoughts", &auth)
        .unwrap();
    println!("bob posts: {} {}", resp.status.0, resp.body_string().trim());

    // 5. Bob reads it back — his own export tag clears at the perimeter.
    let resp = client
        .get_with_headers(addr, "/app/devB/blog/read?user=bob&title=hello", &auth)
        .unwrap();
    println!("bob reads his blog: {} ({} bytes)", resp.status.0, resp.body.len());

    // 6. An anonymous visitor tries the same URL: the app runs, reads the
    //    data, renders the page — and the perimeter refuses to export it.
    let resp = client.get(addr, "/app/devB/blog/read?user=bob&title=hello").unwrap();
    println!("anonymous visitor: {} ({})", resp.status.0, resp.body_string().trim());

    // 7. Bob flips one policy switch — "public-read for my blog" — and the
    //    same request succeeds. No application code changed.
    client
        .post_with_headers(addr, "/policy/grant", "application/x-www-form-urlencoded",
            b"declassifier=public-read&app=devB/blog", &auth)
        .unwrap();
    let resp = client.get(addr, "/app/devB/blog/read?user=bob&title=hello").unwrap();
    println!("after public-read grant: {} ({} bytes)", resp.status.0, resp.body.len());

    let stats = platform.exporter.stats_view();
    println!(
        "\nperimeter: {} exports checked, {} blocked, {} declassifier consultations",
        stats.checked, stats.blocked, stats.declassifier_calls
    );
    server.shutdown();
}
