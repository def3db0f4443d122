//! Two W5 providers mirroring a linked user's data (paper §3.3), over
//! real loopback TCP.
//!
//! ```sh
//! cargo run -p w5-examples --example federation_mirror
//! ```

use bytes::Bytes;
use std::sync::Arc;
use w5_federation::service::opt_in;
use w5_federation::{AccountLink, FederationService, SyncAgent};
use w5_net::{Server, ServerConfig};
use w5_platform::Platform;
use w5_store::Subject;

fn main() {
    const TOKEN: &str = "demo-peering-secret";

    // Two independent providers: separate tag registries, separate
    // accounts, separate everything.
    let a = Platform::new_default("provider-a");
    let b = Platform::new_default("provider-b");
    let bob_a = a.accounts.register("bob", "pw").unwrap();
    let bob_b = b.accounts.register("bob", "pw").unwrap();
    println!("bob@provider-a export tag: {}", bob_a.export_tag);
    println!("bob@provider-b export tag: {} (different tag space)", bob_b.export_tag);

    // Bob uploads a photo on A.
    let subject_a = Subject::new(
        w5_difc::LabelPair::public(),
        bob_a.owner_caps.clone(),
    );
    a.fs.create(&subject_a, "/photos/bob/cat.img", bob_a.data_labels(), Bytes::from_static(b"MEOW-V1"))
        .unwrap();

    // Each provider exposes a federation endpoint to its peer.
    let svc_a = FederationService::new(Arc::clone(&a), TOKEN);
    let server_a = Server::start("127.0.0.1:0", ServerConfig::default(), Arc::new(svc_a)).unwrap();
    println!("\nprovider-a federation endpoint: {}", server_a.addr());

    let agent_b = SyncAgent::new(Arc::clone(&b), TOKEN);
    let link = AccountLink { remote_user: "bob".into(), local_user: "bob".into() };

    // Without Bob's grant, provider A refuses its own peer.
    match agent_b.pull(server_a.addr(), &link) {
        Err(e) => println!("pull without opt-in: refused ({e})"),
        Ok(_) => unreachable!("must refuse"),
    }

    // Bob grants the import/export declassifier on A; one pull mirrors.
    opt_in(&a, bob_a.id);
    let report = agent_b.pull(server_a.addr(), &link).unwrap();
    println!("pull after opt-in: {report:?}");

    // The mirrored file exists on B, under B's labels.
    let subject_b = Subject::new(
        w5_difc::LabelPair::public(),
        bob_b.owner_caps.clone(),
    );
    let (data, labels) = b.fs.read(&subject_b, "/photos/bob/cat.img").unwrap();
    println!(
        "mirrored on b: {:?}, secrecy carries bob@b's tag: {}",
        std::str::from_utf8(&data).unwrap(),
        labels.secrecy.contains(bob_b.export_tag)
    );

    // An update on A propagates on the next pull; a no-op pull converges.
    a.fs.write(&subject_a, "/photos/bob/cat.img", Bytes::from_static(b"MEOW-V2")).unwrap();
    println!("after update: {:?}", agent_b.pull(server_a.addr(), &link).unwrap());
    println!("converged:    {:?}", agent_b.pull(server_a.addr(), &link).unwrap());

    server_a.shutdown();
}
