//! Allocations on the request path, counted: a deterministic gate on what
//! the perimeter and a store call cost, where timings on a shared host are
//! not.
//!
//! A counting allocator wraps `System` for this binary alone and counts
//! per thread, so tests running beside each other do not see each other's
//! allocations. Every measured call is preceded by enough identical calls
//! to fill the bounded rings it writes (audit, ledger), so amortised ring
//! growth is not charged to the call measured.

use bytes::Bytes;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use w5_difc::{CapSet, Capability, LabelPair};
use w5_obs::Name;
use w5_platform::principal::Account;
use w5_platform::{Platform, RelationshipOracle};
use w5_sim::{build_population, PopulationConfig, World};
use w5_store::Subject;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count_one() {
    // `try_with`: an allocation during thread teardown is not counted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; counting touches only a const-initialised thread-local `Cell`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Run `f` once to warm up, `WARM` more times, then once more, counted.
fn allocations<T>(mut f: impl FnMut() -> T) -> u64 {
    // More calls than the largest ring the path writes holds (the ledger's
    // 4,096 events; the perimeter's audit keeps 64 per label).
    const WARM: usize = 10_001;
    for _ in 0..WARM {
        drop(f());
    }
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    let after = ALLOCATIONS.with(Cell::get);
    drop(out);
    after - before
}

fn world(users: usize) -> World {
    build_population(
        Platform::new_default("allocations"),
        PopulationConfig {
            users,
            photos_per_user: 2,
            posts_per_user: 8,
            seed: 7,
            ..PopulationConfig::default()
        },
    )
}

/// A friend pair of the world: (owner, viewer).
fn friends(w: &World) -> (&Account, &Account) {
    let (a, b) = w.graph.edges[0];
    (&w.accounts[a], &w.accounts[b])
}

fn export_check(w: &World, owner: &Account, viewer: &Account) -> u64 {
    let p = &w.platform;
    let app = Name::from("devA/photos");
    let oracle = p.oracle();
    allocations(|| {
        let d = p.exporter.decide(
            &owner.data_labels(),
            Some(viewer),
            &app,
            &p.accounts,
            &p.policies,
            &p.declassifiers,
            &oracle,
        );
        assert!(d.allowed);
        d
    })
}

#[test]
fn an_owner_session_export_allocates_only_its_clearance_list() {
    let w = world(200);
    let (owner, _) = friends(&w);
    let n = export_check(&w, owner, owner);
    assert!(n <= 1, "{n} allocations");
}

#[test]
fn a_friends_only_export_stays_within_its_budget() {
    let w = world(200);
    let (owner, viewer) = friends(&w);
    assert!(w
        .platform
        .oracle()
        .are_friends(&owner.username, &viewer.username));
    let n = export_check(&w, owner, viewer);
    assert!(n <= 5, "{n} allocations");
}

/// A process as a store call meets it: tainted with the owner's data and
/// holding one private capability.
fn store_process(w: &World) -> w5_kernel::ProcessId {
    let (owner, viewer) = friends(w);
    let p = &w.platform;
    let grant = CapSet::from_caps([Capability::plus(viewer.write_tag)]);
    let pid = p
        .kernel
        .create_process("app:alloc", LabelPair::public(), grant, p.config.app_limits);
    p.kernel.taint_for_read(pid, &owner.data_labels()).unwrap();
    pid
}

#[test]
fn a_store_call_subject_allocates_nothing() {
    let w = world(200);
    let pid = store_process(&w);
    let n = allocations(|| {
        let (labels, caps) = w.platform.kernel.subject(pid).unwrap();
        Subject::new(labels, caps)
    });
    assert_eq!(n, 0);
}

/// The allocations of one store call — its subject, then a read of a
/// user's photo by a process holding one private capability — on a
/// provider of `users` users (each adds two tags, one of them to `Ô`).
fn store_call(users: usize) -> u64 {
    let p = Platform::new_default("allocations-store");
    let accounts: Vec<Account> = (0..users)
        .map(|i| p.accounts.register(&format!("user{i}"), "pw").unwrap())
        .collect();
    let (owner, viewer) = (&accounts[0], &accounts[1]);
    let path = "/photos/user0/photo0";
    let owner_subject = Subject::new(LabelPair::public(), owner.owner_caps.clone());
    p.fs.create(
        &owner_subject,
        path,
        owner.data_labels(),
        Bytes::from_static(b"photo"),
    )
    .unwrap();
    let grant = CapSet::from_caps([Capability::plus(viewer.write_tag)]);
    let pid = p
        .kernel
        .create_process("app:alloc", LabelPair::public(), grant, p.config.app_limits);
    p.kernel.taint_for_read(pid, &owner.data_labels()).unwrap();
    allocations(|| {
        let (labels, caps) = p.kernel.subject(pid).unwrap();
        p.fs.read(&Subject::new(labels, caps), path).unwrap()
    })
}

#[test]
fn a_store_call_costs_the_same_allocations_at_any_provider_size() {
    assert_eq!(store_call(200), store_call(20_000));
}

#[test]
fn a_friends_photo_view_stays_within_its_budget() {
    let w = world(200);
    let (owner, viewer) = friends(&w);
    let p = &w.platform;
    let request = || {
        Platform::make_request(
            "GET",
            "view",
            &[("user", owner.username.as_str()), ("name", "photo0")],
            Some(viewer),
            Bytes::new(),
        )
    };
    // The request is the caller's, not the invoke's.
    let mut requests = std::iter::repeat_with(request)
        .take(10_003)
        .collect::<Vec<_>>();
    let n = allocations(|| {
        let out = p.invoke(Some(viewer), "devA/photos", requests.pop().unwrap());
        assert_eq!(out.status, 200);
        out
    });
    assert!(n <= 18, "{n} allocations");
}

/// Parsing allocates the statement it returns — its names, literals,
/// boxes and lists — and one token buffer; the tokens borrow the text.
#[test]
fn parsing_the_blog_list_allocates_only_its_statement() {
    let sql = "SELECT title FROM blog_posts WHERE owner = 'user17' ORDER BY title";
    let n = allocations(|| w5_store::sql::parse(sql).unwrap());
    assert!(n <= 14, "{n} allocations");
}

/// The allocations of one blog list: a friend's page of `rows` posts, read
/// by a process as a store call meets it ([`store_process`]), statement
/// text parsed in the call as the blog app's is.
fn blog_list(rows: usize) -> u64 {
    let w = world(200);
    let (owner, _) = friends(&w);
    let p = &w.platform;
    let writer = Subject::new(LabelPair::public(), owner.owner_caps.clone());
    let run = |sql: &str| {
        let cost = w5_store::QueryCost::unlimited();
        p.db.execute(&writer, w5_store::QueryMode::Filtered, cost, &owner.data_labels(), sql).unwrap()
    };
    let mine = format!("FROM blog_posts WHERE owner = '{}'", owner.username);
    let have = match run(&format!("SELECT COUNT(*) {mine}")).row(0).values[0] {
        w5_store::Value::Int(n) => n as usize,
        _ => unreachable!(),
    };
    let posts: Vec<String> =
        (have..rows).map(|i| format!("('{}', 'post {i:05}', 'body')", owner.username)).collect();
    run(&format!("INSERT INTO blog_posts (owner, title, body) VALUES {}", posts.join(", ")));
    let sql = format!("SELECT title {mine} ORDER BY title");
    let pid = store_process(&w);
    allocations(|| {
        let (labels, caps) = p.kernel.subject(pid).unwrap();
        let cost = p.config.query_cost;
        let out = p
            .db
            .execute(&Subject::new(labels, caps), w5_store::QueryMode::Filtered, cost, &LabelPair::public(), &sql)
            .unwrap();
        assert_eq!(out.rows().len(), rows);
        out
    })
}

/// A result is one buffer of cells, so a blog list allocates one title per
/// row and a constant beside them: its statement (see the parse test
/// above), the result's buffers, and the scan's list of matches, which
/// doubles as it grows (three more from 250 rows to 1,000, with the sort's
/// scratch). Built row by row, a result allocated two per row.
#[test]
fn a_blog_list_allocates_one_per_title_and_a_constant() {
    for rows in [250, 1_000] {
        let n = blog_list(rows);
        assert!(n <= rows as u64 + 32, "{rows} rows: {n} allocations");
    }
}
