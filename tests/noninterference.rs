//! Randomized noninterference check — the strongest claim the platform
//! makes, fuzzed end to end.
//!
//! Every user's data contains a unique sentinel string. A randomized
//! driver performs thousands of actions (uploads, posts, reads, digests,
//! malicious exfiltration attempts, policy changes) as random users, and
//! after *every* delivered response asserts the core invariant:
//!
//! > a response handed to viewer V may contain user U's sentinel only if
//! > V == U, or U's policy at this moment grants a declassifier that
//! > clears V for the producing application.
//!
//! The perimeter decides with labels, not by string matching, so this test
//! checks the mechanism against an independent oracle.

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use w5_platform::{Account, GrantScope, Platform};

const USERS: usize = 6;

struct Oracle {
    /// (owner, app) → friends-only granted.
    friends_only: Vec<Vec<bool>>, // [owner][app]
    /// (owner, app) → public-read granted.
    public_read: Vec<Vec<bool>>,
    /// friendship matrix [owner][viewer].
    friends: Vec<Vec<bool>>,
}

const APPS: [&str; 4] = ["devA/photos", "devB/blog", "mal/exfiltrator", "devD/recommender"];

impl Oracle {
    fn new() -> Oracle {
        Oracle {
            friends_only: vec![vec![false; APPS.len()]; USERS],
            public_read: vec![vec![false; APPS.len()]; USERS],
            friends: vec![vec![false; USERS]; USERS],
        }
    }

    /// May `viewer` see `owner`'s data through `app_ix`, per policy?
    fn allowed(&self, owner: usize, viewer: usize, app_ix: usize) -> bool {
        if owner == viewer {
            return true;
        }
        if self.public_read[owner][app_ix] {
            return true;
        }
        self.friends_only[owner][app_ix] && self.friends[owner][viewer]
    }
}

fn sentinel(u: usize) -> String {
    format!("SENTINEL-{u}-SECRET-PAYLOAD")
}

#[test]
fn randomized_noninterference() {
    let p = Platform::new_default("fuzz");
    w5_apps::install_all(&p);
    let accounts: Vec<Account> = (0..USERS)
        .map(|i| p.accounts.register(&format!("user{i}"), "pw").unwrap())
        .collect();
    for a in &accounts {
        for app in APPS {
            p.policies.delegate_write(a.id, app);
        }
    }
    // Every user stores their sentinel as a blog post and as a file.
    for (i, a) in accounts.iter().enumerate() {
        let req = Platform::make_request(
            "POST",
            "post",
            &[("title", "diary"), ("body", &sentinel(i))],
            Some(a),
            Bytes::new(),
        );
        assert_eq!(p.invoke(Some(a), "devB/blog", req).status, 200);
        // A sentinel-bearing file too, for the exfiltrator to aim at.
        let subject = w5_store::Subject::new(
            w5_difc::LabelPair::public(),
            a.owner_caps.clone(),
        );
        p.fs.create(
            &subject,
            &format!("/photos/{}/x", a.username),
            a.data_labels(),
            Bytes::from(sentinel(i)),
        )
        .unwrap();
    }

    let mut oracle = Oracle::new();
    let mut rng = StdRng::seed_from_u64(20070824);
    let mut delivered = 0u32;
    let mut blocked = 0u32;

    for step in 0..3000 {
        match rng.gen_range(0..10) {
            // Policy mutations.
            0 => {
                let owner = rng.gen_range(0..USERS);
                let app_ix = rng.gen_range(0..APPS.len());
                p.policies.grant_declassifier(
                    accounts[owner].id,
                    "friends-only",
                    GrantScope::App(APPS[app_ix].into()),
                );
                oracle.friends_only[owner][app_ix] = true;
            }
            1 => {
                let owner = rng.gen_range(0..USERS);
                let app_ix = rng.gen_range(0..APPS.len());
                p.policies.grant_declassifier(
                    accounts[owner].id,
                    "public-read",
                    GrantScope::App(APPS[app_ix].into()),
                );
                oracle.public_read[owner][app_ix] = true;
            }
            2 => {
                // Revocation: drop all grants for one user (perimeter must
                // respect it immediately).
                let owner = rng.gen_range(0..USERS);
                p.policies.revoke_declassifier(accounts[owner].id, "friends-only");
                p.policies.revoke_declassifier(accounts[owner].id, "public-read");
                for x in 0..APPS.len() {
                    oracle.friends_only[owner][x] = false;
                    oracle.public_read[owner][x] = false;
                }
            }
            3 => {
                let owner = rng.gen_range(0..USERS);
                let viewer = rng.gen_range(0..USERS);
                if owner != viewer && !oracle.friends[owner][viewer] {
                    p.add_friend(&accounts[owner].username, &accounts[viewer].username);
                    oracle.friends[owner][viewer] = true;
                }
            }
            // Reads through honest and malicious apps.
            _ => {
                let owner = rng.gen_range(0..USERS);
                let viewer = rng.gen_range(0..USERS);
                let (app_ix, action, params): (usize, &str, Vec<(String, String)>) =
                    match rng.gen_range(0..3) {
                        0 => (
                            1,
                            "read",
                            vec![
                                ("user".into(), accounts[owner].username.clone()),
                                ("title".into(), "diary".into()),
                            ],
                        ),
                        1 => (
                            2,
                            "steal",
                            vec![("path".into(), format!("/photos/{}/x", accounts[owner].username))],
                        ),
                        _ => (
                            1,
                            "list",
                            vec![("user".into(), accounts[owner].username.clone())],
                        ),
                    };
                let param_refs: Vec<(&str, &str)> =
                    params.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
                let req = Platform::make_request(
                    "GET",
                    action,
                    &param_refs,
                    Some(&accounts[viewer]),
                    Bytes::new(),
                );
                let r = p.invoke(Some(&accounts[viewer]), APPS[app_ix], req);
                if r.status == 200 {
                    delivered += 1;
                    let body = String::from_utf8_lossy(&r.body);
                    for u in 0..USERS {
                        if body.contains(&sentinel(u)) {
                            assert!(
                                oracle.allowed(u, viewer, app_ix),
                                "step {step}: viewer {viewer} received user {u}'s sentinel via \
                                 {} without authorization",
                                APPS[app_ix]
                            );
                        }
                    }
                } else if r.status == 403 {
                    blocked += 1;
                    assert!(
                        !String::from_utf8_lossy(&r.body).contains("SENTINEL"),
                        "step {step}: denial body leaked a sentinel"
                    );
                }
            }
        }
    }
    // Sanity: the fuzz actually exercised both outcomes.
    assert!(delivered > 100, "delivered={delivered}");
    assert!(blocked > 100, "blocked={blocked}");

    // And fault reports never leaked a sentinel either.
    for report in p.fault_reports() {
        if let Some(d) = &report.detail {
            assert!(!d.contains("SENTINEL"), "fault report leaked: {d}");
        }
    }
}

mod scan_cost {
    //! Noninterference for the *cost* channel of the partitioned store.
    //!
    //! `QueryOutput::scanned` is observable (the platform charges CPU by
    //! it) and a `BudgetExhausted` verdict even more so. Partition
    //! pruning must therefore charge a flat one unit per unreadable
    //! partition, never a function of how many rows hide inside. These
    //! tests difference two worlds that are identical except for the
    //! *size* of a hidden partition and demand bit-identical costs and
    //! verdicts for a subject that cannot read it — once with the hidden
    //! rows beyond every key the stranger asks for, and once with the
    //! hidden partition holding the very keys the stranger probes.

    use std::sync::Arc;
    use w5_difc::{CapSet, Label, LabelPair, TagKind, TagRegistry};
    use w5_store::{Database, QueryCost, QueryError, QueryMode, Subject};

    const VISIBLE: usize = 500;

    /// A world with 500 public rows and `hidden` rows in one secret
    /// partition the returned stranger cannot read, with ids past every
    /// visible one.
    fn world(hidden: usize) -> (Database, Subject) {
        world_with(hidden, |i| VISIBLE + i)
    }

    /// The same world with the hidden partition *holding the probed keys*:
    /// `copies` rows with `id = 7` and `copies` spread over the
    /// `id >= 10 AND id < 20` window.
    fn keyed_world(copies: usize) -> (Database, Subject) {
        world_with(2 * copies, |i| if i % 2 == 0 { 7 } else { 10 + (i / 2) % 10 })
    }

    fn world_with(hidden: usize, hidden_id: fn(usize) -> usize) -> (Database, Subject) {
        let reg = Arc::new(TagRegistry::new());
        let (e, owner_caps) = reg.create_tag(TagKind::ReadProtect, "ni:hidden");
        let owner = Subject::new(LabelPair::public(), owner_caps.clone());
        let secret = LabelPair::new(Label::singleton(e), Label::empty());
        let db = Database::new(Arc::clone(&reg));
        db.execute(
            &owner,
            QueryMode::Filtered,
            QueryCost::unlimited(),
            &LabelPair::public(),
            "CREATE TABLE inbox (id INTEGER, body TEXT)",
        )
        .unwrap();
        db.create_index("inbox", "id").unwrap();
        let fill = |labels: &LabelPair, n: usize, id: fn(usize) -> usize| {
            for chunk_start in (0..n).step_by(100) {
                let values: Vec<String> = (chunk_start..(chunk_start + 100).min(n))
                    .map(|i| format!("({}, 'm{}')", id(i), id(i)))
                    .collect();
                db.execute(
                    &owner,
                    QueryMode::Filtered,
                    QueryCost::unlimited(),
                    labels,
                    &format!("INSERT INTO inbox VALUES {}", values.join(",")),
                )
                .unwrap();
            }
        };
        fill(&LabelPair::public(), VISIBLE, |i| i);
        fill(&secret, hidden, hidden_id);
        let stranger = Subject::new(LabelPair::public(), CapSet::empty());
        (db, stranger)
    }

    /// Whatever the stranger runs — scans, indexed lookups, aggregates,
    /// writes — a 20 000-row hidden partition must cost exactly what a
    /// 1-row one does, and produce the same rows.
    #[test]
    fn hidden_partition_size_never_shows_in_scan_costs() {
        assert_same_costs(world(1), world(20_000));
    }

    fn assert_same_costs(
        (small, stranger_s): (Database, Subject),
        (big, stranger_b): (Database, Subject),
    ) {
        // Read-only first, state-mutating last: both worlds mutate only
        // visible rows, so they stay comparable throughout.
        let queries = [
            "SELECT COUNT(*) FROM inbox",
            "SELECT id, body FROM inbox WHERE id = 7",
            "SELECT id FROM inbox WHERE id >= 10 AND id < 20 ORDER BY id",
            "SELECT id FROM inbox ORDER BY id DESC LIMIT 5",
            "UPDATE inbox SET body = 'seen' WHERE id = 3",
            "DELETE FROM inbox WHERE id = 499",
        ];
        for sql in queries {
            let a = small
                .execute(&stranger_s, QueryMode::Filtered, QueryCost::unlimited(), &LabelPair::public(), sql)
                .unwrap();
            let b = big
                .execute(&stranger_b, QueryMode::Filtered, QueryCost::unlimited(), &LabelPair::public(), sql)
                .unwrap();
            assert_eq!(a.rows, b.rows, "{sql}: rows depend on hidden partition size");
            assert_eq!(a.affected, b.affected, "{sql}: affected depends on hidden size");
            assert_eq!(a.scanned, b.scanned, "{sql}: scan cost leaks hidden partition size");
        }
    }

    /// The budget verdict itself must also be size-invariant: sweep the
    /// budget across the visibility boundary (500 visible rows + 1 flat
    /// skip charge) and require identical outcomes in both worlds.
    #[test]
    fn budget_exhaustion_verdicts_are_hidden_size_invariant() {
        let (small, stranger_s) = world(1);
        let (big, stranger_b) = world(20_000);
        assert_same_verdicts(
            (&small, &stranger_s),
            (&big, &stranger_b),
            "SELECT COUNT(*) FROM inbox",
            &[1, 100, 499, 500, 501, 502, 600],
        );
        // Sanity: the sweep actually crosses the boundary — tight budgets
        // abort, generous ones succeed.
        let tight = QueryCost { max_rows_scanned: 1 };
        assert_eq!(
            small.execute(&stranger_s, QueryMode::Filtered, tight, &LabelPair::public(), "SELECT COUNT(*) FROM inbox"),
            Err(QueryError::BudgetExhausted),
        );
    }

    fn assert_same_verdicts(
        (small, stranger_s): (&Database, &Subject),
        (big, stranger_b): (&Database, &Subject),
        sql: &str,
        budgets: &[u64],
    ) {
        for &budget in budgets {
            let cost = QueryCost { max_rows_scanned: budget };
            let a = small.execute(stranger_s, QueryMode::Filtered, cost, &LabelPair::public(), sql);
            let b = big.execute(stranger_b, QueryMode::Filtered, cost, &LabelPair::public(), sql);
            assert_eq!(a, b, "{sql}, budget {budget}: verdict depends on hidden partition size");
        }
    }

    /// The hidden partition now holds the probed keys — `id = 7` once
    /// against 20 000 times, and as many again inside the range window. An
    /// unreadable partition is never probed, so its postings can show
    /// neither in rows, nor in `scanned`, nor in where the budget runs out
    /// (one visible candidate plus the flat skip unit for the point lookup,
    /// ten plus one for the window).
    #[test]
    fn hidden_partition_holding_the_probed_key_never_shows() {
        let (small, stranger_s) = keyed_world(1);
        let (big, stranger_b) = keyed_world(20_000);
        for (sql, budgets) in [
            ("SELECT id, body FROM inbox WHERE id = 7", [0u64, 1, 2, 3]),
            ("SELECT id FROM inbox WHERE id >= 10 AND id < 20 ORDER BY id", [1, 10, 11, 12]),
        ] {
            assert_same_verdicts((&small, &stranger_s), (&big, &stranger_b), sql, &budgets);
        }
        let point = small
            .execute(&stranger_s, QueryMode::Filtered, QueryCost::unlimited(), &LabelPair::public(), "SELECT id FROM inbox WHERE id = 7")
            .unwrap();
        assert_eq!((point.rows.len(), point.scanned), (1, 2), "one visible row, one skip unit");
        assert_same_costs((small, stranger_s), (big, stranger_b));
    }

    /// Two indexed equalities meet in an intersection of postings, and the
    /// intersection is taken only inside partitions the subject may read:
    /// a hidden partition holding rows under *both* probed keys shows in
    /// neither the rows, nor `scanned`, nor where the budget runs out (one
    /// visible row under both keys, plus the flat skip unit).
    #[test]
    fn hidden_partition_holding_both_probed_keys_never_shows() {
        let both_indexed = |copies| {
            let (db, stranger) = keyed_world(copies);
            db.create_index("inbox", "body").unwrap();
            (db, stranger)
        };
        let (small, stranger_s) = both_indexed(1);
        let (big, stranger_b) = both_indexed(20_000);
        let sql = "SELECT id, body FROM inbox WHERE id = 7 AND body = 'm7'";
        assert_same_verdicts((&small, &stranger_s), (&big, &stranger_b), sql, &[0, 1, 2, 3]);
        let run = |db: &Database, stranger: &Subject| {
            let out = db
                .execute(stranger, QueryMode::Filtered, QueryCost::unlimited(), &LabelPair::public(), sql)
                .unwrap();
            (out.rows, out.scanned)
        };
        let (a, b) = (run(&small, &stranger_s), run(&big, &stranger_b));
        assert_eq!((a.0.len(), a.1), (1, 2), "one visible row, one skip unit");
        assert_eq!(a, b, "the hidden partition's postings showed");
    }

    /// Contrast: `Naive` mode *is* the covert channel (paper §3.5, E9) —
    /// there the cost difference is plainly visible. This pins that the
    /// equality above is a property of `Filtered`, not of an insensitive
    /// test.
    #[test]
    fn naive_mode_still_exposes_the_channel() {
        let (small, stranger_s) = world(1);
        let (big, stranger_b) = world(20_000);
        let a = small
            .execute(&stranger_s, QueryMode::Naive, QueryCost::unlimited(), &LabelPair::public(), "SELECT COUNT(*) FROM inbox")
            .unwrap();
        let b = big
            .execute(&stranger_b, QueryMode::Naive, QueryCost::unlimited(), &LabelPair::public(), "SELECT COUNT(*) FROM inbox")
            .unwrap();
        assert!(
            b.scanned > a.scanned,
            "naive mode should visit hidden rows ({} vs {})",
            b.scanned,
            a.scanned
        );
    }
}

mod concurrent_kernel {
    //! The same noninterference discipline, exercised directly against
    //! the kernel under real thread interleavings.
    //!
    //! Seeding is `--test-threads`-independent: every outcome below is a
    //! pure function of the literal seeds — worker counts and schedules
    //! come from the spec, never from how the test binary is scheduled.

    use w5_sim::concurrency::assert_differential;
    use w5_sim::harness::Spec;

    /// The randomized differential workload's verdicts — which processes
    /// ended tainted, which reads of read-protected data were refused,
    /// which launches ran over quota — must match the serial oracle for
    /// fixed seeds, however the OS schedules the workers.
    #[test]
    fn concurrent_verdicts_match_serial_oracle() {
        for seed in [20070824u64, 5, 77] {
            // Panics, naming the arms, if the threaded run diverged from
            // the serial oracle.
            let spec = Spec { seed, threads: 4, ops_per_thread: 200, fault_rate: 0.0 };
            let live = &assert_differential(&spec)[1].outcome;
            let refused: u64 = live.tallies.iter().map(|t| t.reads_refused).sum();
            assert!(refused > 0, "seed {seed}: workload never refused a read");
        }
    }
}

mod net_admission {
    //! Noninterference at the front door: the staged pipeline's
    //! backpressure surface (shed verdicts, `Retry-After` hints, quota
    //! refusals) must reveal nothing about *other* principals' traffic.
    //!
    //! The sharpest channel a bounded queue could open is the retry
    //! hint: if `Retry-After` were computed from global queue state, a
    //! low-clearance client could poll its own sheds to watch a hidden
    //! user's burst arrive. The pipeline therefore derives it from the
    //! shedding class's *own* depth and static pool geometry only —
    //! differenced here across two worlds that disagree solely about a
    //! hidden class's backlog.

    use std::net::SocketAddr;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;
    use w5_kernel::ResourceLimits;
    use w5_net::{
        Admission, ChargeDenied, ChargePoint, Handler, Pipeline, PipelineConfig, PrincipalClass,
        Request, Response,
    };
    use w5_platform::{FaultKind, Gateway, NetAdmission, Platform};
    use w5_sync::Mutex;

    fn peer() -> SocketAddr {
        "127.0.0.1:4100".parse().unwrap()
    }

    fn poll_until(mut cond: impl FnMut() -> bool, what: &str) {
        for _ in 0..2000 {
            if cond() {
                return;
            }
            thread::sleep(Duration::from_millis(1));
        }
        panic!("timed out waiting for {what}");
    }

    /// The full §3.5 path, socket framing aside: pipeline admission →
    /// kernel resource container → 429 with a labeled fault-report body,
    /// with the same report retained for developers in the platform's
    /// fault log — and the store untouched by the refused request.
    #[test]
    fn network_quota_refusal_is_a_429_fault_report_end_to_end() {
        let platform = Platform::new_default("ni-net");
        let limits = ResourceLimits { network_bytes: 700, ..ResourceLimits::unlimited() };
        let admission = NetAdmission::new(Arc::clone(&platform), limits, 0);
        let gateway: Arc<dyn Handler> = Arc::new(Gateway::new(Arc::clone(&platform)));
        let pipeline = Pipeline::start(
            PipelineConfig { workers: 2, ..PipelineConfig::default() },
            gateway,
            admission,
        );

        // /registry is 74 request-charge bytes per hit (path + flat
        // per-request overhead), plus the response body; the 700-byte
        // container admits the first request and starves soon after.
        let mut saw_ok = false;
        let mut denial = None;
        for _ in 0..32 {
            let resp = pipeline.submit(Request::get("/registry"), peer());
            match resp.status.0 {
                200 => saw_ok = true,
                429 => {
                    denial = Some(resp);
                    break;
                }
                other => panic!("unexpected status {other} before quota exhaustion"),
            }
        }
        let denial = denial.expect("container must eventually refuse");
        assert!(saw_ok, "the first request must fit the budget");
        let retry: u64 = denial.header("retry-after").expect("429 carries Retry-After").parse().unwrap();
        assert!(retry >= 1);
        let body = String::from_utf8_lossy(&denial.body);
        assert!(
            body.contains("fault app=net/anon kind=quota-exceeded"),
            "429 body must be the labeled fault report, got: {body}"
        );
        let faults = platform.fault_reports();
        assert!(
            faults.iter().any(|f| f.app == "net/anon" && f.kind == FaultKind::QuotaExceeded),
            "the same report must be retained for the developer log"
        );
        assert_eq!(pipeline.stats.snapshot().quota_denied, 1);
        pipeline.stop();
    }

    /// Classifies by the first path segment and never charges — the
    /// harness needs exact control over which queue each request joins.
    struct ByFirstSegment;

    impl Admission for ByFirstSegment {
        fn classify(&self, request: &Request, _peer: SocketAddr) -> PrincipalClass {
            let seg = request.path.split('/').find(|s| !s.is_empty()).unwrap_or("");
            PrincipalClass::App(seg.to_string())
        }

        fn charge(
            &self,
            _class: &PrincipalClass,
            _point: ChargePoint,
            _bytes: u64,
        ) -> Result<(), ChargeDenied> {
            Ok(())
        }
    }

    /// Requests to `/gate/…` park on a rendezvous until released; all
    /// other requests answer immediately.
    struct GatedHandler {
        gate: Mutex<Option<Receiver<()>>>,
        held: AtomicUsize,
    }

    impl GatedHandler {
        fn new() -> (Arc<GatedHandler>, SyncSender<()>) {
            let (tx, rx) = sync_channel::<()>(64);
            let h = Arc::new(GatedHandler {
                gate: Mutex::new("test.ni.gate", Some(rx)),
                held: AtomicUsize::new(0),
            });
            (h, tx)
        }
    }

    impl Handler for GatedHandler {
        fn handle(&self, request: Request, _peer: SocketAddr) -> Response {
            if request.path.starts_with("/gate/") {
                self.held.fetch_add(1, Ordering::SeqCst);
                // Hold the worker until the test releases one token.
                let rx = self.gate.lock().take().expect("one gated request at a time");
                rx.recv().ok();
                *self.gate.lock() = Some(rx);
                self.held.fetch_sub(1, Ordering::SeqCst);
            }
            Response::text("ok")
        }
    }

    /// One world: a single parked worker, `hidden_backlog` queued
    /// requests for a hidden class, then the honest class filled to its
    /// own limit and pushed one past it. Returns the honest overflow's
    /// (status, Retry-After) — the complete backpressure observable.
    fn honest_shed_observable(hidden_backlog: usize) -> (u16, u64) {
        const DEPTH: usize = 2;
        let (handler, release) = GatedHandler::new();
        let pipeline = Pipeline::start(
            PipelineConfig {
                workers: 1,
                queue_depth: DEPTH,
                ..PipelineConfig::default()
            },
            Arc::clone(&handler) as Arc<dyn Handler>,
            Arc::new(ByFirstSegment),
        );

        let observable = thread::scope(|s| {
            // Park the only worker on the gate.
            let p = Arc::clone(&pipeline);
            s.spawn(move || p.submit(Request::get("/gate/park"), peer()));
            poll_until(|| handler.held.load(Ordering::SeqCst) == 1, "worker parked");

            // The hidden principal's backlog (absent in the other world).
            for i in 0..hidden_backlog {
                let p = Arc::clone(&pipeline);
                s.spawn(move || p.submit(Request::get("/hidden/burst"), peer()));
                poll_until(|| pipeline.queue_depth() == i + 1, "hidden backlog queued");
            }

            // The honest class fills its own queue…
            for i in 0..DEPTH {
                let p = Arc::clone(&pipeline);
                s.spawn(move || p.submit(Request::get("/honest/work"), peer()));
                poll_until(
                    || pipeline.queue_depth() == hidden_backlog + i + 1,
                    "honest request queued",
                );
            }

            // …and the overflow request sheds. This response is the only
            // thing the honest client sees.
            let resp = pipeline.submit(Request::get("/honest/work"), peer());
            let retry: u64 = resp
                .header("retry-after")
                .expect("shed must carry Retry-After")
                .parse()
                .unwrap();
            let observable = (resp.status.0, retry);

            // Drain: release every parked/queued request and join.
            for _ in 0..(1 + hidden_backlog + DEPTH) {
                release.send(()).ok();
            }
            observable
        });
        pipeline.stop();
        observable
    }

    /// Difference the two worlds: the honest client's shed verdict and
    /// retry hint must be bit-identical whether the hidden class has an
    /// empty queue or a full one. (`/gate`, `/hidden` and `/honest` are
    /// distinct classes under `ByFirstSegment`, so the hidden backlog
    /// shares the worker pool — the contended resource — but not the
    /// honest queue.)
    #[test]
    fn hidden_backlog_never_shows_in_honest_retry_hints() {
        let quiet = honest_shed_observable(0);
        let flooded = honest_shed_observable(2);
        assert_eq!(quiet.0, 503, "overflow must shed");
        assert_eq!(
            quiet, flooded,
            "honest shed observable differs with hidden backlog: \
             Retry-After leaks another principal's queue depth"
        );
    }
}

mod user_logs {
    //! Noninterference on the two logs a user reaches over HTTP: the
    //! perimeter's audit (`/audit`) and the developer fault log
    //! (`/dev/faults?app=`). Each is differenced across two worlds that
    //! disagree only about other principals' volume — 0 or 100,000
    //! entries, ten times the shared ring these logs once were — and the
    //! reader's answer must be byte-identical.

    use bytes::Bytes;
    use std::sync::Arc;
    use w5_difc::{Label, LabelPair};
    use w5_net::{Handler, Request};
    use w5_platform::{
        Account, ApiError, AppManifest, AppRequest, AppResponse, Gateway, Platform, PlatformApi,
        W5App, SESSION_COOKIE,
    };

    const NOISE: usize = 100_000;

    /// One GET through the gateway, as `viewer` when given.
    fn get(gateway: &Gateway, viewer: Option<&Account>, path: &str, query: &str) -> String {
        let mut req = Request::get(path);
        req.query_raw = query.to_string();
        if let Some(v) = viewer {
            let token = gateway.platform().sessions.create(v.id);
            req.headers.insert("cookie".into(), format!("{SESSION_COOKIE}={token}"));
        }
        let resp = gateway.handle(req, "127.0.0.1:4200".parse().unwrap());
        assert_eq!(resp.status.0, 200, "{path}?{query}");
        resp.body_string()
    }

    fn export(p: &Platform, labels: &LabelPair, viewer: &Account, app: &str) -> bool {
        let oracle = p.oracle();
        p.exporter
            .check(labels, Some(viewer), app, &p.accounts, &p.policies, &p.declassifiers, &oracle)
            .allowed
    }

    /// Bob's `/audit` in a world where his data was exported twice, then
    /// other users' data `noise` times, then his once more.
    fn bobs_audit(noise: usize) -> String {
        let p = Platform::new_default("ni-audit");
        let bob = p.accounts.register("bob", "pw").unwrap();
        let carol = p.accounts.register("carol", "pw").unwrap();
        let dave = p.accounts.register("dave", "pw").unwrap();
        assert!(export(&p, &bob.data_labels(), &bob, "devA/photos"));
        assert!(!export(&p, &bob.data_labels(), &carol, "devA/photos"));
        for i in 0..noise {
            let owner = if i % 2 == 0 { &carol } else { &dave };
            export(&p, &owner.data_labels(), &carol, "devA/photos");
        }
        assert!(!export(&p, &bob.data_labels(), &dave, "devA/blog"));
        get(&Gateway::new(p), Some(&bob), "/audit", "")
    }

    #[test]
    fn other_users_exports_never_show_in_a_viewers_audit() {
        let quiet = bobs_audit(0);
        assert_eq!(quiet.matches("\"app\"").count(), 3, "{quiet}");
        assert_eq!(bobs_audit(NOISE), quiet);
    }

    /// An app whose every request fails with a data-free error.
    struct Failing;

    impl W5App for Failing {
        fn handle(&self, req: &AppRequest, _api: &mut PlatformApi<'_>) -> Result<AppResponse, ApiError> {
            Err(ApiError::Bad(format!("no action {}", req.action)))
        }
        fn source_lines(&self) -> usize {
            3
        }
    }

    /// App A's `/dev/faults` in a world where A failed once, then app B
    /// `noise` times, then A once more.
    fn app_as_faults(noise: usize) -> String {
        let p = Platform::new_default("ni-faults");
        for developer in ["devA", "devB"] {
            p.apps
                .publish(AppManifest {
                    name: "app".into(),
                    developer: developer.into(),
                    version: 1,
                    description: "fails".into(),
                    module_slots: vec![],
                    imports: vec![],
                    forked_from: None,
                    source: None,
                })
                .unwrap();
            p.install_app(&format!("{developer}/app"), Arc::new(Failing));
        }
        let fail = |app: &str, action: &str| {
            let req = Platform::make_request("GET", action, &[], None, Bytes::new());
            assert_eq!(p.invoke(None, app, req).status, 400);
        };
        fail("devA/app", "first");
        for _ in 0..noise {
            fail("devB/app", "noise");
        }
        fail("devA/app", "last");
        get(&Gateway::new(p), None, "/dev/faults", "app=devA/app")
    }

    #[test]
    fn other_apps_faults_never_show_in_an_apps_fault_log() {
        let quiet = app_as_faults(0);
        assert!(quiet.contains("first") && quiet.contains("last"), "{quiet}");
        assert_eq!(app_as_faults(NOISE), quiet);
    }

    /// A decision on data two owners' tags commingle depends on both
    /// owners' declassifiers, so neither owner's audit shows it; the
    /// operator's log does.
    #[test]
    fn commingled_decisions_show_in_no_owners_audit() {
        let p = Platform::new_default("ni-commingled");
        let bob = p.accounts.register("bob", "pw").unwrap();
        let alice = p.accounts.register("alice", "pw").unwrap();
        let tags = [bob.export_tag, alice.export_tag];
        let both = LabelPair::new(Label::from_iter(tags), Label::empty());
        assert!(!export(&p, &both, &bob, "devA/mashup"), "alice's tag is not bob's to clear");
        let gateway = Gateway::new(Arc::clone(&p));
        for owner in [&bob, &alice] {
            assert_eq!(get(&gateway, Some(owner), "/audit", ""), "[]", "{}", owner.username);
        }
        let log = p.exporter.audit_log();
        assert!(log.iter().any(|e| e.secrecy == both.secrecy && e.app == "devA/mashup"));
    }
}
