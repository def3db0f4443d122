//! Deterministic chaos harness: a seeded workload with seeded fault
//! injection, checked against an independent policy oracle after every
//! step.
//!
//! The harness drives one platform in-process (no HTTP server, one
//! thread), with two guards installed:
//!
//! * a [`w5_chaos::Injector`] scoped to the thread, so every armed fault
//!   site rolls from one seeded stream, and
//! * a private [`w5_obs::Ledger`] scoped to the thread, so the run's event
//!   stream — and therefore its [`w5_obs::Ledger::digest`] — is untouched
//!   by anything else in the process.
//!
//! Determinism contract: same [`ChaosSpec`] → bit-identical
//! [`ChaosOutcome`] (same digest, same fault tallies, same
//! delivered/blocked/degraded counts). The whole run is a pure function of
//! two seeds. That is what makes every failure this harness finds
//! replayable.
//!
//! The invariants checked are the ones faults must never break:
//!
//! 1. **Noninterference** — a delivered body may contain user U's
//!    sentinel only if the oracle says the viewer is cleared for it at
//!    this moment; denial and degradation bodies carry no sentinel ever.
//! 2. **The ledger holds no user content** — after the storm, no retained
//!    event or span, at any label, carries a sentinel: the operator's
//!    record is metadata.
//! 3. **Fail closed** — a fault may turn success into refusal or a 503
//!    fault report, never refusal into disclosure.

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use w5_obs::Ledger;
use w5_platform::{Account, GrantScope, Platform};

/// Applications in the workload; `mal/exfiltrator` actively attempts
/// cross-user reads.
const APPS: [&str; 4] = ["devA/photos", "devB/blog", "mal/exfiltrator", "devD/recommender"];

/// Users in the chaos and static-differential worlds.
pub(crate) const USERS: usize = 5;

/// One chaos run: a workload seed, a length, and a storm rate applied to
/// every fault site.
#[derive(Clone, Copy, Debug)]
pub struct ChaosSpec {
    /// Seeds both the workload RNG and the fault plan.
    pub seed: u64,
    /// Workload steps to execute.
    pub steps: u32,
    /// Per-site injection probability (0.0 disables all faults).
    pub fault_rate: f64,
}

impl ChaosSpec {
    /// A spec with the default workload length and a moderate storm.
    pub fn new(seed: u64) -> ChaosSpec {
        ChaosSpec { seed, steps: 600, fault_rate: 0.08 }
    }
}

/// What a run produced. Two runs of the same spec must compare equal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaosOutcome {
    /// FNV digest of the run's private ledger (event stream + counters).
    pub digest: u64,
    /// Invariant violations (empty on a healthy platform).
    pub violations: Vec<String>,
    /// Faults checked/injected per site.
    pub faults: w5_chaos::ChaosReport,
    /// Responses delivered with status 200.
    pub delivered: u32,
    /// Responses refused with status 403.
    pub blocked: u32,
    /// Responses degraded to 503 by injected faults.
    pub degraded: u32,
    /// Spans the run's tracer recorded (span structure is part of the
    /// digest; timestamps are not).
    pub spans: u64,
}

/// The string only user `u`'s data carries.
pub(crate) fn sentinel(u: usize) -> String {
    format!("SENTINEL-{u}-SECRET-PAYLOAD")
}

/// A trusted subject holding `a`'s own capabilities.
fn owner_subject(a: &Account) -> w5_store::Subject {
    w5_store::Subject::new(w5_difc::LabelPair::public(), a.owner_caps.clone())
}

/// The world the chaos and static-differential harnesses start from: every
/// builtin app installed, [`USERS`] accounts that delegate writes to each of
/// `apps`, and per user one diary post (through `devB/blog`) and one photo,
/// both carrying the user's [`sentinel`] under the user's labels.
pub(crate) fn sentinel_world(name: &str, apps: &[&str]) -> (Arc<Platform>, Vec<Account>) {
    let p = Platform::new_default(name);
    w5_apps::install_all(&p);
    let accounts: Vec<Account> = (0..USERS)
        .map(|i| p.accounts.register(&format!("user{i}"), "pw").unwrap())
        .collect();
    for a in &accounts {
        for app in apps {
            p.policies.delegate_write(a.id, app);
        }
    }
    for (i, a) in accounts.iter().enumerate() {
        let body = sentinel(i);
        let post = [("title", "diary"), ("body", body.as_str())];
        let req = Platform::make_request("POST", "post", &post, Some(a), Bytes::new());
        assert_eq!(p.invoke(Some(a), "devB/blog", req).status, 200);
        let path = format!("/photos/{}/x", a.username);
        let data = Bytes::from(sentinel(i));
        p.fs.create(&owner_subject(a), &path, a.data_labels(), data).unwrap();
    }
    (p, accounts)
}

/// The independent policy oracle, mirroring every grant/revoke the
/// workload performs. Degradation is safe in one direction only: the
/// platform may deliver *less* than the oracle allows (a dropped friend
/// edge, an aborted grant), never more.
struct Oracle {
    friends_only: Vec<Vec<bool>>,
    public_read: Vec<Vec<bool>>,
    friends: Vec<Vec<bool>>,
}

impl Oracle {
    fn new() -> Oracle {
        Oracle {
            friends_only: vec![vec![false; APPS.len()]; USERS],
            public_read: vec![vec![false; APPS.len()]; USERS],
            friends: vec![vec![false; USERS]; USERS],
        }
    }

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

/// Run one chaos pass. Single-threaded and side-effect free outside its
/// own platform instance; safe to call from parallel tests.
pub fn run_chaos(spec: &ChaosSpec) -> ChaosOutcome {
    // Private ledger first: setup events are part of the digest too.
    let ledger = Arc::new(Ledger::new());
    let _obs_guard = w5_obs::scoped(Arc::clone(&ledger));

    // Build the world before arming faults so every run starts from the
    // same state; the storm begins at step 0.
    let (p, accounts) = sentinel_world("chaos", &APPS);

    let injector =
        w5_chaos::Injector::new(w5_chaos::FaultPlan::storm(spec.seed, spec.fault_rate));
    let _chaos_guard = w5_chaos::with_injector(Arc::clone(&injector));

    let mut oracle = Oracle::new();
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x5745_4235); // "WEB5"
    let mut violations = Vec::new();
    let mut delivered = 0u32;
    let mut blocked = 0u32;
    let mut degraded = 0u32;

    for step in 0..spec.steps {
        match rng.gen_range(0..12) {
            // Policy mutations (the control plane runs trusted — grants
            // and revocations are not subject to injected faults, so the
            // oracle stays exact).
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
                let owner = rng.gen_range(0..USERS);
                p.policies.revoke_declassifier(accounts[owner].id, "friends-only");
                p.policies.revoke_declassifier(accounts[owner].id, "public-read");
                for x in 0..APPS.len() {
                    oracle.friends_only[owner][x] = false;
                    oracle.public_read[owner][x] = false;
                }
            }
            3 => {
                // add_friend rides on the SQL fault site: the platform
                // retries aborted statements internally and, past its
                // retry budget, drops the edge. The oracle marks the
                // friendship anyway — over-approximating what is allowed
                // can only hide violations the platform then fails to
                // commit, never invent one.
                let owner = rng.gen_range(0..USERS);
                let viewer = rng.gen_range(0..USERS);
                if owner != viewer && !oracle.friends[owner][viewer] {
                    p.add_friend(&accounts[owner].username, &accounts[viewer].username);
                    oracle.friends[owner][viewer] = true;
                }
            }
            // Fault-prone writes.
            4 => {
                // Re-post the diary through the blog app: a full launch
                // whose INSERT rides on the SQL fault site (the launch's
                // `create_process` rolls none). The body is always the
                // owner's own sentinel, so content never changes what the
                // oracle must allow.
                let owner = rng.gen_range(0..USERS);
                let req = Platform::make_request(
                    "POST",
                    "post",
                    &[("title", "diary"), ("body", &sentinel(owner))],
                    Some(&accounts[owner]),
                    Bytes::new(),
                );
                let r = p.invoke(Some(&accounts[owner]), "devB/blog", req);
                tally(step, r.status, &r.body, &mut delivered, &mut blocked, &mut degraded, &mut violations);
            }
            5 => {
                // Rewrite the photo file: exercises the fs.write fault
                // site. An aborted write must leave the old sentinel
                // intact (checked globally by reads later in the run).
                let owner = rng.gen_range(0..USERS);
                let a = &accounts[owner];
                let _ = p.fs.write(
                    &owner_subject(a),
                    &format!("/photos/{}/x", a.username),
                    Bytes::from(sentinel(owner)),
                );
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
                            vec![(
                                "path".into(),
                                format!("/photos/{}/x", accounts[owner].username),
                            )],
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
                    let body = String::from_utf8_lossy(&r.body);
                    for u in 0..USERS {
                        if body.contains(&sentinel(u)) && !oracle.allowed(u, viewer, app_ix) {
                            violations.push(format!(
                                "step {step}: viewer {viewer} received user {u}'s sentinel \
                                 via {} without authorization",
                                APPS[app_ix]
                            ));
                        }
                    }
                }
                tally(step, r.status, &r.body, &mut delivered, &mut blocked, &mut degraded, &mut violations);
            }
        }
    }

    // Fault reports are operator-facing but still label-scrubbed.
    for report in p.fault_reports() {
        if let Some(d) = &report.detail {
            if d.contains("SENTINEL") {
                violations.push(format!("fault report leaked a sentinel: {d}"));
            }
        }
    }

    // The ledger records metadata, never user content: no retained event
    // or span, at any label, carries a sentinel — not even for the
    // operator, its one reader.
    for e in ledger.events() {
        let kind = serde_json::to_string(&e.kind).unwrap_or_default();
        if kind.contains("SENTINEL") {
            violations.push(format!("ledger event seq {} carries a sentinel: {kind}", e.seq));
        }
    }
    for s in ledger.spans() {
        if s.name.contains("SENTINEL") {
            violations.push(format!("ledger span {} carries a sentinel: {}", s.id, s.name));
        }
    }

    let faults = injector.report();
    ChaosOutcome {
        digest: ledger.digest(),
        violations,
        faults,
        delivered,
        blocked,
        degraded,
        spans: ledger.spans_recorded(),
    }
}

/// Classify one response and check the fail-closed body invariants.
#[allow(clippy::too_many_arguments)]
fn tally(
    step: u32,
    status: u16,
    body: &[u8],
    delivered: &mut u32,
    blocked: &mut u32,
    degraded: &mut u32,
    violations: &mut Vec<String>,
) {
    match status {
        200 => *delivered += 1,
        403 => {
            *blocked += 1;
            if String::from_utf8_lossy(body).contains("SENTINEL") {
                violations.push(format!("step {step}: denial body leaked a sentinel"));
            }
        }
        503 => {
            *degraded += 1;
            if String::from_utf8_lossy(body).contains("SENTINEL") {
                violations.push(format!("step {step}: degradation body leaked a sentinel"));
            }
        }
        _ => {
            if String::from_utf8_lossy(body).contains("SENTINEL") {
                violations.push(format!("step {step}: status-{status} body leaked a sentinel"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use w5_chaos::Site;

    #[test]
    fn same_spec_same_outcome() {
        let spec = ChaosSpec { seed: 7, steps: 200, fault_rate: 0.1 };
        let a = run_chaos(&spec);
        let b = run_chaos(&spec);
        assert_eq!(a, b);
        assert!(a.violations.is_empty(), "{:?}", a.violations);
        assert!(a.faults.total_injected() > 0, "storm must actually fire");
    }

    #[test]
    fn tracing_replays_bit_identically() {
        // The private ledger head-samples everything by default, so the
        // storm records real spans — and the digest (which mixes span
        // structure but not wall-clock timestamps) must still replay
        // bit-identically from the seed.
        let spec = ChaosSpec { seed: 11, steps: 200, fault_rate: 0.1 };
        let a = run_chaos(&spec);
        let b = run_chaos(&spec);
        assert!(a.spans > 0, "tracing recorded nothing during the storm");
        assert_eq!(a.digest, b.digest, "span-bearing digests must replay");
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = run_chaos(&ChaosSpec { seed: 1, steps: 200, fault_rate: 0.1 });
        let b = run_chaos(&ChaosSpec { seed: 2, steps: 200, fault_rate: 0.1 });
        assert_ne!(a.digest, b.digest);
    }

    /// The sites a run actually rolls are the keys of its report's
    /// `checked`; pinning them over the CI matrix's seeds keeps the docs
    /// from claiming a site the workload never reaches.
    #[test]
    fn the_matrix_rolls_only_the_store_sites() {
        for seed in [1, 7, 42, 1007, 20070824, 22325] {
            let out = run_chaos(&ChaosSpec::new(seed));
            let rolled: Vec<Site> = out.faults.checked.keys().copied().collect();
            assert_eq!(rolled, [Site::FsWrite, Site::SqlQuery], "seed {seed}");
            assert!(out.faults.injected.values().all(|&n| n > 0), "seed {seed}: a rolled site never fired");
        }
    }

    #[test]
    fn faultless_run_is_clean() {
        let a = run_chaos(&ChaosSpec { seed: 3, steps: 200, fault_rate: 0.0 });
        assert!(a.violations.is_empty(), "{:?}", a.violations);
        assert_eq!(a.faults.total_injected(), 0);
        assert_eq!(a.degraded, 0);
        assert!(a.delivered > 0);
    }
}
