//! Differential oracle: the static auditor versus the live perimeter.
//!
//! `w5-analyze` claims its flow graph predicts exactly what the runtime
//! will allow (possibly over-approximating, never under). This harness
//! makes that claim falsifiable: it builds a platform with a *seeded
//! random configuration* — friendships, group memberships, declassifier
//! grants of every builtin kind with random app scopes — freezes it,
//! captures a [`w5_analyze::ConfigSnapshot`], and then fires seeded probe
//! requests at the live platform. For every probe it compares:
//!
//! * **static** — [`w5_analyze::Analysis::allowed`] for the owner's export
//!   tag, the serving app, and the viewer's audience classes, against
//! * **runtime** — the actual [`Platform::invoke`] outcome (`200` with the
//!   owner's sentinel in the body = released, `403` = refused).
//!
//! Any disagreement in either direction is a failure: static-allow with
//! dynamic-deny means the analyzer over-promises exposure (annoying),
//! static-deny with dynamic-allow means it under-reports a leak path
//! (fatal — it breaks the soundness contract of `DESIGN.md` §12).
//!
//! The configuration deliberately excludes stateful declassifiers
//! (`rate-limited`): a budget makes the runtime verdict depend on probe
//! *history*, which a static analysis cannot and should not predict.

use crate::chaos::{sentinel, sentinel_world, USERS};
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use w5_analyze::{Analysis, ConfigSnapshot, ExitClass};
use w5_platform::{Account, GrantScope, Platform};

/// The apps probed: one honest reader, one active thief.
const APPS: [&str; 2] = ["devB/blog", "mal/exfiltrator"];

/// The builtin (stateless) declassifiers the configuration draws from.
const DECLS: [&str; 4] = ["owner-only", "friends-only", "group-only", "public-read"];

/// One differential run: a seed for the configuration and the probes, and
/// the number of probes to fire.
#[derive(Clone, Copy, Debug)]
pub struct DiffSpec {
    /// Seeds the configuration RNG and the probe RNG.
    pub seed: u64,
    /// Probe requests to fire after the configuration freezes.
    pub probes: u32,
}

/// What a run produced. Deterministic per spec.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiffOutcome {
    /// Probes fired.
    pub probes: u32,
    /// Probes the static analysis allowed.
    pub static_allows: u32,
    /// Probes the runtime released.
    pub runtime_allows: u32,
    /// Static/runtime disagreements, one line each. Empty on a healthy
    /// analyzer+platform pair.
    pub disagreements: Vec<String>,
}

/// Run one differential pass. Single-threaded, side-effect free outside
/// its own platform instance, deterministic per spec.
pub fn run_differential(spec: &DiffSpec) -> DiffOutcome {
    let (p, accounts) = sentinel_world("differential", &APPS);

    // ---- seeded random configuration --------------------------------
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x5734_4946); // "W4IF"
    let mut friends = vec![vec![false; USERS]; USERS];
    let mut groups = vec![vec![false; USERS]; USERS];
    for owner in 0..USERS {
        for other in 0..USERS {
            if owner == other {
                continue;
            }
            if rng.gen_bool(0.3) {
                p.add_friend(&accounts[owner].username, &accounts[other].username);
                friends[owner][other] = true;
            }
            if rng.gen_bool(0.2) {
                p.add_group_member(
                    &accounts[owner].username,
                    "roommates",
                    &accounts[other].username,
                );
                groups[owner][other] = true;
            }
        }
    }
    for a in &accounts {
        for name in DECLS {
            if !rng.gen_bool(0.4) {
                continue;
            }
            let scope = match rng.gen_range(0..3) {
                0 => GrantScope::AllApps,
                n => GrantScope::App(APPS[n - 1].into()),
            };
            p.policies.grant_declassifier(a.id, name, scope);
        }
    }

    // ---- freeze: one static analysis of the final configuration -----
    let analysis = Analysis::analyze(ConfigSnapshot::capture(&p));

    // ---- probe -------------------------------------------------------
    let mut static_allows = 0u32;
    let mut runtime_allows = 0u32;
    let mut disagreements = Vec::new();

    for probe in 0..spec.probes {
        let owner = rng.gen_range(0..USERS);
        let viewer_ix = rng.gen_range(0..=USERS); // USERS = anonymous
        let viewer: Option<&Account> = accounts.get(viewer_ix);
        let app = APPS[rng.gen_range(0..APPS.len())];

        let req = match app {
            "devB/blog" => Platform::make_request(
                "GET",
                "read",
                &[("user", &accounts[owner].username), ("title", "diary")],
                viewer,
                Bytes::new(),
            ),
            _ => Platform::make_request(
                "GET",
                "steal",
                &[("path", &format!("/photos/{}/x", accounts[owner].username))],
                viewer,
                Bytes::new(),
            ),
        };
        let out = p.invoke(viewer, app, req);
        let body = String::from_utf8_lossy(&out.body);
        let runtime_allow = match out.status {
            200 => body.contains(&sentinel(owner)),
            403 => false,
            other => {
                disagreements.push(format!(
                    "probe {probe}: unexpected status {other} (owner={owner} \
                     viewer={viewer_ix} app={app}): {body}"
                ));
                continue;
            }
        };

        // The viewer's audience classes, mirrored from the local matrices.
        let classes: Vec<ExitClass> = match viewer_ix {
            v if v == owner => vec![ExitClass::Owner],
            v if v < USERS => {
                let mut c = Vec::new();
                if friends[owner][v] {
                    c.push(ExitClass::Friends);
                }
                if groups[owner][v] {
                    c.push(ExitClass::Group);
                }
                c.push(ExitClass::Strangers);
                c
            }
            _ => vec![ExitClass::Anonymous],
        };
        let static_allow =
            analysis.allowed(accounts[owner].export_tag.raw(), app, &classes);

        if static_allow {
            static_allows += 1;
        }
        if runtime_allow {
            runtime_allows += 1;
        }
        if static_allow != runtime_allow {
            disagreements.push(format!(
                "probe {probe}: static={static_allow} runtime={runtime_allow} \
                 owner={owner} viewer={viewer_ix} app={app} classes={classes:?} \
                 status={} exits={:?}",
                out.status,
                analysis.exits(accounts[owner].export_tag.raw()),
            ));
        }
    }

    DiffOutcome { probes: spec.probes, static_allows, runtime_allows, disagreements }
}
