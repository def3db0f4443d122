//! # w5-chaos — seeded, deterministic fault injection
//!
//! W5's security argument has to survive crashes, torn writes and dropped
//! messages (paper §3.5 flags storage and query channels as exactly where
//! leaks hide). This crate provides the machinery to *provoke* those
//! failures on purpose, deterministically:
//!
//! * a [`FaultPlan`] names the injection [`Site`]s to arm and a failure
//!   probability for each, plus one RNG seed;
//! * an [`Injector`] rolls the plan's seeded RNG at every armed site, so a
//!   run replays **bit-identically** from its seed (unarmed sites never
//!   touch the RNG — arming decisions are part of the plan, not the roll
//!   stream);
//! * instrumented components call [`inject`] at their fault points; the
//!   call is a no-op returning `None` unless a test has installed an
//!   injector for the current thread via [`with_injector`].
//!
//! Injectors are **thread-scoped**, never process-global: `cargo test`
//! runs tests concurrently, and a global injector would let one test's
//! fault schedule perturb another's RNG stream. Components running on
//! other threads (e.g. the HTTP server's per-connection threads) are
//! instead handed an `Arc<Injector>` explicitly by the code that owns
//! them.

#![forbid(unsafe_code)]

use w5_sync::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A fault-injection point in the stack. Each variant is one *class* of
/// failure a component volunteers to suffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Site {
    /// A labeled filesystem write/create aborts before commit (torn write:
    /// the old state must remain fully intact).
    FsWrite,
    /// A SQL statement aborts before execution.
    SqlQuery,
    /// An HTTP client connection drops before the request is sent.
    NetConnect,
    /// An HTTP response body is truncated mid-read.
    NetBody,
    /// A federation pull finds the peer partitioned away.
    FedPartition,
    /// A federation batch arrives with its records reordered (delayed
    /// records overtaking newer ones).
    FedReorder,
    /// The request pipeline's admission stage finds the principal's queue
    /// full even though it is not (forced shed — the 503 + `Retry-After`
    /// path under no real load).
    NetQueueFull,
    /// A request that holds a pipeline handler slot stalls briefly before
    /// its handler runs (straggler; exercises occupancy accounting and
    /// fairness under uneven service times).
    NetSlowWorker,
}

impl Site {
    /// Every site, in `Ord` order.
    pub const ALL: [Site; 8] = [
        Site::FsWrite,
        Site::SqlQuery,
        Site::NetConnect,
        Site::NetBody,
        Site::FedPartition,
        Site::FedReorder,
        Site::NetQueueFull,
        Site::NetSlowWorker,
    ];

    /// Stable lowercase name (reports, fault details, CI logs).
    pub fn as_str(self) -> &'static str {
        match self {
            Site::FsWrite => "fs.write",
            Site::SqlQuery => "sql.query",
            Site::NetConnect => "net.connect",
            Site::NetBody => "net.body",
            Site::FedPartition => "federation.partition",
            Site::FedReorder => "federation.reorder",
            Site::NetQueueFull => "net.queue_full",
            Site::NetSlowWorker => "net.slow_worker",
        }
    }
}

impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One injected fault: which site fired and how many faults that site has
/// produced so far in this injector's lifetime (1-based).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fault {
    /// The site that fired.
    pub site: Site,
    /// Ordinal of this fault at its site (first fault = 1).
    pub n: u64,
}

/// A seeded fault schedule: which sites are armed, at what probability,
/// and the RNG seed that makes every roll reproducible.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed for the injector's RNG.
    pub seed: u64,
    /// Per-site failure probability in `[0, 1]`. Absent sites never fire
    /// and never consume randomness.
    pub rates: BTreeMap<Site, f64>,
}

impl FaultPlan {
    /// An empty plan (nothing armed) with the given seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan { seed, rates: BTreeMap::new() }
    }

    /// Arm `site` at probability `rate` (clamped to `[0, 1]`).
    pub fn with(mut self, site: Site, rate: f64) -> FaultPlan {
        self.rates.insert(site, rate.clamp(0.0, 1.0));
        self
    }

    /// Arm every site at the same probability — the "storm" preset.
    pub fn storm(seed: u64, rate: f64) -> FaultPlan {
        let mut plan = FaultPlan::new(seed);
        for site in Site::ALL {
            plan.rates.insert(site, rate.clamp(0.0, 1.0));
        }
        plan
    }
}

#[derive(Default)]
struct SiteTally {
    checked: u64,
    injected: u64,
}

struct InjectorState {
    rng: StdRng,
    tallies: BTreeMap<Site, SiteTally>,
}

/// What an injector did, for assertions and CI logs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChaosReport {
    /// Rolls evaluated per site.
    pub checked: BTreeMap<Site, u64>,
    /// Faults fired per site.
    pub injected: BTreeMap<Site, u64>,
}

impl ChaosReport {
    /// Total faults fired across all sites.
    pub fn total_injected(&self) -> u64 {
        self.injected.values().sum()
    }
}

/// Rolls a [`FaultPlan`]'s dice. Cheap to share (`Arc`), safe to call from
/// several threads — though determinism is only guaranteed when all rolls
/// happen in a deterministic order (i.e. from one thread).
pub struct Injector {
    plan: FaultPlan,
    state: Mutex<InjectorState>,
}

impl Injector {
    /// An injector executing `plan` from its seed.
    pub fn new(plan: FaultPlan) -> Arc<Injector> {
        let rng = StdRng::seed_from_u64(plan.seed);
        Arc::new(Injector {
            plan,
            state: Mutex::new("chaos.injector", InjectorState { rng, tallies: BTreeMap::new() }),
        })
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Roll for `site`. Returns `Some(Fault)` when the site is armed and
    /// the die says fail. Unarmed sites return `None` without consuming
    /// randomness, so the roll stream is a pure function of (seed, the
    /// sequence of armed-site visits).
    pub fn roll(&self, site: Site) -> Option<Fault> {
        let rate = *self.plan.rates.get(&site)?;
        let mut state = self.state.lock();
        let fire = state.rng.gen_bool(rate);
        let tally = state.tallies.entry(site).or_default();
        tally.checked += 1;
        if fire {
            tally.injected += 1;
            Some(Fault { site, n: tally.injected })
        } else {
            None
        }
    }

    /// Tallies so far.
    pub fn report(&self) -> ChaosReport {
        let state = self.state.lock();
        let mut report = ChaosReport::default();
        for (site, tally) in &state.tallies {
            report.checked.insert(*site, tally.checked);
            report.injected.insert(*site, tally.injected);
        }
        report
    }
}

thread_local! {
    static CURRENT: RefCell<Vec<Arc<Injector>>> = const { RefCell::new(Vec::new()) };
}

/// Installs an injector for the current thread for the guard's lifetime.
/// Guards nest; the innermost wins. See [`with_injector`].
pub struct ScopeGuard {
    _private: (),
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            c.borrow_mut().pop();
        });
    }
}

/// Install `injector` as the current thread's fault source until the
/// returned guard is dropped.
pub fn with_injector(injector: Arc<Injector>) -> ScopeGuard {
    CURRENT.with(|c| c.borrow_mut().push(injector));
    ScopeGuard { _private: () }
}

/// The injector currently installed on this thread, if any.
pub fn current() -> Option<Arc<Injector>> {
    CURRENT.with(|c| c.borrow().last().cloned())
}

/// The hook instrumented components call at their fault points. Returns
/// `None` (with no RNG activity and no allocation) unless an injector is
/// installed on this thread *and* its plan arms `site` *and* the die says
/// fail.
pub fn inject(site: Site) -> Option<Fault> {
    CURRENT.with(|c| c.borrow().last().map(Arc::clone))?.roll(site)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roll_sequence(injector: &Injector, sites: &[Site]) -> Vec<bool> {
        sites.iter().map(|&s| injector.roll(s).is_some()).collect()
    }

    #[test]
    fn same_seed_replays_identically() {
        let plan = FaultPlan::new(42).with(Site::FsWrite, 0.5).with(Site::SqlQuery, 0.3);
        let visits: Vec<Site> = (0..200)
            .map(|i| if i % 3 == 0 { Site::SqlQuery } else { Site::FsWrite })
            .collect();
        let a = roll_sequence(&Injector::new(plan.clone()), &visits);
        let b = roll_sequence(&Injector::new(plan), &visits);
        assert_eq!(a, b);
        assert!(a.iter().any(|&x| x), "a 0.5-rate site should fire in 200 rolls");
        assert!(a.iter().any(|&x| !x), "and also not fire");
    }

    #[test]
    fn different_seeds_diverge() {
        let visits = [Site::FsWrite; 64];
        let a = roll_sequence(&Injector::new(FaultPlan::new(1).with(Site::FsWrite, 0.5)), &visits);
        let b = roll_sequence(&Injector::new(FaultPlan::new(2).with(Site::FsWrite, 0.5)), &visits);
        assert_ne!(a, b);
    }

    #[test]
    fn unarmed_sites_do_not_consume_randomness() {
        let plan = FaultPlan::new(7).with(Site::SqlQuery, 0.5);
        let a = Injector::new(plan.clone());
        let b = Injector::new(plan);
        // a visits an unarmed site between every armed roll; b never does.
        let mut seq_a = Vec::new();
        let mut seq_b = Vec::new();
        for _ in 0..100 {
            assert!(a.roll(Site::NetConnect).is_none());
            seq_a.push(a.roll(Site::SqlQuery).is_some());
            seq_b.push(b.roll(Site::SqlQuery).is_some());
        }
        assert_eq!(seq_a, seq_b, "unarmed visits must not perturb the stream");
    }

    #[test]
    fn rate_zero_never_fires_rate_one_always_fires() {
        let inj = Injector::new(FaultPlan::new(3).with(Site::FsWrite, 1.0).with(Site::SqlQuery, 0.0));
        for i in 0..50 {
            let f = inj.roll(Site::FsWrite).expect("rate 1.0 must fire");
            assert_eq!(f.n, i + 1, "fault ordinals are dense");
            assert!(inj.roll(Site::SqlQuery).is_none(), "rate 0.0 must not fire");
        }
        let report = inj.report();
        assert_eq!(report.injected[&Site::FsWrite], 50);
        assert_eq!(report.checked[&Site::SqlQuery], 50);
        assert_eq!(report.injected.get(&Site::SqlQuery).copied(), Some(0));
        assert_eq!(report.total_injected(), 50);
    }

    #[test]
    fn inject_is_inert_without_a_scope() {
        assert!(inject(Site::FsWrite).is_none());
        assert!(current().is_none());
    }

    #[test]
    fn scopes_nest_and_unwind() {
        let outer = Injector::new(FaultPlan::new(1).with(Site::FsWrite, 1.0));
        let inner = Injector::new(FaultPlan::new(1).with(Site::FsWrite, 0.0));
        let _g1 = with_injector(Arc::clone(&outer));
        assert!(inject(Site::FsWrite).is_some());
        {
            let _g2 = with_injector(Arc::clone(&inner));
            assert!(inject(Site::FsWrite).is_none(), "innermost injector wins");
        }
        assert!(inject(Site::FsWrite).is_some(), "outer restored after inner drops");
        drop(_g1);
        assert!(inject(Site::FsWrite).is_none());
    }

    #[test]
    fn storm_arms_every_site() {
        let plan = FaultPlan::storm(9, 1.0);
        let inj = Injector::new(plan);
        for site in Site::ALL {
            assert!(inj.roll(site).is_some(), "{site} should be armed");
        }
    }

    #[test]
    fn site_names_are_stable() {
        for site in Site::ALL {
            assert!(site.as_str().contains('.'), "{site}");
            assert_eq!(format!("{site}"), site.as_str());
        }
    }
}
