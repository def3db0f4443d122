//! # w5-lockdep — lock-order certification for the W5 synchronization layer
//!
//! W5's locks span every layer from the connection threads to the ledger, and
//! several classes are multi-instance (registry meta/global, ledger
//! rings) under a lower-index-first rule that
//! nothing but review used to enforce. This crate makes the
//! synchronization layer *checkable*, the way `w5lint` made the label
//! configuration checkable:
//!
//! 1. Every lock in the workspace is a classed `w5-sync` wrapper; test and
//!    sim runs record an [`ObservedRun`] — cross-class acquisition edges,
//!    same-class double acquisitions, blocking calls under locks.
//! 2. [`Manifest::workspace`] declares the intended total order: every
//!    lock class with a numeric rank (outer layers rank lower and lock
//!    first), plus statically allowed held→acquired pairs and the classes
//!    that require an explicit `allow_held` annotation at the call site.
//! 3. [`analyze`] checks the observed facts against the declaration and
//!    emits findings with stable codes `W5D001`–`W5D006` through the same
//!    [`Finding`]/report machinery as the flow auditor; violations are
//!    *static* facts (declared order vs. observed edge), not just runtime
//!    observations.
//!
//! | code   | name                 | severity | condition |
//! |--------|----------------------|----------|-----------|
//! | W5D001 | lock-cycle           | error    | observed acquisition edges form a cross-class cycle |
//! | W5D002 | same-class-unordered | error    | one class acquired twice without strictly ascending instance index |
//! | W5D003 | held-across-blocking | error    | a marked blocking call ran with classed locks held, unannotated |
//! | W5D004 | order-inversion      | error    | an observed edge contradicts the declared class ranks |
//! | W5D005 | undeclared-class     | warning  | an observed class is missing from the manifest |
//! | W5D006 | unannotated-ledger   | warning  | an annotation-required class acquired under locks without `allow_held` |
//!
//! Front ends: the `w5deadlock` CLI (`--graph`/`--json`/`--deny`, CI exit
//! codes, DOT output — `w5lint`'s shape), and `w5_sim::harness`, the one
//! driver under the kernel, store and net oracles, which records and
//! analyzes every run so each oracle run doubles as a lockdep run.

#![forbid(unsafe_code)]

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use w5_sync::lockdep::{ObservedRun, RunNote};

pub use w5_analyze::{Finding, Severity};

/// The W5D lint catalog: `(code, name, severity, one-line description)`.
pub const LOCKDEP_CATALOG: [(&str, &str, Severity, &str); 6] = [
    (
        "W5D001",
        "lock-cycle",
        Severity::Error,
        "observed acquisition edges form a cross-class cycle (deadlock is schedulable)",
    ),
    (
        "W5D002",
        "same-class-unordered",
        Severity::Error,
        "one lock class acquired twice without strictly ascending instance index (bypasses the lower-index-first rule)",
    ),
    (
        "W5D003",
        "held-across-blocking",
        Severity::Error,
        "a marked blocking call (socket write, fs I/O, flush) ran with classed locks held",
    ),
    (
        "W5D004",
        "order-inversion",
        Severity::Error,
        "an observed acquisition edge contradicts the declared class ranks",
    ),
    (
        "W5D005",
        "undeclared-class",
        Severity::Warning,
        "an observed lock class is missing from the declared-order manifest",
    ),
    (
        "W5D006",
        "unannotated-ledger",
        Severity::Warning,
        "an annotation-required class was acquired under held locks without allow_held",
    ),
];

/// One declared lock class.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ClassDecl {
    /// Class name as passed to the `w5-sync` constructors.
    pub name: String,
    /// Position in the total acquisition order; lower ranks lock first.
    pub rank: u32,
    /// What the class protects.
    #[serde(default)]
    pub note: String,
}

/// A statically allowed held→acquired pair (equivalent to an `allow_held`
/// annotation at every site; `acquired` may also name a blocking site).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AllowDecl {
    /// Class (or blocking site) being entered.
    pub acquired: String,
    /// Class that may be held while doing so ("*" for any).
    pub held: String,
}

/// The declared-order manifest: the workspace's intended locking
/// discipline as one serializable value.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// All lock classes, with ranks.
    pub classes: Vec<ClassDecl>,
    /// Statically allowed held→acquired pairs.
    #[serde(default)]
    pub allow_held: Vec<AllowDecl>,
    /// Classes whose acquisition under any held lock requires an explicit
    /// `allow_held` annotation (W5D006).
    #[serde(default)]
    pub require_annotation: Vec<String>,
}

macro_rules! class {
    ($name:literal, $rank:literal, $note:literal) => {
        ClassDecl { name: $name.to_string(), rank: $rank, note: $note.to_string() }
    };
}

impl Manifest {
    /// The workspace's declared lock order. Outer layers (net, platform)
    /// rank lower and lock first; leaf utilities (chaos, obs) rank
    /// highest so any layer may reach them while holding its own locks.
    pub fn workspace() -> Manifest {
        Manifest {
            classes: vec![
                class!("test.fixture", 1, "test-local scaffolding (channel handles, probes)"),
                class!("net.accept", 10, "HTTP server listener-closed receiver"),
                class!("net.dns", 12, "DNS record table"),
                class!("net.dns_thread", 13, "DNS refresher join handle"),
                class!("net.pipeline", 14, "pipeline scheduler state — handler slots + DRR ticket queues"),
                class!("platform.sessions", 20, "live session table"),
                class!("platform.principals", 21, "principal name/id maps"),
                class!("platform.appreg", 22, "app manifest + module registry"),
                class!("platform.policy", 23, "per-user declassification policies"),
                class!("platform.declass", 24, "declassifier catalog, rate counters, audiences"),
                class!("platform.editors", 25, "editor endorsement table"),
                class!("platform.perimeter", 26, "perimeter audit, one bounded queue per label"),
                class!("platform.impl", 27, "app implementations (impls=0), per-app fault log (faults=1)"),
                class!("platform.boundary", 28, "net-boundary principal-class → kernel process map"),
                class!("platform.mail", 29, "inter-app mail seq counters, one per message label pair"),
                class!("baseline.silo", 30, "siloed-deployment baseline state"),
                class!("baseline.mashup", 31, "mashup baseline received-data log"),
                class!("baseline.thirdparty", 32, "third-party-hosting baseline state"),
                class!("kernel.procs", 40, "kernel process table (the kernel's only lock)"),
                class!("store.partition", 50, "SQL store label-partitioned table map"),
                class!("store.fs", 52, "labeled in-memory filesystem tree"),
                class!("difc.registry", 60, "tag metadata (meta=0); the global bag is a rule, not a lock"),
                class!("chaos.injector", 80, "fault-injector schedule state"),
                class!("obs.ledger", 90, "flow ledger (event ring=0, span ring=1)"),
            ],
            allow_held: Vec::new(),
            require_annotation: vec!["obs.ledger".to_string()],
        }
    }

    /// Rank of a declared class, if present.
    pub fn rank_of(&self, class: &str) -> Option<u32> {
        self.classes.iter().find(|c| c.name == class).map(|c| c.rank)
    }

    /// Is `held` → `acquired` statically allowed?
    pub fn allows(&self, held: &str, acquired: &str) -> bool {
        self.allow_held
            .iter()
            .any(|a| a.acquired == acquired && (a.held == "*" || a.held == held))
    }

    /// Pretty JSON encoding.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("manifest serializes")
    }

    /// Parse a manifest from JSON.
    pub fn from_json(s: &str) -> Result<Manifest, String> {
        serde_json::from_str(s).map_err(|e| e.to_string())
    }
}

/// The outcome of one lockdep analysis.
#[derive(Clone, Debug, Serialize)]
pub struct DeadlockReport {
    /// Classes in the manifest.
    pub classes_declared: usize,
    /// Cross-class edges in the observed run.
    pub edges_observed: usize,
    /// All findings, most severe first.
    pub findings: Vec<Finding>,
    /// Run-level notes (operation-mix context from the recorder).
    pub notes: Vec<RunNote>,
}

impl DeadlockReport {
    /// The most severe finding present.
    pub fn worst(&self) -> Option<Severity> {
        self.findings.iter().map(|f| f.severity).max()
    }

    /// No findings at all.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Would a `--deny threshold` gate pass?
    pub fn passes(&self, threshold: Severity) -> bool {
        self.findings.iter().all(|f| f.severity < threshold)
    }

    /// Findings with a given code.
    pub fn with_code(&self, code: &str) -> Vec<&Finding> {
        self.findings.iter().filter(|f| f.code == code).collect()
    }

    /// Pretty JSON encoding.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }

    /// Human-readable rendering, one line per finding plus a summary.
    pub fn render_human(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "w5deadlock: {} class(es) declared, {} edge(s) observed",
            self.classes_declared, self.edges_observed
        );
        for f in &self.findings {
            let _ = writeln!(s, "{}[{}] {} ({}): {}", f.code, f.severity, f.subject, f.name, f.message);
        }
        for n in &self.notes {
            let _ = writeln!(s, "note: {} = {}", n.key, n.value);
        }
        let (mut e, mut w, mut i) = (0usize, 0usize, 0usize);
        for f in &self.findings {
            match f.severity {
                Severity::Error => e += 1,
                Severity::Warning => w += 1,
                Severity::Info => i += 1,
            }
        }
        if self.findings.is_empty() {
            let _ = writeln!(s, "clean: no findings");
        } else {
            let _ = writeln!(s, "{e} error(s), {w} warning(s), {i} info");
        }
        s
    }

    /// Write each finding into the w5-obs flow ledger as an
    /// `AuditFinding` event — same machinery as `AuditExt::audit_recorded`.
    pub fn record_to_ledger(&self) {
        for f in &self.findings {
            w5_obs::record(
                &w5_obs::ObsLabel::empty(),
                w5_obs::EventKind::AuditFinding {
                    code: f.code.to_string(),
                    severity: f.severity.name().to_string(),
                    subject: f.subject.clone(),
                    message: f.message.clone(),
                },
            );
        }
    }
}

fn catalog(code: &str) -> (&'static str, &'static str, Severity) {
    for (c, name, sev, _) in LOCKDEP_CATALOG {
        if c == code {
            return (c, name, sev);
        }
    }
    unreachable!("unknown lockdep code {code}");
}

fn finding(code: &str, subject: String, message: String) -> Finding {
    let (code, name, severity) = catalog(code);
    Finding { code, name, severity, subject, message }
}

/// Analyze one observed run against the declared manifest.
pub fn analyze(manifest: &Manifest, run: &ObservedRun) -> DeadlockReport {
    let mut findings: Vec<Finding> = Vec::new();

    // W5D005: every observed class must be declared. One finding per class.
    let declared: BTreeSet<&str> = manifest.classes.iter().map(|c| c.name.as_str()).collect();
    let mut dup_check: BTreeMap<&str, usize> = BTreeMap::new();
    for c in &manifest.classes {
        *dup_check.entry(c.name.as_str()).or_insert(0) += 1;
    }
    for (name, n) in dup_check {
        if n > 1 {
            findings.push(finding(
                "W5D005",
                name.to_string(),
                format!("class {name:?} is declared {n} times in the manifest; ranks are ambiguous"),
            ));
        }
    }
    for class in run.classes() {
        if !declared.contains(class.as_str()) {
            findings.push(finding(
                "W5D005",
                class.clone(),
                format!(
                    "lock class {class:?} was observed at runtime but is not in the declared-order \
                     manifest; add it with a rank so its edges are checkable"
                ),
            ));
        }
    }

    // W5D004: observed edge against declared ranks.
    for e in &run.edges {
        let (Some(rh), Some(ra)) = (manifest.rank_of(&e.held), manifest.rank_of(&e.acquired))
        else {
            continue; // undeclared classes already flagged by W5D005
        };
        if rh >= ra && !manifest.allows(&e.held, &e.acquired) {
            let mut msg = format!(
                "acquired {acq:?} (rank {ra}) while holding {held:?} (rank {rh}) at {site}; \
                 declared order requires rank to strictly increase ({n} occurrence(s))",
                acq = e.acquired,
                held = e.held,
                site = e.site,
                n = e.count,
            );
            if !e.context.is_empty() {
                let _ = write!(msg, "; active operation mix: {}", e.context);
            }
            findings.push(finding("W5D004", format!("{} -> {}", e.held, e.acquired), msg));
        }
    }

    // W5D001: cycles among observed cross-class edges.
    for cycle in find_cycles(run) {
        let subject = cycle.path.first().cloned().unwrap_or_default();
        let mut msg = format!("acquisition cycle: {}", cycle.render);
        if !cycle.context.is_empty() {
            let _ = write!(msg, "; active operation mix: {}", cycle.context);
        }
        findings.push(finding("W5D001", subject, msg));
    }

    // W5D002: same-class events must be strictly ascending by index.
    for s in &run.same_class {
        if s.acquired_index <= s.held_index {
            let what = if s.acquired_index == s.held_index {
                "re-acquired the same instance (self-deadlock)".to_string()
            } else {
                format!(
                    "acquired instance {} while holding instance {} (descending: bypasses the \
                     lower-index-first rule)",
                    s.acquired_index, s.held_index
                )
            };
            findings.push(finding(
                "W5D002",
                s.class.clone(),
                format!("{what} at {} ({} occurrence(s))", s.site, s.count),
            ));
        }
    }

    // W5D003: blocking with locks held, unless annotated or declared.
    for b in &run.blocking {
        let statically_allowed = b
            .held
            .iter()
            .all(|h| manifest.allows(h.split('#').next().unwrap_or(h), &b.site));
        if !b.allowed && !statically_allowed {
            findings.push(finding(
                "W5D003",
                b.site.clone(),
                format!(
                    "blocking call {site:?} at {loc} ran while holding [{held}] ({n} occurrence(s)); \
                     move the call after guard drop or annotate with allow_held({site:?})",
                    site = b.site,
                    loc = b.location,
                    held = b.held.join(", "),
                    n = b.count,
                ),
            ));
        }
    }

    // W5D006: annotation-required classes acquired under locks.
    for e in &run.edges {
        if !manifest.require_annotation.iter().any(|c| c == &e.acquired) {
            continue;
        }
        if !e.allowed && !manifest.allows(&e.held, &e.acquired) {
            findings.push(finding(
                "W5D006",
                format!("{} -> {}", e.held, e.acquired),
                format!(
                    "{acq:?} acquired at {site} while holding {held:?} without an allow_held \
                     annotation ({n} occurrence(s)); move the ledger call after guard drop or \
                     declare the hold intentional",
                    acq = e.acquired,
                    site = e.site,
                    held = e.held,
                    n = e.count,
                ),
            ));
        }
    }

    findings.sort_by(|a, b| b.severity.cmp(&a.severity).then(a.code.cmp(b.code)));
    DeadlockReport {
        classes_declared: manifest.classes.len(),
        edges_observed: run.edges.len(),
        findings,
        notes: run.notes.clone(),
    }
}

/// Validate the manifest alone (no observed facts): the static gate the
/// CI `w5deadlock --deny error` invocation runs with no run files.
pub fn analyze_manifest(manifest: &Manifest) -> DeadlockReport {
    analyze(manifest, &ObservedRun::empty())
}

struct Cycle {
    path: Vec<String>,
    render: String,
    context: String,
}

/// Find elementary cycles among the observed cross-class edges. Each
/// cycle is reported once, canonicalized to start at its smallest class.
fn find_cycles(run: &ObservedRun) -> Vec<Cycle> {
    // adjacency: class -> (next class -> site of first such edge)
    let mut adj: BTreeMap<&str, BTreeMap<&str, (&str, &str)>> = BTreeMap::new();
    for e in &run.edges {
        adj.entry(&e.held).or_default().entry(&e.acquired).or_insert((&e.site, &e.context));
    }
    let nodes: Vec<&str> = adj.keys().copied().collect();
    let mut seen_cycles: BTreeSet<Vec<String>> = BTreeSet::new();
    let mut out = Vec::new();

    // DFS from each node; a back edge to a node on the current stack
    // closes a cycle. Graphs here are tiny (bounded by the class catalog).
    for &start in &nodes {
        let mut stack: Vec<&str> = vec![start];
        let mut iters: Vec<Vec<&str>> =
            vec![adj.get(start).map(|m| m.keys().copied().collect()).unwrap_or_default()];
        while let Some(succs) = iters.last_mut() {
            if let Some(next) = succs.pop() {
                if let Some(pos) = stack.iter().position(|&n| n == next) {
                    let cycle_nodes: Vec<&str> = stack[pos..].to_vec();
                    // canonicalize: rotate so the smallest class leads
                    let min_ix = cycle_nodes
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, n)| **n)
                        .map(|(i, _)| i)
                        .unwrap_or(0);
                    let mut canon: Vec<String> =
                        cycle_nodes.iter().map(|n| n.to_string()).collect();
                    canon.rotate_left(min_ix);
                    if seen_cycles.insert(canon.clone()) {
                        let mut render = String::new();
                        let mut context = String::new();
                        for i in 0..canon.len() {
                            let from = &canon[i];
                            let to = &canon[(i + 1) % canon.len()];
                            let (site, ctx) = adj
                                .get(from.as_str())
                                .and_then(|m| m.get(to.as_str()))
                                .copied()
                                .unwrap_or(("?", ""));
                            let _ = write!(render, "{from} -> {to} (at {site})");
                            if i + 1 < canon.len() {
                                render.push_str(", ");
                            }
                            if context.is_empty() && !ctx.is_empty() {
                                context = ctx.to_string();
                            }
                        }
                        let _ = write!(render, " -> back to {}", canon[0]);
                        out.push(Cycle { path: canon, render, context });
                    }
                } else if !stack.contains(&next) {
                    stack.push(next);
                    iters.push(
                        adj.get(next).map(|m| m.keys().copied().collect()).unwrap_or_default(),
                    );
                }
            } else {
                iters.pop();
                stack.pop();
            }
        }
    }
    out
}

/// Render the declared order and observed edges as a DOT graph: declared
/// classes as rank-sorted nodes, observed edges as solid arrows (red when
/// they inverted the declared order), undeclared classes dashed.
pub fn to_dot(manifest: &Manifest, run: &ObservedRun) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "digraph w5locks {{");
    let _ = writeln!(s, "  rankdir=TB;");
    let _ = writeln!(s, "  node [shape=box, fontname=\"monospace\"];");
    let mut classes = manifest.classes.clone();
    classes.sort_by_key(|c| c.rank);
    for c in &classes {
        let _ = writeln!(s, "  \"{}\" [label=\"{}\\nrank {}\"];", c.name, c.name, c.rank);
    }
    for class in run.classes() {
        if manifest.rank_of(&class).is_none() {
            let _ = writeln!(s, "  \"{class}\" [style=dashed, color=orange];");
        }
    }
    for e in &run.edges {
        let inverted = match (manifest.rank_of(&e.held), manifest.rank_of(&e.acquired)) {
            (Some(rh), Some(ra)) => rh >= ra,
            _ => false,
        };
        let attrs = if inverted {
            " [color=red, penwidth=2]".to_string()
        } else if e.allowed {
            " [color=gray, label=\"allowed\"]".to_string()
        } else {
            String::new()
        };
        let _ = writeln!(s, "  \"{}\" -> \"{}\"{};", e.held, e.acquired, attrs);
    }
    let _ = writeln!(s, "}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use w5_sync::lockdep::{self, Recorder};
    use w5_sync::Mutex;

    /// The deliberately inverted two-class fixture: two threads nest the
    /// same two classes in opposite orders. The recorded run must yield
    /// W5D001 with a readable cycle path.
    fn inverted_fixture_run() -> ObservedRun {
        let rec = Arc::new(Recorder::new());
        let a = Arc::new(Mutex::new("fixture.alpha", ()));
        let b = Arc::new(Mutex::new("fixture.beta", ()));
        // Sequential nesting in both directions records the same edges a
        // racing pair would, without ever scheduling the actual deadlock.
        {
            let _scope = lockdep::scoped(Arc::clone(&rec));
            {
                let _ga = a.lock();
                let _gb = b.lock();
            }
            {
                let _gb = b.lock();
                let _ga = a.lock();
            }
        }
        rec.snapshot()
    }

    #[test]
    fn workspace_manifest_is_clean() {
        let report = analyze_manifest(&Manifest::workspace());
        assert!(report.is_clean(), "unexpected findings: {:#?}", report.findings);
        assert!(report.passes(Severity::Info));
    }

    #[test]
    fn workspace_manifest_round_trips_through_json() {
        let m = Manifest::workspace();
        let back = Manifest::from_json(&m.to_json()).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn inverted_fixture_yields_a_cycle_with_a_readable_path() {
        let run = inverted_fixture_run();
        let report = analyze(&Manifest::workspace(), &run);
        let cycles = report.with_code("W5D001");
        assert_eq!(cycles.len(), 1, "findings: {:#?}", report.findings);
        let msg = &cycles[0].message;
        assert!(msg.contains("fixture.alpha -> fixture.beta"), "cycle path unreadable: {msg}");
        assert!(msg.contains("fixture.beta -> fixture.alpha"), "cycle path unreadable: {msg}");
        assert!(msg.contains(".rs:"), "cycle hops should carry sites: {msg}");
        // the fixture classes are (intentionally) not in the manifest
        assert_eq!(report.with_code("W5D005").len(), 2);
        assert!(!report.passes(Severity::Error));
    }

    #[test]
    fn rank_inversion_is_a_static_fact() {
        // store.partition locked while obs... inverted: ledger (90) held
        // while taking the store partition lock (50).
        let mut run = ObservedRun::empty();
        run.edges.push(w5_sync::lockdep::ObservedEdge {
            held: "obs.ledger".into(),
            held_index: 0,
            acquired: "store.partition".into(),
            acquired_index: 0,
            site: "exec.rs:1".into(),
            allowed: false,
            count: 3,
            context: "sends=10 spawns=2".into(),
        });
        let report = analyze(&Manifest::workspace(), &run);
        let inv = report.with_code("W5D004");
        assert_eq!(inv.len(), 1);
        assert!(inv[0].message.contains("rank 90"), "message: {}", inv[0].message);
        assert!(
            inv[0].message.contains("sends=10 spawns=2"),
            "operation mix must be named: {}",
            inv[0].message
        );
    }

    #[test]
    fn descending_same_class_is_w5d002_and_ascending_is_clean() {
        let rec = Arc::new(Recorder::new());
        let lo = Mutex::with_index("difc.registry", 0, ());
        let hi = Mutex::with_index("difc.registry", 1, ());
        {
            let _scope = lockdep::scoped(Arc::clone(&rec));
            let _a = lo.lock();
            let _b = hi.lock(); // ascending: fine
        }
        let clean = analyze(&Manifest::workspace(), &rec.snapshot());
        assert!(clean.with_code("W5D002").is_empty(), "{:#?}", clean.findings);

        rec.reset();
        {
            let _scope = lockdep::scoped(Arc::clone(&rec));
            let _b = hi.lock();
            let _a = lo.lock(); // descending: rule bypassed
        }
        let report = analyze(&Manifest::workspace(), &rec.snapshot());
        let hits = report.with_code("W5D002");
        assert_eq!(hits.len(), 1, "{:#?}", report.findings);
        assert!(hits[0].message.contains("instance 0 while holding instance 1"));
    }

    #[test]
    fn unannotated_ledger_under_lock_warns_and_annotation_silences() {
        let rec = Arc::new(Recorder::new());
        let meta = Mutex::with_index("difc.registry", 0, ());
        let ledger = Mutex::with_index("obs.ledger", 0, ());
        {
            let _scope = lockdep::scoped(Arc::clone(&rec));
            let _g = meta.lock();
            let _l = ledger.lock();
        }
        let report = analyze(&Manifest::workspace(), &rec.snapshot());
        assert_eq!(report.with_code("W5D006").len(), 1, "{:#?}", report.findings);

        rec.reset();
        {
            let _scope = lockdep::scoped(Arc::clone(&rec));
            let _g = meta.lock();
            let _permit = lockdep::allow_held("obs.ledger");
            let _l = ledger.lock();
        }
        let report = analyze(&Manifest::workspace(), &rec.snapshot());
        assert!(report.with_code("W5D006").is_empty(), "{:#?}", report.findings);
    }

    #[test]
    fn blocking_under_lock_is_w5d003() {
        let rec = Arc::new(Recorder::new());
        let global = Mutex::with_index("difc.registry", 1, ());
        {
            let _scope = lockdep::scoped(Arc::clone(&rec));
            let _g = global.lock();
            lockdep::blocking("net.socket.write");
        }
        let report = analyze(&Manifest::workspace(), &rec.snapshot());
        let hits = report.with_code("W5D003");
        assert_eq!(hits.len(), 1, "{:#?}", report.findings);
        assert!(hits[0].message.contains("difc.registry#1"), "{}", hits[0].message);
    }

    #[test]
    fn report_renders_serializes_and_records() {
        let run = inverted_fixture_run();
        let report = analyze(&Manifest::workspace(), &run);
        let human = report.render_human();
        assert!(human.contains("W5D001[error]"), "{human}");
        let json = report.to_json();
        assert!(json.contains("\"W5D001\""), "{json}");

        let ledger = Arc::new(w5_obs::Ledger::new());
        {
            let _scope = w5_obs::scoped(Arc::clone(&ledger));
            report.record_to_ledger();
        }
        assert!(ledger.events().iter().any(|e| matches!(
            &e.kind,
            w5_obs::EventKind::AuditFinding { code, .. } if code == "W5D001"
        )));
    }

    #[test]
    fn dot_output_marks_inversions() {
        let mut run = inverted_fixture_run();
        run.edges.push(w5_sync::lockdep::ObservedEdge {
            held: "obs.ledger".into(),
            held_index: 0,
            acquired: "difc.registry".into(),
            acquired_index: 0,
            site: "x.rs:1".into(),
            allowed: false,
            count: 1,
            context: String::new(),
        });
        let dot = to_dot(&Manifest::workspace(), &run);
        assert!(dot.contains("digraph w5locks"));
        assert!(dot.contains("\"obs.ledger\" -> \"difc.registry\" [color=red"), "{dot}");
        assert!(dot.contains("\"fixture.alpha\" [style=dashed"), "{dot}");
    }

    #[test]
    fn merged_runs_gate_like_single_runs() {
        let mut merged = ObservedRun::empty();
        merged.merge(&inverted_fixture_run());
        let report = analyze(&Manifest::workspace(), &merged);
        assert!(!report.passes(Severity::Error));
    }
}
