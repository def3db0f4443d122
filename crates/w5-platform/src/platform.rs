//! The meta-application: one W5 provider instance.
//!
//! A [`Platform`] owns the whole trusted stack — tag registry, kernel,
//! labeled storage, accounts, sessions, app catalog, policies,
//! declassifiers and the export perimeter — and implements the launcher of
//! paper §2: authenticate the user from a cookie, identify the requested
//! application, launch it with the privileges the user's policy grants,
//! and pass its output through the perimeter.

use crate::api::{AppRequest, AppResponse, PlatformApi, W5App};
use crate::appreg::{AppManifest, AppRegistry};
use crate::declass::{DeclassifierRegistry, RelationshipOracle};
use crate::editors::EditorRegistry;
use crate::faultreport::{build_report, FaultKind, FaultReport};
use crate::partlog::PartitionedLog;
use crate::perimeter::{ExportDecision, Exporter};
use crate::policy::{PolicyStore, UserPolicy};
use crate::principal::{Account, AccountStore};
use crate::sanitize::{sanitize_html_labeled, SanitizeStats};
use crate::session::SessionStore;
use bytes::Bytes;
use w5_sync::{Mutex, RwLock};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use w5_difc::{CapSet, Capability, LabelPair, TagRegistry};
use w5_kernel::{Kernel, ResourceLimits};
use w5_store::sql::{BinOp, Expr, SelectItem, Statement};
use w5_store::{Database, LabeledFs, QueryCost, QueryError, QueryMode, Subject, Value};

/// Platform-wide configuration. The `enforce_ifc` switch exists solely for
/// the no-IFC baseline arm of the overhead experiments (E4): a production
/// provider would never disable it.
#[derive(Clone, Debug)]
pub struct PlatformConfig {
    /// Enforce information flow control (perimeter + taint). Disabling
    /// reduces the platform to a conventional shared web host.
    pub enforce_ifc: bool,
    /// Filter JavaScript out of outgoing HTML (§3.5).
    pub sanitize_html: bool,
    /// Resource limits for app instances.
    pub app_limits: ResourceLimits,
    /// Per-query scan budget for app SQL.
    pub query_cost: QueryCost,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig {
            enforce_ifc: true,
            sanitize_html: true,
            app_limits: ResourceLimits::sandbox_default(),
            query_cost: QueryCost::sandbox_default(),
        }
    }
}

/// The outcome of one application invocation, before HTTP encoding.
#[derive(Clone, Debug)]
pub struct InvokeResult {
    /// HTTP-ish status code the gateway should send.
    pub status: u16,
    /// Content type of the body.
    pub content_type: String,
    /// Body (possibly sanitized).
    pub body: Bytes,
    /// The labels the instance ended with.
    pub labels: LabelPair,
    /// The perimeter's decision (None when IFC is disabled).
    pub export: Option<ExportDecision>,
    /// Fault report, if the app failed.
    pub fault: Option<FaultReport>,
    /// Sanitizer statistics, if HTML filtering ran.
    pub sanitized: Option<SanitizeStats>,
}

/// Aggregate platform counters, read through [`Platform::stats_view`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct PlatformStats {
    /// Application invocations.
    pub invocations: u64,
    /// Invocations whose export was blocked.
    pub exports_blocked: u64,
    /// Application faults.
    pub faults: u64,
}

/// One W5 provider instance.
pub struct Platform {
    /// Provider name (federation / diagnostics).
    pub name: String,
    /// Shared tag registry.
    pub registry: Arc<TagRegistry>,
    /// The DIFC kernel.
    pub kernel: Kernel,
    /// Labeled filesystem.
    pub fs: LabeledFs,
    /// Labeled database.
    pub db: Database,
    /// User accounts.
    pub accounts: AccountStore,
    /// Login sessions.
    pub sessions: SessionStore,
    /// Application catalog (manifests).
    pub apps: AppRegistry,
    /// Declassifier catalog.
    pub declassifiers: DeclassifierRegistry,
    /// Editor endorsements (§3.2) backing integrity-protected launches.
    pub editors: EditorRegistry,
    /// Per-user policies.
    pub policies: PolicyStore,
    /// The export perimeter.
    pub exporter: Exporter,
    /// Configuration.
    pub config: PlatformConfig,
    invocations: AtomicU64,
    exports_blocked: AtomicU64,
    faults: AtomicU64,
    /// Installed implementations, keyed by a shared app key that the
    /// perimeter's records reuse.
    impls: RwLock<HashMap<w5_obs::Name, Arc<dyn W5App>>>,
    /// Fault reports, one bounded queue per app key: an app's faults are
    /// evicted only by that app's newer faults.
    fault_log: Mutex<PartitionedLog<String, FaultReport>>,
}

impl Platform {
    /// A fresh provider with the built-in declassifiers and platform tables.
    pub fn new(name: &str, config: PlatformConfig) -> Arc<Platform> {
        let registry = Arc::new(TagRegistry::new());
        let kernel = Kernel::new(Arc::clone(&registry));
        let db = Database::new(Arc::clone(&registry));
        // Platform-owned relationship tables (the oracle reads these).
        // Construction may run inside an armed chaos scope; ride out
        // injected aborts the same way trusted_execute does.
        let trusted = Subject::anonymous();
        let create = |sql: &str| {
            for _ in 0..16 {
                match db.execute(
                    &trusted,
                    QueryMode::Filtered,
                    QueryCost::unlimited(),
                    &LabelPair::public(),
                    sql,
                ) {
                    Ok(_) => return,
                    Err(QueryError::Aborted) => continue,
                    Err(e) => panic!("create platform table: {e}"),
                }
            }
            panic!("create platform table: persistent injected abort");
        };
        create("CREATE TABLE w5_friends (owner TEXT, friend TEXT)");
        create("CREATE TABLE w5_groups (owner TEXT, grp TEXT, member TEXT)");
        create("CREATE TABLE w5_mail (app TEXT, body TEXT, seq INTEGER)");
        // Platform queries are point lookups on these columns; the indexes
        // turn each into one index lookup per visible partition, and a
        // relationship question — every column of the row pinned — into
        // an intersection of postings. Direct calls (not SQL): index
        // creation is schema metadata, not subject to fault injection or
        // label checks.
        for (table, column) in [
            ("w5_friends", "owner"),
            ("w5_friends", "friend"),
            ("w5_groups", "owner"),
            ("w5_groups", "member"),
            ("w5_mail", "app"),
        ] {
            db.create_index(table, column).expect("index a platform table");
        }

        Arc::new(Platform {
            name: name.to_string(),
            accounts: AccountStore::new(Arc::clone(&registry)),
            kernel,
            fs: LabeledFs::new(Arc::clone(&registry)),
            registry,
            db,
            sessions: SessionStore::new(),
            apps: AppRegistry::new(),
            declassifiers: DeclassifierRegistry::with_builtins(),
            editors: EditorRegistry::new(),
            policies: PolicyStore::new(),
            exporter: Exporter::new(),
            config,
            invocations: AtomicU64::new(0),
            exports_blocked: AtomicU64::new(0),
            faults: AtomicU64::new(0),
            impls: RwLock::with_index("platform.impl", 0, HashMap::new()),
            fault_log: Mutex::with_index("platform.impl", 1, PartitionedLog::new()),
        })
    }

    /// Default-config provider.
    pub fn new_default(name: &str) -> Arc<Platform> {
        Platform::new(name, PlatformConfig::default())
    }

    /// Install the executable implementation for a published app key.
    pub fn install_app(&self, key: &str, app: Arc<dyn W5App>) {
        self.impls.write().insert(key.into(), app);
    }

    /// Fetch an app implementation.
    pub fn app_impl(&self, key: &str) -> Option<Arc<dyn W5App>> {
        self.impls.read().get(key).cloned()
    }

    /// Resolve which manifest a user actually runs: their version pin if
    /// any, else the latest.
    pub fn resolve_manifest(&self, viewer: Option<&Account>, key: &str) -> Option<Arc<AppManifest>> {
        self.pinned_or_latest(viewer.map(|v| self.policies.get(v.id)).as_deref(), key)
    }

    fn pinned_or_latest(&self, policy: Option<&UserPolicy>, key: &str) -> Option<Arc<AppManifest>> {
        match policy.and_then(|p| p.version_pins.get(key)) {
            Some(&pin) => self.apps.version(key, pin),
            None => self.apps.latest(key),
        }
    }

    /// The relationship oracle backed by the platform tables.
    pub fn oracle(&self) -> PlatformOracle<'_> {
        PlatformOracle { db: &self.db }
    }

    /// Execute a trusted platform statement, riding out transient injected
    /// aborts (`w5-chaos`). Retries are bounded; a statement that still
    /// aborts is dropped on the floor, and one the store refuses outright
    /// is dropped with a fault report — degraded state, never a crash.
    fn trusted_execute(&self, stmt: Statement) {
        let trusted = Subject::anonymous();
        for _ in 0..16 {
            match self.db.execute_stmt(
                &trusted,
                QueryMode::Filtered,
                QueryCost::unlimited(),
                &LabelPair::public(),
                stmt.clone(),
            ) {
                Ok(_) => return,
                Err(QueryError::Aborted) => continue,
                Err(e) => {
                    // The platform tables and everything written to them
                    // are public, so the detail carries no user secret.
                    let public = LabelPair::public();
                    let report =
                        build_report("w5/platform", FaultKind::Infrastructure, &public, &e.to_string());
                    return self.record_fault(report);
                }
            }
        }
    }

    /// Record a friendship (platform UI path; the social app also writes
    /// these rows through its own API).
    pub fn add_friend(&self, owner: &str, friend: &str) {
        self.trusted_execute(insert_row("w5_friends", &[("owner", owner), ("friend", friend)]));
    }

    /// Record group membership.
    pub fn add_group_member(&self, owner: &str, group: &str, member: &str) {
        self.trusted_execute(insert_row(
            "w5_groups",
            &[("owner", owner), ("grp", group), ("member", member)],
        ));
    }

    /// Launch an application instance and run one request through it —
    /// the complete §2 request path minus HTTP framing (the gateway adds
    /// that). Also the entry point the benchmarks drive directly.
    pub fn invoke(
        &self,
        viewer: Option<&Account>,
        app_key: &str,
        request: AppRequest,
    ) -> InvokeResult {
        self.invocations.fetch_add(1, Ordering::Relaxed);
        // Child of the gateway's HTTP root span when reached over the wire,
        // a fresh trace root when driven directly (benchmarks, tests). The
        // response labels are only known at the end — unioned in below.
        let mut trace_span = w5_obs::span(
            format!("platform.invoke {app_key}"),
            w5_obs::Layer::Platform,
            &w5_obs::ObsLabel::empty(),
        );

        // The launch decides on one snapshot of the viewer's policy: the
        // pin, the module choices, the endorsement requirement and the
        // delegations below are all read from it, so a concurrent policy
        // update lands wholly before this launch or wholly after it.
        let policy = viewer.map(|v| self.policies.get(v.id));
        let policy = policy.as_deref();

        let Some(manifest) = self.pinned_or_latest(policy, app_key) else {
            return error_result(404, "no such application");
        };
        let Some((app_name, app)) =
            self.impls.read().get_key_value(app_key).map(|(k, a)| (k.clone(), Arc::clone(a)))
        else {
            return error_result(404, "application not installed");
        };

        // Resolve module choices: the viewer's pick per slot, defaulting to
        // the app's own developer.
        let mut request = request;
        for slot in &manifest.module_slots {
            let choice = policy
                .and_then(|p| p.module_choices.get(&(app_key.to_string(), slot.clone())))
                .cloned()
                .unwrap_or_else(|| manifest.developer.clone());
            request.modules.insert(slot.clone(), choice);
        }

        // §3.1 integrity protection: if the viewer requires endorsements,
        // the app and its whole import closure must be vouched by one of
        // their trusted editors.
        if let Some(policy) = policy.filter(|p| p.require_endorsement) {
            if let Err(component) = self.editors.check_integrity(
                &self.apps,
                app_key,
                manifest.version,
                &policy.trusted_editors,
            ) {
                return error_result(
                    403,
                    &format!("launch refused: component {component} lacks a trusted endorsement"),
                );
            }
        }

        // Assemble the instance's capability grant from the viewer's policy.
        let mut grant = CapSet::empty();
        if let (Some(v), Some(policy)) = (viewer, policy) {
            if policy.write_delegations.contains(app_key) {
                grant.insert(Capability::plus(v.write_tag));
            }
            if policy.read_delegations.contains(app_key) {
                if let Some(r) = v.read_tag {
                    grant.insert(Capability::plus(r));
                }
            }
        }
        let limits = if self.config.enforce_ifc {
            self.config.app_limits
        } else {
            ResourceLimits::unlimited()
        };
        let pid = self
            .kernel
            .create_process(&format!("app:{app_key}"), LabelPair::public(), grant, limits);

        let query_mode = if self.config.enforce_ifc { QueryMode::Filtered } else { QueryMode::Naive };
        let mut api = PlatformApi::new(
            &self.kernel,
            &self.fs,
            &self.db,
            pid,
            viewer,
            app_key,
            self.config.query_cost,
            query_mode,
        );

        let outcome = quiet_panics(|| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                app.handle(&request, &mut api)
            }))
        });
        let _log = api.take_log();
        let labels = self.kernel.labels(pid).unwrap_or_default();

        let result = match outcome {
            Err(panic) => {
                let detail = panic_message(&panic);
                let report = build_report(app_key, FaultKind::Crash, &labels, &detail);
                self.record_fault(report.clone());
                let mut r = error_result(500, "application error");
                r.fault = Some(report);
                r.labels = labels.clone();
                r
            }
            Ok(Err(e)) => {
                let kind = match e {
                    crate::api::ApiError::Quota => FaultKind::QuotaExceeded,
                    crate::api::ApiError::Denied => FaultKind::FlowDenied,
                    crate::api::ApiError::Unavailable(_) => FaultKind::Infrastructure,
                    _ => FaultKind::BadResponse,
                };
                let report = build_report(app_key, kind, &labels, &e.to_string());
                self.record_fault(report.clone());
                let status = match e {
                    crate::api::ApiError::NotFound => 404,
                    crate::api::ApiError::Denied => 403,
                    crate::api::ApiError::Quota => 429,
                    crate::api::ApiError::Bad(_) => 400,
                    crate::api::ApiError::Unavailable(_) => 503,
                };
                let mut r = error_result(status, &e.to_string());
                r.fault = Some(report);
                r.labels = labels.clone();
                r
            }
            Ok(Ok(response)) => {
                self.export_response(viewer, &app_name, response, labels)
            }
        };

        let _ = self.kernel.exit(pid);
        let _ = self.kernel.reap(pid);
        // The invocation's span is labeled with the labels the instance
        // ended with: a tainted app's timing profile is tainted data.
        trace_span.add_secrecy(result.labels.secrecy.to_obs());
        result
    }

    fn export_response(
        &self,
        viewer: Option<&Account>,
        app: &w5_obs::Name,
        response: AppResponse,
        labels: LabelPair,
    ) -> InvokeResult {
        if !self.config.enforce_ifc {
            // Baseline arm: ship it, no questions asked.
            return InvokeResult {
                status: 200,
                content_type: response.content_type,
                body: response.body,
                labels,
                export: None,
                fault: None,
                sanitized: None,
            };
        }
        let oracle = self.oracle();
        let decision = self.exporter.decide(
            &labels,
            viewer,
            app,
            &self.accounts,
            &self.policies,
            &self.declassifiers,
            &oracle,
        );
        if !decision.allowed {
            self.exports_blocked.fetch_add(1, Ordering::Relaxed);
            let mut r = error_result(403, "export blocked by data owner's policy");
            r.labels = labels;
            r.export = Some(decision);
            return r;
        }
        let (body, sanitized) = if self.config.sanitize_html
            && response.content_type.starts_with("text/html")
        {
            // Valid UTF-8 is the rule, and the strict check is far cheaper
            // than the lossy pass; the lossy pass still decides any body
            // that fails it, so the output is the same byte for byte.
            let text = match std::str::from_utf8(&response.body) {
                Ok(text) => std::borrow::Cow::Borrowed(text),
                Err(_) => String::from_utf8_lossy(&response.body),
            };
            let (clean, stats) = sanitize_html_labeled(&text, labels.secrecy.to_obs());
            (Bytes::from(clean), Some(stats))
        } else {
            (response.body, None)
        };
        InvokeResult {
            status: 200,
            content_type: response.content_type,
            body,
            labels,
            export: Some(decision),
            fault: None,
            sanitized,
        }
    }

    pub(crate) fn record_fault(&self, report: FaultReport) {
        self.faults.fetch_add(1, Ordering::Relaxed);
        self.fault_log.lock().push(report.app.clone(), report);
    }

    /// Fault reports retained for developers (already label-scrubbed),
    /// every app's, oldest first.
    pub fn fault_reports(&self) -> Vec<FaultReport> {
        self.fault_log.lock().all()
    }

    /// The retained fault reports of one app, oldest first.
    pub fn fault_reports_for(&self, app: &str) -> Vec<FaultReport> {
        self.fault_log.lock().read([app])
    }

    /// Counter snapshot.
    pub fn stats_view(&self) -> PlatformStats {
        PlatformStats {
            invocations: self.invocations.load(Ordering::Relaxed),
            exports_blocked: self.exports_blocked.load(Ordering::Relaxed),
            faults: self.faults.load(Ordering::Relaxed),
        }
    }

    /// Build an [`AppRequest`] from decomposed parts (gateway + tests).
    pub fn make_request(
        method: &str,
        action: &str,
        params: &[(&str, &str)],
        viewer: Option<&Account>,
        body: Bytes,
    ) -> AppRequest {
        AppRequest {
            method: method.to_string(),
            action: action.to_string(),
            params: params
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect::<BTreeMap<_, _>>(),
            viewer: viewer.map(|a| a.username.clone()),
            modules: BTreeMap::new(),
            body,
        }
    }
}

thread_local! {
    static SUPPRESS_PANIC_OUTPUT: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Run `f` with panic messages from *this thread* suppressed. Application
/// panics are expected events (they become fault reports); printing their
/// payloads to the provider console would both spam logs and leak data the
/// fault-report redaction exists to protect.
fn quiet_panics<R>(f: impl FnOnce() -> R) -> R {
    use std::sync::Once;
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !SUPPRESS_PANIC_OUTPUT.with(|s| s.get()) {
                previous(info);
            }
        }));
    });
    SUPPRESS_PANIC_OUTPUT.with(|s| s.set(true));
    let result = f();
    SUPPRESS_PANIC_OUTPUT.with(|s| s.set(false));
    result
}

fn error_result(status: u16, msg: &str) -> InvokeResult {
    InvokeResult {
        status,
        content_type: "text/plain; charset=utf-8".to_string(),
        body: Bytes::from(msg.to_string()),
        labels: LabelPair::public(),
        export: None,
        fault: None,
        sanitized: None,
    }
}

fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic".to_string()
    }
}

/// Escape a string for inclusion in a single-quoted SQL literal.
pub fn sql_escape(s: &str) -> String {
    s.replace('\'', "''")
}

/// The relationship oracle over the platform's tables.
pub struct PlatformOracle<'a> {
    db: &'a Database,
}

impl PlatformOracle<'_> {
    /// Does `table` hold a row the platform can see with every
    /// `(column, value)`? The answer leaves without labels, so the count
    /// is unprivileged: only rows that flow to a public reader as they
    /// stand, never one that a raise to an export tag would reveal. Any
    /// query error is a "no": the perimeter fails closed.
    fn holds(&self, table: &str, row: &[(&str, &str)]) -> bool {
        match self.db.execute_stmt(
            &Subject::anonymous(),
            QueryMode::Unprivileged,
            QueryCost::unlimited(),
            &LabelPair::public(),
            count_where(table, row),
        ) {
            Ok(out) => matches!(out.rows.first().map(|r| &r.values[0]), Some(Value::Int(n)) if *n > 0),
            Err(_) => false,
        }
    }
}

impl RelationshipOracle for PlatformOracle<'_> {
    // Both columns are indexed: the answer is the intersection of two
    // postings in each readable partition, and no row is evaluated.
    fn are_friends(&self, a: &str, b: &str) -> bool {
        self.holds("w5_friends", &[("friend", b), ("owner", a)])
    }

    // `member` and `owner` are indexed: their postings intersect, and only
    // the rows in both are checked for the group.
    fn in_group(&self, owner: &str, group: &str, user: &str) -> bool {
        self.holds("w5_groups", &[("member", user), ("grp", group), ("owner", owner)])
    }
}

// The platform's own statements, built as the parser would build them from
// text. The values are usernames and group names from outside; as typed
// literals they have no quoting to get wrong. Apps, which are untrusted and
// arrive with text, keep speaking SQL to the store.

fn text(value: &str) -> Expr {
    Expr::Literal(Value::Text(value.to_string()))
}

/// `SELECT COUNT(*) FROM table WHERE c1 = 'v1' AND c2 = 'v2' …`
fn count_where(table: &str, row: &[(&str, &str)]) -> Statement {
    let filter = row
        .iter()
        .map(|&(column, value)| Expr::Binary {
            op: BinOp::Eq,
            left: Box::new(Expr::Column(column.to_string())),
            right: Box::new(text(value)),
        })
        .reduce(|all, eq| Expr::Binary { op: BinOp::And, left: Box::new(all), right: Box::new(eq) });
    Statement::Select {
        items: vec![SelectItem::CountStar],
        table: table.to_string(),
        join: None,
        filter,
        order_by: None,
        limit: None,
    }
}

/// `INSERT INTO table (c1, c2, …) VALUES ('v1', 'v2', …)`
fn insert_row(table: &str, row: &[(&str, &str)]) -> Statement {
    Statement::Insert {
        table: table.to_string(),
        columns: Some(row.iter().map(|&(column, _)| column.to_string()).collect()),
        rows: vec![row.iter().map(|&(_, value)| text(value)).collect()],
    }
}

#[cfg(test)]
mod tests;
