//! Platform-facing audit entry points.
//!
//! [`AuditExt`] bolts `audit()` onto [`Platform`] without a dependency
//! cycle (w5-platform cannot depend on w5-analyze). `audit()` captures a
//! snapshot, runs the flow analysis and every lint, and returns an
//! [`AuditReport`]. [`AuditExt::audit_recorded`] additionally writes each
//! finding into the w5-obs flow ledger as an `AuditFinding` event, and
//! [`AuditExt::install_app_audited`] is the registration-time hook: it
//! publishes + installs an app and immediately re-audits the whole
//! configuration, so a malicious manifest is flagged the moment it lands.

use crate::graph::Analysis;
use crate::lints::{run_lints, Finding, Severity};
use crate::snapshot::ConfigSnapshot;
use serde::Serialize;
use std::fmt::Write as _;
use std::sync::Arc;
use w5_obs::{EventKind, ObsLabel};
use w5_platform::{AppManifest, Platform, RegistryError, W5App};

/// The outcome of one configuration audit.
#[derive(Clone, Debug, Serialize)]
pub struct AuditReport {
    /// Platform name the audit ran against.
    pub platform: String,
    /// Tags analyzed.
    pub tags_analyzed: usize,
    /// All findings, most severe first.
    pub findings: Vec<Finding>,
}

impl AuditReport {
    /// Run the full pipeline over an already-captured snapshot.
    pub fn from_snapshot(snap: ConfigSnapshot) -> AuditReport {
        let analysis = Analysis::analyze(snap);
        let findings = run_lints(&analysis);
        AuditReport {
            platform: analysis.snapshot.platform.clone(),
            tags_analyzed: analysis.snapshot.tags.len(),
            findings,
        }
    }

    /// The most severe finding present.
    pub fn worst(&self) -> Option<Severity> {
        self.findings.iter().map(|f| f.severity).max()
    }

    /// No findings at all.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Would a `--deny threshold` gate pass? True when no finding is at
    /// or above `threshold`.
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
            "w5lint: audited platform {:?} ({} tags analyzed)",
            self.platform, self.tags_analyzed
        );
        for f in &self.findings {
            let _ = writeln!(
                s,
                "{}[{}] {} ({}): {}",
                f.code,
                f.severity,
                f.subject,
                f.name,
                f.message
            );
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
}

/// `Platform::audit()` and friends, as an extension trait.
pub trait AuditExt {
    /// Capture the configuration and run the full static audit.
    fn audit(&self) -> AuditReport;

    /// [`AuditExt::audit`], plus one `AuditFinding` ledger event per
    /// finding. Error-severity findings are denial events: the ledger
    /// never samples them away.
    fn audit_recorded(&self) -> AuditReport;

    /// Registration-time hook: publish `manifest`, install `app` under
    /// the manifest's key, then audit the resulting configuration and
    /// record the findings. The app stays installed regardless of the
    /// audit outcome — the report tells the operator what changed.
    fn install_app_audited(
        &self,
        manifest: AppManifest,
        app: Arc<dyn W5App>,
    ) -> Result<AuditReport, RegistryError>;
}

impl AuditExt for Platform {
    fn audit(&self) -> AuditReport {
        AuditReport::from_snapshot(ConfigSnapshot::capture(self))
    }

    fn audit_recorded(&self) -> AuditReport {
        let report = self.audit();
        for f in &report.findings {
            w5_obs::record(
                &ObsLabel::empty(),
                EventKind::AuditFinding {
                    code: f.code.to_string(),
                    severity: f.severity.name().to_string(),
                    subject: f.subject.clone(),
                    message: f.message.clone(),
                },
            );
        }
        report
    }

    fn install_app_audited(
        &self,
        manifest: AppManifest,
        app: Arc<dyn W5App>,
    ) -> Result<AuditReport, RegistryError> {
        let key = manifest.key();
        self.apps.publish(manifest)?;
        self.install_app(&key, app);
        Ok(self.audit_recorded())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use w5_obs::Ledger;
    use w5_platform::{GrantScope, Platform, PlatformConfig};

    #[test]
    fn clean_platform_audits_clean() {
        let p = Platform::new_default("audit-clean");
        p.accounts.register("alice", "pw").unwrap();
        let report = p.audit();
        assert!(report.is_clean(), "unexpected findings: {:#?}", report.findings);
        assert!(report.passes(Severity::Info));
        assert_eq!(report.worst(), None);
    }

    #[test]
    fn unenforced_platform_fails_the_gate() {
        let p = Platform::new(
            "audit-off",
            PlatformConfig { enforce_ifc: false, ..Default::default() },
        );
        p.accounts.register("alice", "pw").unwrap();
        let report = p.audit();
        assert_eq!(report.worst(), Some(Severity::Error));
        assert!(!report.passes(Severity::Error));
        assert_eq!(report.with_code("W5A001").len(), 1);
    }

    #[test]
    fn findings_are_recorded_in_the_ledger() {
        let ledger = Arc::new(Ledger::new());
        let p = Platform::new(
            "audit-ledger",
            PlatformConfig { enforce_ifc: false, ..Default::default() },
        );
        let alice = p.accounts.register("alice", "pw").unwrap();
        p.policies.grant_declassifier(alice.id, "missing-declass", GrantScope::AllApps);
        let report = {
            let _scope = w5_obs::scoped(Arc::clone(&ledger));
            p.audit_recorded()
        };
        assert!(report.with_code("W5A001").len() == 1);
        assert!(report.with_code("W5A007").len() == 1);
        let audit_events: Vec<_> = ledger
            .events()
            .into_iter()
            .filter_map(|e| match e.kind {
                EventKind::AuditFinding { code, severity, .. } => Some((code, severity)),
                _ => None,
            })
            .collect();
        assert!(audit_events.contains(&("W5A001".to_string(), "error".to_string())));
        assert!(audit_events.contains(&("W5A007".to_string(), "warning".to_string())));
    }

    #[test]
    fn report_renders_and_serializes() {
        let p = Platform::new(
            "audit-render",
            PlatformConfig { enforce_ifc: false, ..Default::default() },
        );
        p.accounts.register("alice", "pw").unwrap();
        let report = p.audit();
        let human = report.render_human();
        assert!(human.contains("W5A001[error]"));
        assert!(human.contains("1 error(s)"));
        let json = report.to_json();
        assert!(json.contains("\"W5A001\""), "JSON should carry the code: {json}");
        assert!(json.contains("\"error\""), "JSON should carry the severity: {json}");
    }
}
