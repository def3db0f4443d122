//! Label-safe fault reports (paper §3.5, "Debugging").
//!
//! "If the platform were to send core dumps to developers, it could
//! wrongly expose users' data to developers. Yet developers need to get
//! some information when their applications malfunction."
//!
//! The compromise implemented here: when an application instance fails,
//! the platform produces a [`FaultReport`] whose free-text fields are
//! **redacted whenever the failing process carried any secrecy label** —
//! the error *category*, app identity and resource usage are always safe
//! to share (they are properties of the code, not the data), while error
//! messages and payload excerpts may embed user data and are dropped
//! unless the process was label-free.

use w5_difc::LabelPair;

/// Coarse failure categories, safe to reveal to developers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The app's handler panicked or returned an internal error.
    Crash,
    /// A flow-control denial the app could not recover from.
    FlowDenied,
    /// A resource quota was exhausted.
    QuotaExceeded,
    /// The app produced a malformed response.
    BadResponse,
    /// The platform's own infrastructure failed underneath the app
    /// (aborted storage commit or query, injected chaos fault). Not
    /// the app's fault; safe to retry.
    Infrastructure,
}

impl FaultKind {
    /// Stable string for logs and the developer dashboard.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::Crash => "crash",
            FaultKind::FlowDenied => "flow-denied",
            FaultKind::QuotaExceeded => "quota-exceeded",
            FaultKind::BadResponse => "bad-response",
            FaultKind::Infrastructure => "infrastructure",
        }
    }
}

/// What a developer receives about one failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultReport {
    /// The failing application.
    pub app: String,
    /// The failure category.
    pub kind: FaultKind,
    /// Detailed message — present only when provably free of user data.
    pub detail: Option<String>,
    /// Whether detail was withheld because the process was tainted.
    pub redacted: bool,
}

/// Build a report for a failure in `app` whose process ended with
/// `labels`, given the raw `detail` produced inside the instance.
pub fn build_report(app: &str, kind: FaultKind, labels: &LabelPair, detail: &str) -> FaultReport {
    // Any secrecy tag on the process means the detail string may be
    // derived from protected data: redact. Integrity tags are harmless
    // (they claim provenance, they don't carry secrets).
    if labels.secrecy.is_empty() {
        FaultReport { app: app.to_string(), kind, detail: Some(detail.to_string()), redacted: false }
    } else {
        FaultReport { app: app.to_string(), kind, detail: None, redacted: true }
    }
}

impl FaultReport {
    /// Render as a single log line.
    pub fn to_log_line(&self) -> String {
        match &self.detail {
            Some(d) => format!("fault app={} kind={} detail={:?}", self.app, self.kind.as_str(), d),
            None => format!("fault app={} kind={} detail=<redacted>", self.app, self.kind.as_str()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use w5_difc::{Label, Tag};

    #[test]
    fn untainted_failure_keeps_detail() {
        let r = build_report("devA/photos", FaultKind::Crash, &LabelPair::public(), "index 3 out of bounds");
        assert!(!r.redacted);
        assert_eq!(r.detail.as_deref(), Some("index 3 out of bounds"));
        assert!(r.to_log_line().contains("out of bounds"));
    }

    #[test]
    fn tainted_failure_redacts_detail() {
        let labels = LabelPair::new(Label::singleton(Tag::from_raw(5)), Label::empty());
        let r = build_report(
            "devA/photos",
            FaultKind::Crash,
            &labels,
            "panic: could not parse 'bob's SSN is 123-45-6789'",
        );
        assert!(r.redacted);
        assert_eq!(r.detail, None);
        let line = r.to_log_line();
        assert!(!line.contains("SSN"), "secret must not leak: {line}");
        assert!(line.contains("kind=crash"));
        assert!(line.contains("devA/photos"), "app identity is safe metadata");
    }

    #[test]
    fn integrity_labels_do_not_redact() {
        let labels = LabelPair::new(Label::empty(), Label::singleton(Tag::from_raw(9)));
        let r = build_report("a/b", FaultKind::BadResponse, &labels, "missing content-type");
        assert!(!r.redacted);
    }

    #[test]
    fn kinds_render() {
        assert_eq!(FaultKind::FlowDenied.as_str(), "flow-denied");
        assert_eq!(FaultKind::QuotaExceeded.as_str(), "quota-exceeded");
    }
}
