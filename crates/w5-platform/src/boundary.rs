//! Kernel-backed admission control for the net pipeline (paper §3.5).
//!
//! The pipeline's [`Admission`] hook is where "resource containers reach
//! the socket": each principal class (anonymous traffic, a session user,
//! an app target) gets a lazily-created kernel process whose
//! [`ResourceContainer`](w5_kernel::ResourceContainer) is charged
//! `Network` bytes at both charge points and one `Cpu` tick per admitted
//! request. A [`QuotaExceeded`] refusal surfaces as a 429 whose body is a
//! label-safe fault report — for session principals the boundary process
//! carries the user's export-protection tag, so the detail is redacted
//! exactly as `faultreport.rs` prescribes, and the same report is retained
//! for developers via the platform's fault log.
//!
//! CPU epochs are counted in admitted requests (not wall clock, which
//! would break replay determinism): every `epoch_period` charges the
//! pacer triggers [`Kernel::refill_epoch`], so token buckets refill and a
//! throttled principal recovers after `Retry-After` worth of traffic.

use crate::faultreport::{build_report, FaultKind};
use crate::platform::Platform;
use std::collections::BTreeMap;
use std::sync::Arc;
use w5_difc::{CapSet, Label, LabelPair};
use w5_kernel::{EpochPacer, KernelError, ProcessId, ResourceKind, ResourceLimits};
use w5_net::pipeline::{Admission, ChargeDenied, ChargePoint, PrincipalClass};
use w5_net::{Request, SESSION_COOKIE_NAME};
use w5_sync::Mutex;

/// Admission policy bridging the net pipeline to the platform kernel.
pub struct NetAdmission {
    platform: Arc<Platform>,
    /// Limits applied to every principal-class boundary process.
    limits: ResourceLimits,
    /// Request-counted epoch pacer driving token-bucket refills.
    pacer: EpochPacer,
    /// Class key → the class's boundary process.
    pids: Mutex<BTreeMap<String, ProcessId>>,
}

impl NetAdmission {
    /// Build a policy charging each principal class against `limits`,
    /// refilling CPU token buckets every `epoch_period` request charges
    /// (0 = never refill).
    pub fn new(
        platform: Arc<Platform>,
        limits: ResourceLimits,
        epoch_period: u64,
    ) -> Arc<NetAdmission> {
        Arc::new(NetAdmission {
            platform,
            limits,
            pacer: EpochPacer::new(epoch_period),
            pids: Mutex::new("platform.boundary", BTreeMap::new()),
        })
    }

    /// The boundary process charged for `class`, if one was ever created.
    pub fn principal_pid(&self, class: &PrincipalClass) -> Option<ProcessId> {
        self.pids.lock().get(&class.key()).copied()
    }

    /// Labels for a class's boundary process: session principals carry
    /// the user's export-protection tag (their quota faults redact), app
    /// and anonymous traffic is label-free (full fault detail).
    fn class_labels(&self, class: &PrincipalClass) -> LabelPair {
        if let PrincipalClass::Session(user) = class {
            if let Some(account) = self.platform.accounts.find_by_username(user) {
                return LabelPair::new(Label::singleton(account.export_tag), Label::empty());
            }
        }
        LabelPair::public()
    }

    fn pid_for(&self, class: &PrincipalClass) -> ProcessId {
        let key = class.key();
        if let Some(pid) = self.pids.lock().get(&key).copied() {
            return pid;
        }
        // Create outside the map lock: process creation takes the kernel's
        // process-table lock ("platform.boundary" → "kernel.procs" is the
        // certified order, but the map lock need not be held for it).
        let labels = self.class_labels(class);
        let pid = self.platform.kernel.create_process(
            &format!("net:{key}"),
            labels,
            CapSet::empty(),
            self.limits,
        );
        let mut pids = self.pids.lock();
        // Two submitters may race; first insert wins and the loser's
        // process simply goes unused (processes are cheap table rows).
        *pids.entry(key).or_insert(pid)
    }
}

impl Admission for NetAdmission {
    fn classify(&self, request: &Request, _peer: std::net::SocketAddr) -> PrincipalClass {
        if let Some(token) = request.cookie(SESSION_COOKIE_NAME) {
            if let Some(user) = self.platform.sessions.validate(&token) {
                if let Some(account) = self.platform.accounts.get(user) {
                    return PrincipalClass::Session(account.username);
                }
                return PrincipalClass::Session(format!("u{}", user.0));
            }
        }
        let mut segs = request.path.split('/').filter(|s| !s.is_empty());
        if segs.next() == Some("app") {
            if let (Some(dev), Some(app)) = (segs.next(), segs.next()) {
                return PrincipalClass::App(format!("{dev}/{app}"));
            }
        }
        PrincipalClass::Anonymous
    }

    fn charge(
        &self,
        class: &PrincipalClass,
        point: ChargePoint,
        bytes: u64,
    ) -> Result<(), ChargeDenied> {
        if self.pacer.tick() {
            self.platform.kernel.refill_epoch();
        }
        let pid = self.pid_for(class);
        let kernel = &self.platform.kernel;
        let result = kernel.charge(pid, ResourceKind::Network, bytes).and_then(|()| {
            if matches!(point, ChargePoint::Request) {
                kernel.charge(pid, ResourceKind::Cpu, 1)
            } else {
                Ok(())
            }
        });
        match result {
            Ok(()) => Ok(()),
            Err(KernelError::Quota(q)) => {
                let labels = self.class_labels(class);
                let report = build_report(
                    &format!("net/{}", class.key()),
                    FaultKind::QuotaExceeded,
                    &labels,
                    &q.to_string(),
                );
                let denied = ChargeDenied {
                    detail: report.detail.clone().unwrap_or_default(),
                    redacted: report.redacted,
                    // CPU refills on the epoch boundary; suggest one epoch
                    // of backoff scaled down to seconds (floor 1).
                    retry_after: (self.pacer.period() / 64).max(1),
                };
                self.platform.record_fault(report);
                Err(denied)
            }
            // NoSuchProcess/injected faults are infrastructure trouble,
            // not the principal's overdraft: fail open so chaos inside
            // the kernel cannot turn into spurious 429s.
            Err(_) => Ok(()),
        }
    }

    fn telemetry_label(&self, class: &PrincipalClass) -> w5_obs::ObsLabel {
        self.class_labels(class).secrecy.to_obs().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use w5_net::pipeline::fault_line;

    fn platform() -> Arc<Platform> {
        Platform::new_default("boundary-test")
    }

    fn get(path: &str) -> Request {
        Request::get(path)
    }

    fn peer() -> std::net::SocketAddr {
        "127.0.0.1:4000".parse().unwrap()
    }

    #[test]
    fn classifies_session_app_and_anonymous() {
        let p = platform();
        let user = p.accounts.register("alice", "pw").unwrap().id;
        let token = p.sessions.create(user);
        let adm = NetAdmission::new(Arc::clone(&p), ResourceLimits::unlimited(), 0);

        let mut req = get("/home");
        req.headers.insert("cookie".into(), format!("{SESSION_COOKIE_NAME}={token}"));
        assert_eq!(adm.classify(&req, peer()), PrincipalClass::Session("alice".into()));

        let req = get("/app/devA/photos/view");
        assert_eq!(adm.classify(&req, peer()), PrincipalClass::App("devA/photos".into()));

        let req = get("/registry");
        assert_eq!(adm.classify(&req, peer()), PrincipalClass::Anonymous);

        // A stale token is anonymous, not a phantom session.
        let mut req = get("/home");
        req.headers.insert("cookie".into(), format!("{SESSION_COOKIE_NAME}=bogus"));
        assert_eq!(adm.classify(&req, peer()), PrincipalClass::Anonymous);
    }

    #[test]
    fn network_bytes_are_charged_and_quota_denies() {
        let p = platform();
        let limits = ResourceLimits { network_bytes: 500, ..ResourceLimits::unlimited() };
        let adm = NetAdmission::new(Arc::clone(&p), limits, 0);
        let class = PrincipalClass::App("devA/photos".into());

        assert!(adm.charge(&class, ChargePoint::Request, 200).is_ok());
        assert!(adm.charge(&class, ChargePoint::Response, 200).is_ok());
        let pid = adm.principal_pid(&class).expect("boundary process exists");
        assert_eq!(p.kernel.usage(pid).unwrap().network_bytes, 400);

        // The next charge overdraws; the denial carries full detail (the
        // app class is label-free) and lands in the fault log.
        let denied = adm.charge(&class, ChargePoint::Response, 200).unwrap_err();
        assert!(!denied.redacted);
        assert!(denied.detail.contains("quota exceeded"), "detail: {}", denied.detail);
        assert!(denied.retry_after >= 1);
        let faults = p.fault_reports();
        let fault = faults.iter().find(|f| f.app == "net/app:devA/photos").expect("fault retained");
        assert_eq!(fault.kind, FaultKind::QuotaExceeded);
        assert!(!fault.redacted);

        // Usage is unchanged by the refused charge.
        assert_eq!(p.kernel.usage(pid).unwrap().network_bytes, 400);
    }

    #[test]
    fn session_quota_faults_are_redacted() {
        let p = platform();
        let user = p.accounts.register("bob", "pw").unwrap().id;
        let token = p.sessions.create(user);
        let limits = ResourceLimits { network_bytes: 100, ..ResourceLimits::unlimited() };
        let adm = NetAdmission::new(Arc::clone(&p), limits, 0);

        let mut req = get("/home");
        req.headers.insert("cookie".into(), format!("{SESSION_COOKIE_NAME}={token}"));
        let class = adm.classify(&req, peer());
        assert_eq!(class, PrincipalClass::Session("bob".into()));

        let denied = adm.charge(&class, ChargePoint::Request, 500).unwrap_err();
        assert!(denied.redacted, "session detail must be redacted");
        assert!(denied.detail.is_empty());
        let faults = p.fault_reports();
        let fault = faults.iter().find(|f| f.app == "net/session:bob").expect("fault retained");
        assert!(fault.redacted);
        assert_eq!(fault.detail, None);

        // The session class's queue telemetry carries the user's export
        // tag, so it is clearance-gated in ledger views.
        assert!(!adm.telemetry_label(&class).is_empty());
        assert!(adm.telemetry_label(&PrincipalClass::Anonymous).is_empty());
    }

    #[test]
    fn cpu_epoch_pacer_refills_token_buckets() {
        let limits = ResourceLimits { cpu_per_epoch: 3, ..ResourceLimits::unlimited() };
        let class = PrincipalClass::Anonymous;

        // Without a pacer (period 0) the token bucket never refills: the
        // 4th request's CPU tick is refused.
        let frozen = NetAdmission::new(platform(), limits, 0);
        for _ in 0..3 {
            assert!(frozen.charge(&class, ChargePoint::Request, 1).is_ok());
        }
        let denied = frozen.charge(&class, ChargePoint::Request, 1).unwrap_err();
        assert!(denied.detail.contains("cpu"), "detail: {}", denied.detail);

        // With an epoch no longer than the bucket (refill every 3
        // charges), the refill always lands before the bucket runs dry —
        // the same traffic is never throttled.
        let paced = NetAdmission::new(platform(), limits, 3);
        for i in 0..12 {
            assert!(
                paced.charge(&class, ChargePoint::Request, 1).is_ok(),
                "charge {i} refused despite epoch refills"
            );
        }
    }

    #[test]
    fn pipeline_fault_line_matches_platform_report_format() {
        // The pipeline renders 429/503 bodies without depending on this
        // crate; this pins the two formats together so they cannot drift.
        let report = build_report(
            "net/app:devA/photos",
            FaultKind::QuotaExceeded,
            &LabelPair::public(),
            "network quota exceeded: requested 200, 100 available",
        );
        assert_eq!(
            report.to_log_line(),
            fault_line(
                "net/app:devA/photos",
                "quota-exceeded",
                Some("network quota exceeded: requested 200, 100 available"),
            )
        );
        let redacted = build_report(
            "net/session:bob",
            FaultKind::QuotaExceeded,
            &LabelPair::new(Label::singleton(w5_difc::Tag::from_raw(9)), Label::empty()),
            "secret",
        );
        assert_eq!(
            redacted.to_log_line(),
            fault_line("net/session:bob", "quota-exceeded", None)
        );
    }
}
