//! Typed ledger events.
//!
//! One flat enum covers all five instrumented layers; [`EventKind::layer`]
//! maps a variant to the layer whose counters it bumps, and
//! [`EventKind::denied`] marks the events every audit consumer cares about
//! (refused flows are always written to the ring, never sampled away).

use crate::label::ObsLabel;
use std::fmt;
use std::sync::Arc;

/// A name an event or span carries (an app key, a declassifier, a span
/// name), shared rather than copied: cloning one bumps a count, so a hot
/// path that holds its `Name` (a `static`, a map key) records without
/// building a string. It serialises, compares and prints as the string it
/// holds, so ledger JSON and digests read exactly as with a `String`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Name(Arc<str>);

impl Name {
    /// The name as text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::ops::Deref for Name {
    type Target = str;
    fn deref(&self) -> &str {
        &self.0
    }
}

impl std::borrow::Borrow<str> for Name {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl<S: Into<Arc<str>>> From<S> for Name {
    fn from(s: S) -> Name {
        Name(s.into())
    }
}

impl From<&Name> for Name {
    fn from(name: &Name) -> Name {
        name.clone()
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        &*self.0 == *other
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl serde::Serialize for Name {
    fn to_json(&self) -> serde::Json {
        self.0.to_json()
    }
}

impl serde::Deserialize for Name {
    fn from_json(v: &serde::Json) -> Result<Name, serde::DeError> {
        String::from_json(v).map(Name::from)
    }
}

/// The stack layer an event originated from.
#[derive(
    Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum Layer {
    /// Process table, scheduler (`w5-kernel`).
    Kernel,
    /// Flow rules and tag registry (`w5-difc`).
    Difc,
    /// Perimeter, declassifiers, sanitizer, launcher (`w5-platform`).
    Platform,
    /// HTTP server and request pipeline (`w5-net`).
    Net,
    /// Labeled filesystem and database (`w5-store`).
    Store,
}

impl Layer {
    /// All layers, in counter-index order.
    pub const ALL: [Layer; 5] =
        [Layer::Kernel, Layer::Difc, Layer::Platform, Layer::Net, Layer::Store];

    /// Stable lowercase name (JSON keys).
    pub fn name(self) -> &'static str {
        match self {
            Layer::Kernel => "kernel",
            Layer::Difc => "difc",
            Layer::Platform => "platform",
            Layer::Net => "net",
            Layer::Store => "store",
        }
    }

    /// Counter-array index.
    pub(crate) fn index(self) -> usize {
        match self {
            Layer::Kernel => 0,
            Layer::Difc => 1,
            Layer::Platform => 2,
            Layer::Net => 3,
            Layer::Store => 4,
        }
    }
}

/// Which flow rule a [`EventKind::LabelCheck`] ran. A `Copy` tag, so a
/// check reaches the ring without building a string.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CheckOp {
    /// Read admissibility (`rules::labels_for_read`).
    Read,
    /// Write admissibility (`rules::may_write`).
    Write,
}

impl CheckOp {
    const ALL: [CheckOp; 2] = [CheckOp::Read, CheckOp::Write];

    /// The stable lowercase name, which is also the wire form.
    pub fn name(self) -> &'static str {
        match self {
            CheckOp::Read => "read",
            CheckOp::Write => "write",
        }
    }
}

// Manual serde: the wire form is the bare lowercase name (`"read"`), not
// the derive's variant name, so ledger JSON and digests keep their bytes.
impl serde::Serialize for CheckOp {
    fn to_json(&self) -> serde::Json {
        serde::Json::Str(self.name().to_string())
    }
}

impl serde::Deserialize for CheckOp {
    fn from_json(v: &serde::Json) -> Result<CheckOp, serde::DeError> {
        let name = v.as_str().ok_or_else(|| serde::DeError::expected("string"))?;
        CheckOp::ALL
            .into_iter()
            .find(|op| op.name() == name)
            .ok_or_else(|| serde::DeError::unknown_variant(name, "CheckOp"))
    }
}

/// What happened. Field conventions: process ids are the kernel's raw
/// `u64`s (0 = none/trusted), byte counts are payload sizes, `allowed`
/// is the decision outcome.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum EventKind {
    // ---- kernel ----
    /// The platform created a process (`Kernel::create_process`).
    ProcSpawn {
        /// New process id.
        pid: u64,
        /// Always 0: no process creates another. Kept so the event's wire
        /// form, and every ledger digest folding it, stays as it was.
        parent: u64,
        /// Audit name.
        name: String,
    },
    /// A slice of virtual time. No kernel code records it: it is the
    /// fixed-size event that `w5bench`'s record-cost probe and the
    /// `w5_sim::harness` tests write.
    ScheduleQuantum {
        /// The scheduled pid.
        pid: u64,
        /// Virtual ticks executed.
        ticks: u64,
    },
    // ---- difc ----
    /// A flow-rule check ran (read or write admissibility).
    LabelCheck {
        /// Which rule.
        op: CheckOp,
        /// Did the rule bless the operation?
        allowed: bool,
    },
    /// A tag was allocated in the registry.
    TagCreate {
        /// Raw tag id.
        tag: u64,
        /// Distribution kind (`"export"`, `"write"`, `"read"`).
        kind: String,
    },
    // ---- platform ----
    // The perimeter's decision itself is recorded once, in the platform's
    // per-label audit log, not here.
    /// A declassifier was consulted.
    DeclassifierInvoke {
        /// Declassifier name.
        name: Name,
        /// Its verdict.
        allowed: bool,
    },
    /// The HTML sanitizer processed an outgoing document.
    SanitizerRun {
        /// Total scripts/handlers/URLs removed.
        removed: u64,
    },
    /// The static configuration auditor (`w5-analyze`) reported a finding,
    /// e.g. at app-registration time.
    AuditFinding {
        /// Stable lint code, e.g. `"W5A002"`.
        code: String,
        /// Severity name (`"error"`, `"warning"`, `"info"`).
        severity: String,
        /// What the finding is about (tag name, declassifier, app key).
        subject: String,
        /// Human-readable finding.
        message: String,
    },
    // ---- net ----
    /// An HTTP request completed.
    HttpRequest {
        /// Request method.
        method: String,
        /// Request path.
        path: String,
        /// Response status code.
        status: u16,
    },
    /// The request pipeline admitted a request: straight into a handler
    /// slot, or into its principal-class queue to wait for one. Recorded
    /// under the principal's secrecy label, like every ledger event; only
    /// the operator reads it.
    QueueAdmit {
        /// Principal-class key (`"anon"`, `"session:<user>"`, `"app:<key>"`).
        class: String,
        /// The class queue depth after this admit (0: took a free slot).
        depth: u64,
    },
    /// Admission control shed a request (class queue full, class table
    /// full, or an injected `net.queue_full` fault). Sheds are denials:
    /// always written to the ring, never sampled away.
    QueueShed {
        /// Principal-class key.
        class: String,
        /// The class queue depth that triggered the shed.
        depth: u64,
        /// The `Retry-After` seconds sent, computed from `depth` only.
        retry_after: u64,
    },
    /// Handler-slot occupancy sampled when a request is given its slot
    /// (slots taken out of the pipeline's total).
    WorkerOccupancy {
        /// Slots taken, including the sampling request's.
        busy: u64,
        /// Slots in the pipeline.
        workers: u64,
    },
    // ---- store ----
    /// A labeled read (file or row) was attempted.
    StoreRead {
        /// Path or table.
        path: String,
        /// Bytes returned (0 on refusal).
        bytes: u64,
        /// Did the labels admit the read?
        allowed: bool,
    },
    /// A labeled write/create/delete was attempted.
    StoreWrite {
        /// Path or table.
        path: String,
        /// Bytes written.
        bytes: u64,
        /// Did the labels admit the write?
        allowed: bool,
    },
}

impl EventKind {
    /// The layer whose counters this event bumps.
    pub fn layer(&self) -> Layer {
        match self {
            EventKind::ProcSpawn { .. } | EventKind::ScheduleQuantum { .. } => Layer::Kernel,
            EventKind::LabelCheck { .. } | EventKind::TagCreate { .. } => Layer::Difc,
            EventKind::DeclassifierInvoke { .. }
            | EventKind::SanitizerRun { .. }
            | EventKind::AuditFinding { .. } => Layer::Platform,
            EventKind::HttpRequest { .. }
            | EventKind::QueueAdmit { .. }
            | EventKind::QueueShed { .. }
            | EventKind::WorkerOccupancy { .. } => Layer::Net,
            EventKind::StoreRead { .. } | EventKind::StoreWrite { .. } => Layer::Store,
        }
    }

    /// True when the event records a refused operation (these are always
    /// written to the ring).
    pub fn denied(&self) -> bool {
        match self {
            EventKind::LabelCheck { allowed, .. }
            | EventKind::DeclassifierInvoke { allowed, .. }
            | EventKind::StoreRead { allowed, .. }
            | EventKind::StoreWrite { allowed, .. } => !allowed,
            // Error-severity audit findings are config-level flow refusals:
            // always written to the ring, never sampled away.
            EventKind::AuditFinding { severity, .. } => severity == "error",
            // A shed is the admission stage refusing service.
            EventKind::QueueShed { .. } => true,
            _ => false,
        }
    }
}

/// One ledger entry: a sequence number, the secrecy label of the flow the
/// event describes, and the typed payload.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Event {
    /// Sequence number, taken when the event was counted. Two recorders
    /// may reach the ring in the other order, so the ring need not be in
    /// `seq` order; no two retained events share one.
    pub seq: u64,
    /// Secrecy label of the described flow.
    pub secrecy: ObsLabel,
    /// What happened.
    pub kind: EventKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_mapping_is_total() {
        let samples = [
            EventKind::ProcSpawn { pid: 1, parent: 0, name: "x".into() },
            EventKind::LabelCheck { op: CheckOp::Read, allowed: true },
            EventKind::DeclassifierInvoke { name: "friends-only".into(), allowed: false },
            EventKind::HttpRequest { method: "GET".into(), path: "/".into(), status: 200 },
            EventKind::StoreRead { path: "/f".into(), bytes: 3, allowed: true },
        ];
        let layers: Vec<Layer> = samples.iter().map(EventKind::layer).collect();
        assert_eq!(layers, Layer::ALL.to_vec());
    }

    #[test]
    fn denial_flags() {
        assert!(EventKind::LabelCheck { op: CheckOp::Read, allowed: false }.denied());
        assert!(!EventKind::LabelCheck { op: CheckOp::Write, allowed: true }.denied());
        assert!(EventKind::StoreWrite { path: "/x".into(), bytes: 0, allowed: false }.denied());
        assert!(!EventKind::ScheduleQuantum { pid: 1, ticks: 5 }.denied());
    }

    #[test]
    fn event_json_roundtrip() {
        let e = Event {
            seq: 42,
            secrecy: ObsLabel::from_tags([3]),
            kind: EventKind::DeclassifierInvoke { name: "friends-only".into(), allowed: false },
        };
        let s = serde_json::to_string(&e).unwrap();
        let back: Event = serde_json::from_str(&s).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn check_op_wire_form_is_the_bare_name() {
        for (op, name) in [
            (CheckOp::Read, "read"),
            (CheckOp::Write, "write"),
        ] {
            let kind = EventKind::LabelCheck { op, allowed: false };
            let json = serde_json::to_string(&kind).unwrap();
            assert_eq!(json, format!(r#"{{"LabelCheck":{{"op":"{name}","allowed":false}}}}"#));
            assert_eq!(serde_json::from_str::<EventKind>(&json).unwrap(), kind);
        }
        assert!(serde_json::from_str::<CheckOp>(r#""Read""#).is_err());
        assert!(serde_json::from_str::<CheckOp>("3").is_err());
    }
}
