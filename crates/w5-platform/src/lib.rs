//! # w5-platform — the W5 meta-application
//!
//! The primary contribution of *World Wide Web Without Walls* (HotNets
//! 2007) is an architecture: a provider-operated **meta-application** that
//! hosts many untrusted applications and all users' data inside one
//! logical machine, using DIFC to guarantee that data only crosses the
//! security perimeter through user-authorized declassifiers. This crate is
//! that meta-application:
//!
//! * [`principal`] — accounts; each user gets an export-protection tag and
//!   a write-protection tag (§3.1).
//! * [`session`] + [`crypto`] — cookie authentication (§2), on HMAC-SHA-256
//!   implemented in-crate and test-vector verified.
//! * [`appreg`] — the developer catalog: applications, versions, module
//!   slots, forking (§2).
//! * [`policy`] — per-user choices: enrollment, declassifier grants, write
//!   delegation, module choices, version pins (§1–§2).
//! * [`declass`] — the pluggable declassifier framework and built-ins
//!   (owner-only, public-read, friends-only, group-only, rate-limited)
//!   (§3.1).
//! * [`perimeter`] — the exporter that checks every outgoing byte (§3.1).
//! * [`editors`] — editor endorsements and integrity-protected launching
//!   (§3.2, §3.1).
//! * [`api`] — the system-call surface applications program against.
//! * [`Platform`] — the launcher wiring it all to the kernel and stores.
//! * [`gateway`] — HTTP front end for today's Web clients (§2).
//! * [`sanitize`] — perimeter JavaScript filtering (§3.5).
//! * [`faultreport`] — label-safe debugging (§3.5).

#![forbid(unsafe_code)]

pub mod api;
pub mod appreg;
pub mod boundary;
pub mod crypto;
pub mod declass;
pub mod editors;
pub mod faultreport;
pub mod gateway;
pub mod perimeter;
pub mod policy;
pub mod principal;
pub mod sanitize;
pub mod session;

mod partlog;
mod platform;

pub use api::{ApiError, AppRequest, AppResponse, CreateLabels, PlatformApi, W5App};
pub use boundary::NetAdmission;
pub use appreg::{AppManifest, AppRegistry, ModuleManifest, RegistryError};
pub use editors::{EditorRegistry, Endorsement};
pub use declass::{
    Declassifier, DeclassifierRegistry, ExportContext, FriendsOnly, GroupOnly, OwnerOnly,
    PublicRead, RateLimited, RelationshipOracle, StaticRelations, Verdict,
};
pub use faultreport::{FaultKind, FaultReport};
pub use gateway::{session_cookie_of, Gateway};
pub use perimeter::{Clearance, ExportDecision, Exporter};
pub use platform::{sql_escape, InvokeResult, Platform, PlatformConfig, PlatformOracle};
pub use policy::{DeclassifierGrant, GrantScope, PolicyStore, UserPolicy};
pub use principal::{Account, AccountError, AccountStore, UserId};
pub use sanitize::{sanitize_html, SanitizeStats};
pub use session::{SessionStore, SESSION_COOKIE};
