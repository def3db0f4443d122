//! The import side: pull a linked user's data from a peer provider and
//! mirror it into the local store under the local account's labels.

use crate::protocol::{ExportBatch, FEDERATION_TOKEN_HEADER};
use bytes::Bytes;
use std::fmt;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;
use w5_net::HttpClient;
use w5_platform::Platform;
use w5_store::Subject;

/// A cross-provider account link: "can users 'link' accounts on different
/// W5 platforms, so that their data is mirrored across provider
/// boundaries?" (§3.3)
#[derive(Clone, Debug)]
pub struct AccountLink {
    /// Username on the remote provider.
    pub remote_user: String,
    /// Username on the local provider.
    pub local_user: String,
}

/// What one sync pass did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SyncReport {
    /// Files examined in the batch.
    pub examined: usize,
    /// Files created locally.
    pub created: usize,
    /// Files updated locally.
    pub updated: usize,
    /// Files skipped because content was already identical.
    pub unchanged: usize,
    /// Bytes received on the wire (payload, after decode).
    pub bytes: usize,
    /// Records whose remote label pair arrived via the batch's
    /// label dictionary (0 for batches from legacy peers).
    pub labeled: usize,
    /// Transient failures ridden out by retries before this pass succeeded.
    pub retries: usize,
}

/// Typed sync failures. Transient variants ([`SyncError::is_transient`])
/// mean the pull had no effect and may simply run again; the rest are
/// permanent until an operator or the peer changes something.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SyncError {
    /// The peer could not be reached (connect/IO failure).
    Unreachable(String),
    /// The link to the peer is partitioned (injected by `w5-chaos`).
    Partitioned,
    /// The peer answered with a non-success status.
    Refused {
        /// HTTP status from the peer.
        status: u16,
        /// Response body (already label-scrubbed by the peer's perimeter).
        body: String,
    },
    /// The batch failed to parse or decode.
    BadBatch(String),
    /// The local account named by the link does not exist.
    NoAccount(String),
    /// A local store operation failed.
    Store {
        /// The path being mirrored.
        path: String,
        /// The underlying filesystem error.
        source: w5_store::FsError,
    },
}

impl SyncError {
    /// True when the failure is worth retrying: nothing was applied and
    /// the cause (network weather, a torn local write) may clear on its
    /// own. Peer refusals and malformed batches are not transient.
    pub fn is_transient(&self) -> bool {
        match self {
            SyncError::Unreachable(_) | SyncError::Partitioned => true,
            SyncError::Store { source, .. } => *source == w5_store::FsError::Aborted,
            _ => false,
        }
    }
}

impl fmt::Display for SyncError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SyncError::Unreachable(e) => write!(f, "peer unreachable: {e}"),
            SyncError::Partitioned => write!(f, "peer partitioned"),
            SyncError::Refused { status, body } => write!(f, "peer refused: {status} {body}"),
            SyncError::BadBatch(e) => write!(f, "bad batch: {e}"),
            SyncError::NoAccount(u) => write!(f, "no local account {u}"),
            SyncError::Store { path, source } => write!(f, "store {path}: {source}"),
        }
    }
}

impl std::error::Error for SyncError {}

/// The pulling agent for one local platform.
pub struct SyncAgent {
    platform: Arc<Platform>,
    client: HttpClient,
    peer_token: String,
}

impl SyncAgent {
    /// An agent for `platform`, authenticating with `peer_token`. The
    /// underlying HTTP client already retries transient network failures
    /// with a short backoff; [`SyncAgent::pull_with_retry`] adds a second
    /// retry loop around whole sync passes.
    pub fn new(platform: Arc<Platform>, peer_token: &str) -> SyncAgent {
        SyncAgent {
            platform,
            client: HttpClient::new().with_retries(2, Duration::from_millis(5)),
            peer_token: peer_token.to_string(),
        }
    }

    /// Pull `link.remote_user`'s data from the peer at `peer_addr` and
    /// mirror it into the local account `link.local_user`.
    pub fn pull(&self, peer_addr: SocketAddr, link: &AccountLink) -> Result<SyncReport, SyncError> {
        // A partition makes the peer unreachable for this whole pass.
        if w5_chaos::inject(w5_chaos::Site::FedPartition).is_some() {
            return Err(SyncError::Partitioned);
        }
        // Root (or child) span for the pass; its context rides the wire so
        // the peer's HTTP root span stitches under this tree.
        let _span = w5_obs::span(
            &format!("federation.pull {}", link.remote_user),
            w5_obs::Layer::Net,
            &w5_obs::ObsLabel::empty(),
        );
        let trace_header = w5_obs::current_context().map(|ctx| ctx.encode());
        let mut headers: Vec<(&str, &str)> = vec![(FEDERATION_TOKEN_HEADER, &self.peer_token)];
        if let Some(ctx) = trace_header.as_deref() {
            headers.push((w5_obs::TRACE_HEADER, ctx));
        }
        let path = format!("/federation/export?user={}", link.remote_user);
        let resp = self
            .client
            .get_with_headers(peer_addr, &path, &headers)
            .map_err(|e| SyncError::Unreachable(e.to_string()))?;
        if !resp.status.is_success() {
            return Err(SyncError::Refused { status: resp.status.0, body: resp.body_string() });
        }
        let mut batch: ExportBatch =
            serde_json::from_slice(&resp.body).map_err(|e| SyncError::BadBatch(e.to_string()))?;
        // Decode the batch's label dictionary up front: a batch
        // with a malformed dictionary or a dangling reference is rejected
        // whole, before any record is applied. Remote tag ids are
        // meaningless in the local registry, so the decoded pairs serve as
        // provenance (and the `labeled` count below); mirrored files are
        // stamped with the *local* account's labels regardless.
        let remote_labels = batch.decode_labels().map_err(SyncError::BadBatch)?;
        for record in &batch.records {
            if let Some(ix) = record.label_ref {
                if ix as usize >= remote_labels.len() {
                    return Err(SyncError::BadBatch(format!(
                        "record {} references label {ix} of {}",
                        record.path,
                        remote_labels.len()
                    )));
                }
            }
        }

        // Delayed/reordered delivery: records overtake each other on the
        // wire. Mirroring must converge to the same state regardless of
        // arrival order (each record is applied independently).
        if w5_chaos::inject(w5_chaos::Site::FedReorder).is_some() {
            batch.records.reverse();
        }

        let local = self
            .platform
            .accounts
            .get_by_name(&link.local_user)
            .ok_or_else(|| SyncError::NoAccount(link.local_user.clone()))?;
        // The import declassifier writes with the *local* user's authority:
        // mirrored data gets the local tags, exactly as if the user had
        // uploaded it here.
        let subject = Subject::new(
            w5_difc::LabelPair::public(),
            self.platform.registry.effective(&local.owner_caps),
        );
        let labels = local.data_labels();

        let mut report = SyncReport::default();
        for record in &batch.records {
            report.examined += 1;
            if record.label_ref.is_some() {
                report.labeled += 1;
            }
            let data = record.data().map_err(SyncError::BadBatch)?;
            report.bytes += data.len();
            match self.platform.fs.read(&subject, &record.path) {
                Ok((existing, _)) if existing == data => {
                    report.unchanged += 1;
                }
                Ok(_) => {
                    self.apply(&record.path, &mut report, |path| {
                        self.platform.fs.write(&subject, path, Bytes::from(data.clone()))
                    })?;
                    report.updated += 1;
                }
                Err(w5_store::FsError::NotFound) => {
                    self.apply(&record.path, &mut report, |path| {
                        self.platform.fs.create(
                            &subject,
                            path,
                            labels.clone(),
                            Bytes::from(data.clone()),
                        )
                    })?;
                    report.created += 1;
                }
                Err(e) => return Err(SyncError::Store { path: record.path.clone(), source: e }),
            }
        }
        Ok(report)
    }

    /// Apply one local mirror write, retrying aborted (torn) commits a
    /// bounded number of times. Store denials and quota errors surface
    /// immediately — retrying cannot fix policy.
    fn apply<F>(&self, path: &str, report: &mut SyncReport, mut op: F) -> Result<(), SyncError>
    where
        F: FnMut(&str) -> Result<(), w5_store::FsError>,
    {
        let mut last = w5_store::FsError::Aborted;
        for _ in 0..8 {
            match op(path) {
                Ok(()) => return Ok(()),
                Err(w5_store::FsError::Aborted) => {
                    report.retries += 1;
                    last = w5_store::FsError::Aborted;
                }
                Err(e) => return Err(SyncError::Store { path: path.to_string(), source: e }),
            }
        }
        Err(SyncError::Store { path: path.to_string(), source: last })
    }

    /// Run whole sync passes until one succeeds, retrying transient
    /// failures (partitions, unreachable peers, torn local writes) up to
    /// `attempts` times with `backoff × 2^attempt` between passes.
    pub fn pull_with_retry(
        &self,
        peer_addr: SocketAddr,
        link: &AccountLink,
        attempts: u32,
        backoff: Duration,
    ) -> Result<SyncReport, SyncError> {
        let mut attempt: u32 = 0;
        loop {
            match self.pull(peer_addr, link) {
                Ok(mut report) => {
                    report.retries += attempt as usize;
                    return Ok(report);
                }
                Err(e) if e.is_transient() && attempt < attempts => {
                    let delay = backoff.saturating_mul(1u32 << attempt.min(8));
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }
}
