//! The platform API handed to running applications.
//!
//! Applications (developer-written code, paper §2) never touch the kernel,
//! filesystem or database directly: every operation goes through a
//! [`PlatformApi`] bound to the app instance's kernel process, so labels
//! taint and flow checks apply exactly as if the app were a process on a
//! DIFC operating system. The API is the W5 analogue of "the Unix system
//! call API" the paper mentions — file I/O, storage queries, and request
//! context — with flow control woven through.

use crate::principal::Account;
use bytes::Bytes;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use w5_difc::LabelPair;
use w5_kernel::{Kernel, KernelError, ProcessId, ResourceKind};
use w5_store::{Database, FsError, LabeledFs, QueryCost, QueryError, QueryMode, QueryOutput, Subject};
use w5_sync::Mutex;

/// Inter-app mail `seq` counters, one per label pair a message row is
/// stamped with: a sender's `seq` counts only messages whose rows it could
/// read anyway (DESIGN §7).
pub(crate) type MailSeqs = Mutex<HashMap<LabelPair, i64>>;

/// Errors surfaced to application code.
///
/// Deliberately coarse: detailed flow-control reasons are trusted-side
/// information (see the covert-channel discussion in `w5-kernel`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ApiError {
    /// The object does not exist (or is invisible to this instance).
    NotFound,
    /// The operation was denied by label policy.
    Denied,
    /// A resource quota was exhausted.
    Quota,
    /// Malformed input (bad path, bad SQL, type error). The message is the
    /// app's own fault to see.
    Bad(String),
    /// Transient infrastructure failure (aborted write or query,
    /// injected fault). The operation had no effect; retrying is safe.
    Unavailable(String),
}

impl fmt::Display for ApiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApiError::NotFound => write!(f, "not found"),
            ApiError::Denied => write!(f, "denied"),
            ApiError::Quota => write!(f, "quota exceeded"),
            ApiError::Bad(m) => write!(f, "bad request: {m}"),
            ApiError::Unavailable(m) => write!(f, "temporarily unavailable: {m}"),
        }
    }
}

impl std::error::Error for ApiError {}

impl From<FsError> for ApiError {
    fn from(e: FsError) -> Self {
        match e {
            FsError::NotFound => ApiError::NotFound,
            FsError::WriteDenied => ApiError::Denied,
            FsError::QuotaExceeded => ApiError::Quota,
            FsError::AlreadyExists => ApiError::Bad("already exists".into()),
            FsError::BadPath => ApiError::Bad("bad path".into()),
            FsError::Aborted => ApiError::Unavailable("storage write aborted".into()),
        }
    }
}

impl From<QueryError> for ApiError {
    fn from(e: QueryError) -> Self {
        match e {
            QueryError::WriteDenied => ApiError::Denied,
            QueryError::BudgetExhausted => ApiError::Quota,
            QueryError::Aborted => ApiError::Unavailable("query aborted".into()),
            other => ApiError::Bad(other.to_string()),
        }
    }
}

impl From<KernelError> for ApiError {
    fn from(e: KernelError) -> Self {
        match e {
            KernelError::Quota(_) => ApiError::Quota,
            KernelError::Difc(_) => ApiError::Denied,
            _ => ApiError::Bad(e.to_string()),
        }
    }
}

/// The request an application instance handles.
#[derive(Clone, Debug)]
pub struct AppRequest {
    /// HTTP method name (`"GET"`, `"POST"`, …).
    pub method: String,
    /// The action path within the app (e.g. `"view"`, `"albums/cats"`).
    pub action: String,
    /// Merged query + form parameters (later keys win).
    pub params: BTreeMap<String, String>,
    /// The authenticated viewer's username, if any. Identity is public;
    /// the viewer's *data* is not.
    pub viewer: Option<String>,
    /// Module choices resolved by the launcher from the viewer's policy:
    /// slot name → providing developer (paper §2, "use developer A's photo
    /// cropping module and developer B's labeling module").
    pub modules: BTreeMap<String, String>,
    /// Raw request body.
    pub body: Bytes,
}

impl AppRequest {
    /// Parameter lookup.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.params.get(key).map(String::as_str)
    }

    /// The developer chosen for a module slot, if any.
    pub fn module(&self, slot: &str) -> Option<&str> {
        self.modules.get(slot).map(String::as_str)
    }
}

/// The response an application returns. The *labels* on it are not chosen
/// by the app — they are read off the app's kernel process by the
/// launcher, so an app cannot under-declare what it has read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AppResponse {
    /// MIME type.
    pub content_type: String,
    /// Body bytes.
    pub body: Bytes,
}

impl AppResponse {
    /// An HTML response.
    pub fn html(body: impl Into<String>) -> AppResponse {
        AppResponse { content_type: "text/html; charset=utf-8".into(), body: Bytes::from(body.into()) }
    }

    /// A plain-text response.
    pub fn text(body: impl Into<String>) -> AppResponse {
        AppResponse { content_type: "text/plain; charset=utf-8".into(), body: Bytes::from(body.into()) }
    }

    /// A JSON response.
    pub fn json(body: impl Into<String>) -> AppResponse {
        AppResponse { content_type: "application/json".into(), body: Bytes::from(body.into()) }
    }
}

/// Label policies an app can request for data it creates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CreateLabels {
    /// The viewer's default data labels (`S={e_v}, I={w_v}`). Requires the
    /// viewer to have delegated write privilege to this app.
    ViewerData,
    /// The viewer's *read-protected* labels (`S={e_v, r_v}, I={w_v}`):
    /// only read-delegated apps can even see the data. Requires the viewer
    /// to have enabled read protection and delegated both write and read
    /// privileges to this app (§3.1 "read protection").
    ViewerPrivate,
    /// The instance's current secrecy with no integrity claim — derived /
    /// cache data that inherits everything the instance has read.
    Derived,
}

/// The executable side of an application: Rust code standing in for the
/// developer-uploaded binaries of §2.
pub trait W5App: Send + Sync {
    /// Handle one request.
    fn handle(&self, req: &AppRequest, api: &mut PlatformApi<'_>) -> Result<AppResponse, ApiError>;
    /// Approximate source size in lines — the audit-surface metric for E5.
    fn source_lines(&self) -> usize;
}

/// The capability-scoped handle an app instance uses for every effect.
pub struct PlatformApi<'a> {
    kernel: &'a Kernel,
    fs: &'a LabeledFs,
    db: &'a Database,
    mail_seqs: &'a MailSeqs,
    pid: ProcessId,
    viewer: Option<&'a Account>,
    /// The running app's key — the address of its own mailbox.
    app_key: String,
    query_cost: QueryCost,
    query_mode: QueryMode,
}

impl<'a> PlatformApi<'a> {
    /// Construct (platform-internal).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        kernel: &'a Kernel,
        fs: &'a LabeledFs,
        db: &'a Database,
        mail_seqs: &'a MailSeqs,
        pid: ProcessId,
        viewer: Option<&'a Account>,
        app_key: &str,
        query_cost: QueryCost,
        query_mode: QueryMode,
    ) -> PlatformApi<'a> {
        PlatformApi {
            kernel,
            fs,
            db,
            mail_seqs,
            pid,
            viewer,
            app_key: app_key.to_string(),
            query_cost,
            query_mode,
        }
    }

    /// The authenticated viewer's username.
    pub fn viewer(&self) -> Option<&str> {
        self.viewer.map(|a| a.username.as_str())
    }

    /// The store call's subject: the process's labels and private bag,
    /// read under one kernel lock. Both share their storage with the
    /// kernel's copy, so this allocates nothing; the store adds the global
    /// bag as a rule, so there is no union to build either.
    fn subject(&self) -> Result<Subject, ApiError> {
        let (labels, caps) = self.kernel.subject(self.pid)?;
        Ok(Subject::new(labels, caps))
    }

    fn charge_cpu(&self, ticks: u64) -> Result<(), ApiError> {
        match self.kernel.charge(self.pid, ResourceKind::Cpu, ticks) {
            Ok(()) => Ok(()),
            Err(KernelError::Quota(q)) => Err(KernelError::Quota(q).into()),
            Err(e) => Err(e.into()),
        }
    }

    /// Read a file; the instance is tainted with the file's labels.
    pub fn read_file(&mut self, path: &str) -> Result<Bytes, ApiError> {
        self.charge_cpu(1)?;
        let subject = self.subject()?;
        let (data, labels) = self.fs.read(&subject, path)?;
        self.kernel.taint_for_read(self.pid, &labels)?;
        self.kernel
            .charge(self.pid, ResourceKind::Memory, data.len() as u64)
            .ok();
        Ok(data)
    }

    /// File metadata (also taints — knowing the size is knowing something).
    pub fn stat_file(&mut self, path: &str) -> Result<w5_store::FileMeta, ApiError> {
        self.charge_cpu(1)?;
        let subject = self.subject()?;
        let meta = self.fs.stat(&subject, path)?;
        self.kernel.taint_for_read(self.pid, &meta.labels)?;
        Ok(meta)
    }

    /// List a directory; taints with the union of listed entries' labels.
    pub fn list_files(&mut self, dir: &str) -> Result<Vec<w5_store::FileMeta>, ApiError> {
        self.charge_cpu(1)?;
        let subject = self.subject()?;
        let entries = self.fs.list(&subject, dir)?;
        for m in &entries {
            self.kernel.taint_for_read(self.pid, &m.labels)?;
        }
        Ok(entries)
    }

    /// Create a file with the requested label policy.
    pub fn create_file(&mut self, path: &str, data: Bytes, labels: CreateLabels) -> Result<(), ApiError> {
        self.charge_cpu(1)?;
        self.kernel
            .charge(self.pid, ResourceKind::Disk, data.len() as u64)?;
        let subject = self.subject()?;
        let file_labels = self.resolve_labels(labels, &subject)?;
        self.fs.create(&subject, path, file_labels, data)?;
        Ok(())
    }

    /// Overwrite a file (labels preserved; write checks apply).
    pub fn write_file(&mut self, path: &str, data: Bytes) -> Result<(), ApiError> {
        self.charge_cpu(1)?;
        self.kernel
            .charge(self.pid, ResourceKind::Disk, data.len() as u64)?;
        let subject = self.subject()?;
        self.fs.write(&subject, path, data)?;
        Ok(())
    }

    /// Delete a file (a write).
    pub fn delete_file(&mut self, path: &str) -> Result<(), ApiError> {
        self.charge_cpu(1)?;
        let subject = self.subject()?;
        self.fs.delete(&subject, path)?;
        Ok(())
    }

    /// Run a query. SELECT results taint the instance with the combined
    /// labels of contributing rows; INSERTs stamp rows per `labels`.
    pub fn query(&mut self, sql: &str, labels: CreateLabels) -> Result<QueryOutput, ApiError> {
        let subject = self.subject()?;
        let insert_labels = self.resolve_labels(labels, &subject)?;
        let out = self
            .db
            .execute(&subject, self.query_mode, self.query_cost, &insert_labels, sql)?;
        self.charge_cpu(1 + out.scanned)?;
        self.kernel.taint_for_read(self.pid, &out.labels)?;
        Ok(out)
    }

    /// Send a message to another application's mailbox — the "communication
    /// with other modules" of paper §2, built on the labeled store so flow
    /// control applies automatically: the message row carries this
    /// instance's secrecy, and whoever reads it is tainted accordingly.
    /// Returns the message's sequence number among the messages whose rows
    /// carry the same labels.
    pub fn send_message(&mut self, to_app: &str, body: &str) -> Result<i64, ApiError> {
        if to_app.is_empty() || to_app.contains('\'') {
            return Err(ApiError::Bad("bad app key".into()));
        }
        let labels = self.resolve_labels(CreateLabels::Derived, &self.subject()?)?;
        let seq = {
            let mut seqs = self.mail_seqs.lock();
            let last = seqs.entry(labels).or_insert(0);
            *last += 1;
            *last
        };
        let sql = format!(
            "INSERT INTO w5_mail (app, body, seq) VALUES ('{}', '{}', {})",
            crate::platform::sql_escape(to_app),
            crate::platform::sql_escape(body),
            seq
        );
        self.query(&sql, CreateLabels::Derived)?;
        Ok(seq)
    }

    /// Read this app's mailbox: messages with `seq > since`, in `seq`
    /// order (arrival order among equal numbers). Reading taints the
    /// instance with every message's labels (exactly like any other read);
    /// messages this instance may not read are silently absent.
    /// Consumption is cursor-based — instances persist their cursor
    /// wherever suits them. Each label pair numbers its messages on its
    /// own, so a cursor is exact for the mail of one label.
    pub fn recv_messages(&mut self, since: i64) -> Result<Vec<(i64, String)>, ApiError> {
        let sql = format!(
            "SELECT seq, body FROM w5_mail WHERE app = '{}' AND seq > {} ORDER BY seq",
            crate::platform::sql_escape(&self.app_key),
            since
        );
        let out = self.query(&sql, CreateLabels::Derived)?;
        Ok(out
            .rows()
            .iter()
            .filter_map(|r| match (&r.values[0], &r.values[1]) {
                (w5_store::Value::Int(seq), w5_store::Value::Text(body)) => {
                    Some((*seq, body.clone()))
                }
                _ => None,
            })
            .collect())
    }

    fn resolve_labels(&self, policy: CreateLabels, subject: &Subject) -> Result<LabelPair, ApiError> {
        match policy {
            CreateLabels::ViewerData => {
                let viewer = self.viewer.ok_or(ApiError::Denied)?;
                Ok(viewer.data_labels())
            }
            CreateLabels::ViewerPrivate => {
                let viewer = self.viewer.ok_or(ApiError::Denied)?;
                let read_tag = viewer.read_tag.ok_or(ApiError::Denied)?;
                let base = viewer.data_labels();
                Ok(LabelPair::new(base.secrecy.with(read_tag), base.integrity))
            }
            CreateLabels::Derived => {
                Ok(LabelPair::new(subject.labels.secrecy.clone(), w5_difc::Label::empty()))
            }
        }
    }
}
