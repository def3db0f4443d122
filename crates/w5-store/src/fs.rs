//! The labeled filesystem.
//!
//! A flat-namespace-with-directories in-memory filesystem in which every
//! file carries a [`LabelPair`]. The paper's default policies map directly:
//! a photo uploaded by Bob is created at `S = {e_bob}`, `I = {w_bob}` —
//! any application may read it (and be tainted), none may overwrite it
//! without `w_bob+`, and nothing derived from it leaves the perimeter
//! without `e_bob-`.
//!
//! Paths are `/`-separated UTF-8, rooted at `/`. Directories are implicit
//! (created on demand) and carry no labels of their own; *listing* filters
//! out entries whose existence the subject could not learn by reading them,
//! closing the "ls as a covert channel" hole.

use crate::subject::Subject;
use bytes::Bytes;
use w5_sync::RwLock;
use std::collections::BTreeMap;
use std::fmt;
use w5_difc::{LabelPair, TagRegistry};

/// Ledger a store access. The event is labeled with the *file's* secrecy:
/// even a denied access leaks which file was probed, so only viewers
/// cleared for the file may see per-event records (denials of invisible
/// files must stay invisible — mirroring the `NotFound` masking below).
fn ledger_access(path: &str, bytes: u64, labels: &LabelPair, write: bool, allowed: bool) {
    let kind = if write {
        w5_obs::EventKind::StoreWrite { path: path.to_string(), bytes, allowed }
    } else {
        w5_obs::EventKind::StoreRead { path: path.to_string(), bytes, allowed }
    };
    w5_obs::record(labels.secrecy.to_obs(), kind);
}

/// Filesystem errors.
///
/// Note the deliberate asymmetry: reads of files the subject cannot know
/// about return [`FsError::NotFound`], not a permission error — an
/// unreadable file must be indistinguishable from an absent one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FsError {
    /// No such file (or no file this subject may know about).
    NotFound,
    /// A file already exists at the path.
    AlreadyExists,
    /// The write/delete violates the file's labels.
    WriteDenied,
    /// The path is syntactically invalid.
    BadPath,
    /// The per-owner disk quota is exhausted.
    QuotaExceeded,
    /// The write was aborted by an injected fault (`w5-chaos`) before it
    /// committed. Atomicity guarantee: the previous contents, labels and
    /// version of the file are fully intact.
    Aborted,
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FsError::NotFound => "no such file",
            FsError::AlreadyExists => "file already exists",
            FsError::WriteDenied => "write denied by label policy",
            FsError::BadPath => "invalid path",
            FsError::QuotaExceeded => "disk quota exceeded",
            FsError::Aborted => "write aborted before commit",
        };
        f.write_str(s)
    }
}

impl std::error::Error for FsError {}

/// Metadata for a file, as visible to a subject that may read it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FileMeta {
    /// Absolute path.
    pub path: String,
    /// Size in bytes.
    pub size: usize,
    /// The file's labels.
    pub labels: LabelPair,
    /// Monotonic version, bumped on every write.
    pub version: u64,
}

#[derive(Clone, Debug)]
struct FileEntry {
    data: Bytes,
    labels: LabelPair,
    version: u64,
}

/// A labeled in-memory filesystem. Cheap to clone (shared state).
#[derive(Clone)]
pub struct LabeledFs {
    inner: std::sync::Arc<RwLock<BTreeMap<String, FileEntry>>>,
    /// Total bytes allowed across the filesystem; `usize::MAX` = unlimited.
    capacity: usize,
    /// The provider's tag registry, whose kind rule is the global bag
    /// every subject holds.
    global: std::sync::Arc<TagRegistry>,
}

fn validate(path: &str) -> Result<(), FsError> {
    if !path.starts_with('/') || path.ends_with('/') || path.contains("//") || path.contains('\0')
    {
        return Err(FsError::BadPath);
    }
    if path.split('/').any(|seg| seg == "." || seg == "..") {
        return Err(FsError::BadPath);
    }
    Ok(())
}

impl LabeledFs {
    /// An empty filesystem with unlimited capacity, whose subjects hold
    /// `registry`'s global bag `Ô` as well as their own capabilities.
    pub fn new(registry: std::sync::Arc<TagRegistry>) -> LabeledFs {
        LabeledFs::with_capacity(usize::MAX, registry)
    }

    /// The same, refusing writes beyond `capacity` total bytes.
    pub fn with_capacity(capacity: usize, registry: std::sync::Arc<TagRegistry>) -> LabeledFs {
        LabeledFs {
            inner: std::sync::Arc::new(RwLock::new("store.fs", BTreeMap::new())),
            capacity,
            global: registry,
        }
    }

    /// Create a file. Fails if it exists. The file's labels are chosen by
    /// the caller but must be *writable* by the subject: the subject's
    /// secrecy must be absorbed and its integrity claims honest.
    pub fn create(
        &self,
        subject: &Subject,
        path: &str,
        labels: LabelPair,
        data: Bytes,
    ) -> Result<(), FsError> {
        validate(path)?;
        if !subject.may_write(&self.global, &labels) {
            ledger_access(path, data.len() as u64, &labels, true, false);
            return Err(FsError::WriteDenied);
        }
        let mut inner = self.inner.write();
        if inner.contains_key(path) {
            return Err(FsError::AlreadyExists);
        }
        let used: usize = inner.values().map(|f| f.data.len()).sum();
        if used.saturating_add(data.len()) > self.capacity {
            return Err(FsError::QuotaExceeded);
        }
        // Last fault point before commit: an aborted create leaves no file
        // behind (all-or-nothing — there is no partially created entry).
        if w5_chaos::inject(w5_chaos::Site::FsWrite).is_some() {
            return Err(FsError::Aborted);
        }
        let bytes = data.len() as u64;
        inner.insert(path.to_string(), FileEntry { data, labels: labels.clone(), version: 1 });
        drop(inner);
        ledger_access(path, bytes, &labels, true, true);
        Ok(())
    }

    /// Read a file. Returns its bytes and labels so the platform can taint
    /// the reading process. A file the subject could never read reports
    /// [`FsError::NotFound`].
    pub fn read(&self, subject: &Subject, path: &str) -> Result<(Bytes, LabelPair), FsError> {
        validate(path)?;
        let inner = self.inner.read();
        let f = inner.get(path).ok_or(FsError::NotFound)?;
        if !subject.may_read(&self.global, &f.labels) {
            let labels = f.labels.clone();
            drop(inner);
            ledger_access(path, 0, &labels, false, false);
            return Err(FsError::NotFound);
        }
        let (data, labels) = (f.data.clone(), f.labels.clone());
        drop(inner);
        ledger_access(path, data.len() as u64, &labels, false, true);
        Ok((data, labels))
    }

    /// Stat a file the subject may read.
    pub fn stat(&self, subject: &Subject, path: &str) -> Result<FileMeta, FsError> {
        validate(path)?;
        let inner = self.inner.read();
        let f = inner.get(path).ok_or(FsError::NotFound)?;
        if !subject.may_read(&self.global, &f.labels) {
            return Err(FsError::NotFound);
        }
        Ok(FileMeta {
            path: path.to_string(),
            size: f.data.len(),
            labels: f.labels.clone(),
            version: f.version,
        })
    }

    /// Overwrite a file's contents, keeping its labels. Requires write
    /// admissibility against the *existing* labels.
    pub fn write(&self, subject: &Subject, path: &str, data: Bytes) -> Result<(), FsError> {
        validate(path)?;
        let mut inner = self.inner.write();
        // Quota check against the delta.
        let used: usize = inner.values().map(|f| f.data.len()).sum();
        let f = inner.get_mut(path).ok_or(FsError::NotFound)?;
        if !subject.may_read(&self.global, &f.labels) {
            // Invisible file: same error as absence.
            return Err(FsError::NotFound);
        }
        if !subject.may_write(&self.global, &f.labels) {
            let labels = f.labels.clone();
            drop(inner);
            ledger_access(path, data.len() as u64, &labels, true, false);
            return Err(FsError::WriteDenied);
        }
        if used - f.data.len() + data.len() > self.capacity {
            return Err(FsError::QuotaExceeded);
        }
        // Overwrites are staged-then-committed: every check has passed, and
        // the swap below is the single atomic commit point. An injected
        // fault here models a torn write — the old data, labels and version
        // must survive untouched.
        if w5_chaos::inject(w5_chaos::Site::FsWrite).is_some() {
            return Err(FsError::Aborted);
        }
        let labels = f.labels.clone();
        let bytes = data.len() as u64;
        f.data = data;
        f.version += 1;
        drop(inner);
        ledger_access(path, bytes, &labels, true, true);
        Ok(())
    }

    /// Delete a file. Deletion is a write.
    pub fn delete(&self, subject: &Subject, path: &str) -> Result<(), FsError> {
        validate(path)?;
        let mut inner = self.inner.write();
        let f = inner.get(path).ok_or(FsError::NotFound)?;
        if !subject.may_read(&self.global, &f.labels) {
            return Err(FsError::NotFound);
        }
        if !subject.may_write(&self.global, &f.labels) {
            let labels = f.labels.clone();
            drop(inner);
            ledger_access(path, 0, &labels, true, false);
            return Err(FsError::WriteDenied);
        }
        let labels = f.labels.clone();
        inner.remove(path);
        drop(inner);
        ledger_access(path, 0, &labels, true, true);
        Ok(())
    }

    /// List files under a directory prefix (non-recursive), filtered to
    /// entries the subject could read. `dir` is `/`-terminated logically;
    /// pass `"/photos/bob"` to list that directory.
    pub fn list(&self, subject: &Subject, dir: &str) -> Result<Vec<FileMeta>, FsError> {
        if dir != "/" {
            validate(dir)?;
        }
        let prefix = if dir == "/" { "/".to_string() } else { format!("{dir}/") };
        let inner = self.inner.read();
        Ok(inner
            .range(prefix.clone()..)
            .take_while(|(p, _)| p.starts_with(&prefix))
            .filter(|(p, _)| !p[prefix.len()..].contains('/'))
            .filter(|(_, f)| subject.may_read(&self.global, &f.labels))
            .map(|(p, f)| FileMeta {
                path: p.clone(),
                size: f.data.len(),
                labels: f.labels.clone(),
                version: f.version,
            })
            .collect())
    }

    /// Recursive listing under a prefix, with the same visibility filter.
    pub fn list_recursive(&self, subject: &Subject, dir: &str) -> Result<Vec<FileMeta>, FsError> {
        if dir != "/" {
            validate(dir)?;
        }
        let prefix = if dir == "/" { "/".to_string() } else { format!("{dir}/") };
        let inner = self.inner.read();
        Ok(inner
            .range(prefix.clone()..)
            .take_while(|(p, _)| p.starts_with(&prefix))
            .filter(|(_, f)| subject.may_read(&self.global, &f.labels))
            .map(|(p, f)| FileMeta {
                path: p.clone(),
                size: f.data.len(),
                labels: f.labels.clone(),
                version: f.version,
            })
            .collect())
    }

    /// Total bytes stored (trusted accounting use).
    pub fn bytes_used(&self) -> usize {
        self.inner.read().values().map(|f| f.data.len()).sum()
    }

    /// Total number of files (trusted accounting use).
    pub fn file_count(&self) -> usize {
        self.inner.read().len()
    }

    /// Census of file labels: the distinct label pairs in use with their
    /// file counts, sorted deterministically. Trusted accounting for
    /// configuration audits (`w5-analyze`); reveals labels, never contents
    /// or paths.
    pub fn label_census(&self) -> Vec<(LabelPair, usize)> {
        let inner = self.inner.read();
        let mut counts: std::collections::HashMap<LabelPair, usize> = Default::default();
        for f in inner.values() {
            *counts.entry(f.labels.clone()).or_insert(0) += 1;
        }
        let mut entries: Vec<(LabelPair, usize)> = counts.into_iter().collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use w5_difc::{CapSet, Label, TagKind, TagRegistry};

    struct World {
        reg: Arc<TagRegistry>,
        fs: LabeledFs,
        bob: Subject,
        bob_data: LabelPair,
        app: Subject,
    }

    fn world() -> World {
        let reg = Arc::new(TagRegistry::new());
        let (e, e_caps) = reg.create_tag(TagKind::ExportProtect, "export:bob");
        let (w, w_caps) = reg.create_tag(TagKind::WriteProtect, "write:bob");
        let mut bob_caps = e_caps;
        bob_caps.extend(&w_caps);
        let bob = Subject::new(
            LabelPair::new(Label::empty(), Label::singleton(w)),
            bob_caps.clone(),
        );
        let app = Subject::new(LabelPair::public(), CapSet::empty());
        let bob_data = LabelPair::new(Label::singleton(e), Label::singleton(w));
        let fs = LabeledFs::new(Arc::clone(&reg));
        World { reg, fs, bob, bob_data, app }
    }

    #[test]
    fn create_read_roundtrip() {
        let w = world();
        w.fs.create(&w.bob, "/photos/bob/cat.jpg", w.bob_data.clone(), Bytes::from_static(b"JPEG"))
            .unwrap();
        let (data, labels) = w.fs.read(&w.bob, "/photos/bob/cat.jpg").unwrap();
        assert_eq!(&data[..], b"JPEG");
        assert_eq!(labels, w.bob_data);
        assert_eq!(w.fs.file_count(), 1);
        assert_eq!(w.fs.bytes_used(), 4);
    }

    #[test]
    fn app_may_read_but_not_overwrite_bobs_file() {
        let w = world();
        w.fs.create(&w.bob, "/photos/bob/cat.jpg", w.bob_data.clone(), Bytes::from_static(b"JPEG"))
            .unwrap();
        // Reading succeeds (export protection allows tainted reads).
        assert!(w.fs.read(&w.app, "/photos/bob/cat.jpg").is_ok());
        // Writing fails: the app cannot vouch w_bob.
        assert_eq!(
            w.fs.write(&w.app, "/photos/bob/cat.jpg", Bytes::from_static(b"DEFACED")),
            Err(FsError::WriteDenied)
        );
        // Deleting fails the same way (vandalism/deletion, paper §3).
        assert_eq!(w.fs.delete(&w.app, "/photos/bob/cat.jpg"), Err(FsError::WriteDenied));
        // The owner can do both.
        assert!(w.fs.write(&w.bob, "/photos/bob/cat.jpg", Bytes::from_static(b"v2")).is_ok());
        assert_eq!(w.fs.stat(&w.bob, "/photos/bob/cat.jpg").unwrap().version, 2);
        assert!(w.fs.delete(&w.bob, "/photos/bob/cat.jpg").is_ok());
    }

    #[test]
    fn tainted_app_cannot_create_public_files() {
        let w = world();
        // The app has read Bob's data: its secrecy label now carries e_bob.
        let e = w.reg.find_by_name("export:bob").unwrap();
        let tainted = Subject::new(
            LabelPair::new(Label::singleton(e), Label::empty()),
            w.app.caps.clone(),
        );
        // It may not launder into a public file…
        assert!(!tainted.may_write(&w.reg, &LabelPair::public()));
        assert_eq!(
            w.fs.create(&tainted, "/public/loot.bin", LabelPair::public(), Bytes::from_static(b"x")),
            Err(FsError::WriteDenied)
        );
        // …but may stash derived data at Bob's secrecy.
        let derived = LabelPair::new(Label::singleton(e), Label::empty());
        assert!(w.fs.create(&tainted, "/cache/derived.bin", derived, Bytes::from_static(b"x")).is_ok());
    }

    #[test]
    fn invisible_files_look_absent() {
        let reg = Arc::new(TagRegistry::new());
        let (r, owner_caps) = reg.create_tag(TagKind::ReadProtect, "read:alice");
        let alice = Subject::new(LabelPair::public(), owner_caps.clone());
        let fs = LabeledFs::new(Arc::clone(&reg));
        let secret = LabelPair::new(Label::singleton(r), Label::empty());
        fs.create(&alice, "/diary/alice.txt", secret, Bytes::from_static(b"dear diary"))
            .unwrap();

        let stranger = Subject::new(LabelPair::public(), CapSet::empty());
        // Read-protected file: the stranger cannot even raise to read it, so
        // it must appear not to exist.
        assert_eq!(fs.read(&stranger, "/diary/alice.txt"), Err(FsError::NotFound));
        assert_eq!(fs.stat(&stranger, "/diary/alice.txt"), Err(FsError::NotFound));
        assert!(fs.list(&stranger, "/diary").unwrap().is_empty());
        assert_eq!(fs.list(&alice, "/diary").unwrap().len(), 1);
    }

    #[test]
    fn listing_is_nonrecursive_and_filtered() {
        let w = world();
        w.fs.create(&w.bob, "/a/one.txt", w.bob_data.clone(), Bytes::from_static(b"1")).unwrap();
        w.fs.create(&w.bob, "/a/b/two.txt", w.bob_data.clone(), Bytes::from_static(b"2")).unwrap();
        w.fs.create(&w.bob, "/c/three.txt", w.bob_data.clone(), Bytes::from_static(b"3")).unwrap();
        let l = w.fs.list(&w.bob, "/a").unwrap();
        assert_eq!(l.len(), 1);
        assert_eq!(l[0].path, "/a/one.txt");
        let lr = w.fs.list_recursive(&w.bob, "/a").unwrap();
        assert_eq!(lr.len(), 2);
        let root = w.fs.list_recursive(&w.bob, "/").unwrap();
        assert_eq!(root.len(), 3);
    }

    #[test]
    fn bad_paths_rejected() {
        let w = world();
        for p in ["relative", "/trailing/", "//double", "/dot/./x", "/dotdot/../x", "/nul\0"] {
            assert_eq!(
                w.fs.create(&w.bob, p, LabelPair::public(), Bytes::new()),
                Err(FsError::BadPath),
                "path {p:?}"
            );
        }
    }

    #[test]
    fn duplicate_create_rejected() {
        let w = world();
        w.fs.create(&w.bob, "/x", w.bob_data.clone(), Bytes::new()).unwrap();
        assert_eq!(
            w.fs.create(&w.bob, "/x", w.bob_data.clone(), Bytes::new()),
            Err(FsError::AlreadyExists)
        );
    }

    #[test]
    fn capacity_enforced() {
        let w = world();
        let fs = LabeledFs::with_capacity(10, Arc::clone(&w.reg));
        fs.create(&w.bob, "/a", w.bob_data.clone(), Bytes::from(vec![0; 8])).unwrap();
        assert_eq!(
            fs.create(&w.bob, "/b", w.bob_data.clone(), Bytes::from(vec![0; 3])),
            Err(FsError::QuotaExceeded)
        );
        // Overwrite within capacity is fine (delta accounting).
        assert!(fs.write(&w.bob, "/a", Bytes::from(vec![0; 10])).is_ok());
        assert_eq!(
            fs.write(&w.bob, "/a", Bytes::from(vec![0; 11])),
            Err(FsError::QuotaExceeded)
        );
    }
}
