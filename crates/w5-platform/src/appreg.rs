//! The application registry: the developer ecosystem of paper §2.
//!
//! Developers publish **applications** made of **modules** (e.g. the photo
//! app's `crop` slot). Other developers publish competing module
//! implementations or **fork** whole applications — "any developer can
//! customize an existing application by simply forking the existing code,"
//! after which "the customizing developer has a pool of users."
//!
//! Users' module/version choices live in the policy store; the registry is
//! the catalog. Dependency edges (imports and embedded links) recorded here
//! feed the CodeRank analysis of §3.2.

use w5_sync::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A published application version.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct AppManifest {
    /// Application name, unique per developer, e.g. `"photos"`.
    pub name: String,
    /// Publishing developer, e.g. `"devA"`.
    pub developer: String,
    /// Version, monotonically increasing per (developer, name).
    pub version: u32,
    /// One-line description for the catalog.
    pub description: String,
    /// Module slots this app exposes for substitution (e.g. `["crop",
    /// "label"]`). Users pick providers per slot.
    pub module_slots: Vec<String>,
    /// Library/module dependencies as `"developer/app"` keys — the import
    /// edges for CodeRank.
    pub imports: Vec<String>,
    /// If this app was forked, the `"developer/app"` it came from.
    pub forked_from: Option<String>,
    /// Source code, if the developer released it (enables audit; paper §2
    /// "the platform itself can guarantee that the code with which a user
    /// is interacting is exactly the code that the user has audited").
    pub source: Option<String>,
}

impl AppManifest {
    /// The registry key, `"developer/name"`.
    pub fn key(&self) -> String {
        format!("{}/{}", self.developer, self.name)
    }

    /// Is the source released?
    pub fn is_open_source(&self) -> bool {
        self.source.is_some()
    }

    /// SHA-256 of the released source (hex), if any — the §2 guarantee
    /// that "the code with which a user is interacting is exactly the
    /// code that the user has audited": audit the text once, pin the hash.
    pub fn source_hash(&self) -> Option<String> {
        self.source
            .as_ref()
            .map(|s| crate::crypto::hex(&crate::crypto::sha256(s.as_bytes())))
    }
}

/// A module implementation filling a slot of some app.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModuleManifest {
    /// The app whose slot this fills, as `"developer/app"`.
    pub for_app: String,
    /// The slot name, e.g. `"crop"`.
    pub slot: String,
    /// The developer offering this implementation.
    pub developer: String,
    /// Human-readable description.
    pub description: String,
}

impl ModuleManifest {
    /// The registry key, `"for_app#slot@developer"`.
    pub fn key(&self) -> String {
        format!("{}#{}@{}", self.for_app, self.slot, self.developer)
    }
}

/// Registry errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RegistryError {
    /// Unknown application.
    NoSuchApp(String),
    /// Unknown module.
    NoSuchModule(String),
    /// The slot is not declared by the target app.
    NoSuchSlot { app: String, slot: String },
    /// A version must exceed the previous one.
    VersionNotMonotonic,
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::NoSuchApp(a) => write!(f, "no such app: {a}"),
            RegistryError::NoSuchModule(m) => write!(f, "no such module: {m}"),
            RegistryError::NoSuchSlot { app, slot } => {
                write!(f, "app {app} has no module slot {slot:?}")
            }
            RegistryError::VersionNotMonotonic => write!(f, "version must increase"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// The catalog of applications and modules.
pub struct AppRegistry {
    /// key → all published versions, ascending. A published manifest never
    /// changes, so lookups share it (source text included) rather than
    /// copy it.
    apps: RwLock<HashMap<String, Vec<Arc<AppManifest>>>>,
    modules: RwLock<HashMap<String, ModuleManifest>>,
}

impl Default for AppRegistry {
    fn default() -> AppRegistry {
        AppRegistry::new()
    }
}

impl AppRegistry {
    /// An empty registry.
    pub fn new() -> AppRegistry {
        AppRegistry {
            apps: RwLock::with_index("platform.appreg", 0, HashMap::new()),
            modules: RwLock::with_index("platform.appreg", 1, HashMap::new()),
        }
    }

    /// Publish a new version of an application.
    pub fn publish(&self, manifest: AppManifest) -> Result<(), RegistryError> {
        let key = manifest.key();
        let mut apps = self.apps.write();
        let versions = apps.entry(key).or_default();
        if let Some(last) = versions.last() {
            if manifest.version <= last.version {
                return Err(RegistryError::VersionNotMonotonic);
            }
        }
        versions.push(Arc::new(manifest));
        Ok(())
    }

    /// Fork an existing application under a new developer. The fork starts
    /// at version 1, inherits slots/imports/source, and records lineage.
    pub fn fork(
        &self,
        source_key: &str,
        new_developer: &str,
        description: &str,
    ) -> Result<AppManifest, RegistryError> {
        let src = self
            .latest(source_key)
            .ok_or_else(|| RegistryError::NoSuchApp(source_key.to_string()))?;
        let fork = AppManifest {
            name: src.name.clone(),
            developer: new_developer.to_string(),
            version: 1,
            description: description.to_string(),
            module_slots: src.module_slots.clone(),
            imports: src.imports.clone(),
            forked_from: Some(source_key.to_string()),
            source: src.source.clone(),
        };
        self.publish(fork.clone())?;
        Ok(fork)
    }

    /// Offer a module implementation for an app's slot.
    pub fn publish_module(&self, module: ModuleManifest) -> Result<(), RegistryError> {
        let app = self
            .latest(&module.for_app)
            .ok_or_else(|| RegistryError::NoSuchApp(module.for_app.clone()))?;
        if !app.module_slots.contains(&module.slot) {
            return Err(RegistryError::NoSuchSlot { app: module.for_app.clone(), slot: module.slot.clone() });
        }
        self.modules.write().insert(module.key(), module);
        Ok(())
    }

    /// Latest version of an app.
    pub fn latest(&self, key: &str) -> Option<Arc<AppManifest>> {
        self.apps.read().get(key).and_then(|v| v.last().cloned())
    }

    /// A specific version (paper §2: users may pin "version X.Y, not the
    /// latest").
    pub fn version(&self, key: &str, version: u32) -> Option<Arc<AppManifest>> {
        self.apps
            .read()
            .get(key)
            .and_then(|v| v.iter().find(|m| m.version == version).cloned())
    }

    /// All versions of an app, ascending.
    pub fn versions(&self, key: &str) -> Vec<AppManifest> {
        let apps = self.apps.read();
        apps.get(key).into_iter().flatten().map(|m| AppManifest::clone(m)).collect()
    }

    /// All apps (latest versions), sorted by key.
    pub fn list(&self) -> Vec<AppManifest> {
        let apps = self.apps.read();
        let mut v: Vec<AppManifest> =
            apps.values().filter_map(|vs| vs.last()).map(|m| AppManifest::clone(m)).collect();
        v.sort_by_key(|a| a.key());
        v
    }

    /// Module implementations available for an app slot.
    pub fn modules_for(&self, app_key: &str, slot: &str) -> Vec<ModuleManifest> {
        let mut v: Vec<ModuleManifest> = self
            .modules
            .read()
            .values()
            .filter(|m| m.for_app == app_key && m.slot == slot)
            .cloned()
            .collect();
        v.sort_by(|a, b| a.developer.cmp(&b.developer));
        v
    }

    /// Look up one module by key.
    pub fn module(&self, key: &str) -> Option<ModuleManifest> {
        self.modules.read().get(key).cloned()
    }

    /// Dependency edges for CodeRank: `(from_key, to_key)` for every import
    /// of every latest-version app, plus fork lineage edges.
    pub fn dependency_edges(&self) -> Vec<(String, String)> {
        let apps = self.apps.read();
        let mut edges = Vec::new();
        for versions in apps.values() {
            if let Some(m) = versions.last() {
                for imp in &m.imports {
                    edges.push((m.key(), imp.clone()));
                }
                if let Some(src) = &m.forked_from {
                    edges.push((m.key(), src.clone()));
                }
            }
        }
        edges.sort();
        edges
    }

    /// Number of distinct apps.
    pub fn app_count(&self) -> usize {
        self.apps.read().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest(dev: &str, name: &str, version: u32) -> AppManifest {
        AppManifest {
            name: name.to_string(),
            developer: dev.to_string(),
            version,
            description: format!("{name} by {dev}"),
            module_slots: vec!["crop".to_string()],
            imports: vec![],
            forked_from: None,
            source: Some("fn main() {}".to_string()),
        }
    }

    #[test]
    fn publish_and_lookup() {
        let r = AppRegistry::new();
        r.publish(manifest("devA", "photos", 1)).unwrap();
        r.publish(manifest("devA", "photos", 2)).unwrap();
        assert_eq!(r.latest("devA/photos").unwrap().version, 2);
        assert_eq!(r.version("devA/photos", 1).unwrap().version, 1);
        assert_eq!(r.versions("devA/photos").len(), 2);
        assert!(r.latest("devB/photos").is_none());
        assert_eq!(r.app_count(), 1);
    }

    #[test]
    fn lookups_share_the_stored_manifest() {
        let r = AppRegistry::new();
        r.publish(manifest("devA", "photos", 1)).unwrap();
        r.publish(manifest("devA", "photos", 2)).unwrap();
        let latest = r.latest("devA/photos").unwrap();
        assert!(Arc::ptr_eq(&latest, &r.latest("devA/photos").unwrap()));
        assert!(Arc::ptr_eq(&latest, &r.version("devA/photos", 2).unwrap()));
        // A newer publish moves `latest`; the old versions stay where they were.
        r.publish(manifest("devA", "photos", 3)).unwrap();
        assert_eq!(r.latest("devA/photos").unwrap().version, 3);
        assert!(Arc::ptr_eq(&latest, &r.version("devA/photos", 2).unwrap()));
        assert_eq!(latest.version, 2);
    }

    #[test]
    fn versions_must_increase() {
        let r = AppRegistry::new();
        r.publish(manifest("devA", "photos", 3)).unwrap();
        assert_eq!(
            r.publish(manifest("devA", "photos", 3)),
            Err(RegistryError::VersionNotMonotonic)
        );
        assert_eq!(
            r.publish(manifest("devA", "photos", 2)),
            Err(RegistryError::VersionNotMonotonic)
        );
    }

    #[test]
    fn forking_preserves_lineage_and_slots() {
        let r = AppRegistry::new();
        let mut original = manifest("devA", "photos", 5);
        original.imports = vec!["devC/imagelib".to_string()];
        r.publish(original).unwrap();
        let fork = r.fork("devA/photos", "devB", "photos with dark mode").unwrap();
        assert_eq!(fork.key(), "devB/photos");
        assert_eq!(fork.version, 1);
        assert_eq!(fork.forked_from.as_deref(), Some("devA/photos"));
        assert_eq!(fork.module_slots, vec!["crop"]);
        assert_eq!(fork.imports, vec!["devC/imagelib"]);
        assert_eq!(fork.source.as_deref(), Some("fn main() {}"));
        assert_eq!(*r.latest("devB/photos").unwrap(), fork, "what was stored is what was returned");
        // The fork shows up as its own app.
        assert_eq!(r.app_count(), 2);
        // Lineage appears in the dependency edges.
        let edges = r.dependency_edges();
        assert!(edges.contains(&("devB/photos".to_string(), "devA/photos".to_string())));
    }

    #[test]
    fn fork_of_missing_app_fails() {
        let r = AppRegistry::new();
        assert!(matches!(r.fork("devZ/nope", "devB", "d"), Err(RegistryError::NoSuchApp(_))));
    }

    #[test]
    fn module_publication_validates_slot() {
        let r = AppRegistry::new();
        r.publish(manifest("devA", "photos", 1)).unwrap();
        let ok = ModuleManifest {
            for_app: "devA/photos".to_string(),
            slot: "crop".to_string(),
            developer: "devB".to_string(),
            description: "better cropper".to_string(),
        };
        r.publish_module(ok.clone()).unwrap();
        assert_eq!(r.modules_for("devA/photos", "crop"), vec![ok.clone()]);
        assert_eq!(r.module(&ok.key()).unwrap(), ok);

        let bad_slot = ModuleManifest { slot: "rotate".to_string(), ..ok.clone() };
        assert!(matches!(
            r.publish_module(bad_slot),
            Err(RegistryError::NoSuchSlot { .. })
        ));
        let bad_app = ModuleManifest { for_app: "nope/x".to_string(), ..ok };
        assert!(matches!(r.publish_module(bad_app), Err(RegistryError::NoSuchApp(_))));
    }

    #[test]
    fn import_edges_collected() {
        let r = AppRegistry::new();
        let mut a = manifest("devA", "photos", 1);
        a.imports = vec!["devC/imagelib".to_string()];
        r.publish(a).unwrap();
        r.publish(manifest("devC", "imagelib", 1)).unwrap();
        let edges = r.dependency_edges();
        assert_eq!(edges, vec![("devA/photos".to_string(), "devC/imagelib".to_string())]);
    }

    #[test]
    fn list_sorted() {
        let r = AppRegistry::new();
        r.publish(manifest("devB", "blog", 1)).unwrap();
        r.publish(manifest("devA", "photos", 1)).unwrap();
        let keys: Vec<String> = r.list().iter().map(AppManifest::key).collect();
        assert_eq!(keys, vec!["devA/photos", "devB/blog"]);
    }
}
