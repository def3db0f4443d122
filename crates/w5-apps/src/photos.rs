//! Photo sharing — the paper's running example of data decoupled from
//! applications.
//!
//! Photos live at `/photos/<owner>/<name>` with the owner's default labels;
//! *any* application may read them (subject to taint), and the owner's
//! declassifier choices decide who sees the output. The `crop` action runs
//! whichever [`CropModule`] the viewer's policy selected.

use crate::image::{CenteredCrop, CropModule, Image, TopLeftCrop};
use bytes::Bytes;
use std::collections::HashMap;
use std::fmt::Write;
use std::sync::Arc;
use w5_platform::{
    ApiError, AppManifest, AppRequest, AppResponse, CreateLabels, ModuleManifest, Platform,
    PlatformApi, W5App,
};

/// The photo-sharing application.
pub struct PhotoApp {
    croppers: HashMap<&'static str, Arc<dyn CropModule>>,
}

impl Default for PhotoApp {
    fn default() -> Self {
        PhotoApp::new()
    }
}

impl PhotoApp {
    /// An instance with both competing crop modules available.
    pub fn new() -> PhotoApp {
        let mut croppers: HashMap<&'static str, Arc<dyn CropModule>> = HashMap::new();
        croppers.insert("devA", Arc::new(TopLeftCrop));
        croppers.insert("devB", Arc::new(CenteredCrop));
        PhotoApp { croppers }
    }

    fn photo_path(owner: &str, name: &str) -> Result<String, ApiError> {
        if name.is_empty() || name.contains('/') || owner.is_empty() || owner.contains('/') {
            return Err(ApiError::Bad("bad photo name".into()));
        }
        Ok(format!("/photos/{owner}/{name}"))
    }
}

impl W5App for PhotoApp {
    fn handle(&self, req: &AppRequest, api: &mut PlatformApi<'_>) -> Result<AppResponse, ApiError> {
        match req.action.as_str() {
            // upload?name=cat&w=16&h=16&fill=128  (or body = raw W5IMG)
            "upload" => {
                let owner = api.viewer().ok_or(ApiError::Denied)?.to_string();
                let name = req.param("name").ok_or(ApiError::Bad("name required".into()))?;
                let data = if req.body.is_empty() {
                    let w: usize = req.param("w").and_then(|s| s.parse().ok()).unwrap_or(16);
                    let h: usize = req.param("h").and_then(|s| s.parse().ok()).unwrap_or(16);
                    match req.param("fill").and_then(|s| s.parse::<u8>().ok()) {
                        Some(v) => Image::filled(w.min(1024), h.min(1024), v).encode(),
                        None => Image::test_card(w.min(1024), h.min(1024)).encode(),
                    }
                } else {
                    Image::decode(&req.body).map_err(ApiError::Bad)?;
                    req.body.clone()
                };
                let path = Self::photo_path(&owner, name)?;
                api.create_file(&path, data, CreateLabels::ViewerData)?;
                Ok(AppResponse::text(format!("uploaded {path}")))
            }
            // list?user=bob
            "list" => {
                let user = req
                    .param("user")
                    .map(str::to_string)
                    .or_else(|| api.viewer().map(str::to_string))
                    .ok_or(ApiError::Bad("user required".into()))?;
                let entries = api.list_files(&format!("/photos/{user}"))?;
                // One buffer, sized for the whole page before the first row.
                let rows: usize = entries.iter().map(|e| e.path.len() + 40).sum();
                let mut html = String::with_capacity(64 + user.len() + rows);
                html.extend(["<html><body><h1>", &user, "'s photos</h1><ul>"]);
                for e in &entries {
                    // Writing into a `String` cannot fail.
                    let _ = write!(html, "<li>{} ({} bytes)</li>", e.path, e.size);
                }
                html.push_str("</ul></body></html>");
                Ok(AppResponse::html(html))
            }
            // view?user=bob&name=cat
            "view" => {
                let user = req.param("user").ok_or(ApiError::Bad("user required".into()))?;
                let name = req.param("name").ok_or(ApiError::Bad("name required".into()))?;
                let data = api.read_file(&Self::photo_path(user, name)?)?;
                Ok(AppResponse {
                    content_type: "image/x-w5img".into(),
                    body: data,
                })
            }
            // crop?user=bob&name=cat&w=4&h=4 — runs the user's chosen module
            "crop" => {
                let user = req.param("user").ok_or(ApiError::Bad("user required".into()))?;
                let name = req.param("name").ok_or(ApiError::Bad("name required".into()))?;
                let w: usize = req.param("w").and_then(|s| s.parse().ok()).unwrap_or(8);
                let h: usize = req.param("h").and_then(|s| s.parse().ok()).unwrap_or(8);
                let dev = req.module("crop").unwrap_or("devA");
                let cropper = self
                    .croppers
                    .get(dev)
                    .ok_or_else(|| ApiError::Bad(format!("no crop module from {dev}")))?;
                let data = api.read_file(&Self::photo_path(user, name)?)?;
                let img = Image::decode(&data).map_err(ApiError::Bad)?;
                let out = cropper.crop(&img, w, h);
                api.log(format!("cropped {user}/{name} via {dev}"));
                Ok(AppResponse {
                    content_type: "image/x-w5img".into(),
                    body: out.encode(),
                })
            }
            _ => Err(ApiError::NotFound),
        }
    }

    fn source_lines(&self) -> usize {
        crate::source_line_count!("photos.rs")
    }
}

/// Publish the manifest (with its `crop` slot and both module offerings)
/// and install the implementation.
pub fn install(platform: &Arc<Platform>) {
    platform
        .apps
        .publish(AppManifest {
            name: "photos".into(),
            developer: "devA".into(),
            version: 1,
            description: "photo sharing with pluggable crop modules".into(),
            module_slots: vec!["crop".into()],
            imports: vec![],
            forked_from: None,
            source: Some(include_str!("photos.rs").to_string()),
        })
        .expect("publish photos");
    platform
        .apps
        .publish_module(ModuleManifest {
            for_app: "devA/photos".into(),
            slot: "crop".into(),
            developer: "devA".into(),
            description: "top-left crop".into(),
        })
        .expect("module devA");
    platform
        .apps
        .publish_module(ModuleManifest {
            for_app: "devA/photos".into(),
            slot: "crop".into(),
            developer: "devB".into(),
            description: "centered crop".into(),
        })
        .expect("module devB");
    platform.install_app("devA/photos", Arc::new(PhotoApp::new()));
}

/// Handy for tests: upload a test-card photo directly.
pub fn upload_test_photo(
    platform: &Arc<Platform>,
    owner: &w5_platform::Account,
    name: &str,
    size: usize,
) -> u16 {
    let req = Platform::make_request(
        "POST",
        "upload",
        &[("name", name), ("w", &size.to_string()), ("h", &size.to_string())],
        Some(owner),
        Bytes::new(),
    );
    platform.invoke(Some(owner), "devA/photos", req).status
}
