//! Social networking: profiles, a friends feed, and the chameleon display.
//!
//! Profiles are JSON documents at `/profiles/<user>` under the owner's
//! labels. The feed commingles every friend's profile — the output carries
//! *all* their tags, so it only exports when every friend's declassifier
//! clears the viewer: aggregation without a trusted aggregator, the
//! paper's central trick.
//!
//! The **chameleon** profile (§2 Examples: "hide his penchant for Sci-Fi
//! novels from love interests") is plain app logic over the owner's own
//! data: the profile document carries a `hide` map from interest to the
//! viewers it should be hidden from.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;
use w5_platform::{
    sql_escape, ApiError, AppManifest, AppRequest, AppResponse, CreateLabels, Platform,
    PlatformApi, W5App,
};
use w5_store::Value;

/// The stored profile document.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Profile {
    /// Free-text bio.
    pub bio: String,
    /// Interests, displayed on the profile.
    pub interests: Vec<String>,
    /// Chameleon rules: interest → usernames it is hidden from.
    #[serde(default)]
    pub hide: BTreeMap<String, Vec<String>>,
}

/// The social-networking application.
pub struct SocialApp;

impl SocialApp {
    fn profile_path(user: &str) -> Result<String, ApiError> {
        if user.is_empty() || user.contains('/') {
            return Err(ApiError::Bad("bad user".into()));
        }
        Ok(format!("/profiles/{user}"))
    }

    fn load_profile(api: &mut PlatformApi<'_>, user: &str) -> Result<Profile, ApiError> {
        let data = api.read_file(&Self::profile_path(user)?)?;
        serde_json::from_slice(&data).map_err(|e| ApiError::Bad(format!("corrupt profile: {e}")))
    }

    fn render_profile(owner: &str, profile: &Profile, viewer: Option<&str>) -> String {
        let mut shown: Vec<&String> = profile
            .interests
            .iter()
            .filter(|interest| match viewer {
                Some(v) => !profile
                    .hide
                    .get(*interest)
                    .map(|hidden_from| hidden_from.iter().any(|h| h == v))
                    .unwrap_or(false),
                None => true,
            })
            .collect();
        shown.sort();
        let items: usize = shown.iter().map(|i| i.len() + "<li></li>".len()).sum();
        let mut html = String::with_capacity(64 + owner.len() + profile.bio.len() + items);
        html.extend(["<html><body><h1>", owner, "</h1><p>", &profile.bio, "</p><ul>"]);
        for i in shown {
            html.extend(["<li>", i, "</li>"]);
        }
        html.push_str("</ul></body></html>");
        html
    }
}

impl W5App for SocialApp {
    fn handle(&self, req: &AppRequest, api: &mut PlatformApi<'_>) -> Result<AppResponse, ApiError> {
        match req.action.as_str() {
            // set_profile?bio=...&interests=a,b,c&hide=scifi:alice|carol
            "set_profile" => {
                let owner = api.viewer().ok_or(ApiError::Denied)?.to_string();
                let bio = req.param("bio").unwrap_or("").to_string();
                let interests: Vec<String> = req
                    .param("interests")
                    .unwrap_or("")
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect();
                let mut hide = BTreeMap::new();
                if let Some(h) = req.param("hide") {
                    // format: interest:viewer1|viewer2;interest2:viewer3
                    for rule in h.split(';').filter(|s| !s.is_empty()) {
                        if let Some((interest, viewers)) = rule.split_once(':') {
                            hide.insert(
                                interest.to_string(),
                                viewers.split('|').map(str::to_string).collect(),
                            );
                        }
                    }
                }
                let profile = Profile { bio, interests, hide };
                let body = serde_json::to_vec(&profile)
                    .map_err(|e| ApiError::Bad(e.to_string()))?;
                let path = Self::profile_path(&owner)?;
                match api.write_file(&path, body.clone().into()) {
                    Ok(()) => {}
                    Err(ApiError::NotFound) => {
                        api.create_file(&path, body.into(), CreateLabels::ViewerData)?
                    }
                    Err(e) => return Err(e),
                }
                Ok(AppResponse::text("profile saved"))
            }
            // view?user=bob — chameleon rendering for the current viewer
            "view" => {
                let user = req.param("user").ok_or(ApiError::Bad("user required".into()))?;
                let profile = Self::load_profile(api, user)?;
                let viewer = api.viewer().map(str::to_string);
                Ok(AppResponse::html(Self::render_profile(user, &profile, viewer.as_deref())))
            }
            // feed — every friend's profile, commingled
            "feed" => {
                let me = api.viewer().ok_or(ApiError::Denied)?.to_string();
                let out = api.query(
                    &format!(
                        "SELECT friend FROM w5_friends WHERE owner = '{}' ORDER BY friend",
                        sql_escape(&me)
                    ),
                    CreateLabels::Derived,
                )?;
                // One buffer; a bio's length is known only once it is read.
                let mut html = String::with_capacity(64 + me.len() + 64 * out.rows().len());
                html.extend(["<html><body><h1>", &me, "'s feed</h1>"]);
                for row in out.rows() {
                    if let Value::Text(friend) = &row.values[0] {
                        let profile = match Self::load_profile(api, friend) {
                            Ok(p) => Some(p),
                            Err(ApiError::NotFound) => None,
                            Err(e) => return Err(e),
                        };
                        let bio = profile.as_ref().map_or("(no profile)", |p| p.bio.as_str());
                        html.extend(["<h2>", friend, "</h2><p>", bio, "</p>"]);
                    }
                }
                html.push_str("</body></html>");
                Ok(AppResponse::html(html))
            }
            _ => Err(ApiError::NotFound),
        }
    }

    fn source_lines(&self) -> usize {
        crate::source_line_count!("social.rs")
    }
}

/// Publish + install.
pub fn install(platform: &Arc<Platform>) {
    platform
        .apps
        .publish(AppManifest {
            name: "social".into(),
            developer: "devC".into(),
            version: 1,
            description: "profiles, friends feed, chameleon display".into(),
            module_slots: vec![],
            imports: vec!["devB/blog".into()],
            forked_from: None,
            source: Some(include_str!("social.rs").to_string()),
        })
        .expect("publish social");
    platform.install_app("devC/social", Arc::new(SocialApp));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chameleon_rendering_hides_per_viewer() {
        let mut hide = BTreeMap::new();
        hide.insert("scifi".to_string(), vec!["date1".to_string(), "date2".to_string()]);
        let p = Profile {
            bio: "hello".into(),
            interests: vec!["scifi".into(), "cooking".into()],
            hide,
        };
        let for_friend = SocialApp::render_profile("bob", &p, Some("friend"));
        assert!(for_friend.contains("scifi"));
        assert!(for_friend.contains("cooking"));
        let for_date = SocialApp::render_profile("bob", &p, Some("date1"));
        assert!(!for_date.contains("scifi"), "{for_date}");
        assert!(for_date.contains("cooking"));
        let anon = SocialApp::render_profile("bob", &p, None);
        assert!(anon.contains("scifi"));
    }
}
