//! Online dating with a user-uploaded compatibility metric (§2 Examples:
//! "For an online-dating application, Bob can upload a custom
//! compatibility metric.")
//!
//! Each user stores a dating profile (interest vector) and, optionally,
//! their own metric — per-dimension weights. The `match` action evaluates
//! the *viewer's* metric against candidate profiles, entirely inside the
//! perimeter: candidates' raw profiles are read (tainting the instance),
//! but only scores are rendered, and the output still carries every
//! candidate's tag — the candidates' declassifier policies decide whether
//! the viewer may see even that.

use serde::{Deserialize, Serialize};
use std::fmt::Write;
use std::sync::Arc;
use w5_platform::{
    ApiError, AppManifest, AppRequest, AppResponse, CreateLabels, Platform, PlatformApi, W5App,
};

/// Interest dimensions used by profiles and metrics.
pub const DIMENSIONS: [&str; 5] = ["music", "books", "sports", "travel", "food"];

/// A dating profile: per-dimension enthusiasm 0..=10.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct DatingProfile {
    /// Scores per dimension, aligned with [`DIMENSIONS`].
    pub scores: [i64; 5],
    /// Custom metric weights per dimension (defaults to all-1).
    pub weights: [i64; 5],
}

impl DatingProfile {
    /// The viewer's custom compatibility metric: negative weighted
    /// Manhattan distance (higher = more compatible).
    pub fn compatibility(&self, other: &DatingProfile) -> i64 {
        -(0..5)
            .map(|i| self.weights[i] * (self.scores[i] - other.scores[i]).abs())
            .sum::<i64>()
    }
}

/// The dating application.
pub struct DatingApp;

impl DatingApp {
    fn path(user: &str) -> String {
        format!("/dating/{user}")
    }

    fn parse_vec(s: &str) -> Result<[i64; 5], ApiError> {
        let vals: Vec<i64> = s
            .split(',')
            .map(|p| p.trim().parse::<i64>())
            .collect::<Result<_, _>>()
            .map_err(|_| ApiError::Bad("expected 5 comma-separated integers".into()))?;
        if vals.len() != 5 {
            return Err(ApiError::Bad("expected exactly 5 values".into()));
        }
        Ok([vals[0], vals[1], vals[2], vals[3], vals[4]])
    }

    fn load(api: &mut PlatformApi<'_>, user: &str) -> Result<DatingProfile, ApiError> {
        let data = api.read_file(&Self::path(user))?;
        serde_json::from_slice(&data).map_err(|e| ApiError::Bad(format!("corrupt profile: {e}")))
    }
}

impl W5App for DatingApp {
    fn handle(&self, req: &AppRequest, api: &mut PlatformApi<'_>) -> Result<AppResponse, ApiError> {
        match req.action.as_str() {
            // profile?scores=1,2,3,4,5&weights=2,1,1,1,3
            "profile" => {
                let me = api.viewer().ok_or(ApiError::Denied)?.to_string();
                let scores = Self::parse_vec(req.param("scores").unwrap_or("0,0,0,0,0"))?;
                let weights = match req.param("weights") {
                    Some(w) => Self::parse_vec(w)?,
                    None => [1; 5],
                };
                let profile = DatingProfile { scores, weights };
                let body = serde_json::to_vec(&profile).map_err(|e| ApiError::Bad(e.to_string()))?;
                match api.write_file(&Self::path(&me), body.clone().into()) {
                    Ok(()) => {}
                    Err(ApiError::NotFound) => {
                        api.create_file(&Self::path(&me), body.into(), CreateLabels::ViewerData)?
                    }
                    Err(e) => return Err(e),
                }
                Ok(AppResponse::text("dating profile saved"))
            }
            // match?candidates=alice,carol
            "match" => {
                let me = api.viewer().ok_or(ApiError::Denied)?.to_string();
                let mine = Self::load(api, &me)?;
                let mut results: Vec<(i64, String)> = Vec::new();
                for cand in req
                    .param("candidates")
                    .unwrap_or("")
                    .split(',')
                    .filter(|s| !s.is_empty() && *s != me)
                {
                    match Self::load(api, cand) {
                        Ok(theirs) => results.push((mine.compatibility(&theirs), cand.to_string())),
                        Err(ApiError::NotFound) => {}
                        Err(e) => return Err(e),
                    }
                }
                results.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
                let mut html = format!("<html><body><h1>matches for {me}</h1><ol>");
                for (score, cand) in &results {
                    // Writing into a `String` cannot fail.
                    let _ = write!(html, "<li>{cand}: {score}</li>");
                }
                html.push_str("</ol></body></html>");
                Ok(AppResponse::html(html))
            }
            _ => Err(ApiError::NotFound),
        }
    }

    fn source_lines(&self) -> usize {
        crate::source_line_count!("dating.rs")
    }
}

/// Publish + install.
pub fn install(platform: &Arc<Platform>) {
    platform
        .apps
        .publish(AppManifest {
            name: "dating".into(),
            developer: "devD".into(),
            version: 1,
            description: "dating with user-uploaded compatibility metrics".into(),
            module_slots: vec![],
            imports: vec![],
            forked_from: None,
            source: Some(include_str!("dating.rs").to_string()),
        })
        .expect("publish dating");
    platform.install_app("devD/dating", Arc::new(DatingApp));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compatibility_prefers_similar_profiles() {
        let me = DatingProfile { scores: [5, 5, 5, 5, 5], weights: [1; 5] };
        let twin = DatingProfile { scores: [5, 5, 5, 5, 5], weights: [1; 5] };
        let opposite = DatingProfile { scores: [0, 10, 0, 10, 0], weights: [1; 5] };
        assert!(me.compatibility(&twin) > me.compatibility(&opposite));
        assert_eq!(me.compatibility(&twin), 0);
    }

    #[test]
    fn custom_weights_change_the_ranking() {
        // Candidate A matches on music, B on food.
        let a = DatingProfile { scores: [9, 0, 0, 0, 0], weights: [1; 5] };
        let b = DatingProfile { scores: [0, 0, 0, 0, 9], weights: [1; 5] };
        // With music weighted heavily, A wins.
        let music_lover = DatingProfile { scores: [9, 0, 0, 0, 9], weights: [10, 1, 1, 1, 1] };
        assert!(music_lover.compatibility(&a) > music_lover.compatibility(&b));
        // With food weighted heavily, B wins.
        let foodie = DatingProfile { scores: [9, 0, 0, 0, 9], weights: [1, 1, 1, 1, 10] };
        assert!(foodie.compatibility(&b) > foodie.compatibility(&a));
    }

    #[test]
    fn parse_vec_validates() {
        assert!(DatingApp::parse_vec("1,2,3,4,5").is_ok());
        assert!(DatingApp::parse_vec("1,2,3").is_err());
        assert!(DatingApp::parse_vec("a,b,c,d,e").is_err());
    }
}
