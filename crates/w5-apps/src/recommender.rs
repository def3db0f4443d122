//! The recommendation engine over private data (§2 Examples).
//!
//! "Bob can deploy an application that sends him daily e-mail with the 5
//! most 'relevant' photos and blog entries posted by his friends." The
//! point: the recommender reads *everyone's* private posts to rank them —
//! something no status-quo site would allow a third-party app — and the
//! platform still guarantees nothing leaks: the digest carries every
//! contributor's tag, so only a viewer every contributor's policy clears
//! can see it.
//!
//! Scoring is keyword overlap between the viewer's stored preference list
//! and each candidate item, which keeps the experiment deterministic.

use std::fmt::Write;
use std::sync::Arc;
use w5_platform::{
    sql_escape, ApiError, AppManifest, AppRequest, AppResponse, CreateLabels, Platform,
    PlatformApi, W5App,
};
use w5_store::Value;

/// The recommender application.
pub struct RecommenderApp;

impl RecommenderApp {
    fn prefs_path(user: &str) -> String {
        format!("/recs/{user}")
    }

    /// Keyword-overlap score.
    fn score(keywords: &[String], text: &str) -> usize {
        let lower = text.to_ascii_lowercase();
        keywords
            .iter()
            .filter(|k| !k.is_empty() && lower.contains(&k.to_ascii_lowercase()))
            .count()
    }
}

impl W5App for RecommenderApp {
    fn handle(&self, req: &AppRequest, api: &mut PlatformApi<'_>) -> Result<AppResponse, ApiError> {
        match req.action.as_str() {
            // prefs?keywords=rust,hiking,jazz
            "prefs" => {
                let me = api.viewer().ok_or(ApiError::Denied)?.to_string();
                let kw = req.param("keywords").unwrap_or("").to_string();
                let path = Self::prefs_path(&me);
                match api.write_file(&path, kw.clone().into_bytes().into()) {
                    Ok(()) => {}
                    Err(ApiError::NotFound) => api.create_file(
                        &path,
                        kw.into_bytes().into(),
                        CreateLabels::ViewerData,
                    )?,
                    Err(e) => return Err(e),
                }
                Ok(AppResponse::text("preferences saved"))
            }
            // digest?n=5 — the daily top-N over friends' blog posts
            "digest" => {
                let me = api.viewer().ok_or(ApiError::Denied)?.to_string();
                let n: usize = req.param("n").and_then(|s| s.parse().ok()).unwrap_or(5);
                let keywords: Vec<String> = match api.read_file(&Self::prefs_path(&me)) {
                    Ok(data) => String::from_utf8_lossy(&data)
                        .split(',')
                        .map(str::to_string)
                        .collect(),
                    Err(ApiError::NotFound) => Vec::new(),
                    Err(e) => return Err(e),
                };
                // Which friends?
                let friends = api.query(
                    &format!(
                        "SELECT friend FROM w5_friends WHERE owner = '{}'",
                        sql_escape(&me)
                    ),
                    CreateLabels::Derived,
                )?;
                // Score every friend post. This read path taints the
                // instance with each friend's tag — exactly the paper's
                // "read everything, export only what policy allows".
                let mut scored: Vec<(usize, String, String)> = Vec::new();
                for row in &friends.rows {
                    let Value::Text(friend) = &row.values[0] else { continue };
                    let posts = api.query(
                        &format!(
                            "SELECT title, body FROM blog_posts WHERE owner = '{}'",
                            sql_escape(friend)
                        ),
                        CreateLabels::Derived,
                    )?;
                    for post in &posts.rows {
                        let title = post.values[0].render();
                        let body = post.values[1].render();
                        let s = Self::score(&keywords, &body) + Self::score(&keywords, &title) * 2;
                        scored.push((s, friend.clone(), title));
                    }
                }
                scored.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.2.cmp(&b.2)));
                scored.truncate(n);
                let mut html = format!("<html><body><h1>daily digest for {me}</h1><ol>");
                for (score, friend, title) in &scored {
                    // Writing into a `String` cannot fail.
                    let _ = write!(html, "<li>{title} — {friend} (score {score})</li>");
                }
                html.push_str("</ol></body></html>");
                Ok(AppResponse::html(html))
            }
            _ => Err(ApiError::NotFound),
        }
    }

    fn source_lines(&self) -> usize {
        crate::source_line_count!("recommender.rs")
    }
}

/// Publish + install.
pub fn install(platform: &Arc<Platform>) {
    platform
        .apps
        .publish(AppManifest {
            name: "recommender".into(),
            developer: "devD".into(),
            version: 1,
            description: "top-N digest over friends' private posts".into(),
            module_slots: vec![],
            imports: vec!["devB/blog".into(), "devC/social".into()],
            forked_from: None,
            source: Some(include_str!("recommender.rs").to_string()),
        })
        .expect("publish recommender");
    platform.install_app("devD/recommender", Arc::new(RecommenderApp));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoring_counts_keyword_hits() {
        let kws = vec!["rust".to_string(), "jazz".to_string()];
        assert_eq!(RecommenderApp::score(&kws, "I love Rust and jazz"), 2);
        assert_eq!(RecommenderApp::score(&kws, "nothing relevant"), 0);
        assert_eq!(RecommenderApp::score(&kws, "RUST!"), 1, "case-insensitive");
        assert_eq!(RecommenderApp::score(&[], "anything"), 0);
    }
}
