//! Blogging over the labeled SQL store.
//!
//! Posts are rows in `blog_posts`, stamped with the author's labels: the
//! same store serves every user, yet each row's reach is governed by its
//! author's declassifier choices — "private blogs" (§1) fall out of the
//! default policy with no app code at all.

use std::sync::Arc;
use w5_platform::{
    sql_escape, ApiError, AppManifest, AppRequest, AppResponse, CreateLabels, Platform,
    PlatformApi, W5App,
};
use w5_store::Value;

/// The blogging application.
pub struct BlogApp;

impl W5App for BlogApp {
    fn handle(&self, req: &AppRequest, api: &mut PlatformApi<'_>) -> Result<AppResponse, ApiError> {
        match req.action.as_str() {
            // post?title=...&body=...
            "post" => {
                let owner = api.viewer().ok_or(ApiError::Denied)?.to_string();
                let title = req.param("title").unwrap_or("untitled");
                let body = req.param("body").unwrap_or("");
                let sql = format!(
                    "INSERT INTO blog_posts (owner, title, body) VALUES ('{}', '{}', '{}')",
                    sql_escape(&owner),
                    sql_escape(title),
                    sql_escape(body)
                );
                api.query(&sql, CreateLabels::ViewerData)?;
                Ok(AppResponse::text("posted"))
            }
            // list?user=bob
            "list" => {
                let user = req
                    .param("user")
                    .map(str::to_string)
                    .or_else(|| api.viewer().map(str::to_string))
                    .ok_or(ApiError::Bad("user required".into()))?;
                let out = api.query(
                    &format!(
                        "SELECT title FROM blog_posts WHERE owner = '{}' ORDER BY title",
                        sql_escape(&user)
                    ),
                    CreateLabels::Derived,
                )?;
                let titles = out.rows.iter().filter_map(|row| match &row.values[0] {
                    Value::Text(t) => Some(t.as_str()),
                    _ => None,
                });
                // One buffer, sized for the whole page before the first row.
                let rows: usize = titles.clone().map(|t| t.len() + "<li></li>".len()).sum();
                let mut html = String::with_capacity(64 + user.len() + rows);
                html.extend(["<html><body><h1>", &user, "'s blog</h1><ul>"]);
                for t in titles {
                    html.extend(["<li>", t, "</li>"]);
                }
                html.push_str("</ul></body></html>");
                Ok(AppResponse::html(html))
            }
            // read?user=bob&title=...
            "read" => {
                let user = req.param("user").ok_or(ApiError::Bad("user required".into()))?;
                let title = req.param("title").ok_or(ApiError::Bad("title required".into()))?;
                let out = api.query(
                    &format!(
                        "SELECT body FROM blog_posts WHERE owner = '{}' AND title = '{}'",
                        sql_escape(user),
                        sql_escape(title)
                    ),
                    CreateLabels::Derived,
                )?;
                match out.rows.first() {
                    Some(row) => {
                        let body = row.values[0].render();
                        Ok(AppResponse::html(format!(
                            "<html><body><h1>{title}</h1><p>{body}</p></body></html>"
                        )))
                    }
                    None => Err(ApiError::NotFound),
                }
            }
            _ => Err(ApiError::NotFound),
        }
    }

    fn source_lines(&self) -> usize {
        crate::source_line_count!("blog.rs")
    }
}

/// Create the table, publish the manifest, install the implementation.
pub fn install(platform: &Arc<Platform>) {
    let trusted = w5_store::Subject::anonymous();
    // Idempotent setup: ignore "already exists".
    let _ = platform.db.execute(
        &trusted,
        w5_store::QueryMode::Filtered,
        w5_store::QueryCost::unlimited(),
        &w5_difc::LabelPair::public(),
        "CREATE TABLE blog_posts (owner TEXT, title TEXT, body TEXT)",
    );
    // Reads are always by owner; the index makes them one lookup per partition.
    let _ = platform.db.create_index("blog_posts", "owner");
    platform
        .apps
        .publish(AppManifest {
            name: "blog".into(),
            developer: "devB".into(),
            version: 1,
            description: "blogging on the shared labeled store".into(),
            module_slots: vec![],
            imports: vec![],
            forked_from: None,
            source: Some(include_str!("blog.rs").to_string()),
        })
        .expect("publish blog");
    platform.install_app("devB/blog", Arc::new(BlogApp));
}
