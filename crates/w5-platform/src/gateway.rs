//! The HTTP gateway: W5's face to "today's Web clients" (paper §2).
//!
//! Routes:
//!
//! | Route | Purpose |
//! |---|---|
//! | `POST /signup`, `POST /login`, `POST /logout` | provider-written account code |
//! | `GET /whoami` | session introspection |
//! | `GET /registry` | application catalog (JSON) |
//! | `POST /registry/publish` | developer uploads a manifest (JSON body) |
//! | `POST /registry/fork` | fork an app (`source`, `developer` form fields) |
//! | `GET /declassifiers` | declassifier catalog |
//! | `POST /policy/enroll` · `grant` · `delegate-write` · `delegate-read` · `module` · `pin` · `trust-editor` · `require-endorsement` · `read-protection` | the user's control surface |
//! | `GET /policy` | the viewer's current policy (JSON) |
//! | `GET /editors`, `POST /editors/endorse` | endorsement catalog (§3.2) |
//! | `GET /registry/source` | released source + pinned SHA-256 (§2 audit) |
//! | `GET /search?q=` | CodeRank-ranked catalog search (§3.2) |
//! | `GET /audit` | the viewer's perimeter decision log |
//! | `GET /dev/faults` | label-scrubbed fault reports (§3.5) |
//! | any `/app/:dev/:app/*action` | launch the app and run the request |
//!
//! Authentication is a session cookie; the gateway resolves it once and
//! hands the launcher an authenticated [`Account`].

use crate::appreg::{AppManifest, ModuleManifest};
use crate::platform::Platform;
use crate::policy::GrantScope;
use crate::principal::Account;
use crate::session::SESSION_COOKIE;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;
use w5_net::{Cookie, Handler, Method, Request, Response, SetCookie, Status};

/// The gateway: an [`Handler`] wrapping a [`Platform`].
pub struct Gateway {
    platform: Arc<Platform>,
}

impl Gateway {
    /// Wrap a platform.
    pub fn new(platform: Arc<Platform>) -> Gateway {
        Gateway { platform }
    }

    /// The wrapped platform.
    pub fn platform(&self) -> &Arc<Platform> {
        &self.platform
    }

    fn viewer(&self, req: &Request) -> Option<Account> {
        let token = req.cookie(SESSION_COOKIE)?;
        let user = self.platform.sessions.validate(&token)?;
        self.platform.accounts.get(user)
    }

    fn route(&self, req: &Request) -> Response {
        let path = req.path.as_str();
        let viewer = self.viewer(req);

        match (req.method, path) {
            (Method::Post, "/signup") => self.signup(req),
            (Method::Post, "/login") => self.login(req),
            (Method::Post, "/logout") => self.logout(req),
            (Method::Get, "/whoami") => match viewer {
                Some(a) => Response::json(format!(
                    "{{\"user\":\"{}\",\"id\":{}}}",
                    a.username, a.id.0
                )),
                None => Response::json("{\"user\":null}".to_string()),
            },
            (Method::Get, "/registry") => self.list_registry(),
            (Method::Post, "/registry/publish") => self.publish(req),
            (Method::Post, "/registry/fork") => self.fork(req),
            (Method::Post, "/registry/module") => self.publish_module(req),
            (Method::Get, "/declassifiers") => self.list_declassifiers(),
            (Method::Get, "/policy") => self.show_policy(viewer.as_ref()),
            (Method::Post, "/policy/enroll") => self.policy_enroll(req, viewer.as_ref()),
            (Method::Post, "/policy/grant") => self.policy_grant(req, viewer.as_ref()),
            (Method::Post, "/policy/delegate-write") => {
                self.policy_delegate_write(req, viewer.as_ref())
            }
            (Method::Post, "/policy/module") => self.policy_module(req, viewer.as_ref()),
            (Method::Post, "/policy/pin") => self.policy_pin(req, viewer.as_ref()),
            (Method::Post, "/policy/delegate-read") => {
                self.policy_delegate_read(req, viewer.as_ref())
            }
            (Method::Post, "/policy/read-protection") => {
                self.policy_read_protection(viewer.as_ref())
            }
            (Method::Post, "/policy/trust-editor") => self.policy_trust_editor(req, viewer.as_ref()),
            (Method::Post, "/policy/require-endorsement") => {
                self.policy_require_endorsement(req, viewer.as_ref())
            }
            (Method::Get, "/editors") => self.list_endorsements(),
            (Method::Post, "/editors/endorse") => self.endorse(req),
            (Method::Get, "/dev/faults") => self.dev_faults(req),
            (Method::Get, "/audit") => self.audit(viewer.as_ref()),
            (Method::Get, "/registry/source") => self.app_source(req),
            (Method::Get, "/search") => self.code_search(req),
            (Method::Get, "/") => self.home(viewer.as_ref()),
            _ => {
                // App dispatch: /app/:dev/:app/*action
                if let Some(rest) = path.strip_prefix("/app/") {
                    return self.dispatch_app(req, viewer.as_ref(), rest);
                }
                Response::error(Status::NOT_FOUND, "no such route")
            }
        }
    }

    fn signup(&self, req: &Request) -> Response {
        let user = req.form_param("user").unwrap_or_default();
        let password = req.form_param("password").unwrap_or_default();
        match self.platform.accounts.register(&user, &password) {
            Ok(account) => {
                let token = self.platform.sessions.create(account.id);
                let mut resp = Response::json(format!("{{\"user\":\"{}\"}}", account.username));
                resp.add_set_cookie(&SetCookie::session(SESSION_COOKIE, &token));
                resp
            }
            Err(e) => Response::error(Status::BAD_REQUEST, &e.to_string()),
        }
    }

    fn login(&self, req: &Request) -> Response {
        let user = req.form_param("user").unwrap_or_default();
        let password = req.form_param("password").unwrap_or_default();
        match self.platform.accounts.authenticate(&user, &password) {
            Ok(account) => {
                let token = self.platform.sessions.create(account.id);
                let mut resp = Response::json(format!("{{\"user\":\"{}\"}}", account.username));
                resp.add_set_cookie(&SetCookie::session(SESSION_COOKIE, &token));
                resp
            }
            Err(e) => Response::error(Status::UNAUTHORIZED, &e.to_string()),
        }
    }

    fn logout(&self, req: &Request) -> Response {
        if let Some(token) = req.cookie(SESSION_COOKIE) {
            self.platform.sessions.revoke(&token);
        }
        let mut resp = Response::json("{\"ok\":true}".to_string());
        resp.add_set_cookie(&SetCookie::delete(SESSION_COOKIE));
        resp
    }

    fn list_registry(&self) -> Response {
        let apps = self.platform.apps.list();
        match serde_json::to_string(&apps) {
            Ok(json) => Response::json(json),
            Err(_) => Response::error(Status::INTERNAL_ERROR, "serialization failed"),
        }
    }

    fn publish(&self, req: &Request) -> Response {
        let manifest: AppManifest = match serde_json::from_slice(&req.body) {
            Ok(m) => m,
            Err(e) => return Response::error(Status::BAD_REQUEST, &format!("bad manifest: {e}")),
        };
        match self.platform.apps.publish(manifest) {
            Ok(()) => Response::json("{\"ok\":true}".to_string()),
            Err(e) => Response::error(Status::BAD_REQUEST, &e.to_string()),
        }
    }

    fn fork(&self, req: &Request) -> Response {
        let source = req.form_param("source").unwrap_or_default();
        let developer = req.form_param("developer").unwrap_or_default();
        let description = req
            .form_param("description")
            .unwrap_or_else(|| "forked".to_string());
        match self.platform.apps.fork(&source, &developer, &description) {
            Ok(m) => match serde_json::to_string(&m) {
                Ok(json) => Response::json(json),
                Err(_) => Response::error(Status::INTERNAL_ERROR, "serialization failed"),
            },
            Err(e) => Response::error(Status::BAD_REQUEST, &e.to_string()),
        }
    }

    fn publish_module(&self, req: &Request) -> Response {
        let module: ModuleManifest = match serde_json::from_slice(&req.body) {
            Ok(m) => m,
            Err(e) => return Response::error(Status::BAD_REQUEST, &format!("bad module: {e}")),
        };
        match self.platform.apps.publish_module(module) {
            Ok(()) => Response::json("{\"ok\":true}".to_string()),
            Err(e) => Response::error(Status::BAD_REQUEST, &e.to_string()),
        }
    }

    fn list_declassifiers(&self) -> Response {
        let items: Vec<String> = self
            .platform
            .declassifiers
            .list()
            .into_iter()
            .map(|(name, desc, lines)| {
                format!("{{\"name\":\"{name}\",\"description\":\"{desc}\",\"audit_lines\":{lines}}}")
            })
            .collect();
        Response::json(format!("[{}]", items.join(",")))
    }

    fn show_policy(&self, viewer: Option<&Account>) -> Response {
        let Some(v) = viewer else {
            return Response::error(Status::UNAUTHORIZED, "login required");
        };
        let policy = self.platform.policies.get(v.id);
        match serde_json::to_string(&*policy) {
            Ok(json) => Response::json(json),
            Err(_) => Response::error(Status::INTERNAL_ERROR, "serialization failed"),
        }
    }

    fn policy_enroll(&self, req: &Request, viewer: Option<&Account>) -> Response {
        let Some(v) = viewer else {
            return Response::error(Status::UNAUTHORIZED, "login required");
        };
        let app = req.form_param("app").unwrap_or_default();
        if self.platform.apps.latest(&app).is_none() {
            return Response::error(Status::BAD_REQUEST, "no such app");
        }
        self.platform.policies.enroll(v.id, &app);
        Response::json("{\"ok\":true}".to_string())
    }

    fn policy_grant(&self, req: &Request, viewer: Option<&Account>) -> Response {
        let Some(v) = viewer else {
            return Response::error(Status::UNAUTHORIZED, "login required");
        };
        let declassifier = req.form_param("declassifier").unwrap_or_default();
        if self.platform.declassifiers.get(&declassifier).is_none() {
            return Response::error(Status::BAD_REQUEST, "no such declassifier");
        }
        let scope = match req.form_param("app") {
            Some(app) if !app.is_empty() => GrantScope::App(app),
            _ => GrantScope::AllApps,
        };
        self.platform.policies.grant_declassifier(v.id, &declassifier, scope);
        Response::json("{\"ok\":true}".to_string())
    }

    fn policy_delegate_write(&self, req: &Request, viewer: Option<&Account>) -> Response {
        let Some(v) = viewer else {
            return Response::error(Status::UNAUTHORIZED, "login required");
        };
        let app = req.form_param("app").unwrap_or_default();
        self.platform.policies.delegate_write(v.id, &app);
        Response::json("{\"ok\":true}".to_string())
    }

    fn policy_module(&self, req: &Request, viewer: Option<&Account>) -> Response {
        let Some(v) = viewer else {
            return Response::error(Status::UNAUTHORIZED, "login required");
        };
        let app = req.form_param("app").unwrap_or_default();
        let slot = req.form_param("slot").unwrap_or_default();
        let developer = req.form_param("developer").unwrap_or_default();
        self.platform.policies.choose_module(v.id, &app, &slot, &developer);
        Response::json("{\"ok\":true}".to_string())
    }

    fn policy_pin(&self, req: &Request, viewer: Option<&Account>) -> Response {
        let Some(v) = viewer else {
            return Response::error(Status::UNAUTHORIZED, "login required");
        };
        let app = req.form_param("app").unwrap_or_default();
        let Some(version) = req.form_param("version").and_then(|s| s.parse().ok()) else {
            return Response::error(Status::BAD_REQUEST, "version must be an integer");
        };
        self.platform.policies.pin_version(v.id, &app, version);
        Response::json("{\"ok\":true}".to_string())
    }

    fn policy_delegate_read(&self, req: &Request, viewer: Option<&Account>) -> Response {
        let Some(v) = viewer else {
            return Response::error(Status::UNAUTHORIZED, "login required");
        };
        let app = req.form_param("app").unwrap_or_default();
        self.platform.policies.delegate_read(v.id, &app);
        Response::json("{\"ok\":true}".to_string())
    }

    fn policy_read_protection(&self, viewer: Option<&Account>) -> Response {
        let Some(v) = viewer else {
            return Response::error(Status::UNAUTHORIZED, "login required");
        };
        match self.platform.accounts.enable_read_protection(v.id) {
            Some(tag) => Response::json(format!("{{\"ok\":true,\"read_tag\":{}}}", tag.raw())),
            None => Response::error(Status::INTERNAL_ERROR, "no such account"),
        }
    }

    fn policy_trust_editor(&self, req: &Request, viewer: Option<&Account>) -> Response {
        let Some(v) = viewer else {
            return Response::error(Status::UNAUTHORIZED, "login required");
        };
        let editor = req.form_param("editor").unwrap_or_default();
        if editor.is_empty() {
            return Response::error(Status::BAD_REQUEST, "editor required");
        }
        self.platform.policies.trust_editor(v.id, &editor);
        Response::json("{\"ok\":true}".to_string())
    }

    fn policy_require_endorsement(&self, req: &Request, viewer: Option<&Account>) -> Response {
        let Some(v) = viewer else {
            return Response::error(Status::UNAUTHORIZED, "login required");
        };
        let on = req.form_param("on").as_deref() != Some("false");
        self.platform.policies.set_require_endorsement(v.id, on);
        Response::json(format!("{{\"ok\":true,\"require_endorsement\":{on}}}"))
    }

    fn list_endorsements(&self) -> Response {
        match serde_json::to_string(&self.platform.editors.list()) {
            Ok(json) => Response::json(json),
            Err(_) => Response::error(Status::INTERNAL_ERROR, "serialization failed"),
        }
    }

    fn endorse(&self, req: &Request) -> Response {
        let editor = req.form_param("editor").unwrap_or_default();
        let app = req.form_param("app").unwrap_or_default();
        let Some(version) = req.form_param("version").and_then(|s| s.parse().ok()) else {
            return Response::error(Status::BAD_REQUEST, "version must be an integer");
        };
        let note = req.form_param("note").unwrap_or_default();
        if editor.is_empty() || app.is_empty() {
            return Response::error(Status::BAD_REQUEST, "editor and app required");
        }
        self.platform.editors.endorse(&editor, &app, version, &note);
        Response::json("{\"ok\":true}".to_string())
    }

    /// The developer dashboard (§3.5 "developers need to get some
    /// information when their applications malfunction"): fault reports
    /// for one app, already label-scrubbed by the platform — read from that
    /// app's own partition, so other apps' faults neither show nor evict.
    /// Without `app`, every app's (the union of what each `app` shows).
    fn dev_faults(&self, req: &Request) -> Response {
        let reports = match req.query_param("app").filter(|app| !app.is_empty()) {
            Some(app) => self.platform.fault_reports_for(&app),
            None => self.platform.fault_reports(),
        };
        let lines: Vec<String> = reports.iter().map(|r| json_str(&r.to_log_line())).collect();
        Response::json(format!("[{}]", lines.join(",")))
    }

    /// The viewer's export audit: the retained perimeter decisions on data
    /// labeled with their own tags only — who asked, through which app,
    /// allowed or not (see [`crate::Exporter::audit_for`]).
    fn audit(&self, viewer: Option<&Account>) -> Response {
        let Some(v) = viewer else {
            return Response::error(Status::UNAUTHORIZED, "login required");
        };
        let lines: Vec<String> = self
            .platform
            .exporter
            .audit_for(v)
            .iter()
            .map(|e| {
                format!(
                    "{{\"viewer\":{},\"app\":{},\"allowed\":{}}}",
                    e.viewer.map(|u| u.0 as i64).unwrap_or(-1),
                    json_str(&e.app),
                    e.allowed
                )
            })
            .collect();
        Response::json(format!("[{}]", lines.join(",")))
    }

    /// Serve an app's released source for audit, with its SHA-256 pinned
    /// in a header (§2: the platform guarantees the running code is the
    /// audited code).
    fn app_source(&self, req: &Request) -> Response {
        let Some(app) = req.query_param("app") else {
            return Response::error(Status::BAD_REQUEST, "app required");
        };
        let manifest = match req.query_param("version").and_then(|v| v.parse().ok()) {
            Some(version) => self.platform.apps.version(&app, version),
            None => self.platform.apps.latest(&app),
        };
        let Some(m) = manifest else {
            return Response::error(Status::NOT_FOUND, "no such app");
        };
        match (&m.source, m.source_hash()) {
            (Some(src), Some(hash)) => Response::text(src.clone())
                .with_header("x-w5-source-sha256", &hash)
                .with_header("x-w5-app-version", &m.version.to_string()),
            _ => Response::error(Status::NOT_FOUND, "closed-source application"),
        }
    }

    /// Code search over the catalog, ranked by CodeRank over the live
    /// dependency graph (§3.2).
    fn code_search(&self, req: &Request) -> Response {
        let query = req.query_param("q").unwrap_or_default();
        let limit: usize = req
            .query_param("limit")
            .and_then(|s| s.parse().ok())
            .unwrap_or(10)
            .min(100);
        let apps = self.platform.apps.list();
        let mut graph = w5_coderank::DepGraph::new();
        // Nodes first (so isolated apps are searchable), then edges.
        let mut descriptions: Vec<(usize, String)> = Vec::new();
        for m in &apps {
            let ix = graph.add_node(&m.key());
            descriptions.push((ix, m.description.clone()));
        }
        for (from, to) in self.platform.apps.dependency_edges() {
            graph.add_edge(&from, &to);
        }
        let mut desc_vec = vec![String::new(); graph.node_count()];
        for (ix, d) in descriptions {
            desc_vec[ix] = d;
        }
        let search = w5_coderank::CodeSearch::build(
            graph,
            desc_vec,
            w5_coderank::RankParams::default(),
        );
        let hits: Vec<String> = search
            .search(&query, limit)
            .into_iter()
            .map(|h| format!("{{\"app\":{},\"rank\":{:.6}}}", json_str(&h.name), h.score))
            .collect();
        Response::json(format!("[{}]", hits.join(",")))
    }

    fn home(&self, viewer: Option<&Account>) -> Response {
        let who = viewer.map(|v| v.username.clone()).unwrap_or_else(|| "anonymous".into());
        let apps = self.platform.apps.list();
        let mut html = format!(
            "<html><body><h1>W5 — {}</h1><p>Hello, {who}.</p><ul>",
            self.platform.name
        );
        for a in apps {
            let key = html_escape(&a.key());
            html.push_str(&format!(
                "<li><a href=\"/app/{key}/\">{key}</a> v{} — {}</li>",
                a.version,
                html_escape(&a.description)
            ));
        }
        html.push_str("</ul></body></html>");
        Response::html(html)
    }

    fn dispatch_app(&self, req: &Request, viewer: Option<&Account>, rest: &str) -> Response {
        // rest = "dev/app" or "dev/app/action..."
        let mut parts = rest.splitn(3, '/');
        let (Some(dev), Some(app)) = (parts.next(), parts.next()) else {
            return Response::error(Status::BAD_REQUEST, "expected /app/<developer>/<app>/…");
        };
        if dev.is_empty() || app.is_empty() {
            return Response::error(Status::BAD_REQUEST, "expected /app/<developer>/<app>/…");
        }
        let action = parts.next().unwrap_or("").to_string();
        let app_key = format!("{dev}/{app}");

        // Merge query + form params.
        let mut params: BTreeMap<String, String> = BTreeMap::new();
        for (k, v) in req.query() {
            params.insert(k, v);
        }
        if req
            .header("content-type")
            .map(|ct| ct.starts_with("application/x-www-form-urlencoded"))
            .unwrap_or(false)
        {
            for (k, v) in req.form() {
                params.insert(k, v);
            }
        }

        let app_req = crate::api::AppRequest {
            method: req.method.as_str().to_string(),
            action,
            params,
            viewer: viewer.map(|a| a.username.clone()),
            modules: BTreeMap::new(),
            body: req.body.clone(),
        };
        let result = self.platform.invoke(viewer, &app_key, app_req);
        Response::new(Status(result.status))
            .with_header("content-type", &result.content_type)
            .with_header("x-w5-app", &app_key)
            .with_body(result.body)
    }
}

impl Handler for Gateway {
    fn handle(&self, request: Request, _peer: SocketAddr) -> Response {
        self.route(&request)
    }
}

/// `s` as a JSON string literal: the gateway's JSON carries names and
/// descriptions that developers chose.
fn json_str(s: &str) -> String {
    serde_json::to_string(s).unwrap_or_else(|_| "\"\"".into())
}

/// `s` as HTML text or a quoted attribute value: the home page is
/// platform-origin HTML that never passes the perimeter's sanitizer.
fn html_escape(s: &str) -> String {
    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;").replace('"', "&quot;").replace('\'', "&#39;")
}

/// Parse a `Cookie` header fragment (re-exported convenience for tests).
pub fn session_cookie_of(resp: &Response) -> Option<Cookie> {
    resp.headers
        .iter()
        .filter(|(k, _)| k.starts_with("set-cookie"))
        .filter_map(|(_, v)| {
            let (pair, _) = v.split_once(';')?;
            let (name, value) = pair.split_once('=')?;
            Some(Cookie { name: name.trim().to_string(), value: value.trim().to_string() })
        })
        .find(|c| c.name == SESSION_COOKIE)
}
