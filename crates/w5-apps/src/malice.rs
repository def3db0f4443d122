//! The malicious-application suite (paper §3: "Bad developers might upload
//! applications designed to steal data, maliciously delete it, vandalize
//! it, or misrepresent it").
//!
//! Every attack here *runs* — W5's bet is that untrusted code may execute
//! freely because the platform, not the application, enforces policy.
//! Experiment E2 runs this suite against W5 and against the baseline
//! models and tabulates who stops what.

use bytes::Bytes;
use std::sync::Arc;
use w5_platform::{
    ApiError, AppManifest, AppRequest, AppResponse, CreateLabels, Platform, PlatformApi, W5App,
};
use w5_store::Value;

/// Attack 1 — direct theft: read any path the attacker names and return
/// it to whoever is asking.
pub struct Exfiltrator;

impl W5App for Exfiltrator {
    fn handle(&self, req: &AppRequest, api: &mut PlatformApi<'_>) -> Result<AppResponse, ApiError> {
        let path = req.param("path").ok_or(ApiError::Bad("path required".into()))?;
        let data = api.read_file(path)?;
        // The read succeeded — DIFC lets untrusted code *read* freely. The
        // perimeter will stop this response unless the owner's policy
        // clears the viewer.
        Ok(AppResponse::text(String::from_utf8_lossy(&data).into_owned()))
    }
    fn source_lines(&self) -> usize {
        8
    }
}

/// Attack 2 — exfiltration via a confederate: stash the secret in a file
/// for a second app to ship out. (The stash inherits the instance's taint,
/// so the confederate inherits the problem.)
pub struct Stasher;

impl W5App for Stasher {
    fn handle(&self, req: &AppRequest, api: &mut PlatformApi<'_>) -> Result<AppResponse, ApiError> {
        let path = req.param("path").ok_or(ApiError::Bad("path required".into()))?;
        let data = api.read_file(path)?;
        let drop_path = format!("/tmp/drop-{}", req.param("tag").unwrap_or("0"));
        api.create_file(&drop_path, data, CreateLabels::Derived)?;
        Ok(AppResponse::text(format!("stashed at {drop_path}")))
    }
    fn source_lines(&self) -> usize {
        9
    }
}

/// Attack 2b — the confederate that tries to ship the stash out.
pub struct Confederate;

impl W5App for Confederate {
    fn handle(&self, req: &AppRequest, api: &mut PlatformApi<'_>) -> Result<AppResponse, ApiError> {
        let drop_path = format!("/tmp/drop-{}", req.param("tag").unwrap_or("0"));
        let data = api.read_file(&drop_path)?;
        Ok(AppResponse::text(String::from_utf8_lossy(&data).into_owned()))
    }
    fn source_lines(&self) -> usize {
        7
    }
}

/// Attack 3 — vandalism: overwrite a victim file with garbage.
pub struct Vandal;

impl W5App for Vandal {
    fn handle(&self, req: &AppRequest, api: &mut PlatformApi<'_>) -> Result<AppResponse, ApiError> {
        let path = req.param("path").ok_or(ApiError::Bad("path required".into()))?;
        api.write_file(path, Bytes::from_static(b"DEFACED"))?;
        Ok(AppResponse::text("vandalized"))
    }
    fn source_lines(&self) -> usize {
        7
    }
}

/// Attack 4 — deletion.
pub struct Deleter;

impl W5App for Deleter {
    fn handle(&self, req: &AppRequest, api: &mut PlatformApi<'_>) -> Result<AppResponse, ApiError> {
        let path = req.param("path").ok_or(ApiError::Bad("path required".into()))?;
        api.delete_file(path)?;
        Ok(AppResponse::text("deleted"))
    }
    fn source_lines(&self) -> usize {
        7
    }
}

/// Attack 5 — misrepresentation: plant a file that *looks* like the
/// victim's data. The file gets created, but without the victim's
/// write-protection tag in its integrity label, any honest consumer can
/// see it is unvouched.
pub struct Misrepresenter;

impl W5App for Misrepresenter {
    fn handle(&self, req: &AppRequest, api: &mut PlatformApi<'_>) -> Result<AppResponse, ApiError> {
        let victim = req.param("victim").ok_or(ApiError::Bad("victim required".into()))?;
        let path = format!("/photos/{victim}/planted.img");
        api.create_file(&path, Bytes::from_static(b"FAKE"), CreateLabels::Derived)?;
        // Report what integrity the planted file actually carries.
        let meta = api.stat_file(&path)?;
        Ok(AppResponse::text(format!(
            "planted {path}; integrity tags: {}",
            meta.labels.integrity.len()
        )))
    }
    fn source_lines(&self) -> usize {
        11
    }
}

/// Attack 6 — leak through debugging: read the secret, then crash with it
/// in the panic message, hoping the developer-visible fault report carries
/// it out.
pub struct CrashLeaker;

impl W5App for CrashLeaker {
    fn handle(&self, req: &AppRequest, api: &mut PlatformApi<'_>) -> Result<AppResponse, ApiError> {
        let path = req.param("path").ok_or(ApiError::Bad("path required".into()))?;
        let data = api.read_file(path)?;
        panic!("debug me: {}", String::from_utf8_lossy(&data));
    }
    fn source_lines(&self) -> usize {
        7
    }
}

/// Attack 7 — the SQL covert channel of §3.5. `send` encodes one bit as
/// the presence/absence of rows in a shared table (rows carry the sending
/// instance's secret taint); `recv` reads `COUNT(*)`. Under the W5 store's
/// filtered semantics the receiver's count never moves; under naive
/// semantics the bit flows. Experiment E9 measures the bandwidth of both.
pub struct CovertChannel;

impl W5App for CovertChannel {
    fn handle(&self, req: &AppRequest, api: &mut PlatformApi<'_>) -> Result<AppResponse, ApiError> {
        match req.action.as_str() {
            // send?path=/notes/bob&bit=1 — taint ourselves with the secret,
            // then insert (bit=1) or don't (bit=0).
            "send" => {
                let path = req.param("path").ok_or(ApiError::Bad("path required".into()))?;
                let _secret = api.read_file(path)?; // acquire the taint
                if req.param("bit") == Some("1") {
                    // The inserted row inherits our taint via Derived labels.
                    api.query(
                        "INSERT INTO covert_signal (x) VALUES (1)",
                        CreateLabels::Derived,
                    )?;
                }
                Ok(AppResponse::text("sent"))
            }
            // recv — read the count as an untainted instance.
            "recv" => {
                let out = api.query("SELECT COUNT(*) FROM covert_signal", CreateLabels::Derived)?;
                let n = match out.rows().first().map(|r| &r.values[0]) {
                    Some(Value::Int(n)) => *n,
                    _ => 0,
                };
                Ok(AppResponse::text(format!("{n}")))
            }
            // clear — owner-side cleanup between symbols (trusted path used
            // by the experiment harness; the receiving app can't do this).
            _ => Err(ApiError::NotFound),
        }
    }
    fn source_lines(&self) -> usize {
        24
    }
}

/// Attack 8 — *configuration-level* exfiltration: a declassifier that
/// advertises itself as a cautious wrapper ("consults the inner policy
/// first") but ignores the inner verdict and allows everyone. A user who
/// grants it believing the chain narrows to friends-only has silently
/// opened their data to strangers. The runtime cannot see this — every
/// individual export it performs is "authorized" — but the static auditor
/// can: the wrapper's probed breadth exceeds its inner policy's
/// (`W5A002 declass-widening`).
pub struct Widener {
    inner: Arc<dyn w5_platform::Declassifier>,
}

impl Widener {
    /// Wrap an honest policy in order to quietly ignore it.
    pub fn around(inner: Arc<dyn w5_platform::Declassifier>) -> Widener {
        Widener { inner }
    }
}

impl w5_platform::Declassifier for Widener {
    fn name(&self) -> &'static str {
        "friendly-share"
    }
    fn description(&self) -> &'static str {
        "shares with the audience your existing policy allows (it claims)"
    }
    fn authorize(
        &self,
        ctx: &w5_platform::ExportContext,
        oracle: &dyn w5_platform::RelationshipOracle,
    ) -> w5_platform::Verdict {
        // Dutifully consult the inner policy for the audit log's benefit...
        let _ = self.inner.authorize(ctx, oracle);
        // ...then allow regardless.
        w5_platform::Verdict::Allow
    }
    fn audit_lines(&self) -> usize {
        4
    }
    fn inner(&self) -> Option<&dyn w5_platform::Declassifier> {
        Some(&*self.inner)
    }
}

/// Register the widening chain: `friendly-share` wrapping the builtin
/// `friends-only`. Returns the registered name.
pub fn install_widening_attack(platform: &Arc<Platform>) -> &'static str {
    let inner = platform
        .declassifiers
        .get("friends-only")
        .expect("builtin friends-only is registered");
    platform.declassifiers.register(Arc::new(Widener::around(inner)));
    "friendly-share"
}

/// Attack 9 — *configuration-level* capability escalation: mint a
/// WriteProtect tag and use it in the **secrecy** position of stored rows.
/// The rows look protected (non-empty secrecy label), but a WriteProtect
/// tag puts `t-` in the global bag — every app on the platform can
/// silently strip it before the perimeter ever looks. Any data an app
/// launders under this tag flows out unchecked. The runtime sees nothing
/// wrong (each declassification uses a legitimately-held capability); the
/// static auditor flags the census entry (`W5A003 capability-escalation`).
///
/// Returns the minted tag.
pub fn install_escalation_attack(platform: &Arc<Platform>) -> w5_difc::Tag {
    let (tag, _creator_caps) =
        platform.registry.create_tag(w5_difc::TagKind::WriteProtect, "mal:escrow");
    let trusted = w5_store::Subject::anonymous();
    let _ = platform.db.execute(
        &trusted,
        w5_store::QueryMode::Filtered,
        w5_store::QueryCost::unlimited(),
        &w5_difc::LabelPair::public(),
        "CREATE TABLE mal_escrow (victim TEXT)",
    );
    // Raising secrecy is free (no capability needed to add a tag), so the
    // attacker can label rows with its vacuous "protection" from any
    // subject at all.
    let labels = w5_difc::LabelPair::new(
        w5_difc::Label::empty().with(tag),
        w5_difc::Label::empty(),
    );
    let _ = platform.db.execute(
        &trusted,
        w5_store::QueryMode::Filtered,
        w5_store::QueryCost::unlimited(),
        &labels,
        "INSERT INTO mal_escrow (victim) VALUES ('bait')",
    );
    tag
}

/// Publish + install the whole suite under the `mal` developer.
pub fn install(platform: &Arc<Platform>) {
    let trusted = w5_store::Subject::anonymous();
    let _ = platform.db.execute(
        &trusted,
        w5_store::QueryMode::Filtered,
        w5_store::QueryCost::unlimited(),
        &w5_difc::LabelPair::public(),
        "CREATE TABLE covert_signal (x INTEGER)",
    );
    let entries: [(&str, Arc<dyn W5App>, &str); 8] = [
        ("exfiltrator", Arc::new(Exfiltrator), "steals named files"),
        ("stasher", Arc::new(Stasher), "stashes secrets for a confederate"),
        ("confederate", Arc::new(Confederate), "ships out stashed secrets"),
        ("vandal", Arc::new(Vandal), "overwrites victim files"),
        ("deleter", Arc::new(Deleter), "deletes victim files"),
        ("misrepresenter", Arc::new(Misrepresenter), "plants fake victim data"),
        ("crashleaker", Arc::new(CrashLeaker), "leaks secrets via crash reports"),
        ("covert", Arc::new(CovertChannel), "SQL covert channel probe"),
    ];
    for (name, app, desc) in entries {
        platform
            .apps
            .publish(AppManifest {
                name: name.into(),
                developer: "mal".into(),
                version: 1,
                description: desc.into(),
                module_slots: vec![],
                imports: vec![],
                forked_from: None,
                source: None, // closed-source, naturally
            })
            .expect("publish malice");
        platform.install_app(&format!("mal/{name}"), app);
    }
}
