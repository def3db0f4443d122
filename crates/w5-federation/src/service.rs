//! The export side: serves a user's own-labeled files to a peer provider.

use crate::protocol::{ExportBatch, ExportRecord, FEDERATION_TOKEN_HEADER};
use crate::FEDERATION_DECLASSIFIER;
use std::net::SocketAddr;
use std::sync::Arc;
use w5_platform::{GrantScope, Platform};
use w5_store::Subject;
use w5_net::{Handler, Method, Request, Response, Status};

/// HTTP handler exposing `GET /federation/export?user=<name>` to peers
/// presenting the shared secret.
pub struct FederationService {
    platform: Arc<Platform>,
    peer_token: String,
}

impl FederationService {
    /// Wrap a platform with a peering secret.
    pub fn new(platform: Arc<Platform>, peer_token: &str) -> FederationService {
        FederationService { platform, peer_token: peer_token.to_string() }
    }

    /// Has `user` opted into federation by granting the declassifier?
    fn user_opted_in(&self, user_id: w5_platform::UserId) -> bool {
        let policy = self.platform.policies.get(user_id);
        policy.is_granted(FEDERATION_DECLASSIFIER, "w5/federation")
    }

    fn export(&self, req: &Request) -> Response {
        // Peer authentication.
        if req.header(FEDERATION_TOKEN_HEADER) != Some(self.peer_token.as_str()) {
            return Response::error(Status::UNAUTHORIZED, "bad peer token");
        }
        let Some(username) = req.query_param("user") else {
            return Response::error(Status::BAD_REQUEST, "user required");
        };
        let Some(account) = self.platform.accounts.get_by_name(&username) else {
            return Response::error(Status::NOT_FOUND, "no such user");
        };
        // The user must have granted the import/export declassifier —
        // without it, the perimeter stays closed to the peer too.
        if !self.user_opted_in(account.id) {
            return Response::error(Status::FORBIDDEN, "user has not granted federation-export");
        }

        // Select the user's data *by labels*: exactly the files whose
        // secrecy is {e_u}. The exporting subject wields the user's own
        // capabilities (the grant the user handed the declassifier).
        let subject = Subject::new(
            w5_difc::LabelPair::public(),
            account.owner_caps.clone(),
        );
        let export_secrecy = w5_difc::Label::singleton(account.export_tag);
        // Child of the server's HTTP root span (None when driven directly
        // in tests); labeled with the union of everything exported.
        let mut trace_span = w5_obs::span_if_active(
            format!("federation.export {username}"),
            w5_obs::Layer::Net,
            &w5_obs::ObsLabel::empty(),
        );
        let mut records = Vec::new();
        let mut dict = crate::protocol::LabelDict::new();
        if let Ok(entries) = self.platform.fs.list_recursive(&subject, "/") {
            for meta in entries {
                if meta.labels.secrecy == export_secrecy {
                    if let Ok((data, _)) = self.platform.fs.read(&subject, &meta.path) {
                        if let Some(s) = trace_span.as_mut() {
                            s.add_secrecy(meta.labels.secrecy.to_obs());
                        }
                        let mut rec = ExportRecord::new(&meta.path, meta.version, &data);
                        rec.label_ref = Some(dict.label_ref(&meta.labels));
                        records.push(rec);
                    }
                }
            }
        }
        drop(trace_span);
        let batch = ExportBatch {
            user: username.clone(),
            provider: self.platform.name.clone(),
            records,
            labels_hex: dict.into_entries(),
        };
        match serde_json::to_string(&batch) {
            Ok(json) => Response::json(json),
            Err(_) => Response::error(Status::INTERNAL_ERROR, "serialization failed"),
        }
    }
}

impl Handler for FederationService {
    fn handle(&self, request: Request, _peer: SocketAddr) -> Response {
        match (request.method, request.path.as_str()) {
            (Method::Get, "/federation/export") => self.export(&request),
            _ => Response::error(Status::NOT_FOUND, "no such federation route"),
        }
    }
}

/// Convenience: record a user's opt-in grant the way the gateway would.
pub fn opt_in(platform: &Platform, user: w5_platform::UserId) {
    platform.policies.grant_declassifier(
        user,
        FEDERATION_DECLASSIFIER,
        GrantScope::App("w5/federation".into()),
    );
}
