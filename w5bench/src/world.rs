//! Set-up: a populated world, one session per user, and the request stream
//! in every form the entry points need. All of it is a function of
//! `--seed`; the system under test only ever sees the generated inputs.

use crate::spec::{Entry, Workload};
use bytes::Bytes;
use std::collections::BTreeSet;
use std::sync::Arc;
use w5_net::http::{buf_reader, Limits};
use w5_net::Request;
use w5_platform::{AppRequest, Platform};
use w5_sim::workload::{generate, GenRequest};
use w5_sim::{build_population, PopulationConfig, World};

/// What a request does, which decides the answer it must get.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    ViewPhoto,
    /// A `view` of someone who is not the viewer's friend: 403 under IFC,
    /// and the body must not carry the photo.
    StrangerView,
    ListPhotos,
    ListBlog,
    WritePost,
    Feed,
}

impl Class {
    pub fn is_read_only(self) -> bool {
        self != Class::WritePost
    }
}

/// One request of the stream.
pub struct Req {
    pub class: Class,
    pub gen: GenRequest,
    /// The serialised HTTP request, sent with one `write_all`.
    pub wire: Vec<u8>,
    pub expect_status: u16,
}

impl Req {
    /// Check an answer. `Err` carries what was wrong.
    pub fn check(&self, status: u16, body: &[u8], photo: &[u8]) -> Result<(), Wrong> {
        if status != self.expect_status {
            return Err(if self.expect_status == 403 && status == 200 {
                Wrong::Leak
            } else {
                Wrong::Status(status)
            });
        }
        let ok = match (self.class, status) {
            (Class::ViewPhoto | Class::StrangerView, 200) => body == photo,
            (Class::StrangerView, _) => !contains(body, photo),
            (Class::WritePost, _) => body == b"posted",
            (Class::ListPhotos | Class::ListBlog | Class::Feed, _) => {
                body.starts_with(b"<html><body><h1>") && body.ends_with(b"</body></html>")
            }
            (Class::ViewPhoto, _) => unreachable!("ViewPhoto expects 200"),
        };
        if ok {
            Ok(())
        } else {
            Err(Wrong::Body)
        }
    }

    pub fn app_request(&self, world: &World) -> AppRequest {
        let params: Vec<(&str, &str)> = self
            .gen
            .params
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        Platform::make_request(
            self.gen.method,
            self.gen.action,
            &params,
            Some(&world.accounts[self.gen.viewer]),
            Bytes::new(),
        )
    }

    /// Parse the wire bytes with the server's own parser and limits.
    pub fn net_request(&self) -> Request {
        Request::read_from(&mut buf_reader(&self.wire[..]), &Limits::default())
            .expect("own wire bytes parse")
    }
}

/// Why an answer was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wrong {
    /// 200 where 403 was due: data crossed the perimeter.
    Leak,
    Status(u16),
    Body,
    Transport,
}

fn contains(haystack: &[u8], needle: &[u8]) -> bool {
    !needle.is_empty() && haystack.windows(needle.len()).any(|w| w == needle)
}

/// Everything one round (or one peel depth) needs.
pub struct Bench {
    pub world: World,
    pub reqs: Vec<Req>,
    /// The stored bytes of every photo (all users upload the same 8x8 card).
    pub photo: Bytes,
    /// FNV-1a over the canonical form of the whole stream.
    pub digest: u64,
}

/// The population and its friendship graph are the same on every run;
/// `--seed` draws the request stream. A preferential-attachment graph of
/// 200 users has a handful of hubs whose feeds set the latency tail;
/// redrawing them per seed would put the graph's variance into every
/// comparison between seeds.
const WORLD_SEED: u64 = 42;

pub fn prepare(w: &Workload, ifc: bool, seed: u64, scale: f64) -> Bench {
    let name = format!("w5bench-{}", w.name);
    let platform: Arc<Platform> = if ifc {
        Platform::new_default(&name)
    } else {
        w5_baseline::no_ifc_platform(&name)
    };
    let world = build_population(
        platform,
        PopulationConfig {
            users: w.users,
            photos_per_user: w.photos_per_user,
            posts_per_user: w.posts_per_user,
            seed: WORLD_SEED,
            ..PopulationConfig::default()
        },
    );
    let tokens: Vec<String> = world
        .accounts
        .iter()
        .map(|a| world.platform.sessions.create(a.id))
        .collect();

    let mut friends = vec![BTreeSet::new(); w.users];
    for &(a, b) in &world.graph.edges {
        friends[a].insert(b);
        friends[b].insert(a);
    }
    let (warmup, measured) = w.counts(scale);
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let reqs = generate(&world, w.mix, warmup + measured, seed)
        .into_iter()
        .enumerate()
        .map(|(i, mut gen)| {
            let mut class = match (gen.app.as_str(), gen.action) {
                ("devA/photos", "view") => Class::ViewPhoto,
                ("devA/photos", "list") => Class::ListPhotos,
                ("devB/blog", "list") => Class::ListBlog,
                ("devB/blog", "post") => Class::WritePost,
                ("devC/social", "feed") => Class::Feed,
                other => panic!("w5_sim::workload generated an unknown request {other:?}"),
            };
            if w.stranger_every > 0 && i % w.stranger_every == w.stranger_every - 1 {
                let v = gen.viewer;
                let stranger = (1..w.users)
                    .map(|d| (v + d) % w.users)
                    .find(|s| !friends[v].contains(s))
                    .expect("someone is not a friend");
                class = Class::StrangerView;
                gen = GenRequest {
                    viewer: v,
                    app: "devA/photos".into(),
                    method: "GET",
                    action: "view",
                    params: vec![
                        ("user".into(), world.accounts[stranger].username.clone()),
                        ("name".into(), "photo0".into()),
                    ],
                };
            }
            let canonical = format!(
                "{}|{}|{}|{}|{:?}\n",
                gen.viewer, gen.app, gen.method, gen.action, gen.params
            );
            for b in canonical.bytes() {
                digest = (digest ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
            Req {
                class,
                wire: wire(&gen, &tokens[gen.viewer], w.entry == Entry::ConnClose),
                expect_status: if class == Class::StrangerView && ifc {
                    403
                } else {
                    200
                },
                gen,
            }
        })
        .collect();

    Bench {
        world,
        reqs,
        photo: w5_apps::image::Image::test_card(8, 8).encode(),
        digest,
    }
}

/// Serialise a request as a browser would: GET parameters in the query,
/// POST parameters as a form body, the session as a cookie.
fn wire(gen: &GenRequest, token: &str, close: bool) -> Vec<u8> {
    let form: String = gen
        .params
        .iter()
        .map(|(k, v)| format!("{k}={}", form_encode(v)))
        .collect::<Vec<_>>()
        .join("&");
    let (query, body) = if gen.method == "GET" && !form.is_empty() {
        (format!("?{form}"), String::new())
    } else {
        (String::new(), form)
    };
    let mut head = format!(
        "{} /app/{}/{}{query} HTTP/1.1\r\nhost: w5bench\r\ncookie: {}={token}\r\n",
        gen.method,
        gen.app,
        gen.action,
        w5_net::SESSION_COOKIE_NAME
    );
    if gen.method == "POST" {
        head.push_str(&format!(
            "content-type: application/x-www-form-urlencoded\r\ncontent-length: {}\r\n",
            body.len()
        ));
    }
    if close {
        head.push_str("connection: close\r\n");
    }
    head.push_str("\r\n");
    head.push_str(&body);
    head.into_bytes()
}

/// The benchmark's own encoder, not `w5_net::encoding`: the bytes on the
/// wire are an input and must not change when the repository's client does.
fn form_encode(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for b in value.bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'_' | b'.' => out.push(b as char),
            b' ' => out.push('+'),
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn form_encoding_round_trips_through_the_server_parser() {
        let gen = GenRequest {
            viewer: 0,
            app: "devB/blog".into(),
            method: "POST",
            action: "post",
            params: vec![
                ("title".into(), "a b&c=d".into()),
                ("body".into(), "x/y".into()),
            ],
        };
        let bytes = wire(&gen, "tok", true);
        let parsed = Request::read_from(&mut buf_reader(&bytes[..]), &Limits::default()).unwrap();
        assert_eq!(parsed.form_param("title").as_deref(), Some("a b&c=d"));
        assert_eq!(parsed.form_param("body").as_deref(), Some("x/y"));
        assert_eq!(
            parsed.cookie(w5_net::SESSION_COOKIE_NAME).as_deref(),
            Some("tok")
        );
        assert!(!parsed.keep_alive());
    }
}
