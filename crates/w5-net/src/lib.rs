//! # w5-net — the HTTP/1.1 front end
//!
//! W5's contract with the outside world (paper §2): "all of W5 should have
//! DNS and HTTP front-ends so that users can interact with a W5 application
//! with today's Web clients." This crate is that front end, written from
//! scratch on `std::net`:
//!
//! * [`http`] — request/response types and a careful, limit-enforcing
//!   HTTP/1.1 parser (request line, headers, `Content-Length` and chunked
//!   bodies, keep-alive).
//! * [`encoding`] — percent-encoding, query strings and
//!   `application/x-www-form-urlencoded` forms.
//! * [`cookie`] — cookie parsing and `Set-Cookie` serialization (the
//!   platform authenticates users from cookies, §2).
//! * [`pipeline`] — the staged request engine: bounded per-principal-class
//!   queues, a deficit-round-robin permit scheduler bounding concurrent
//!   handlers, and an [`Admission`] hook that charges kernel resource
//!   containers at the socket boundary.
//! * [`server`] — the TCP front end (a self-sizing pool of connection
//!   threads on one listener, keep-alive, graceful shutdown) over the
//!   [`Serve`] trait; [`Server`] runs the pipeline.
//! * [`client`] — a blocking client used by the experiment harnesses and by
//!   provider-to-provider federation.
//!
//! The design follows the session's networking guides: simplicity and
//! robustness over cleverness — a small number of obvious state machines,
//! explicit limits on every input (header count, line length, body size),
//! and no unbounded allocation driven by peer-controlled values. There is
//! deliberately no async runtime: each open connection has a thread of
//! its own, drawn from a pool that reuses threads across connections and
//! holds at most `max_connections + 1`, and handlers take one of a fixed
//! number of slots. That keeps the trusted computing base legible, and
//! the experiments measure platform overhead, not connection-scaling
//! limits.

#![forbid(unsafe_code)]

pub mod client;
pub mod cookie;
pub mod dns;
pub mod encoding;
pub mod http;
pub mod pipeline;
pub mod server;

/// The session cookie name the platform issues and the pipeline's
/// admission stage classifies by. Lives here so `w5-net` can classify
/// without depending on the platform crate (which depends on this one).
pub const SESSION_COOKIE_NAME: &str = "w5_session";

pub use client::HttpClient;
pub use dns::{DnsServer, Zone};
pub use cookie::{Cookie, SetCookie};
pub use http::{HttpError, Method, Request, Response, Status};
pub use pipeline::{
    Admission, ChargeDenied, ChargePoint, OpenAdmission, Pipeline, PipelineConfig,
    PipelineSnapshot, PipelineStats, PrincipalClass, Serve,
};
pub use server::{Handler, Server, ServerConfig, ServerHandle};
