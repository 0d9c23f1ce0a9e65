//! `jqi_net` — a vendored HTTP/1.1 transport for the join-query
//! inference service.
//!
//! The build environment has no crates.io access, so this crate plays
//! the role hyper/axum would: a from-scratch, dependency-free HTTP
//! stack, scoped to exactly what a loopback/intranet JSON service
//! needs and nothing more. It has three layers:
//!
//! - [`wire`] — the codec: strict incremental request parsing
//!   (`Content-Length` framing only; chunked coding answered `501`),
//!   response writing, a typed [`wire::HttpError`] taxonomy mapping every
//!   client mistake to a status code, and hard
//!   [`wire::Limits`] enforced *while* bytes arrive.
//! - [`server`] — the runtime: an accept thread and a bounded worker
//!   pool whose workers wait on a shared Linux `epoll` fd with one-shot
//!   arming themselves (see [`sys`], the crate's only `unsafe` module),
//!   so one wake-up serves one request. Idle keep-alive connections
//!   are parked in a table instead of holding threads, which is what
//!   lets a handful of workers serve ≥ 1024 concurrent sessions in the
//!   transport benchmark. A portable thread-per-connection fallback
//!   covers non-Linux hosts.
//! - [`client`] — a small blocking keep-alive client for tests,
//!   examples, and the bench driver, plus a [`client::RetryingClient`]
//!   with capped, seeded-jitter backoff that honors `Retry-After` and
//!   retries only idempotent requests.
//! - [`chaos`] — a scripted, deterministic TCP fault-injection proxy
//!   ([`chaos::ChaosProxy`]) for the integration tests and the
//!   `overload` bench phase: delay, truncation, resets, slow-loris
//!   drip, and duplicate delivery, per-connection by script index.
//!
//! The server also carries the overload-control seam: a
//! [`server::Handler`] may implement [`server::Handler::admit`] to shed
//! work with a fast `503` + `Retry-After` under pressure
//! ([`server::Pressure`]), and every request can carry a deadline
//! ([`wire::DEADLINE_HEADER`] or [`wire::Limits::default_deadline`])
//! past which the work is abandoned before it runs.
//!
//! The crate knows nothing about sessions or universes: it turns bytes
//! into [`wire::Request`]s and hands them to a [`server::Handler`]. The
//! JSON gateway living in `jqi_server::http` is one such handler.
//!
//! ```no_run
//! use jqi_net::{NetConfig, Request, Response, Server};
//! use std::sync::Arc;
//!
//! let handler = Arc::new(|_req: &Request| Response::json(200, "{\"ok\": true}".into()));
//! let server = Server::bind("127.0.0.1:0", handler, NetConfig::default()).unwrap();
//! println!("listening on {}", server.local_addr());
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod chaos;
pub mod client;
pub mod server;
#[cfg(target_os = "linux")]
pub mod sys;
pub mod wire;

pub use chaos::{ChaosProxy, ChaosScript, ChaosStats, Fault};
pub use client::{Client, RetryPolicy, RetryStats, RetryingClient};
pub use server::{Admission, Handler, NetConfig, NetStats, Pressure, Server, StatsHandle};
pub use wire::{
    ClientResponse, HttpError, Limits, Request, RequestHead, Response, DEADLINE_HEADER,
};
