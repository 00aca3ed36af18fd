//! # dfg-serve — the multi-tenant derived-field service
//!
//! Promotes the engine from a library into a long-lived server: many
//! concurrent clients connect over a local TCP socket, speak a
//! line-delimited JSON protocol whose replies carry fields as binary
//! frames ([`protocol`]), and are multiplexed onto
//! per-tenant [`dfg_core::Session`]s held in one
//! [`dfg_core::SessionRegistry`]. The serving layer adds what a library
//! cannot: admission control (a bounded queue with typed `overloaded`
//! rejections), per-tenant device-memory quotas riding the existing pool
//! accounting, request **coalescing** (structurally identical requests in
//! a batch window share one compiled kernel and one execution across
//! tenants), and graceful degradation through the engine's
//! [`dfg_core::RecoveryPolicy`].
//!
//! The operator-facing reference — protocol grammar, tenancy and quota
//! model, coalescing rules, overload behavior — is `docs/SERVING.md`; its
//! examples compile as doctests of this crate. Start here:
//!
//! ```
//! use dfg_serve::{Client, ExecStrategy, ServeConfig, Server};
//!
//! // In production: `dfgc serve --addr 127.0.0.1:7117`.
//! let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
//! let addr = server.local_addr().to_string();
//!
//! // Two tenants, one connection each.
//! let mut a = Client::connect(&addr).unwrap();
//! let mut b = Client::connect(&addr).unwrap();
//! let ra = a.derive("a", "m = u*v", [8, 8, 8], ExecStrategy::Fusion, true).unwrap();
//! let rb = b.derive("b", "m = u*v", [8, 8, 8], ExecStrategy::Fusion, true).unwrap();
//! assert_eq!(ra.data_bits, rb.data_bits, "same request, bit-identical reply");
//!
//! a.shutdown().unwrap();
//! server.join().unwrap();
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod faulty;
pub mod protocol;
pub mod server;

pub use client::{verify_payload, Client, ClientError, RetryPolicy};
pub use faulty::FaultyStream;
pub use protocol::{
    DeriveReply, DeriveRequest, ExecStrategy, RejectKind, Request, Response, ServerCounters,
};
pub use server::{ServeConfig, Server};

// Compile the Rust examples in the serving architecture document as
// doctests, so `docs/SERVING.md` cannot drift from the real API.
#[doc = include_str!("../../../docs/SERVING.md")]
mod _serving_doc {}
