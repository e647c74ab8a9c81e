//! `mvi-net` — the resilient network front door for the DeepMVI serving
//! engine: a framed-TCP server and blocking client over `std::net`, no
//! async runtime required.
//!
//! The crate exists to put a **failure domain boundary** on the wire in
//! front of [`mvi_serve`]'s in-process serving stack:
//!
//! * [`frame`] — the wire codec. Length-prefixed, CRC-32-checked frames
//!   with a version byte and a hard size cap. The one protocol version,
//!   [`frame::VERSION`], carries a tenant id on every request/reply (empty
//!   = default tenant); any other version byte is refused as
//!   [`frame::FrameError::BadVersion`]. Decoding is *total*: every
//!   byte sequence maps to either a frame or a typed [`frame::FrameError`]
//!   — malformed, truncated, bit-flipped or oversized input can never
//!   panic the peer, hang it, or make it allocate unboundedly.
//! * [`server`] — [`NetServer`]: a thread-per-connection acceptor routing
//!   by tenant id through a [`mvi_serve::ModelRegistry`]
//!   ([`NetServer::bind_registry`]; [`NetServer::bind`] is the one-model
//!   special case), with a hard connection cap (admission control),
//!   idle-connection reaping, per-request deadlines through the supervised
//!   [`mvi_serve::MicroBatcher`] the registry runs **per resident tenant**
//!   — the cross-tenant isolation boundary — and a graceful drain that
//!   answers every accepted request with a typed reply before closing.
//! * [`client`] — [`NetClient`]: a blocking client with connect/read/write
//!   timeouts, an optional tenant handle ([`NetClient::with_tenant`]), and
//!   a seeded, deterministic retry/backoff loop that retries **only**
//!   errors typed as safe to retry (load shedding, a tenant snapshot
//!   mid-load, connect refused mid-restart) and never an ambiguous
//!   in-flight write.
//!
//! Every error the server can produce crosses the wire as a typed
//! [`frame::ErrorCode`], so clients make retry decisions on contracts, not
//! string matching. See `ARCHITECTURE.md` § "Network front door & failure
//! domains" for the frame format and the full error-code table.
//!
//! # Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use mvi_net::{NetClient, NetServer, ClientConfig, ServerConfig};
//! use mvi_serve::ImputationEngine;
//! # use deepmvi::{DeepMviConfig, DeepMviModel};
//! # use mvi_data::generators::{generate_with_shape, DatasetName};
//! # use mvi_data::scenarios::Scenario;
//!
//! # let ds = generate_with_shape(DatasetName::Gas, &[2], 60, 4);
//! # let obs = Scenario::mcar(0.8).apply(&ds, 1).observed();
//! # let cfg = DeepMviConfig { max_steps: 2, ..DeepMviConfig::tiny() };
//! # let mut model = DeepMviModel::new(&cfg, &obs);
//! # model.fit(&obs);
//! let engine = Arc::new(ImputationEngine::new(model.freeze(), obs).unwrap());
//! let server = NetServer::bind("127.0.0.1:0", engine, ServerConfig::default()).unwrap();
//!
//! let mut client = NetClient::new(server.local_addr(), ClientConfig::default());
//! let values = client.query(0, 10, 20).unwrap(); // imputed window for series 0
//! assert_eq!(values.len(), 10);
//! let health = client.health().unwrap();         // fault counters over the wire
//! assert!(!health.draining);
//!
//! server.shutdown();                             // graceful drain
//! ```

#![forbid(unsafe_code)]
// Typed failure, never panic: no `unwrap`/`expect`/`panic!`-family call in
// the wire codec, server or client outside tests.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

pub mod client;
pub mod frame;
pub mod server;

pub use client::{ClientConfig, NetClient, NetError, RetryPolicy};
pub use frame::{
    ErrorCode, Frame, FrameError, HealthFrame, WireError, DEFAULT_MAX_FRAME, MAX_TENANT_LEN,
};
pub use server::{NetServer, NetStats, ServerConfig, DEFAULT_TENANT};
