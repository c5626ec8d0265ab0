//! Asynchronous multi-tenant network front-end for the MnnFast serving
//! plane.
//!
//! MnnFast (ISCA 2019) optimizes the *compute* side of memory-augmented
//! inference; a deployment still needs a front door. This crate puts the
//! serving pool behind a TCP protocol without giving up the paper's
//! throughput story: asks arriving on different connections — even for
//! different tenants — land in the [`mnn_serve::SessionPool`]'s
//! coalescing queues, so the embedding and output layers run over
//! batches shaped by *aggregate* network traffic, not per-connection
//! trickles.
//!
//! The pieces:
//!
//! - `proto` — the length-prefixed, CRC-guarded binary protocol
//!   (shared envelope in `mnn-wire`, same idiom as the distributed
//!   plane's RPC but under its own magic);
//! - [`NetServer`] — non-blocking connection threads parked in POSIX
//!   `poll(2)` (so the server builds on unix only), and a scheduler
//!   thread that owns the pool. Authentication is by tenant token;
//!   overload answers a typed [`NetFrame::Overloaded`] with a
//!   retry-after hint instead of dropping the connection;
//! - [`NetClient`] — a blocking client with strict and pipelined calls.
//!
//! The library reads no environment: a server is a function of its
//! [`ServerConfig`] and [`mnn_serve::SessionConfig`]. The `mnn-serve`
//! binary resolves flags and `MNNFAST_*` variables into both.
//!
//! Answers served over loopback are bitwise-identical to in-process
//! [`mnn_serve::Session::ask`]: tokenization, budgets, and batched
//! dispatch are the same code, and f32 probabilities cross the wire by
//! bit pattern, never reformatted.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod client;
mod error;
mod poll;
mod proto;
mod server;

pub use client::{ClientAnswer, NetClient, Response};
pub use error::{NetError, NetErrorCode};
pub use proto::{
    read_frame, write_frame, NetFrame, NetStatsWire, MAGIC, MAX_CLIENT_PAYLOAD, NO_REQUEST, VERSION,
};
pub use server::{NetServer, ServerConfig, TenantAuth};
