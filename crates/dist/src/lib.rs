//! Fault-tolerant coordinator/worker segment serving for the MnnFast
//! reproduction.
//!
//! The paper's segmented execution plane splits the story memory into
//! segments and merges per-chunk softmax partials; this crate stretches
//! that seam across processes. A [`WorkerServer`] owns shard-local
//! [`mnnfast::SegmentedStore`]s and answers length-prefixed, CRC-guarded
//! binary RPCs ([`frame`]); a [`Coordinator`] routes rows and questions
//! over the fleet and folds the streamed [`mnn_tensor::PartialState`]s in
//! global chunk order — so a fault-free distributed answer is **bitwise
//! identical** to the single-node segmented one.
//!
//! Robustness is the point, not an afterthought:
//!
//! - per-RPC deadlines carved from the question's [`mnnfast::Budget`],
//! - bounded retries with decorrelated-jitter backoff,
//! - shard replicas with failover across the replica chain,
//! - hedged duplicate requests against stragglers,
//! - per-worker Live → Suspect → Dead health with probe resurrection,
//! - degraded partial answers (skip dead shards, flag the output) instead
//!   of errors when the caller allows it,
//! - RPC-level fault injection ([`fault`]), armed per worker, sharing the
//!   `MNNFAST_FAULT` grammar with the kernel-level hook.
//!
//! The library reads no environment; only the `mnn-dist-worker` binary
//! reads `MNNFAST_FAULT`.
//!
//! # Example
//!
//! ```
//! use mnn_dist::{Coordinator, DistConfig, ForwardOpts, WorkerConfig, WorkerServer};
//! use mnnfast::{Budget, MnnFastConfig};
//!
//! // Two in-process workers on loopback ephemeral ports.
//! let workers: Vec<WorkerServer> = (0..2)
//!     .map(|_| WorkerServer::spawn(WorkerConfig::new(4, 2)).unwrap())
//!     .collect();
//! let addrs: Vec<_> = workers.iter().map(|w| w.addr()).collect();
//!
//! let mut coordinator =
//!     Coordinator::connect(&addrs, 4, 2, false, DistConfig::default()).unwrap();
//! for r in 0..6 {
//!     let row = vec![r as f32 * 0.1; 4];
//!     coordinator.push(&row, &row).unwrap();
//! }
//! let opts = ForwardOpts::from_config(&MnnFastConfig::new(2)).unwrap();
//! let answer = coordinator
//!     .forward(&[0.3; 4], opts, &Budget::unlimited(), true)
//!     .unwrap();
//! assert_eq!(answer.o.len(), 4);
//! assert!(!answer.degraded);
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod coordinator;
pub mod error;
pub mod fault;
pub mod frame;
pub mod worker;

pub use coordinator::{
    Coordinator, DistConfig, DistCounters, DistOutput, ForwardOpts, WorkerState,
};
pub use error::{DistError, FrameError};
pub use fault::{RpcFaultKind, RpcFaultPlan, RpcFaultState};
pub use frame::{ForwardSpec, Frame, WireStats};
pub use worker::{WorkerConfig, WorkerServer};
