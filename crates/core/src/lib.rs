//! MnnFast: the paper's three optimizations for large-scale memory networks.
//!
//! Given the embedded memories `M_IN`/`M_OUT` (built by `mnn-memnn`) and a
//! question state `u`, this crate computes the response vector
//! `o = softmax(u·M_INᵀ)·M_OUT` with:
//!
//! 1. **Column-based algorithm** ([`engine`]) — process the memories in
//!    row chunks, keep only chunk-sized intermediates, and defer the softmax
//!    division to the very end (*lazy softmax*, Equation 4 of the paper).
//! 2. **Zero-skipping** ([`SkipPolicy`]) — bypass the `ed`-wide
//!    multiply-accumulate for memory entries whose attention weight falls
//!    below a threshold.
//! 3. **Scale-out** ([`parallel`]) — partition chunks (or, for a batch of
//!    questions, question ranges) across worker threads and merge the
//!    partial accumulators, the paper's multi-unit scaling argument
//!    (Section 3.1, last paragraph).
//!
//! Every pass goes through one entry, [`PlanExecutor`] ([`exec`]): callers
//! pick a walk declaratively with an [`ExecPlan`] (or let
//! [`EngineKind::Auto`] choose inline or scale-out from the rows walked and
//! the thread count), reuse buffers across questions through a [`Scratch`]
//! arena, and get per-phase wall-time breakdowns via [`Trace`] — zero-cost
//! when disabled. A plan pinned to [`EngineKind::Column`] walks inline on
//! the caller's thread: the reference every parity suite compares the other
//! walks against.
//!
//! The paper's *streaming* (prefetch the next chunk while the current one
//! is computed) and its embedding cache operate on the memory hierarchy
//! rather than the dataflow; they live in `mnn-memsim` (simulated cache,
//! `Variant::ColumnStreaming`) and `mnn-accel` (FPGA pipeline model). A
//! native staged walk was measured and removed — see EXPERIMENTS.md, "Why
//! there is no native staged walk".
//!
//! # Example
//!
//! ```
//! use mnn_tensor::Matrix;
//! use mnnfast::{Budget, EngineKind, ExecPlan, MnnFastConfig, Route, Scratch, SegmentPlan, Trace};
//!
//! let m_in = Matrix::from_fn(100, 8, |r, c| ((r + c) as f32).sin() * 0.1);
//! let m_out = Matrix::from_fn(100, 8, |r, c| ((r * c) as f32).cos() * 0.1);
//! let u = vec![0.05f32; 8];
//!
//! let exec = ExecPlan::new(MnnFastConfig::new(16))
//!     .with_kind(EngineKind::Column)
//!     .executor();
//! // A serving loop keeps one scratch and reuses it for every question.
//! let mut scratch = Scratch::new();
//! let result = exec
//!     .forward(
//!         (&m_in, &m_out).into(),
//!         Route::Plan(&SegmentPlan::unsegmented(m_in.rows())),
//!         &u,
//!         &mut scratch,
//!         &mut Trace::disabled(),
//!         &Budget::unlimited(),
//!     )
//!     .unwrap();
//! assert_eq!(result.o.len(), 8);
//! // All 100 rows were processed; none skipped without a threshold.
//! assert_eq!(result.stats.rows_total, 100);
//! assert_eq!(result.stats.rows_skipped, 0);
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod config;
mod stats;

pub mod batch;
pub mod budget;
pub mod engine;
pub mod exec;
pub mod hops;
pub mod index;
pub mod parallel;
pub mod partials;
pub mod segment;
pub mod store;

pub use budget::{Budget, CancelToken};
pub use config::{MnnFastConfig, Precision, SkipPolicy, SoftmaxMode};
pub use engine::{ColumnOutput, EngineError};
pub use exec::{
    EngineKind, ExecPlan, LatencyHistogram, MemView, Phase, PhaseHistograms, PlanExecutor, Route,
    Scratch, Trace,
};
pub use hops::{hop_chain, multi_hop, multi_hop_batch, HopsOutput};
#[doc(hidden)]
pub use hops::{
    multi_hop_batch_segmented_budgeted, multi_hop_quant_batch_segmented_budgeted,
    multi_hop_quant_segmented_budgeted, multi_hop_quant_topk_segmented_budgeted,
    multi_hop_segmented_budgeted, multi_hop_topk_segmented_budgeted,
};
pub use index::{ClusterIndex, ProbeResult};
pub use partials::{forward_chunk_partials, PartialFold};
pub use segment::{Segment, SegmentMap, SegmentPlan};
pub use stats::InferenceStats;
pub use store::SegmentedStore;
