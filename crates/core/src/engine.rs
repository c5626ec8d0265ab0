//! The column-based inference engine (paper Fig 5(b)).
//!
//! `M_IN`/`M_OUT` are walked in row chunks. Per chunk the engine computes
//! the inner products `x_i = u · m_i^IN`, exponentiates, and immediately
//! folds each entry into a softmax accumulator (lazy or online) together
//! with its `m_i^OUT` row — optionally skipping the `ed`-wide accumulation
//! when the attention weight is below the zero-skip threshold. A single
//! division pass at the very end produces the response vector `o`.
//!
//! This module holds the per-chunk step (one chunk on either memory plane)
//! and the numeric guards. The one pass that drives them — for one question
//! or many, inline or over worker threads — is [`crate::parallel`]'s, over
//! the per-worker arenas of [`crate::batch`], entered through
//! [`crate::PlanExecutor`].

use crate::exec::{Phase, Trace};
use crate::stats::InferenceStats;
use mnn_tensor::softmax::{LazyAccumulator, OnlineSoftmax};
use mnn_tensor::{kernels, ShapeError};
use std::error::Error;
use std::fmt;
use std::time::Duration;

/// Errors reported by the engine variants.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The engine configuration failed validation.
    Config(String),
    /// Operand shapes disagree.
    Shape(ShapeError),
    /// `M_IN` and `M_OUT` have different shapes.
    MemoryMismatch {
        /// `M_IN` shape.
        m_in: (usize, usize),
        /// `M_OUT` shape.
        m_out: (usize, usize),
    },
    /// The pass overran its [`crate::Budget`] deadline and was abandoned at
    /// a chunk boundary.
    DeadlineExceeded {
        /// The time limit that was configured on the budget.
        budget: Duration,
    },
    /// The pass's [`crate::CancelToken`] was tripped.
    Cancelled,
    /// A non-finite value (NaN/∞) was detected in the softmax accumulator.
    ///
    /// This is the runtime guard for the fused fast-exp clamp contract: a
    /// poisoned logit turns the lazy-softmax denominator non-finite, which
    /// every variant checks at merge time, so garbage never silently
    /// propagates into an answer. The serving layer reacts by retrying once
    /// on its safe path (the same fused kernels with the running-max
    /// online softmax).
    NumericFault {
        /// Where the non-finite value was caught (`"chunk merge"` or
        /// `"normalize"`).
        stage: &'static str,
    },
    /// A chunk kernel panicked mid-pass.
    ///
    /// Every lane of a pass — the caller's own share included — runs under
    /// `catch_unwind`, so one poisoned chunk kernel cannot take down the
    /// serving process at any thread count or batch size. The questions
    /// the panicking lane owned carry this error (every question on a
    /// chunk split, the lane's own range on a question split), peers of a
    /// chunk split stop at their next chunk boundary, and the serving layer
    /// degrades through the same retry ladder as
    /// [`EngineError::NumericFault`].
    WorkerPanicked,
    /// The top-K candidate index declined to answer this pass.
    ///
    /// Not a failure: the sparse path refuses to serve an approximate
    /// answer it cannot stand behind — the index is empty, `topk` covers
    /// the whole memory anyway, or the probe's confidence margin collapsed
    /// (centroid-score ties make the cluster cut arbitrary). The serving
    /// layer reacts by rerunning the question through exact attention,
    /// one rung down the degradation ladder.
    IndexDeclined {
        /// Why the index stepped aside (static, log-friendly).
        reason: &'static str,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            EngineError::Shape(e) => write!(f, "{e}"),
            EngineError::MemoryMismatch { m_in, m_out } => write!(
                f,
                "memory shape mismatch: M_IN is {}x{}, M_OUT is {}x{}",
                m_in.0, m_in.1, m_out.0, m_out.1
            ),
            EngineError::DeadlineExceeded { budget } => {
                write!(f, "deadline exceeded: budget was {budget:?}")
            }
            EngineError::Cancelled => write!(f, "request cancelled"),
            EngineError::NumericFault { stage } => {
                write!(f, "numeric fault: non-finite value detected at {stage}")
            }
            EngineError::WorkerPanicked => {
                write!(f, "scale-out worker panicked mid-chunk; pass abandoned")
            }
            EngineError::IndexDeclined { reason } => {
                write!(f, "top-K index declined: {reason}; use exact attention")
            }
        }
    }
}

impl Error for EngineError {}

impl From<ShapeError> for EngineError {
    fn from(e: ShapeError) -> Self {
        EngineError::Shape(e)
    }
}

/// Result of a column-based forward pass.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnOutput {
    /// The response vector `o` (length `ed`).
    pub o: Vec<f32>,
    /// The softmax denominator that was divided out (lazy mode: `Σ e^{x_j}`;
    /// online mode: `Σ e^{x_j - max}`).
    pub denominator: f32,
    /// Work/traffic counters for this pass.
    pub stats: InferenceStats,
}

/// Borrowing softmax accumulator abstracting over the two formulations;
/// the accumulators themselves live in a [`Scratch`] and are reused.
#[derive(Debug)]
pub(crate) enum AccumMut<'a> {
    Lazy(&'a mut LazyAccumulator),
    Online(&'a mut OnlineSoftmax),
}

impl AccumMut<'_> {
    /// Fused single-pass chunk accumulate: inner products, exponentiation
    /// and weighted accumulation in one traversal, delegating to the
    /// accumulators' fused kernels
    /// ([`LazyAccumulator::accumulate_chunk`] /
    /// [`OnlineSoftmax::accumulate_chunk`]). `raw_threshold` compares
    /// against `e^{logit}` (lazy) or the relative weight `e^{logit - max}`
    /// (online). Returns the number of skipped rows.
    pub(crate) fn accumulate_chunk(
        &mut self,
        in_flat: &[f32],
        out_flat: &[f32],
        n: usize,
        u: &[f32],
        raw_threshold: Option<f32>,
    ) -> u64 {
        match self {
            AccumMut::Lazy(acc) => acc.accumulate_chunk(in_flat, out_flat, n, u, raw_threshold),
            AccumMut::Online(acc) => acc.accumulate_chunk(in_flat, out_flat, n, u, raw_threshold),
        }
    }

    /// Fused single-pass chunk accumulate over *quantized* operands,
    /// delegating to the accumulators' int8 fused kernels
    /// ([`LazyAccumulator::accumulate_chunk_i8`] /
    /// [`OnlineSoftmax::accumulate_chunk_i8`]). Returns the number of
    /// skipped rows.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn accumulate_chunk_i8(
        &mut self,
        in_q: &[i8],
        in_scales: &[f32],
        out_q: &[i8],
        out_scales: &[f32],
        n: usize,
        uq: &[i8],
        u_scale: f32,
        raw_threshold: Option<f32>,
    ) -> u64 {
        match self {
            AccumMut::Lazy(acc) => acc.accumulate_chunk_i8(
                in_q,
                in_scales,
                out_q,
                out_scales,
                n,
                uq,
                u_scale,
                raw_threshold,
            ),
            AccumMut::Online(acc) => acc.accumulate_chunk_i8(
                in_q,
                in_scales,
                out_q,
                out_scales,
                n,
                uq,
                u_scale,
                raw_threshold,
            ),
        }
    }

    /// Resets to an empty accumulator of width `ed`.
    pub(crate) fn reset(&mut self, ed: usize) {
        match self {
            AccumMut::Lazy(acc) => acc.reset(ed),
            AccumMut::Online(acc) => acc.reset(ed),
        }
    }
}

/// One chunk's rows of both memories, on whichever plane the pass reads.
/// Built once per chunk ([`crate::MemView::chunk`]) and matched once per
/// chunk in [`process_chunk`] — never per row.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ChunkOps<'a> {
    F32 {
        m_in: &'a [f32],
        m_out: &'a [f32],
    },
    Int8 {
        m_in: &'a [i8],
        in_scales: &'a [f32],
        m_out: &'a [i8],
        out_scales: &'a [f32],
    },
}

/// The query as the chunk kernels read it: the f32 state, plus — on the
/// int8 plane, where the kernels only ever see i8 operands — its codes and
/// scale, quantized once per pass (`uq` is empty on the f32 plane).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Query<'a> {
    pub(crate) u: &'a [f32],
    pub(crate) uq: &'a [i8],
    pub(crate) scale: f32,
}

/// One chunk into `acc`, on whichever plane `ops` carries: the one
/// per-chunk dispatch onto the f32 / int8 fused chunk kernels, charged by
/// [`charge_chunk`] and traced as [`Phase::FusedChunk`]. Fusion removes the
/// chunk-wide logits intermediate: only an 8-row logit block plus the
/// accumulator row stay live. The int8 plane charges `ed + 4` bytes per row
/// touched — the codes plus the f32 scale — which is where the ~4x
/// bandwidth saving shows up in [`InferenceStats::memory_bytes`].
///
/// # Panics
///
/// Panics if the slices disagree with `n` and the query's width.
pub(crate) fn process_chunk(
    ops: ChunkOps<'_>,
    n: usize,
    query: Query<'_>,
    raw_threshold: Option<f32>,
    acc: &mut AccumMut<'_>,
    stats: &mut InferenceStats,
    trace: &mut Trace,
) {
    let ed = query.u.len();
    let t0 = trace.begin();
    let (skipped, row_bytes) = match ops {
        ChunkOps::F32 { m_in, m_out } => {
            assert_eq!(m_out.len(), n * ed, "process_chunk: bad out chunk");
            let skipped = acc.accumulate_chunk(m_in, m_out, n, query.u, raw_threshold);
            (skipped, ed * 4)
        }
        ChunkOps::Int8 {
            m_in,
            in_scales,
            m_out,
            out_scales,
        } => {
            assert_eq!(m_out.len(), n * ed, "process_chunk: bad out chunk");
            let skipped = acc.accumulate_chunk_i8(
                m_in,
                in_scales,
                m_out,
                out_scales,
                n,
                query.uq,
                query.scale,
                raw_threshold,
            );
            (skipped, ed + 4)
        }
    };
    trace.record(Phase::FusedChunk, t0, n as u64);
    trace.bump(Phase::Skip, skipped);
    charge_chunk(stats, n, ed, skipped, row_bytes);
    stats.intermediate_bytes = stats.intermediate_bytes.max((8 * 4 + ed * 4) as u64);
}

/// Charges one chunk of `n` rows, `skipped` of them zero-skipped, to a
/// question's counters: its inner products, one exponential per row, the
/// weighted sums it kept, and `row_bytes` of traffic per `M_IN` row read
/// and per `M_OUT` row accumulated. The one accounting rule of every chunk
/// kernel — single-question and tiled count the same work the same way,
/// so a question's counters do not depend on the kernel or the batch.
pub(crate) fn charge_chunk(
    stats: &mut InferenceStats,
    n: usize,
    ed: usize,
    skipped: u64,
    row_bytes: usize,
) {
    let kept = n as u64 - skipped;
    stats.flops += kernels::gemv_flops(n, ed) + n as u64 + kept * 2 * ed as u64;
    stats.ws_flops += kept * 2 * ed as u64;
    stats.flops_skipped += skipped * 2 * ed as u64;
    stats.rows_total += n as u64;
    stats.rows_skipped += skipped;
    stats.memory_bytes += (n * row_bytes) as u64 + kept * row_bytes as u64;
    stats.chunks += 1;
}

/// Merge-time numeric guard shared by every walk: a poisoned
/// logit (NaN, or an overflowed exponent) always drives the softmax
/// denominator non-finite, so one scalar check per merge catches it.
#[inline]
pub(crate) fn check_denom(denom: f32, stage: &'static str) -> Result<(), EngineError> {
    if denom.is_finite() {
        Ok(())
    } else {
        Err(EngineError::NumericFault { stage })
    }
}

/// Final-output numeric guard: `O(ed)` scan after the single lazy division.
/// Catches faults that leave the denominator finite (e.g. a NaN confined to
/// an `M_OUT` row's weighted sum).
#[inline]
pub(crate) fn check_output(o: &[f32]) -> Result<(), EngineError> {
    if o.iter().all(|v| v.is_finite()) {
        Ok(())
    } else {
        Err(EngineError::NumericFault { stage: "normalize" })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use crate::config::{MnnFastConfig, SkipPolicy, SoftmaxMode};
    use crate::exec::{EngineKind, ExecPlan, MemView, PlanExecutor, Route, Scratch};
    use crate::segment::SegmentPlan;
    use mnn_tensor::{assert_slice_approx_eq, softmax, Matrix};

    fn reference_forward(m_in: &Matrix, m_out: &Matrix, u: &[f32]) -> Vec<f32> {
        let mut p = vec![0.0f32; m_in.rows()];
        kernels::gemv(m_in, u, &mut p).unwrap();
        softmax::softmax_in_place(&mut p);
        let mut o = vec![0.0f32; m_out.cols()];
        kernels::gevm(&p, m_out, &mut o).unwrap();
        o
    }

    fn test_memories(ns: usize, ed: usize) -> (Matrix, Matrix, Vec<f32>) {
        let m_in = Matrix::from_fn(ns, ed, |r, c| ((r * 13 + c * 7) as f32 * 0.37).sin() * 0.8);
        let m_out = Matrix::from_fn(ns, ed, |r, c| ((r * 5 + c * 11) as f32 * 0.21).cos() * 0.6);
        let u: Vec<f32> = (0..ed).map(|i| (i as f32 * 0.3).sin()).collect();
        (m_in, m_out, u)
    }

    /// The inline walk: the plan pinned to [`EngineKind::Column`].
    fn column(config: MnnFastConfig) -> PlanExecutor {
        ExecPlan::new(config)
            .with_kind(EngineKind::Column)
            .executor()
    }

    fn forward_with(
        config: MnnFastConfig,
        m_in: &Matrix,
        m_out: &Matrix,
        rows: usize,
        u: &[f32],
        scratch: &mut Scratch,
        trace: &mut Trace,
    ) -> Result<ColumnOutput, EngineError> {
        column(config).forward(
            MemView::F32 { m_in, m_out },
            Route::Plan(&SegmentPlan::unsegmented(rows)),
            u,
            scratch,
            trace,
            &Budget::unlimited(),
        )
    }

    fn forward_prefix(
        config: MnnFastConfig,
        m_in: &Matrix,
        m_out: &Matrix,
        rows: usize,
        u: &[f32],
    ) -> Result<ColumnOutput, EngineError> {
        let mut scratch = Scratch::new();
        let mut trace = Trace::disabled();
        forward_with(config, m_in, m_out, rows, u, &mut scratch, &mut trace)
    }

    /// One inline pass over every row with a fresh scratch.
    fn forward(
        config: MnnFastConfig,
        m_in: &Matrix,
        m_out: &Matrix,
        u: &[f32],
    ) -> Result<ColumnOutput, EngineError> {
        forward_prefix(config, m_in, m_out, m_in.rows(), u)
    }

    #[test]
    fn column_matches_baseline_all_chunk_sizes() {
        let (m_in, m_out, u) = test_memories(97, 12);
        let expect = reference_forward(&m_in, &m_out, &u);
        for chunk in [1usize, 7, 16, 97, 200] {
            let config = MnnFastConfig::new(chunk);
            let out = forward(config, &m_in, &m_out, &u).unwrap();
            assert_slice_approx_eq(&out.o, &expect, 1e-4);
        }
    }

    #[test]
    fn online_mode_matches_baseline() {
        let (m_in, m_out, u) = test_memories(64, 8);
        let expect = reference_forward(&m_in, &m_out, &u);
        let config = MnnFastConfig::new(10).with_softmax(SoftmaxMode::Online);
        let out = forward(config, &m_in, &m_out, &u).unwrap();
        assert_slice_approx_eq(&out.o, &expect, 1e-4);
    }

    #[test]
    fn zero_threshold_skips_nothing() {
        let (m_in, m_out, u) = test_memories(50, 6);
        let config = MnnFastConfig::new(8).with_skip(SkipPolicy::Probability(0.0));
        let out = forward(config, &m_in, &m_out, &u).unwrap();
        assert_eq!(out.stats.rows_skipped, 0);
        let expect = reference_forward(&m_in, &m_out, &u);
        assert_slice_approx_eq(&out.o, &expect, 1e-4);
    }

    #[test]
    fn probability_skip_matches_oracle() {
        // Build memories with one dominant row so probabilities are spiky.
        let ed = 6;
        let ns = 40;
        let mut m_in = Matrix::from_fn(ns, ed, |r, c| ((r + c) as f32 * 0.1).sin() * 0.2);
        for v in m_in.row_mut(17) {
            *v = 1.0; // strongly aligned with u below
        }
        let m_out = Matrix::from_fn(ns, ed, |r, c| (r as f32 - c as f32) * 0.05);
        let u = vec![1.0f32; ed];

        let th = 0.05f32;
        let config = MnnFastConfig::new(8).with_skip(SkipPolicy::Probability(th));
        let out = forward(config, &m_in, &m_out, &u).unwrap();

        // Oracle: compute true probabilities, count those under threshold.
        let mut p = vec![0.0f32; ns];
        kernels::gemv(&m_in, &u, &mut p).unwrap();
        softmax::softmax_in_place(&mut p);
        let expected_skipped = p.iter().filter(|&&x| x < th).count() as u64;
        assert_eq!(out.stats.rows_skipped, expected_skipped);
        assert!(out.stats.rows_skipped > 0, "test must exercise skipping");

        // The output must equal an oracle that applies the same skipping:
        // weighted sum over kept rows, divided by the FULL denominator.
        let mut oracle = vec![0.0f32; ed];
        for (i, &pi) in p.iter().enumerate() {
            if pi >= th {
                kernels::axpy(pi, m_out.row(i), &mut oracle);
            }
        }
        assert_slice_approx_eq(&out.o, &oracle, 1e-3);
    }

    #[test]
    fn raw_weight_skip_in_lazy_mode() {
        let (m_in, m_out, u) = test_memories(30, 4);
        // Threshold 1.0 skips all rows with negative logits.
        let config = MnnFastConfig::new(5).with_skip(SkipPolicy::RawWeight(1.0));
        let out = forward(config, &m_in, &m_out, &u).unwrap();
        let mut logits = vec![0.0f32; 30];
        kernels::gemv(&m_in, &u, &mut logits).unwrap();
        let expect_skipped = logits.iter().filter(|&&x| x.exp() < 1.0).count() as u64;
        assert_eq!(out.stats.rows_skipped, expect_skipped);
    }

    #[test]
    fn stats_account_for_work() {
        let (m_in, m_out, u) = test_memories(24, 8);
        let config = MnnFastConfig::new(8);
        let out = forward(config, &m_in, &m_out, &u).unwrap();
        let s = out.stats;
        assert_eq!(s.rows_total, 24);
        assert_eq!(s.chunks, 3);
        assert_eq!(s.divisions, 8, "divisions ∝ ed, not ns");
        assert_eq!(s.ws_flops, 2 * 24 * 8);
        // gemv + exp + ws + final division
        assert_eq!(s.flops, 2 * 24 * 8 + 24 + 2 * 24 * 8 + 8);
        assert_eq!(s.memory_bytes, (24 * 8 * 4 + 24 * 8 * 4) as u64);
        // Intermediates are chunk-sized, far below ns*4*3.
        assert!(s.intermediate_bytes <= (8 * 4 + 8 * 4) as u64);
    }

    #[test]
    fn skipping_reduces_memory_traffic() {
        let (m_in, m_out, u) = test_memories(60, 8);
        let none = forward(MnnFastConfig::new(10), &m_in, &m_out, &u).unwrap();
        let skip = forward(
            MnnFastConfig::new(10).with_skip(SkipPolicy::Probability(0.02)),
            &m_in,
            &m_out,
            &u,
        )
        .unwrap();
        assert!(skip.stats.rows_skipped > 0);
        // Two-pass probability mode re-reads M_IN, but saves M_OUT rows.
        let m_out_bytes_none = none.stats.memory_bytes - 60 * 8 * 4;
        let m_in_pass_bytes = 60 * 8 * 4;
        let m_out_bytes_skip = skip.stats.memory_bytes - 2 * m_in_pass_bytes;
        assert!(m_out_bytes_skip < m_out_bytes_none);
    }

    #[test]
    fn shape_errors_are_reported() {
        let (m_in, m_out, u) = test_memories(10, 4);
        let config = MnnFastConfig::new(4);
        let bad_u = vec![0.0f32; 5];
        assert!(matches!(
            forward(config, &m_in, &m_out, &bad_u),
            Err(EngineError::Shape(_))
        ));
        let m_out_bad = Matrix::zeros(11, 4);
        assert!(matches!(
            forward(config, &m_in, &m_out_bad, &u),
            Err(EngineError::MemoryMismatch { .. })
        ));
        let bad_cfg = MnnFastConfig::new(0);
        assert!(matches!(
            forward(bad_cfg, &m_in, &m_out, &u),
            Err(EngineError::Config(_))
        ));
    }

    #[test]
    fn forward_prefix_equals_forward_on_truncated_memories() {
        let (m_in, m_out, u) = test_memories(50, 6);
        for rows in [0usize, 1, 17, 50] {
            let config = MnnFastConfig::new(8);
            let prefix = forward_prefix(config, &m_in, &m_out, rows, &u).unwrap();
            // Reference: physically truncated matrices.
            if rows > 0 {
                let ti = Matrix::from_flat(rows, 6, m_in.rows_slice(0, rows)).unwrap();
                let to = Matrix::from_flat(rows, 6, m_out.rows_slice(0, rows)).unwrap();
                let full = forward(config, &ti, &to, &u).unwrap();
                assert_eq!(prefix.o, full.o, "rows {rows}");
                assert_eq!(prefix.stats.rows_total, rows as u64);
            } else {
                assert_eq!(prefix.o, vec![0.0; 6]);
            }
        }
        // Out-of-range prefix errors.
        let config = MnnFastConfig::new(8);
        assert!(matches!(
            forward_prefix(config, &m_in, &m_out, 51, &u),
            Err(EngineError::Shape(_))
        ));
    }

    #[test]
    fn forward_prefix_with_probability_skip() {
        let (m_in, m_out, u) = test_memories(60, 4);
        let config = MnnFastConfig::new(7).with_skip(SkipPolicy::Probability(0.02));
        let rows = 33;
        let prefix = forward_prefix(config, &m_in, &m_out, rows, &u).unwrap();
        let ti = Matrix::from_flat(rows, 4, m_in.rows_slice(0, rows)).unwrap();
        let to = Matrix::from_flat(rows, 4, m_out.rows_slice(0, rows)).unwrap();
        let full = forward(config, &ti, &to, &u).unwrap();
        assert_eq!(prefix.o, full.o);
        assert_eq!(prefix.stats.rows_skipped, full.stats.rows_skipped);
    }

    #[test]
    fn scratch_reuse_matches_fresh_scratch() {
        let (m_in, m_out, u) = test_memories(77, 8);
        let config = MnnFastConfig::new(13).with_skip(SkipPolicy::Probability(0.01));
        let plain = forward(config, &m_in, &m_out, &u).unwrap();
        let mut scratch = Scratch::new();
        let mut trace = Trace::disabled();
        for _ in 0..3 {
            let reused = forward_with(
                config,
                &m_in,
                &m_out,
                m_in.rows(),
                &u,
                &mut scratch,
                &mut trace,
            )
            .unwrap();
            assert_eq!(reused.o, plain.o);
            assert_eq!(reused.stats.rows_skipped, plain.stats.rows_skipped);
            scratch.recycle(reused.o);
        }
    }

    #[test]
    fn trace_attributes_phases() {
        let (m_in, m_out, u) = test_memories(90, 8);
        // All per-chunk work lands in FusedChunk.
        let config = MnnFastConfig::new(16).with_skip(SkipPolicy::Probability(0.01));
        let mut scratch = Scratch::new();
        let mut trace = Trace::enabled();
        let out = forward_with(
            config,
            &m_in,
            &m_out,
            m_in.rows(),
            &u,
            &mut scratch,
            &mut trace,
        )
        .unwrap();
        assert_eq!(trace.count(Phase::FusedChunk), 90);
        assert_eq!(trace.count(Phase::Skip), out.stats.rows_skipped);
        assert_eq!(trace.count(Phase::Divide), 8);
        assert!(trace.nanos(Phase::FusedChunk) > 0);
        assert!(
            trace.nanos(Phase::Skip) > 0,
            "probability pre-pass is timed"
        );
        assert!(trace.total_nanos() > 0);
    }

    #[test]
    fn error_display_is_informative() {
        let e = EngineError::MemoryMismatch {
            m_in: (2, 3),
            m_out: (4, 3),
        };
        assert!(e.to_string().contains("2x3"));
        let c = EngineError::Config("chunk_size must be positive".into());
        assert!(c.to_string().contains("chunk_size"));
    }
}
