//! Per-chunk partial production and global-order folding — the engine
//! seam the coordinator/worker split is built on.
//!
//! The bitwise-parity discipline of this codebase is that every walk of the
//! one pass folds *per-chunk* softmax partials into one running total in
//! global chunk-index order (f32 addition is not associative, so any other
//! association would change the answer bits). A distributed plane
//! therefore cannot ship per-worker pre-folded sums; it ships the chunk
//! partials themselves:
//!
//! - a worker runs [`forward_chunk_partials`] over its local rows and gets
//!   one serializable [`PartialState`] per chunk — each bitwise identical
//!   to the partial a single-node [`crate::PlanExecutor`] pass would have
//!   produced for that chunk, because both run the exact same per-chunk
//!   step of the one pass (a [`crate::batch`] lane's chunk step) on the
//!   same rows;
//! - the coordinator arranges every received partial in global chunk order
//!   and folds them through a [`PartialFold`], which reproduces the
//!   single-node merge loop (accumulator merge + per-merge denominator
//!   guard + final division) exactly.
//!
//! Row placement makes "local chunks are global chunks" true by
//! construction: global chunk `c` (rows `c·chunk_size ..`) lives on shard
//! `c % shards`, and rows arrive in global order, so each shard's store is
//! a concatenation of whole global chunks (plus, at most, the globally
//! last, still-filling chunk at its end). Chunking the local store with
//! the same `chunk_size` then reproduces global chunk boundaries.
//!
//! [`SkipPolicy::Probability`] is rejected here: resolving it needs a
//! denominator pre-pass over the *entire* memory, which a worker that owns
//! only its shard cannot run. `None` and `RawWeight` thresholds are
//! per-row-local and distribute freely.

use crate::budget::Budget;
use crate::config::{MnnFastConfig, SkipPolicy, SoftmaxMode};
use crate::engine::{check_denom, check_output, EngineError};
use crate::exec::{MemView, Scratch, Trace};
use crate::stats::InferenceStats;
use mnn_tensor::softmax::{LazyAccumulator, OnlineSoftmax};
use mnn_tensor::PartialState;

/// Runs the column-based chunk step of `config` over the first `rows` rows
/// of `view` (either memory plane), appending one [`PartialState`] per
/// chunk to `out` instead of folding them. Each appended partial is bitwise
/// identical to the chunk partial a single-node [`crate::PlanExecutor`]
/// pass computes for the same rows; a [`PartialFold`] fed every chunk of
/// the full memory in global order reproduces the single-node answer
/// exactly.
///
/// Returns the work counters for the pass (chunk/flop/traffic accounting
/// identical to the single-node pass; the final division is counted by
/// [`PartialFold::finish_into`], not here).
///
/// # Errors
///
/// Propagates the engine's shape/config checks, rejects
/// [`SkipPolicy::Probability`] (see the module docs), and abandons the
/// pass at a chunk boundary on budget expiry or cancellation.
#[allow(clippy::too_many_arguments)]
pub fn forward_chunk_partials(
    config: &MnnFastConfig,
    view: MemView<'_>,
    rows: usize,
    u: &[f32],
    scratch: &mut Scratch,
    trace: &mut Trace,
    budget: &Budget,
    out: &mut Vec<PartialState>,
) -> Result<InferenceStats, EngineError> {
    crate::parallel::validate(config, view, u, rows)?;
    if let SkipPolicy::Probability(_) = config.skip {
        return Err(EngineError::Config(
            "SkipPolicy::Probability needs a global denominator pre-pass and cannot \
             run on a single shard; use SkipPolicy::RawWeight or None"
                .to_string(),
        ));
    }
    let chunk = config.chunk_size;
    if scratch.lanes.is_empty() {
        scratch.lanes.push(Default::default());
    }
    let lane = &mut scratch.lanes[0];
    let quant = matches!(view, MemView::Int8 { .. });
    lane.stage(config.softmax, &[u], quant, chunk.min(rows.max(1)));
    let budgets = std::slice::from_ref(budget);
    lane.resolve_thresholds(config, view, rows, budgets);
    let mut row = 0usize;
    while row < rows {
        budget.check()?;
        let n = chunk.min(rows - row);
        out.push(lane.chunk_partial(view, row, n, trace));
        row += n;
    }
    Ok(lane.stats())
}

/// The coordinator-side running total: absorbs chunk [`PartialState`]s in
/// global chunk order and finishes with the lazy division — the exact
/// merge loop of the single-node engines, including the per-merge
/// denominator guard and the final output guard.
#[derive(Debug, Clone)]
pub struct PartialFold {
    acc: PartialState,
    absorbed: u64,
}

impl PartialFold {
    /// An empty fold of width `ed` for the given softmax mode.
    pub fn new(mode: SoftmaxMode, ed: usize) -> Self {
        PartialFold {
            acc: match mode {
                SoftmaxMode::Lazy => PartialState::Lazy(LazyAccumulator::new(ed)),
                SoftmaxMode::Online => PartialState::Online(OnlineSoftmax::new(ed)),
            },
            absorbed: 0,
        }
    }

    /// The softmax mode this fold accumulates in.
    pub fn mode(&self) -> SoftmaxMode {
        match self.acc {
            PartialState::Lazy(_) => SoftmaxMode::Lazy,
            PartialState::Online(_) => SoftmaxMode::Online,
        }
    }

    /// Output dimension.
    pub fn dim(&self) -> usize {
        self.acc.dim()
    }

    /// Number of chunk partials absorbed so far.
    pub fn absorbed(&self) -> u64 {
        self.absorbed
    }

    /// Current running denominator.
    pub fn denom(&self) -> f32 {
        self.acc.denom()
    }

    /// Folds one chunk partial into the running total
    /// ([`PartialState::merge`], the accumulators' own merge, as
    /// in-process), then runs the same per-merge denominator guard the
    /// engines run.
    ///
    /// # Errors
    ///
    /// [`EngineError::Shape`] on a mode or dimension mismatch,
    /// [`EngineError::NumericFault`] when the merged denominator goes
    /// non-finite (a poisoned chunk).
    pub fn absorb(&mut self, partial: &PartialState) -> Result<(), EngineError> {
        self.acc.merge(partial)?;
        self.absorbed += 1;
        check_denom(self.denom(), "chunk merge")
    }

    /// The final lazy division: writes the normalized response into `out`
    /// and returns the denominator that was divided out. Charges the `ed`
    /// divisions to `stats`, mirroring the single-node engines' accounting.
    ///
    /// # Errors
    ///
    /// [`EngineError::NumericFault`] if the normalized output is
    /// non-finite (same guard as the single-node engines).
    pub fn finish_into(
        &self,
        out: &mut Vec<f32>,
        stats: &mut InferenceStats,
    ) -> Result<f32, EngineError> {
        match &self.acc {
            PartialState::Lazy(a) => a.finish_into(out),
            PartialState::Online(a) => a.finish_into(out),
        }
        check_output(out)?;
        let ed = self.dim() as u64;
        stats.divisions += ed;
        stats.flops += ed;
        Ok(self.denom())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{EngineKind, ExecPlan, Route};
    use crate::segment::SegmentPlan;
    use mnn_tensor::{Matrix, QuantMatrix};

    /// The single-node answer: the inline walk over the first `rows` rows.
    fn reference(
        config: &MnnFastConfig,
        view: MemView<'_>,
        rows: usize,
        u: &[f32],
        scratch: &mut Scratch,
    ) -> crate::ColumnOutput {
        let exec = ExecPlan::new(*config).with_kind(EngineKind::Column);
        exec.executor()
            .forward(
                view,
                Route::Plan(&SegmentPlan::unsegmented(rows)),
                u,
                scratch,
                &mut Trace::disabled(),
                &Budget::unlimited(),
            )
            .unwrap()
    }

    fn fixtures(ns: usize, ed: usize) -> (Matrix, Matrix, Vec<f32>) {
        let m_in = Matrix::from_fn(ns, ed, |r, c| ((r * 31 + c * 7) as f32 * 0.13).sin() * 0.4);
        let m_out = Matrix::from_fn(ns, ed, |r, c| ((r * 17 + c * 3) as f32 * 0.29).cos() * 0.6);
        let u: Vec<f32> = (0..ed)
            .map(|c| ((c * 11) as f32 * 0.07).sin() * 0.5)
            .collect();
        (m_in, m_out, u)
    }

    fn f32_view<'a>(m_in: &'a Matrix, m_out: &'a Matrix) -> MemView<'a> {
        MemView::F32 { m_in, m_out }
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    fn quantize(m: &Matrix) -> QuantMatrix {
        let mut q = QuantMatrix::with_capacity(m.rows(), m.cols());
        for r in 0..m.rows() {
            q.push_row(m.row(r));
        }
        q
    }

    #[test]
    fn folded_chunk_partials_match_single_node_bitwise() {
        // Awkward row count: the final chunk is short.
        let (m_in, m_out, u) = fixtures(103, 16);
        for mode in [SoftmaxMode::Lazy, SoftmaxMode::Online] {
            let config = MnnFastConfig::new(16).with_softmax(mode);
            let mut scratch = Scratch::new();
            let reference = reference(&config, f32_view(&m_in, &m_out), 103, &u, &mut scratch);

            let mut partials = Vec::new();
            let stats = forward_chunk_partials(
                &config,
                f32_view(&m_in, &m_out),
                103,
                &u,
                &mut scratch,
                &mut Trace::disabled(),
                &Budget::unlimited(),
                &mut partials,
            )
            .unwrap();
            assert_eq!(partials.len(), 103usize.div_ceil(16));
            assert_eq!(stats.chunks, partials.len() as u64);

            let mut fold = PartialFold::new(mode, 16);
            for p in &partials {
                fold.absorb(p).unwrap();
            }
            let mut o = Vec::new();
            let mut fold_stats = InferenceStats::default();
            let denom = fold.finish_into(&mut o, &mut fold_stats).unwrap();
            assert_eq!(bits(&o), bits(&reference.o), "mode {mode:?}");
            assert_eq!(denom.to_bits(), reference.denominator.to_bits());
            assert_eq!(fold_stats.divisions, 16);
        }
    }

    #[test]
    fn sharded_partials_refolded_in_global_order_match_single_node() {
        // The dist routing invariant at the engine layer: rows are dealt to
        // shards a whole chunk at a time (global chunk c → shard c % S);
        // workers chunk their local stores independently; the coordinator
        // interleaves the partial streams back into global chunk order.
        // Every partial crosses the byte encoding, on both softmax modes
        // and both memory planes — the wire is the identity on accumulator
        // state reached by real passes.
        let (m_in, m_out, u) = fixtures(130, 8);
        let (q_in, q_out) = (quantize(&m_in), quantize(&m_out));
        let chunk = 16usize;
        let shards = 4usize;
        let chunks_total = 130usize.div_ceil(chunk);

        // Deal global chunks round-robin into per-shard row stores. Int8
        // quantization is per row, so a shard's mirror of its own rows
        // holds the codes and scales the global mirror holds for them.
        let mut shard_in: Vec<Vec<f32>> = vec![Vec::new(); shards];
        let mut shard_out: Vec<Vec<f32>> = vec![Vec::new(); shards];
        for c in 0..chunks_total {
            let start = c * chunk;
            let n = chunk.min(130 - start);
            let s = c % shards;
            shard_in[s].extend_from_slice(m_in.rows_slice(start, n));
            shard_out[s].extend_from_slice(m_out.rows_slice(start, n));
        }
        let shard_f32: Vec<(Matrix, Matrix)> = (0..shards)
            .map(|s| {
                let rows = shard_in[s].len() / 8;
                (
                    Matrix::from_fn(rows, 8, |r, c| shard_in[s][r * 8 + c]),
                    Matrix::from_fn(rows, 8, |r, c| shard_out[s][r * 8 + c]),
                )
            })
            .collect();
        let shard_int8: Vec<(QuantMatrix, QuantMatrix)> = shard_f32
            .iter()
            .map(|(mi, mo)| (quantize(mi), quantize(mo)))
            .collect();

        for mode in [SoftmaxMode::Lazy, SoftmaxMode::Online] {
            for int8 in [false, true] {
                let config = MnnFastConfig::new(chunk).with_softmax(mode);
                let mut scratch = Scratch::new();
                let global = if int8 {
                    MemView::from((&q_in, &q_out))
                } else {
                    f32_view(&m_in, &m_out)
                };
                let reference = reference(&config, global, 130, &u, &mut scratch);

                // Each shard produces its chunk partials independently.
                let mut per_shard: Vec<Vec<PartialState>> = Vec::new();
                for s in 0..shards {
                    let view = if int8 {
                        MemView::from((&shard_int8[s].0, &shard_int8[s].1))
                    } else {
                        f32_view(&shard_f32[s].0, &shard_f32[s].1)
                    };
                    let mut ps = Vec::new();
                    forward_chunk_partials(
                        &config,
                        view,
                        view.rows(),
                        &u,
                        &mut scratch,
                        &mut Trace::disabled(),
                        &Budget::unlimited(),
                        &mut ps,
                    )
                    .unwrap();
                    per_shard.push(ps);
                }

                // Coordinator: global chunk c is shard (c % S)'s (c / S)-th
                // partial, decoded from its wire bytes as the real RPC does.
                let mut fold = PartialFold::new(mode, 8);
                for c in 0..chunks_total {
                    let encoded = per_shard[c % shards][c / shards].to_bytes();
                    let decoded = PartialState::from_bytes(&encoded).unwrap();
                    fold.absorb(&decoded).unwrap();
                }
                assert_eq!(fold.absorbed(), chunks_total as u64);
                let mut o = Vec::new();
                let mut stats = InferenceStats::default();
                let denom = fold.finish_into(&mut o, &mut stats).unwrap();
                assert_eq!(bits(&o), bits(&reference.o), "{mode:?} int8 {int8}");
                assert_eq!(denom.to_bits(), reference.denominator.to_bits());
            }
        }
    }

    #[test]
    fn quant_chunk_partials_match_single_node_quant_bitwise() {
        let (m_in, m_out, u) = fixtures(77, 12);
        let (q_in, q_out) = (quantize(&m_in), quantize(&m_out));
        for mode in [SoftmaxMode::Lazy, SoftmaxMode::Online] {
            let config = MnnFastConfig::new(16).with_softmax(mode);
            let mut scratch = Scratch::new();
            let reference = reference(
                &config,
                MemView::from((&q_in, &q_out)),
                77,
                &u,
                &mut scratch,
            );

            let mut partials = Vec::new();
            forward_chunk_partials(
                &config,
                MemView::from((&q_in, &q_out)),
                77,
                &u,
                &mut scratch,
                &mut Trace::disabled(),
                &Budget::unlimited(),
                &mut partials,
            )
            .unwrap();
            assert_eq!(partials.len(), 77usize.div_ceil(16));

            let mut fold = PartialFold::new(mode, 12);
            for p in &partials {
                fold.absorb(p).unwrap();
            }
            let mut o = Vec::new();
            let mut stats = InferenceStats::default();
            fold.finish_into(&mut o, &mut stats).unwrap();
            assert_eq!(bits(&o), bits(&reference.o), "mode {mode:?}");
        }
    }

    #[test]
    fn probability_skip_is_rejected() {
        let (m_in, m_out, u) = fixtures(32, 4);
        let config = MnnFastConfig::new(16).with_skip(SkipPolicy::Probability(0.01));
        let mut scratch = Scratch::new();
        let mut out = Vec::new();
        let err = forward_chunk_partials(
            &config,
            f32_view(&m_in, &m_out),
            32,
            &u,
            &mut scratch,
            &mut Trace::disabled(),
            &Budget::unlimited(),
            &mut out,
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::Config(_)), "got {err:?}");

        // RawWeight is per-row-local and distributes: partials still fold
        // to the single-node answer.
        let config = MnnFastConfig::new(16).with_skip(SkipPolicy::RawWeight(0.5));
        let reference = reference(&config, f32_view(&m_in, &m_out), 32, &u, &mut scratch);
        let mut partials = Vec::new();
        forward_chunk_partials(
            &config,
            f32_view(&m_in, &m_out),
            32,
            &u,
            &mut scratch,
            &mut Trace::disabled(),
            &Budget::unlimited(),
            &mut partials,
        )
        .unwrap();
        let mut fold = PartialFold::new(SoftmaxMode::Lazy, 4);
        for p in &partials {
            fold.absorb(p).unwrap();
        }
        let mut o = Vec::new();
        let mut stats = InferenceStats::default();
        fold.finish_into(&mut o, &mut stats).unwrap();
        assert_eq!(bits(&o), bits(&reference.o));
    }

    #[test]
    fn fold_mismatches_are_typed_errors() {
        let mut fold = PartialFold::new(SoftmaxMode::Lazy, 4);
        // Mode mismatch.
        let online = PartialState::Online(OnlineSoftmax::new(4));
        assert!(matches!(fold.absorb(&online), Err(EngineError::Shape(_))));
        // Dim mismatch.
        let wrong_dim = PartialState::Lazy(LazyAccumulator::new(5));
        assert!(matches!(
            fold.absorb(&wrong_dim),
            Err(EngineError::Shape(_))
        ));
        assert_eq!(fold.absorbed(), 0);
        // A poisoned partial trips the denominator guard at absorb time.
        let mut bad = LazyAccumulator::new(4);
        bad.add_weighted(f32::NAN, &[0.0; 4]);
        let poisoned = PartialState::Lazy(bad);
        assert!(matches!(
            fold.absorb(&poisoned),
            Err(EngineError::NumericFault { .. })
        ));
    }

    #[test]
    fn budget_expiry_abandons_at_chunk_boundary() {
        let (m_in, m_out, u) = fixtures(64, 4);
        let config = MnnFastConfig::new(8);
        let mut scratch = Scratch::new();
        let mut out = Vec::new();
        let cancel = crate::CancelToken::new();
        cancel.cancel();
        let budget = Budget::unlimited().with_cancel(cancel.clone());
        let err = forward_chunk_partials(
            &config,
            f32_view(&m_in, &m_out),
            64,
            &u,
            &mut scratch,
            &mut Trace::disabled(),
            &budget,
            &mut out,
        )
        .unwrap_err();
        assert_eq!(err, EngineError::Cancelled);
        assert!(out.is_empty());
    }
}
