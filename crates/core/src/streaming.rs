//! Streaming execution: overlap chunk loading with chunk computation.
//!
//! The paper's streaming optimization prefetches the next chunk of
//! `M_IN`/`M_OUT` while the current chunk is being computed, hiding the
//! off-chip access latency (Section 3.1; the `column+S` bars of Figs 9/13).
//!
//! On commodity hardware this reproduction realizes the overlap with a
//! producer thread that copies upcoming chunks into owned staging buffers
//! (standing in for DMA/prefetch engines) and a bounded channel whose depth
//! is the number of in-flight buffers (2 = double buffering). The consumer
//! — the caller's thread — runs the same per-chunk kernel as the sequential
//! engine, so results are bit-identical to [`ColumnEngine::forward`].

use crate::budget::Budget;
use crate::engine::{one_shot, ChunkOps, ColumnEngine, ColumnOutput, EngineError, PassState, Walk};
use crate::exec::{resolve_route, EngineKind, Executor, MemView, Route, Scratch, Trace};
use crate::segment::Segment;
use mnn_tensor::Matrix;
use std::sync::mpsc::sync_channel;

/// A staged chunk in flight from the producer to the consumer: owned copies
/// of the chunk's rows of both memories, `[M_IN, M_OUT]`. The f32 plane
/// fills `rows`; the int8 plane fills `codes` and stages the per-row
/// `scales` alongside them, so the consumer's reads stay sequential over
/// owned buffers on either plane. The other plane's vectors stay empty.
#[derive(Debug, Default)]
struct Staged {
    n: usize,
    rows: [Vec<f32>; 2],
    codes: [Vec<i8>; 2],
    scales: [Vec<f32>; 2],
}

impl Staged {
    /// Copies an `n`-row chunk in (the producer's "prefetch").
    fn fill(&mut self, ops: ChunkOps<'_>, n: usize) {
        fn copy<T: Copy>(dst: &mut Vec<T>, src: &[T]) {
            dst.clear();
            dst.extend_from_slice(src);
        }
        self.n = n;
        match ops {
            ChunkOps::F32 { m_in, m_out } => {
                copy(&mut self.rows[0], m_in);
                copy(&mut self.rows[1], m_out);
            }
            ChunkOps::Int8 {
                m_in,
                in_scales,
                m_out,
                out_scales,
            } => {
                copy(&mut self.codes[0], m_in);
                copy(&mut self.scales[0], in_scales);
                copy(&mut self.codes[1], m_out);
                copy(&mut self.scales[1], out_scales);
            }
        }
    }

    /// The staged operands, on `view`'s plane.
    fn ops(&self, view: MemView<'_>) -> ChunkOps<'_> {
        match view {
            MemView::F32 { .. } => ChunkOps::F32 {
                m_in: &self.rows[0],
                m_out: &self.rows[1],
            },
            MemView::Int8 { .. } => ChunkOps::Int8 {
                m_in: &self.codes[0],
                in_scales: &self.scales[0],
                m_out: &self.codes[1],
                out_scales: &self.scales[1],
            },
        }
    }
}

/// Streaming wrapper around [`ColumnEngine`].
///
/// ```
/// use mnn_tensor::Matrix;
/// use mnnfast::{ColumnEngine, MnnFastConfig, streaming::StreamingEngine};
///
/// let m_in = Matrix::from_fn(64, 4, |r, c| (r as f32 - c as f32) * 0.01);
/// let m_out = m_in.clone();
/// let u = vec![0.1f32; 4];
/// let config = MnnFastConfig::new(16);
/// let sequential = ColumnEngine::new(config).forward(&m_in, &m_out, &u).unwrap();
/// let streamed = StreamingEngine::new(config).forward(&m_in, &m_out, &u).unwrap();
/// assert_eq!(sequential.o, streamed.o);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamingEngine {
    engine: ColumnEngine,
    depth: usize,
}

impl StreamingEngine {
    /// Creates a streaming engine with double buffering (depth 2).
    pub fn new(config: crate::MnnFastConfig) -> Self {
        Self {
            engine: ColumnEngine::new(config),
            depth: 2,
        }
    }

    /// Sets the number of in-flight staging buffers (≥ 1; 2 = double
    /// buffering, 3 = triple buffering — the ablation of DESIGN.md §5).
    pub fn with_depth(mut self, depth: usize) -> Self {
        self.depth = depth.max(1);
        self
    }

    /// The in-flight buffer depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Computes the response vector with producer/consumer chunk streaming,
    /// allocating fresh scratch buffers (one-shot convenience; serving
    /// loops should call [`Executor::forward`] with a reused [`Scratch`]).
    ///
    /// Numerically identical to [`ColumnEngine::forward`] with the same
    /// configuration: chunks are consumed in order, so the accumulation
    /// order matches exactly.
    ///
    /// # Errors
    ///
    /// As [`ColumnEngine::forward`].
    pub fn forward(
        &self,
        m_in: &Matrix,
        m_out: &Matrix,
        u: &[f32],
    ) -> Result<ColumnOutput, EngineError> {
        one_shot(self, m_in, m_out, u)
    }

    /// How this engine walks a segment.
    pub(crate) fn walk(&self) -> Walk {
        Walk::Staged { depth: self.depth }
    }
}

/// [`Walk::Staged`]: one producer/consumer pipeline over the segment's
/// chunks. The consumer is the caller's thread and folds each staged chunk
/// exactly as the inline walk folds it in place.
pub(crate) fn walk_staged(
    st: &mut PassState<'_>,
    depth: usize,
    seg: Segment,
    trace: &mut Trace,
) -> Result<(), EngineError> {
    let view = st.view;
    let chunk = st.engine.config().chunk_size;
    let seg_end = seg.start + seg.rows;
    std::thread::scope(|scope| {
        let (tx, rx) = sync_channel::<Staged>(depth);
        // Recycling lane: consumed buffers return to the producer, so
        // exactly `depth` buffers circulate — the literal double-buffering
        // discipline of the FPGA design, with no steady-state allocation.
        let (recycle_tx, recycle_rx) = sync_channel::<Staged>(depth);
        for _ in 0..depth {
            let _ = recycle_tx.send(Staged::default());
        }

        // Producer: stages chunks ahead of the consumer (the "prefetch"
        // side of the paper's streaming pipeline).
        scope.spawn(move || {
            let mut row = seg.start;
            while row < seg_end {
                let Ok(mut staged) = recycle_rx.recv() else {
                    break; // consumer dropped (error path)
                };
                let n = chunk.min(seg_end - row);
                staged.fill(view.chunk(row, n), n);
                if tx.send(staged).is_err() {
                    break;
                }
                row += n;
            }
        });

        // Consumer: chunks arrive in order. A failed budget check or a
        // numeric fault breaks the loop; dropping the receiver makes the
        // producer's next send fail, so it exits too and the scope joins
        // cleanly.
        let mut outcome = Ok(());
        for staged in rx.iter() {
            outcome = st.fold_chunk(staged.ops(view), staged.n, trace);
            if outcome.is_err() {
                break;
            }
            let _ = recycle_tx.send(staged); // hand the buffer back
        }
        drop(rx);
        outcome
    })
}

impl Executor for StreamingEngine {
    fn forward(
        &self,
        view: MemView<'_>,
        route: Route<'_>,
        u: &[f32],
        scratch: &mut Scratch,
        trace: &mut Trace,
        budget: &Budget,
    ) -> Result<ColumnOutput, EngineError> {
        let config = self.engine.config();
        resolve_route(&config, view, route, u, scratch, trace, |v, p, s, t| {
            self.engine.pass(self.walk(), v, p, u, s, t, budget)
        })
    }

    fn config(&self) -> crate::MnnFastConfig {
        self.engine.config()
    }

    fn kind(&self) -> EngineKind {
        EngineKind::Streaming
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MnnFastConfig, SkipPolicy, SoftmaxMode};
    use mnn_tensor::assert_slice_approx_eq;

    fn memories(ns: usize, ed: usize) -> (Matrix, Matrix, Vec<f32>) {
        let m_in = Matrix::from_fn(ns, ed, |r, c| ((r * 3 + c) as f32 * 0.17).sin());
        let m_out = Matrix::from_fn(ns, ed, |r, c| ((r + 7 * c) as f32 * 0.11).cos());
        let u: Vec<f32> = (0..ed).map(|i| (i as f32 * 0.29).cos() * 0.5).collect();
        (m_in, m_out, u)
    }

    #[test]
    fn streamed_equals_sequential_bitwise() {
        let (m_in, m_out, u) = memories(123, 8);
        for chunk in [1usize, 10, 64, 123, 999] {
            let config = MnnFastConfig::new(chunk);
            let seq = ColumnEngine::new(config)
                .forward(&m_in, &m_out, &u)
                .unwrap();
            let st = StreamingEngine::new(config)
                .forward(&m_in, &m_out, &u)
                .unwrap();
            assert_eq!(seq.o, st.o, "chunk {chunk}");
            assert_eq!(seq.denominator, st.denominator);
            assert_eq!(seq.stats.rows_total, st.stats.rows_total);
            assert_eq!(seq.stats.chunks, st.stats.chunks);
        }
    }

    #[test]
    fn streamed_with_skipping_and_online() {
        let (m_in, m_out, u) = memories(77, 6);
        let config = MnnFastConfig::new(13)
            .with_skip(SkipPolicy::Probability(0.01))
            .with_softmax(SoftmaxMode::Online);
        let seq = ColumnEngine::new(config)
            .forward(&m_in, &m_out, &u)
            .unwrap();
        let st = StreamingEngine::new(config)
            .forward(&m_in, &m_out, &u)
            .unwrap();
        assert_eq!(seq.o, st.o);
        assert_eq!(seq.stats.rows_skipped, st.stats.rows_skipped);
    }

    #[test]
    fn depth_is_configurable_and_harmless() {
        let (m_in, m_out, u) = memories(40, 4);
        let config = MnnFastConfig::new(8);
        let expect = ColumnEngine::new(config)
            .forward(&m_in, &m_out, &u)
            .unwrap();
        for depth in [1usize, 2, 3, 8] {
            let st = StreamingEngine::new(config)
                .with_depth(depth)
                .forward(&m_in, &m_out, &u)
                .unwrap();
            assert_slice_approx_eq(&st.o, &expect.o, 1e-6);
            assert_eq!(
                StreamingEngine::new(config).with_depth(depth).depth(),
                depth
            );
        }
        assert_eq!(StreamingEngine::new(config).with_depth(0).depth(), 1);
    }

    #[test]
    fn staging_buffers_counted_as_intermediates() {
        let (m_in, m_out, u) = memories(40, 4);
        let config = MnnFastConfig::new(8);
        let seq = ColumnEngine::new(config)
            .forward(&m_in, &m_out, &u)
            .unwrap();
        let st = StreamingEngine::new(config)
            .forward(&m_in, &m_out, &u)
            .unwrap();
        assert!(st.stats.intermediate_bytes > seq.stats.intermediate_bytes);
    }

    #[test]
    fn shape_errors_propagate() {
        let (m_in, m_out, _) = memories(10, 4);
        let st = StreamingEngine::new(MnnFastConfig::new(4));
        assert!(st.forward(&m_in, &m_out, &[0.0; 3]).is_err());
    }
}
