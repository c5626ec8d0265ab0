//! Scale-out execution: partition the memories across worker threads.
//!
//! The column-based algorithm makes each chunk independent; the only shared
//! state is the final `O(ed)` merge (Section 3.1's scale-out argument:
//! "synchronization overhead is negligible because the size of output
//! results are proportionate to ed"). Each worker fills one private
//! softmax partial per chunk it owns; the main thread folds every chunk
//! partial in global chunk-index order — the same fold the inline walk
//! performs — so the output is bitwise identical to
//! [`crate::ColumnEngine`] at any thread count. [`crate::PlanExecutor`]
//! takes this walk when its plan resolves to
//! [`crate::EngineKind::Parallel`].

use crate::engine::{check_denom, EngineError, PassState};
use crate::exec::{Phase, Trace, WorkerScratch};
use crate::segment::Segment;
use crate::stats::InferenceStats;
use std::sync::atomic::{AtomicBool, Ordering};

/// `Walk::Workers`: the rows *within* the segment are partitioned across
/// `threads` scoped workers on chunk boundaries, so per-thread chunking
/// matches the sequential chunk layout (segment starts are themselves
/// chunk-aligned). Each worker fills one partial per chunk it owns and does
/// NOT pre-fold them; the caller then merges every chunk partial in global
/// chunk order, so the result is bitwise the sequential one on either
/// plane. Worker phase times are CPU time summed across threads (they can
/// exceed wall time).
pub(crate) fn walk_workers(
    st: &mut PassState<'_>,
    threads: usize,
    seg: Segment,
    trace: &mut Trace,
) -> Result<(), EngineError> {
    let PassState {
        engine,
        view,
        query,
        raw_threshold,
        budget,
        ..
    } = *st;
    let config = engine.config();
    let (chunk, ed) = (config.chunk_size, query.u.len());
    let rows_per_thread = seg.rows.div_ceil(chunk).div_ceil(threads) * chunk;
    let enabled = trace.is_enabled();
    if st.workers.len() < threads {
        st.workers.resize_with(threads, WorkerScratch::default);
    }
    let workers = &mut st.workers[..threads];

    // Cooperative abort: the first worker whose per-chunk budget check
    // fails trips the flag so its peers stop at their next chunk. The
    // caller re-runs `budget.check()` after the join — deadline expiry and
    // cancellation are monotone, so it observes the same error.
    let abort = &AtomicBool::new(false);
    let partials: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .iter_mut()
            .enumerate()
            .map(|(t, ws)| {
                let start = seg.start + (t * rows_per_thread).min(seg.rows);
                let end = seg.start + ((t + 1) * rows_per_thread).min(seg.rows);
                scope.spawn(move || {
                    // Contain panics (a poisoned chunk kernel, a violated
                    // slice invariant) to this worker: peers stop at their
                    // next chunk boundary and the pass surfaces
                    // `WorkerPanicked` instead of unwinding through the
                    // serving process.
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let mut local = InferenceStats::default();
                        let mut ltrace = if enabled {
                            Trace::enabled()
                        } else {
                            Trace::disabled()
                        };
                        let logit_len = chunk.min((end - start).max(1));
                        let mut idx = 0usize;
                        let mut row = start;
                        while row < end {
                            if abort.load(Ordering::Relaxed) || budget.check().is_err() {
                                abort.store(true, Ordering::Relaxed);
                                break;
                            }
                            let n = chunk.min(end - row);
                            let (logits, mut acc) =
                                ws.chunk_slot(config.softmax, ed, logit_len, idx);
                            engine.process_chunk(
                                view.chunk(row, n),
                                n,
                                query,
                                raw_threshold,
                                &mut acc,
                                &mut local,
                                &mut logits[..n],
                                &mut ltrace,
                            );
                            row += n;
                            idx += 1;
                        }
                        ws.used = idx;
                        (local, ltrace)
                    }));
                    if result.is_err() {
                        abort.store(true, Ordering::Relaxed);
                    }
                    result
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("scale-out worker thread join"))
            .collect()
    });
    // A panicked worker leaves its scratch partials undefined, so the panic
    // check runs before the abort/budget check and before any fold.
    if partials.iter().any(|r| r.is_err()) {
        return Err(EngineError::WorkerPanicked);
    }
    if abort.load(Ordering::Relaxed) {
        // A worker saw the budget fail; surface the same error. The flag
        // can only be set by a failed check, and budget failures are
        // permanent — but never return garbage if not.
        budget.check()?;
        return Err(EngineError::Cancelled);
    }

    // Concurrent partials are all live at once: sum their intermediate
    // footprints rather than taking the max. Segments run sequentially, so
    // across segments the peak is the max of the per-segment sums.
    let mut seg_intermediate = 0u64;
    for (mut local, ltrace) in partials.into_iter().map(|r| r.expect("checked")) {
        trace.absorb(&ltrace);
        seg_intermediate += local.intermediate_bytes;
        local.intermediate_bytes = 0;
        st.stats.merge(&local);
    }
    st.stats.intermediate_bytes = st.stats.intermediate_bytes.max(seg_intermediate);

    let t0 = trace.begin();
    let merged = st.main.fold_workers(&st.workers[..threads]);
    trace.record(Phase::Merge, t0, merged);
    check_denom(st.main.denom(), "chunk merge")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        Budget, ColumnEngine, ColumnOutput, EngineKind, ExecPlan, Executor, MemView, MnnFastConfig,
        PlanExecutor, Route, Scratch, SegmentPlan, SkipPolicy, SoftmaxMode,
    };
    use mnn_tensor::Matrix;

    /// The plan-built executor pinned to the scale-out walk.
    fn parallel(config: MnnFastConfig) -> PlanExecutor {
        ExecPlan::new(config)
            .with_kind(EngineKind::Parallel)
            .executor()
    }

    /// One scale-out pass over every row with a fresh scratch.
    fn forward(config: MnnFastConfig, m_in: &Matrix, m_out: &Matrix, u: &[f32]) -> ColumnOutput {
        parallel(config)
            .forward(
                MemView::from((m_in, m_out)),
                Route::Plan(&SegmentPlan::unsegmented(m_in.rows())),
                u,
                &mut Scratch::new(),
                &mut Trace::disabled(),
                &Budget::unlimited(),
            )
            .unwrap()
    }

    fn memories(ns: usize, ed: usize) -> (Matrix, Matrix, Vec<f32>) {
        let m_in = Matrix::from_fn(ns, ed, |r, c| ((r * 5 + c) as f32 * 0.13).sin());
        let m_out = Matrix::from_fn(ns, ed, |r, c| ((r + 3 * c) as f32 * 0.19).cos());
        let u: Vec<f32> = (0..ed).map(|i| (i as f32).sin() * 0.4).collect();
        (m_in, m_out, u)
    }

    #[test]
    fn parallel_matches_sequential_for_all_thread_counts() {
        let (m_in, m_out, u) = memories(150, 8);
        let seq = ColumnEngine::new(MnnFastConfig::new(16))
            .forward(&m_in, &m_out, &u)
            .unwrap();
        for threads in [1usize, 2, 3, 4, 8, 32] {
            let par = forward(
                MnnFastConfig::new(16).with_threads(threads),
                &m_in,
                &m_out,
                &u,
            );
            assert_eq!(par.o, seq.o, "threads {threads}: not bitwise identical");
            assert_eq!(par.stats.rows_total, 150, "threads {threads}");
        }
    }

    #[test]
    fn parallel_is_deterministic() {
        let (m_in, m_out, u) = memories(97, 4);
        let config = MnnFastConfig::new(10).with_threads(4);
        let a = forward(config, &m_in, &m_out, &u);
        let b = forward(config, &m_in, &m_out, &u);
        assert_eq!(a.o, b.o, "merge order must be fixed");
    }

    #[test]
    fn parallel_with_skipping_matches_sequential_counts() {
        let (m_in, m_out, u) = memories(120, 6);
        let config = MnnFastConfig::new(15).with_skip(SkipPolicy::Probability(0.005));
        let seq = ColumnEngine::new(config)
            .forward(&m_in, &m_out, &u)
            .unwrap();
        let par = forward(config.with_threads(3), &m_in, &m_out, &u);
        assert_eq!(seq.stats.rows_skipped, par.stats.rows_skipped);
        assert_eq!(par.o, seq.o, "skip decisions and fold order must match");
    }

    #[test]
    fn online_mode_parallel_merge() {
        let (m_in, m_out, u) = memories(64, 4);
        let config = MnnFastConfig::new(8).with_softmax(SoftmaxMode::Online);
        let seq = ColumnEngine::new(config)
            .forward(&m_in, &m_out, &u)
            .unwrap();
        let par = forward(config.with_threads(4), &m_in, &m_out, &u);
        assert_eq!(par.o, seq.o, "online rescale history must match");
    }

    #[test]
    fn more_threads_than_rows_is_fine() {
        let (m_in, m_out, u) = memories(3, 4);
        let par = forward(MnnFastConfig::new(2).with_threads(16), &m_in, &m_out, &u);
        assert_eq!(par.stats.rows_total, 3);
    }

    #[test]
    fn concurrent_intermediates_scale_with_threads() {
        let (m_in, m_out, u) = memories(400, 8);
        let one = forward(MnnFastConfig::new(50).with_threads(1), &m_in, &m_out, &u);
        let four = forward(MnnFastConfig::new(50).with_threads(4), &m_in, &m_out, &u);
        assert!(four.stats.intermediate_bytes >= one.stats.intermediate_bytes);
    }

    #[test]
    fn parallel_trace_records_merge_phase() {
        let (m_in, m_out, u) = memories(200, 8);
        let engine = parallel(MnnFastConfig::new(16).with_threads(4));
        let mut scratch = Scratch::new();
        let mut trace = Trace::enabled();
        let out = Executor::forward(
            &engine,
            MemView::from((&m_in, &m_out)),
            Route::Plan(&SegmentPlan::unsegmented(m_in.rows())),
            &u,
            &mut scratch,
            &mut trace,
            &Budget::unlimited(),
        )
        .unwrap();
        assert_eq!(out.stats.rows_total, 200);
        assert_eq!(trace.count(Phase::FusedChunk), 200);
        // One merge per chunk partial: ceil(200 / 16) = 13 chunks.
        assert_eq!(trace.count(Phase::Merge), 13);
        assert_eq!(trace.count(Phase::Divide), 8);
    }
}
