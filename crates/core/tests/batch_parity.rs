//! Batched == per-question parity on awkward shapes.
//!
//! [`PlanExecutor::forward_batch`] must reproduce the single-question
//! [`ColumnEngine`] to 1e-4 — with *identical* work counters (everything
//! but the split-dependent `intermediate_bytes`) — across Lazy/Online softmax ×
//! every skip policy × the forced-scalar backend, including
//! the shapes that stress kernel edges: `nq = 1` (no 2-question tile),
//! `ns` not a multiple of the chunk, `chunk > ns` (single short chunk), and
//! `ed = 1` (no SIMD lanes).
//!
//! This lives in its own integration binary so forcing the scalar backend
//! cannot race other tests: every test here funnels through
//! [`with_backend`], which serializes on one lock and restores the previous
//! backend even on panic.

use std::sync::Mutex;

use mnn_tensor::simd::{self, Backend};
use mnn_tensor::{assert_slice_approx_eq, Matrix};
use mnnfast::{
    Budget, ColumnEngine, ColumnOutput, EngineError, ExecPlan, Executor, InferenceStats, MemView,
    MnnFastConfig, Route, Scratch, SegmentPlan, SkipPolicy, SoftmaxMode, Trace,
};

static BACKEND_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` with the SIMD backend pinned to `b`, restoring the previous
/// backend afterwards (panic-safe via a drop guard).
fn with_backend<R>(b: Backend, f: impl FnOnce() -> R) -> R {
    struct Restore(Backend);
    impl Drop for Restore {
        fn drop(&mut self) {
            simd::set_backend(self.0);
        }
    }
    let _guard = BACKEND_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _restore = Restore(simd::backend());
    simd::set_backend(b);
    f()
}

/// The backends worth testing on this machine: the auto-detected one plus
/// forced-scalar (identical when the build is already scalar-only).
fn backends() -> Vec<Backend> {
    let active = simd::backend();
    if active == Backend::Scalar {
        vec![Backend::Scalar]
    } else {
        vec![active, Backend::Scalar]
    }
}

fn memories(ns: usize, ed: usize, nq: usize) -> (Matrix, Matrix, Vec<Vec<f32>>) {
    let m_in = Matrix::from_fn(ns, ed, |r, c| ((r * 13 + c * 3) as f32 * 0.11).sin() * 0.7);
    let m_out = Matrix::from_fn(ns, ed, |r, c| ((r * 5 + c * 7) as f32 * 0.07).cos() * 0.7);
    let questions = (0..nq)
        .map(|q| {
            (0..ed)
                .map(|k| ((q * 11 + k * 2) as f32 * 0.19).sin() * 0.8)
                .collect()
        })
        .collect();
    (m_in, m_out, questions)
}

/// Awkward (ns, ed, chunk, nq) corners: minimal everything, ed = 1, odd nq
/// with a chunked remainder, chunk > ns, ns not a multiple of chunk.
const SHAPES: [(usize, usize, usize, usize); 5] = [
    (1, 1, 1, 1),
    (7, 1, 3, 2),
    (5, 4, 8, 3),
    (83, 8, 16, 5),
    (29, 6, 10, 1),
];

/// One [`PlanExecutor::forward_batch`] over every row of an f32 memory.
///
/// [`PlanExecutor::forward_batch`]: mnnfast::PlanExecutor
fn forward_batch(
    config: MnnFastConfig,
    view: MemView<'_>,
    rows: usize,
    questions: &[Vec<f32>],
    scratch: &mut Scratch,
    trace: &mut Trace,
    budgets: &[Budget],
) -> Result<Vec<Result<ColumnOutput, EngineError>>, EngineError> {
    ExecPlan::new(config).executor().forward_batch(
        view,
        Route::Plan(&SegmentPlan::unsegmented(rows)),
        questions,
        scratch,
        trace,
        budgets,
    )
}

/// The work counters a batch slot shares with its lone pass: all of them
/// but `intermediate_bytes`, which is the footprint of the split.
fn work(stats: &InferenceStats) -> InferenceStats {
    InferenceStats {
        intermediate_bytes: 0,
        ..*stats
    }
}

fn assert_parity(config: MnnFastConfig, m_in: &Matrix, m_out: &Matrix, questions: &[Vec<f32>]) {
    let budgets = vec![Budget::unlimited(); questions.len()];
    let batched: Vec<ColumnOutput> = forward_batch(
        config,
        MemView::F32 { m_in, m_out },
        m_in.rows(),
        questions,
        &mut Scratch::new(),
        &mut Trace::disabled(),
        &budgets,
    )
    .unwrap()
    .into_iter()
    .map(Result::unwrap)
    .collect();
    let single = ColumnEngine::new(config);
    for (q, out) in batched.iter().enumerate() {
        let expect = single.forward(m_in, m_out, &questions[q]).unwrap();
        assert_slice_approx_eq(&out.o, &expect.o, 1e-4);
        assert_eq!(
            out.stats.rows_skipped, expect.stats.rows_skipped,
            "skip counts must match exactly (q{q}, {config:?})"
        );
        assert_eq!(out.stats.rows_total, expect.stats.rows_total);
        assert_eq!(
            work(&out.stats),
            work(&expect.stats),
            "a slot's work counters are its lone pass's (q{q}, {config:?})"
        );
    }

    // A reused scratch and an enabled trace change nothing.
    let mut scratch = Scratch::new();
    let mut trace = Trace::enabled();
    for _ in 0..2 {
        let results = forward_batch(
            config,
            MemView::F32 { m_in, m_out },
            m_in.rows(),
            questions,
            &mut scratch,
            &mut trace,
            &budgets,
        )
        .unwrap();
        for (r, expect) in results.iter().zip(&batched) {
            let out = r.as_ref().unwrap();
            assert_slice_approx_eq(&out.o, &expect.o, 1e-5);
            assert_eq!(out.stats.rows_skipped, expect.stats.rows_skipped);
        }
    }
}

#[test]
fn batched_parity_without_skipping() {
    for backend in backends() {
        with_backend(backend, || {
            for (ns, ed, chunk, nq) in SHAPES {
                let (m_in, m_out, questions) = memories(ns, ed, nq);
                for mode in [SoftmaxMode::Lazy, SoftmaxMode::Online] {
                    let config = MnnFastConfig::new(chunk).with_softmax(mode);
                    assert_parity(config, &m_in, &m_out, &questions);
                }
            }
        });
    }
}

#[test]
fn batched_parity_with_raw_weight_skipping() {
    for backend in backends() {
        with_backend(backend, || {
            for (ns, ed, chunk, nq) in SHAPES {
                let (m_in, m_out, questions) = memories(ns, ed, nq);
                for mode in [SoftmaxMode::Lazy, SoftmaxMode::Online] {
                    let config = MnnFastConfig::new(chunk)
                        .with_softmax(mode)
                        .with_skip(SkipPolicy::RawWeight(0.9));
                    assert_parity(config, &m_in, &m_out, &questions);
                }
            }
        });
    }
}

/// The budgeted serving path (what coalesced network batches run through)
/// must be *bitwise* identical to the single-question engine — not merely
/// approximately equal — because a remote client's answer has to carry the
/// same bits whether its question was coalesced or served alone.
#[test]
fn budgeted_serving_is_bitwise_identical_to_single_question() {
    for backend in backends() {
        with_backend(backend, || {
            for (ns, ed, chunk, nq) in SHAPES {
                let (m_in, m_out, questions) = memories(ns, ed, nq);
                for mode in [SoftmaxMode::Lazy, SoftmaxMode::Online] {
                    for skip in [
                        SkipPolicy::None,
                        SkipPolicy::RawWeight(0.9),
                        SkipPolicy::Probability(0.02),
                    ] {
                        let config = MnnFastConfig::new(chunk).with_softmax(mode).with_skip(skip);
                        let mut scratch = Scratch::new();
                        let mut trace = Trace::disabled();
                        let budgets = vec![Budget::unlimited(); nq];
                        let results = forward_batch(
                            config,
                            MemView::from((&m_in, &m_out)),
                            m_in.rows(),
                            &questions,
                            &mut scratch,
                            &mut trace,
                            &budgets,
                        )
                        .unwrap();
                        let single = ColumnEngine::new(config);
                        for (q, r) in results.iter().enumerate() {
                            let out = r.as_ref().unwrap();
                            let expect = single.forward(&m_in, &m_out, &questions[q]).unwrap();
                            let got: Vec<u32> = out.o.iter().map(|v| v.to_bits()).collect();
                            let want: Vec<u32> = expect.o.iter().map(|v| v.to_bits()).collect();
                            assert_eq!(got, want, "bitwise drift (q{q}, {backend:?}, {config:?})");
                            assert_eq!(
                                out.denominator.to_bits(),
                                expect.denominator.to_bits(),
                                "denominator drift (q{q}, {backend:?}, {config:?})"
                            );
                            assert_eq!(out.stats.rows_skipped, expect.stats.rows_skipped);
                        }
                    }
                }
            }
        });
    }
}

#[test]
fn batched_parity_with_probability_skipping() {
    for backend in backends() {
        with_backend(backend, || {
            for (ns, ed, chunk, nq) in SHAPES {
                let (m_in, m_out, questions) = memories(ns, ed, nq);
                for mode in [SoftmaxMode::Lazy, SoftmaxMode::Online] {
                    let config = MnnFastConfig::new(chunk)
                        .with_softmax(mode)
                        .with_skip(SkipPolicy::Probability(0.02));
                    assert_parity(config, &m_in, &m_out, &questions);
                }
            }
        });
    }
}

/// A question's arithmetic never depends on its batchmates, so splitting
/// the batch over worker threads by question ranges must not move a bit:
/// outputs, denominators and per-question stats at `threads` ∈ {2, 3, 5}
/// equal the one-thread pass — with `nq` not a multiple of the thread
/// count (7) and smaller than it (3) — on both memory planes.
#[test]
fn thread_count_never_changes_a_bit() {
    use mnn_tensor::QuantMatrix;

    // 5 threads × chunk 8 × 2 = 80 rows is the floor for the widest split.
    let (ns, ed, chunk) = (163, 9, 8);
    for backend in backends() {
        with_backend(backend, || {
            for nq in [3usize, 7] {
                let (m_in, m_out, questions) = memories(ns, ed, nq);
                let (q_in, q_out) = (
                    QuantMatrix::from_matrix_prefix(&m_in, ns),
                    QuantMatrix::from_matrix_prefix(&m_out, ns),
                );
                let budgets = vec![Budget::unlimited(); nq];
                for mode in [SoftmaxMode::Lazy, SoftmaxMode::Online] {
                    for skip in [SkipPolicy::None, SkipPolicy::Probability(0.02)] {
                        for quant in [false, true] {
                            let run = |threads: usize| {
                                let config = MnnFastConfig::new(chunk)
                                    .with_softmax(mode)
                                    .with_skip(skip)
                                    .with_threads(threads);
                                let (mut scratch, mut trace) = (Scratch::new(), Trace::disabled());
                                let view = if quant {
                                    MemView::from((&q_in, &q_out))
                                } else {
                                    MemView::from((&m_in, &m_out))
                                };
                                let results = forward_batch(
                                    config,
                                    view,
                                    ns,
                                    &questions,
                                    &mut scratch,
                                    &mut trace,
                                    &budgets,
                                );
                                results
                                    .unwrap()
                                    .into_iter()
                                    .map(|r| {
                                        let out = r.unwrap();
                                        let o: Vec<u32> =
                                            out.o.iter().map(|v| v.to_bits()).collect();
                                        (o, out.denominator.to_bits(), out.stats)
                                    })
                                    .collect::<Vec<_>>()
                            };
                            let one = run(1);
                            for threads in [2usize, 3, 5] {
                                assert_eq!(
                                    run(threads),
                                    one,
                                    "{backend:?} nq{nq} {mode:?} {skip:?} quant={quant} threads={threads}"
                                );
                            }
                        }
                    }
                }
            }
        });
    }
}

/// `budgeted_batch_isolates_cancellation` across workers: with two threads
/// the batch splits into question ranges `[0, 1]` and `[2, 3]`; a slot
/// cancelled in the first range fails alone, its range-mate and the other
/// worker's answers are bitwise the single-question engine's.
#[test]
fn cancellation_in_one_workers_range_leaves_the_rest_untouched() {
    use mnnfast::CancelToken;

    let (m_in, m_out, questions) = memories(64, 8, 4);
    let config = MnnFastConfig::new(8).with_threads(2);
    let token = CancelToken::new();
    token.cancel();
    let mut budgets = vec![Budget::unlimited(); 4];
    budgets[1] = Budget::unlimited().with_cancel(token);
    for backend in backends() {
        with_backend(backend, || {
            let results = forward_batch(
                config,
                MemView::from((&m_in, &m_out)),
                m_in.rows(),
                &questions,
                &mut Scratch::new(),
                &mut Trace::disabled(),
                &budgets,
            )
            .unwrap();
            assert!(matches!(results[1], Err(EngineError::Cancelled)));
            let single = ColumnEngine::new(config);
            for q in [0usize, 2, 3] {
                let out = results[q].as_ref().unwrap();
                let expect = single.forward(&m_in, &m_out, &questions[q]).unwrap();
                assert_eq!(out.o, expect.o, "{backend:?} q{q}");
                assert_eq!(out.stats.rows_total, expect.stats.rows_total, "q{q}");
            }
        });
    }
}
