//! Panic containment in the one pass, driven by the `mnn-tensor`
//! fault-injection hook (cargo feature `fault-inject`).
//!
//! A chunk kernel that panics mid-pass must not take the process down, on
//! a worker thread or on the caller's own: every lane of the pass contains
//! the panic with `catch_unwind`, and the questions that lane owned
//! surface [`EngineError::WorkerPanicked`] so the serving layer can degrade
//! through its retry ladder. The engine must stay usable afterwards — the
//! scratch buffers a panicking pass abandoned are reset by the next pass,
//! bitwise-identically to a never-faulted run.
//!
//! Question-range splits are covered too: a fault fires per chunk per
//! question, so whichever worker draws it, exactly one question's slot
//! carries the damage.
//!
//! Each test arms a process-global fault, so the whole file serializes on
//! one mutex and disarms before releasing it.

#![cfg(feature = "fault-inject")]

use mnn_tensor::fault::{self, FaultKind};
use mnn_tensor::{Matrix, QuantMatrix};
use mnnfast::{
    Budget, EngineError, EngineKind, ExecPlan, MemView, MnnFastConfig, Route, Scratch, SegmentPlan,
    SoftmaxMode, Trace,
};
use std::sync::Mutex;

mod lattice;

use lattice::{column, whole};

static SERIAL: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` with the default panic hook silenced, so the injected worker
/// panics don't spray backtraces over the test output. Safe under the
/// SERIAL lock: this integration-test binary runs nothing else.
fn with_quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(hook);
    out
}

fn memories(ns: usize, ed: usize, seed: u64) -> (Matrix, Matrix, Vec<f32>) {
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0
    };
    let m_in = Matrix::from_fn(ns, ed, |_, _| next());
    let m_out = Matrix::from_fn(ns, ed, |_, _| next());
    let u: Vec<f32> = (0..ed).map(|_| next()).collect();
    (m_in, m_out, u)
}

fn quantize(m: &Matrix) -> QuantMatrix {
    let mut q = QuantMatrix::with_capacity(m.rows(), m.cols());
    for r in 0..m.rows() {
        q.push_row(m.row(r));
    }
    q
}

/// Containment does not depend on the thread count or the batch size:
/// at threads {1, 2, 3} × {1, 5} questions (96 rows, chunk 8, one panic
/// armed), the slots the panicking lane owned — every slot inline or on a
/// chunk split, one question range on a question split — surface
/// `WorkerPanicked`, every other slot answers bitwise as a lone ask, and
/// the very same scratch answers the next pass bitwise too.
#[test]
fn panicking_worker_surfaces_worker_panicked_and_engine_recovers() {
    let _guard = lock();
    let (m_in, m_out, _) = memories(96, 8, 23);
    let questions: Vec<Vec<f32>> = (0..5).map(|q| memories(1, 8, 300 + q).2).collect();
    let view = MemView::from((&m_in, &m_out));
    let plan = SegmentPlan::unsegmented(96);
    let bits = |o: &[f32]| o.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for threads in [1usize, 2, 3] {
        for nq in [1usize, 5] {
            for mode in [SoftmaxMode::Lazy, SoftmaxMode::Online] {
                let cell = format!("threads {threads} nq {nq} {mode:?}");
                let config = MnnFastConfig::new(8)
                    .with_threads(threads)
                    .with_softmax(mode);
                let exec = ExecPlan::new(config).executor();
                let qs = &questions[..nq];
                let budgets = vec![Budget::unlimited(); nq];
                let mut scratch = Scratch::new();
                let mut trace = Trace::disabled();
                let mut ask = |scratch: &mut Scratch| {
                    if nq == 1 {
                        let u = &qs[0];
                        let b = &budgets[0];
                        vec![exec.forward(view, Route::Plan(&plan), u, scratch, &mut trace, b)]
                    } else {
                        exec.forward_batch(
                            view,
                            Route::Plan(&plan),
                            qs,
                            scratch,
                            &mut trace,
                            &budgets,
                        )
                        .unwrap()
                    }
                };

                fault::arm(FaultKind::PanicChunk, 0, 1);
                let slots = with_quiet_panics(|| ask(&mut scratch));
                let fires = fault::fired();
                fault::disarm();
                assert_eq!(fires, 1, "{cell}: exactly one chunk kernel panicked");

                let panicked: Vec<usize> = (0..nq)
                    .filter(|&q| slots[q] == Err(EngineError::WorkerPanicked))
                    .collect();
                // Question ranges of a five-question split over 2 or 3
                // threads; one thread, or one question, is one range.
                let ranges: &[&[usize]] = match (threads, nq) {
                    (2, 5) => &[&[0, 1, 2], &[3, 4]],
                    (3, 5) => &[&[0, 1], &[2, 3], &[4]],
                    _ => &[&[0, 1, 2, 3, 4][..nq]],
                };
                assert!(
                    ranges.contains(&panicked.as_slice()),
                    "{cell}: panicked slots {panicked:?} are not one lane's range"
                );
                let reference = column(config);
                for q in (0..nq).filter(|q| !panicked.contains(q)) {
                    let expect = whole(&reference, &m_in, &m_out, &qs[q]);
                    let got = slots[q].as_ref().expect("an untouched lane answers");
                    assert_eq!(bits(&got.o), bits(&expect.o), "{cell} q{q}");
                }

                // The engine and the very same scratch stay serviceable:
                // the next pass is bitwise identical to the reference.
                for (q, slot) in ask(&mut scratch).into_iter().enumerate() {
                    let expect = whole(&reference, &m_in, &m_out, &qs[q]);
                    let retry = slot.expect("post-panic pass");
                    assert_eq!(bits(&retry.o), bits(&expect.o), "{cell} retry q{q}");
                }
            }
        }
    }
}

#[test]
fn panicking_worker_on_the_quant_plane_restores_the_scratch() {
    let _guard = lock();
    let (m_in, m_out, u) = memories(80, 8, 41);
    let (q_in, q_out) = (quantize(&m_in), quantize(&m_out));
    let plan = SegmentPlan::unsegmented(80);
    let config = MnnFastConfig::new(8).with_threads(2);
    let parallel = ExecPlan::new(config)
        .with_kind(EngineKind::Parallel)
        .executor();
    let column = ExecPlan::new(config)
        .with_kind(EngineKind::Column)
        .executor();
    let mut scratch = Scratch::new();
    let mut trace = Trace::disabled();

    fault::arm(FaultKind::PanicChunk, 0, 1);
    let err = with_quiet_panics(|| {
        parallel.forward(
            MemView::from((&q_in, &q_out)),
            Route::Plan(&plan),
            &u,
            &mut scratch,
            &mut trace,
            &Budget::unlimited(),
        )
    })
    .unwrap_err();
    fault::disarm();
    assert_eq!(err, EngineError::WorkerPanicked);

    // The early return restored the quantized-query buffer into the
    // scratch, so the retry on the same scratch matches the sequential
    // quantized reference bit for bit.
    let reference = column
        .forward(
            MemView::from((&q_in, &q_out)),
            Route::Plan(&plan),
            &u,
            &mut Scratch::new(),
            &mut trace,
            &Budget::unlimited(),
        )
        .unwrap();
    let retry = parallel
        .forward(
            MemView::from((&q_in, &q_out)),
            Route::Plan(&plan),
            &u,
            &mut scratch,
            &mut trace,
            &Budget::unlimited(),
        )
        .unwrap();
    let same = retry
        .o
        .iter()
        .zip(&reference.o)
        .all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(same, "post-panic quant pass must match the reference");
}

#[test]
fn nan_chunk_in_a_two_worker_batch_poisons_exactly_one_question() {
    let _guard = lock();
    let (m_in, m_out, _) = memories(96, 8, 57);
    let questions: Vec<Vec<f32>> = (0..5).map(|q| memories(1, 8, 100 + q).2).collect();
    for mode in [SoftmaxMode::Lazy, SoftmaxMode::Online] {
        // 96 rows clear the two-thread floor (2 x chunk 8 x 2), so the
        // batch splits into question ranges [0, 1, 2] and [3, 4].
        let config = MnnFastConfig::new(8).with_threads(2).with_softmax(mode);
        let budgets = vec![Budget::unlimited(); questions.len()];
        fault::arm(FaultKind::NanLogit, 7, 1);
        let results = ExecPlan::new(config)
            .executor()
            .forward_batch(
                MemView::from((&m_in, &m_out)),
                Route::Plan(&SegmentPlan::unsegmented(96)),
                &questions,
                &mut Scratch::new(),
                &mut Trace::disabled(),
                &budgets,
            )
            .unwrap();
        let fires = fault::fired();
        fault::disarm();
        assert_eq!(fires, 1, "{mode:?}");

        let poisoned: Vec<usize> = (0..questions.len())
            .filter(|&q| results[q].is_err())
            .collect();
        assert_eq!(poisoned.len(), 1, "{mode:?}: {results:?}");
        assert!(matches!(
            results[poisoned[0]],
            Err(EngineError::NumericFault { .. })
        ));
        // Everyone else got the bits a lone, unfaulted ask gets.
        let single = column(config);
        for q in (0..questions.len()).filter(|q| !poisoned.contains(q)) {
            let expect = whole(&single, &m_in, &m_out, &questions[q]);
            assert_eq!(results[q].as_ref().unwrap().o, expect.o, "{mode:?} q{q}");
        }
    }
}

/// The worker team survives its panics: on one scratch at threads 3,
/// fifty rounds alternate a pass with one chunk panic armed (landing on a
/// different chunk, so a different lane, each round; one question on a
/// chunk split, five on a question split) with a clean pass. Every
/// faulted pass reports `WorkerPanicked` in the slots of the lane that
/// drew the fault and answers the rest bitwise; every clean pass is
/// bitwise the Column oracle; and the team keeps its two workers
/// throughout.
#[test]
fn the_team_serves_clean_passes_between_panics() {
    let _guard = lock();
    let (m_in, m_out, _) = memories(96, 8, 57);
    let questions: Vec<Vec<f32>> = (0..5).map(|q| memories(1, 8, 500 + q).2).collect();
    let view = MemView::from((&m_in, &m_out));
    let plan = SegmentPlan::unsegmented(96);
    let bits = |o: &[f32]| o.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let config = MnnFastConfig::new(8).with_threads(3);
    let exec = ExecPlan::new(config).executor();
    let reference = column(config);
    let oracle: Vec<Vec<u32>> = questions
        .iter()
        .map(|u| bits(&whole(&reference, &m_in, &m_out, u).o))
        .collect();
    let budgets = vec![Budget::unlimited(); 5];
    let mut scratch = Scratch::new();
    let mut trace = Trace::disabled();
    let mut ask = |scratch: &mut Scratch, nq: usize| {
        exec.forward_batch(
            view,
            Route::Plan(&plan),
            &questions[..nq],
            scratch,
            &mut trace,
            &budgets[..nq],
        )
        .unwrap()
    };
    for round in 0..50u64 {
        let nq = if round % 2 == 0 { 1 } else { 5 };
        fault::arm(FaultKind::PanicChunk, round % 12, 1);
        let slots = with_quiet_panics(|| ask(&mut scratch, nq));
        let fires = fault::fired();
        fault::disarm();
        assert_eq!(fires, 1, "round {round}: one chunk kernel panicked");
        let mut panicked = 0;
        for (q, slot) in slots.iter().enumerate() {
            match slot {
                Err(EngineError::WorkerPanicked) => panicked += 1,
                Ok(out) => assert_eq!(bits(&out.o), oracle[q], "round {round} q{q}"),
                Err(e) => panic!("round {round} q{q}: {e:?}"),
            }
        }
        assert!(panicked > 0, "round {round}: the fault reached a slot");

        for (q, slot) in ask(&mut scratch, nq).into_iter().enumerate() {
            let out = slot.expect("a clean pass answers");
            assert_eq!(bits(&out.o), oracle[q], "round {round} clean q{q}");
        }
        assert_eq!(scratch.team().threads(), 3, "round {round}");
    }
}
