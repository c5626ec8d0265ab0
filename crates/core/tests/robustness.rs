//! Robustness integration tests: every engine variant honors the
//! [`Budget`] once per chunk (deadlines and cooperative cancellation) and
//! converts non-finite accumulator state into [`EngineError::NumericFault`]
//! instead of propagating garbage.

use mnn_tensor::Matrix;
use mnnfast::{
    Budget, CancelToken, EngineError, EngineKind, ExecPlan, MemView, MnnFastConfig, Route, Scratch,
    SegmentPlan, SoftmaxMode, Trace,
};
use std::time::Duration;

/// Deterministic pseudo-random memories derived from a seed.
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

const KINDS: [EngineKind; 3] = [EngineKind::Column, EngineKind::Parallel, EngineKind::Auto];

fn run_budgeted(
    kind: EngineKind,
    m_in: &Matrix,
    m_out: &Matrix,
    u: &[f32],
    budget: &Budget,
) -> Result<Vec<f32>, EngineError> {
    let exec = ExecPlan::new(MnnFastConfig::new(8).with_threads(2))
        .with_kind(kind)
        .executor();
    let mut scratch = Scratch::new();
    let mut trace = Trace::disabled();
    exec.forward(
        MemView::F32 { m_in, m_out },
        Route::Plan(&SegmentPlan::unsegmented(m_in.rows())),
        u,
        &mut scratch,
        &mut trace,
        budget,
    )
    .map(|out| out.o)
}

#[test]
fn expired_deadline_fails_every_engine_kind() {
    let (m_in, m_out, u) = memories(64, 8, 7);
    for kind in KINDS {
        let budget = Budget::with_deadline(Duration::ZERO);
        let err = run_budgeted(kind, &m_in, &m_out, &u, &budget).unwrap_err();
        assert!(
            matches!(err, EngineError::DeadlineExceeded { .. }),
            "{kind:?}: expected DeadlineExceeded, got {err:?}"
        );
    }
}

#[test]
fn pre_cancelled_token_aborts_every_engine_kind() {
    let (m_in, m_out, u) = memories(64, 8, 11);
    for kind in KINDS {
        let token = CancelToken::new();
        token.cancel();
        let budget = Budget::unlimited().with_cancel(token);
        let err = run_budgeted(kind, &m_in, &m_out, &u, &budget).unwrap_err();
        assert_eq!(err, EngineError::Cancelled, "{kind:?}");
    }
}

#[test]
fn generous_budget_changes_nothing() {
    let (m_in, m_out, u) = memories(64, 8, 13);
    for kind in KINDS {
        let unlimited = run_budgeted(kind, &m_in, &m_out, &u, &Budget::unlimited()).unwrap();
        let budget = Budget::with_deadline(Duration::from_secs(3600));
        let bounded = run_budgeted(kind, &m_in, &m_out, &u, &budget).unwrap();
        assert_eq!(
            unlimited, bounded,
            "{kind:?}: budgeted run must be bitwise identical"
        );
    }
}

#[test]
fn nan_memory_yields_numeric_fault_not_garbage() {
    let (m_in, mut m_out, u) = memories(48, 8, 17);
    // Corrupt one output-memory row mid-memory: the weighted accumulation
    // `o += w · m_out[20]` poisons the response vector regardless of which
    // kernel backend computed the weights.
    m_out.row_mut(20)[3] = f32::NAN;
    for kind in KINDS {
        let err = run_budgeted(kind, &m_in, &m_out, &u, &Budget::unlimited()).unwrap_err();
        assert!(
            matches!(err, EngineError::NumericFault { .. }),
            "{kind:?}: expected NumericFault, got {err:?}"
        );
    }
}

#[test]
fn nan_memory_yields_numeric_fault_for_both_softmax_modes() {
    let (m_in, mut m_out, u) = memories(32, 8, 19);
    m_out.row_mut(5)[0] = f32::NAN;
    for mode in [SoftmaxMode::Lazy, SoftmaxMode::Online] {
        let exec = ExecPlan::new(MnnFastConfig::new(8).with_softmax(mode))
            .with_kind(EngineKind::Column)
            .executor();
        let mut scratch = Scratch::new();
        let mut trace = Trace::disabled();
        let err = exec
            .forward(
                MemView::from((&m_in, &m_out)),
                Route::Plan(&SegmentPlan::unsegmented(m_in.rows())),
                &u,
                &mut scratch,
                &mut trace,
                &Budget::unlimited(),
            )
            .unwrap_err();
        assert!(
            matches!(err, EngineError::NumericFault { .. }),
            "{mode:?}: expected NumericFault, got {err:?}"
        );
    }
}

#[test]
fn failed_run_leaves_scratch_reusable() {
    let (m_in, m_out, u) = memories(40, 8, 23);
    let exec = ExecPlan::new(MnnFastConfig::new(8))
        .with_kind(EngineKind::Column)
        .executor();
    let mut scratch = Scratch::new();
    let mut trace = Trace::disabled();

    let budget = Budget::with_deadline(Duration::ZERO);
    let err = exec
        .forward(
            MemView::from((&m_in, &m_out)),
            Route::Plan(&SegmentPlan::unsegmented(m_in.rows())),
            &u,
            &mut scratch,
            &mut trace,
            &budget,
        )
        .unwrap_err();
    assert!(matches!(err, EngineError::DeadlineExceeded { .. }));

    // The same scratch then produces the same output as a fresh one.
    let after_failure = exec
        .forward(
            MemView::from((&m_in, &m_out)),
            Route::Plan(&SegmentPlan::unsegmented(m_in.rows())),
            &u,
            &mut scratch,
            &mut trace,
            &Budget::unlimited(),
        )
        .unwrap();
    let fresh = exec
        .forward(
            MemView::from((&m_in, &m_out)),
            Route::Plan(&SegmentPlan::unsegmented(m_in.rows())),
            &u,
            &mut Scratch::new(),
            &mut trace,
            &Budget::unlimited(),
        )
        .unwrap();
    assert_eq!(after_failure.o, fresh.o);
}
