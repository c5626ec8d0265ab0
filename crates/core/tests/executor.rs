//! Integration tests of the unified execution layer: every
//! [`EngineKind`] must agree bit-for-bit, reject bad prefixes with the
//! same error, and account its wall time honestly in the [`Trace`].

use mnn_tensor::Matrix;
use mnnfast::{
    Budget, EngineError, EngineKind, ExecPlan, MemView, MnnFastConfig, Phase, PlanExecutor, Route,
    Scratch, SegmentPlan, SkipPolicy, SoftmaxMode, Trace,
};
use proptest::prelude::*;

mod lattice;

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

/// One forward pass over the first `rows` rows with caller-provided
/// scratch and trace.
fn forward_prefix(
    exec: &PlanExecutor,
    m_in: &Matrix,
    m_out: &Matrix,
    rows: usize,
    u: &[f32],
    scratch: &mut Scratch,
    trace: &mut Trace,
) -> Result<mnnfast::ColumnOutput, EngineError> {
    exec.forward(
        MemView::F32 { m_in, m_out },
        Route::Plan(&SegmentPlan::unsegmented(rows)),
        u,
        scratch,
        trace,
        &Budget::unlimited(),
    )
}

/// One forward pass through an executor with a caller-provided scratch.
fn run(
    exec: &PlanExecutor,
    m_in: &Matrix,
    m_out: &Matrix,
    u: &[f32],
    scratch: &mut Scratch,
) -> Vec<f32> {
    let mut trace = Trace::disabled();
    let out = forward_prefix(exec, m_in, m_out, m_in.rows(), u, scratch, &mut trace).unwrap();
    out.o
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole determinism property: the response vector `o` is
    /// bitwise identical across `EngineKind::{Column, Parallel, Auto}`
    /// and thread counts {1, 2, 4}, for both softmax formulations, with and
    /// without zero-skip, and across repeated runs reusing one `Scratch`.
    #[test]
    fn o_is_bitwise_identical_across_kinds_threads_and_reruns(
        ns in 1usize..160,
        ed in 1usize..12,
        chunk in 1usize..40,
        seed in any::<u64>(),
    ) {
        // One scratch for every engine and every run: reuse must not
        // perturb results.
        let mut scratch = Scratch::new();
        for mode in [SoftmaxMode::Lazy, SoftmaxMode::Online] {
            for skip in [SkipPolicy::None, SkipPolicy::Probability(0.01)] {
                let config = MnnFastConfig::new(chunk)
                    .with_softmax(mode)
                    .with_skip(skip);
                let (m_in, m_out, u) = memories(ns, ed, seed);
                let column = ExecPlan::new(config)
                    .with_kind(EngineKind::Column)
                    .executor();
                let reference = run(&column, &m_in, &m_out, &u, &mut scratch);
                let rerun = run(&column, &m_in, &m_out, &u, &mut scratch);
                prop_assert_eq!(&rerun, &reference, "column rerun diverged");
                for kind in [EngineKind::Parallel, EngineKind::Auto] {
                    for threads in [1usize, 2, 4] {
                        let exec = ExecPlan::new(config.with_threads(threads))
                            .with_kind(kind)
                            .executor();
                        let once = run(&exec, &m_in, &m_out, &u, &mut scratch);
                        prop_assert_eq!(
                            &once, &reference,
                            "{:?} x{} {:?} {:?}", kind, threads, mode, skip
                        );
                        let again = run(&exec, &m_in, &m_out, &u, &mut scratch);
                        prop_assert_eq!(&again, &reference,
                            "{:?} x{} rerun diverged", kind, threads);
                    }
                }
            }
        }
    }
}

#[test]
fn rows_beyond_memory_is_a_shape_error_for_every_kind() {
    let (m_in, m_out, u) = memories(8, 4, 7);
    let mut scratch = Scratch::new();
    let mut trace = Trace::disabled();
    for kind in [EngineKind::Auto, EngineKind::Column, EngineKind::Parallel] {
        let exec = ExecPlan::new(MnnFastConfig::new(4).with_threads(2))
            .with_kind(kind)
            .executor();
        let err =
            forward_prefix(&exec, &m_in, &m_out, 9, &u, &mut scratch, &mut trace).unwrap_err();
        assert!(
            matches!(err, EngineError::Shape(_)),
            "{kind:?}: expected a shape error, got {err:?}"
        );
        // The bound itself is still fine.
        let ok = forward_prefix(&exec, &m_in, &m_out, 8, &u, &mut scratch, &mut trace).unwrap();
        assert_eq!(ok.o.len(), 4);
        scratch.recycle(ok.o);
    }
}

/// Phase wall-times must account for (nearly) all of the forward latency:
/// the sum of per-phase nanos is bounded by the wall time and covers at
/// least half of it on a compute-dominated pass. Best-of-three to ride out
/// scheduler noise.
#[test]
fn trace_phase_times_sum_close_to_total_latency() {
    let (m_in, m_out, u) = memories(20_000, 48, 11);
    let exec = ExecPlan::new(MnnFastConfig::new(512))
        .with_kind(EngineKind::Column)
        .executor();
    let mut scratch = Scratch::new();
    // Warm-up growth pass.
    let mut warm = Trace::enabled();
    let out = forward_prefix(
        &exec,
        &m_in,
        &m_out,
        m_in.rows(),
        &u,
        &mut scratch,
        &mut warm,
    )
    .unwrap();
    scratch.recycle(out.o);

    let mut last = (0u64, 0u64);
    for _ in 0..3 {
        let mut trace = Trace::enabled();
        let started = std::time::Instant::now();
        let out = forward_prefix(
            &exec,
            &m_in,
            &m_out,
            m_in.rows(),
            &u,
            &mut scratch,
            &mut trace,
        )
        .unwrap();
        let wall = started.elapsed().as_nanos() as u64;
        scratch.recycle(out.o);
        let sum = trace.total_nanos();
        assert!(sum > 0, "phases recorded no time");
        assert!(
            trace.nanos(Phase::FusedChunk) > 0 && trace.nanos(Phase::Merge) > 0,
            "expected fused-chunk and merge time"
        );
        last = (sum, wall);
        // Phases are disjoint sub-intervals of the pass, so their sum can
        // only trail the wall time; require they cover most of it.
        if sum <= wall && sum * 2 >= wall {
            return;
        }
    }
    panic!(
        "phase sum {} vs wall {}: tracing does not account for the pass",
        last.0, last.1
    );
}

/// One configured thread is a budget, not a hint: over a working set far
/// larger than the caches an `Auto` plan still resolves to the inline walk
/// and answers with the column engine's bits.
#[test]
fn auto_on_one_thread_stays_on_that_thread() {
    // 2 x 40_000 x 32 x 4 B = 10 MiB.
    let (m_in, m_out, u) = memories(40_000, 32, 29);
    let config = MnnFastConfig::new(256);
    assert_eq!(config.threads, 1);
    let auto = ExecPlan::new(config);
    assert_eq!(auto.resolve(m_in.rows(), u.len()), EngineKind::Column);

    let column = ExecPlan::new(config).with_kind(EngineKind::Column);
    let mut scratch = Scratch::new();
    assert_eq!(
        run(&auto.executor(), &m_in, &m_out, &u, &mut scratch),
        run(&column.executor(), &m_in, &m_out, &u, &mut scratch)
    );
}

/// The one generated parity lattice (see [`lattice`]): every engine, thread
/// count, memory plane, softmax, skip policy, route, entry point and batch
/// size against the (Column, one thread, unsegmented, `forward`) oracle,
/// bit for bit — and every f32 answer of that oracle against the two-pass
/// reference.
#[test]
fn every_lattice_cell_matches_the_column_oracle() {
    let (cells, referenced) = lattice::run(&lattice::FULL);
    assert!(cells >= 3_360, "lattice shrank to {cells} cells");
    assert!(
        referenced >= 1_160,
        "{referenced} oracle answers referenced"
    );
}

/// The lattice has no Probability axis (its threshold pre-pass sweeps the
/// whole memory, which top-K routes refuse), so the Column walk meets the
/// two-pass reference on the Probability policy here, beside the other two.
#[test]
fn column_walk_matches_the_two_pass_reference_on_every_skip_policy() {
    let m_in = Matrix::from_fn(97, 8, |r, c| ((r * 13 + c * 7) as f32 * 0.37).sin() * 0.8);
    let m_out = Matrix::from_fn(97, 8, |r, c| ((r * 5 + c * 11) as f32 * 0.21).cos() * 0.6);
    let u: Vec<f32> = (0..8).map(|i| (i as f32 * 0.3).sin()).collect();
    let whole = SegmentPlan::unsegmented(m_in.rows());
    for (skip, softmax) in [
        (SkipPolicy::None, SoftmaxMode::Lazy),
        (SkipPolicy::None, SoftmaxMode::Online),
        (SkipPolicy::RawWeight(0.9), SoftmaxMode::Lazy),
        (SkipPolicy::RawWeight(0.9), SoftmaxMode::Online),
        (SkipPolicy::Probability(0.01), SoftmaxMode::Lazy),
        (SkipPolicy::Probability(0.01), SoftmaxMode::Online),
    ] {
        let ctx = format!("{skip:?} {softmax:?}");
        let config = MnnFastConfig::new(16).with_skip(skip).with_softmax(softmax);
        let view = MemView::from((&m_in, &m_out));
        let out = lattice::pass(&lattice::column(config), view, Route::Plan(&whole), &u);
        if skip != SkipPolicy::None {
            assert!(
                out.stats.rows_skipped > 0,
                "{ctx}: the threshold must skip rows"
            );
        }
        lattice::check_reference(config, &m_in, &m_out, &u, &out, &ctx);
    }
}

/// The six `#[doc(hidden)]` `multi_hop_*` names are the frozen benchmark's
/// ABI (perfbench imports them and cannot be edited alongside the engines):
/// each must stay exactly its `multi_hop` / `multi_hop_batch` call.
#[test]
fn benchmark_abi_forwards_match_the_two_hop_loops() {
    use mnnfast::{multi_hop, multi_hop_batch, ClusterIndex, HopsOutput};
    fn bits(out: &HopsOutput) -> (Vec<u32>, Vec<u32>, mnnfast::InferenceStats) {
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect();
        (bits(&out.o), bits(&out.u_final), out.stats)
    }
    let (ns, ed, hops, topk, nprobe) = (203, 8, 2, 16, 2);
    let m_in = Matrix::from_fn(ns, ed, |r, c| {
        (r * 4 / ns) as f32 * 1.5 + ((r * 13 + c * 7) as f32 * 0.17).sin() * 0.2
    });
    let m_out = Matrix::from_fn(ns, ed, |r, c| ((r + 2 * c) as f32 * 0.07).cos() * 0.5);
    let (q_in, q_out) = (
        mnn_tensor::QuantMatrix::from_matrix(&m_in),
        mnn_tensor::QuantMatrix::from_matrix(&m_out),
    );
    let index = ClusterIndex::build(&m_in, ns, 1);
    let us: Vec<Vec<f32>> = (0..3)
        .map(|q| {
            (0..ed)
                .map(|i| ((q * 7 + i) as f32 * 0.31).sin() * 0.4 + 0.3)
                .collect()
        })
        .collect();
    let exec = ExecPlan::new(MnnFastConfig::new(16).with_threads(2)).executor();
    let map = mnnfast::SegmentMap::from_matrix(&m_in, ns, 3, 16);
    let plan = SegmentPlan::routed(&map, true);
    let (f32_view, int8_view) = (
        MemView::from((&m_in, &m_out)),
        MemView::from((&q_in, &q_out)),
    );
    let top = Route::TopK {
        index: &index,
        topk,
        nprobe,
    };
    let (s, t, b) = (
        &mut Scratch::new(),
        &mut Trace::disabled(),
        Budget::unlimited(),
    );
    let bs = vec![Budget::unlimited(); us.len()];
    let u = &us[0];

    let abi = mnnfast::multi_hop_segmented_budgeted(&exec, &m_in, &m_out, &plan, u, hops, s, t, &b);
    let new = multi_hop(&exec, f32_view, Route::Plan(&plan), u, hops, s, t, &b);
    assert_eq!(bits(&abi.unwrap()), bits(&new.unwrap()));
    let abi =
        mnnfast::multi_hop_quant_segmented_budgeted(&exec, &q_in, &q_out, &plan, u, hops, s, t, &b);
    let new = multi_hop(&exec, int8_view, Route::Plan(&plan), u, hops, s, t, &b);
    assert_eq!(bits(&abi.unwrap()), bits(&new.unwrap()));
    let abi = mnnfast::multi_hop_topk_segmented_budgeted(
        &exec, &m_in, &m_out, &index, u, hops, topk, nprobe, s, t, &b,
    );
    let new = multi_hop(&exec, f32_view, top, u, hops, s, t, &b);
    assert_eq!(bits(&abi.unwrap()), bits(&new.unwrap()));
    let abi = mnnfast::multi_hop_quant_topk_segmented_budgeted(
        &exec, &q_in, &q_out, &index, u, hops, topk, nprobe, s, t, &b,
    );
    let new = multi_hop(&exec, int8_view, top, u, hops, s, t, &b);
    assert_eq!(bits(&abi.unwrap()), bits(&new.unwrap()));
    let abi = mnnfast::multi_hop_batch_segmented_budgeted(
        &exec, &m_in, &m_out, &plan, &us, hops, s, t, &bs,
    );
    let new = multi_hop_batch(&exec, f32_view, Route::Plan(&plan), &us, hops, s, t, &bs);
    for (abi, new) in abi.unwrap().iter().zip(&new.unwrap()) {
        assert_eq!(bits(abi.as_ref().unwrap()), bits(new.as_ref().unwrap()));
    }
    let abi = mnnfast::multi_hop_quant_batch_segmented_budgeted(
        &exec, &q_in, &q_out, &plan, &us, hops, s, t, &bs,
    );
    let new = multi_hop_batch(&exec, int8_view, Route::Plan(&plan), &us, hops, s, t, &bs);
    for (abi, new) in abi.unwrap().iter().zip(&new.unwrap()) {
        assert_eq!(bits(abi.as_ref().unwrap()), bits(new.as_ref().unwrap()));
    }
}
