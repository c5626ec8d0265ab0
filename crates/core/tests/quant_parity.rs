//! Int8 quantized plane: cross-engine bitwise identity and f32 closeness.
//!
//! The quantized path has a two-part contract. First, like the f32 plane,
//! every engine variant folds the same chunk partials in the same global
//! order — so Column, Parallel, Auto, and the batch
//! engine must agree *bitwise* with each other, across segment counts and
//! pruning settings. (The quant kernels are exact integer dots followed by
//! one scale multiply, and the fused path uses the shared polynomial exp on
//! every backend, so unlike f32 this identity also holds across SIMD
//! backends.) Second, the quantized answers must track the f32 answers
//! within the published per-logit error bound, loosened for the softmax
//! mixing step.

use mnn_tensor::{Matrix, QuantMatrix};
use mnnfast::{
    multi_hop, multi_hop_batch, Budget, ColumnEngine, ColumnOutput, EngineKind, ExecPlan, Executor,
    MemView, MnnFastConfig, PlanExecutor, Route, Scratch, SegmentMap, SegmentPlan, SkipPolicy,
    SoftmaxMode, Trace,
};

/// The plan-built executor pinned to the scale-out walk.
fn parallel(config: MnnFastConfig) -> PlanExecutor {
    ExecPlan::new(config)
        .with_kind(EngineKind::Parallel)
        .executor()
}

fn memories(ns: usize, ed: usize) -> (Matrix, Matrix, Vec<f32>) {
    let m_in = Matrix::from_fn(ns, ed, |r, c| ((r * 7 + c * 3) as f32 * 0.11).sin() * 0.6);
    let m_out = Matrix::from_fn(ns, ed, |r, c| ((r * 3 + c * 5) as f32 * 0.07).cos() * 0.6);
    let u: Vec<f32> = (0..ed)
        .map(|i| ((i * 2) as f32 * 0.23).sin() * 0.5)
        .collect();
    (m_in, m_out, u)
}

/// Attention mass concentrated in one early row, so zone-map pruning fires
/// once segment 0 has been folded. Magnitudes kept small enough that the
/// online-softmax shifted exponentials stay finite.
fn skewed_memories(ns: usize, ed: usize) -> (Matrix, Matrix, Vec<f32>) {
    let m_in = Matrix::from_fn(ns, ed, |r, c| {
        if r == 3 {
            if c == 0 {
                12.0
            } else {
                0.01
            }
        } else {
            ((r * 7 + c) as f32 * 0.13).sin() * 0.02
        }
    });
    let m_out = Matrix::from_fn(ns, ed, |r, c| ((r + 2 * c) as f32 * 0.09).cos() * 0.5);
    let mut u = vec![0.0f32; ed];
    u[0] = 12.0;
    u[1] = 0.3;
    (m_in, m_out, u)
}

fn assert_bitwise(a: &ColumnOutput, b: &ColumnOutput, what: &str) {
    assert_eq!(
        a.denominator.to_bits(),
        b.denominator.to_bits(),
        "{what}: denominator"
    );
    assert_eq!(a.o.len(), b.o.len(), "{what}: length");
    for (i, (x, y)) in a.o.iter().zip(&b.o).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: o[{i}] {x} vs {y}");
    }
}

fn run_quant(
    exec: &dyn Executor,
    q_in: &QuantMatrix,
    q_out: &QuantMatrix,
    plan: &SegmentPlan<'_>,
    u: &[f32],
) -> ColumnOutput {
    let mut scratch = Scratch::new();
    let mut trace = Trace::enabled();
    exec.forward(
        MemView::from((q_in, q_out)),
        Route::Plan(plan),
        u,
        &mut scratch,
        &mut trace,
        &Budget::unlimited(),
    )
    .unwrap()
}

#[test]
fn quant_engines_agree_bitwise_across_segments() {
    let (m_in, m_out, u) = memories(230, 8);
    let q_in = QuantMatrix::from_matrix(&m_in);
    let q_out = QuantMatrix::from_matrix(&m_out);
    let chunk = 16usize;
    for mode in [SoftmaxMode::Lazy, SoftmaxMode::Online] {
        for skip in [SkipPolicy::None, SkipPolicy::Probability(0.004)] {
            let config = MnnFastConfig::new(chunk).with_softmax(mode).with_skip(skip);
            let plan_exec = ExecPlan::new(config.with_threads(3))
                .with_kind(EngineKind::Auto)
                .executor();
            let executors: [(&str, &dyn Executor); 3] = [
                ("column", &ColumnEngine::new(config)),
                ("parallel", &parallel(config.with_threads(4))),
                ("plan", &plan_exec),
            ];
            let base_plan = SegmentPlan::unsegmented(q_in.rows());
            let base = run_quant(&ColumnEngine::new(config), &q_in, &q_out, &base_plan, &u);
            for (name, exec) in executors {
                for n_segments in [1usize, 3, 8, 17] {
                    let map = SegmentMap::from_matrix(&m_in, m_in.rows(), n_segments, chunk);
                    for prune in [false, true] {
                        let plan = SegmentPlan::routed(&map, prune);
                        let seg = run_quant(exec, &q_in, &q_out, &plan, &u);
                        assert_bitwise(
                            &seg,
                            &base,
                            &format!("{name} {mode:?} {skip:?} N={n_segments} prune={prune}"),
                        );
                        assert_eq!(seg.stats.rows_total + seg.stats.rows_pruned, 230);
                    }
                }
            }
        }
    }
}

#[test]
fn quant_tracks_f32_within_loose_bound() {
    // Per-logit error is bounded by I8_LOGIT_MAX_REL_ERROR; after softmax
    // mixing the output components inherit an error of the same order. The
    // assertion is deliberately loose (5x the logit bound, relative to the
    // output's infinity norm) — this is a sanity net, the tight per-logit
    // bound is property-tested in the tensor crate.
    let (m_in, m_out, u) = memories(230, 8);
    let q_in = QuantMatrix::from_matrix(&m_in);
    let q_out = QuantMatrix::from_matrix(&m_out);
    let chunk = 16usize;
    for mode in [SoftmaxMode::Lazy, SoftmaxMode::Online] {
        let config = MnnFastConfig::new(chunk).with_softmax(mode);
        let exec: &dyn Executor = &ColumnEngine::new(config);
        let mut scratch = Scratch::new();
        let mut trace = Trace::enabled();
        let f32_out = exec
            .forward(
                MemView::from((&m_in, &m_out)),
                Route::Plan(&SegmentPlan::unsegmented(m_in.rows())),
                &u,
                &mut scratch,
                &mut trace,
                &Budget::unlimited(),
            )
            .unwrap();
        let plan = SegmentPlan::unsegmented(q_in.rows());
        let q = run_quant(exec, &q_in, &q_out, &plan, &u);
        let norm = f32_out
            .o
            .iter()
            .fold(0.0f32, |m, &x| m.max(x.abs()))
            .max(1e-6);
        let tol = 5.0 * mnn_tensor::simd::I8_LOGIT_MAX_REL_ERROR;
        for (i, (a, b)) in q.o.iter().zip(&f32_out.o).enumerate() {
            let rel = (a - b).abs() / norm;
            assert!(
                rel <= tol,
                "{mode:?}: o[{i}] quant {a} vs f32 {b} rel {rel:e} > {tol:e}"
            );
        }
    }
}

#[test]
fn quant_memory_traffic_is_a_fraction_of_f32() {
    // Each quantized row moves ed + 4 bytes (i8 codes plus one f32 scale)
    // against ed * 4 for f32 — at ed = 8 that is 12/32 = 0.375 of the
    // traffic, converging to 1/4 as ed grows.
    let (m_in, m_out, u) = memories(230, 8);
    let q_in = QuantMatrix::from_matrix(&m_in);
    let q_out = QuantMatrix::from_matrix(&m_out);
    let config = MnnFastConfig::new(16).with_softmax(SoftmaxMode::Lazy);
    let exec: &dyn Executor = &ColumnEngine::new(config);
    let mut scratch = Scratch::new();
    let mut trace = Trace::enabled();
    let f32_out = exec
        .forward(
            MemView::from((&m_in, &m_out)),
            Route::Plan(&SegmentPlan::unsegmented(m_in.rows())),
            &u,
            &mut scratch,
            &mut trace,
            &Budget::unlimited(),
        )
        .unwrap();
    let plan = SegmentPlan::unsegmented(q_in.rows());
    let q = run_quant(exec, &q_in, &q_out, &plan, &u);
    assert!(q.stats.memory_bytes > 0);
    let ratio = q.stats.memory_bytes as f64 / f32_out.stats.memory_bytes as f64;
    assert!(
        (0.2..0.45).contains(&ratio),
        "quant moved {} bytes vs f32 {} (ratio {ratio:.3}, expected ~0.375)",
        q.stats.memory_bytes,
        f32_out.stats.memory_bytes
    );
}

#[test]
fn quant_pruning_fires_on_skewed_memories_and_stays_bitwise() {
    let (m_in, m_out, u) = skewed_memories(170, 8);
    let q_in = QuantMatrix::from_matrix(&m_in);
    let q_out = QuantMatrix::from_matrix(&m_out);
    let chunk = 16usize;
    let config = MnnFastConfig::new(chunk).with_softmax(SoftmaxMode::Online);
    let executors: [(&str, &dyn Executor); 2] = [
        ("column", &ColumnEngine::new(config)),
        ("parallel", &parallel(config.with_threads(4))),
    ];
    let map = SegmentMap::from_matrix(&m_in, m_in.rows(), 8, chunk);
    let base_plan = SegmentPlan::unsegmented(q_in.rows());
    for (name, exec) in executors {
        let base = run_quant(exec, &q_in, &q_out, &base_plan, &u);
        let plan = SegmentPlan::routed(&map, true);
        let seg = run_quant(exec, &q_in, &q_out, &plan, &u);
        assert!(
            seg.stats.segments_pruned > 0,
            "{name}: expected quant pruning to fire, visited all {} segments",
            seg.stats.segments_total
        );
        assert!(seg.stats.rows_pruned > 0, "{name}");
        assert_bitwise(&seg, &base, &format!("{name} quant pruned run"));
    }
}

#[test]
fn batch_quant_matches_single_question_quant_bitwise() {
    let (m_in, m_out, _) = memories(190, 8);
    let q_in = QuantMatrix::from_matrix(&m_in);
    let q_out = QuantMatrix::from_matrix(&m_out);
    let questions: Vec<Vec<f32>> = (0..4)
        .map(|q| {
            (0..8)
                .map(|i| ((q * 8 + i) as f32 * 0.17).sin() * 0.5)
                .collect()
        })
        .collect();
    let chunk = 16usize;
    for mode in [SoftmaxMode::Lazy, SoftmaxMode::Online] {
        let config = MnnFastConfig::new(chunk).with_softmax(mode);
        let engine = ExecPlan::new(config).executor();
        let column = ColumnEngine::new(config);
        for n_segments in [1usize, 4, 9] {
            let map = SegmentMap::from_matrix(&m_in, m_in.rows(), n_segments, chunk);
            for prune in [false, true] {
                let plan = SegmentPlan::routed(&map, prune);
                for nq in [1usize, 2, 4] {
                    let qs = &questions[..nq];
                    let budgets = vec![Budget::unlimited(); nq];
                    let mut scratch = Scratch::new();
                    let mut trace = Trace::enabled();
                    let batch = engine
                        .forward_batch(
                            MemView::from((&q_in, &q_out)),
                            Route::Plan(&plan),
                            qs,
                            &mut scratch,
                            &mut trace,
                            &budgets,
                        )
                        .unwrap();
                    for (q, out) in batch.iter().enumerate() {
                        let single = run_quant(&column, &q_in, &q_out, &plan, &qs[q]);
                        assert_bitwise(
                            out.as_ref().unwrap(),
                            &single,
                            &format!("batch q{q}/{nq} {mode:?} N={n_segments} prune={prune}"),
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn plan_executor_batch_quant_matches_across_splits() {
    let (m_in, m_out, _) = memories(150, 8);
    let q_in = QuantMatrix::from_matrix(&m_in);
    let q_out = QuantMatrix::from_matrix(&m_out);
    let questions: Vec<Vec<f32>> = (0..3)
        .map(|q| {
            (0..8)
                .map(|i| ((q * 5 + i) as f32 * 0.19).sin() * 0.4)
                .collect()
        })
        .collect();
    let config = MnnFastConfig::new(16).with_softmax(SoftmaxMode::Online);
    let plan_exec = ExecPlan::new(config).executor();
    let map = SegmentMap::from_matrix(&m_in, m_in.rows(), 4, 16);
    let plan = SegmentPlan::routed(&map, true);
    let budgets = vec![Budget::unlimited(); 3];
    let mut scratch = Scratch::new();
    let mut trace = Trace::enabled();
    let via_plan = plan_exec
        .forward_batch(
            MemView::from((&q_in, &q_out)),
            Route::Plan(&plan),
            &questions,
            &mut scratch,
            &mut trace,
            &budgets,
        )
        .unwrap();
    // Two threads split the three questions by range, four split every
    // segment's chunks: neither may move a bit.
    for threads in [2usize, 4] {
        let direct = ExecPlan::new(config.with_threads(threads))
            .with_kind(EngineKind::Parallel)
            .executor()
            .forward_batch(
                MemView::from((&q_in, &q_out)),
                Route::Plan(&plan),
                &questions,
                &mut scratch,
                &mut trace,
                &budgets,
            )
            .unwrap();
        for (q, (a, b)) in via_plan.iter().zip(&direct).enumerate() {
            assert_bitwise(
                a.as_ref().unwrap(),
                b.as_ref().unwrap(),
                &format!("plan-executor batch q{q} x{threads}"),
            );
        }
    }
}

#[test]
fn quant_multi_hop_agrees_across_engines_bitwise() {
    let (m_in, m_out, u) = memories(120, 8);
    let q_in = QuantMatrix::from_matrix(&m_in);
    let q_out = QuantMatrix::from_matrix(&m_out);
    let chunk = 16usize;
    let config = MnnFastConfig::new(chunk).with_softmax(SoftmaxMode::Online);
    let map = SegmentMap::from_matrix(&m_in, m_in.rows(), 4, chunk);
    let plan = SegmentPlan::routed(&map, true);
    let column = ColumnEngine::new(config);
    let parallel = parallel(config.with_threads(3));
    let mut hop_outs = Vec::new();
    for exec in [&column as &dyn Executor, &parallel] {
        let mut scratch = Scratch::new();
        let mut trace = Trace::enabled();
        let hops = multi_hop(
            exec,
            MemView::from((&q_in, &q_out)),
            Route::Plan(&plan),
            &u,
            3,
            &mut scratch,
            &mut trace,
            &Budget::unlimited(),
        )
        .unwrap();
        assert_eq!(hops.stats.segments_total, 3 * map.len() as u64);
        hop_outs.push(hops);
    }
    for (i, (a, b)) in hop_outs[0]
        .u_final
        .iter()
        .zip(&hop_outs[1].u_final)
        .enumerate()
    {
        assert_eq!(a.to_bits(), b.to_bits(), "hops u_final[{i}]");
    }
}

#[test]
fn quant_batch_hops_match_single_question_hops_bitwise() {
    let (m_in, m_out, _) = memories(120, 8);
    let q_in = QuantMatrix::from_matrix(&m_in);
    let q_out = QuantMatrix::from_matrix(&m_out);
    let questions: Vec<Vec<f32>> = (0..3)
        .map(|q| {
            (0..8)
                .map(|i| ((q * 3 + i) as f32 * 0.21).sin() * 0.4)
                .collect()
        })
        .collect();
    let config = MnnFastConfig::new(16).with_softmax(SoftmaxMode::Online);
    let exec = ExecPlan::new(config).executor();
    let map = SegmentMap::from_matrix(&m_in, m_in.rows(), 4, 16);
    let plan = SegmentPlan::routed(&map, true);
    let budgets = vec![Budget::unlimited(); 3];
    let mut scratch = Scratch::new();
    let mut trace = Trace::enabled();
    let batch = multi_hop_batch(
        &exec,
        MemView::from((&q_in, &q_out)),
        Route::Plan(&plan),
        &questions,
        2,
        &mut scratch,
        &mut trace,
        &budgets,
    )
    .unwrap();
    for (q, out) in batch.iter().enumerate() {
        let single = multi_hop(
            &exec,
            MemView::from((&q_in, &q_out)),
            Route::Plan(&plan),
            &questions[q],
            2,
            &mut scratch,
            &mut trace,
            &Budget::unlimited(),
        )
        .unwrap();
        let out = out.as_ref().unwrap();
        for (i, (a, b)) in out.u_final.iter().zip(&single.u_final).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "batch hop q{q} u_final[{i}]");
        }
    }
}

#[test]
fn non_finite_query_is_a_numeric_fault_not_garbage() {
    let (m_in, m_out, mut u) = memories(64, 8);
    let q_in = QuantMatrix::from_matrix(&m_in);
    let q_out = QuantMatrix::from_matrix(&m_out);
    u[3] = f32::NAN;
    let exec: &dyn Executor = &ColumnEngine::new(MnnFastConfig::new(16));
    let mut scratch = Scratch::new();
    let mut trace = Trace::enabled();
    let plan = SegmentPlan::unsegmented(q_in.rows());
    let res = exec.forward(
        MemView::from((&q_in, &q_out)),
        Route::Plan(&plan),
        &u,
        &mut scratch,
        &mut trace,
        &Budget::unlimited(),
    );
    assert!(res.is_err(), "NaN query must surface as an engine error");
}

#[test]
fn quant_shape_mismatches_are_config_errors() {
    let (m_in, m_out, u) = memories(64, 8);
    let q_in = QuantMatrix::from_matrix(&m_in);
    let q_out_short = QuantMatrix::from_matrix_prefix(&m_out, 32);
    let exec: &dyn Executor = &ColumnEngine::new(MnnFastConfig::new(16));
    let mut scratch = Scratch::new();
    let mut trace = Trace::enabled();
    let plan = SegmentPlan::unsegmented(q_in.rows());
    let res = exec.forward(
        MemView::from((&q_in, &q_out_short)),
        Route::Plan(&plan),
        &u,
        &mut scratch,
        &mut trace,
        &Budget::unlimited(),
    );
    assert!(res.is_err(), "row-count mismatch must be rejected");
    let bad_u = vec![0.1f32; 5];
    let res = exec.forward(
        MemView::from((&q_in, &QuantMatrix::from_matrix(&m_out))),
        Route::Plan(&plan),
        &bad_u,
        &mut scratch,
        &mut trace,
        &Budget::unlimited(),
    );
    assert!(res.is_err(), "query-width mismatch must be rejected");
}
