//! Segmented == unsegmented parity, bitwise.
//!
//! The segment plane's contract is that routing a forward pass through a
//! [`SegmentMap`] — any segment count, pruning on or off — changes
//! *nothing* about the answer: the same chunk partials fold in the same
//! global order and pruned segments contribute only exactly-zero terms.
//! Every assertion here is `to_bits` equality, not approximate.

use mnn_tensor::Matrix;
use mnnfast::{
    segment, Budget, ColumnOutput, EngineKind, ExecPlan, MemView, MnnFastConfig, PlanExecutor,
    Route, Scratch, SegmentMap, SegmentPlan, SkipPolicy, SoftmaxMode, Trace,
};

mod lattice;

use lattice::column;

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

/// A memory whose attention mass is concentrated in one early row: row 3
/// is a high-norm spike aligned with the query, every other row is tiny,
/// so once segment 0 has been folded the zone-map upper bounds of the
/// remaining segments sit far below the running max and pruning fires.
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

fn run_segmented(
    exec: &PlanExecutor,
    m_in: &Matrix,
    m_out: &Matrix,
    map: &SegmentMap,
    prune: bool,
    u: &[f32],
) -> ColumnOutput {
    let mut scratch = Scratch::new();
    let mut trace = Trace::enabled();
    let plan = SegmentPlan::routed(map, prune);
    exec.forward(
        MemView::F32 { m_in, m_out },
        Route::Plan(&plan),
        u,
        &mut scratch,
        &mut trace,
        &Budget::unlimited(),
    )
    .unwrap()
}

fn run_plain(exec: &PlanExecutor, m_in: &Matrix, m_out: &Matrix, u: &[f32]) -> ColumnOutput {
    let mut scratch = Scratch::new();
    let mut trace = Trace::enabled();
    exec.forward(
        MemView::F32 { m_in, m_out },
        Route::Plan(&SegmentPlan::unsegmented(m_in.rows())),
        u,
        &mut scratch,
        &mut trace,
        &Budget::unlimited(),
    )
    .unwrap()
}

#[test]
fn segmented_matches_unsegmented_bitwise_across_engines() {
    let (m_in, m_out, u) = memories(230, 8);
    let chunk = 16usize;
    for mode in [SoftmaxMode::Lazy, SoftmaxMode::Online] {
        for skip in [SkipPolicy::None, SkipPolicy::Probability(0.004)] {
            let config = MnnFastConfig::new(chunk).with_softmax(mode).with_skip(skip);
            let plan_exec = ExecPlan::new(config.with_threads(3))
                .with_kind(EngineKind::Auto)
                .executor();
            let executors: [(&str, &PlanExecutor); 3] = [
                ("column", &column(config)),
                ("parallel", &parallel(config.with_threads(4))),
                ("plan", &plan_exec),
            ];
            for (name, exec) in executors {
                let base = run_plain(exec, &m_in, &m_out, &u);
                for n_segments in [1usize, 3, 8, 17] {
                    let map = SegmentMap::from_matrix(&m_in, m_in.rows(), n_segments, chunk);
                    for prune in [false, true] {
                        let seg = run_segmented(exec, &m_in, &m_out, &map, prune, &u);
                        assert_bitwise(
                            &seg,
                            &base,
                            &format!("{name} {mode:?} {skip:?} N={n_segments} prune={prune}"),
                        );
                        assert_eq!(
                            seg.stats.segments_total,
                            map.len() as u64,
                            "{name} N={n_segments}"
                        );
                        assert_eq!(seg.stats.rows_total + seg.stats.rows_pruned, 230);
                    }
                }
            }
        }
    }
}

#[test]
fn pruning_fires_on_skewed_memories_and_stays_bitwise() {
    let (m_in, m_out, u) = skewed_memories(170, 8);
    let chunk = 16usize;
    let config = MnnFastConfig::new(chunk).with_softmax(SoftmaxMode::Online);
    let executors: [(&str, &PlanExecutor); 2] = [
        ("column", &column(config)),
        ("parallel", &parallel(config.with_threads(4))),
    ];
    let map = SegmentMap::from_matrix(&m_in, m_in.rows(), 8, chunk);
    for (name, exec) in executors {
        let base = run_plain(exec, &m_in, &m_out, &u);
        let seg = run_segmented(exec, &m_in, &m_out, &map, true, &u);
        assert!(
            seg.stats.segments_pruned > 0,
            "{name}: expected pruning to fire on skewed memories, visited all {} segments",
            seg.stats.segments_total
        );
        assert!(seg.stats.rows_pruned > 0, "{name}");
        assert_bitwise(&seg, &base, &format!("{name} pruned run"));
    }
}

#[test]
fn lazy_mode_never_prunes() {
    // A milder spike than `skewed_memories`: still sharply concentrated,
    // but with a max logit (~81) that the lazy e^x survives on every
    // backend — the scalar fused kernel uses libm exp, which overflows
    // past ~88. Pruning inertness in lazy mode is magnitude-independent
    // anyway (there is no running max to compare against).
    let (ns, ed) = (170usize, 8usize);
    let m_in = Matrix::from_fn(ns, ed, |r, c| {
        if r == 3 && c == 0 {
            9.0
        } else {
            ((r * 7 + c) as f32 * 0.13).sin() * 0.02
        }
    });
    let m_out = Matrix::from_fn(ns, ed, |r, c| ((r + 2 * c) as f32 * 0.09).cos() * 0.5);
    let mut u = vec![0.0f32; ed];
    u[0] = 9.0;
    let chunk = 16usize;
    let config = MnnFastConfig::new(chunk).with_softmax(SoftmaxMode::Lazy);
    let map = SegmentMap::from_matrix(&m_in, m_in.rows(), 8, chunk);
    let exec = column(config);
    let seg = run_segmented(&exec, &m_in, &m_out, &map, true, &u);
    assert_eq!(
        seg.stats.segments_pruned, 0,
        "lazy mode has no running max; pruning must never fire"
    );
    assert_eq!(seg.stats.rows_pruned, 0);
}

#[test]
fn pruned_segments_carry_no_true_attention_mass() {
    // Replays the prune decisions and checks them against the exact
    // softmax: every pruned segment's true probability mass must be
    // negligible (it is, by construction: the margin guarantees the
    // pruned rows' weights underflow to exactly zero in f32).
    let (m_in, m_out, u) = skewed_memories(170, 8);
    let chunk = 16usize;
    let map = SegmentMap::from_matrix(&m_in, m_in.rows(), 8, chunk);
    let exec = column(MnnFastConfig::new(chunk).with_softmax(SoftmaxMode::Online));
    let seg = run_segmented(&exec, &m_in, &m_out, &map, true, &u);
    assert!(seg.stats.segments_pruned > 0);

    // Exact per-row probabilities in f64.
    let logits: Vec<f64> = (0..m_in.rows())
        .map(|r| {
            m_in.row(r)
                .iter()
                .zip(&u)
                .map(|(&a, &b)| a as f64 * b as f64)
                .sum()
        })
        .collect();
    let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let denom: f64 = logits.iter().map(|&x| (x - max).exp()).sum();

    // Replay the sequential prune decisions the engine made.
    let query_norm = segment::query_norm_upper(&u);
    let mut running_max = f32::NEG_INFINITY;
    let mut pruned_mass = 0.0f64;
    let mut replayed_pruned = 0u64;
    for s in map.segments() {
        let seg_logits = logits.iter().skip(s.start).take(s.rows);
        if segment::can_prune(running_max, s.logit_upper_bound(query_norm)) {
            replayed_pruned += 1;
            for &logit in seg_logits {
                pruned_mass += (logit - max).exp() / denom;
            }
        } else {
            for &logit in seg_logits {
                running_max = running_max.max(logit as f32);
            }
        }
    }
    assert_eq!(replayed_pruned, seg.stats.segments_pruned);
    assert!(
        pruned_mass < 1e-12,
        "pruned segments held {pruned_mass:e} of the true attention mass"
    );
}

#[test]
fn batched_segmented_matches_unsegmented_bitwise() {
    let (m_in, m_out, _) = memories(190, 8);
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
        let budgets = vec![Budget::unlimited(); questions.len()];
        let mut scratch = Scratch::new();
        let mut trace = Trace::enabled();
        let base = engine
            .forward_batch(
                MemView::from((&m_in, &m_out)),
                Route::Plan(&SegmentPlan::unsegmented(m_in.rows())),
                &questions,
                &mut scratch,
                &mut trace,
                &budgets,
            )
            .unwrap();
        for n_segments in [1usize, 3, 8, 17] {
            let map = SegmentMap::from_matrix(&m_in, m_in.rows(), n_segments, chunk);
            for prune in [false, true] {
                let plan = SegmentPlan::routed(&map, prune);
                let seg = engine
                    .forward_batch(
                        MemView::from((&m_in, &m_out)),
                        Route::Plan(&plan),
                        &questions,
                        &mut scratch,
                        &mut trace,
                        &budgets,
                    )
                    .unwrap();
                for (q, (a, b)) in seg.iter().zip(&base).enumerate() {
                    assert_bitwise(
                        a.as_ref().unwrap(),
                        b.as_ref().unwrap(),
                        &format!("batch q{q} {mode:?} N={n_segments} prune={prune}"),
                    );
                }
            }
        }
    }
}

#[test]
fn batched_pruning_is_per_question_and_bitwise() {
    // q0 spikes early (prunes the tail); q1 is flat and tiny (never
    // accumulates a max deep enough to prune anything).
    let (m_in, m_out, u_spike) = skewed_memories(170, 8);
    let u_flat: Vec<f32> = (0..8).map(|i| (i as f32 * 0.21).sin() * 0.02).collect();
    let questions = vec![u_spike, u_flat];
    let chunk = 16usize;
    let engine =
        ExecPlan::new(MnnFastConfig::new(chunk).with_softmax(SoftmaxMode::Online)).executor();
    let budgets = vec![Budget::unlimited(); 2];
    let mut scratch = Scratch::new();
    let mut trace = Trace::enabled();
    let base = engine
        .forward_batch(
            MemView::from((&m_in, &m_out)),
            Route::Plan(&SegmentPlan::unsegmented(m_in.rows())),
            &questions,
            &mut scratch,
            &mut trace,
            &budgets,
        )
        .unwrap();
    let map = SegmentMap::from_matrix(&m_in, m_in.rows(), 8, chunk);
    let plan = SegmentPlan::routed(&map, true);
    let seg = engine
        .forward_batch(
            MemView::from((&m_in, &m_out)),
            Route::Plan(&plan),
            &questions,
            &mut scratch,
            &mut trace,
            &budgets,
        )
        .unwrap();
    let q0 = seg[0].as_ref().unwrap();
    let q1 = seg[1].as_ref().unwrap();
    assert!(q0.stats.segments_pruned > 0, "spiked question must prune");
    assert_eq!(q1.stats.segments_pruned, 0, "flat question must not prune");
    assert_bitwise(q0, base[0].as_ref().unwrap(), "batch q0 (pruning)");
    assert_bitwise(q1, base[1].as_ref().unwrap(), "batch q1 (full scan)");
}

#[test]
fn hops_accept_routed_plans() {
    let (m_in, m_out, u) = memories(120, 8);
    let chunk = 16usize;
    let config = MnnFastConfig::new(chunk).with_softmax(SoftmaxMode::Online);
    let exec = column(config);
    let mut scratch = Scratch::new();
    let mut trace = Trace::enabled();
    let base = mnnfast::multi_hop(
        &exec,
        MemView::from((&m_in, &m_out)),
        Route::Plan(&SegmentPlan::unsegmented(m_in.rows())),
        &u,
        3,
        &mut scratch,
        &mut trace,
        &Budget::unlimited(),
    )
    .unwrap();
    let map = SegmentMap::from_matrix(&m_in, m_in.rows(), 4, chunk);
    let plan = SegmentPlan::routed(&map, true);
    let seg = mnnfast::multi_hop(
        &exec,
        MemView::from((&m_in, &m_out)),
        Route::Plan(&plan),
        &u,
        3,
        &mut scratch,
        &mut trace,
        &Budget::unlimited(),
    )
    .unwrap();
    assert_eq!(seg.u_final.len(), base.u_final.len());
    for (i, (a, b)) in seg.u_final.iter().zip(&base.u_final).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "hops u_final[{i}]");
    }
    assert_eq!(seg.stats.segments_total, 3 * map.len() as u64);
}
