//! Exactness contracts of the sparse top-K attention path.
//!
//! The sparse seam promises *exact rescoring*: the index only chooses which
//! rows the fused kernels see, never how a row is scored. These tests pin
//! that down bitwise, for every engine variant, on both memory planes and
//! both softmax modes:
//!
//! * a sparse pass is **bitwise identical** to the same engine running
//!   exact attention over a memory holding exactly the rescored rows
//!   (covered chunk runs in plan mode, gathered candidates in gather
//!   mode);
//! * recall@K against brute-force top-K logits is high on clustered data;
//! * every decline path (`empty index`, `topk` covering the memory, probe
//!   margin collapse) surfaces as [`EngineError::IndexDeclined`], and
//!   invalid requests as [`EngineError::Config`] — never a wrong answer.

use mnn_tensor::{Matrix, QuantMatrix};
use mnnfast::{
    multi_hop, Budget, ClusterIndex, ColumnEngine, ColumnOutput, EngineError, EngineKind, ExecPlan,
    Executor, MemView, MnnFastConfig, Phase, Route, Scratch, SegmentPlan, SegmentedStore,
    SkipPolicy, SoftmaxMode, Trace,
};

const CHUNK: usize = 16;

/// Clustered memories: four well-separated lobes (k-means finds real
/// structure) with per-row texture (rows stay distinguishable).
fn memories(ns: usize, ed: usize) -> (Matrix, Matrix) {
    let m_in = Matrix::from_fn(ns, ed, |r, c| {
        let lobe = (r * 4 / ns.max(1)) as f32;
        lobe * 1.5 + ((r * 13 + c * 7) as f32 * 0.17).sin() * 0.2
    });
    let m_out = Matrix::from_fn(ns, ed, |r, c| ((r + 2 * c) as f32 * 0.07).cos() * 0.5);
    (m_in, m_out)
}

fn query(ed: usize, seed: usize) -> Vec<f32> {
    (0..ed)
        .map(|i| ((seed * 7 + i) as f32 * 0.31).sin() * 0.4 + 0.3)
        .collect()
}

fn f32_view<'a>(m_in: &'a Matrix, m_out: &'a Matrix) -> MemView<'a> {
    MemView::F32 { m_in, m_out }
}

fn top(index: &ClusterIndex, topk: usize, nprobe: usize) -> Route<'_> {
    Route::TopK {
        index,
        topk,
        nprobe,
    }
}

/// One untraced, unbudgeted pass.
fn pass(
    exec: &dyn Executor,
    view: MemView<'_>,
    route: Route<'_>,
    u: &[f32],
    scratch: &mut Scratch,
) -> Result<ColumnOutput, EngineError> {
    exec.forward(
        view,
        route,
        u,
        scratch,
        &mut Trace::disabled(),
        &Budget::unlimited(),
    )
}

fn engines(config: MnnFastConfig) -> Vec<Box<dyn Executor>> {
    vec![
        Box::new(ColumnEngine::new(config)),
        Box::new(
            ExecPlan::new(config.with_threads(2))
                .with_kind(EngineKind::Parallel)
                .executor(),
        ),
        Box::new(ExecPlan::new(config).with_kind(EngineKind::Auto).executor()),
    ]
}

/// The rows a sparse pass actually rescored, replicating the seam's
/// plan-vs-gather rule on an identical probe.
fn rescored_rows(index: &ClusterIndex, u: &[f32], topk: usize, nprobe: usize) -> Vec<usize> {
    let probe = index.probe(u, topk, nprobe, CHUNK);
    assert!(
        !probe.low_margin,
        "test geometry should give confident probes"
    );
    if probe.covered.rows() <= probe.candidates.len() * 2 {
        probe
            .covered
            .segments()
            .iter()
            .flat_map(|s| s.start..s.start + s.rows)
            .collect()
    } else {
        probe.candidates.iter().map(|&r| r as usize).collect()
    }
}

fn gather(m: &Matrix, rows: &[usize]) -> Matrix {
    let mut flat = Vec::with_capacity(rows.len() * m.cols());
    for &r in rows {
        flat.extend_from_slice(m.row(r));
    }
    Matrix::from_flat(rows.len(), m.cols(), &flat).unwrap()
}

#[test]
fn sparse_is_bitwise_exact_on_rescored_rows_for_every_engine() {
    let (m_in, m_out) = memories(300, 8);
    let index = ClusterIndex::build(&m_in, 300, 1);
    for softmax in [SoftmaxMode::Lazy, SoftmaxMode::Online] {
        let config = MnnFastConfig::new(CHUNK).with_softmax(softmax);
        let u = query(8, 3);
        let rows = rescored_rows(&index, &u, 24, 2);
        let staged_in = gather(&m_in, &rows);
        let staged_out = gather(&m_out, &rows);
        for exec in engines(config) {
            let mut scratch = Scratch::new();
            let sparse = pass(
                &*exec,
                f32_view(&m_in, &m_out),
                top(&index, 24, 2),
                &u,
                &mut scratch,
            )
            .unwrap();
            let exact = pass(
                &*exec,
                f32_view(&staged_in, &staged_out),
                Route::Plan(&SegmentPlan::unsegmented(rows.len())),
                &u,
                &mut scratch,
            )
            .unwrap();
            assert_eq!(
                sparse.o, exact.o,
                "sparse answer must be bitwise exact attention over the \
                 rescored rows ({softmax:?}, {exec:?})"
            );
        }
    }
}

#[test]
fn sparse_quant_is_bitwise_exact_on_rescored_rows() {
    let (m_in, m_out) = memories(300, 8);
    let index = ClusterIndex::build(&m_in, 300, 1);
    let q_in = QuantMatrix::from_matrix(&m_in);
    let q_out = QuantMatrix::from_matrix(&m_out);
    let u = query(8, 5);
    let rows = rescored_rows(&index, &u, 24, 2);
    // The quantized exact reference gathers *codes*, not f32 rows: the
    // staged plane must share the full plane's rounding history verbatim.
    let mut staged_in = QuantMatrix::with_capacity(rows.len(), 8);
    let mut staged_out = QuantMatrix::with_capacity(rows.len(), 8);
    for &r in &rows {
        staged_in.push_quantized_row(q_in.row(r), q_in.scale(r));
        staged_out.push_quantized_row(q_out.row(r), q_out.scale(r));
    }
    for softmax in [SoftmaxMode::Lazy, SoftmaxMode::Online] {
        let config = MnnFastConfig::new(CHUNK).with_softmax(softmax);
        for exec in engines(config) {
            let mut scratch = Scratch::new();
            let sparse = pass(
                &*exec,
                MemView::from((&q_in, &q_out)),
                top(&index, 24, 2),
                &u,
                &mut scratch,
            )
            .unwrap();
            let plan = SegmentPlan::unsegmented(rows.len());
            let exact = pass(
                &*exec,
                MemView::from((&staged_in, &staged_out)),
                Route::Plan(&plan),
                &u,
                &mut scratch,
            )
            .unwrap();
            assert_eq!(
                sparse.o, exact.o,
                "quant sparse answer must be bitwise exact ({softmax:?}, {exec:?})"
            );
        }
    }
}

/// Evict-then-ask at the store level: after its window has slid and
/// compacted, a store probes and answers top-K bit for bit like a fresh
/// store holding the same rows. Both indexes are rebuilt first, so this
/// pins the store (rows, ids, chunk phase), not centroid history.
#[test]
fn a_slid_window_probes_and_rescores_like_a_fresh_store() {
    let (ed, w) = (8, 200); // slack 6; 200 is not a multiple of CHUNK
    let rows: Vec<(Vec<f32>, Vec<f32>)> = (0..3 * w + 7)
        .map(|i| {
            let lobe = (i / 50 % 4) as f32;
            let r_in = (0..ed).map(|c| lobe * 1.5 + ((i * 13 + c * 7) as f32 * 0.17).sin() * 0.2);
            let r_out = (0..ed).map(|c| ((i + 2 * c) as f32 * 0.07).cos() * 0.5);
            (r_in.collect(), r_out.collect())
        })
        .collect();
    let mut slid = SegmentedStore::new(ed, Some(w));
    let mut fresh = SegmentedStore::new(ed, None);
    slid.enable_quant();
    slid.enable_index();
    for (r_in, r_out) in &rows {
        slid.push(r_in, r_out);
    }
    for (r_in, r_out) in &rows[rows.len() - w..] {
        fresh.push(r_in, r_out);
    }
    fresh.enable_quant();
    for store in [&mut slid, &mut fresh] {
        store.disable_index();
        store.enable_index();
    }
    let (slid_ix, fresh_ix) = (slid.index().unwrap(), fresh.index().unwrap());
    let (slid_q, fresh_q) = (slid.quant().unwrap(), fresh.quant().unwrap());

    let mut answered = 0;
    for seed in 0..6 {
        let u = query(ed, seed);
        let probe = slid_ix.probe(&u, 24, 2, CHUNK);
        assert_eq!(probe, fresh_ix.probe(&u, 24, 2, CHUNK));
        for exec in engines(MnnFastConfig::new(CHUNK)) {
            let mut scratch = Scratch::new();
            let mut f32_pass = |s: &SegmentedStore, ix| {
                pass(
                    &*exec,
                    f32_view(s.m_in(), s.m_out()),
                    top(ix, 24, 2),
                    &u,
                    &mut scratch,
                )
            };
            let out = f32_pass(&slid, slid_ix);
            assert_eq!(out, f32_pass(&fresh, fresh_ix));
            answered += usize::from(out.is_ok());
            let mut int8_pass = |(q_in, q_out): (&QuantMatrix, &QuantMatrix), ix| {
                pass(
                    &*exec,
                    MemView::from((q_in, q_out)),
                    top(ix, 24, 2),
                    &u,
                    &mut scratch,
                )
            };
            assert_eq!(int8_pass(slid_q, slid_ix), int8_pass(fresh_q, fresh_ix));
        }
    }
    assert!(answered > 0, "some probes must reach the rescoring pass");
}

#[test]
fn engines_agree_bitwise_on_the_sparse_path() {
    let (m_in, m_out) = memories(260, 8);
    let index = ClusterIndex::build(&m_in, 260, 1);
    let u = query(8, 11);
    let config = MnnFastConfig::new(CHUNK).with_softmax(SoftmaxMode::Online);
    let mut answers = Vec::new();
    for exec in engines(config) {
        let out = pass(
            &*exec,
            f32_view(&m_in, &m_out),
            top(&index, 20, 2),
            &u,
            &mut Scratch::new(),
        )
        .unwrap();
        answers.push(out.o);
    }
    for o in &answers[1..] {
        assert_eq!(o, &answers[0], "all engines share one sparse answer");
    }
}

#[test]
fn recall_at_k_is_high_on_clustered_data() {
    let ns = 512;
    let ed = 8;
    let (m_in, _) = memories(ns, ed);
    let index = ClusterIndex::build(&m_in, ns, 1);
    let topk = 16;
    let mut hit = 0usize;
    let mut total = 0usize;
    for q in 0..20 {
        let u = query(ed, q);
        let probe = index.probe(&u, topk, 4, CHUNK);
        // Brute-force top-K logits.
        let scores: Vec<f32> = (0..ns)
            .map(|r| m_in.row(r).iter().zip(&u).map(|(a, b)| a * b).sum())
            .collect();
        let truth = mnn_tensor::reduce::top_k_select(&scores, topk);
        total += topk;
        hit += truth
            .iter()
            .filter(|&&r| probe.candidates.contains(&(r as u32)))
            .count();
    }
    let recall = hit as f64 / total as f64;
    assert!(recall >= 0.95, "recall@{topk} = {recall} below 0.95");
}

#[test]
fn stats_account_for_probes_and_skipped_rows() {
    let (m_in, m_out) = memories(320, 8);
    let index = ClusterIndex::build(&m_in, 320, 1);
    let u = query(8, 2);
    let exec = ExecPlan::new(MnnFastConfig::new(CHUNK)).executor();
    let mut trace = Trace::enabled();
    let out = exec
        .forward(
            f32_view(&m_in, &m_out),
            top(&index, 16, 2),
            &u,
            &mut Scratch::new(),
            &mut trace,
            &Budget::unlimited(),
        )
        .unwrap();
    assert!(
        out.stats.index_probes >= 2,
        "at least nprobe clusters probed"
    );
    assert!(
        out.stats.candidates_scored >= 16,
        "at least topk rows rescored"
    );
    assert!(
        out.stats.candidates_scored < 320,
        "sparse pass must not rescore the whole memory"
    );
    assert_eq!(
        out.stats.candidates_scored + out.stats.rows_skipped_by_index,
        320,
        "rescored + skipped-by-index partitions the store"
    );
    assert_eq!(out.stats.candidates_scored, out.stats.rows_total);
    assert_eq!(trace.count(Phase::IndexProbe), out.stats.index_probes);
}

#[test]
fn empty_index_declines() {
    let (m_in, m_out) = memories(64, 4);
    let empty = ClusterIndex::build(&Matrix::zeros(0, 4), 0, 1);
    let exec: &dyn Executor = &ColumnEngine::new(MnnFastConfig::new(CHUNK));
    let err = pass(
        exec,
        f32_view(&m_in, &m_out),
        top(&empty, 4, 1),
        &query(4, 0),
        &mut Scratch::new(),
    )
    .unwrap_err();
    assert!(matches!(err, EngineError::IndexDeclined { .. }), "{err}");
}

#[test]
fn topk_covering_the_memory_declines() {
    let (m_in, m_out) = memories(64, 4);
    let index = ClusterIndex::build(&m_in, 64, 1);
    let exec: &dyn Executor = &ColumnEngine::new(MnnFastConfig::new(CHUNK));
    for topk in [64usize, 100] {
        let err = pass(
            exec,
            f32_view(&m_in, &m_out),
            top(&index, topk, 1),
            &query(4, 1),
            &mut Scratch::new(),
        )
        .unwrap_err();
        assert!(
            matches!(err, EngineError::IndexDeclined { reason } if reason.contains("every live row")),
            "{err}"
        );
    }
}

#[test]
fn duplicate_rows_collapse_the_margin_and_decline() {
    // Every row identical: all centroid scores tie exactly, the cluster cut
    // is arbitrary, and the sparse path must refuse to answer.
    let m = Matrix::from_fn(96, 4, |_, c| (c as f32 + 1.0) * 0.25);
    let index = ClusterIndex::build(&m, 96, 1);
    let exec: &dyn Executor = &ColumnEngine::new(MnnFastConfig::new(CHUNK));
    let err = pass(
        exec,
        f32_view(&m, &m),
        top(&index, 4, 1),
        &[0.3, 0.1, 0.2, 0.4],
        &mut Scratch::new(),
    )
    .unwrap_err();
    assert!(
        matches!(err, EngineError::IndexDeclined { reason } if reason.contains("margin")),
        "{err}"
    );
}

#[test]
fn invalid_requests_are_config_errors() {
    let (m_in, m_out) = memories(64, 4);
    let index = ClusterIndex::build(&m_in, 64, 1);
    let u = query(4, 0);
    let run = |exec: &dyn Executor, u: &[f32], topk: usize, nprobe: usize| {
        pass(
            exec,
            f32_view(&m_in, &m_out),
            top(&index, topk, nprobe),
            u,
            &mut Scratch::new(),
        )
    };
    let exact = ColumnEngine::new(MnnFastConfig::new(CHUNK));
    assert!(matches!(run(&exact, &u, 0, 1), Err(EngineError::Config(_))));
    assert!(matches!(run(&exact, &u, 4, 0), Err(EngineError::Config(_))));
    // Query width must match the index.
    assert!(matches!(
        run(&exact, &[0.5; 7], 4, 1),
        Err(EngineError::Config(_))
    ));
    // Probability zero-skip sweeps the full memory; the sparse seam rejects
    // it outright rather than producing a threshold computed on a subset.
    let prob =
        ColumnEngine::new(MnnFastConfig::new(CHUNK).with_skip(SkipPolicy::Probability(0.01)));
    assert!(matches!(run(&prob, &u, 4, 1), Err(EngineError::Config(_))));
    // RawWeight skipping is per-row and stays legal on the sparse path.
    let raw = ColumnEngine::new(MnnFastConfig::new(CHUNK).with_skip(SkipPolicy::RawWeight(1e-30)));
    assert!(run(&raw, &u, 4, 1).is_ok());
}

#[test]
fn index_larger_than_memory_is_a_config_error() {
    let (m_in, m_out) = memories(128, 4);
    let index = ClusterIndex::build(&m_in, 128, 1);
    let (short_in, short_out) = memories(64, 4);
    let exec: &dyn Executor = &ColumnEngine::new(MnnFastConfig::new(CHUNK));
    let err = pass(
        exec,
        f32_view(&short_in, &short_out),
        top(&index, 8, 1),
        &query(4, 0),
        &mut Scratch::new(),
    )
    .unwrap_err();
    assert!(matches!(err, EngineError::Config(_)), "{err}");
    let _ = (m_in, m_out);
}

#[test]
fn multi_hop_topk_reprobes_each_hop_and_matches_manual_chain() {
    let (m_in, m_out) = memories(300, 8);
    let index = ClusterIndex::build(&m_in, 300, 1);
    let u0 = query(8, 4);
    let exec = ExecPlan::new(MnnFastConfig::new(CHUNK)).executor();
    let hops = 3;
    let out = multi_hop(
        &exec,
        f32_view(&m_in, &m_out),
        top(&index, 24, 2),
        &u0,
        hops,
        &mut Scratch::new(),
        &mut Trace::disabled(),
        &Budget::unlimited(),
    )
    .unwrap();
    assert_eq!(out.per_hop.len(), hops);

    // Manual chain: each hop re-probes with its own question state.
    let mut u = u0.clone();
    let mut scratch = Scratch::new();
    for h in 0..hops {
        let hop = pass(
            &exec,
            f32_view(&m_in, &m_out),
            top(&index, 24, 2),
            &u,
            &mut scratch,
        )
        .unwrap();
        assert_eq!(out.per_hop[h], hop.o, "hop {h} diverged");
        for (ui, oi) in u.iter_mut().zip(&hop.o) {
            *ui += oi;
        }
    }
    assert_eq!(out.u_final, u);
    // u_last + o == u_final, same contract as the exact hop chain.
    for ((last, o), fin) in out.u_last.iter().zip(&out.o).zip(&out.u_final) {
        assert_eq!(last + o, *fin);
    }
}
