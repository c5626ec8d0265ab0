//! Property tests: the column-based algorithm (with and without scale-out
//! and zero-skipping) is equivalent to the baseline dataflow.

use mnn_tensor::softmax::softmax_in_place;
use mnn_tensor::{approx_eq, kernels, Matrix};
use mnnfast::{
    Budget, ColumnEngine, ColumnOutput, EngineKind, ExecPlan, Executor, MemView, MnnFastConfig,
    Route, Scratch, SegmentPlan, SkipPolicy, SoftmaxMode, Trace,
};
use proptest::prelude::*;

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

/// One pass of the plan-built executor over every row.
fn plan_forward(
    config: MnnFastConfig,
    kind: EngineKind,
    m_in: &Matrix,
    m_out: &Matrix,
    u: &[f32],
) -> ColumnOutput {
    ExecPlan::new(config)
        .with_kind(kind)
        .executor()
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

fn baseline(m_in: &Matrix, m_out: &Matrix, u: &[f32]) -> Vec<f32> {
    let mut p = vec![0.0f32; m_in.rows()];
    kernels::gemv(m_in, u, &mut p).unwrap();
    softmax_in_place(&mut p);
    let mut o = vec![0.0f32; m_out.cols()];
    kernels::gevm(&p, m_out, &mut o).unwrap();
    o
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn column_equals_baseline(
        ns in 1usize..300,
        ed in 1usize..24,
        chunk in 1usize..64,
        seed in any::<u64>(),
    ) {
        let (m_in, m_out, u) = memories(ns, ed, seed);
        let expect = baseline(&m_in, &m_out, &u);
        for mode in [SoftmaxMode::Lazy, SoftmaxMode::Online] {
            let out = ColumnEngine::new(MnnFastConfig::new(chunk).with_softmax(mode))
                .forward(&m_in, &m_out, &u)
                .unwrap();
            for (a, b) in out.o.iter().zip(&expect) {
                prop_assert!(approx_eq(*a, *b, 2e-3), "{mode:?}: {a} vs {b}");
            }
            prop_assert_eq!(out.stats.rows_total, ns as u64);
            prop_assert_eq!(out.stats.divisions, ed as u64);
        }
    }

    #[test]
    fn auto_plan_is_bit_identical_to_sequential(
        ns in 1usize..200,
        ed in 1usize..16,
        chunk in 1usize..50,
        seed in any::<u64>(),
    ) {
        let (m_in, m_out, u) = memories(ns, ed, seed);
        let config = MnnFastConfig::new(chunk);
        let seq = ColumnEngine::new(config).forward(&m_in, &m_out, &u).unwrap();
        let auto = plan_forward(config.with_threads(2), EngineKind::Auto, &m_in, &m_out, &u);
        prop_assert_eq!(seq.o, auto.o);
    }

    #[test]
    fn parallel_equals_sequential(
        ns in 1usize..200,
        ed in 1usize..16,
        chunk in 1usize..50,
        threads in 1usize..6,
        seed in any::<u64>(),
    ) {
        let (m_in, m_out, u) = memories(ns, ed, seed);
        let config = MnnFastConfig::new(chunk).with_threads(threads);
        let seq = ColumnEngine::new(config.with_threads(1)).forward(&m_in, &m_out, &u).unwrap();
        let par = plan_forward(config, EngineKind::Parallel, &m_in, &m_out, &u);
        prop_assert_eq!(par.stats.rows_total, seq.stats.rows_total);
        // Bitwise, not approximate: all engines fold chunk partials in
        // chunk-index order.
        prop_assert_eq!(par.o, seq.o);
    }

    #[test]
    fn skip_threshold_zero_is_exact_and_counts_conserve(
        ns in 1usize..150,
        ed in 1usize..12,
        chunk in 1usize..40,
        th in 0.0f32..0.3,
        seed in any::<u64>(),
    ) {
        let (m_in, m_out, u) = memories(ns, ed, seed);
        let out = ColumnEngine::new(
            MnnFastConfig::new(chunk).with_skip(SkipPolicy::Probability(th)),
        )
        .forward(&m_in, &m_out, &u)
        .unwrap();
        // Conservation: every row is either processed or skipped.
        prop_assert_eq!(out.stats.rows_total, ns as u64);
        prop_assert!(out.stats.rows_skipped <= out.stats.rows_total);
        let ws_done = out.stats.ws_flops / (2 * ed as u64);
        prop_assert_eq!(ws_done + out.stats.rows_skipped, ns as u64);

        if th == 0.0 {
            prop_assert_eq!(out.stats.rows_skipped, 0);
            let expect = baseline(&m_in, &m_out, &u);
            for (a, b) in out.o.iter().zip(&expect) {
                prop_assert!(approx_eq(*a, *b, 2e-3));
            }
        }
        // Probabilities sum to 1, so fewer than 1/th rows can exceed th.
        if th > 0.0 {
            let kept = ns as u64 - out.stats.rows_skipped;
            prop_assert!(kept as f64 <= (1.0 / th as f64) + 1.0);
        }
    }

    #[test]
    fn skipping_is_monotone_in_threshold(
        ns in 2usize..150,
        ed in 1usize..10,
        seed in any::<u64>(),
    ) {
        let (m_in, m_out, u) = memories(ns, ed, seed);
        let mut prev_skipped = 0u64;
        for th in [0.0f32, 0.001, 0.01, 0.05, 0.2] {
            let out = ColumnEngine::new(
                MnnFastConfig::new(16).with_skip(SkipPolicy::Probability(th)),
            )
            .forward(&m_in, &m_out, &u)
            .unwrap();
            prop_assert!(out.stats.rows_skipped >= prev_skipped,
                "skipped count must grow with threshold");
            prev_skipped = out.stats.rows_skipped;
        }
    }
}

/// The store against a `VecDeque` of rows, through arbitrary
/// push/evict/clear/enable/clone interleavings long enough to cross many
/// window compactions: after every op the f32 planes, norms, int8 mirror
/// and segment map must be exactly what a fresh store holding the model's
/// rows has, and the clustered top-K index must stay mirror-exact (every
/// live row in exactly the list its assignment names, ids ascending) and
/// as long as the store. Probes must only ever name live rows inside
/// covered chunk runs.
mod index_coherence {
    use super::*;
    use mnn_tensor::QuantMatrix;
    use mnnfast::SegmentedStore;
    use std::collections::VecDeque;

    fn lcg_row(state: &mut u64, ed: usize) -> Vec<f32> {
        (0..ed)
            .map(|_| {
                *state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((*state >> 33) as f32 / (1u64 << 31) as f32) - 1.0
            })
            .collect()
    }

    /// A store and the deque of `(in_row, out_row)` it must behave like.
    struct Modelled {
        store: SegmentedStore,
        model: VecDeque<(Vec<f32>, Vec<f32>)>,
        ed: usize,
        bound: Option<usize>,
        state: u64,
    }

    impl Modelled {
        fn new(ed: usize, bound: Option<usize>, seed: u64) -> Self {
            let mut store = SegmentedStore::new(ed, bound);
            store.enable_index();
            Modelled {
                store,
                model: VecDeque::new(),
                ed,
                bound,
                state: seed | 1,
            }
        }

        /// Applies the op `0..100` encodes to store and model, then checks.
        fn step(&mut self, op: u8) {
            match op {
                // Mostly pushes: grow the memory, slide a bounded one.
                0..=64 => {
                    let r_in = lcg_row(&mut self.state, self.ed);
                    let r_out = lcg_row(&mut self.state, self.ed);
                    let evicted = self.store.push(&r_in, &r_out);
                    let full = self.bound == Some(self.model.len());
                    assert_eq!(evicted, usize::from(full));
                    if full {
                        self.model.pop_front();
                    }
                    self.model.push_back((r_in, r_out));
                }
                // Evictions, occasionally more rows than live.
                65..=79 => {
                    let n = if op == 79 {
                        self.model.len() + 3
                    } else {
                        (op as usize - 64) % 7
                    };
                    self.store.evict_front(n);
                    self.model.drain(..n.min(self.model.len()));
                }
                // Rebuild-on-demand (no-ops unless missing/stale/drifted).
                80..=86 => self.store.enable_index(),
                87..=90 => self.store.enable_quant(),
                // Carry on from a clone taken wherever the window is.
                91..=96 => self.store = self.store.clone(),
                // Clears rewind the window and drop the index entirely.
                _ => {
                    self.store.clear();
                    self.model.clear();
                }
            }
            self.check();
        }

        fn check(&self) {
            let (store, len, ed) = (&self.store, self.model.len(), self.ed);
            assert_eq!(store.len(), len);
            if let Some(max) = self.bound {
                assert!(len <= max);
                assert!(store.capacity() <= max + (max / 32).max(1));
            }
            let mut fresh = SegmentedStore::new(ed, None);
            for (r, (r_in, r_out)) in self.model.iter().enumerate() {
                assert_eq!(store.m_in().row(r), &r_in[..], "m_in row {r}");
                assert_eq!(store.m_out().row(r), &r_out[..], "m_out row {r}");
                fresh.push(r_in, r_out);
            }
            let chunk = 7;
            for start in (0..len).step_by(chunk) {
                let n = chunk.min(len - start);
                assert_eq!(
                    store.m_in().rows_slice(start, n),
                    fresh.m_in().rows_slice(start, n)
                );
                assert_eq!(
                    store.m_out().rows_slice(start, n),
                    fresh.m_out().rows_slice(start, n)
                );
            }
            assert_eq!(store.norms(), fresh.norms());
            assert_eq!(store.segment_map(3, chunk), fresh.segment_map(3, chunk));
            if let Some((q_in, q_out)) = store.quant() {
                for (q, m) in [(q_in, fresh.m_in()), (q_out, fresh.m_out())] {
                    let want = QuantMatrix::from_matrix_prefix(m, len);
                    assert_eq!(q.rows(), len);
                    assert_eq!(q.rows_slice(0, len), want.rows_slice(0, len));
                    let bits = |s: &[f32]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(q.scales()), bits(want.scales()));
                    assert_eq!(q.resident_bytes(), want.resident_bytes());
                }
                assert_eq!(store.quant_resident_bytes(), (2 * len * (ed + 4)) as u64);
            }
            if let Some(ix) = store.index() {
                assert_eq!(ix.len(), len, "index/store length");
                assert!(
                    ix.check_coherence().is_ok(),
                    "coherence: {:?}",
                    ix.check_coherence()
                );
            } else {
                // The only way to lose the index: a clear dropped it
                // (maintenance never desyncs it otherwise).
                assert!(!store.index_is_synced());
            }
        }
    }

    /// A 257-row window (slack 8) slid through > 20 x slack pushes with
    /// evictions, clones and rebuilds mixed in, at a width that puts the
    /// window off the cache line.
    #[test]
    fn a_long_window_matches_the_model_across_many_compactions() {
        let mut m = Modelled::new(3, Some(257), 0x5eed);
        m.store.enable_quant();
        for _ in 0..257 {
            m.step(0);
        }
        let mut ops = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..400 {
            ops = ops
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Everything but clears, which would only rewind the window.
            m.step(((ops >> 33) % 97) as u8);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn index_mirrors_the_store_through_any_mutation_sequence(
            ed in prop_oneof![1usize..12, Just(63usize), Just(65usize)],
            bound_raw in 0usize..40,
            ops in proptest::collection::vec(0u8..100, 1..400),
            seed in any::<u64>(),
        ) {
            // 0 means unbounded; anything else is a sliding-window bound.
            let bound = (bound_raw > 0).then_some(bound_raw);
            let mut m = Modelled::new(ed, bound, seed);
            for &op in &ops {
                m.step(op);
            }
            // Whatever happened, one enable_index restores sparse serving.
            m.store.enable_index();
            prop_assert!(m.store.index_is_synced());
            prop_assert_eq!(m.store.index().unwrap().len(), m.store.len());
        }

        #[test]
        fn probes_only_name_live_rows_inside_covered_runs(
            ns in 1usize..200,
            ed in 1usize..10,
            topk in 1usize..32,
            nprobe in 1usize..8,
            chunk in 1usize..40,
            seed in any::<u64>(),
        ) {
            let (m_in, _, u) = memories(ns, ed, seed);
            let index = mnnfast::ClusterIndex::build(&m_in, ns, 0);
            let probe = index.probe(&u, topk, nprobe, chunk);
            // Enough candidates whenever the memory has them.
            prop_assert!(probe.candidates.len() >= topk.min(ns));
            prop_assert!(probe.probes >= 1);
            // Candidates are live, unique, ascending.
            let mut prev = None;
            for &r in &probe.candidates {
                prop_assert!((r as usize) < ns, "candidate beyond live rows");
                if let Some(p) = prev {
                    prop_assert!(r > p, "candidates not strictly ascending");
                }
                prev = Some(r);
            }
            // The covering contains every candidate, in chunk-aligned,
            // non-overlapping, ascending runs.
            let segs = probe.covered.segments();
            let mut next_free = 0usize;
            for s in segs {
                prop_assert_eq!(s.start % chunk.max(1), 0);
                prop_assert!(s.start >= next_free);
                prop_assert!(s.rows > 0);
                next_free = s.start + s.rows;
                prop_assert!(next_free <= ns, "covering beyond live rows");
            }
            for &r in &probe.candidates {
                prop_assert!(
                    segs.iter().any(|s| (r as usize) >= s.start
                        && (r as usize) < s.start + s.rows),
                    "candidate {} outside every covered run", r
                );
            }
        }
    }
}
