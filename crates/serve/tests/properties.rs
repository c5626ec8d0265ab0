//! Property tests for the serving layer: the memory store behaves like a
//! bounded deque of rows, its int8 mirror stays coherent under arbitrary
//! mutation sequences, and quantized serving tracks f32 serving.

use mnn_serve::SegmentedStore;
use mnn_tensor::QuantMatrix;
use mnnfast::{
    Budget, EngineKind, ExecPlan, MnnFastConfig, Precision, Route, Scratch, SegmentPlan,
    SoftmaxMode, Trace,
};
use proptest::collection::vec;
use proptest::prelude::*;

/// Operations applied to both the store and a reference model.
#[derive(Debug, Clone)]
enum Op {
    Push(f32),
    EvictFront(usize),
    Clear,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (-10.0f32..10.0).prop_map(Op::Push),
        1 => (0usize..5).prop_map(Op::EvictFront),
        1 => Just(Op::Clear),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn store_behaves_like_a_bounded_deque(
        ops in vec(op_strategy(), 1..400),
        bound in prop_oneof![Just(None), (1usize..40).prop_map(Some)],
    ) {
        let ed = 3usize;
        let mut store = SegmentedStore::new(ed, bound);
        let mut model: Vec<f32> = Vec::new(); // first element of each row

        for op in &ops {
            match op {
                Op::Push(v) => {
                    let row = vec![*v; ed];
                    let evicted = store.push(&row, &row);
                    if let Some(max) = bound {
                        if model.len() == max {
                            model.remove(0);
                            prop_assert_eq!(evicted, 1);
                        } else {
                            prop_assert_eq!(evicted, 0);
                        }
                    }
                    model.push(*v);
                }
                Op::EvictFront(n) => {
                    store.evict_front(*n);
                    let n = (*n).min(model.len());
                    model.drain(..n);
                }
                Op::Clear => {
                    store.clear();
                    model.clear();
                }
            }
            prop_assert_eq!(store.len(), model.len());
            if let Some(max) = bound {
                prop_assert!(store.len() <= max);
                // The window's allocation never exceeds its ceiling.
                prop_assert!(store.capacity() <= max + (max / 32).max(1));
            }
            // Row contents track the model exactly, in order, wherever
            // the window currently sits in its allocation.
            for (i, &v) in model.iter().enumerate() {
                prop_assert_eq!(store.m_in().row(i), &[v; 3]);
                prop_assert_eq!(store.m_out().row(i), &[v; 3]);
            }
            prop_assert_eq!(store.norms().len(), model.len());
        }
    }

    #[test]
    fn quant_mirror_stays_coherent_under_arbitrary_mutations(
        ops in vec(op_strategy(), 1..400),
        bound in prop_oneof![Just(None), (1usize..40).prop_map(Some)],
    ) {
        let ed = 3usize;
        let mut store = SegmentedStore::new(ed, bound);
        store.enable_quant();
        for op in &ops {
            match op {
                Op::Push(v) => { store.push(&vec![*v; ed], &vec![*v; ed]); }
                Op::EvictFront(n) => store.evict_front(*n),
                Op::Clear => store.clear(),
            }
            // The mirror never goes stale through the public mutators...
            prop_assert!(store.quant_is_synced());
            let (q_in, q_out) = store.quant().expect("synced mirror");
            prop_assert_eq!(q_in.rows(), store.len());
            prop_assert_eq!(q_out.rows(), store.len());
            // ...is exactly the quantization of the live rows, whatever
            // dead prefix either plane is carrying...
            let fresh = QuantMatrix::from_matrix_prefix(store.m_in(), store.len());
            prop_assert_eq!(q_in, &fresh);
            prop_assert_eq!(store.quant_resident_bytes(), 2 * fresh.resident_bytes());
            // ...and each surviving row dequantizes back to within half a
            // quantization step of its f32 source.
            for r in 0..store.len() {
                let mut dq = vec![0.0f32; ed];
                mnn_tensor::quant::dequantize_row(q_in.row(r), q_in.scale(r), &mut dq);
                for (a, b) in dq.iter().zip(store.m_in().row(r)) {
                    prop_assert!((a - b).abs() <= q_in.scale(r) * 0.5 + 1e-7);
                }
            }
        }
    }

    #[test]
    fn quantized_forward_tracks_f32_across_engines_and_segments(
        seed_rows in vec(-0.8f32..0.8, 144..145),
        query in vec(-0.8f32..0.8, 6..7),
        mode in prop_oneof![Just(SoftmaxMode::Lazy), Just(SoftmaxMode::Online)],
        n_segments in 1usize..6,
    ) {
        let ed = 6usize;
        let mut store = SegmentedStore::new(ed, None);
        for row in seed_rows.chunks(ed) {
            // Reuse the row for both memories (shifted) to keep the
            // fixture small; the engines don't care.
            let out: Vec<f32> = row.iter().map(|x| 0.7 - x).collect();
            store.push(row, &out);
        }
        store.enable_quant();
        let (f32_view, q_view) = (store.view(Precision::F32), store.view(Precision::Int8));
        let chunk = 4usize;
        let config = MnnFastConfig::new(chunk).with_softmax(mode);
        let map = store.segment_map(n_segments, chunk);
        let plan = SegmentPlan::routed(&map, true);

        let column = ExecPlan::new(config).with_kind(EngineKind::Column).executor();
        let mut scratch = Scratch::new();
        let mut trace = Trace::disabled();
        let f32_out = column
            .forward(f32_view, Route::Plan(&plan), &query, &mut scratch, &mut trace, &Budget::unlimited())
            .unwrap();
        let q_col = column
            .forward(q_view, Route::Plan(&plan), &query, &mut scratch, &mut trace, &Budget::unlimited())
            .unwrap();
        // Closeness to f32: bounded by the published logit error, loosened
        // for softmax mixing, relative to the response magnitude.
        let norm = f32_out.o.iter().fold(0.0f32, |m, &x| m.max(x.abs())).max(1e-3);
        let tol = 5.0 * mnn_tensor::simd::I8_LOGIT_MAX_REL_ERROR;
        for (a, b) in q_col.o.iter().zip(&f32_out.o) {
            prop_assert!((a - b).abs() / norm <= tol, "quant {a} vs f32 {b}");
        }
        // Bitwise identity across engine variants on the quant plane.
        let parallel = ExecPlan::new(config.with_threads(3))
            .with_kind(EngineKind::Parallel)
            .executor();
        let q_par = parallel
            .forward(q_view, Route::Plan(&plan), &query, &mut scratch, &mut trace, &Budget::unlimited())
            .unwrap();
        prop_assert_eq!(q_par.denominator.to_bits(), q_col.denominator.to_bits());
        for (a, b) in q_par.o.iter().zip(&q_col.o) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
