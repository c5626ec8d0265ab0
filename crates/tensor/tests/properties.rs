//! Property-based tests for the tensor substrate.

use mnn_tensor::simd::{self, Backend};
use mnn_tensor::softmax::{softmax_in_place, LazyAccumulator, OnlineSoftmax};
use mnn_tensor::{approx_eq, kernels, reduce, Matrix};
use proptest::collection::vec;
use proptest::prelude::*;

fn finite_f32(range: f32) -> impl Strategy<Value = f32> {
    (-range..range).prop_map(|x: f32| x)
}

/// Elements designed to stress SIMD/scalar agreement: ±0, denormals, large
/// magnitudes, and ordinary values.
fn awkward_f32() -> impl Strategy<Value = f32> {
    prop_oneof![
        Just(0.0f32),
        Just(-0.0f32),
        Just(f32::MIN_POSITIVE), // smallest normal
        Just(1.0e-40f32),        // subnormal
        Just(-1.0e-40f32),
        Just(1.0e18f32),
        Just(-1.0e18f32),
        (-100.0f32..100.0).prop_map(|x| x),
    ]
}

/// Any bit pattern, with NaN, ±inf and ±0 drawn often enough to meet each
/// other in one vector.
fn any_bits_f32() -> impl Strategy<Value = f32> {
    prop_oneof![
        4 => any::<u32>().prop_map(f32::from_bits),
        2 => (-3.0f32..3.0).prop_map(|x| x),
        1 => Just(f32::NAN),
        1 => Just(f32::INFINITY),
        1 => Just(f32::NEG_INFINITY),
        1 => Just(0.0f32),
        1 => Just(-0.0f32),
    ]
}

/// Lengths that exercise every tail path of the 8-lane kernels: empty,
/// single element, below/straddling/above the 8- and 32-element unroll
/// boundaries.
const AWKWARD_LENS: [usize; 10] = [0, 1, 7, 8, 9, 31, 32, 33, 63, 64];

proptest! {
    #[test]
    fn softmax_sums_to_one(xs in vec(finite_f32(30.0), 1..200)) {
        let mut p = xs.clone();
        softmax_in_place(&mut p);
        let total = reduce::sum(&p);
        prop_assert!((total - 1.0).abs() < 1e-4, "sum {total}");
        prop_assert!(p.iter().all(|&v| (0.0..=1.0 + 1e-6).contains(&v)));
    }

    #[test]
    fn softmax_is_shift_invariant(xs in vec(finite_f32(10.0), 1..50), shift in finite_f32(20.0)) {
        let mut a = xs.clone();
        softmax_in_place(&mut a);
        let mut b: Vec<f32> = xs.iter().map(|x| x + shift).collect();
        softmax_in_place(&mut b);
        for (x, y) in a.iter().zip(&b) {
            prop_assert!(approx_eq(*x, *y, 1e-4));
        }
    }

    #[test]
    fn dot_is_commutative_and_bilinear(
        a in vec(finite_f32(10.0), 1..64),
        s in finite_f32(4.0),
    ) {
        let b: Vec<f32> = a.iter().map(|x| x * 0.5 + 1.0).collect();
        let ab = kernels::dot(&a, &b);
        let ba = kernels::dot(&b, &a);
        prop_assert!(approx_eq(ab, ba, 1e-3));
        let sa: Vec<f32> = a.iter().map(|x| s * x).collect();
        prop_assert!(approx_eq(kernels::dot(&sa, &b), s * ab, 1e-2 * (1.0 + ab.abs())));
    }

    #[test]
    fn gemv_distributes_over_chunks(
        rows in 1usize..40,
        cols in 1usize..16,
        chunk in 1usize..17,
        seed in any::<u64>(),
    ) {
        // Pseudo-random but deterministic fill from the seed.
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0
        };
        let m = Matrix::from_fn(rows, cols, |_, _| next());
        let x: Vec<f32> = (0..cols).map(|_| next()).collect();

        let mut full = vec![0.0; rows];
        kernels::gemv(&m, &x, &mut full).unwrap();

        let mut chunked = vec![0.0; rows];
        for (start, n, flat) in m.chunk_rows(chunk) {
            kernels::gemv_chunk(flat, n, &x, &mut chunked[start..start + n]);
        }
        for (a, b) in full.iter().zip(&chunked) {
            prop_assert!(approx_eq(*a, *b, 1e-4));
        }
    }

    #[test]
    fn lazy_and_online_agree_with_baseline(
        logits in vec(finite_f32(15.0), 1..64),
        ed in 1usize..8,
    ) {
        let rows: Vec<Vec<f32>> = (0..logits.len())
            .map(|i| (0..ed).map(|j| ((i * ed + j) as f32).sin()).collect())
            .collect();

        // Baseline: softmax then weighted sum.
        let mut p = logits.clone();
        softmax_in_place(&mut p);
        let mut baseline = vec![0.0; ed];
        for (w, row) in p.iter().zip(&rows) {
            kernels::axpy(*w, row, &mut baseline);
        }

        let mut lazy = LazyAccumulator::new(ed);
        let mut online = OnlineSoftmax::new(ed);
        for (l, row) in logits.iter().zip(&rows) {
            lazy.add_weighted(l.exp(), row);
            online.add(*l, row);
        }
        let lazy_out = lazy.finish();
        let online_out = online.finish();
        for i in 0..ed {
            prop_assert!(approx_eq(baseline[i], lazy_out[i], 1e-3),
                "lazy[{i}]: {} vs {}", lazy_out[i], baseline[i]);
            prop_assert!(approx_eq(baseline[i], online_out[i], 1e-3),
                "online[{i}]: {} vs {}", online_out[i], baseline[i]);
        }
    }

    #[test]
    fn online_merge_associative(
        logits in vec(finite_f32(80.0), 2..40),
    ) {
        let rows: Vec<Vec<f32>> = (0..logits.len()).map(|i| vec![i as f32 * 0.1]).collect();
        let split = logits.len() / 2;

        let mut whole = OnlineSoftmax::new(1);
        for (l, r) in logits.iter().zip(&rows) {
            whole.add(*l, r);
        }
        let mut a = OnlineSoftmax::new(1);
        let mut b = OnlineSoftmax::new(1);
        for (i, (l, r)) in logits.iter().zip(&rows).enumerate() {
            if i < split { a.add(*l, r) } else { b.add(*l, r) }
        }
        a.merge(&b);
        let w = whole.finish();
        let m = a.finish();
        prop_assert!(approx_eq(w[0], m[0], 1e-3), "{} vs {}", w[0], m[0]);
    }

    #[test]
    fn f32_kernels_track_f64_references(
        a in vec(finite_f32(10.0), 1..256),
    ) {
        // The 4-accumulator dot and pairwise-ish sum must stay within a few
        // ULP-scale multiples of an f64 reference — the numerical basis for
        // trusting the lazy-softmax reassociation.
        let b: Vec<f32> = a.iter().map(|x| (x * 1.7).cos()).collect();
        let dot64: f64 = a.iter().zip(&b).map(|(&x, &y)| x as f64 * y as f64).sum();
        let dot32 = kernels::dot(&a, &b) as f64;
        let scale = a.iter().zip(&b).map(|(&x, &y)| (x * y).abs() as f64).sum::<f64>();
        prop_assert!((dot32 - dot64).abs() <= 1e-5 * scale.max(1.0),
            "dot: {dot32} vs {dot64}");

        let sum64: f64 = a.iter().map(|&x| x as f64).sum();
        let sum32 = reduce::sum(&a) as f64;
        let abs_scale: f64 = a.iter().map(|&x| x.abs() as f64).sum();
        prop_assert!((sum32 - sum64).abs() <= 1e-5 * abs_scale.max(1.0),
            "sum: {sum32} vs {sum64}");
    }

    #[test]
    fn argmax_is_the_first_of_top_k_select_on_any_bits(xs in vec(any_bits_f32(), 0..100)) {
        let word = reduce::argmax(&xs);
        prop_assert_eq!(word, reduce::top_k_select(&xs, 1).first().copied(), "{:?}", xs);
        if let Some(i) = word.filter(|_| xs.iter().any(|v| !v.is_nan())) {
            prop_assert_eq!(xs[i], reduce::max(&xs));
        }
        // The answer softmax picks that word and one probability on every
        // backend.
        let answers: Vec<_> = both_backends()
            .into_iter()
            .map(|b| simd::argmax_softmax_with(b, &xs).map(|(w, p)| (w, p.to_bits())))
            .collect();
        prop_assert!(answers.iter().all(|a| *a == answers[0]), "{:?}: {:?}", xs, answers);
        prop_assert_eq!(answers[0].map(|(w, _)| w), word);
    }

    // ---------------------------------------------------------------
    // SIMD backend agreement. These use the explicit `_with` entry
    // points (no global backend mutation), so they are safe under the
    // parallel test runner; AVX2 calls are guarded by CPU detection.
    // ---------------------------------------------------------------

    #[test]
    fn simd_dot_agrees_with_scalar(
        pair in vec((awkward_f32(), awkward_f32()), 0..70),
    ) {
        if Backend::detect() != Backend::Avx2 {
            return Ok(());
        }
        let a: Vec<f32> = pair.iter().map(|p| p.0).collect();
        let b: Vec<f32> = pair.iter().map(|p| p.1).collect();
        let scale: f32 = a.iter().zip(&b).map(|(x, y)| (x * y).abs()).sum();
        let v = simd::dot_with(Backend::Avx2, &a, &b);
        let s = simd::dot_with(Backend::Scalar, &a, &b);
        let tol = 1e-4f32 * scale.max(1.0);
        prop_assert!((v - s).abs() <= tol || v.to_bits() == s.to_bits(),
            "dot len {}: {v} vs {s}", a.len());
    }

    #[test]
    fn simd_axpy_and_scale_agree_with_scalar(
        x in vec(awkward_f32(), 0..70),
        alpha in -3.0f32..3.0,
    ) {
        if Backend::detect() != Backend::Avx2 {
            return Ok(());
        }
        let y0: Vec<f32> = x.iter().map(|v| v * 0.5 - 1.0).collect();
        let mut yv = y0.clone();
        let mut ys = y0.clone();
        simd::axpy_with(Backend::Avx2, alpha, &x, &mut yv);
        simd::axpy_with(Backend::Scalar, alpha, &x, &mut ys);
        for (i, (v, s)) in yv.iter().zip(&ys).enumerate() {
            prop_assert!((v - s).abs() <= 1e-4 * s.abs().max(1.0) || v.to_bits() == s.to_bits(),
                "axpy[{i}]: {v} vs {s}");
        }
        // scale is a plain lane-wise multiply: bitwise across backends
        // (on identical inputs — the axpy outputs above already differ).
        let mut zv = y0.clone();
        let mut zs = y0.clone();
        simd::scale_with(Backend::Avx2, alpha, &mut zv);
        simd::scale_with(Backend::Scalar, alpha, &mut zs);
        for (i, (v, s)) in zv.iter().zip(&zs).enumerate() {
            prop_assert!(v.to_bits() == s.to_bits(), "scale[{i}]: {v} vs {s}");
        }
    }

    #[test]
    fn simd_gemv_chunk_agrees_with_scalar(
        rows in 0usize..20,
        cols_sel in 0usize..AWKWARD_LENS.len(),
        seed in any::<u64>(),
    ) {
        if Backend::detect() != Backend::Avx2 {
            return Ok(());
        }
        let cols = AWKWARD_LENS[cols_sel];
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0
        };
        let chunk: Vec<f32> = (0..rows * cols).map(|_| next()).collect();
        let x: Vec<f32> = (0..cols).map(|_| next()).collect();
        let mut out_v = vec![0.0f32; rows];
        let mut out_s = vec![0.0f32; rows];
        simd::gemv_chunk_with(Backend::Avx2, &chunk, rows, &x, &mut out_v);
        simd::gemv_chunk_with(Backend::Scalar, &chunk, rows, &x, &mut out_s);
        for (r, (v, s)) in out_v.iter().zip(&out_s).enumerate() {
            prop_assert!(approx_eq(*v, *s, 1e-4), "row {r} (cols {cols}): {v} vs {s}");
        }
    }

    #[test]
    fn simd_exp_slice_matches_libm_within_bound(
        xs in vec(-87.0f32..87.0, 0..70),
    ) {
        if Backend::detect() != Backend::Avx2 {
            return Ok(());
        }
        let mut v = xs.clone();
        simd::exp_slice_with(Backend::Avx2, &mut v);
        for (i, (&x, &e)) in xs.iter().zip(&v).enumerate() {
            let exact = (x as f64).exp();
            let rel = ((e as f64 - exact) / exact).abs();
            prop_assert!(rel <= simd::EXP_MAX_REL_ERROR as f64,
                "exp[{i}] of {x}: rel err {rel:.3e}");
        }
    }

    #[test]
    fn fused_chunk_agrees_across_backends(
        rows in 0usize..24,
        ed_sel in 0usize..AWKWARD_LENS.len(),
        threshold in prop_oneof![Just(None), (0.1f32..2.0).prop_map(Some)],
        seed in any::<u64>(),
    ) {
        if Backend::detect() != Backend::Avx2 {
            return Ok(());
        }
        let ed = AWKWARD_LENS[ed_sel];
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0
        };
        let in_flat: Vec<f32> = (0..rows * ed).map(|_| next()).collect();
        let out_flat: Vec<f32> = (0..rows * ed).map(|_| next()).collect();
        let u: Vec<f32> = (0..ed).map(|_| next()).collect();

        let mut ws_v = vec![0.0f32; ed];
        let mut ws_s = vec![0.0f32; ed];
        let (denom_v, _) = simd::fused_chunk_lazy_with(
            Backend::Avx2, &in_flat, &out_flat, rows, &u, threshold, &mut ws_v);
        let (denom_s, skip_s) = simd::fused_chunk_lazy_with(
            Backend::Scalar, &in_flat, &out_flat, rows, &u, threshold, &mut ws_s);
        // The fast exp can flip a weight across the threshold only when the
        // weight is within EXP_MAX_REL_ERROR of it, so skip counts may differ
        // by the rows whose weights straddle the boundary; denominators and
        // weighted sums must still agree to kernel tolerance.
        prop_assert!(approx_eq(denom_v, denom_s, 1e-4), "denom: {denom_v} vs {denom_s}");
        for (i, (v, s)) in ws_v.iter().zip(&ws_s).enumerate() {
            prop_assert!((v - s).abs() <= 1e-4 * denom_s.max(1.0),
                "weighted_sum[{i}]: {v} vs {s}");
        }
        // Scalar fused must be bitwise identical to the scalar two-pass path.
        let mut logits = vec![0.0f32; rows];
        simd::gemv_chunk_with(Backend::Scalar, &in_flat, rows, &u, &mut logits);
        let mut ws_ref = vec![0.0f32; ed];
        let mut denom_ref = 0.0f32;
        let mut skip_ref = 0u64;
        for (r, &x) in logits.iter().enumerate() {
            let w = x.exp();
            denom_ref += w;
            match threshold {
                Some(th) if w < th => skip_ref += 1,
                _ => simd::axpy_with(
                    Backend::Scalar, w, &out_flat[r * ed..(r + 1) * ed], &mut ws_ref),
            }
        }
        prop_assert_eq!(skip_s, skip_ref);
        prop_assert_eq!(denom_s.to_bits(), denom_ref.to_bits());
        for (v, s) in ws_s.iter().zip(&ws_ref) {
            prop_assert_eq!(v.to_bits(), s.to_bits());
        }
    }

    // The embed gather-sum kernels promise *bitwise* agreement across
    // backends (the serving embedding cache depends on it), so these
    // assert `to_bits()` equality, not approximate agreement. Shapes
    // cover the awkward cases: empty token list, single token, ed not a
    // multiple of the 8-lane width.

    #[test]
    fn embed_kernels_bitwise_identical_across_backends(
        rows in 1usize..24,
        ed_sel in 0usize..AWKWARD_LENS.len(),
        n_tokens in 0usize..13,
        pe in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let ed = AWKWARD_LENS[ed_sel];
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0
        };
        let table_a: Vec<f32> = (0..rows * ed).map(|_| next()).collect();
        let table_c: Vec<f32> = (0..rows * ed).map(|_| next()).collect();
        let tokens: Vec<u32> = (0..n_tokens)
            .map(|_| ((next().abs() * rows as f32) as u32).min(rows as u32 - 1))
            .collect();

        // Scalar reference for the single-table kernels.
        let mut sum_s = vec![1.0f32; ed]; // non-zero: the kernel must overwrite
        let mut pe_s = vec![1.0f32; ed];
        simd::embed_sum_with(Backend::Scalar, &table_a, ed, &tokens, &mut sum_s);
        simd::embed_sum_pe_with(Backend::Scalar, &table_a, ed, &tokens, &mut pe_s);

        if Backend::detect() == Backend::Avx2 {
            let mut sum_v = vec![1.0f32; ed];
            let mut pe_v = vec![1.0f32; ed];
            simd::embed_sum_with(Backend::Avx2, &table_a, ed, &tokens, &mut sum_v);
            simd::embed_sum_pe_with(Backend::Avx2, &table_a, ed, &tokens, &mut pe_v);
            for (k, (v, s)) in sum_v.iter().zip(&sum_s).enumerate() {
                prop_assert_eq!(v.to_bits(), s.to_bits(), "embed_sum[{}]: {} vs {}", k, v, s);
            }
            for (k, (v, s)) in pe_v.iter().zip(&pe_s).enumerate() {
                prop_assert_eq!(v.to_bits(), s.to_bits(), "embed_sum_pe[{}]: {} vs {}", k, v, s);
            }
        }

        // The fused pair kernel must match two separate calls bitwise, on
        // every backend the CPU has.
        let backends: &[Backend] = if Backend::detect() == Backend::Avx2 {
            &[Backend::Scalar, Backend::Avx2]
        } else {
            &[Backend::Scalar]
        };
        for &b in backends {
            let mut ref_a = vec![0.0f32; ed];
            let mut ref_c = vec![0.0f32; ed];
            if pe {
                simd::embed_sum_pe_with(b, &table_a, ed, &tokens, &mut ref_a);
                simd::embed_sum_pe_with(b, &table_c, ed, &tokens, &mut ref_c);
            } else {
                simd::embed_sum_with(b, &table_a, ed, &tokens, &mut ref_a);
                simd::embed_sum_with(b, &table_c, ed, &tokens, &mut ref_c);
            }
            let mut pair_a = vec![1.0f32; ed];
            let mut pair_c = vec![1.0f32; ed];
            simd::embed_pair_with(b, &table_a, &table_c, ed, &tokens, pe, &mut pair_a, &mut pair_c);
            for (k, (v, s)) in pair_a.iter().zip(&ref_a).enumerate() {
                prop_assert_eq!(v.to_bits(), s.to_bits(),
                    "pair A[{}] on {:?}: {} vs {}", k, b, v, s);
            }
            for (k, (v, s)) in pair_c.iter().zip(&ref_c).enumerate() {
                prop_assert_eq!(v.to_bits(), s.to_bits(),
                    "pair C[{}] on {:?}: {} vs {}", k, b, v, s);
            }
        }
    }

    #[test]
    fn embed_sum_matches_naive_row_sum(
        rows in 1usize..16,
        ed in 1usize..20,
        n_tokens in 0usize..10,
        seed in any::<u64>(),
    ) {
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0
        };
        let table: Vec<f32> = (0..rows * ed).map(|_| next()).collect();
        let tokens: Vec<u32> = (0..n_tokens)
            .map(|_| ((next().abs() * rows as f32) as u32).min(rows as u32 - 1))
            .collect();
        let mut out = vec![0.0f32; ed];
        kernels::embed_sum(&table, ed, &tokens, &mut out);
        let mut naive = vec![0.0f32; ed];
        for &t in &tokens {
            for k in 0..ed {
                naive[k] += table[t as usize * ed + k];
            }
        }
        for (k, (v, s)) in out.iter().zip(&naive).enumerate() {
            prop_assert_eq!(v.to_bits(), s.to_bits(), "embed_sum[{}]: {} vs {}", k, v, s);
        }
    }

    #[test]
    fn gemm_matches_gemv_per_column(
        m in 1usize..10,
        k in 1usize..10,
        n in 1usize..6,
    ) {
        let a = Matrix::from_fn(m, k, |r, c| ((r * 31 + c * 7) % 11) as f32 - 5.0);
        let b = Matrix::from_fn(k, n, |r, c| ((r * 13 + c * 3) % 7) as f32 - 3.0);
        let mut c_mat = Matrix::zeros(m, n);
        kernels::gemm(&a, &b, &mut c_mat).unwrap();
        // Column j of C equals A · (column j of B).
        for j in 0..n {
            let col: Vec<f32> = (0..k).map(|p| b.get(p, j)).collect();
            let mut out = vec![0.0; m];
            kernels::gemv(&a, &col, &mut out).unwrap();
            for (i, &v) in out.iter().enumerate() {
                prop_assert!(approx_eq(c_mat.get(i, j), v, 1e-3));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Tile-shape parity: the canonical order makes every kernel of the f32
// family return the same bits whatever tile computed them.
// ---------------------------------------------------------------------------
//
// An exhaustive grid rather than random shapes: the shapes *are* the
// property. `nq` covers a lone question, one pair, an odd trailing
// question and many pairs; `n_rows` a partial block, exactly one block, a
// block plus one row and many blocks with and without a remainder; `ed`
// no full lane, exactly one, many, and many plus a scalar tail. Every
// operand is offset by one float from its allocation, so nothing relies
// on alignment.

const TILE_NQ: [usize; 6] = [1, 2, 3, 7, 8, 32];
const TILE_ROWS: [usize; 6] = [1, 5, 8, 9, 63, 64];
const TILE_ED: [usize; 6] = [1, 3, 8, 63, 64, 65];

/// `n + 1` deterministic values in `[-0.5, 0.5)`; callers use `[1..]`.
fn misaligned(n: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n + 1)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        })
        .collect()
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// The detected backend and the scalar reference (once, if they coincide).
fn both_backends() -> Vec<Backend> {
    let mut bs = vec![Backend::detect(), Backend::Scalar];
    bs.dedup();
    bs
}

/// A bare lane for driving the simd-level batched kernel directly.
#[derive(Clone)]
struct Lane {
    ws: Vec<f32>,
    denom: f32,
}

impl simd::FusedLane for Lane {
    fn parts(&mut self) -> (&mut [f32], &mut f32) {
        (&mut self.ws[1..], &mut self.denom)
    }
}

#[test]
fn gemm_row_is_gemv_is_dot_bit_for_bit() {
    for b in both_backends() {
        for (nq, n_rows, ed) in tile_grid() {
            let chunk = misaligned(n_rows * ed, 1);
            let us = misaligned(nq * ed, 2);
            let (chunk, us) = (&chunk[1..], &us[1..]);
            let mut gemm = vec![0.0f32; nq * n_rows + 1];
            simd::gemm_chunk_with(b, chunk, n_rows, us, nq, &mut gemm[1..]);
            for q in 0..nq {
                let u = &us[q * ed..(q + 1) * ed];
                let mut gemv = vec![0.0f32; n_rows + 1];
                simd::gemv_chunk_with(b, chunk, n_rows, u, &mut gemv[1..]);
                let dots: Vec<f32> = (0..n_rows)
                    .map(|r| simd::dot_with(b, &chunk[r * ed..(r + 1) * ed], u))
                    .collect();
                let row = &gemm[1 + q * n_rows..1 + (q + 1) * n_rows];
                assert_eq!(
                    bits(row),
                    bits(&gemv[1..]),
                    "{b:?} nq{nq} rows{n_rows} ed{ed} q{q}"
                );
                assert_eq!(
                    bits(row),
                    bits(&dots),
                    "{b:?} nq{nq} rows{n_rows} ed{ed} q{q}"
                );
            }
        }
    }
}

fn tile_grid() -> impl Iterator<Item = (usize, usize, usize)> {
    TILE_NQ.into_iter().flat_map(|nq| {
        TILE_ROWS
            .into_iter()
            .flat_map(move |n_rows| TILE_ED.into_iter().map(move |ed| (nq, n_rows, ed)))
    })
}

/// Thresholds: none, and one that skips roughly half the rows.
fn thresholds_for(nq: usize, with_skip: bool) -> Vec<Option<f32>> {
    (0..nq)
        .map(|q| with_skip.then_some(0.9 + 0.02 * (q % 5) as f32))
        .collect()
}

#[test]
fn fused_lazy_batch_is_bitwise_nq_single_calls() {
    // (rows skipped, rows kept) under a threshold, over the whole grid.
    let mut seen = (0u64, 0u64);
    for b in both_backends() {
        for (nq, n_rows, ed) in tile_grid() {
            let m_in = misaligned(n_rows * ed, 3);
            let m_out = misaligned(n_rows * ed, 4);
            let us = misaligned(nq * ed, 5);
            let (m_in, m_out, us) = (&m_in[1..], &m_out[1..], &us[1..]);
            // Lanes start from a used state: the kernel adds into them.
            let fresh: Vec<Lane> = (0..nq)
                .map(|q| Lane {
                    ws: misaligned(ed, 6 + q as u64),
                    denom: 0.25 * q as f32,
                })
                .collect();
            // One dead question in the middle splits a pair.
            let live: Vec<bool> = (0..nq).map(|q| nq < 3 || q != 1).collect();
            for with_skip in [false, true] {
                let ths = thresholds_for(nq, with_skip);
                let mut batch = fresh.clone();
                let mut skipped = vec![0u64; nq];
                simd::fused_chunk_lazy_batch_with(
                    b,
                    m_in,
                    m_out,
                    n_rows,
                    us,
                    &mut batch,
                    &ths,
                    &live,
                    &mut skipped,
                );
                for q in 0..nq {
                    let ctx = format!("{b:?} nq{nq} rows{n_rows} ed{ed} q{q} skip={with_skip}");
                    let mut alone = [fresh[q].clone()];
                    let mut alone_skipped = [0u64];
                    if live[q] {
                        simd::fused_chunk_lazy_batch_with(
                            b,
                            m_in,
                            m_out,
                            n_rows,
                            &us[q * ed..(q + 1) * ed],
                            &mut alone,
                            &ths[q..q + 1],
                            &[true],
                            &mut alone_skipped,
                        );
                    }
                    assert_eq!(bits(&batch[q].ws), bits(&alone[0].ws), "{ctx}");
                    assert_eq!(batch[q].denom.to_bits(), alone[0].denom.to_bits(), "{ctx}");
                    assert_eq!(skipped[q], alone_skipped[0], "{ctx}");
                    if with_skip && live[q] {
                        seen.0 += skipped[q];
                        seen.1 += n_rows as u64 - skipped[q];
                    }
                }
            }
        }
    }
    assert!(
        seen.0 > 1000 && seen.1 > 1000,
        "the thresholds should split the rows: {seen:?}"
    );
}

/// The accumulator-level entry points on the active backend (the forced
/// scalar CI leg runs this file under `MNNFAST_SIMD=scalar`): a batch gives
/// every question the accumulator state — compared through the wire
/// encoding, i.e. bit for bit — and skip count its own `accumulate_chunk`
/// gives it, lazy and online.
#[test]
fn accumulator_batches_are_bitwise_nq_single_calls() {
    use mnn_tensor::partial::PartialState;
    for (nq, n_rows, ed) in tile_grid() {
        let m_in = misaligned(n_rows * ed, 7);
        let m_out = misaligned(n_rows * ed, 8);
        let us = misaligned(nq * ed, 9);
        let (m_in, m_out, us) = (&m_in[1..], &m_out[1..], &us[1..]);
        let live = vec![true; nq];
        for with_skip in [false, true] {
            let ctx = format!("nq{nq} rows{n_rows} ed{ed} skip={with_skip}");

            let ths = thresholds_for(nq, with_skip);
            let mut lazy = vec![LazyAccumulator::new(ed); nq];
            let mut skipped = vec![0u64; nq];
            LazyAccumulator::accumulate_chunk_batch(
                &mut lazy,
                m_in,
                m_out,
                n_rows,
                us,
                &ths,
                &live,
                &mut skipped,
            );
            for q in 0..nq {
                let mut alone = LazyAccumulator::new(ed);
                let s =
                    alone.accumulate_chunk(m_in, m_out, n_rows, &us[q * ed..(q + 1) * ed], ths[q]);
                assert_eq!(skipped[q], s, "lazy {ctx} q{q}");
                assert_eq!(
                    PartialState::Lazy(lazy[q].clone()).to_bytes(),
                    PartialState::Lazy(alone).to_bytes(),
                    "lazy {ctx} q{q}"
                );
            }

            // Online thresholds compare against e^{x - max} ∈ (0, 1].
            let ths: Vec<Option<f32>> = ths.iter().map(|t| t.map(|t| t - 0.4)).collect();
            let mut online = vec![OnlineSoftmax::new(ed); nq];
            let mut skipped = vec![0u64; nq];
            // A workspace smaller than the chunk makes the kernel take the
            // chunk in several tile passes.
            let mut logits = vec![0.0f32; nq * n_rows.min(24)];
            OnlineSoftmax::accumulate_chunk_batch(
                &mut online,
                m_in,
                m_out,
                n_rows,
                us,
                &ths,
                &live,
                &mut logits,
                &mut skipped,
            );
            for q in 0..nq {
                let mut alone = OnlineSoftmax::new(ed);
                let s =
                    alone.accumulate_chunk(m_in, m_out, n_rows, &us[q * ed..(q + 1) * ed], ths[q]);
                assert_eq!(skipped[q], s, "online {ctx} q{q}");
                assert_eq!(
                    PartialState::Online(online[q].clone()).to_bytes(),
                    PartialState::Online(alone).to_bytes(),
                    "online {ctx} q{q}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The answer softmax: one value on every backend, within its published
// bound of an f64 softmax.
// ---------------------------------------------------------------------------

const ANSWER_LENS: [usize; 9] = [1, 7, 8, 9, 63, 64, 65, 10_000, 10_007];

/// The value families of the answer-softmax grid, each `n` long.
fn answer_logits(n: usize) -> Vec<(&'static str, Vec<f32>)> {
    let wave = misaligned(n, n as u64);
    let spread: Vec<f32> = wave[1..].iter().map(|v| v * 60.0).collect();
    let narrow: Vec<f32> = wave[1..].iter().map(|v| v * 2.0).collect();
    let mut inf = narrow.clone();
    inf[n / 2] = f32::INFINITY;
    let mut runs = spread.clone();
    for (i, v) in runs.iter_mut().enumerate() {
        if i % 13 < 5 {
            *v = f32::NEG_INFINITY;
        }
    }
    let mut cases = vec![
        ("spread", spread.clone()),
        ("narrow", narrow),
        ("all-equal", vec![0.75; n]),
        ("+inf", inf),
        ("-inf runs", runs),
    ];
    for (name, at) in [("NaN first", 0), ("NaN middle", n / 2), ("NaN last", n - 1)] {
        let mut x = spread.clone();
        x[at] = f32::NAN;
        cases.push((name, x));
    }
    cases
}

/// `|got - want| / want` against the f64 softmax probability of `word`.
fn rel_error_vs_f64(x: &[f32], word: usize, got: f32) -> f64 {
    let max = x[word] as f64;
    let sum: f64 = x.iter().map(|&v| (v as f64 - max).exp()).sum();
    let want = 1.0 / sum;
    (got as f64 - want).abs() / want
}

#[test]
fn argmax_softmax_is_one_value_on_every_backend_within_its_bound() {
    let bound = simd::ARGMAX_SOFTMAX_MAX_REL_ERROR as f64;
    let (mut worst_new, mut worst_old) = ((0.0f64, String::new()), (0.0f64, String::new()));
    for n in ANSWER_LENS {
        for (family, x) in answer_logits(n) {
            let ctx = format!("n={n} {family}");
            let word = reduce::argmax(&x).expect("non-empty");
            let answers: Vec<(usize, u32)> = both_backends()
                .into_iter()
                .map(|b| simd::argmax_softmax_with(b, &x).expect("non-empty"))
                .map(|(w, p)| (w, p.to_bits()))
                .collect();
            assert!(
                answers.iter().all(|a| *a == answers[0]),
                "{ctx}: {answers:?}"
            );
            let (got_word, p) = (answers[0].0, f32::from_bits(answers[0].1));
            assert_eq!(got_word, word, "{ctx}");

            let max = reduce::max(&x);
            if x.iter().any(|v| v.is_nan()) || !max.is_finite() {
                assert!(
                    p.is_nan(),
                    "{ctx}: a NaN or infinite maximum poisons the sum"
                );
                continue;
            }
            let new = rel_error_vs_f64(&x, word, p);
            assert!(new <= bound, "{ctx}: relative error {new:.3e}");
            // libm exp with one serial sum, the textbook formulation, needs
            // the same bound: the canonical value is no less accurate.
            let serial: f32 = x.iter().map(|&v| (v - max).exp()).sum();
            let old = rel_error_vs_f64(&x, word, (x[word] - max).exp() * (1.0 / serial));
            assert!(old <= bound, "{ctx}: old relative error {old:.3e}");
            if new > worst_new.0 {
                worst_new = (new, ctx.clone());
            }
            if old > worst_old.0 {
                worst_old = (old, ctx);
            }
        }
    }
    println!(
        "worst relative error: kernel {:.3e} ({}), serial libm {:.3e} ({})",
        worst_new.0, worst_new.1, worst_old.0, worst_old.1
    );
}
