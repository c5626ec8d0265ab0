//! Dense kernels: dot, axpy, scale, GEMV and blocked GEMM.
//!
//! These are the from-scratch replacements for the OpenBLAS calls in the
//! paper's CPU implementation. Each level-1 kernel dispatches once per call
//! to the active [`crate::simd`] backend — explicit AVX2 + FMA intrinsics
//! when the CPU supports them, a portable scalar reference otherwise (see
//! [`crate::simd::backend`] for the resolution rules). The scalar loops are
//! kept auto-vectorizable (no bounds checks in the hot loop, simple
//! strides) so the fallback is still fast.
//!
//! # Caller-validates contract
//!
//! `dot` and `gemv_chunk` sit in the innermost loops of the column-based
//! algorithm; their exact-shape checks are `debug_assert!`s, and callers
//! validate shapes once at a higher level (the public [`gemv`] / [`gevm`] /
//! [`gemm`] entry points return [`ShapeError`]). In release builds `dot`
//! computes over the common prefix of mismatched slices and the chunk
//! kernels panic on an operand too short for `n_rows` (their tiles read
//! rows through raw pointers, so [`crate::simd`] asserts the bounds once
//! per call) — never out-of-bounds access.

use crate::simd;
use crate::{Matrix, ShapeError};

/// Dot product of two equal-length slices.
///
/// Dispatches to the active SIMD backend and returns the value in that
/// backend's canonical row-dot order (see [`crate::simd`]) — the same bits
/// [`gemv_chunk`], [`gemm_chunk`] and the fused kernels produce for the
/// same row. A lone AVX2 dot is one latency-bound FMA chain; anything with
/// several rows is faster through [`gemv_chunk`].
///
/// Length equality is a `debug_assert!` — see the module-level
/// caller-validates contract.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "dot: length mismatch");
    simd::dot_with(simd::backend(), a, b)
}

/// `y += alpha * x` (BLAS `axpy`).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    simd::axpy_with(simd::backend(), alpha, x, y);
}

/// `x *= alpha` in place.
pub fn scale(alpha: f32, x: &mut [f32]) {
    simd::scale_with(simd::backend(), alpha, x);
}

/// Element-wise `y += x`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn add_assign(y: &mut [f32], x: &[f32]) {
    axpy(1.0, x, y);
}

/// Matrix–vector product `out = M · x` where `M` is `rows × cols` and `x`
/// has length `cols`.
///
/// This is the *inner product* step of the inference operation: each row of
/// `M_IN` dotted against the question state `u` (Equation 1 of the paper).
///
/// # Errors
///
/// Returns [`ShapeError`] if `x.len() != M.cols()` or
/// `out.len() != M.rows()`.
pub fn gemv(m: &Matrix, x: &[f32], out: &mut [f32]) -> Result<(), ShapeError> {
    if x.len() != m.cols() {
        return Err(ShapeError::new(
            "gemv",
            format!("x of length {}", m.cols()),
            format!("x of length {}", x.len()),
        ));
    }
    if out.len() != m.rows() {
        return Err(ShapeError::new(
            "gemv",
            format!("out of length {}", m.rows()),
            format!("out of length {}", out.len()),
        ));
    }
    gemv_chunk(m.as_slice(), m.rows(), x, out);
    Ok(())
}

/// Row-chunk GEMV over a flat row-major block: `out[i] = rows[i] · x` for
/// `i` in `0..n_rows`. Used by the column-based algorithm, whose unit of
/// work is a flat chunk of `M_IN` rather than a whole [`Matrix`].
///
/// Shape checks (`chunk.len() == n_rows * x.len()`, `out.len() == n_rows`)
/// are `debug_assert!`s — see the module-level caller-validates contract.
pub fn gemv_chunk(chunk: &[f32], n_rows: usize, x: &[f32], out: &mut [f32]) {
    debug_assert_eq!(
        chunk.len(),
        n_rows * x.len(),
        "gemv_chunk: bad chunk length"
    );
    debug_assert_eq!(out.len(), n_rows, "gemv_chunk: bad out length");
    simd::gemv_chunk_with(simd::backend(), chunk, n_rows, x, out);
}

/// Batched query-vs-centroid scoring for the clustered top-K index:
/// `out[c] = centroids[c] · u` for `c` in `0..k`, over a flat row-major
/// centroid table (`k * ed` values). This is the approximate first pass of
/// the sparse-attention path — a `gemv_chunk` over the centroid block, so
/// it rides the same SIMD dispatch (AVX2 FMA or the scalar reference) as
/// the exact inner-product kernels.
///
/// Shape checks (`centroids.len() == k * u.len()`, `out.len() == k`) are
/// `debug_assert!`s — see the module-level caller-validates contract.
pub fn centroid_scores(centroids: &[f32], k: usize, u: &[f32], out: &mut [f32]) {
    debug_assert_eq!(
        centroids.len(),
        k * u.len(),
        "centroid_scores: bad centroid table length"
    );
    debug_assert_eq!(out.len(), k, "centroid_scores: bad out length");
    simd::gemv_chunk_with(simd::backend(), centroids, k, u, out);
}

/// Batched row-chunk GEMM over a flat row-major block:
/// `out[q * n_rows + r] = rows[r] · question_q` for `r` in `0..n_rows` and
/// `q` in `0..nq`, with the `nq` question vectors concatenated in
/// `us_flat`. This is the batched inner product of the column-based
/// algorithm (Section 4.1.2's `U × chunkᵀ` GEMM): one cache-resident chunk
/// of `M_IN` is applied to every question before the next chunk streams in.
/// Dispatches to the register-tiled AVX2 kernel or the scalar
/// per-question reference ([`crate::simd::gemm_chunk_with`]); either way
/// row `q` of the result is bitwise [`gemv_chunk`] over `question_q`.
///
/// Shape checks (`us_flat.len() == nq * ed`, `chunk.len() == n_rows * ed`,
/// `out.len() == nq * n_rows`) are `debug_assert!`s — see the module-level
/// caller-validates contract.
pub fn gemm_chunk(chunk: &[f32], n_rows: usize, us_flat: &[f32], nq: usize, out: &mut [f32]) {
    debug_assert!(
        nq == 0 || us_flat.len().is_multiple_of(nq),
        "gemm_chunk: ragged question block"
    );
    debug_assert_eq!(
        chunk.len() * nq,
        n_rows * us_flat.len(),
        "gemm_chunk: bad chunk length"
    );
    debug_assert_eq!(out.len(), nq * n_rows, "gemm_chunk: bad out length");
    simd::gemm_chunk_with(simd::backend(), chunk, n_rows, us_flat, nq, out);
}

/// Exact i8 dot product (i32 accumulation), dispatched to the active SIMD
/// backend. Both backends return the same value bit for bit — integer
/// arithmetic has no rounding history to diverge (see the int8 parity
/// note in [`crate::simd`]).
///
/// Length equality is a `debug_assert!` — see the module-level
/// caller-validates contract.
pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    debug_assert_eq!(a.len(), b.len(), "dot_i8: length mismatch");
    simd::dot_i8_with(simd::backend(), a, b)
}

/// Quantized row-chunk GEMV over a flat i8 block: `out[r]` is the
/// dequantized logit `(rows[r] · uq) · (u_scale · scales[r])`, one f32
/// rescale per row from the exact integer accumulator. Bitwise identical
/// across backends.
///
/// Shape checks are `debug_assert!`s — see the module-level
/// caller-validates contract.
pub fn gemv_chunk_i8(
    chunk: &[i8],
    scales: &[f32],
    n_rows: usize,
    uq: &[i8],
    u_scale: f32,
    out: &mut [f32],
) {
    debug_assert_eq!(
        chunk.len(),
        n_rows * uq.len(),
        "gemv_chunk_i8: bad chunk length"
    );
    debug_assert_eq!(scales.len(), n_rows, "gemv_chunk_i8: bad scales length");
    debug_assert_eq!(out.len(), n_rows, "gemv_chunk_i8: bad out length");
    simd::gemv_chunk_i8_with(simd::backend(), chunk, scales, n_rows, uq, u_scale, out);
}

/// BoW embedding gather-sum over a flat row-major table:
/// `out = Σ_j table[tokens[j]]` where each row is `ed` wide. This is the
/// embedding operation's hot loop (the memory-bound phase the paper's
/// Section 4.3 embedding cache targets), dispatched to the active SIMD
/// backend. Both backends are **bitwise identical** by design (see
/// [`crate::simd`]'s embed section), so results never depend on which CPU
/// computed them — the property the serving layer's embedding cache relies
/// on.
///
/// # Panics
///
/// Panics if `out.len() != ed` or a token indexes past the table's rows.
pub fn embed_sum(table: &[f32], ed: usize, tokens: &[u32], out: &mut [f32]) {
    assert_eq!(out.len(), ed, "embed_sum: bad out length");
    debug_assert!(
        ed == 0 || table.len().is_multiple_of(ed),
        "embed_sum: ragged table"
    );
    simd::embed_sum_with(simd::backend(), table, ed, tokens, out);
}

/// Position-encoded gather-sum: like [`embed_sum`] but row `j` is weighted
/// element-wise by Sukhbaatar et al.'s position encoding
/// `l_{kj} = (1 − j/nw) − ((k+1)/ed)(1 − 2j/nw)` (1-based `j`, `k`).
/// Bitwise identical across backends.
///
/// # Panics
///
/// Panics if `out.len() != ed` or a token indexes past the table's rows.
pub fn embed_sum_pe(table: &[f32], ed: usize, tokens: &[u32], out: &mut [f32]) {
    assert_eq!(out.len(), ed, "embed_sum_pe: bad out length");
    debug_assert!(
        ed == 0 || table.len().is_multiple_of(ed),
        "embed_sum_pe: ragged table"
    );
    simd::embed_sum_pe_with(simd::backend(), table, ed, tokens, out);
}

/// Fused two-table gather-sum: embeds `tokens` through `table_a` and
/// `table_c` in one pass (`pe` selects position encoding), producing the
/// `A`-side and `C`-side memory rows together so each token's position
/// weights and index arithmetic are computed once. Bitwise identical to
/// two separate [`embed_sum`] / [`embed_sum_pe`] calls on any backend.
///
/// # Panics
///
/// Panics if an output slice's length is not `ed` or a token indexes past
/// either table's rows.
pub fn embed_pair(
    table_a: &[f32],
    table_c: &[f32],
    ed: usize,
    tokens: &[u32],
    pe: bool,
    out_a: &mut [f32],
    out_c: &mut [f32],
) {
    assert_eq!(out_a.len(), ed, "embed_pair: bad out_a length");
    assert_eq!(out_c.len(), ed, "embed_pair: bad out_c length");
    debug_assert!(
        ed == 0 || (table_a.len().is_multiple_of(ed) && table_c.len().is_multiple_of(ed)),
        "embed_pair: ragged table"
    );
    simd::embed_pair_with(
        simd::backend(),
        table_a,
        table_c,
        ed,
        tokens,
        pe,
        out_a,
        out_c,
    );
}

/// Vector–matrix product `out = xᵀ · M` (length `cols`), i.e. the weighted
/// sum of the *rows* of `M` with weights `x`.
///
/// This is the *output memory representation* step (Equation 2): the response
/// vector `o = Σ p_i · m_i^OUT`.
///
/// # Errors
///
/// Returns [`ShapeError`] if `x.len() != M.rows()` or
/// `out.len() != M.cols()`.
pub fn gevm(x: &[f32], m: &Matrix, out: &mut [f32]) -> Result<(), ShapeError> {
    if x.len() != m.rows() {
        return Err(ShapeError::new(
            "gevm",
            format!("x of length {}", m.rows()),
            format!("x of length {}", x.len()),
        ));
    }
    if out.len() != m.cols() {
        return Err(ShapeError::new(
            "gevm",
            format!("out of length {}", m.cols()),
            format!("out of length {}", out.len()),
        ));
    }
    out.fill(0.0);
    for (r, &w) in x.iter().enumerate() {
        axpy(w, m.row(r), out);
    }
    Ok(())
}

/// Tile edge used by [`gemm`]'s cache blocking.
const GEMM_BLOCK: usize = 64;

/// Blocked matrix–matrix product `C = A · B`.
///
/// `A` is `m × k`, `B` is `k × n`, `C` is `m × n`. The k-loop is blocked so
/// that the working set of a tile fits in L1/L2; within a tile the innermost
/// loop runs contiguously over a row of `B` and `C`, which LLVM vectorizes.
/// GEMM appears in the paper's pipeline as the batched inner product
/// (`U × M_INᵀ`) and the FC output layer.
///
/// # Errors
///
/// Returns [`ShapeError`] if the inner dimensions disagree or `C` has the
/// wrong shape.
pub fn gemm(a: &Matrix, b: &Matrix, c: &mut Matrix) -> Result<(), ShapeError> {
    if a.cols() != b.rows() {
        return Err(ShapeError::new(
            "gemm",
            format!("inner dims equal (A is {}x{})", a.rows(), a.cols()),
            format!("B is {}x{}", b.rows(), b.cols()),
        ));
    }
    if c.shape() != (a.rows(), b.cols()) {
        return Err(ShapeError::new(
            "gemm",
            format!("C of shape {}x{}", a.rows(), b.cols()),
            format!("C of shape {}x{}", c.rows(), c.cols()),
        ));
    }
    c.as_mut_slice().fill(0.0);
    let (m, k) = (a.rows(), a.cols());
    for kk in (0..k).step_by(GEMM_BLOCK) {
        let k_hi = (kk + GEMM_BLOCK).min(k);
        for i in 0..m {
            let a_row = a.row(i);
            let c_row = c.row_mut(i);
            for (p, &aval) in a_row.iter().enumerate().take(k_hi).skip(kk) {
                if aval == 0.0 {
                    continue;
                }
                axpy(aval, b.row(p), c_row);
            }
        }
    }
    Ok(())
}

/// `C = A · Bᵀ` where `A` is `m × k`, `B` is `n × k`, `C` is `m × n` —
/// both operands row-major, so `C[i][j] = A.row(i) · B.row(j)` with no
/// transpose copy. This is the batched inner product of the inference
/// operation: `T_IN = U × M_INᵀ` (Section 4.1.2's GEMM formulation).
///
/// # Errors
///
/// Returns [`ShapeError`] if the inner dimensions disagree or `C` has the
/// wrong shape.
pub fn gemm_nt(a: &Matrix, b: &Matrix, c: &mut Matrix) -> Result<(), ShapeError> {
    if a.cols() != b.cols() {
        return Err(ShapeError::new(
            "gemm_nt",
            format!("k dims equal (A is {}x{})", a.rows(), a.cols()),
            format!("B is {}x{}", b.rows(), b.cols()),
        ));
    }
    if c.shape() != (a.rows(), b.rows()) {
        return Err(ShapeError::new(
            "gemm_nt",
            format!("C of shape {}x{}", a.rows(), b.rows()),
            format!("C of shape {}x{}", c.rows(), c.cols()),
        ));
    }
    for i in 0..a.rows() {
        gemv_chunk(b.as_slice(), b.rows(), a.row(i), c.row_mut(i));
    }
    Ok(())
}

/// Number of floating-point operations (multiply + add counted separately)
/// performed by a `rows × cols` GEMV — used by the op-count instrumentation.
pub fn gemv_flops(rows: usize, cols: usize) -> u64 {
    2 * rows as u64 * cols as u64
}

/// FLOPs of one `nq`-question [`gemm_chunk`] over `rows × cols` — counted
/// *once per batch*, so batched instrumentation never multiplies a
/// per-question GEMV estimate by `nq` on top of this.
pub fn gemm_flops(rows: usize, cols: usize, nq: usize) -> u64 {
    gemv_flops(rows, cols) * nq as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_slice_approx_eq;

    fn naive_dot(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    #[test]
    fn centroid_scores_match_per_row_dots() {
        for (k, ed) in [(1usize, 4usize), (7, 8), (33, 16)] {
            let centroids: Vec<f32> = (0..k * ed).map(|i| (i as f32 * 0.13).sin()).collect();
            let u: Vec<f32> = (0..ed).map(|i| (i as f32 * 0.29).cos()).collect();
            let mut out = vec![0.0f32; k];
            centroid_scores(&centroids, k, &u, &mut out);
            let expect: Vec<f32> = (0..k)
                .map(|c| dot(&centroids[c * ed..(c + 1) * ed], &u))
                .collect();
            assert_eq!(out, expect, "k={k} ed={ed}: must ride the same kernel");
        }
    }

    #[test]
    fn dot_matches_naive_on_awkward_lengths() {
        for len in [0usize, 1, 3, 4, 5, 8, 17] {
            let a: Vec<f32> = (0..len).map(|i| i as f32 * 0.5 - 1.0).collect();
            let b: Vec<f32> = (0..len).map(|i| (i as f32).sin()).collect();
            let expect = naive_dot(&a, &b);
            assert!(
                (dot(&a, &b) - expect).abs() < 1e-4,
                "len {len}: {} vs {expect}",
                dot(&a, &b)
            );
        }
    }

    #[test]
    fn axpy_and_scale() {
        let mut y = vec![1.0f32, 2.0, 3.0];
        axpy(2.0, &[1.0, 1.0, 1.0], &mut y);
        assert_eq!(y, vec![3.0, 4.0, 5.0]);
        scale(0.5, &mut y);
        assert_eq!(y, vec![1.5, 2.0, 2.5]);
        let mut z = vec![1.0f32];
        add_assign(&mut z, &[2.0]);
        assert_eq!(z, vec![3.0]);
    }

    #[test]
    fn gemv_matches_hand_computation() {
        let m = Matrix::from_rows(&[&[1.0, 2.0][..], &[3.0, 4.0][..], &[5.0, 6.0][..]]).unwrap();
        let mut out = vec![0.0; 3];
        gemv(&m, &[1.0, -1.0], &mut out).unwrap();
        assert_eq!(out, vec![-1.0, -1.0, -1.0]);
    }

    #[test]
    fn gemv_rejects_bad_shapes() {
        let m = Matrix::zeros(2, 3);
        let mut out = vec![0.0; 2];
        assert!(gemv(&m, &[0.0; 2], &mut out).is_err());
        let mut short = vec![0.0; 1];
        assert!(gemv(&m, &[0.0; 3], &mut short).is_err());
    }

    #[test]
    fn gemv_chunk_agrees_with_gemv() {
        let m = Matrix::from_fn(7, 5, |r, c| (r as f32 - c as f32) * 0.25);
        let x: Vec<f32> = (0..5).map(|i| i as f32 * 0.1).collect();
        let mut full = vec![0.0; 7];
        gemv(&m, &x, &mut full).unwrap();
        let mut chunked = vec![0.0; 7];
        for (start, n, flat) in m.chunk_rows(3) {
            gemv_chunk(flat, n, &x, &mut chunked[start..start + n]);
        }
        assert_slice_approx_eq(&full, &chunked, 1e-6);
    }

    #[test]
    fn gevm_is_weighted_row_sum() {
        let m = Matrix::from_rows(&[&[1.0, 0.0][..], &[0.0, 1.0][..]]).unwrap();
        let mut out = vec![0.0; 2];
        gevm(&[0.25, 0.75], &m, &mut out).unwrap();
        assert_eq!(out, vec![0.25, 0.75]);
        assert!(gevm(&[0.0; 3], &m, &mut out).is_err());
        let mut bad = vec![0.0; 3];
        assert!(gevm(&[0.0; 2], &m, &mut bad).is_err());
    }

    #[test]
    fn gemm_matches_naive() {
        let a = Matrix::from_fn(5, 7, |r, c| ((r * 7 + c) % 5) as f32 - 2.0);
        let b = Matrix::from_fn(7, 4, |r, c| ((r + 2 * c) % 3) as f32);
        let mut c = Matrix::zeros(5, 4);
        gemm(&a, &b, &mut c).unwrap();
        for i in 0..5 {
            for j in 0..4 {
                let expect: f32 = (0..7).map(|p| a.get(i, p) * b.get(p, j)).sum();
                assert!((c.get(i, j) - expect).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn gemm_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let mut c = Matrix::zeros(2, 2);
        assert!(gemm(&a, &b, &mut c).is_err());
        let b_ok = Matrix::zeros(3, 2);
        let mut c_bad = Matrix::zeros(3, 2);
        assert!(gemm(&a, &b_ok, &mut c_bad).is_err());
    }

    #[test]
    fn gemm_nt_matches_explicit_transpose() {
        let a = Matrix::from_fn(3, 5, |r, c| ((r * 5 + c) % 7) as f32 - 3.0);
        let b = Matrix::from_fn(4, 5, |r, c| ((r + 2 * c) % 5) as f32);
        let mut c_nt = Matrix::zeros(3, 4);
        gemm_nt(&a, &b, &mut c_nt).unwrap();
        let bt = b.transposed();
        let mut c_ref = Matrix::zeros(3, 4);
        gemm(&a, &bt, &mut c_ref).unwrap();
        for i in 0..3 {
            for j in 0..4 {
                assert!((c_nt.get(i, j) - c_ref.get(i, j)).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn gemm_nt_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 5);
        let mut c = Matrix::zeros(2, 4);
        assert!(gemm_nt(&a, &b, &mut c).is_err());
        let b_ok = Matrix::zeros(4, 3);
        let mut c_bad = Matrix::zeros(2, 3);
        assert!(gemm_nt(&a, &b_ok, &mut c_bad).is_err());
    }

    #[test]
    fn flops_counter() {
        assert_eq!(gemv_flops(10, 4), 80);
        assert_eq!(gemm_flops(10, 4, 3), 240);
    }

    #[test]
    fn gemm_chunk_agrees_with_per_question_gemv() {
        // Awkward shapes: rows not a multiple of the 4-row tile, ed not a
        // multiple of the 8-lane width, odd question count.
        for (n_rows, ed, nq) in [(7usize, 5usize, 3usize), (4, 8, 2), (1, 1, 1), (9, 13, 5)] {
            let chunk: Vec<f32> = (0..n_rows * ed)
                .map(|i| ((i as f32) * 0.31).sin())
                .collect();
            let us_flat: Vec<f32> = (0..nq * ed).map(|i| ((i as f32) * 0.17).cos()).collect();
            let mut batched = vec![0.0f32; nq * n_rows];
            gemm_chunk(&chunk, n_rows, &us_flat, nq, &mut batched);
            for q in 0..nq {
                let mut single = vec![0.0f32; n_rows];
                gemv_chunk(&chunk, n_rows, &us_flat[q * ed..(q + 1) * ed], &mut single);
                assert_slice_approx_eq(&batched[q * n_rows..(q + 1) * n_rows], &single, 1e-5);
            }
        }
    }
}
