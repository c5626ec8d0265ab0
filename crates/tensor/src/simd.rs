//! Runtime-dispatched SIMD kernel backend.
//!
//! The hot loops of the column-based algorithm — `dot`, `axpy`, `scale`,
//! `gemv_chunk`, the batched `gemm_chunk`, the lazy-softmax exp phase and
//! the fused chunk kernel — exist in two implementations:
//!
//! * **Scalar** — the portable reference implementation: plain Rust loops
//!   (auto-vectorizable by LLVM) and libm `exp`. This is the ground truth
//!   the property tests compare against.
//! * **Avx2** — explicit AVX2 + FMA intrinsics (8 f32 lanes, fused
//!   multiply-add) with a polynomial `exp` approximation
//!   ([`exp_approx`], max relative error [`EXP_MAX_REL_ERROR`]).
//!
//! The active backend is resolved once per process by [`backend`]:
//!
//! 1. the `force-scalar` cargo feature pins [`Backend::Scalar`]
//!    unconditionally (for reproducing reference numerics in embedders),
//! 2. otherwise the `MNNFAST_SIMD` environment variable (`scalar`, `avx2`
//!    or `auto`) picks the backend, clamped to what the CPU supports,
//! 3. otherwise `is_x86_feature_detected!` selects [`Backend::Avx2`] when
//!    AVX2 and FMA are both available, falling back to scalar.
//!
//! [`set_backend`] overrides the choice at runtime (tests and benchmark
//! harnesses use it to measure both implementations in one process).
//!
//! # Determinism contract
//!
//! For a fixed backend every kernel is a pure, deterministic function of
//! its inputs: the engine variants (column / streaming / parallel / batch,
//! any thread count) therefore stay bitwise identical to each other.
//! Results *across* backends agree only approximately for the f32
//! attention kernels (different accumulation widths, and the fused
//! kernel's fast exp), within the tolerances asserted by the property
//! tests. The int8 kernels, the embed kernels and the answer softmax
//! ([`argmax_softmax_with`]) are bitwise identical across backends.
//!
//! # The canonical row-dot order
//!
//! Every f32 logit `row · u` in the system — [`dot_with`],
//! [`gemv_chunk_with`], [`gemm_chunk_with`] and the fused kernels — is
//! *one* value per backend, whatever tile computed it:
//!
//! * **Avx2** — one 8-lane FMA accumulator walked over `k` ascending in
//!   steps of 8; its lanes `l0..l7` reduced by the fixed `hadd` tree
//!   `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`; then the scalar tail
//!   (`k ≥ 8·⌊ed/8⌋`) added last, ascending `k`, with separate multiply
//!   and add.
//! * **Scalar** — [`dot_scalar`]'s four interleaved partial sums.
//!
//! The register tiles (1 question × 8 rows, 2 questions × 4 rows) only
//! decide how many such accumulators are in flight at once: a tile shares
//! loads between them, never arithmetic. Remainder rows run through the
//! same tile with the last valid row repeated, an odd trailing question
//! through the 1 × 8 tile — degenerate tiles, not a second kernel. So a
//! logit does not depend on its batchmates, the chunk it sits in or the
//! thread that computes it.
//!
//! The fused kernels keep the same discipline downstream of the logits: a
//! question's denominator is summed in ascending row order, and each
//! element of its weighted sum takes its kept rows in ascending row order
//! (one FMA per row on full 8-lane blocks, multiply then add on the tail —
//! exactly what one `axpy` per row does). Batched == sequential is
//! therefore a property of the kernels, not something an engine arranges.

use std::sync::atomic::{AtomicU8, Ordering};

/// Which kernel implementation set is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Portable reference implementation (plain loops, libm `exp`).
    Scalar,
    /// AVX2 + FMA intrinsics with the polynomial fast exp.
    Avx2,
}

impl Backend {
    /// Stable machine-readable name (`scalar` / `avx2`).
    pub fn label(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
        }
    }

    /// Parses a backend request as accepted by the `MNNFAST_SIMD`
    /// environment variable. `auto` (and the empty string) mean "detect";
    /// unknown values are rejected so typos do not silently change
    /// numerics.
    pub fn parse(s: &str) -> Option<Option<Backend>> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(Some(Backend::Scalar)),
            "avx2" | "simd" => Some(Some(Backend::Avx2)),
            "auto" | "" => Some(None),
            _ => None,
        }
    }

    /// The fastest backend this CPU supports.
    pub fn detect() -> Backend {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                return Backend::Avx2;
            }
        }
        Backend::Scalar
    }

    /// Clamps a requested backend to what the CPU can actually run.
    fn supported(self) -> Backend {
        match (self, Backend::detect()) {
            (Backend::Avx2, Backend::Scalar) => Backend::Scalar,
            (b, _) => b,
        }
    }
}

/// Cached backend choice: 0 = unresolved, 1 = scalar, 2 = avx2.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

fn encode(b: Backend) -> u8 {
    match b {
        Backend::Scalar => 1,
        Backend::Avx2 => 2,
    }
}

/// Reads `MNNFAST_SIMD` strictly: unset, empty or `auto` mean "detect"
/// (`Ok(None)`), a valid backend name selects that backend, and anything
/// else is an [`EnvVarError`](crate::EnvVarError).
///
/// Lazy in-kernel resolution ([`backend`]) keeps a lenient detect-fallback
/// so library users who never validate still get working kernels; serving
/// entry points call [`crate::validate_env`] so a typo fails loudly at
/// startup instead of silently changing numerics.
pub fn backend_from_env() -> Result<Option<Backend>, crate::EnvVarError> {
    match std::env::var("MNNFAST_SIMD") {
        Ok(v) => match Backend::parse(&v) {
            Some(choice) => Ok(choice),
            None => Err(crate::EnvVarError::new(
                "MNNFAST_SIMD",
                v,
                "one of `scalar`, `avx2`, `auto` (empty/unset = auto)",
            )),
        },
        Err(_) => Ok(None),
    }
}

fn resolve_initial() -> Backend {
    if cfg!(feature = "force-scalar") {
        return Backend::Scalar;
    }
    match backend_from_env() {
        Ok(Some(requested)) => requested.supported(),
        Ok(None) | Err(_) => Backend::detect(),
    }
}

/// The active backend, resolving it on first use (see the module docs for
/// the resolution order).
#[inline]
pub fn backend() -> Backend {
    match ACTIVE.load(Ordering::Relaxed) {
        1 => Backend::Scalar,
        2 => Backend::Avx2,
        _ => {
            let b = resolve_initial();
            ACTIVE.store(encode(b), Ordering::Relaxed);
            b
        }
    }
}

/// Overrides the active backend process-wide, returning the previous one.
/// Requests the CPU cannot run are clamped to [`Backend::Scalar`]; the
/// `force-scalar` cargo feature wins over any override.
pub fn set_backend(b: Backend) -> Backend {
    let prev = backend();
    let next = if cfg!(feature = "force-scalar") {
        Backend::Scalar
    } else {
        b.supported()
    };
    ACTIVE.store(encode(next), Ordering::Relaxed);
    prev
}

// ---------------------------------------------------------------------------
// Scalar reference kernels
// ---------------------------------------------------------------------------

/// Reference dot product: four independent partial sums (the BLAS level-1
/// ILP trick), plain ops, no FMA.
pub fn dot_scalar(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut acc = [0.0f32; 4];
    let chunks = n / 4;
    for i in 0..chunks {
        let j = i * 4;
        acc[0] += a[j] * b[j];
        acc[1] += a[j + 1] * b[j + 1];
        acc[2] += a[j + 2] * b[j + 2];
        acc[3] += a[j + 3] * b[j + 3];
    }
    let mut sum = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for j in chunks * 4..n {
        sum += a[j] * b[j];
    }
    sum
}

/// Reference `y += alpha * x`.
pub fn axpy_scalar(alpha: f32, x: &[f32], y: &mut [f32]) {
    for (yi, &xi) in y.iter_mut().zip(x.iter()) {
        *yi += alpha * xi;
    }
}

/// Reference `x *= alpha`.
pub fn scale_scalar(alpha: f32, x: &mut [f32]) {
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

/// Reference row-chunk GEMV.
pub fn gemv_chunk_scalar(chunk: &[f32], n_rows: usize, x: &[f32], out: &mut [f32]) {
    let cols = x.len();
    for r in 0..n_rows {
        out[r] = dot_scalar(&chunk[r * cols..(r + 1) * cols], x);
    }
}

/// Reference fused lazy-softmax chunk kernel: per row [`dot_scalar`], libm
/// `exp`, the weight added to `denom`, the zero-skip test, and
/// [`axpy_scalar`] for kept rows. Returns the number of skipped rows.
pub fn fused_chunk_lazy_scalar(
    in_flat: &[f32],
    out_flat: &[f32],
    n_rows: usize,
    u: &[f32],
    raw_threshold: Option<f32>,
    weighted_sum: &mut [f32],
    denom: &mut f32,
) -> u64 {
    let ed = u.len();
    let mut skipped = 0u64;
    for r in 0..n_rows {
        let w = dot_scalar(&in_flat[r * ed..(r + 1) * ed], u).exp();
        *denom += w;
        match raw_threshold {
            Some(th) if w < th => skipped += 1,
            _ => axpy_scalar(w, &out_flat[r * ed..(r + 1) * ed], weighted_sum),
        }
    }
    skipped
}

/// Reference chunk GEMM: one [`gemv_chunk_scalar`] per question.
/// `out[q * n_rows + r] = chunk_row_r · question_q`.
pub fn gemm_chunk_scalar(
    chunk: &[f32],
    n_rows: usize,
    us_flat: &[f32],
    nq: usize,
    out: &mut [f32],
) {
    if nq == 0 {
        return;
    }
    let ed = us_flat.len() / nq;
    for q in 0..nq {
        gemv_chunk_scalar(
            chunk,
            n_rows,
            &us_flat[q * ed..(q + 1) * ed],
            &mut out[q * n_rows..(q + 1) * n_rows],
        );
    }
}

// ---------------------------------------------------------------------------
// Int8 inference kernels
// ---------------------------------------------------------------------------
//
// The quantized memory plane stores `M_IN`/`M_OUT` rows as i8 codes with a
// symmetric per-row scale (see `crate::quant`); the query is quantized once
// per pass the same way. The kernels below follow a stricter parity
// discipline than their f32 counterparts — **both backends are bitwise
// identical by construction**:
//
// * the inner product is *exact* integer arithmetic (i8×i8 products summed
//   in i32 — associativity is free, no rounding history to match; overflow
//   is impossible below `ed < 2³¹/127² ≈ 133k` columns),
// * the logit is one f32 rescale of the exact accumulator:
//   `(acc as f32) * (u_scale * row_scale)`, the same two roundings on both
//   backends,
// * the fused kernel exponentiates with `exp_approx`/`exp8` (bitwise-equal
//   by the fast-exp contract above) on *both* backends — unlike the f32
//   fused kernel, whose scalar arm uses libm `exp`,
// * the weighted accumulate dequantizes with separate multiply and add
//   (no FMA), element order identical on both backends.
//
// This turns the cross-backend property tests for the int8 path into exact
// equality assertions instead of tolerance comparisons.

/// Published bound on the logit error introduced by int8 quantization,
/// measured as `max_r |logit_q(r) − logit_f32(r)| / max_r |logit_f32(r)|`
/// over one pass. Two symmetric per-row quantizations contribute at most
/// half a step each per element; for embedding-scale data the accumulated
/// error stays well under this bound (asserted by the property tests and
/// re-measured on trained models by `bench_quant`).
pub const I8_LOGIT_MAX_REL_ERROR: f32 = 1e-2;

/// Reference i8 dot product: exact i32 accumulation.
pub fn dot_i8_scalar(a: &[i8], b: &[i8]) -> i32 {
    let n = a.len().min(b.len());
    let mut acc = 0i32;
    for i in 0..n {
        acc += a[i] as i32 * b[i] as i32;
    }
    acc
}

/// Dequantizing weighted accumulate: `ws[k] += alpha * (q[k] as f32)`,
/// with separate multiply and add. Both the scalar and the AVX2 fused int8
/// kernels accumulate through exactly this rounding sequence — part of the
/// int8 bitwise-parity contract.
#[inline]
pub fn dequant_axpy_scalar(alpha: f32, q: &[i8], ws: &mut [f32]) {
    for (w, &v) in ws.iter_mut().zip(q) {
        *w += alpha * (v as f32);
    }
}

/// Reference quantized row-chunk GEMV: `out[r]` is the *dequantized* logit
/// `(row_r · uq) · (u_scale · scales[r])`, rescaled once per row from the
/// exact integer accumulator.
pub fn gemv_chunk_i8_scalar(
    chunk: &[i8],
    scales: &[f32],
    n_rows: usize,
    uq: &[i8],
    u_scale: f32,
    out: &mut [f32],
) {
    let ed = uq.len();
    for r in 0..n_rows {
        let acc = dot_i8_scalar(&chunk[r * ed..(r + 1) * ed], uq);
        out[r] = acc as f32 * (u_scale * scales[r]);
    }
}

/// Reference fused lazy-softmax chunk kernel over quantized memory: exact
/// integer inner products, one f32 rescale per logit, `exp_approx`
/// weights (the same fast exp as the AVX2 kernel — see the parity note
/// above), threshold test, and the dequantizing weighted accumulate for
/// kept rows. Returns `(denominator contribution, skipped rows)`.
#[allow(clippy::too_many_arguments)]
pub fn fused_chunk_lazy_i8_scalar(
    in_q: &[i8],
    in_scales: &[f32],
    out_q: &[i8],
    out_scales: &[f32],
    n_rows: usize,
    uq: &[i8],
    u_scale: f32,
    raw_threshold: Option<f32>,
    weighted_sum: &mut [f32],
) -> (f32, u64) {
    let ed = uq.len();
    let mut denom = 0.0f32;
    let mut skipped = 0u64;
    for r in 0..n_rows {
        let acc = dot_i8_scalar(&in_q[r * ed..(r + 1) * ed], uq);
        let w = exp_approx(acc as f32 * (u_scale * in_scales[r]));
        denom += w;
        match raw_threshold {
            Some(th) if w < th => skipped += 1,
            _ => dequant_axpy_scalar(
                w * out_scales[r],
                &out_q[r * ed..(r + 1) * ed],
                weighted_sum,
            ),
        }
    }
    (denom, skipped)
}

// ---------------------------------------------------------------------------
// Embedding gather-sum kernels
// ---------------------------------------------------------------------------
//
// BoW embedding is a *gather-sum*: `out = Σ_j table[tokens[j]]`, optionally
// weighted per (position j, dimension k) by Sukhbaatar et al.'s position
// encoding `l_{kj} = (1 − j/nw) − (k/ed)(1 − 2j/nw)` (1-based `j`, `k`).
// Unlike the inference kernels above, the embed kernels are **bitwise
// identical across backends by design**: both accumulate each output
// element in token order, and the AVX2 path computes the PE weight with
// separate multiply and subtract (no FMA) so every intermediate rounds
// exactly as the scalar reference does. This lets the serving layer cache
// embeddings computed on either backend and guarantee cached vs uncached
// answers match bit for bit.

/// The position-encoding terms hoisted per token: `(a_j, m_j, ed_f)` with
/// `weight(k) = a_j - ((k+1)/ed_f) * m_j`. The float-op sequence mirrors
/// `position_weight` in `mnn-memnn` exactly (same rounding at every step).
#[inline]
fn pe_terms(j: usize, nw: usize, ed: usize) -> (f32, f32, f32) {
    let j1 = (j + 1) as f32;
    let nwf = nw.max(1) as f32;
    let edf = ed.max(1) as f32;
    (1.0 - j1 / nwf, 1.0 - 2.0 * j1 / nwf, edf)
}

/// Reference gather-sum: `out += Σ_j table[tokens[j]]` (rows are `ed` wide).
/// The caller zeroes `out`; panics via slice indexing if a token id is out
/// of the table's row range.
pub fn embed_sum_scalar(table: &[f32], ed: usize, tokens: &[u32], out: &mut [f32]) {
    for &t in tokens {
        let row = &table[t as usize * ed..][..ed];
        for (o, &v) in out.iter_mut().zip(row) {
            *o += v;
        }
    }
}

/// Reference position-encoded gather-sum: each row is weighted element-wise
/// by the position-encoding weight before accumulation.
pub fn embed_sum_pe_scalar(table: &[f32], ed: usize, tokens: &[u32], out: &mut [f32]) {
    let nw = tokens.len();
    for (j, &t) in tokens.iter().enumerate() {
        let row = &table[t as usize * ed..][..ed];
        let (aj, mj, edf) = pe_terms(j, nw, ed);
        for (k, (o, &v)) in out.iter_mut().zip(row).enumerate() {
            let w = aj - ((k + 1) as f32 / edf) * mj;
            *o += w * v;
        }
    }
}

/// Reference fused A/C gather-sum: one pass over the tokens produces both
/// the `A`-side and `C`-side embeddings (`pe` selects position encoding),
/// so each position weight is computed once and both tables are walked
/// while the token's index arithmetic is hot. Bitwise identical to two
/// separate [`embed_sum_scalar`] / [`embed_sum_pe_scalar`] calls.
pub fn embed_pair_scalar(
    table_a: &[f32],
    table_c: &[f32],
    ed: usize,
    tokens: &[u32],
    pe: bool,
    out_a: &mut [f32],
    out_c: &mut [f32],
) {
    let nw = tokens.len();
    for (j, &t) in tokens.iter().enumerate() {
        let ra = &table_a[t as usize * ed..][..ed];
        let rc = &table_c[t as usize * ed..][..ed];
        if pe {
            let (aj, mj, edf) = pe_terms(j, nw, ed);
            for k in 0..ed {
                let w = aj - ((k + 1) as f32 / edf) * mj;
                out_a[k] += w * ra[k];
                out_c[k] += w * rc[k];
            }
        } else {
            for k in 0..ed {
                out_a[k] += ra[k];
                out_c[k] += rc[k];
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Polynomial fast exp
// ---------------------------------------------------------------------------

/// Inputs are clamped to ±[`EXP_CLAMP`] before the range reduction;
/// `e^{±87.33}` spans the full normal `f32` range, and keeping `|n| ≤ 126`
/// makes the `2^n` exponent-bit trick exact with no overflow cases.
pub const EXP_CLAMP: f32 = 87.336_54;

/// Maximum relative error of [`exp_approx`] versus the true exponential
/// over the clamped input range, as asserted (with margin) by the tests.
/// The degree-5 polynomial after Cephes-style range reduction is accurate
/// to ~2⁻²² ≈ 2.4e-7; we publish a conservative bound.
pub const EXP_MAX_REL_ERROR: f32 = 1e-6;

const EXP_LOG2E: f32 = std::f32::consts::LOG2_E;
// ln(2) split into a high part exactly representable in f32 and the
// remainder, so `x - n*ln2` stays accurate (Cephes constants). The full
// digits of the high part are intentional: 0.693359375 = 355/512 exactly.
#[allow(clippy::excessive_precision)]
const EXP_C1: f32 = 0.693_359_375;
const EXP_C2: f32 = -2.121_944_4e-4;
const EXP_P0: f32 = 1.987_569_2e-4;
const EXP_P1: f32 = 1.398_199_9e-3;
const EXP_P2: f32 = 8.333_452e-3;
const EXP_P3: f32 = 4.166_579_6e-2;
const EXP_P4: f32 = 1.666_666_5e-1;
const EXP_P5: f32 = 5.000_000_3e-1;

/// Fast polynomial `e^x` (scalar form of the vectorized kernel).
///
/// Inputs outside ±[`EXP_CLAMP`] saturate monotonically (the clamp bound's
/// exponential, not `inf`/`0`). Within the range the relative error versus
/// libm is at most [`EXP_MAX_REL_ERROR`]. Uses `mul_add`, so one lane of
/// the AVX2 kernel and this function produce bitwise-identical results.
#[inline]
pub fn exp_approx(x: f32) -> f32 {
    let x = x.clamp(-EXP_CLAMP, EXP_CLAMP);
    // n = round(x / ln 2), computed as floor(x*log2e + 0.5) to match the
    // vector kernel's rounding exactly.
    let n = (x * EXP_LOG2E + 0.5).floor();
    let r = (-n).mul_add(EXP_C2, (-n).mul_add(EXP_C1, x));
    let mut p = EXP_P0;
    p = p.mul_add(r, EXP_P1);
    p = p.mul_add(r, EXP_P2);
    p = p.mul_add(r, EXP_P3);
    p = p.mul_add(r, EXP_P4);
    p = p.mul_add(r, EXP_P5);
    let p = p.mul_add(r * r, r) + 1.0;
    // 2^n via exponent bits: n ∈ [-126, 127] after the clamp.
    let two_n = f32::from_bits(((n as i32 + 127) as u32) << 23);
    p * two_n
}

// ---------------------------------------------------------------------------
// Answer softmax
// ---------------------------------------------------------------------------

/// Maximum relative error of the probability [`argmax_softmax_with`]
/// returns, against a softmax computed in f64 from the same logits, for
/// vocabularies up to 16 384 words. Set from measurement with margin, as
/// [`EXP_MAX_REL_ERROR`] is: the worst case the property grid finds is
/// 4.3e-7 (near-uniform logits, V = 10 007), against 2.9e-6 for libm `exp`
/// with one serial sum, which needs the same bound.
pub const ARGMAX_SOFTMAX_MAX_REL_ERROR: f32 = 1e-5;

/// Scalar form of [`argmax_softmax_with`]: the eight lanes and their
/// reduction tree are emulated, so the result is bitwise the AVX2
/// kernel's.
fn argmax_softmax_scalar(x: &[f32]) -> Option<(usize, f32)> {
    let word = crate::reduce::argmax(x)?;
    let max = x[word];
    if !max.is_finite() || x.iter().any(|v| v.is_nan()) {
        return Some((word, f32::NAN));
    }
    let full = x.len() / 8 * 8;
    let mut l = [0.0f32; 8];
    for block in x[..full].chunks_exact(8) {
        for (lane, &v) in l.iter_mut().zip(block) {
            *lane += exp_approx(v - max);
        }
    }
    let mut sum = ((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]));
    for &v in &x[full..] {
        sum += exp_approx(v - max);
    }
    Some((word, 1.0 / sum))
}

// ---------------------------------------------------------------------------
// AVX2 + FMA kernels
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::*;
    use std::arch::x86_64::*;

    /// Horizontal sum of one 8-lane register, reduced pairwise.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn hsum(v: __m256) -> f32 {
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps(v, 1);
        let q = _mm_add_ps(lo, hi);
        let d = _mm_add_ps(q, _mm_movehl_ps(q, q));
        let s = _mm_add_ss(d, _mm_shuffle_ps(d, d, 0b01));
        _mm_cvtss_f32(s)
    }

    /// AVX2 dot product in the canonical row-dot order (module docs): one
    /// 8-lane FMA accumulator over `k` ascending, the [`hsum4`] tree, the
    /// scalar tail last. A lone dot is a latency-bound FMA chain; anything
    /// with more than one row should go through [`gemm_chunk`], whose tiles
    /// return this same value per row.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len().min(b.len());
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut acc = _mm256_setzero_ps();
        let mut i = 0usize;
        while i + 8 <= n {
            acc = _mm256_fmadd_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)), acc);
            i += 8;
        }
        let mut sum = _mm_cvtss_f32(hsum4([acc; 4]));
        while i < n {
            sum += a[i] * b[i];
            i += 1;
        }
        sum
    }

    /// AVX2 `y += alpha * x`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
        let n = x.len().min(y.len());
        let va = _mm256_set1_ps(alpha);
        let (px, py) = (x.as_ptr(), y.as_mut_ptr());
        let mut i = 0usize;
        while i + 16 <= n {
            let y0 = _mm256_fmadd_ps(va, _mm256_loadu_ps(px.add(i)), _mm256_loadu_ps(py.add(i)));
            let y1 = _mm256_fmadd_ps(
                va,
                _mm256_loadu_ps(px.add(i + 8)),
                _mm256_loadu_ps(py.add(i + 8)),
            );
            _mm256_storeu_ps(py.add(i), y0);
            _mm256_storeu_ps(py.add(i + 8), y1);
            i += 16;
        }
        while i + 8 <= n {
            let y0 = _mm256_fmadd_ps(va, _mm256_loadu_ps(px.add(i)), _mm256_loadu_ps(py.add(i)));
            _mm256_storeu_ps(py.add(i), y0);
            i += 8;
        }
        while i < n {
            y[i] += alpha * x[i];
            i += 1;
        }
    }

    /// AVX2 `x *= alpha`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn scale(alpha: f32, x: &mut [f32]) {
        let n = x.len();
        let va = _mm256_set1_ps(alpha);
        let px = x.as_mut_ptr();
        let mut i = 0usize;
        while i + 8 <= n {
            _mm256_storeu_ps(px.add(i), _mm256_mul_ps(va, _mm256_loadu_ps(px.add(i))));
            i += 8;
        }
        while i < n {
            x[i] *= alpha;
            i += 1;
        }
    }

    /// The canonical lane reduction, four accumulators at once: two `hadd`
    /// levels interleave the partial sums, one cross-half add finishes
    /// them, so lane `i` of the result is
    /// `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))` over the lanes of `acc[i]`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn hsum4(acc: [__m256; 4]) -> __m128 {
        let t01 = _mm256_hadd_ps(acc[0], acc[1]);
        let t23 = _mm256_hadd_ps(acc[2], acc[3]);
        let t = _mm256_hadd_ps(t01, t23);
        _mm_add_ps(_mm256_castps256_ps128(t), _mm256_extractf128_ps(t, 1))
    }

    /// [`hsum4`] over eight accumulators: the eight sums land in one
    /// register, ready for [`exp8`].
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn hsum8(acc: [__m256; 8]) -> __m256 {
        let [a0, a1, a2, a3, a4, a5, a6, a7] = acc;
        _mm256_set_m128(hsum4([a4, a5, a6, a7]), hsum4([a0, a1, a2, a3]))
    }

    /// Pointers to the rows of one block of up to 8 rows starting at
    /// `base`. Slots past `block` repeat the last valid row, so the tiles
    /// always run full width over readable memory and the surplus lanes
    /// are simply not used.
    #[inline]
    unsafe fn row_ptrs(base: *const f32, ed: usize, block: usize) -> [*const f32; 8] {
        std::array::from_fn(|i| base.add(i.min(block - 1) * ed))
    }

    /// Adds each row's scalar tail `Σ_{k ≥ k0} row[k]·u[k]` onto its lane
    /// sum: ascending `k`, separate multiply and add.
    #[inline]
    unsafe fn add_tails(
        sums: &mut [f32],
        rows: &[*const f32],
        u: *const f32,
        k0: usize,
        ed: usize,
    ) {
        for (s, &row) in sums.iter_mut().zip(rows) {
            for k in k0..ed {
                *s += *row.add(k) * *u.add(k);
            }
        }
    }

    /// The 1-question × 8-row logit tile: lane `i` is `rows[i] · u` in the
    /// canonical order. Each `k`-step is one load of `u` and eight row
    /// loads feeding eight independent FMA chains.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn tile_1x8(rows: &[*const f32; 8], u: *const f32, ed: usize) -> __m256 {
        let mut acc = [_mm256_setzero_ps(); 8];
        let mut k = 0usize;
        while k + 8 <= ed {
            let v = _mm256_loadu_ps(u.add(k));
            for (a, row) in acc.iter_mut().zip(rows) {
                *a = _mm256_fmadd_ps(_mm256_loadu_ps(row.add(k)), v, *a);
            }
            k += 8;
        }
        let sums = hsum8(acc);
        if k == ed {
            return sums;
        }
        let mut s = [0.0f32; 8];
        _mm256_storeu_ps(s.as_mut_ptr(), sums);
        add_tails(&mut s, rows, u, k, ed);
        _mm256_loadu_ps(s.as_ptr())
    }

    /// The 2-question × 4-row logit tile: eight accumulators, six loads
    /// (two question vectors, four rows) per eight FMAs — each loaded row
    /// is shared by both questions, which is where batching beats one
    /// [`tile_1x8`] per question. Lane `i` of result `q` is
    /// `rows[i] · u_q` in the canonical order.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn tile_2x4(
        rows: &[*const f32],
        u0: *const f32,
        u1: *const f32,
        ed: usize,
    ) -> (__m128, __m128) {
        let mut a0 = [_mm256_setzero_ps(); 4];
        let mut a1 = [_mm256_setzero_ps(); 4];
        let mut k = 0usize;
        while k + 8 <= ed {
            let v0 = _mm256_loadu_ps(u0.add(k));
            let v1 = _mm256_loadu_ps(u1.add(k));
            for (i, (x0, x1)) in a0.iter_mut().zip(a1.iter_mut()).enumerate() {
                let row = _mm256_loadu_ps(rows[i].add(k));
                *x0 = _mm256_fmadd_ps(row, v0, *x0);
                *x1 = _mm256_fmadd_ps(row, v1, *x1);
            }
            k += 8;
        }
        let (sums0, sums1) = (hsum4(a0), hsum4(a1));
        if k == ed {
            return (sums0, sums1);
        }
        let (mut s0, mut s1) = ([0.0f32; 4], [0.0f32; 4]);
        _mm_storeu_ps(s0.as_mut_ptr(), sums0);
        _mm_storeu_ps(s1.as_mut_ptr(), sums1);
        add_tails(&mut s0, rows, u0, k, ed);
        add_tails(&mut s1, rows, u1, k, ed);
        (_mm_loadu_ps(s0.as_ptr()), _mm_loadu_ps(s1.as_ptr()))
    }

    /// Two questions over one 8-row block: two [`tile_2x4`]s, each
    /// question's eight logits joined into one register.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn tile_2x8(
        rows: &[*const f32; 8],
        u0: *const f32,
        u1: *const f32,
        ed: usize,
    ) -> (__m256, __m256) {
        let (lo0, lo1) = tile_2x4(&rows[..4], u0, u1, ed);
        let (hi0, hi1) = tile_2x4(&rows[4..], u0, u1, ed);
        (_mm256_set_m128(hi0, lo0), _mm256_set_m128(hi1, lo1))
    }

    /// Writes the first `block` lanes of `x` to `out[at..at + block]`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn store_block(out: &mut [f32], at: usize, block: usize, x: __m256) {
        if block == 8 {
            _mm256_storeu_ps(out[at..at + 8].as_mut_ptr(), x);
        } else {
            let mut lanes = [0.0f32; 8];
            _mm256_storeu_ps(lanes.as_mut_ptr(), x);
            out[at..at + block].copy_from_slice(&lanes[..block]);
        }
    }

    /// Register-tiled chunk GEMM: `out[q * n_rows + r] = chunk_row_r · u_q`,
    /// every entry in the canonical row-dot order.
    ///
    /// Walks the chunk in 8-row blocks; while a block is L1-resident every
    /// question pair takes it through [`tile_2x8`] and an odd trailing
    /// question through [`tile_1x8`].
    ///
    /// # Safety
    ///
    /// Needs AVX2 + FMA, `chunk.len() >= n_rows * ed` and
    /// `us_flat.len() == nq * ed` (rows and questions are read through raw
    /// pointers). `out` is written through checked slices.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn gemm_chunk(
        chunk: &[f32],
        n_rows: usize,
        us_flat: &[f32],
        nq: usize,
        out: &mut [f32],
    ) {
        if nq == 0 {
            return;
        }
        let ed = us_flat.len() / nq;
        debug_assert_eq!(us_flat.len(), nq * ed, "gemm_chunk: ragged questions");
        debug_assert!(chunk.len() >= n_rows * ed, "gemm_chunk: short chunk");
        debug_assert!(out.len() >= nq * n_rows, "gemm_chunk: short out");
        let pu = us_flat.as_ptr();
        let mut r = 0usize;
        while r < n_rows {
            let block = (n_rows - r).min(8);
            let rows = row_ptrs(chunk.as_ptr().add(r * ed), ed, block);
            let mut q = 0usize;
            while q + 2 <= nq {
                let (x0, x1) = tile_2x8(&rows, pu.add(q * ed), pu.add((q + 1) * ed), ed);
                store_block(out, q * n_rows + r, block, x0);
                store_block(out, (q + 1) * n_rows + r, block, x1);
                q += 2;
            }
            if q < nq {
                let x = tile_1x8(&rows, pu.add(q * ed), ed);
                store_block(out, q * n_rows + r, block, x);
            }
            r += block;
        }
    }

    /// AVX2 gather-sum: `out += Σ_j table[tokens[j]]`. Plain 8-lane adds
    /// (no FMA, nothing to fuse), so each output element accumulates the
    /// rows in token order — bitwise identical to [`embed_sum_scalar`].
    /// Rows are fetched through checked slicing, so an out-of-range token
    /// panics exactly like the scalar path instead of reading wild.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn embed_sum(table: &[f32], ed: usize, tokens: &[u32], out: &mut [f32]) {
        let po = out.as_mut_ptr();
        for &t in tokens {
            let row = &table[t as usize * ed..][..ed];
            let pr = row.as_ptr();
            let mut k = 0usize;
            while k + 8 <= ed {
                let acc = _mm256_add_ps(_mm256_loadu_ps(po.add(k)), _mm256_loadu_ps(pr.add(k)));
                _mm256_storeu_ps(po.add(k), acc);
                k += 8;
            }
            while k < ed {
                out[k] += row[k];
                k += 1;
            }
        }
    }

    /// AVX2 position-encoded gather-sum. The weight vector for one 8-wide
    /// dimension block is `a_j - ((k+1)/ed) * m_j`, computed with separate
    /// `div`/`mul`/`sub` (every intermediate rounds as the scalar reference
    /// does), and the accumulate is `add(out, mul(w, row))` — not FMA — so
    /// the result is bitwise identical to [`embed_sum_pe_scalar`]. The lane
    /// indices `(k+1)` are carried as exact f32 integers (`+8.0` per block,
    /// exact below 2^24).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn embed_sum_pe(table: &[f32], ed: usize, tokens: &[u32], out: &mut [f32]) {
        let nw = tokens.len();
        let po = out.as_mut_ptr();
        let k_base = _mm256_setr_ps(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0);
        let eight = _mm256_set1_ps(8.0);
        for (j, &t) in tokens.iter().enumerate() {
            let row = &table[t as usize * ed..][..ed];
            let pr = row.as_ptr();
            let (aj, mj, edf) = pe_terms(j, nw, ed);
            let va = _mm256_set1_ps(aj);
            let vm = _mm256_set1_ps(mj);
            let ve = _mm256_set1_ps(edf);
            let mut vk = k_base;
            let mut k = 0usize;
            while k + 8 <= ed {
                let w = _mm256_sub_ps(va, _mm256_mul_ps(_mm256_div_ps(vk, ve), vm));
                let acc = _mm256_add_ps(
                    _mm256_loadu_ps(po.add(k)),
                    _mm256_mul_ps(w, _mm256_loadu_ps(pr.add(k))),
                );
                _mm256_storeu_ps(po.add(k), acc);
                vk = _mm256_add_ps(vk, eight);
                k += 8;
            }
            while k < ed {
                let w = aj - ((k + 1) as f32 / edf) * mj;
                out[k] += w * row[k];
                k += 1;
            }
        }
    }

    /// AVX2 fused A/C gather-sum: both embedding tables are walked in one
    /// pass over the tokens, reusing each block's position-weight vector
    /// for the `A` and `C` rows. Same no-FMA accumulation discipline as
    /// [`embed_sum`] / [`embed_sum_pe`], so bitwise identical to
    /// [`embed_pair_scalar`].
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn embed_pair(
        table_a: &[f32],
        table_c: &[f32],
        ed: usize,
        tokens: &[u32],
        pe: bool,
        out_a: &mut [f32],
        out_c: &mut [f32],
    ) {
        let nw = tokens.len();
        let pa = out_a.as_mut_ptr();
        let pc = out_c.as_mut_ptr();
        let k_base = _mm256_setr_ps(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0);
        let eight = _mm256_set1_ps(8.0);
        for (j, &t) in tokens.iter().enumerate() {
            let ra = &table_a[t as usize * ed..][..ed];
            let rc = &table_c[t as usize * ed..][..ed];
            let (pra, prc) = (ra.as_ptr(), rc.as_ptr());
            let mut k = 0usize;
            if pe {
                let (aj, mj, edf) = pe_terms(j, nw, ed);
                let va = _mm256_set1_ps(aj);
                let vm = _mm256_set1_ps(mj);
                let ve = _mm256_set1_ps(edf);
                let mut vk = k_base;
                while k + 8 <= ed {
                    let w = _mm256_sub_ps(va, _mm256_mul_ps(_mm256_div_ps(vk, ve), vm));
                    let acc_a = _mm256_add_ps(
                        _mm256_loadu_ps(pa.add(k)),
                        _mm256_mul_ps(w, _mm256_loadu_ps(pra.add(k))),
                    );
                    let acc_c = _mm256_add_ps(
                        _mm256_loadu_ps(pc.add(k)),
                        _mm256_mul_ps(w, _mm256_loadu_ps(prc.add(k))),
                    );
                    _mm256_storeu_ps(pa.add(k), acc_a);
                    _mm256_storeu_ps(pc.add(k), acc_c);
                    vk = _mm256_add_ps(vk, eight);
                    k += 8;
                }
                while k < ed {
                    let w = aj - ((k + 1) as f32 / edf) * mj;
                    out_a[k] += w * ra[k];
                    out_c[k] += w * rc[k];
                    k += 1;
                }
            } else {
                while k + 8 <= ed {
                    let acc_a =
                        _mm256_add_ps(_mm256_loadu_ps(pa.add(k)), _mm256_loadu_ps(pra.add(k)));
                    let acc_c =
                        _mm256_add_ps(_mm256_loadu_ps(pc.add(k)), _mm256_loadu_ps(prc.add(k)));
                    _mm256_storeu_ps(pa.add(k), acc_a);
                    _mm256_storeu_ps(pc.add(k), acc_c);
                    k += 8;
                }
                while k < ed {
                    out_a[k] += ra[k];
                    out_c[k] += rc[k];
                    k += 1;
                }
            }
        }
    }

    /// 8-lane polynomial `e^x` — the vector form of [`exp_approx`]; lane
    /// `i` of the result is bitwise identical to `exp_approx(x[i])`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn exp8(x: __m256) -> __m256 {
        let x = _mm256_min_ps(x, _mm256_set1_ps(EXP_CLAMP));
        let x = _mm256_max_ps(x, _mm256_set1_ps(-EXP_CLAMP));
        let n = _mm256_floor_ps(_mm256_fmadd_ps(
            x,
            _mm256_set1_ps(EXP_LOG2E),
            _mm256_set1_ps(0.5),
        ));
        let r = _mm256_fnmadd_ps(
            n,
            _mm256_set1_ps(EXP_C2),
            _mm256_fnmadd_ps(n, _mm256_set1_ps(EXP_C1), x),
        );
        let mut p = _mm256_set1_ps(EXP_P0);
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(EXP_P1));
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(EXP_P2));
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(EXP_P3));
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(EXP_P4));
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(EXP_P5));
        let p = _mm256_add_ps(
            _mm256_fmadd_ps(p, _mm256_mul_ps(r, r), r),
            _mm256_set1_ps(1.0),
        );
        let two_n = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(
            _mm256_cvtps_epi32(n),
            _mm256_set1_epi32(127),
        )));
        _mm256_mul_ps(p, two_n)
    }

    /// Replaces each element with `exp_approx(x_i)` and returns the sum.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn exp_slice(x: &mut [f32]) -> f32 {
        let n = x.len();
        let px = x.as_mut_ptr();
        let mut vsum = _mm256_setzero_ps();
        let mut i = 0usize;
        while i + 8 <= n {
            let e = exp8(_mm256_loadu_ps(px.add(i)));
            _mm256_storeu_ps(px.add(i), e);
            vsum = _mm256_add_ps(vsum, e);
            i += 8;
        }
        let mut sum = hsum(vsum);
        while i < n {
            x[i] = exp_approx(x[i]);
            sum += x[i];
            i += 1;
        }
        sum
    }

    /// The answer softmax of [`super::argmax_softmax_with`]: one pass for
    /// the largest non-NaN value and a NaN flag, an early-exit scan to the
    /// first index holding it, and one [`exp8`] pass whose lane sums
    /// [`hsum`] reduces.
    ///
    /// # Safety
    ///
    /// Needs AVX2 + FMA. Nothing else: every vector load reads
    /// `x[i..i + 8]` for a multiple of 8 with `i + 8 <= x.len()`, and the
    /// tail goes through a checked slice.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn argmax_softmax(x: &[f32]) -> Option<(usize, f32)> {
        if x.is_empty() {
            return None;
        }
        let px = x.as_ptr();
        let full = x.len() / 8 * 8;
        debug_assert!(
            full.is_multiple_of(8) && full <= x.len(),
            "argmax_softmax: bad blocks"
        );
        let tail = &x[full..];
        let mut vmax = _mm256_set1_ps(f32::NEG_INFINITY);
        let mut vnan = _mm256_setzero_ps();
        let mut i = 0usize;
        while i < full {
            let v = _mm256_loadu_ps(px.add(i));
            // `max_ps` returns its second operand when either is NaN, so
            // the running maximum never takes one; the NaN is flagged.
            vmax = _mm256_max_ps(v, vmax);
            vnan = _mm256_or_ps(vnan, _mm256_cmp_ps::<_CMP_UNORD_Q>(v, v));
            i += 8;
        }
        let mut lanes = [0.0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), vmax);
        let max = lanes
            .iter()
            .chain(tail)
            .fold(f32::NEG_INFINITY, |m, &v| m.max(v));
        let poisoned = _mm256_movemask_ps(vnan) != 0 || tail.iter().any(|v| v.is_nan());

        // No index holds `max` only when every value is NaN: word 0.
        let vm = _mm256_set1_ps(max);
        let mut word = None;
        i = 0;
        while i < full && word.is_none() {
            let eq =
                _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_EQ_OQ>(_mm256_loadu_ps(px.add(i)), vm));
            if eq != 0 {
                word = Some(i + eq.trailing_zeros() as usize);
            }
            i += 8;
        }
        let word = word
            .or_else(|| tail.iter().position(|&v| v == max).map(|p| full + p))
            .unwrap_or(0);
        // `exp8` clamps a NaN into range instead of propagating it, so a
        // NaN logit or a non-finite maximum has to poison the sum here.
        if poisoned || !max.is_finite() {
            return Some((word, f32::NAN));
        }

        let mut vsum = _mm256_setzero_ps();
        i = 0;
        while i < full {
            vsum = _mm256_add_ps(vsum, exp8(_mm256_sub_ps(_mm256_loadu_ps(px.add(i)), vm)));
            i += 8;
        }
        let mut sum = hsum(vsum);
        for &v in tail {
            sum += exp_approx(v - max);
        }
        Some((word, 1.0 / sum))
    }

    /// `ws[k..k + 8N] += Σ_{j ∈ keep} w[j] · out_row_j[k..k + 8N]` with the
    /// `8N` sums held in `N` registers across the rows: one load and one
    /// store of the accumulator per block instead of one per row.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn axpy_cols<const N: usize>(
        pw: *mut f32,
        po: *const f32,
        ed: usize,
        w: &[f32; 8],
        keep: &[usize],
    ) {
        let mut acc: [__m256; N] = std::array::from_fn(|i| _mm256_loadu_ps(pw.add(8 * i)));
        for &j in keep {
            let wj = _mm256_set1_ps(w[j]);
            let row = po.add(j * ed);
            for (i, a) in acc.iter_mut().enumerate() {
                *a = _mm256_fmadd_ps(wj, _mm256_loadu_ps(row.add(8 * i)), *a);
            }
        }
        for (i, a) in acc.iter().enumerate() {
            _mm256_storeu_ps(pw.add(8 * i), *a);
        }
    }

    /// `ws += Σ_{j ∈ keep} w[j] · out_row_j` over one block of rows. Each
    /// element of `ws` takes the kept rows in ascending order — an FMA per
    /// row on full 8-lane blocks, multiply then add on the scalar tail —
    /// which is bit for bit what one [`axpy`] per kept row computes.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn axpy_rows(ws: &mut [f32], out_block: &[f32], w: &[f32; 8], keep: &[usize]) {
        let ed = ws.len();
        let (pw, po) = (ws.as_mut_ptr(), out_block.as_ptr());
        let mut k = 0usize;
        while k + 64 <= ed {
            axpy_cols::<8>(pw.add(k), po.add(k), ed, w, keep);
            k += 64;
        }
        if k + 32 <= ed {
            axpy_cols::<4>(pw.add(k), po.add(k), ed, w, keep);
            k += 32;
        }
        while k + 8 <= ed {
            axpy_cols::<1>(pw.add(k), po.add(k), ed, w, keep);
            k += 8;
        }
        while k < ed {
            let mut a = *pw.add(k);
            for &j in keep {
                a += w[j] * *po.add(j * ed + k);
            }
            *pw.add(k) = a;
            k += 1;
        }
    }

    /// Folds one block's logits into one question's lane: exponentiate
    /// (the 8-lane fast exp), add the weights to the denominator in row
    /// order, zero-skip test per row, [`axpy_rows`] over the kept rows.
    /// Returns the rows skipped.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn fold_block<L: FusedLane>(
        lane: &mut L,
        logits: __m256,
        block: usize,
        out_block: &[f32],
        raw_threshold: Option<f32>,
    ) -> u64 {
        let ed = out_block.len() / block;
        let mut w = [0.0f32; 8];
        _mm256_storeu_ps(w.as_mut_ptr(), exp8(logits));
        let (ws, denom) = lane.parts();
        let mut keep = [0usize; 8];
        let mut kept = 0usize;
        for (j, &wj) in w[..block].iter().enumerate() {
            *denom += wj;
            match raw_threshold {
                Some(th) if wj < th => {}
                _ => {
                    keep[kept] = j;
                    kept += 1;
                }
            }
        }
        axpy_rows(&mut ws[..ed], out_block, &w, &keep[..kept]);
        (block - kept) as u64
    }

    /// The fused lazy-softmax chunk kernel over `lanes.len() ≥ 1`
    /// questions: one pass over the chunk in 8-row blocks, and while a
    /// block of `M_IN`/`M_OUT` rows is L1-resident every live question
    /// takes it through a logit tile ([`tile_2x8`] for a live adjacent
    /// pair, [`tile_1x8`] otherwise) and [`fold_block`]. A question's
    /// arithmetic never depends on which tile or which neighbours it got.
    ///
    /// # Safety
    ///
    /// Needs AVX2 + FMA, `in_flat.len() == out_flat.len() == n_rows * ed`
    /// with `ed = us_flat.len() / lanes.len()`, `us_flat.len()` a multiple
    /// of `lanes.len()`, and `raw_thresholds`, `live`, `skipped` at least
    /// `lanes.len()` long. Lane sums are bounds-checked against `ed`.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn fused_chunk_lazy_batch<L: FusedLane>(
        in_flat: &[f32],
        out_flat: &[f32],
        n_rows: usize,
        us_flat: &[f32],
        lanes: &mut [L],
        raw_thresholds: &[Option<f32>],
        live: &[bool],
        skipped: &mut [u64],
    ) {
        let nq = lanes.len();
        let ed = us_flat.len() / nq;
        debug_assert_eq!(us_flat.len(), nq * ed, "fused batch: ragged questions");
        debug_assert_eq!(in_flat.len(), n_rows * ed, "fused batch: bad in chunk");
        debug_assert_eq!(out_flat.len(), n_rows * ed, "fused batch: bad out chunk");
        debug_assert!(
            raw_thresholds.len() >= nq && live.len() >= nq && skipped.len() >= nq,
            "fused batch: short per-question slices"
        );
        let pu = us_flat.as_ptr();
        let mut r = 0usize;
        while r < n_rows {
            let block = (n_rows - r).min(8);
            let rows = row_ptrs(in_flat.as_ptr().add(r * ed), ed, block);
            let out_block = &out_flat[r * ed..(r + block) * ed];
            let mut fold = |q: usize, logits: __m256| {
                skipped[q] +=
                    fold_block(&mut lanes[q], logits, block, out_block, raw_thresholds[q]);
            };
            let mut q = 0usize;
            while q < nq {
                if q + 1 < nq && live[q] && live[q + 1] {
                    let (x0, x1) = tile_2x8(&rows, pu.add(q * ed), pu.add((q + 1) * ed), ed);
                    fold(q, x0);
                    fold(q + 1, x1);
                    q += 2;
                } else {
                    if live[q] {
                        fold(q, tile_1x8(&rows, pu.add(q * ed), ed));
                    }
                    q += 1;
                }
            }
            r += block;
        }
    }

    /// AVX2 i8 dot product: 32 codes per iteration, each 16-code half
    /// sign-extended to i16 and folded through `madd` (pairs of i16×i16
    /// products summed in i32). Exact integer arithmetic — bitwise
    /// identical to [`dot_i8_scalar`] by associativity.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
        let n = a.len().min(b.len());
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut acc = _mm256_setzero_si256();
        let mut i = 0usize;
        while i + 32 <= n {
            let va = _mm256_loadu_si256(pa.add(i) as *const __m256i);
            let vb = _mm256_loadu_si256(pb.add(i) as *const __m256i);
            let a_lo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(va));
            let a_hi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256(va, 1));
            let b_lo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(vb));
            let b_hi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256(vb, 1));
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(a_lo, b_lo));
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(a_hi, b_hi));
            i += 32;
        }
        let s = _mm_add_epi32(
            _mm256_castsi256_si128(acc),
            _mm256_extracti128_si256(acc, 1),
        );
        let s = _mm_add_epi32(s, _mm_shuffle_epi32::<0b0100_1110>(s));
        let s = _mm_add_epi32(s, _mm_shuffle_epi32::<0b1011_0001>(s));
        let mut sum = _mm_cvtsi128_si32(s);
        while i < n {
            sum += a[i] as i32 * b[i] as i32;
            i += 1;
        }
        sum
    }

    /// AVX2 dequantizing weighted accumulate: 8 codes at a time are
    /// sign-extended to i32, converted to f32 (exact), then folded with
    /// separate `mul`/`add` — never FMA — so every element rounds exactly
    /// as [`dequant_axpy_scalar`] does.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn dequant_axpy(alpha: f32, q: &[i8], ws: &mut [f32]) {
        let n = q.len().min(ws.len());
        let va = _mm256_set1_ps(alpha);
        let (pq, pw) = (q.as_ptr(), ws.as_mut_ptr());
        let mut k = 0usize;
        while k + 8 <= n {
            let codes = _mm_loadl_epi64(pq.add(k) as *const __m128i);
            let v = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(codes));
            let acc = _mm256_add_ps(_mm256_loadu_ps(pw.add(k)), _mm256_mul_ps(va, v));
            _mm256_storeu_ps(pw.add(k), acc);
            k += 8;
        }
        while k < n {
            ws[k] += alpha * (q[k] as f32);
            k += 1;
        }
    }

    /// AVX2 quantized row-chunk GEMV: one exact [`dot_i8`] per row plus
    /// the single-rescale epilogue. Bitwise identical to
    /// [`gemv_chunk_i8_scalar`].
    #[target_feature(enable = "avx2")]
    pub unsafe fn gemv_chunk_i8(
        chunk: &[i8],
        scales: &[f32],
        n_rows: usize,
        uq: &[i8],
        u_scale: f32,
        out: &mut [f32],
    ) {
        let ed = uq.len();
        for r in 0..n_rows {
            let acc = dot_i8(&chunk[r * ed..(r + 1) * ed], uq);
            out[r] = acc as f32 * (u_scale * scales[r]);
        }
    }

    /// AVX2 fused lazy-softmax chunk kernel over quantized memory: blocks
    /// of 8 exact integer inner products, one [`exp8`] per block, then the
    /// per-row threshold test and dequantizing accumulate. Every float op
    /// mirrors [`fused_chunk_lazy_i8_scalar`]'s rounding sequence, so the
    /// two are bitwise identical (see the int8 parity note in the scalar
    /// section).
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn fused_chunk_lazy_i8(
        in_q: &[i8],
        in_scales: &[f32],
        out_q: &[i8],
        out_scales: &[f32],
        n_rows: usize,
        uq: &[i8],
        u_scale: f32,
        raw_threshold: Option<f32>,
        weighted_sum: &mut [f32],
    ) -> (f32, u64) {
        let ed = uq.len();
        let mut denom = 0.0f32;
        let mut skipped = 0u64;
        let mut w = [0.0f32; 8];
        let mut r = 0usize;
        while r < n_rows {
            let block = (n_rows - r).min(8);
            for (j, wj) in w.iter_mut().enumerate().take(block) {
                let acc = dot_i8(&in_q[(r + j) * ed..(r + j + 1) * ed], uq);
                *wj = acc as f32 * (u_scale * in_scales[r + j]);
            }
            // Exponentiate the whole block at once; lanes past `block`
            // hold stale-but-finite values and are never read back.
            let e = exp8(_mm256_loadu_ps(w.as_ptr()));
            _mm256_storeu_ps(w.as_mut_ptr(), e);
            for (j, &wj) in w.iter().enumerate().take(block) {
                denom += wj;
                match raw_threshold {
                    Some(th) if wj < th => skipped += 1,
                    _ => dequant_axpy(
                        wj * out_scales[r + j],
                        &out_q[(r + j) * ed..(r + j + 1) * ed],
                        weighted_sum,
                    ),
                }
            }
            r += block;
        }
        (denom, skipped)
    }
}

// ---------------------------------------------------------------------------
// Backend-parameterized entry points
// ---------------------------------------------------------------------------
//
// The public `kernels` API dispatches on `backend()`; these `_with`
// variants take the backend explicitly so tests and benchmark harnesses can
// exercise both implementations in one process.

/// [`crate::kernels::dot`] with an explicit backend.
#[inline]
pub fn dot_with(b: Backend, a: &[f32], x: &[f32]) -> f32 {
    match b {
        Backend::Scalar => dot_scalar(a, x),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Backend::Avx2` is only reachable after runtime detection
        // (or an explicit override clamped by `Backend::supported`).
        Backend::Avx2 => unsafe { avx2::dot(a, x) },
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2 => dot_scalar(a, x),
    }
}

/// [`crate::kernels::axpy`] with an explicit backend.
#[inline]
pub fn axpy_with(b: Backend, alpha: f32, x: &[f32], y: &mut [f32]) {
    match b {
        Backend::Scalar => axpy_scalar(alpha, x, y),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `dot_with`.
        Backend::Avx2 => unsafe { avx2::axpy(alpha, x, y) },
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2 => axpy_scalar(alpha, x, y),
    }
}

/// [`crate::kernels::scale`] with an explicit backend.
#[inline]
pub fn scale_with(b: Backend, alpha: f32, x: &mut [f32]) {
    match b {
        Backend::Scalar => scale_scalar(alpha, x),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `dot_with`.
        Backend::Avx2 => unsafe { avx2::scale(alpha, x) },
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2 => scale_scalar(alpha, x),
    }
}

/// [`crate::kernels::gemv_chunk`] with an explicit backend:
/// [`gemm_chunk_with`] for one question.
///
/// # Panics
///
/// As [`gemm_chunk_with`].
#[inline]
pub fn gemv_chunk_with(b: Backend, chunk: &[f32], n_rows: usize, x: &[f32], out: &mut [f32]) {
    gemm_chunk_with(b, chunk, n_rows, x, 1, out)
}

/// [`crate::kernels::gemm_chunk`] with an explicit backend: the batched
/// chunk inner product `out[q * n_rows + r] = chunk_row_r · question_q`,
/// every entry in the backend's canonical row-dot order (module docs) — so
/// row `q` of the result is bitwise [`gemv_chunk_with`] over `question_q`,
/// and each entry bitwise [`dot_with`].
///
/// # Panics
///
/// Panics if `us_flat.len()` is not a multiple of `nq`, `chunk` is shorter
/// than `n_rows` rows or `out` shorter than `nq * n_rows`.
#[inline]
pub fn gemm_chunk_with(
    b: Backend,
    chunk: &[f32],
    n_rows: usize,
    us_flat: &[f32],
    nq: usize,
    out: &mut [f32],
) {
    if nq == 0 {
        return;
    }
    let ed = us_flat.len() / nq;
    assert_eq!(us_flat.len(), nq * ed, "gemm_chunk: ragged questions");
    assert!(chunk.len() >= n_rows * ed, "gemm_chunk: short chunk");
    assert!(out.len() >= nq * n_rows, "gemm_chunk: short out");
    match b {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 + FMA as in `dot_with`; the asserts above are the
        // kernel's length contract.
        Backend::Avx2 => unsafe { avx2::gemm_chunk(chunk, n_rows, us_flat, nq, out) },
        _ => gemm_chunk_scalar(chunk, n_rows, us_flat, nq, out),
    }
}

/// Exponentiates a slice in place and returns the sum: libm `exp` on the
/// scalar backend, the 8-lane [`exp_approx`] kernel on AVX2.
#[inline]
pub fn exp_slice_with(b: Backend, x: &mut [f32]) -> f32 {
    match b {
        Backend::Scalar => {
            let mut sum = 0.0f32;
            for v in x.iter_mut() {
                *v = v.exp();
                sum += *v;
            }
            sum
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `dot_with`.
        Backend::Avx2 => unsafe { avx2::exp_slice(x) },
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2 => {
            let mut sum = 0.0f32;
            for v in x.iter_mut() {
                *v = exp_approx(*v);
                sum += *v;
            }
            sum
        }
    }
}

/// The answer softmax with an explicit backend: the arg-max word of
/// `logits` and its probability, `None` only for an empty slice. Both
/// backends compute the same bits:
///
/// * **word** — the first index of the largest non-NaN logit, 0 when every
///   logit is NaN ([`crate::reduce::argmax`]);
/// * **probability** — `1 / S` (the word's own term is `exp_approx(0) = 1`)
///   with `S = Σ exp_approx(x_i − max)` in one fixed order: eight lanes
///   over the full 8-blocks in ascending order, lane `j` taking every
///   `i ≡ j (mod 8)`, reduced as `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))`,
///   then the tail added in ascending order. The scalar backend emulates
///   the lanes, and [`exp_approx`] is bitwise one lane of the AVX2 exp on
///   every input;
/// * a NaN logit, or a maximum of `±inf`, makes the probability NaN.
///
/// The value depends on `logits` alone. Against an f64 softmax it is
/// within [`ARGMAX_SOFTMAX_MAX_REL_ERROR`].
#[inline]
pub fn argmax_softmax_with(b: Backend, logits: &[f32]) -> Option<(usize, f32)> {
    match b {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `dot_with`; the kernel reads only inside `logits`.
        Backend::Avx2 => unsafe { avx2::argmax_softmax(logits) },
        _ => argmax_softmax_scalar(logits),
    }
}

/// One question's accumulator in a batched fused lazy pass.
pub trait FusedLane {
    /// The `ed`-wide weighted sum and the denominator the kernel adds into.
    fn parts(&mut self) -> (&mut [f32], &mut f32);
}

/// A bare `(weighted sum, denominator)` lane: how
/// [`fused_chunk_lazy_with`] calls the batched kernel for one question.
struct SliceLane<'a>(&'a mut [f32], f32);

impl FusedLane for SliceLane<'_> {
    fn parts(&mut self) -> (&mut [f32], &mut f32) {
        (self.0, &mut self.1)
    }
}

/// The fused lazy-softmax chunk kernel over `lanes.len()` questions with
/// an explicit backend. One pass over `n_rows` rows; for every question
/// `q` with `live[q]` set: `x_i = row_i · u_q` (canonical order),
/// `w_i = e^{x_i}`, the lane's denominator `+= w_i` in ascending row order,
/// and its weighted sum `+= w_i · out_row_i` for rows at or above
/// `raw_thresholds[q]` (skipped rows still count into the denominator, the
/// paper's zero-skip semantics; `skipped[q]` is incremented per skipped
/// row). Dead questions are passed over untouched.
///
/// What question `q` receives is bitwise what a call with `lanes = [q]`
/// alone computes: batch composition and tile shape never reach a bit.
///
/// The exponential is the 8-lane [`exp_approx`] kernel on AVX2 and libm
/// `exp` on the scalar backend.
///
/// # Panics
///
/// Panics if `us_flat.len()` is not a multiple of `lanes.len()`, either
/// chunk is not `n_rows * ed` long, a per-question slice is shorter than
/// `lanes.len()`, or a live lane's weighted sum is shorter than `ed`.
#[allow(clippy::too_many_arguments)]
pub fn fused_chunk_lazy_batch_with<L: FusedLane>(
    b: Backend,
    in_flat: &[f32],
    out_flat: &[f32],
    n_rows: usize,
    us_flat: &[f32],
    lanes: &mut [L],
    raw_thresholds: &[Option<f32>],
    live: &[bool],
    skipped: &mut [u64],
) {
    let nq = lanes.len();
    if nq == 0 {
        return;
    }
    let ed = us_flat.len() / nq;
    assert_eq!(us_flat.len(), nq * ed, "fused: ragged questions");
    assert_eq!(in_flat.len(), n_rows * ed, "fused: bad in chunk");
    assert_eq!(out_flat.len(), n_rows * ed, "fused: bad out chunk");
    assert!(
        raw_thresholds.len() >= nq && live.len() >= nq && skipped.len() >= nq,
        "fused: short per-question slices"
    );
    match b {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 + FMA as in `dot_with`; the asserts above are the
        // kernel's length contract.
        Backend::Avx2 => unsafe {
            avx2::fused_chunk_lazy_batch(
                in_flat,
                out_flat,
                n_rows,
                us_flat,
                lanes,
                raw_thresholds,
                live,
                skipped,
            )
        },
        _ => {
            for (q, lane) in lanes.iter_mut().enumerate().filter(|(q, _)| live[*q]) {
                let (ws, denom) = lane.parts();
                skipped[q] += fused_chunk_lazy_scalar(
                    in_flat,
                    out_flat,
                    n_rows,
                    &us_flat[q * ed..(q + 1) * ed],
                    raw_thresholds[q],
                    ws,
                    denom,
                );
            }
        }
    }
}

/// [`fused_chunk_lazy_batch_with`] for one question: folds the chunk into
/// `weighted_sum` and returns `(denominator contribution, skipped rows)`.
///
/// The scalar backend uses libm `exp` — bitwise identical to the two-pass
/// reference path; AVX2 uses the fast exp, so fused-vs-two-pass agreement
/// on that backend is approximate (within [`EXP_MAX_REL_ERROR`] per
/// weight).
///
/// # Panics
///
/// As [`fused_chunk_lazy_batch_with`], with `ed = u.len()`.
pub fn fused_chunk_lazy_with(
    b: Backend,
    in_flat: &[f32],
    out_flat: &[f32],
    n_rows: usize,
    u: &[f32],
    raw_threshold: Option<f32>,
    weighted_sum: &mut [f32],
) -> (f32, u64) {
    let mut lane = [SliceLane(weighted_sum, 0.0)];
    let mut skipped = [0u64];
    fused_chunk_lazy_batch_with(
        b,
        in_flat,
        out_flat,
        n_rows,
        u,
        &mut lane,
        &[raw_threshold],
        &[true],
        &mut skipped,
    );
    (lane[0].1, skipped[0])
}

/// [`crate::kernels::dot_i8`] with an explicit backend. Exact integer
/// arithmetic: both backends return the same `i32` bit for bit.
#[inline]
pub fn dot_i8_with(b: Backend, a: &[i8], x: &[i8]) -> i32 {
    match b {
        Backend::Scalar => dot_i8_scalar(a, x),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `dot_with`.
        Backend::Avx2 => unsafe { avx2::dot_i8(a, x) },
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2 => dot_i8_scalar(a, x),
    }
}

/// [`crate::kernels::gemv_chunk_i8`] with an explicit backend: dequantized
/// logits for one quantized chunk. Bitwise identical across backends (see
/// the int8 parity note).
#[inline]
pub fn gemv_chunk_i8_with(
    b: Backend,
    chunk: &[i8],
    scales: &[f32],
    n_rows: usize,
    uq: &[i8],
    u_scale: f32,
    out: &mut [f32],
) {
    match b {
        Backend::Scalar => gemv_chunk_i8_scalar(chunk, scales, n_rows, uq, u_scale, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `dot_with`.
        Backend::Avx2 => unsafe { avx2::gemv_chunk_i8(chunk, scales, n_rows, uq, u_scale, out) },
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2 => gemv_chunk_i8_scalar(chunk, scales, n_rows, uq, u_scale, out),
    }
}

/// The fused lazy-softmax chunk kernel over quantized memory with an
/// explicit backend — the int8 analogue of [`fused_chunk_lazy_with`], with
/// one difference: **both** backends use the fast exp (`exp_approx`/
/// [`EXP_MAX_REL_ERROR`]), so results are bitwise identical across
/// backends. Logits beyond ±[`EXP_CLAMP`] saturate instead of overflowing
/// (acceptable for quantized logits, whose magnitude the rescale bounds).
///
/// The caller guarantees `in_q.len() == out_q.len() == n_rows * uq.len()`,
/// `in_scales.len() == out_scales.len() == n_rows` and
/// `weighted_sum.len() == uq.len()`; slice indexing panics otherwise.
#[allow(clippy::too_many_arguments)]
pub fn fused_chunk_lazy_i8_with(
    b: Backend,
    in_q: &[i8],
    in_scales: &[f32],
    out_q: &[i8],
    out_scales: &[f32],
    n_rows: usize,
    uq: &[i8],
    u_scale: f32,
    raw_threshold: Option<f32>,
    weighted_sum: &mut [f32],
) -> (f32, u64) {
    debug_assert_eq!(in_q.len(), n_rows * uq.len(), "fused i8: bad in chunk");
    debug_assert_eq!(out_q.len(), n_rows * uq.len(), "fused i8: bad out chunk");
    debug_assert_eq!(in_scales.len(), n_rows, "fused i8: bad in scales");
    debug_assert_eq!(out_scales.len(), n_rows, "fused i8: bad out scales");
    match b {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `dot_with`.
        Backend::Avx2 => unsafe {
            avx2::fused_chunk_lazy_i8(
                in_q,
                in_scales,
                out_q,
                out_scales,
                n_rows,
                uq,
                u_scale,
                raw_threshold,
                weighted_sum,
            )
        },
        _ => fused_chunk_lazy_i8_scalar(
            in_q,
            in_scales,
            out_q,
            out_scales,
            n_rows,
            uq,
            u_scale,
            raw_threshold,
            weighted_sum,
        ),
    }
}

/// [`crate::kernels::embed_sum`] with an explicit backend. Zeroes `out`
/// first, so the result *is* the gather-sum (not an accumulation).
///
/// Unlike the inference kernels, both backends are bitwise identical (see
/// the embed section's module comment), so the choice here is purely a
/// performance decision.
#[inline]
pub fn embed_sum_with(b: Backend, table: &[f32], ed: usize, tokens: &[u32], out: &mut [f32]) {
    out.fill(0.0);
    match b {
        Backend::Scalar => embed_sum_scalar(table, ed, tokens, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `dot_with`.
        Backend::Avx2 => unsafe { avx2::embed_sum(table, ed, tokens, out) },
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2 => embed_sum_scalar(table, ed, tokens, out),
    }
}

/// [`crate::kernels::embed_sum_pe`] with an explicit backend. Zeroes `out`
/// first. Bitwise identical across backends.
#[inline]
pub fn embed_sum_pe_with(b: Backend, table: &[f32], ed: usize, tokens: &[u32], out: &mut [f32]) {
    out.fill(0.0);
    match b {
        Backend::Scalar => embed_sum_pe_scalar(table, ed, tokens, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `dot_with`.
        Backend::Avx2 => unsafe { avx2::embed_sum_pe(table, ed, tokens, out) },
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2 => embed_sum_pe_scalar(table, ed, tokens, out),
    }
}

/// [`crate::kernels::embed_pair`] with an explicit backend. Zeroes both
/// outputs first. Bitwise identical across backends *and* to two separate
/// [`embed_sum_with`] / [`embed_sum_pe_with`] calls.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn embed_pair_with(
    b: Backend,
    table_a: &[f32],
    table_c: &[f32],
    ed: usize,
    tokens: &[u32],
    pe: bool,
    out_a: &mut [f32],
    out_c: &mut [f32],
) {
    out_a.fill(0.0);
    out_c.fill(0.0);
    match b {
        Backend::Scalar => embed_pair_scalar(table_a, table_c, ed, tokens, pe, out_a, out_c),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `dot_with`.
        Backend::Avx2 => unsafe {
            avx2::embed_pair(table_a, table_c, ed, tokens, pe, out_a, out_c)
        },
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2 => embed_pair_scalar(table_a, table_c, ed, tokens, pe, out_a, out_c),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_known_values() {
        assert_eq!(Backend::parse("scalar"), Some(Some(Backend::Scalar)));
        assert_eq!(Backend::parse("AVX2"), Some(Some(Backend::Avx2)));
        assert_eq!(Backend::parse("auto"), Some(None));
        assert_eq!(Backend::parse(""), Some(None));
        assert_eq!(Backend::parse("neon"), None);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Backend::Scalar.label(), "scalar");
        assert_eq!(Backend::Avx2.label(), "avx2");
    }

    #[test]
    fn exp_approx_matches_libm_within_bound() {
        // Sweep the clamped range densely plus awkward points.
        let mut worst = 0.0f64;
        let mut x = -87.0f32;
        while x <= 88.0 {
            let approx = exp_approx(x.min(EXP_CLAMP)) as f64;
            let exact = (x.min(EXP_CLAMP) as f64).exp();
            let rel = ((approx - exact) / exact).abs();
            worst = worst.max(rel);
            x += 0.0173;
        }
        for special in [0.0f32, -0.0, 1.0, -1.0, 80.0, -80.0, f32::MIN_POSITIVE] {
            let rel = ((exp_approx(special) as f64 - (special as f64).exp())
                / (special as f64).exp())
            .abs();
            worst = worst.max(rel);
        }
        assert!(
            worst <= EXP_MAX_REL_ERROR as f64,
            "fast exp max relative error {worst:.3e} exceeds bound {EXP_MAX_REL_ERROR:.1e}"
        );
    }

    #[test]
    fn exp_approx_saturates_beyond_clamp() {
        assert_eq!(exp_approx(500.0), exp_approx(EXP_CLAMP));
        assert_eq!(exp_approx(-500.0), exp_approx(-EXP_CLAMP));
        assert!(exp_approx(500.0).is_finite());
        assert!(exp_approx(-500.0) > 0.0);
    }

    // `set_backend` round-trip behaviour is covered by the dedicated
    // `backend_override` integration binary: it mutates process-global
    // state, which would race with backend-sensitive tests in this binary.

    #[test]
    fn scalar_kernels_match_naive() {
        let a: Vec<f32> = (0..37).map(|i| (i as f32 * 0.3).sin()).collect();
        let b: Vec<f32> = (0..37).map(|i| (i as f32 * 0.7).cos()).collect();
        let naive: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((dot_scalar(&a, &b) - naive).abs() < 1e-4);
    }

    fn i8_pattern(n: usize, phase: i64) -> Vec<i8> {
        (0..n)
            .map(|i| (((i as i64 * 37 + phase * 13) % 255) - 127) as i8)
            .collect()
    }

    #[test]
    fn dot_i8_scalar_matches_naive() {
        for n in [0usize, 1, 7, 31, 32, 33, 64, 100, 131] {
            let a = i8_pattern(n, 1);
            let b = i8_pattern(n, 5);
            let naive: i32 = a.iter().zip(&b).map(|(&x, &y)| x as i32 * y as i32).sum();
            assert_eq!(dot_i8_scalar(&a, &b), naive, "n={n}");
        }
    }

    #[test]
    fn i8_kernels_are_bitwise_identical_across_backends() {
        if Backend::detect() != Backend::Avx2 {
            return; // nothing to compare on this CPU
        }
        for &(n_rows, ed) in &[(1usize, 1usize), (3, 7), (8, 32), (17, 33), (20, 64)] {
            let in_q = i8_pattern(n_rows * ed, 2);
            let out_q = i8_pattern(n_rows * ed, 9);
            let uq = i8_pattern(ed, 4);
            let in_scales: Vec<f32> = (0..n_rows).map(|r| 0.01 + r as f32 * 1e-3).collect();
            let out_scales: Vec<f32> = (0..n_rows).map(|r| 0.02 + r as f32 * 7e-4).collect();
            let u_scale = 0.0123f32;

            for r in 0..n_rows {
                let row = &in_q[r * ed..(r + 1) * ed];
                assert_eq!(
                    dot_i8_with(Backend::Scalar, row, &uq),
                    dot_i8_with(Backend::Avx2, row, &uq),
                    "dot_i8 rows={n_rows} ed={ed} r={r}"
                );
            }

            let mut lo_s = vec![0.0f32; n_rows];
            let mut lo_v = vec![0.0f32; n_rows];
            gemv_chunk_i8_with(
                Backend::Scalar,
                &in_q,
                &in_scales,
                n_rows,
                &uq,
                u_scale,
                &mut lo_s,
            );
            gemv_chunk_i8_with(
                Backend::Avx2,
                &in_q,
                &in_scales,
                n_rows,
                &uq,
                u_scale,
                &mut lo_v,
            );
            assert_eq!(lo_s, lo_v, "gemv_chunk_i8 rows={n_rows} ed={ed}");

            for threshold in [None, Some(0.5f32)] {
                let mut ws_s = vec![0.1f32; ed];
                let mut ws_v = vec![0.1f32; ed];
                let (d_s, k_s) = fused_chunk_lazy_i8_with(
                    Backend::Scalar,
                    &in_q,
                    &in_scales,
                    &out_q,
                    &out_scales,
                    n_rows,
                    &uq,
                    u_scale,
                    threshold,
                    &mut ws_s,
                );
                let (d_v, k_v) = fused_chunk_lazy_i8_with(
                    Backend::Avx2,
                    &in_q,
                    &in_scales,
                    &out_q,
                    &out_scales,
                    n_rows,
                    &uq,
                    u_scale,
                    threshold,
                    &mut ws_v,
                );
                assert_eq!(d_s.to_bits(), d_v.to_bits(), "fused i8 denominator");
                assert_eq!(k_s, k_v, "fused i8 skip count");
                for (k, (a, b)) in ws_s.iter().zip(&ws_v).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "fused i8 ws[{k}] rows={n_rows} ed={ed} th={threshold:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn quantized_logits_stay_within_published_error_bound() {
        // Embedding-scale data: values in [-1, 1], the regime the serving
        // engine feeds these kernels. The bound is relative to the largest
        // |logit| of the pass (see `I8_LOGIT_MAX_REL_ERROR`), so the chunk
        // must contain query-aligned rows — exactly what a trained memory
        // produces for the supporting facts softmax selects. Each row blends
        // a query-aligned component with a pseudo-random residual.
        let (n_rows, ed) = (64usize, 64usize);
        let u: Vec<f32> = (0..ed).map(|c| ((c * 7) as f32 * 0.211).cos()).collect();
        let rows: Vec<Vec<f32>> = (0..n_rows)
            .map(|r| {
                let align = (r as f32 / n_rows as f32) * 0.9;
                (0..ed)
                    .map(|c| {
                        let noise = ((r * 31 + c * 17) as f32 * 0.113).sin();
                        (align * u[c] + (1.0 - align) * noise).clamp(-1.0, 1.0)
                    })
                    .collect()
            })
            .collect();

        let mut uq = vec![0i8; ed];
        let u_scale = crate::quant::quantize_row(&u, &mut uq);
        let mut in_q = vec![0i8; n_rows * ed];
        let mut in_scales = vec![0.0f32; n_rows];
        for (r, row) in rows.iter().enumerate() {
            in_scales[r] = crate::quant::quantize_row(row, &mut in_q[r * ed..(r + 1) * ed]);
        }

        let mut quant_logits = vec![0.0f32; n_rows];
        gemv_chunk_i8_with(
            backend(),
            &in_q,
            &in_scales,
            n_rows,
            &uq,
            u_scale,
            &mut quant_logits,
        );

        let mut max_abs = 0.0f64;
        let mut max_err = 0.0f64;
        for (r, row) in rows.iter().enumerate() {
            let exact: f64 = row.iter().zip(&u).map(|(&a, &b)| a as f64 * b as f64).sum();
            max_abs = max_abs.max(exact.abs());
            max_err = max_err.max((quant_logits[r] as f64 - exact).abs());
        }
        let rel = max_err / max_abs;
        assert!(
            rel <= I8_LOGIT_MAX_REL_ERROR as f64,
            "quantized logit relative error {rel:.3e} exceeds {I8_LOGIT_MAX_REL_ERROR:.1e}"
        );
    }
}
