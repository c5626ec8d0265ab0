//! The softmax family used by memory networks.
//!
//! Four formulations appear in the reproduction:
//!
//! 1. [`softmax_in_place`] — the textbook max-stabilized softmax used by the
//!    baseline MemNN (the paper's Fig 5(a) dataflow: exponentiate, sum,
//!    divide). It is the reference the other three are tested against.
//! 2. *Lazy softmax* — the paper's column-based reformulation (Equation 4):
//!    each chunk contributes `Σ e^{x_i} m_i` and `Σ e^{x_i}`; one division by
//!    the grand total happens at the very end. [`exp_in_place`] +
//!    [`LazyAccumulator`] implement the bookkeeping.
//! 3. [`OnlineSoftmax`] — a numerically-safe streaming variant (extension,
//!    §7 of DESIGN.md) that tracks a running maximum and rescales previous
//!    partial sums, exactly like streamed attention kernels.
//! 4. [`argmax_softmax`] — the answer softmax over the vocabulary: the
//!    arg-max word and `1 / Σ exp_approx(x_i − max)` summed in one fixed
//!    eight-lane order, the same bits on every backend
//!    ([`simd::argmax_softmax_with`] has the definition). Only the word's
//!    probability is wanted, so nothing is normalized; the value is within
//!    [`simd::ARGMAX_SOFTMAX_MAX_REL_ERROR`] of an f64 softmax.

use crate::{kernels, simd};

/// Replaces `x` with `softmax(x)` using the max-subtraction trick.
///
/// An empty slice is left unchanged.
///
/// ```
/// let mut x = [1.0f32, 2.0, 3.0];
/// mnn_tensor::softmax::softmax_in_place(&mut x);
/// assert!((x.iter().sum::<f32>() - 1.0).abs() < 1e-6);
/// assert!(x[2] > x[1] && x[1] > x[0]);
/// ```
pub fn softmax_in_place(x: &mut [f32]) {
    if x.is_empty() {
        return;
    }
    let max = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for v in x.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    let inv = 1.0 / sum;
    for v in x.iter_mut() {
        *v *= inv;
    }
}

/// The answer softmax on the active backend: the arg-max word of `logits`
/// ([`crate::reduce::argmax`]) and its softmax probability, `None` only
/// for an empty slice. One canonical definition on every backend
/// ([`simd::argmax_softmax_with`]), so the result depends on `logits`
/// alone; a NaN logit makes the probability NaN.
///
/// ```
/// use mnn_tensor::simd::ARGMAX_SOFTMAX_MAX_REL_ERROR;
/// use mnn_tensor::softmax::{argmax_softmax, softmax_in_place};
///
/// let x = [1.0f32, 3.0, 2.0];
/// let (word, p) = argmax_softmax(&x).unwrap();
/// let mut reference = x;
/// softmax_in_place(&mut reference);
/// assert_eq!(word, 1);
/// assert!((p - reference[1]).abs() <= ARGMAX_SOFTMAX_MAX_REL_ERROR * reference[1]);
/// ```
pub fn argmax_softmax(logits: &[f32]) -> Option<(usize, f32)> {
    simd::argmax_softmax_with(simd::backend(), logits)
}

/// Replaces each element with `e^{x_i}` (no normalization), the per-chunk
/// step of the lazy softmax. Returns the sum of the exponentials, which the
/// caller accumulates into the lazy denominator. Dispatches to the active
/// SIMD backend ([`crate::simd::exp_slice_with`]).
///
/// # Invariant (enforced)
///
/// There is deliberately no max-subtraction here — the lazy formulation's
/// whole point is deferring normalization — so the caller must guarantee
/// `x_i ≤` [`simd::EXP_CLAMP`] (≈ 87.3, where `e^x` saturates `f32`).
/// Violations are a `debug_assert!`; callers with unbounded logits use
/// [`exp_in_place_stable`] or [`OnlineSoftmax`] instead.
pub fn exp_in_place(x: &mut [f32]) -> f32 {
    debug_assert!(
        x.iter().all(|v| *v <= simd::EXP_CLAMP),
        "exp_in_place: logit exceeds EXP_CLAMP; use exp_in_place_stable or OnlineSoftmax"
    );
    simd::exp_slice_with(simd::backend(), x)
}

/// Max-stabilized variant of [`exp_in_place`]: replaces each element with
/// `e^{x_i - max}` and returns `(sum, max)`. All intermediates stay finite
/// for arbitrarily large logits; the caller carries `max` alongside the
/// partial sums exactly as [`OnlineSoftmax`] does (two partials with maxima
/// `m_a ≥ m_b` merge as `sum_a + sum_b · e^{m_b - m_a}`).
///
/// An empty slice returns `(0.0, -inf)`.
pub fn exp_in_place_stable(x: &mut [f32]) -> (f32, f32) {
    if x.is_empty() {
        return (0.0, f32::NEG_INFINITY);
    }
    let max = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    for v in x.iter_mut() {
        *v -= max;
    }
    (simd::exp_slice_with(simd::backend(), x), max)
}

/// Accumulator for the paper's lazy softmax (Equation 4).
///
/// Chunks feed `(Σ e^{x_i}, Σ e^{x_i}·m_i)` pairs; [`LazyAccumulator::finish`]
/// performs the single division at the end. Merging two accumulators is the
/// scale-out reduction of Section 3.1 (partial results from multiple compute
/// units combine with negligible synchronization).
///
/// ```
/// use mnn_tensor::softmax::LazyAccumulator;
///
/// let mut acc = LazyAccumulator::new(2);
/// acc.add_weighted(1.0, &[1.0, 0.0]); // weight e^0 = 1 for clarity
/// acc.add_weighted(3.0, &[0.0, 1.0]);
/// let o = acc.finish();
/// assert!((o[0] - 0.25).abs() < 1e-6);
/// assert!((o[1] - 0.75).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LazyAccumulator {
    weighted_sum: Vec<f32>,
    denom: f32,
}

impl Default for LazyAccumulator {
    /// An empty accumulator (`ed = 0`); grow it with
    /// [`LazyAccumulator::reset`].
    fn default() -> Self {
        Self::new(0)
    }
}

impl simd::FusedLane for LazyAccumulator {
    fn parts(&mut self) -> (&mut [f32], &mut f32) {
        (&mut self.weighted_sum, &mut self.denom)
    }
}

impl LazyAccumulator {
    /// Creates an accumulator producing an output vector of dimension `ed`.
    pub fn new(ed: usize) -> Self {
        Self {
            weighted_sum: vec![0.0; ed],
            denom: 0.0,
        }
    }

    /// Adds one memory entry: `weight = e^{u·m_i^IN}` and `row = m_i^OUT`.
    ///
    /// # Panics
    ///
    /// Panics if `row.len()` differs from the accumulator dimension.
    pub fn add_weighted(&mut self, weight: f32, row: &[f32]) {
        kernels::axpy(weight, row, &mut self.weighted_sum);
        self.denom += weight;
    }

    /// Adds one *quantized* memory entry: dequantizes `row_q` on the fly
    /// (`row_scale * q[k]`) and accumulates it with `weight`, exactly as the
    /// fused int8 kernel would. Uses the shared scalar dequant-axpy so the
    /// result is bitwise identical across SIMD backends.
    ///
    /// # Panics
    ///
    /// Panics if `row_q.len()` differs from the accumulator dimension.
    pub fn add_weighted_i8(&mut self, weight: f32, row_q: &[i8], row_scale: f32) {
        simd::dequant_axpy_scalar(weight * row_scale, row_q, &mut self.weighted_sum);
        self.denom += weight;
    }

    /// Adds only to the denominator — the zero-skipping path: entries whose
    /// exponential falls below the skip threshold still contribute to
    /// `Σ e^{x_j}` (the paper's FPGA design does exactly this) but skip the
    /// `ed`-wide multiply-accumulate.
    pub fn add_skipped(&mut self, weight: f32) {
        self.denom += weight;
    }

    /// Fused single-pass chunk accumulate: for each of the chunk's `n_rows`
    /// rows computes the logit `row_i^IN · u`, exponentiates, adds the
    /// weight to the denominator, and — unless the weight falls below
    /// `raw_threshold` (the zero-skip test, [`LazyAccumulator::add_skipped`]
    /// semantics) — accumulates `w_i · row_i^OUT`. Returns the number of
    /// skipped rows.
    ///
    /// This is [`LazyAccumulator::accumulate_chunk_batch`] for one
    /// question. Equivalent to a `gemv_chunk` + per-row
    /// [`LazyAccumulator::add_weighted`] loop, but traverses the chunk
    /// once; on the scalar backend the result is bitwise identical to the
    /// two-pass formulation, on AVX2 it uses the fast exp so agreement is
    /// approximate (within [`crate::simd::EXP_MAX_REL_ERROR`] per weight).
    ///
    /// # Panics
    ///
    /// As [`LazyAccumulator::accumulate_chunk_batch`].
    pub fn accumulate_chunk(
        &mut self,
        in_flat: &[f32],
        out_flat: &[f32],
        n_rows: usize,
        u: &[f32],
        raw_threshold: Option<f32>,
    ) -> u64 {
        let mut skipped = [0u64];
        Self::accumulate_chunk_batch(
            std::slice::from_mut(self),
            in_flat,
            out_flat,
            n_rows,
            u,
            &[raw_threshold],
            &[true],
            &mut skipped,
        );
        skipped[0]
    }

    /// Batched fused chunk accumulate — one call of the tile kernel
    /// ([`crate::simd::fused_chunk_lazy_batch_with`]) folds the chunk into
    /// every live question's accumulator while its rows are
    /// cache-resident.
    ///
    /// * `accs` — one accumulator per question (`accs[q]` for question `q`).
    /// * `us_flat` — the `nq` question vectors concatenated (`nq × ed`).
    /// * `raw_thresholds` — per-question zero-skip thresholds on `e^{x}`.
    /// * `live` — questions whose accumulation is still wanted; dead
    ///   questions (expired budgets) are passed over without touching their
    ///   accumulator, while the rest of the batch proceeds.
    /// * `skipped` — per-question skipped-row counters, incremented.
    ///
    /// What `accs[q]` receives is bitwise what
    /// [`LazyAccumulator::accumulate_chunk`] on it alone computes: the
    /// canonical order in [`crate::simd`] makes batched == sequential a
    /// kernel property. Under the `fault-inject` feature the hook is polled
    /// once per live question.
    ///
    /// # Panics
    ///
    /// Panics on mismatched lengths: `live`, `raw_thresholds` and `skipped`
    /// at least `nq = accs.len()` long, `us_flat.len() == nq * ed`, both
    /// chunks `n_rows * ed`, every live accumulator of dimension `ed`.
    #[allow(clippy::too_many_arguments)]
    pub fn accumulate_chunk_batch(
        accs: &mut [LazyAccumulator],
        in_flat: &[f32],
        out_flat: &[f32],
        n_rows: usize,
        us_flat: &[f32],
        raw_thresholds: &[Option<f32>],
        live: &[bool],
        skipped: &mut [u64],
    ) {
        // A question that draws a corrupting fault takes the poisoned path
        // here and sits out the kernel call below.
        #[cfg(feature = "fault-inject")]
        let mut masked = Vec::new();
        #[cfg(feature = "fault-inject")]
        {
            let ed = us_flat.len() / accs.len().max(1);
            for (q, acc) in accs.iter_mut().enumerate().filter(|(q, _)| live[*q]) {
                if let Some(kind) = poll_chunk_fault() {
                    let u = &us_flat[q * ed..(q + 1) * ed];
                    skipped[q] += acc.accumulate_chunk_poisoned(
                        in_flat,
                        out_flat,
                        n_rows,
                        u,
                        raw_thresholds[q],
                        kind,
                    );
                    if masked.is_empty() {
                        masked = live.to_vec();
                    }
                    masked[q] = false;
                }
            }
        }
        #[cfg(feature = "fault-inject")]
        let live = if masked.is_empty() { live } else { &masked };
        simd::fused_chunk_lazy_batch_with(
            simd::backend(),
            in_flat,
            out_flat,
            n_rows,
            us_flat,
            accs,
            raw_thresholds,
            live,
            skipped,
        );
    }

    /// Test-only (see [`crate::fault`]): this question's chunk with its
    /// logits corrupted — a NaN first logit, or every logit far above
    /// [`crate::simd::EXP_CLAMP`] — run through libm `exp` so the damage
    /// propagates instead of being clamped by the fast exp.
    #[cfg(feature = "fault-inject")]
    fn accumulate_chunk_poisoned(
        &mut self,
        in_flat: &[f32],
        out_flat: &[f32],
        n_rows: usize,
        u: &[f32],
        raw_threshold: Option<f32>,
        kind: crate::fault::FaultKind,
    ) -> u64 {
        let ed = u.len();
        let mut logits = vec![0.0f32; n_rows];
        kernels::gemv_chunk(in_flat, n_rows, u, &mut logits);
        poison_logits(&mut logits, kind);
        let mut skipped = 0u64;
        for (r, &x) in logits.iter().enumerate() {
            let w = x.exp();
            match raw_threshold {
                Some(th) if w < th => {
                    self.add_skipped(w);
                    skipped += 1;
                }
                _ => self.add_weighted(w, &out_flat[r * ed..(r + 1) * ed]),
            }
        }
        skipped
    }

    /// Fused chunk accumulate over *quantized* memory — the int8
    /// counterpart of [`LazyAccumulator::accumulate_chunk`]: exact integer
    /// inner products, one f32 rescale per logit, and the dequantizing
    /// weighted accumulate ([`crate::simd::fused_chunk_lazy_i8_with`]).
    /// Returns the number of skipped rows.
    ///
    /// Unlike the f32 fused kernel, **both** backends use the fast exp, so
    /// results are bitwise identical across backends. The same
    /// fault-injection hook guards this path: the serving layer's
    /// degradation ladder retries int8 numeric faults on the f32 safe
    /// path.
    ///
    /// # Panics
    ///
    /// Panics (via slice indexing) on mismatched chunk/scale lengths —
    /// same shape contract as [`crate::simd::fused_chunk_lazy_i8_with`].
    #[allow(clippy::too_many_arguments)]
    pub fn accumulate_chunk_i8(
        &mut self,
        in_q: &[i8],
        in_scales: &[f32],
        out_q: &[i8],
        out_scales: &[f32],
        n_rows: usize,
        uq: &[i8],
        u_scale: f32,
        raw_threshold: Option<f32>,
    ) -> u64 {
        #[cfg(feature = "fault-inject")]
        if let Some(kind) = poll_chunk_fault() {
            return self.accumulate_chunk_i8_poisoned(
                in_q,
                in_scales,
                out_q,
                out_scales,
                n_rows,
                uq,
                u_scale,
                raw_threshold,
                kind,
            );
        }
        let (denom, skipped) = simd::fused_chunk_lazy_i8_with(
            simd::backend(),
            in_q,
            in_scales,
            out_q,
            out_scales,
            n_rows,
            uq,
            u_scale,
            raw_threshold,
            &mut self.weighted_sum,
        );
        self.denom += denom;
        skipped
    }

    /// Test-only, the quantized mirror of
    /// [`LazyAccumulator::accumulate_chunk_poisoned`]: corrupted logits run
    /// through libm `exp` (so NaN/overflow propagate instead of being
    /// clamped by the fast exp) and the dequantizing accumulate.
    #[cfg(feature = "fault-inject")]
    #[allow(clippy::too_many_arguments)]
    fn accumulate_chunk_i8_poisoned(
        &mut self,
        in_q: &[i8],
        in_scales: &[f32],
        out_q: &[i8],
        out_scales: &[f32],
        n_rows: usize,
        uq: &[i8],
        u_scale: f32,
        raw_threshold: Option<f32>,
        kind: crate::fault::FaultKind,
    ) -> u64 {
        let ed = uq.len();
        let mut logits = vec![0.0f32; n_rows];
        simd::gemv_chunk_i8_with(
            simd::backend(),
            in_q,
            in_scales,
            n_rows,
            uq,
            u_scale,
            &mut logits,
        );
        poison_logits(&mut logits, kind);
        let mut skipped = 0u64;
        for (r, &x) in logits.iter().enumerate() {
            let w = x.exp();
            match raw_threshold {
                Some(th) if w < th => {
                    self.add_skipped(w);
                    skipped += 1;
                }
                _ => self.add_weighted_i8(w, &out_q[r * ed..(r + 1) * ed], out_scales[r]),
            }
        }
        skipped
    }

    /// Merges another accumulator (the scale-out reduction).
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn merge(&mut self, other: &LazyAccumulator) {
        kernels::add_assign(&mut self.weighted_sum, &other.weighted_sum);
        self.denom += other.denom;
    }

    /// Current denominator `Σ e^{x_j}` over everything accumulated so far.
    pub fn denom(&self) -> f32 {
        self.denom
    }

    /// Output dimension.
    pub fn dim(&self) -> usize {
        self.weighted_sum.len()
    }

    /// Performs the lazy division and returns the response vector `o`.
    ///
    /// If nothing was accumulated the result is a zero vector (denominator
    /// zero is mapped to zero output rather than NaN so that empty chunks are
    /// harmless).
    pub fn finish(self) -> Vec<f32> {
        let mut out = self.weighted_sum;
        if self.denom > 0.0 {
            kernels::scale(1.0 / self.denom, &mut out);
        }
        out
    }

    /// Non-consuming [`LazyAccumulator::finish`]: writes the normalized
    /// response into `out` (cleared first), leaving the accumulator intact.
    /// Does not allocate when `out` already has capacity `ed`.
    pub fn finish_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.extend_from_slice(&self.weighted_sum);
        if self.denom > 0.0 {
            kernels::scale(1.0 / self.denom, out);
        }
    }

    /// Rewinds the accumulator to its freshly-constructed state, keeping the
    /// allocated buffer — the serving hot path resets instead of
    /// reallocating. Allocates only if `ed` grew since construction.
    pub fn reset(&mut self, ed: usize) {
        self.weighted_sum.clear();
        self.weighted_sum.resize(ed, 0.0);
        self.denom = 0.0;
    }

    /// Decomposes the accumulator into its raw `(weighted_sum, denom)` parts
    /// for the wire encoder in [`crate::partial`].
    pub(crate) fn raw_parts(&self) -> (&[f32], f32) {
        (&self.weighted_sum, self.denom)
    }

    /// Rebuilds an accumulator from raw parts decoded off the wire
    /// ([`crate::partial`]); the inverse of [`LazyAccumulator::raw_parts`].
    pub(crate) fn from_raw_parts(weighted_sum: Vec<f32>, denom: f32) -> Self {
        Self {
            weighted_sum,
            denom,
        }
    }
}

/// Numerically-safe streaming softmax-weighted-sum (extension).
///
/// Tracks the running maximum logit `m`; partial sums are kept relative to
/// `e^{-m}` and rescaled whenever a larger logit arrives. Produces results
/// identical to [`LazyAccumulator`] on moderate logits while remaining finite
/// for logits far beyond `f32` overflow (e.g. `x = 200`).
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineSoftmax {
    weighted_sum: Vec<f32>,
    denom: f32,
    max_logit: f32,
}

impl Default for OnlineSoftmax {
    /// An empty accumulator (`ed = 0`); grow it with
    /// [`OnlineSoftmax::reset`].
    fn default() -> Self {
        Self::new(0)
    }
}

impl OnlineSoftmax {
    /// Creates an accumulator producing an output vector of dimension `ed`.
    pub fn new(ed: usize) -> Self {
        Self {
            weighted_sum: vec![0.0; ed],
            denom: 0.0,
            max_logit: f32::NEG_INFINITY,
        }
    }

    /// Adds one memory entry with raw logit `x_i = u·m_i^IN` and output row
    /// `m_i^OUT`.
    ///
    /// # Panics
    ///
    /// Panics if `row.len()` differs from the accumulator dimension.
    pub fn add(&mut self, logit: f32, row: &[f32]) {
        let scale_factor = self.rescale(logit);
        let w = (logit - self.max_logit).exp();
        debug_assert!(scale_factor.is_finite());
        kernels::axpy(w, row, &mut self.weighted_sum);
        self.denom += w;
    }

    /// Adds one memory entry whose output row lives in the quantized
    /// mirror: `row_q` holds the int8 codes and `row_scale` the row's
    /// symmetric dequantization scale. The dequantizing accumulate is the
    /// shared scalar kernel ([`crate::simd::dequant_axpy_scalar`]) on every
    /// backend, so — with the exact int8 dot producing the logit — the
    /// whole online int8 chain is bitwise identical across backends.
    ///
    /// # Panics
    ///
    /// Panics if `row_q.len()` differs from the accumulator dimension.
    pub fn add_i8(&mut self, logit: f32, row_q: &[i8], row_scale: f32) {
        let scale_factor = self.rescale(logit);
        let w = (logit - self.max_logit).exp();
        debug_assert!(scale_factor.is_finite());
        simd::dequant_axpy_scalar(w * row_scale, row_q, &mut self.weighted_sum);
        self.denom += w;
    }

    /// Adds a logit to the denominator only (zero-skipping path).
    pub fn add_skipped(&mut self, logit: f32) {
        self.rescale(logit);
        self.denom += (logit - self.max_logit).exp();
    }

    /// Fused single-pass chunk accumulate, the online counterpart of
    /// [`LazyAccumulator::accumulate_chunk`]: each row's logit (canonical
    /// order, off the same register tiles) feeds [`OnlineSoftmax::add`] /
    /// [`OnlineSoftmax::add_skipped`], skipping the weighted accumulate
    /// when [`OnlineSoftmax::relative_weight`] falls below
    /// `prob_threshold`. Returns the number of skipped rows.
    ///
    /// This is [`OnlineSoftmax::accumulate_chunk_batch`] for one question.
    /// The rescaling chain stays on libm `exp` on every backend, so this is
    /// bitwise a `gemv_chunk` + per-row [`OnlineSoftmax::add`] fold; the
    /// win here is the SIMD inner products and axpy, not a fast exp.
    ///
    /// # Panics
    ///
    /// As [`OnlineSoftmax::accumulate_chunk_batch`].
    pub fn accumulate_chunk(
        &mut self,
        in_flat: &[f32],
        out_flat: &[f32],
        n_rows: usize,
        u: &[f32],
        prob_threshold: Option<f32>,
    ) -> u64 {
        let mut skipped = [0u64];
        Self::accumulate_chunk_batch(
            std::slice::from_mut(self),
            in_flat,
            out_flat,
            n_rows,
            u,
            &[prob_threshold],
            &[true],
            &mut [0.0; 64],
            &mut skipped,
        );
        skipped[0]
    }

    /// Feeds one run of precomputed logits and their `M_OUT` rows through
    /// the [`OnlineSoftmax::add`] / [`OnlineSoftmax::add_skipped`] chain;
    /// returns the rows skipped.
    fn fold_logits(
        &mut self,
        logits: &[f32],
        out_rows: &[f32],
        prob_threshold: Option<f32>,
    ) -> u64 {
        let ed = self.weighted_sum.len();
        let mut skipped = 0u64;
        for (r, &logit) in logits.iter().enumerate() {
            match prob_threshold {
                Some(th) if self.relative_weight(logit) < th => {
                    self.add_skipped(logit);
                    skipped += 1;
                }
                _ => self.add(logit, &out_rows[r * ed..(r + 1) * ed]),
            }
        }
        skipped
    }

    /// Batched chunk accumulate, the online counterpart of
    /// [`LazyAccumulator::accumulate_chunk_batch`]: the tile kernel
    /// ([`crate::simd::gemm_chunk_with`]) computes every question's logits
    /// for as many rows as fit the `logits` workspace, then each live
    /// question's rows feed its own rescaling chain — bitwise what
    /// [`OnlineSoftmax::accumulate_chunk`] computes for it alone.
    ///
    /// Arguments are as in [`LazyAccumulator::accumulate_chunk_batch`],
    /// with `prob_thresholds` compared against
    /// [`OnlineSoftmax::relative_weight`] and `logits` any workspace of at
    /// least `nq` floats (overwritten; `nq × n_rows` covers the chunk in
    /// one tile pass).
    ///
    /// Note the online formulation is robust to oversized logits by
    /// construction — the running max absorbs them — so an injected
    /// `FaultKind::OversizedLogit` (feature `fault-inject`) perturbs values but stays
    /// finite here; only NaN poisons the accumulator.
    ///
    /// # Panics
    ///
    /// Panics on mismatched lengths — same contract as
    /// [`LazyAccumulator::accumulate_chunk_batch`], plus
    /// `logits.len() >= nq`.
    #[allow(clippy::too_many_arguments)]
    pub fn accumulate_chunk_batch(
        accs: &mut [OnlineSoftmax],
        in_flat: &[f32],
        out_flat: &[f32],
        n_rows: usize,
        us_flat: &[f32],
        prob_thresholds: &[Option<f32>],
        live: &[bool],
        logits: &mut [f32],
        skipped: &mut [u64],
    ) {
        let nq = accs.len();
        if nq == 0 || n_rows == 0 {
            return;
        }
        let ed = us_flat.len() / nq;
        assert!(
            logits.len() >= nq,
            "online batch: logits workspace too small"
        );
        // Questions that drew a corrupting fault, and the value that
        // replaces their first logit of the chunk.
        #[cfg(not(feature = "fault-inject"))]
        let poison: [(usize, f32); 0] = [];
        #[cfg(feature = "fault-inject")]
        let mut poison = Vec::new();
        #[cfg(feature = "fault-inject")]
        for q in (0..nq).filter(|&q| live[q]) {
            if let Some(kind) = poll_chunk_fault() {
                poison.push((q, first_logit_poison(kind)));
            }
        }
        let b = simd::backend();
        let step = (logits.len() / nq).min(n_rows);
        let mut start = 0usize;
        while start < n_rows {
            let n = step.min(n_rows - start);
            let tile = &mut logits[..nq * n];
            let in_rows = &in_flat[start * ed..(start + n) * ed];
            let out_rows = &out_flat[start * ed..(start + n) * ed];
            simd::gemm_chunk_with(b, in_rows, n, us_flat, nq, tile);
            if start == 0 {
                for &(q, p) in &poison {
                    tile[q * n] = p;
                }
            }
            for (q, acc) in accs.iter_mut().enumerate().filter(|(q, _)| live[*q]) {
                skipped[q] +=
                    acc.fold_logits(&tile[q * n..(q + 1) * n], out_rows, prob_thresholds[q]);
            }
            start += n;
        }
    }

    /// Fused single-pass chunk accumulate over *quantized* memory — the
    /// online counterpart of [`LazyAccumulator::accumulate_chunk_i8`]: each
    /// row's logit comes from the exact int8 dot
    /// ([`crate::simd::dot_i8_with`]) rescaled once to f32, then feeds the
    /// [`OnlineSoftmax::add_i8`] / [`OnlineSoftmax::add_skipped`] chain.
    /// Returns the number of skipped rows.
    ///
    /// The rescaling chain stays on libm `exp` and the dequantizing
    /// accumulate on the shared scalar kernel, so this path is bitwise
    /// identical across backends.
    ///
    /// # Panics
    ///
    /// Panics (via slice indexing) on mismatched chunk/scale lengths.
    #[allow(clippy::too_many_arguments)]
    pub fn accumulate_chunk_i8(
        &mut self,
        in_q: &[i8],
        in_scales: &[f32],
        out_q: &[i8],
        out_scales: &[f32],
        n_rows: usize,
        uq: &[i8],
        u_scale: f32,
        prob_threshold: Option<f32>,
    ) -> u64 {
        #[cfg(feature = "fault-inject")]
        let poison = poll_chunk_fault().map(first_logit_poison);
        #[cfg(not(feature = "fault-inject"))]
        let poison = None;
        self.accumulate_chunk_i8_rows(
            in_q,
            in_scales,
            out_q,
            out_scales,
            n_rows,
            uq,
            u_scale,
            prob_threshold,
            poison,
        )
    }

    /// The per-row loop behind [`OnlineSoftmax::accumulate_chunk_i8`], with
    /// an optional first-logit corruption (fault injection only).
    #[allow(clippy::too_many_arguments)]
    fn accumulate_chunk_i8_rows(
        &mut self,
        in_q: &[i8],
        in_scales: &[f32],
        out_q: &[i8],
        out_scales: &[f32],
        n_rows: usize,
        uq: &[i8],
        u_scale: f32,
        prob_threshold: Option<f32>,
        poison_first: Option<f32>,
    ) -> u64 {
        let ed = uq.len();
        let backend = simd::backend();
        let mut skipped = 0u64;
        for r in 0..n_rows {
            let acc = simd::dot_i8_with(backend, &in_q[r * ed..(r + 1) * ed], uq);
            let mut logit = acc as f32 * (u_scale * in_scales[r]);
            if let Some(p) = poison_first.filter(|_| r == 0) {
                logit = p;
            }
            match prob_threshold {
                Some(th) if self.relative_weight(logit) < th => {
                    self.add_skipped(logit);
                    skipped += 1;
                }
                _ => self.add_i8(logit, &out_q[r * ed..(r + 1) * ed], out_scales[r]),
            }
        }
        skipped
    }

    /// Merges another accumulator, rescaling both to the larger maximum.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn merge(&mut self, other: &OnlineSoftmax) {
        if other.denom == 0.0 && other.max_logit == f32::NEG_INFINITY {
            return;
        }
        let new_max = self.max_logit.max(other.max_logit);
        let self_scale = exp_or_zero(self.max_logit - new_max);
        let other_scale = exp_or_zero(other.max_logit - new_max);
        kernels::scale(self_scale, &mut self.weighted_sum);
        for (acc, &v) in self.weighted_sum.iter_mut().zip(&other.weighted_sum) {
            *acc += other_scale * v;
        }
        self.denom = self.denom * self_scale + other.denom * other_scale;
        self.max_logit = new_max;
    }

    /// Current denominator `Σ e^{x_j - max}` relative to the running
    /// maximum (0 before anything is added).
    pub fn denom(&self) -> f32 {
        self.denom
    }

    /// The running maximum logit (`-inf` before anything is added).
    pub fn max_logit(&self) -> f32 {
        self.max_logit
    }

    /// Output dimension (`ed`) this accumulator was built for.
    pub fn dim(&self) -> usize {
        self.weighted_sum.len()
    }

    /// Probability weight the accumulator would currently assign to `logit`,
    /// i.e. `e^{logit - max}` before normalization. Exposed so zero-skip
    /// decisions can be made in the numerically-safe domain.
    pub fn relative_weight(&self, logit: f32) -> f32 {
        exp_or_zero(logit - self.max_logit.max(logit))
    }

    /// Performs the final normalization and returns the response vector.
    pub fn finish(self) -> Vec<f32> {
        let mut out = self.weighted_sum;
        if self.denom > 0.0 {
            kernels::scale(1.0 / self.denom, &mut out);
        }
        out
    }

    /// Non-consuming [`OnlineSoftmax::finish`]: writes the normalized
    /// response into `out` (cleared first), leaving the accumulator intact.
    /// Does not allocate when `out` already has capacity `ed`.
    pub fn finish_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.extend_from_slice(&self.weighted_sum);
        if self.denom > 0.0 {
            kernels::scale(1.0 / self.denom, out);
        }
    }

    /// Rewinds the accumulator to its freshly-constructed state, keeping the
    /// allocated buffer. Allocates only if `ed` grew since construction.
    pub fn reset(&mut self, ed: usize) {
        self.weighted_sum.clear();
        self.weighted_sum.resize(ed, 0.0);
        self.denom = 0.0;
        self.max_logit = f32::NEG_INFINITY;
    }

    /// Decomposes the accumulator into its raw
    /// `(weighted_sum, denom, max_logit)` parts for the wire encoder in
    /// [`crate::partial`].
    pub(crate) fn raw_parts(&self) -> (&[f32], f32, f32) {
        (&self.weighted_sum, self.denom, self.max_logit)
    }

    /// Rebuilds an accumulator from raw parts decoded off the wire
    /// ([`crate::partial`]); the inverse of [`OnlineSoftmax::raw_parts`].
    pub(crate) fn from_raw_parts(weighted_sum: Vec<f32>, denom: f32, max_logit: f32) -> Self {
        Self {
            weighted_sum,
            denom,
            max_logit,
        }
    }

    /// Raises the running max to `logit` if needed, rescaling prior partial
    /// sums; returns the applied scale factor.
    fn rescale(&mut self, logit: f32) -> f32 {
        if logit <= self.max_logit {
            return 1.0;
        }
        let factor = exp_or_zero(self.max_logit - logit);
        kernels::scale(factor, &mut self.weighted_sum);
        self.denom *= factor;
        self.max_logit = logit;
        factor
    }
}

/// Polls the fault-injection hook for one question's chunk (see
/// [`crate::fault`]): a slow fault sleeps here and returns `None` (slow,
/// not wrong), a panic fault panics, a corrupting fault is handed back for
/// the caller to apply.
#[cfg(feature = "fault-inject")]
fn poll_chunk_fault() -> Option<crate::fault::FaultKind> {
    use crate::fault::FaultKind;
    match crate::fault::on_chunk()? {
        FaultKind::SlowChunk(d) => {
            std::thread::sleep(d);
            None
        }
        FaultKind::PanicChunk => panic!("injected fault: chunk kernel panic"),
        kind => Some(kind),
    }
}

/// What a corrupting fault does to a lazy chunk's logits: a NaN first
/// logit, or every logit far above [`simd::EXP_CLAMP`] (every `e^x`
/// overflows f32).
#[cfg(feature = "fault-inject")]
fn poison_logits(logits: &mut [f32], kind: crate::fault::FaultKind) {
    match kind {
        crate::fault::FaultKind::NanLogit => {
            if let Some(first) = logits.first_mut() {
                *first = f32::NAN;
            }
        }
        _ => logits.fill(1000.0),
    }
}

/// What a corrupting fault writes over an online chunk's first logit (the
/// running max absorbs an oversized one, so only NaN poisons).
#[cfg(feature = "fault-inject")]
fn first_logit_poison(kind: crate::fault::FaultKind) -> f32 {
    match kind {
        crate::fault::FaultKind::NanLogit => f32::NAN,
        _ => 1000.0,
    }
}

/// `e^x`, with `e^{-inf - -inf} = e^{NaN}` edge cases mapped to 0.
fn exp_or_zero(x: f32) -> f32 {
    if x.is_nan() {
        0.0
    } else {
        x.exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_slice_approx_eq;

    fn baseline_softmax_weighted_sum(logits: &[f32], rows: &[Vec<f32>]) -> Vec<f32> {
        let mut p = logits.to_vec();
        softmax_in_place(&mut p);
        let ed = rows[0].len();
        let mut out = vec![0.0; ed];
        for (w, row) in p.iter().zip(rows) {
            kernels::axpy(*w, row, &mut out);
        }
        out
    }

    #[test]
    fn softmax_normalizes_and_orders() {
        let mut x = [0.0f32, 1.0, -1.0, 3.0];
        softmax_in_place(&mut x);
        assert!((x.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(x[3] > x[1] && x[1] > x[0] && x[0] > x[2]);
    }

    #[test]
    fn softmax_handles_extreme_logits() {
        let mut x = [1000.0f32, 999.0, -1000.0];
        softmax_in_place(&mut x);
        assert!(x.iter().all(|v| v.is_finite()));
        assert!((x.iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_empty_is_noop() {
        let mut x: [f32; 0] = [];
        softmax_in_place(&mut x);
    }

    #[test]
    fn softmax_single_element_is_one() {
        let mut x = [42.0f32];
        softmax_in_place(&mut x);
        assert!((x[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn exp_in_place_returns_sum() {
        let mut x = [0.0f32, 1.0];
        let s = exp_in_place(&mut x);
        assert!((x[0] - 1.0).abs() < 1e-6);
        assert!((x[1] - std::f32::consts::E).abs() < 1e-5);
        assert!((s - (1.0 + std::f32::consts::E)).abs() < 1e-5);
    }

    #[test]
    fn exp_in_place_stable_survives_large_logits() {
        // Regression: raw exp_in_place would overflow to inf at x >= 89.
        let mut x = [150.0f32, 100.0, 120.0, 149.0];
        let (sum, max) = exp_in_place_stable(&mut x);
        assert_eq!(max, 150.0);
        assert!(sum.is_finite() && sum > 0.0);
        assert!(x.iter().all(|v| v.is_finite()));
        // Normalizing by the returned sum reproduces stabilized softmax.
        let mut probs = x;
        kernels::scale(1.0 / sum, &mut probs);
        let mut expect = [150.0f32, 100.0, 120.0, 149.0];
        softmax_in_place(&mut expect);
        assert_slice_approx_eq(&probs, &expect, 1e-6);
    }

    #[test]
    fn exp_in_place_stable_empty() {
        let mut x: [f32; 0] = [];
        let (sum, max) = exp_in_place_stable(&mut x);
        assert_eq!(sum, 0.0);
        assert_eq!(max, f32::NEG_INFINITY);
    }

    #[test]
    fn lazy_fused_chunk_matches_two_pass() {
        let (n, ed) = (13usize, 7usize);
        let in_flat: Vec<f32> = (0..n * ed).map(|i| ((i as f32) * 0.37).sin()).collect();
        let out_flat: Vec<f32> = (0..n * ed).map(|i| ((i as f32) * 0.11).cos()).collect();
        let u: Vec<f32> = (0..ed).map(|i| i as f32 * 0.2 - 0.5).collect();
        for threshold in [None, Some(0.8f32)] {
            // Two-pass reference: gemv_chunk then per-row add.
            let mut logits = vec![0.0f32; n];
            kernels::gemv_chunk(&in_flat, n, &u, &mut logits);
            let mut two_pass = LazyAccumulator::new(ed);
            let mut skipped_ref = 0u64;
            for (r, &x) in logits.iter().enumerate() {
                let w = x.exp();
                match threshold {
                    Some(th) if w < th => {
                        two_pass.add_skipped(w);
                        skipped_ref += 1;
                    }
                    _ => two_pass.add_weighted(w, &out_flat[r * ed..(r + 1) * ed]),
                }
            }
            let mut fused = LazyAccumulator::new(ed);
            let skipped = fused.accumulate_chunk(&in_flat, &out_flat, n, &u, threshold);
            assert_eq!(skipped, skipped_ref);
            assert!((fused.denom() - two_pass.denom()).abs() < 1e-4);
            assert_slice_approx_eq(&fused.finish(), &two_pass.finish(), 1e-5);
        }
    }

    #[test]
    fn online_fused_chunk_matches_two_pass_bitwise() {
        let (n, ed) = (9usize, 5usize);
        let in_flat: Vec<f32> = (0..n * ed)
            .map(|i| ((i as f32) * 0.29).sin() * 3.0)
            .collect();
        let out_flat: Vec<f32> = (0..n * ed).map(|i| ((i as f32) * 0.13).cos()).collect();
        let u: Vec<f32> = (0..ed).map(|i| i as f32 * 0.4 - 1.0).collect();
        for threshold in [None, Some(0.3f32)] {
            let mut two_pass = OnlineSoftmax::new(ed);
            for r in 0..n {
                let logit = kernels::dot(&in_flat[r * ed..(r + 1) * ed], &u);
                match threshold {
                    Some(th) if two_pass.relative_weight(logit) < th => two_pass.add_skipped(logit),
                    _ => two_pass.add(logit, &out_flat[r * ed..(r + 1) * ed]),
                }
            }
            let mut fused = OnlineSoftmax::new(ed);
            fused.accumulate_chunk(&in_flat, &out_flat, n, &u, threshold);
            // Same dot backend, same libm exp chain: exactly equal.
            assert_eq!(fused, two_pass);
        }
    }

    /// Quantizes an `n x ed` row-major chunk per-row, returning codes and
    /// scales — the shape the int8 accumulate methods consume.
    fn quantize_chunk(flat: &[f32], n: usize, ed: usize) -> (Vec<i8>, Vec<f32>) {
        let mut q = vec![0i8; n * ed];
        let mut scales = vec![0.0f32; n];
        for r in 0..n {
            scales[r] = crate::quant::quantize_row(
                &flat[r * ed..(r + 1) * ed],
                &mut q[r * ed..(r + 1) * ed],
            );
        }
        (q, scales)
    }

    #[test]
    fn lazy_i8_chunk_matches_dequantized_reference() {
        let (n, ed) = (13usize, 7usize);
        let in_flat: Vec<f32> = (0..n * ed).map(|i| ((i as f32) * 0.37).sin()).collect();
        let out_flat: Vec<f32> = (0..n * ed).map(|i| ((i as f32) * 0.11).cos()).collect();
        let u: Vec<f32> = (0..ed).map(|i| i as f32 * 0.2 - 0.5).collect();
        let (in_q, in_scales) = quantize_chunk(&in_flat, n, ed);
        let (out_q, out_scales) = quantize_chunk(&out_flat, n, ed);
        let mut uq = vec![0i8; ed];
        let u_scale = crate::quant::quantize_row(&u, &mut uq);
        for threshold in [None, Some(0.8f32)] {
            // Reference: exact integer dot, one rescale, fast exp, and the
            // dequantizing accumulate — the published kernel contract.
            let mut reference = LazyAccumulator::new(ed);
            let mut skipped_ref = 0u64;
            for r in 0..n {
                let acc = simd::dot_i8_scalar(&in_q[r * ed..(r + 1) * ed], &uq);
                let w = simd::exp_approx(acc as f32 * (u_scale * in_scales[r]));
                match threshold {
                    Some(th) if w < th => {
                        reference.add_skipped(w);
                        skipped_ref += 1;
                    }
                    _ => {
                        let mut row = vec![0.0f32; ed];
                        crate::quant::dequantize_row(
                            &out_q[r * ed..(r + 1) * ed],
                            out_scales[r],
                            &mut row,
                        );
                        reference.add_weighted(w, &row);
                    }
                }
            }
            let mut fused = LazyAccumulator::new(ed);
            let skipped = fused.accumulate_chunk_i8(
                &in_q,
                &in_scales,
                &out_q,
                &out_scales,
                n,
                &uq,
                u_scale,
                threshold,
            );
            assert_eq!(skipped, skipped_ref);
            assert!((fused.denom() - reference.denom()).abs() < 1e-4);
            assert_slice_approx_eq(&fused.finish(), &reference.finish(), 1e-4);
        }
    }

    #[test]
    fn online_i8_chunk_matches_two_pass_bitwise() {
        let (n, ed) = (9usize, 5usize);
        let in_flat: Vec<f32> = (0..n * ed)
            .map(|i| ((i as f32) * 0.29).sin() * 3.0)
            .collect();
        let out_flat: Vec<f32> = (0..n * ed).map(|i| ((i as f32) * 0.13).cos()).collect();
        let u: Vec<f32> = (0..ed).map(|i| i as f32 * 0.4 - 1.0).collect();
        let (in_q, in_scales) = quantize_chunk(&in_flat, n, ed);
        let (out_q, out_scales) = quantize_chunk(&out_flat, n, ed);
        let mut uq = vec![0i8; ed];
        let u_scale = crate::quant::quantize_row(&u, &mut uq);
        for threshold in [None, Some(0.3f32)] {
            let mut two_pass = OnlineSoftmax::new(ed);
            for r in 0..n {
                let acc = simd::dot_i8_with(simd::backend(), &in_q[r * ed..(r + 1) * ed], &uq);
                let logit = acc as f32 * (u_scale * in_scales[r]);
                match threshold {
                    Some(th) if two_pass.relative_weight(logit) < th => two_pass.add_skipped(logit),
                    _ => two_pass.add_i8(logit, &out_q[r * ed..(r + 1) * ed], out_scales[r]),
                }
            }
            let mut fused = OnlineSoftmax::new(ed);
            fused.accumulate_chunk_i8(
                &in_q,
                &in_scales,
                &out_q,
                &out_scales,
                n,
                &uq,
                u_scale,
                threshold,
            );
            // Exact integer dots, one shared rescale per logit, libm exp and
            // the scalar dequantizing accumulate: exactly equal.
            assert_eq!(fused, two_pass);
        }
    }

    fn batch_fixture(n: usize, ed: usize, nq: usize) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let in_flat = (0..n * ed).map(|i| ((i as f32) * 0.37).sin()).collect();
        let out_flat = (0..n * ed).map(|i| ((i as f32) * 0.11).cos()).collect();
        let us_flat = (0..nq * ed).map(|i| ((i as f32) * 0.23).sin()).collect();
        (in_flat, out_flat, us_flat)
    }

    // Batched == per-question, bit for bit and across tile shapes, is the
    // subject of `tests/properties.rs`; here only what is particular to
    // this layer.

    #[test]
    fn batched_chunk_skips_dead_questions() {
        let (n, ed, nq) = (8usize, 4usize, 2usize);
        let (in_flat, out_flat, us_flat) = batch_fixture(n, ed, nq);
        let mut accs = vec![LazyAccumulator::new(ed); nq];
        let mut skipped = vec![0u64; nq];
        LazyAccumulator::accumulate_chunk_batch(
            &mut accs,
            &in_flat,
            &out_flat,
            n,
            &us_flat,
            &[None, None],
            &[false, true],
            &mut skipped,
        );
        // The dead question's accumulator is untouched; the live one is not.
        assert_eq!(accs[0].denom(), 0.0);
        assert!(accs[1].denom() > 0.0);
    }

    #[test]
    fn lazy_matches_baseline() {
        let logits = [0.5f32, -0.25, 2.0, 1.0, -3.0];
        let rows: Vec<Vec<f32>> = (0..5)
            .map(|i| (0..3).map(|j| (i * 3 + j) as f32 * 0.1).collect())
            .collect();
        let expect = baseline_softmax_weighted_sum(&logits, &rows);

        let mut acc = LazyAccumulator::new(3);
        for (l, row) in logits.iter().zip(&rows) {
            acc.add_weighted(l.exp(), row);
        }
        assert_slice_approx_eq(&acc.finish(), &expect, 1e-5);
    }

    #[test]
    fn lazy_merge_equals_single_pass() {
        let logits: Vec<f32> = (0..10).map(|i| (i as f32) * 0.3 - 1.5).collect();
        let rows: Vec<Vec<f32>> = (0..10).map(|i| vec![i as f32, -(i as f32)]).collect();

        let mut whole = LazyAccumulator::new(2);
        for (l, r) in logits.iter().zip(&rows) {
            whole.add_weighted(l.exp(), r);
        }

        let mut a = LazyAccumulator::new(2);
        let mut b = LazyAccumulator::new(2);
        for (i, (l, r)) in logits.iter().zip(&rows).enumerate() {
            if i < 4 {
                a.add_weighted(l.exp(), r);
            } else {
                b.add_weighted(l.exp(), r);
            }
        }
        a.merge(&b);
        assert!((a.denom() - whole.denom()).abs() < 1e-4);
        assert_slice_approx_eq(&a.finish(), &whole.finish(), 1e-5);
    }

    #[test]
    fn lazy_empty_finishes_to_zero() {
        let acc = LazyAccumulator::new(4);
        assert_eq!(acc.finish(), vec![0.0; 4]);
    }

    #[test]
    fn lazy_skipped_only_affects_denominator() {
        let mut acc = LazyAccumulator::new(1);
        acc.add_weighted(1.0, &[1.0]);
        acc.add_skipped(1.0);
        let out = acc.finish();
        assert!((out[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn online_matches_baseline() {
        let logits = [0.5f32, -0.25, 2.0, 1.0, -3.0];
        let rows: Vec<Vec<f32>> = (0..5)
            .map(|i| (0..3).map(|j| ((i * 3 + j) as f32).cos()).collect())
            .collect();
        let expect = baseline_softmax_weighted_sum(&logits, &rows);
        let mut acc = OnlineSoftmax::new(3);
        for (l, row) in logits.iter().zip(&rows) {
            acc.add(*l, row);
        }
        assert_slice_approx_eq(&acc.finish(), &expect, 1e-5);
    }

    #[test]
    fn online_survives_overflowing_logits() {
        // Raw lazy softmax would produce inf here: e^200 overflows f32.
        let mut acc = OnlineSoftmax::new(2);
        acc.add(200.0, &[1.0, 0.0]);
        acc.add(199.0, &[0.0, 1.0]);
        let out = acc.finish();
        assert!(out.iter().all(|v| v.is_finite()));
        // p = softmax([200, 199]) = [e/(1+e), 1/(1+e)]
        let e = std::f32::consts::E;
        assert!((out[0] - e / (1.0 + e)).abs() < 1e-5);
        assert!((out[1] - 1.0 / (1.0 + e)).abs() < 1e-5);
    }

    #[test]
    fn online_merge_equals_single_pass() {
        let logits: Vec<f32> = vec![5.0, -2.0, 100.0, 3.0, 99.5, -50.0];
        let rows: Vec<Vec<f32>> = (0..6).map(|i| vec![(i as f32) * 0.7 - 1.0]).collect();

        let mut whole = OnlineSoftmax::new(1);
        for (l, r) in logits.iter().zip(&rows) {
            whole.add(*l, r);
        }
        let mut a = OnlineSoftmax::new(1);
        let mut b = OnlineSoftmax::new(1);
        for (i, (l, r)) in logits.iter().zip(&rows).enumerate() {
            if i % 2 == 0 {
                a.add(*l, r);
            } else {
                b.add(*l, r);
            }
        }
        a.merge(&b);
        assert_slice_approx_eq(&a.finish(), &whole.finish(), 1e-5);
    }

    #[test]
    fn online_merge_with_empty_is_identity() {
        let mut acc = OnlineSoftmax::new(1);
        acc.add(1.0, &[2.0]);
        let before = acc.clone();
        acc.merge(&OnlineSoftmax::new(1));
        assert_eq!(acc, before);

        let mut empty = OnlineSoftmax::new(1);
        empty.merge(&before);
        assert_slice_approx_eq(&empty.finish(), &before.finish(), 1e-6);
    }

    #[test]
    fn online_relative_weight_for_skipping() {
        let mut acc = OnlineSoftmax::new(1);
        acc.add(10.0, &[1.0]);
        // A logit 5 below the max has relative weight e^-5.
        assert!((acc.relative_weight(5.0) - (-5.0f32).exp()).abs() < 1e-6);
        // A new maximum always has weight 1.
        assert!((acc.relative_weight(20.0) - 1.0).abs() < 1e-6);
    }
}
