//! Int8 symmetric quantization of the story memory.
//!
//! The inference phase of a memory network is bandwidth-bound: every hop
//! streams the whole story memory (`M_IN` and `M_OUT`) past the ALUs once.
//! [`QuantMatrix`] mirrors a row-major f32 [`Matrix`] with
//! one signed 8-bit code per element plus one symmetric *per-row* f32
//! scale, shrinking the bytes moved per query by ~4x.
//!
//! # Scale layout: per-row, symmetric
//!
//! Each row `x` is encoded as `q[i] = round(x[i] / s)` clamped to
//! `[-127, 127]` with `s = max_i |x[i]| / 127` (the symmetric scheme — no
//! zero point, so the integer dot product needs no correction terms). The
//! scale is *per row* rather than per chunk for two reasons:
//!
//! * **Eviction coherence.** The serving store evicts whole rows from the
//!   front; per-row scales leave in lockstep with their rows, so an evict
//!   only advances a head over both planes (see [`QuantMatrix`]). A
//!   per-chunk scale would have to re-quantize every chunk the eviction
//!   re-aligns.
//! * **Tighter error.** The quantization step is `s/2 = max|x| / 254` *of
//!   that row*; a chunk-wide scale inflates the step of every row by the
//!   chunk's loudest row.
//!
//! # Error bound
//!
//! For a row with `m = max_i |x[i]| > 0` the reconstruction error per
//! element is `|x[i] − q[i]·s| ≤ s/2 · (1 + ε)` for a few f32 ulps `ε`
//! (one rounding in the division, one in the reconstruction multiply).
//! Rows whose `m` underflows the scale computation (`m < 127 ·
//! f32::MIN_POSITIVE` subnormals) quantize to all-zero codes with scale
//! `0.0`; the absolute error is then `|x[i]| ≤ m < 2.4e-43`, far below any
//! logit that could matter. Non-finite rows quantize to all-zero codes
//! with an *infinite* scale, which poisons downstream zone maps (pruning
//! disabled) and surfaces as a numeric fault in the engine rather than a
//! silently wrong answer.
//!
//! There is exactly **one** quantizer implementation (scalar, below) — no
//! SIMD variant — so every backend sees bit-identical codes and scales,
//! which is the foundation of the int8 scalar==SIMD parity contract in
//! [`simd`](crate::simd).

use crate::Matrix;

/// Quantizes one row with a symmetric per-row scale.
///
/// Writes the i8 codes into `dst` and returns the scale `s` such that
/// `q[i] · s ≈ src[i]`. All-zero (and all-subnormal) rows return scale
/// `0.0` with zero codes; non-finite rows return scale `+∞` with zero
/// codes (see the module docs).
///
/// # Panics
///
/// Panics if `src` and `dst` have different lengths.
pub fn quantize_row(src: &[f32], dst: &mut [i8]) -> f32 {
    assert_eq!(src.len(), dst.len(), "quantize_row length mismatch");
    let mut maxabs = 0.0f32;
    for &x in src {
        // Explicit finiteness check: `NaN.abs() > maxabs` is false, so a
        // max-scan alone would silently skip NaNs instead of poisoning.
        if !x.is_finite() {
            dst.fill(0);
            return f32::INFINITY;
        }
        let a = x.abs();
        if a > maxabs {
            maxabs = a;
        }
    }
    let scale = maxabs / 127.0;
    if scale == 0.0 {
        dst.fill(0);
        return 0.0;
    }
    for (d, &x) in dst.iter_mut().zip(src) {
        // `x / scale` (not `x * (1/scale)`): the reciprocal overflows to
        // +inf for subnormal scales, the division does not.
        let q = (x / scale).round().clamp(-127.0, 127.0);
        *d = q as i8;
    }
    scale
}

/// Reconstructs a quantized row into `dst` (`dst[i] = q[i] · scale`).
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn dequantize_row(q: &[i8], scale: f32, dst: &mut [f32]) {
    assert_eq!(q.len(), dst.len(), "dequantize_row length mismatch");
    for (d, &v) in dst.iter_mut().zip(q) {
        *d = v as f32 * scale;
    }
}

/// A row-major i8 matrix with one symmetric per-row scale — the quantized
/// mirror of a story-memory [`Matrix`].
///
/// Supports the same front-eviction discipline as the serving store: rows
/// are pushed at the back and evicted from the front, codes and scales in
/// lockstep.
///
/// # Window contract
///
/// Logical row `i` lives at physical row `head + i` of the code and scale
/// vectors. [`evict_front`](QuantMatrix::evict_front) advances `head` and
/// moves nothing; once the dead prefix reaches `max(live / 32, 64)` rows
/// the matrix compacts itself (one `copy_within` + `truncate` per plane),
/// so an evicted row costs amortised O(`cols`) whoever the caller is and
/// the dead prefix never exceeds ~3 % of the live rows. The live rows stay
/// one contiguous slice, so a chunk is still a single
/// [`rows_slice`](QuantMatrix::rows_slice). Accessors, `==`, `Debug` and
/// [`resident_bytes`](QuantMatrix::resident_bytes) see live rows only.
#[derive(Clone, Default)]
pub struct QuantMatrix {
    /// Codes and scales of every physical row: an evicted prefix (see
    /// [`Self::head`]) followed by the `rows` live rows.
    data: Vec<i8>,
    scales: Vec<f32>,
    rows: usize,
    cols: usize,
}

impl QuantMatrix {
    /// Creates an empty quantized matrix with `cols` columns.
    pub fn new(cols: usize) -> Self {
        QuantMatrix {
            data: Vec::new(),
            scales: Vec::new(),
            rows: 0,
            cols,
        }
    }

    /// Creates an empty quantized matrix with capacity for `rows` rows.
    pub fn with_capacity(rows: usize, cols: usize) -> Self {
        QuantMatrix {
            data: Vec::with_capacity(rows * cols),
            scales: Vec::with_capacity(rows),
            rows: 0,
            cols,
        }
    }

    /// Quantizes the first `rows` rows of `m`.
    ///
    /// # Panics
    ///
    /// Panics if `rows > m.rows()`.
    pub fn from_matrix_prefix(m: &Matrix, rows: usize) -> Self {
        assert!(
            rows <= m.rows(),
            "prefix {} > matrix rows {}",
            rows,
            m.rows()
        );
        let mut q = QuantMatrix::with_capacity(rows, m.cols());
        for r in 0..rows {
            q.push_row(m.row(r));
        }
        q
    }

    /// Quantizes every row of `m`.
    pub fn from_matrix(m: &Matrix) -> Self {
        Self::from_matrix_prefix(m, m.rows())
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Whether the matrix holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Quantizes `row` and appends it; returns its scale.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.cols()`.
    pub fn push_row(&mut self, row: &[f32]) -> f32 {
        assert_eq!(row.len(), self.cols, "push_row width mismatch");
        let start = self.data.len();
        self.data.resize(start + self.cols, 0);
        let scale = quantize_row(row, &mut self.data[start..]);
        self.scales.push(scale);
        self.rows += 1;
        scale
    }

    /// Appends an already-quantized row verbatim (codes and scale copied
    /// bit for bit, no re-quantization). Used by the sparse-attention
    /// candidate gather, where the staged rows must stay bitwise identical
    /// to their source mirror so the exact rescoring pass reproduces the
    /// int8 plane's logits exactly.
    ///
    /// # Panics
    ///
    /// Panics if `codes.len() != self.cols()`.
    pub fn push_quantized_row(&mut self, codes: &[i8], scale: f32) {
        assert_eq!(codes.len(), self.cols, "push_quantized_row width mismatch");
        self.data.extend_from_slice(codes);
        self.scales.push(scale);
        self.rows += 1;
    }

    /// Evicts the first `n` rows by advancing the head over codes and
    /// scales in lockstep; compacts when the dead prefix has grown to
    /// `max(live / 32, 64)` rows (see the type docs).
    ///
    /// # Panics
    ///
    /// Panics if `n > self.rows()`.
    pub fn evict_front(&mut self, n: usize) {
        assert!(n <= self.rows, "evict {} of {} rows", n, self.rows);
        self.rows -= n;
        let head = self.head();
        if head >= (self.rows / 32).max(64) {
            self.data.copy_within(head * self.cols.., 0);
            self.data.truncate(self.rows * self.cols);
            self.scales.copy_within(head.., 0);
            self.scales.truncate(self.rows);
        }
    }

    /// Removes all rows (capacity is retained).
    pub fn clear(&mut self) {
        self.data.clear();
        self.scales.clear();
        self.rows = 0;
    }

    /// Evicted rows still at the front of `data`/`scales`.
    fn head(&self) -> usize {
        self.scales.len() - self.rows
    }

    /// The codes of the live rows, flat.
    fn live_codes(&self) -> &[i8] {
        &self.data[self.head() * self.cols..]
    }

    /// The codes of row `r`.
    pub fn row(&self, r: usize) -> &[i8] {
        self.rows_slice(r, 1)
    }

    /// A flat view of `n` consecutive rows starting at `start` — the chunk
    /// layout the i8 kernels consume.
    pub fn rows_slice(&self, start: usize, n: usize) -> &[i8] {
        &self.live_codes()[start * self.cols..(start + n) * self.cols]
    }

    /// All per-row scales, in row order.
    pub fn scales(&self) -> &[f32] {
        &self.scales[self.head()..]
    }

    /// The scales of `n` consecutive rows starting at `start`.
    pub fn scales_slice(&self, start: usize, n: usize) -> &[f32] {
        &self.scales()[start..start + n]
    }

    /// The scale of row `r`.
    pub fn scale(&self, r: usize) -> f32 {
        self.scales()[r]
    }

    /// The *exact* Euclidean norm of the dequantized row `r`, in f64:
    /// `s · sqrt(Σ q²)`. Integer squares are exact in f64, so this is the
    /// true norm of the vector the i8 kernels dot against — zone maps
    /// built from it (plus the usual slack) stay conservative.
    pub fn row_norm(&self, r: usize) -> f64 {
        let sumsq: f64 = self
            .row(r)
            .iter()
            .map(|&q| (q as i32 * q as i32) as f64)
            .sum();
        self.scale(r) as f64 * sumsq.sqrt()
    }

    /// Bytes the live rows occupy in the quantized plane (codes + scales);
    /// an evicted prefix awaiting compaction is not counted.
    pub fn resident_bytes(&self) -> u64 {
        (self.rows * (self.cols + 4)) as u64
    }
}

/// Two quantized matrices are equal when their live rows are: same codes,
/// same scales, whatever dead prefix either still carries.
impl PartialEq for QuantMatrix {
    fn eq(&self, other: &Self) -> bool {
        self.cols == other.cols
            && self.live_codes() == other.live_codes()
            && self.scales() == other.scales()
    }
}

impl std::fmt::Debug for QuantMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QuantMatrix")
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .field("data", &self.live_codes())
            .field("scales", &self.scales())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_check(row: &[f32]) {
        let mut q = vec![0i8; row.len()];
        let scale = quantize_row(row, &mut q);
        let maxabs = row.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        if !maxabs.is_finite() {
            assert_eq!(scale, f32::INFINITY);
            assert!(q.iter().all(|&v| v == 0));
            return;
        }
        // Half a quantization step plus fp slack; the additive term covers
        // rows whose scale underflowed to zero (see module docs).
        let tol = maxabs / 127.0 * 0.5001 + 1e-40;
        let mut dq = vec![0.0f32; row.len()];
        dequantize_row(&q, scale, &mut dq);
        for (i, (&x, &y)) in row.iter().zip(&dq).enumerate() {
            assert!(
                (x - y).abs() <= tol,
                "row[{i}] = {x} reconstructed as {y} (scale {scale}, tol {tol})"
            );
        }
    }

    #[test]
    fn roundtrip_error_is_within_half_a_step() {
        roundtrip_check(&[1.0, -2.0, 0.5, 127.0, -127.0, 0.0]);
        roundtrip_check(&[0.001, -0.002, 0.0005]);
        roundtrip_check(&[1e30, -1e30, 5e29]);
        roundtrip_check(&[42.0]);
        roundtrip_check(&[]);
    }

    #[test]
    fn zero_and_subnormal_rows_get_scale_zero() {
        let mut q = vec![7i8; 4];
        assert_eq!(quantize_row(&[0.0; 4], &mut q), 0.0);
        assert!(q.iter().all(|&v| v == 0));

        // All-subnormal row whose maxabs / 127 underflows to zero.
        let tiny = f32::from_bits(1); // smallest positive subnormal
        let mut q = vec![7i8; 2];
        assert_eq!(quantize_row(&[tiny, -tiny], &mut q), 0.0);
        assert!(q.iter().all(|&v| v == 0));
        roundtrip_check(&[tiny, -tiny]);

        // A subnormal row big enough to keep a nonzero scale still meets
        // the bound.
        roundtrip_check(&[1e-40, -5e-41, 2.5e-41, 0.0]);
    }

    #[test]
    fn non_finite_rows_poison_the_scale() {
        let mut q = vec![7i8; 3];
        assert_eq!(
            quantize_row(&[1.0, f32::INFINITY, 2.0], &mut q),
            f32::INFINITY
        );
        assert!(q.iter().all(|&v| v == 0));
        let mut q = vec![7i8; 2];
        assert_eq!(quantize_row(&[f32::NAN, 1.0], &mut q), f32::INFINITY);
    }

    #[test]
    fn codes_saturate_at_127() {
        let mut q = vec![0i8; 3];
        quantize_row(&[100.0, -100.0, 1.0], &mut q);
        assert_eq!(q[0], 127);
        assert_eq!(q[1], -127);
    }

    #[test]
    fn push_and_evict_shift_scales_in_lockstep() {
        let mut qm = QuantMatrix::new(3);
        qm.push_row(&[1.0, 2.0, 3.0]);
        qm.push_row(&[10.0, 20.0, 30.0]);
        qm.push_row(&[-5.0, 0.0, 5.0]);
        assert_eq!(qm.rows(), 3);

        let row1 = qm.row(1).to_vec();
        let scale1 = qm.scale(1);
        let row2 = qm.row(2).to_vec();
        let scale2 = qm.scale(2);

        qm.evict_front(1);
        assert_eq!(qm.rows(), 2);
        assert_eq!(qm.row(0), &row1[..]);
        assert_eq!(qm.scale(0), scale1);
        assert_eq!(qm.row(1), &row2[..]);
        assert_eq!(qm.scale(1), scale2);

        qm.evict_front(2);
        assert!(qm.is_empty());
        qm.push_row(&[1.0, 1.0, 1.0]);
        assert_eq!(qm.rows(), 1);
    }

    #[test]
    fn eviction_is_a_head_advance_that_no_view_can_see() {
        let cols = 5;
        let m = Matrix::from_fn(400, cols, |r, c| ((r * cols + c) as f32 * 0.13).sin() * 2.0);
        let mut qm = QuantMatrix::new(cols);
        let mut first = 0; // logical row 0 is row `first` of `m`
        for r in 0..m.rows() {
            qm.push_row(m.row(r));
            // A sliding window of 100 rows, plus a bulk eviction midway.
            let n = if r == 250 {
                37
            } else {
                usize::from(qm.rows() > 100)
            };
            let row0 = qm.row(0).as_ptr();
            qm.evict_front(n);
            first += n;
            // The dead prefix is bounded, and short of the bound no byte
            // moved: the view slid forward over the same allocation.
            assert!(qm.head() < (qm.rows() / 32).max(64));
            assert_eq!(qm.data.len(), (qm.head() + qm.rows()) * cols);
            assert!(qm.head() == 0 || qm.row(0).as_ptr() == row0.wrapping_add(n * cols));

            let fresh = QuantMatrix::from_matrix(
                &Matrix::from_flat(qm.rows(), cols, m.rows_slice(first, qm.rows())).unwrap(),
            );
            assert_eq!(qm, fresh, "equal at any head");
            assert_eq!(format!("{qm:?}"), format!("{fresh:?}"));
            assert_eq!(qm.resident_bytes(), fresh.resident_bytes());
            assert_eq!(qm.resident_bytes(), (qm.rows() * (cols + 4)) as u64);
            assert_eq!(qm.scales(), fresh.scales());
            let last = qm.rows() - 1;
            assert_eq!(qm.row(last), fresh.row(last));
            assert_eq!(qm.rows_slice(0, qm.rows()), fresh.rows_slice(0, qm.rows()));
            assert_eq!(qm.scales_slice(last, 1), &[fresh.scale(last)]);
            assert_eq!(qm.row_norm(0), fresh.row_norm(0));
        }
        assert!(first > 250, "the window slid and compacted several times");
        assert_eq!(qm.clone(), qm);
        qm.clear();
        assert_eq!((qm.rows(), qm.head(), qm.resident_bytes()), (0, 0, 0));
    }

    #[test]
    fn push_quantized_row_copies_codes_verbatim() {
        let m = Matrix::from_fn(5, 4, |r, c| ((r * 5 + c) as f32 * 0.21).sin() * 3.0);
        let src = QuantMatrix::from_matrix(&m);
        let mut gathered = QuantMatrix::new(4);
        for r in [3usize, 0, 4] {
            gathered.push_quantized_row(src.row(r), src.scale(r));
        }
        assert_eq!(gathered.rows(), 3);
        for (g, r) in [3usize, 0, 4].iter().enumerate() {
            assert_eq!(gathered.row(g), src.row(*r), "codes must be bitwise");
            assert_eq!(gathered.scale(g), src.scale(*r), "scale must be bitwise");
        }
    }

    #[test]
    fn from_matrix_matches_per_row_quantization() {
        let m = Matrix::from_fn(9, 4, |r, c| ((r * 7 + c * 3) as f32 * 0.37).sin() * 4.0);
        let qm = QuantMatrix::from_matrix(&m);
        assert_eq!(qm.rows(), 9);
        assert_eq!(qm.cols(), 4);
        for r in 0..9 {
            let mut expect = vec![0i8; 4];
            let s = quantize_row(m.row(r), &mut expect);
            assert_eq!(qm.row(r), &expect[..]);
            assert_eq!(qm.scale(r), s);
        }
    }

    #[test]
    fn row_norm_matches_dequantized_norm() {
        let m = Matrix::from_fn(5, 8, |r, c| ((r + c) as f32 * 0.9).cos() * 3.0);
        let qm = QuantMatrix::from_matrix(&m);
        for r in 0..5 {
            let mut dq = vec![0.0f32; 8];
            dequantize_row(qm.row(r), qm.scale(r), &mut dq);
            let norm: f64 = dq.iter().map(|&x| x as f64 * x as f64).sum::<f64>().sqrt();
            let got = qm.row_norm(r);
            assert!(
                (got - norm).abs() <= norm * 1e-6 + 1e-12,
                "row {r}: {got} vs {norm}"
            );
        }
    }

    #[test]
    fn resident_bytes_counts_codes_and_scales() {
        let mut qm = QuantMatrix::new(16);
        qm.push_row(&[1.0; 16]);
        qm.push_row(&[2.0; 16]);
        assert_eq!(qm.resident_bytes(), 2 * 16 + 2 * 4);
    }
}
