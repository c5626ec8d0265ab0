use crate::{AlignedBuf, ShapeError};
use std::fmt;

/// A dense, row-major `f32` matrix backed by cache-line-aligned storage.
///
/// Rows correspond to the paper's memory entries (one embedded sentence per
/// row of `M_IN` / `M_OUT`), so the chunking of the column-based algorithm is
/// expressed as [`Matrix::chunk_rows`].
///
/// # Window contract
///
/// A matrix is a *window* over its allocation: logical row `i` lives at
/// physical row `head + i`, where `head` counts the rows
/// [`drop_front_rows`](Matrix::drop_front_rows) has taken out of view since
/// the last [`reclaim_front`](Matrix::reclaim_front). Dropping is O(1) — no
/// element moves, `rows()` shrinks — and reclaiming is one memmove of the
/// rows the caller still wants. Every accessor, `==` and `Debug` see the
/// window only, never the dropped rows. The window stays one contiguous
/// flat slice, so a chunk of logical rows is still a single `rows_slice`;
/// it may start off a 64-byte boundary (whenever `cols * 4` is not a
/// multiple of 64), which every kernel tolerates because they all use
/// unaligned loads. A matrix that never drops rows has `head == 0` and
/// behaves exactly as a plain dense matrix.
///
/// ```
/// use mnn_tensor::Matrix;
///
/// let mut m = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32);
/// assert_eq!(m.row(1), &[2.0, 3.0]);
/// assert_eq!(m.shape(), (3, 2));
/// m.drop_front_rows(1);
/// assert_eq!(m.row(0), &[2.0, 3.0]);
/// assert_eq!(m.shape(), (2, 2));
/// ```
#[derive(Clone)]
pub struct Matrix {
    data: AlignedBuf,
    /// Element offset of the window's first row into `data` (a multiple
    /// of `cols`).
    start: usize,
    rows: usize,
    cols: usize,
}

impl Matrix {
    /// Creates a zero matrix with the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            data: AlignedBuf::zeroed(rows * cols),
            start: 0,
            rows,
            cols,
        }
    }

    /// Creates a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut m = Self::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.data[r * cols + c] = f(r, c);
            }
        }
        m
    }

    /// Creates a matrix from a flat row-major slice.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `data.len() != rows * cols`.
    pub fn from_flat(rows: usize, cols: usize, data: &[f32]) -> Result<Self, ShapeError> {
        if data.len() != rows * cols {
            return Err(ShapeError::new(
                "Matrix::from_flat",
                format!("{} elements ({rows}x{cols})", rows * cols),
                format!("{} elements", data.len()),
            ));
        }
        Ok(Self {
            data: AlignedBuf::from_slice(data),
            start: 0,
            rows,
            cols,
        })
    }

    /// Creates a matrix from per-row slices, which must all have equal length.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the rows have differing lengths or `rows` is
    /// empty (the column count would be ambiguous).
    pub fn from_rows(rows: &[&[f32]]) -> Result<Self, ShapeError> {
        let Some(first) = rows.first() else {
            return Err(ShapeError::new(
                "Matrix::from_rows",
                "at least one row",
                "0 rows",
            ));
        };
        let cols = first.len();
        let mut m = Self::zeros(rows.len(), cols);
        for (r, row) in rows.iter().enumerate() {
            if row.len() != cols {
                return Err(ShapeError::new(
                    "Matrix::from_rows",
                    format!("row of length {cols}"),
                    format!("row {r} of length {}", row.len()),
                ));
            }
            m.row_mut(r).copy_from_slice(row);
        }
        Ok(m)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// Returns `true` if the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size of the visible rows in bytes — used by the memory-traffic
    /// accounting in the simulators.
    pub fn size_bytes(&self) -> usize {
        self.len() * std::mem::size_of::<f32>()
    }

    /// The visible rows as one flat slice; every accessor indexes through
    /// this (or [`Self::window_mut`]), so none can reach a dropped row.
    fn window(&self) -> &[f32] {
        &self.data[self.start..self.start + self.rows * self.cols]
    }

    fn window_mut(&mut self) -> &mut [f32] {
        &mut self.data[self.start..self.start + self.rows * self.cols]
    }

    /// Takes the first `n` rows out of view in O(1): row `n` becomes row
    /// 0, `rows()` shrinks by `n`, no element moves. The dropped rows keep
    /// their place in the allocation until [`Self::reclaim_front`].
    ///
    /// # Panics
    ///
    /// Panics if `n > self.rows()`.
    pub fn drop_front_rows(&mut self, n: usize) {
        assert!(n <= self.rows, "drop {n} of {} rows", self.rows);
        self.start += n * self.cols;
        self.rows -= n;
    }

    /// Moves the first `live` visible rows back to the start of the
    /// allocation (one memmove of `live` rows) and returns every dropped
    /// row to the tail: `rows()` grows by the number of rows dropped since
    /// the last reclaim. Rows at and after `live` hold unspecified values
    /// afterwards.
    ///
    /// # Panics
    ///
    /// Panics if `live > self.rows()`.
    pub fn reclaim_front(&mut self, live: usize) {
        assert!(live <= self.rows, "keep {live} of {} rows", self.rows);
        if self.start == 0 {
            return;
        }
        self.data
            .copy_within(self.start..self.start + live * self.cols, 0);
        self.rows += self.start / self.cols;
        self.start = 0;
    }

    /// Borrows row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(
            r < self.rows,
            "row {r} out of bounds for {} rows",
            self.rows
        );
        &self.window()[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(
            r < self.rows,
            "row {r} out of bounds for {} rows",
            self.rows
        );
        let cols = self.cols;
        &mut self.window_mut()[r * cols..(r + 1) * cols]
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(
            c < self.cols,
            "col {c} out of bounds for {} cols",
            self.cols
        );
        self.row(r)[c]
    }

    /// Sets element `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(
            c < self.cols,
            "col {c} out of bounds for {} cols",
            self.cols
        );
        let cols = self.cols;
        self.window_mut()[r * cols + c] = v;
    }

    /// Flat row-major view of the whole matrix.
    pub fn as_slice(&self) -> &[f32] {
        self.window()
    }

    /// Mutable flat row-major view.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        self.window_mut()
    }

    /// Borrows rows `[start, start + len)` as a sub-matrix view (flat slice
    /// plus shape), the unit of work of the column-based algorithm.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the matrix.
    pub fn rows_slice(&self, start: usize, len: usize) -> &[f32] {
        assert!(
            start + len <= self.rows,
            "row range {start}..{} out of bounds for {} rows",
            start + len,
            self.rows
        );
        &self.window()[start * self.cols..(start + len) * self.cols]
    }

    /// Iterator over row-chunks of at most `chunk_rows` rows, in order.
    ///
    /// The final chunk may be shorter. This is the dataflow unit of the
    /// paper's column-based algorithm (Fig 5(b)).
    ///
    /// # Panics
    ///
    /// Panics if `chunk_rows == 0`.
    pub fn chunk_rows(&self, chunk_rows: usize) -> ChunkRows<'_> {
        assert!(chunk_rows > 0, "chunk_rows must be positive");
        ChunkRows {
            matrix: self,
            chunk_rows,
            next_row: 0,
        }
    }

    /// Returns the transpose as a new matrix.
    pub fn transposed(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self.get(c, r))
    }

    /// Frobenius norm (root of sum of squares), useful for training
    /// diagnostics and gradient-check tests.
    pub fn frobenius_norm(&self) -> f32 {
        self.window().iter().map(|&x| x * x).sum::<f32>().sqrt()
    }
}

/// Two matrices are equal when their visible windows are: same shape, same
/// elements, wherever each window sits in its allocation.
impl PartialEq for Matrix {
    fn eq(&self, other: &Self) -> bool {
        self.shape() == other.shape() && self.window() == other.window()
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows <= 8 && self.cols <= 8 {
            for r in 0..self.rows {
                write!(f, "\n  {:?}", self.row(r))?;
            }
        }
        Ok(())
    }
}

/// Iterator produced by [`Matrix::chunk_rows`]; yields
/// `(start_row, rows_in_chunk, flat_chunk_data)`.
#[derive(Debug)]
pub struct ChunkRows<'a> {
    matrix: &'a Matrix,
    chunk_rows: usize,
    next_row: usize,
}

impl<'a> Iterator for ChunkRows<'a> {
    type Item = (usize, usize, &'a [f32]);

    fn next(&mut self) -> Option<Self::Item> {
        if self.next_row >= self.matrix.rows {
            return None;
        }
        let start = self.next_row;
        let len = self.chunk_rows.min(self.matrix.rows - start);
        self.next_row += len;
        Some((start, len, self.matrix.rows_slice(start, len)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_and_accessors() {
        let m = Matrix::from_fn(2, 3, |r, c| (10 * r + c) as f32);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.get(1, 2), 12.0);
        assert_eq!(m.row(0), &[0.0, 1.0, 2.0]);
        assert_eq!(m.len(), 6);
        assert_eq!(m.size_bytes(), 24);
    }

    #[test]
    fn from_flat_validates_length() {
        assert!(Matrix::from_flat(2, 2, &[1.0, 2.0, 3.0]).is_err());
        let m = Matrix::from_flat(2, 2, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(m.get(1, 0), 3.0);
    }

    #[test]
    fn from_rows_validates_raggedness() {
        let err = Matrix::from_rows(&[&[1.0, 2.0][..], &[3.0][..]]);
        assert!(err.is_err());
        let empty = Matrix::from_rows(&[]);
        assert!(empty.is_err());
    }

    #[test]
    fn set_and_row_mut() {
        let mut m = Matrix::zeros(2, 2);
        m.set(0, 1, 5.0);
        m.row_mut(1).copy_from_slice(&[7.0, 8.0]);
        assert_eq!(m.as_slice(), &[0.0, 5.0, 7.0, 8.0]);
    }

    #[test]
    fn chunk_rows_covers_matrix_exactly_once() {
        let m = Matrix::from_fn(10, 3, |r, _| r as f32);
        let chunks: Vec<_> = m.chunk_rows(4).collect();
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0].0, 0);
        assert_eq!(chunks[0].1, 4);
        assert_eq!(chunks[2].0, 8);
        assert_eq!(chunks[2].1, 2); // tail chunk
        let total_rows: usize = chunks.iter().map(|c| c.1).sum();
        assert_eq!(total_rows, 10);
        // Flat data of chunk 1 starts at row 4.
        assert_eq!(chunks[1].2[0], 4.0);
    }

    #[test]
    #[should_panic(expected = "chunk_rows must be positive")]
    fn chunk_rows_zero_panics() {
        let m = Matrix::zeros(2, 2);
        let _ = m.chunk_rows(0);
    }

    #[test]
    fn transpose_round_trips() {
        let m = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32);
        let t = m.transposed();
        assert_eq!(t.shape(), (4, 3));
        assert_eq!(t.get(2, 1), m.get(1, 2));
        assert_eq!(t.transposed(), m);
    }

    #[test]
    fn frobenius_norm_matches_hand_value() {
        let m = Matrix::from_flat(1, 2, &[3.0, 4.0]).unwrap();
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn dropped_rows_leave_every_view_and_come_back_at_the_tail() {
        let mut m = Matrix::from_fn(5, 3, |r, c| (10 * r + c) as f32);
        m.drop_front_rows(2);
        assert_eq!(m.shape(), (3, 3));
        assert_eq!(m.row(0), &[20.0, 21.0, 22.0]);
        assert_eq!(m.rows_slice(1, 2), &[30.0, 31.0, 32.0, 40.0, 41.0, 42.0]);
        assert_eq!(m.as_slice().len(), 9);
        assert_eq!(m.chunk_rows(2).map(|c| c.1).sum::<usize>(), 3);
        m.set(0, 1, -1.0);
        m.row_mut(2)[0] = -2.0;
        assert_eq!(m.as_mut_slice()[1], -1.0);
        assert_eq!(m.get(2, 0), -2.0);

        // Equality and Debug see the window, wherever it sits.
        let fresh = Matrix::from_flat(3, 3, m.as_slice()).unwrap();
        assert_eq!(m, fresh);
        assert_eq!(format!("{m:?}"), format!("{fresh:?}"));
        assert_eq!(m.frobenius_norm(), fresh.frobenius_norm());
        assert_eq!(m.clone(), fresh);

        // Reclaiming keeps the live rows and regains the dropped ones.
        m.reclaim_front(3);
        assert_eq!(m.shape(), (5, 3));
        assert_eq!(m.rows_slice(0, 3), fresh.as_slice());
        m.drop_front_rows(5);
        assert!(m.is_empty());
        m.reclaim_front(0);
        assert_eq!(m.rows(), 5);
    }

    #[test]
    fn kernels_accept_a_window_off_the_cache_line() {
        // cols * 4 = 12 bytes, so after one dropped row the window starts
        // 12 bytes into a 64-byte-aligned allocation.
        let rows = 37;
        let mut m = Matrix::from_fn(rows + 1, 3, |r, c| ((r * 3 + c) as f32 * 0.37).sin());
        m.drop_front_rows(1);
        assert_ne!(m.as_slice().as_ptr() as usize % 64, 0);
        let fresh = Matrix::from_flat(rows, 3, m.as_slice()).unwrap();
        assert_eq!(fresh.as_slice().as_ptr() as usize % 64, 0);

        let u = [0.3f32, -0.7, 0.2];
        for b in [crate::simd::Backend::Scalar, crate::simd::backend()] {
            let (mut got, mut want) = (vec![0.0f32; rows], vec![0.0f32; rows]);
            crate::simd::gemv_chunk_with(b, m.as_slice(), rows, &u, &mut got);
            crate::simd::gemv_chunk_with(b, fresh.as_slice(), rows, &u, &mut want);
            assert_eq!(got, want);
            let (mut ws_got, mut ws_want) = ([0.0f32; 3], [0.0f32; 3]);
            let got = crate::simd::fused_chunk_lazy_with(
                b,
                m.as_slice(),
                m.as_slice(),
                rows,
                &u,
                None,
                &mut ws_got,
            );
            let want = crate::simd::fused_chunk_lazy_with(
                b,
                fresh.as_slice(),
                fresh.as_slice(),
                rows,
                &u,
                None,
                &mut ws_want,
            );
            assert_eq!((got.0.to_bits(), ws_got), (want.0.to_bits(), ws_want));
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn row_out_of_bounds_panics() {
        let m = Matrix::zeros(1, 1);
        let _ = m.row(1);
    }
}
