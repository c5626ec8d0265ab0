//! f32 linear-algebra substrate for the MnnFast reproduction.
//!
//! The MnnFast paper builds on OpenBLAS/cuBLAS; this crate is the
//! corresponding from-scratch substrate. It provides:
//!
//! - [`AlignedBuf`]: cache-line-aligned `f32` storage so that streamed chunk
//!   loads map cleanly onto cache lines in the memory-hierarchy simulator,
//! - [`Matrix`]: a dense row-major matrix with cheap row/chunk views,
//! - [`kernels`]: dot / axpy / scale / GEMV / blocked GEMM, dispatched at
//!   runtime to the active [`simd`] backend,
//! - [`simd`]: the explicit kernel backend — AVX2 + FMA intrinsics selected
//!   via runtime CPU detection, a portable scalar reference implementation,
//!   a polynomial fast-exp with a tested error bound, and the fused
//!   chunk kernel for the lazy-softmax hot path,
//! - [`softmax`]: the softmax family used by memory networks, including the
//!   *lazy* (division-last) and *online* (running-max) formulations that the
//!   column-based algorithm of the paper relies on,
//! - [`reduce`]: sums, maxima and argmax reductions,
//! - [`partial`]: the segment merge plane — a serializable [`PartialState`]
//!   over the lazy/online softmax partials with a versioned little-endian
//!   wire encoding, through which every chunk/segment merge is folded,
//! - [`crc`]: the CRC-32 (IEEE) checksum shared by the partial wire format
//!   and the coordinator/worker RPC frames,
//! - [`quant`]: the int8 quantized memory plane — [`QuantMatrix`] mirrors
//!   of the story memory (symmetric per-row scales) consumed by the
//!   bitwise-reproducible int8 kernels in [`simd`],
//! - [`team`]: the parked worker [`Team`] a split pass runs its lanes on
//!   (the engine's chunk and question splits and the answer layer's `W`
//!   split) — started on first need, reused across passes, joined on drop.
//!
//! # Example
//!
//! ```
//! use mnn_tensor::{Matrix, kernels, softmax};
//!
//! // A tiny "input memory" of 4 sentence embeddings of dimension 3.
//! let m_in = Matrix::from_rows(&[
//!     &[1.0, 0.0, 0.0][..],
//!     &[0.0, 1.0, 0.0][..],
//!     &[0.0, 0.0, 1.0][..],
//!     &[0.5, 0.5, 0.0][..],
//! ]).unwrap();
//! let u = [1.0f32, 2.0, 3.0];
//! let mut logits = vec![0.0f32; 4];
//! kernels::gemv(&m_in, &u, &mut logits).unwrap();
//! softmax::softmax_in_place(&mut logits);
//! let total: f32 = logits.iter().sum();
//! assert!((total - 1.0).abs() < 1e-6);
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod buffer;
mod error;
mod matrix;

pub mod crc;
#[cfg(feature = "fault-inject")]
pub mod fault;
pub mod kernels;
pub mod partial;
pub mod quant;
pub mod reduce;
pub mod simd;
pub mod softmax;
pub mod team;

pub use buffer::AlignedBuf;
pub use error::{read_var, EnvVarError, ShapeError};
pub use matrix::{ChunkRows, Matrix};
pub use partial::{PartialDecodeError, PartialState};
pub use quant::QuantMatrix;
pub use team::Team;

/// Validates every `MNNFAST_*` environment variable this crate consumes
/// (`MNNFAST_SIMD` and — under the `fault-inject` feature —
/// `MNNFAST_FAULT`), returning the first typed error.
///
/// The lazy in-library readers keep their lenient fall-back-to-default
/// behaviour so kernels always resolve; the serving binaries (`mnnfast
/// serve`, `mnn-serve`) call this at startup so a typo'd knob fails loudly
/// instead of silently running with the default. Unset and *empty*
/// variables are valid everywhere and mean "use the default".
pub fn validate_env() -> Result<(), EnvVarError> {
    simd::backend_from_env()?;
    #[cfg(feature = "fault-inject")]
    fault::check_env()?;
    Ok(())
}

/// Absolute tolerance used by the test suites when comparing two floating
/// point computations that are mathematically identical but reassociated
/// (e.g. baseline softmax vs. lazy softmax).
pub const TEST_EPS: f32 = 1e-4;

/// Returns `true` if `a` and `b` are equal within `tol` absolutely or
/// relatively (whichever is looser), the comparison used throughout the
/// reproduction's tests.
///
/// ```
/// assert!(mnn_tensor::approx_eq(1.0, 1.0 + 1e-7, 1e-5));
/// assert!(!mnn_tensor::approx_eq(1.0, 1.1, 1e-5));
/// ```
pub fn approx_eq(a: f32, b: f32, tol: f32) -> bool {
    let diff = (a - b).abs();
    diff <= tol || diff <= tol * a.abs().max(b.abs())
}

/// Asserts element-wise [`approx_eq`] over two slices.
///
/// # Panics
///
/// Panics with the index and values of the first mismatch, or if the slices
/// have different lengths.
pub fn assert_slice_approx_eq(a: &[f32], b: &[f32], tol: f32) {
    assert_eq!(
        a.len(),
        b.len(),
        "length mismatch: {} vs {}",
        a.len(),
        b.len()
    );
    for (i, (&x, &y)) in a.iter().zip(b.iter()).enumerate() {
        assert!(
            approx_eq(x, y, tol),
            "slices differ at index {i}: {x} vs {y} (tol {tol})"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_absolute_and_relative() {
        assert!(approx_eq(0.0, 0.0, 1e-6));
        assert!(approx_eq(1e6, 1e6 * (1.0 + 1e-7), 1e-5));
        assert!(!approx_eq(1.0, 2.0, 1e-3));
    }

    #[test]
    #[should_panic(expected = "slices differ")]
    fn assert_slice_approx_eq_panics_on_mismatch() {
        assert_slice_approx_eq(&[1.0, 2.0], &[1.0, 2.5], 1e-6);
    }
}
