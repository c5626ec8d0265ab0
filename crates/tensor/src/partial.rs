//! The segment merge plane: serializable, mergeable softmax partial state.
//!
//! Every execution path in the reproduction — sequential fold, scale-out,
//! batched, multi-hop — reduces memory rows to a *partial*: a
//! lazy `(Σ e^x·m, Σ e^x)` pair or an online `(Σ e^{x−max}·m, Σ e^{x−max},
//! max)` triple, folded in a fixed global chunk order. [`PartialState`]
//! makes that partial a first-class value with a versioned, length-prefixed
//! little-endian wire encoding, so the exact same merge plane that runs
//! in-process today can later run across a socket (the coordinator/worker
//! split of the scale-out roadmap) without changing a single fold.
//!
//! In-process folds call the accumulators' own `merge`; the distributed
//! plane ships each chunk partial through [`PartialState::to_bytes`] /
//! [`PartialState::from_bytes`] and folds the decoded value the same way.
//! Encoding uses [`f32::to_le_bytes`], which is bit-exact (NaN payloads
//! included), so the roundtrip is the identity on the accumulator state —
//! which is why a distributed answer is bitwise the local one.
//!
//! ## Wire format (version 2, all fields little-endian)
//!
//! | offset    | size    | field                                      |
//! |-----------|---------|--------------------------------------------|
//! | 0         | 2       | magic `0x5350` (`"PS"`)                    |
//! | 2         | 1       | version (`2`)                              |
//! | 3         | 1       | mode (`0` = lazy, `1` = online)            |
//! | 4         | 4       | payload length in bytes (`u32`)            |
//! | 8         | 4       | `dim` (`u32`)                              |
//! | 12        | 4       | `denom` (`f32`)                            |
//! | 16        | 4       | `max_logit` (`f32`, online mode only)      |
//! | 16 or 20  | 4 × dim | `weighted_sum[0..dim]` (`f32` each)        |
//! | end − 4   | 4       | CRC-32 over all preceding bytes            |
//!
//! The payload length counts every byte after the fixed 8-byte header —
//! trailing checksum included — so a stream reader can frame a partial
//! from the header alone. Version 2 appended the [`crate::crc`] checksum
//! (computed over header *and* payload body) so a partial that crossed a
//! real wire is rejected with [`PartialDecodeError::Corrupt`] when any
//! bit flipped in flight; version-1 buffers are refused with
//! [`PartialDecodeError::UnsupportedVersion`].

use crate::crc::crc32;
use crate::softmax::{LazyAccumulator, OnlineSoftmax};
use crate::ShapeError;
use std::error::Error;
use std::fmt;

/// Wire magic tag, `"PS"` in little-endian order.
pub const MAGIC: u16 = 0x5350;

/// Current wire-format version (2 = version 1 plus a trailing CRC-32).
pub const VERSION: u8 = 2;

/// Trailing checksum length in bytes.
pub const CRC_LEN: usize = 4;

/// Fixed header length in bytes (magic + version + mode + payload length).
pub const HEADER_LEN: usize = 8;

const MODE_LAZY: u8 = 0;
const MODE_ONLINE: u8 = 1;

/// A first-class, serializable softmax partial: the unit every execution
/// path produces per chunk/segment and folds through one merge plane.
///
/// ```
/// use mnn_tensor::partial::PartialState;
/// use mnn_tensor::softmax::LazyAccumulator;
///
/// let mut acc = LazyAccumulator::new(2);
/// acc.add_weighted(1.5, &[1.0, -2.0]);
/// let state = PartialState::Lazy(acc);
/// let bytes = state.to_bytes();
/// let back = PartialState::from_bytes(&bytes).unwrap();
/// assert_eq!(state, back); // bit-exact roundtrip
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum PartialState {
    /// A lazy-softmax partial: `(Σ e^x·m, Σ e^x)`.
    Lazy(LazyAccumulator),
    /// An online-softmax partial: `(Σ e^{x−max}·m, Σ e^{x−max}, max)`.
    Online(OnlineSoftmax),
}

impl PartialState {
    /// Output dimension (`ed`) of the wrapped accumulator.
    pub fn dim(&self) -> usize {
        match self {
            PartialState::Lazy(acc) => acc.dim(),
            PartialState::Online(acc) => acc.raw_parts().0.len(),
        }
    }

    /// Denominator of the wrapped accumulator (`Σ e^x` for lazy, relative
    /// `Σ e^{x−max}` for online).
    pub fn denom(&self) -> f32 {
        match self {
            PartialState::Lazy(acc) => acc.denom(),
            PartialState::Online(acc) => acc.denom(),
        }
    }

    /// `true` for the lazy variant.
    pub fn is_lazy(&self) -> bool {
        matches!(self, PartialState::Lazy(_))
    }

    /// Merges `other` into `self` — the single merge both softmax modes go
    /// through. Lazy partials add component-wise; online partials rescale
    /// both sides to the larger running maximum.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the modes or dimensions disagree (partials
    /// from different passes must never be mixed).
    pub fn merge(&mut self, other: &PartialState) -> Result<(), ShapeError> {
        if self.dim() != other.dim() {
            return Err(ShapeError::new(
                "PartialState::merge",
                format!("dim {}", self.dim()),
                format!("dim {}", other.dim()),
            ));
        }
        match (self, other) {
            (PartialState::Lazy(a), PartialState::Lazy(b)) => {
                a.merge(b);
                Ok(())
            }
            (PartialState::Online(a), PartialState::Online(b)) => {
                a.merge(b);
                Ok(())
            }
            (PartialState::Lazy(_), PartialState::Online(_)) => Err(ShapeError::new(
                "PartialState::merge",
                "lazy partial",
                "online partial",
            )),
            (PartialState::Online(_), PartialState::Lazy(_)) => Err(ShapeError::new(
                "PartialState::merge",
                "online partial",
                "lazy partial",
            )),
        }
    }

    /// Total encoded size in bytes (header + payload).
    pub fn encoded_len(&self) -> usize {
        let fixed = match self {
            PartialState::Lazy(_) => 8,    // dim + denom
            PartialState::Online(_) => 12, // dim + denom + max_logit
        };
        HEADER_LEN + fixed + self.dim() * 4 + CRC_LEN
    }

    /// Appends the version-2 wire encoding of this partial to `buf`
    /// (see the module-level format table).
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.reserve(self.encoded_len());
        let start = buf.len();
        let (mode, ws, denom, max_logit) = match self {
            PartialState::Lazy(acc) => {
                let (ws, denom) = acc.raw_parts();
                (MODE_LAZY, ws, denom, None)
            }
            PartialState::Online(acc) => {
                let (ws, denom, max) = acc.raw_parts();
                (MODE_ONLINE, ws, denom, Some(max))
            }
        };
        let payload = 4 + 4 + if max_logit.is_some() { 4 } else { 0 } + ws.len() * 4 + CRC_LEN;
        buf.extend_from_slice(&MAGIC.to_le_bytes());
        buf.push(VERSION);
        buf.push(mode);
        buf.extend_from_slice(&(payload as u32).to_le_bytes());
        buf.extend_from_slice(&(ws.len() as u32).to_le_bytes());
        buf.extend_from_slice(&denom.to_le_bytes());
        if let Some(max) = max_logit {
            buf.extend_from_slice(&max.to_le_bytes());
        }
        for &v in ws {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        let sum = crc32(&buf[start..]);
        buf.extend_from_slice(&sum.to_le_bytes());
    }

    /// The version-2 wire encoding as a fresh buffer
    /// ([`PartialState::encode_into`]).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut buf);
        buf
    }

    /// Decodes a partial from its wire encoding.
    ///
    /// The buffer must contain exactly one encoded partial (header +
    /// declared payload, nothing more).
    ///
    /// # Errors
    ///
    /// Returns a typed [`PartialDecodeError`] — never panics — on
    /// truncated buffers, foreign magic, unknown versions or modes, and
    /// payload lengths that disagree with the buffer or the declared
    /// dimension.
    pub fn from_bytes(bytes: &[u8]) -> Result<PartialState, PartialDecodeError> {
        if bytes.len() < HEADER_LEN {
            return Err(PartialDecodeError::Truncated {
                needed: HEADER_LEN,
                got: bytes.len(),
            });
        }
        let magic = u16::from_le_bytes([bytes[0], bytes[1]]);
        if magic != MAGIC {
            return Err(PartialDecodeError::BadMagic(magic));
        }
        if bytes[2] != VERSION {
            return Err(PartialDecodeError::UnsupportedVersion(bytes[2]));
        }
        let mode = bytes[3];
        if mode != MODE_LAZY && mode != MODE_ONLINE {
            return Err(PartialDecodeError::BadMode(mode));
        }
        let payload = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]) as usize;
        let declared = HEADER_LEN + payload;
        if bytes.len() < declared {
            return Err(PartialDecodeError::Truncated {
                needed: declared,
                got: bytes.len(),
            });
        }
        if bytes.len() > declared {
            return Err(PartialDecodeError::LengthMismatch {
                declared,
                actual: bytes.len(),
            });
        }
        let fixed = if mode == MODE_ONLINE { 12 } else { 8 };
        if payload < fixed + CRC_LEN {
            return Err(PartialDecodeError::Truncated {
                needed: HEADER_LEN + fixed + CRC_LEN,
                got: bytes.len(),
            });
        }
        let dim = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]) as usize;
        let expected = fixed + dim.saturating_mul(4).saturating_add(CRC_LEN);
        if payload != expected {
            return Err(PartialDecodeError::LengthMismatch {
                declared,
                actual: HEADER_LEN + expected,
            });
        }
        let body = declared - CRC_LEN;
        let stored = u32::from_le_bytes([
            bytes[body],
            bytes[body + 1],
            bytes[body + 2],
            bytes[body + 3],
        ]);
        let computed = crc32(&bytes[..body]);
        if stored != computed {
            return Err(PartialDecodeError::Corrupt {
                expected: computed,
                got: stored,
            });
        }
        let read_f32 = |off: usize| {
            f32::from_le_bytes([bytes[off], bytes[off + 1], bytes[off + 2], bytes[off + 3]])
        };
        let denom = read_f32(12);
        let ws_off = HEADER_LEN + fixed;
        let mut weighted_sum = Vec::with_capacity(dim);
        for i in 0..dim {
            weighted_sum.push(read_f32(ws_off + i * 4));
        }
        Ok(if mode == MODE_LAZY {
            PartialState::Lazy(LazyAccumulator::from_raw_parts(weighted_sum, denom))
        } else {
            PartialState::Online(OnlineSoftmax::from_raw_parts(
                weighted_sum,
                denom,
                read_f32(16),
            ))
        })
    }
}

/// Typed decode failure for [`PartialState::from_bytes`]; corrupted or
/// truncated buffers map here instead of panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartialDecodeError {
    /// The buffer ends before the header or declared payload does.
    Truncated {
        /// Bytes required to make progress.
        needed: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The first two bytes are not the [`MAGIC`] tag.
    BadMagic(u16),
    /// The version byte names a format this build does not speak.
    UnsupportedVersion(u8),
    /// The mode byte is neither lazy (`0`) nor online (`1`).
    BadMode(u8),
    /// The declared length disagrees with the buffer or the encoded `dim`.
    LengthMismatch {
        /// Total length the header/dim imply.
        declared: usize,
        /// Length actually observed.
        actual: usize,
    },
    /// The trailing CRC-32 does not match the header + payload bytes —
    /// something flipped in flight. Checked last, so a `Corrupt` error
    /// means the frame was structurally plausible but bit-damaged.
    Corrupt {
        /// Checksum recomputed over the received bytes.
        expected: u32,
        /// Checksum the frame carried.
        got: u32,
    },
}

impl fmt::Display for PartialDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartialDecodeError::Truncated { needed, got } => {
                write!(f, "truncated partial: need {needed} bytes, got {got}")
            }
            PartialDecodeError::BadMagic(m) => {
                write!(f, "bad partial magic {m:#06x} (expected {MAGIC:#06x})")
            }
            PartialDecodeError::UnsupportedVersion(v) => {
                write!(f, "unsupported partial version {v} (expected {VERSION})")
            }
            PartialDecodeError::BadMode(m) => {
                write!(f, "bad partial mode {m} (expected 0=lazy or 1=online)")
            }
            PartialDecodeError::LengthMismatch { declared, actual } => {
                write!(
                    f,
                    "partial length mismatch: declared {declared} bytes, observed {actual}"
                )
            }
            PartialDecodeError::Corrupt { expected, got } => {
                write!(
                    f,
                    "corrupt partial: crc32 {got:#010x} on the wire, {expected:#010x} recomputed"
                )
            }
        }
    }
}

impl Error for PartialDecodeError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    fn lazy_fixture(dim: usize, seed: f32) -> LazyAccumulator {
        let mut acc = LazyAccumulator::new(dim);
        for i in 0..3 {
            let row: Vec<f32> = (0..dim)
                .map(|j| ((i * dim + j) as f32 * seed).sin())
                .collect();
            acc.add_weighted((i as f32 * 0.3 + seed).exp(), &row);
        }
        acc
    }

    fn online_fixture(dim: usize, seed: f32) -> OnlineSoftmax {
        let mut acc = OnlineSoftmax::new(dim);
        for i in 0..3 {
            let row: Vec<f32> = (0..dim)
                .map(|j| ((i * dim + j) as f32 * seed).cos())
                .collect();
            acc.add(i as f32 * 7.0 - seed, &row);
        }
        acc
    }

    fn assert_bitwise_eq(a: &PartialState, b: &PartialState) {
        match (a, b) {
            (PartialState::Lazy(x), PartialState::Lazy(y)) => {
                let (wx, dx) = x.raw_parts();
                let (wy, dy) = y.raw_parts();
                assert_eq!(bits(wx), bits(wy));
                assert_eq!(dx.to_bits(), dy.to_bits());
            }
            (PartialState::Online(x), PartialState::Online(y)) => {
                let (wx, dx, mx) = x.raw_parts();
                let (wy, dy, my) = y.raw_parts();
                assert_eq!(bits(wx), bits(wy));
                assert_eq!(dx.to_bits(), dy.to_bits());
                assert_eq!(mx.to_bits(), my.to_bits());
            }
            _ => panic!("mode mismatch"),
        }
    }

    #[test]
    fn roundtrip_is_bitwise_identity_on_awkward_shapes() {
        for dim in [0usize, 1, 2, 7, 33, 129] {
            let lazy = PartialState::Lazy(lazy_fixture(dim, 0.37));
            assert_bitwise_eq(&lazy, &PartialState::from_bytes(&lazy.to_bytes()).unwrap());

            let online = PartialState::Online(online_fixture(dim, 0.91));
            assert_bitwise_eq(
                &online,
                &PartialState::from_bytes(&online.to_bytes()).unwrap(),
            );
        }
    }

    #[test]
    fn roundtrip_preserves_empty_and_nan_poisoned_partials() {
        // Freshly-constructed (empty) partials: denom 0, max −inf.
        let empty_lazy = PartialState::Lazy(LazyAccumulator::new(4));
        assert_bitwise_eq(
            &empty_lazy,
            &PartialState::from_bytes(&empty_lazy.to_bytes()).unwrap(),
        );
        let empty_online = PartialState::Online(OnlineSoftmax::new(4));
        assert_bitwise_eq(
            &empty_online,
            &PartialState::from_bytes(&empty_online.to_bytes()).unwrap(),
        );

        // NaN-poisoned partials (a faulted chunk): NaN payload bits survive.
        let poisoned = PartialState::Lazy(LazyAccumulator::from_raw_parts(
            vec![f32::NAN, f32::from_bits(0x7fc0_dead), f32::NEG_INFINITY],
            f32::NAN,
        ));
        assert_bitwise_eq(
            &poisoned,
            &PartialState::from_bytes(&poisoned.to_bytes()).unwrap(),
        );
        let poisoned_online = PartialState::Online(OnlineSoftmax::from_raw_parts(
            vec![f32::INFINITY, f32::NAN],
            f32::INFINITY,
            f32::NAN,
        ));
        assert_bitwise_eq(
            &poisoned_online,
            &PartialState::from_bytes(&poisoned_online.to_bytes()).unwrap(),
        );
    }

    #[test]
    fn merge_of_a_decoded_partial_is_bitwise_the_in_memory_merge() {
        fn via_wire(mut total: PartialState, part: &PartialState) -> PartialState {
            let decoded = PartialState::from_bytes(&part.to_bytes()).unwrap();
            total.merge(&decoded).unwrap();
            total
        }
        for dim in [1usize, 5, 16] {
            // Lazy.
            let (a, b) = (lazy_fixture(dim, 0.21), lazy_fixture(dim, 0.53));
            let mut in_memory = a.clone();
            in_memory.merge(&b);
            assert_bitwise_eq(
                &PartialState::Lazy(in_memory),
                &via_wire(PartialState::Lazy(a), &PartialState::Lazy(b)),
            );

            // Online (exercises the rescale chain on decoded state).
            let (a, b) = (online_fixture(dim, 0.11), online_fixture(dim, 0.77));
            let mut in_memory = a.clone();
            in_memory.merge(&b);
            assert_bitwise_eq(
                &PartialState::Online(in_memory),
                &via_wire(PartialState::Online(a), &PartialState::Online(b)),
            );
        }
    }

    #[test]
    fn truncated_buffers_return_typed_errors_never_panic() {
        let full = PartialState::Online(online_fixture(9, 0.3)).to_bytes();
        for len in 0..full.len() {
            match PartialState::from_bytes(&full[..len]) {
                Err(PartialDecodeError::Truncated { needed, got }) => {
                    assert_eq!(got, len);
                    assert!(needed > len);
                }
                other => panic!("prefix of {len} bytes: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn corrupted_headers_return_typed_errors() {
        let good = PartialState::Lazy(lazy_fixture(3, 0.8)).to_bytes();

        let mut bad_magic = good.clone();
        bad_magic[0] = 0xff;
        assert!(matches!(
            PartialState::from_bytes(&bad_magic),
            Err(PartialDecodeError::BadMagic(_))
        ));

        let mut bad_version = good.clone();
        bad_version[2] = 9;
        assert_eq!(
            PartialState::from_bytes(&bad_version),
            Err(PartialDecodeError::UnsupportedVersion(9))
        );

        let mut bad_mode = good.clone();
        bad_mode[3] = 7;
        assert_eq!(
            PartialState::from_bytes(&bad_mode),
            Err(PartialDecodeError::BadMode(7))
        );

        // Trailing garbage after the declared payload.
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(matches!(
            PartialState::from_bytes(&trailing),
            Err(PartialDecodeError::LengthMismatch { .. })
        ));

        // A dim that disagrees with the declared payload length.
        let mut bad_dim = good.clone();
        bad_dim[8] = 200;
        assert!(matches!(
            PartialState::from_bytes(&bad_dim),
            Err(PartialDecodeError::LengthMismatch { .. })
        ));

        // A huge declared dim must not allocate or panic.
        let mut huge_dim = good;
        huge_dim[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            PartialState::from_bytes(&huge_dim),
            Err(PartialDecodeError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn flipped_payload_bits_are_rejected_as_corrupt() {
        let good = PartialState::Online(online_fixture(5, 0.6)).to_bytes();
        // Non-structural bytes: denom, max_logit, weighted_sum, and the
        // CRC itself (offsets 12..end). Any single-bit flip there must
        // surface as Corrupt — never decode, never panic.
        for byte in 12..good.len() {
            for bit in 0..8 {
                let mut bad = good.clone();
                bad[byte] ^= 1 << bit;
                match PartialState::from_bytes(&bad) {
                    Err(PartialDecodeError::Corrupt { expected, got }) => {
                        assert_ne!(expected, got);
                    }
                    other => panic!("flip {byte}:{bit}: expected Corrupt, got {other:?}"),
                }
            }
        }
        // The pristine buffer still decodes.
        assert!(PartialState::from_bytes(&good).is_ok());
    }

    #[test]
    fn version_1_buffers_are_refused() {
        // A version-2 reader must not guess at version-1 frames (they have
        // no checksum to verify).
        let mut v1 = PartialState::Lazy(lazy_fixture(3, 0.5)).to_bytes();
        v1[2] = 1;
        assert_eq!(
            PartialState::from_bytes(&v1),
            Err(PartialDecodeError::UnsupportedVersion(1))
        );
    }

    #[test]
    fn mode_and_dim_mismatches_are_typed_merge_errors() {
        let mut lazy = PartialState::Lazy(lazy_fixture(3, 0.2));
        let online = PartialState::Online(online_fixture(3, 0.2));
        assert!(lazy.merge(&online).is_err());

        let mut small = PartialState::Lazy(lazy_fixture(2, 0.2));
        let big = PartialState::Lazy(lazy_fixture(5, 0.2));
        assert!(small.merge(&big).is_err());

        // Matching pairs merge fine through the unified entry point.
        let mut ok = PartialState::Online(online_fixture(3, 0.4));
        assert!(ok.merge(&online).is_ok());
        assert!(ok.denom() > 0.0);
    }

    #[test]
    fn decode_errors_render_useful_messages() {
        let msgs = [
            PartialDecodeError::Truncated { needed: 8, got: 2 }.to_string(),
            PartialDecodeError::BadMagic(0xbeef).to_string(),
            PartialDecodeError::UnsupportedVersion(3).to_string(),
            PartialDecodeError::BadMode(9).to_string(),
            PartialDecodeError::LengthMismatch {
                declared: 10,
                actual: 12,
            }
            .to_string(),
            PartialDecodeError::Corrupt {
                expected: 0xdead_beef,
                got: 0x0bad_f00d,
            }
            .to_string(),
        ];
        assert!(msgs[0].contains("truncated"));
        assert!(msgs[1].contains("0xbeef"));
        assert!(msgs[2].contains("version 3"));
        assert!(msgs[3].contains("mode 9"));
        assert!(msgs[4].contains("declared 10"));
        assert!(msgs[5].contains("0xdeadbeef"));
        assert!(msgs[5].contains("0x0badf00d"));
    }

    #[test]
    fn header_constants_appear_in_encoding() {
        let state = PartialState::Online(OnlineSoftmax::new(2));
        let bytes = state.to_bytes();
        assert_eq!(bytes.len(), state.encoded_len());
        assert_eq!(&bytes[..2], &MAGIC.to_le_bytes());
        assert_eq!(bytes[2], VERSION);
        assert_eq!(bytes[3], 1); // online mode tag
        let payload = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]) as usize;
        assert_eq!(HEADER_LEN + payload, bytes.len());
    }
}
