//! The shared frame envelope for every MnnFast wire protocol.
//!
//! Both network planes — the coordinator↔worker RPC (`mnn-dist`) and the
//! multi-tenant serving front-end (`mnn-net`) — speak length-prefixed,
//! CRC-guarded binary frames with the same envelope, little-endian
//! throughout:
//!
//! | bytes | field |
//! |-------|-------|
//! | 0..2  | protocol magic (`u16`, distinguishes the two protocols) |
//! | 2     | protocol version |
//! | 3     | opcode |
//! | 4..8  | payload length `n` as `u32` (counts payload **and** the CRC) |
//! | 8..8+n−4 | opcode-specific payload |
//! | last 4 | CRC-32 (IEEE) over bytes `0..8+n−4` |
//!
//! The trailing CRC covers the header too, so a bit flipped anywhere in
//! the frame — opcode, length, payload — is detected before the payload
//! is interpreted (structural checks still run first so a garbled magic
//! or an unknown version reports its own typed error).
//!
//! This crate owns exactly the envelope: sealing ([`seal_frame`]),
//! opening ([`open_frame`]), blocking stream adapters
//! ([`read_frame_bytes`]/[`write_frame_bytes`]), the non-blocking
//! reassembly probe ([`frame_len`]) used by readiness-loop servers, and
//! the little-endian [`Reader`] payload cursor. Each protocol keeps its
//! own opcode table and payload layouts on top — but because encode and
//! decode of the envelope live here once, the two protocols cannot drift
//! on framing, length discipline, or corruption detection.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

use mnn_tensor::crc::crc32;
use std::io::{Read, Write};

/// Fixed header length (magic + version + opcode + payload length).
pub const HEADER_LEN: usize = 8;
/// Trailing checksum length.
pub const CRC_LEN: usize = 4;
/// Upper bound on the declared payload length; anything larger is treated
/// as a corrupt length field rather than an allocation request.
pub const MAX_PAYLOAD: usize = 1 << 28;

/// The envelope failed to seal or open (transport-level corruption or a
/// protocol mismatch). Protocol crates wrap this in their own error types
/// (`mnn-dist`'s `FrameError`, `mnn-net`'s `NetError`).
#[derive(Debug)]
pub enum WireError {
    /// Fewer bytes than the frame declares.
    Truncated {
        /// Bytes the frame needs to decode.
        needed: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The leading magic is not the protocol's.
    BadMagic(u16),
    /// The frame was produced by an incompatible protocol version.
    UnsupportedVersion(u8),
    /// The trailing CRC-32 disagrees with the frame contents.
    Corrupt {
        /// Checksum recomputed from the received bytes.
        expected: u32,
        /// Checksum stored on the wire.
        got: u32,
    },
    /// The payload does not parse as its opcode's layout.
    Malformed(&'static str),
    /// The underlying stream failed (timeout, reset, EOF mid-frame).
    Io(std::io::Error),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { needed, got } => {
                write!(f, "truncated frame: need {needed} bytes, got {got}")
            }
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:#06x}"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported frame version {v}"),
            WireError::Corrupt { expected, got } => write!(
                f,
                "corrupt frame: crc32 {got:#010x} on the wire, {expected:#010x} recomputed"
            ),
            WireError::Malformed(what) => write!(f, "malformed payload: {what}"),
            WireError::Io(e) => write!(f, "stream: {e}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// Seals one frame: header, the payload written by `payload`, and the
/// trailing CRC-32 over everything before it.
pub fn seal_frame(
    magic: u16,
    version: u8,
    opcode: u8,
    payload: impl FnOnce(&mut Vec<u8>),
) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN + 64);
    buf.extend_from_slice(&magic.to_le_bytes());
    buf.push(version);
    buf.push(opcode);
    buf.extend_from_slice(&0u32.to_le_bytes()); // patched below
    payload(&mut buf);
    let declared = buf.len() - HEADER_LEN + CRC_LEN;
    buf[4..8].copy_from_slice(&(declared as u32).to_le_bytes());
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf
}

/// Validates the header fields of a buffer that holds at least
/// [`HEADER_LEN`] bytes and returns the declared payload length.
fn check_header(header: &[u8], magic: u16, version: u8) -> Result<usize, WireError> {
    let got_magic = u16::from_le_bytes([header[0], header[1]]);
    if got_magic != magic {
        return Err(WireError::BadMagic(got_magic));
    }
    if header[2] != version {
        return Err(WireError::UnsupportedVersion(header[2]));
    }
    let payload = u32::from_le_bytes([header[4], header[5], header[6], header[7]]) as usize;
    if !(CRC_LEN..=MAX_PAYLOAD).contains(&payload) {
        return Err(WireError::Malformed("implausible payload length"));
    }
    Ok(payload)
}

/// Probes an accumulation buffer for one complete frame, without copying:
/// `Ok(Some(n))` when the first `n` bytes of `buf` hold a whole frame
/// (pass `&buf[..n]` to [`open_frame`] and then drain them), `Ok(None)`
/// when more bytes are needed, and a typed error when the header is
/// garbled — readiness-loop servers use the error to reject the
/// connection rather than waiting forever for a length that lies.
///
/// # Errors
///
/// [`WireError::BadMagic`], [`WireError::UnsupportedVersion`], or
/// [`WireError::Malformed`] on a corrupt header.
pub fn frame_len(buf: &[u8], magic: u16, version: u8) -> Result<Option<usize>, WireError> {
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    let payload = check_header(buf, magic, version)?;
    let total = HEADER_LEN + payload;
    Ok((buf.len() >= total).then_some(total))
}

/// Opens one complete frame (header through CRC), returning the opcode
/// and a zero-copy view of the payload (CRC excluded).
///
/// # Errors
///
/// [`WireError::Truncated`] when `bytes` is shorter than the frame it
/// declares, [`WireError::BadMagic`]/[`WireError::UnsupportedVersion`] on
/// a garbled header, [`WireError::Malformed`] on an implausible length,
/// and [`WireError::Corrupt`] when the trailing CRC disagrees.
pub fn open_frame(bytes: &[u8], magic: u16, version: u8) -> Result<(u8, &[u8]), WireError> {
    if bytes.len() < HEADER_LEN {
        return Err(WireError::Truncated {
            needed: HEADER_LEN,
            got: bytes.len(),
        });
    }
    let payload = check_header(bytes, magic, version)?;
    let total = HEADER_LEN + payload;
    if bytes.len() < total {
        return Err(WireError::Truncated {
            needed: total,
            got: bytes.len(),
        });
    }
    let body_end = total - CRC_LEN;
    let stored = u32::from_le_bytes([
        bytes[body_end],
        bytes[body_end + 1],
        bytes[body_end + 2],
        bytes[body_end + 3],
    ]);
    let computed = crc32(&bytes[..body_end]);
    if stored != computed {
        return Err(WireError::Corrupt {
            expected: computed,
            got: stored,
        });
    }
    Ok((bytes[3], &bytes[HEADER_LEN..body_end]))
}

/// Reads exactly one frame's bytes from a blocking stream, honouring
/// whatever read deadline the caller set on it. The returned buffer is a
/// complete frame ready for [`open_frame`].
///
/// # Errors
///
/// I/O errors as [`WireError::Io`]; header corruption as its typed
/// variant (magic and version are validated *before* the length is
/// trusted, so a garbled header cannot trigger a giant allocation).
pub fn read_frame_bytes<R: Read>(r: &mut R, magic: u16, version: u8) -> Result<Vec<u8>, WireError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header).map_err(WireError::Io)?;
    let payload = check_header(&header, magic, version)?;
    let mut buf = vec![0u8; HEADER_LEN + payload];
    buf[..HEADER_LEN].copy_from_slice(&header);
    r.read_exact(&mut buf[HEADER_LEN..])
        .map_err(WireError::Io)?;
    Ok(buf)
}

/// Writes one sealed frame to `w` (single `write_all`, then flush).
///
/// # Errors
///
/// Propagates the stream's I/O error (including write-timeout expiry).
pub fn write_frame_bytes<W: Write>(w: &mut W, frame: &[u8]) -> std::io::Result<()> {
    w.write_all(frame)?;
    w.flush()
}

/// Little-endian payload cursor shared by every protocol's decoder.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a payload slice (as returned by [`open_frame`]).
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// `true` once every payload byte has been consumed — decoders check
    /// this after the last field so trailing garbage is rejected.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Takes the next `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`WireError::Malformed`] when fewer than `n` bytes remain.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() - self.pos < n {
            return Err(WireError::Malformed("payload shorter than declared"));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Takes one byte.
    ///
    /// # Errors
    ///
    /// As [`Reader::bytes`].
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.bytes(1)?[0])
    }

    /// Takes one strict boolean byte (0 or 1; anything else is malformed).
    ///
    /// # Errors
    ///
    /// As [`Reader::bytes`], plus [`WireError::Malformed`] on a non-flag
    /// byte.
    pub fn flag(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Malformed("flag byte is not 0 or 1")),
        }
    }

    /// Takes one little-endian `u32`.
    ///
    /// # Errors
    ///
    /// As [`Reader::bytes`].
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Takes one little-endian `u64`.
    ///
    /// # Errors
    ///
    /// As [`Reader::bytes`].
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.bytes(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Takes one `f32` (bit-exact through `to_le_bytes`/`from_bits`).
    ///
    /// # Errors
    ///
    /// As [`Reader::bytes`].
    pub fn f32(&mut self) -> Result<f32, WireError> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// Takes `n` consecutive `f32`s (length pre-checked in one shot so a
    /// lying count cannot trigger `n` tiny error paths or a huge reserve).
    ///
    /// # Errors
    ///
    /// As [`Reader::bytes`].
    pub fn f32s(&mut self, n: usize) -> Result<Vec<f32>, WireError> {
        if self.buf.len() - self.pos < n.saturating_mul(4) {
            return Err(WireError::Malformed("payload shorter than declared"));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.f32()?);
        }
        Ok(out)
    }

    /// Takes a `u32` length prefix followed by that many consecutive
    /// `u32`s.
    ///
    /// # Errors
    ///
    /// As [`Reader::bytes`].
    pub fn u32s_prefixed(&mut self) -> Result<Vec<u32>, WireError> {
        let n = self.u32()? as usize;
        if self.buf.len() - self.pos < n.saturating_mul(4) {
            return Err(WireError::Malformed("payload shorter than declared"));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.u32()?);
        }
        Ok(out)
    }

    /// Takes a `u32` length prefix followed by that many UTF-8 bytes.
    ///
    /// # Errors
    ///
    /// As [`Reader::bytes`], plus [`WireError::Malformed`] on invalid
    /// UTF-8.
    pub fn string_prefixed(&mut self) -> Result<String, WireError> {
        let n = self.u32()? as usize;
        let bytes = self.bytes(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Malformed("string is not UTF-8"))
    }
}

/// Appends a `u32` length prefix and the string's UTF-8 bytes — the
/// encode-side twin of [`Reader::string_prefixed`].
pub fn put_string(buf: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    buf.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    buf.extend_from_slice(bytes);
}

/// Appends a `u32` length prefix and the values — the encode-side twin of
/// [`Reader::u32s_prefixed`].
pub fn put_u32s(buf: &mut Vec<u8>, xs: &[u32]) {
    buf.extend_from_slice(&(xs.len() as u32).to_le_bytes());
    for x in xs {
        buf.extend_from_slice(&x.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const MAGIC: u16 = 0x4D46;
    const VERSION: u8 = 1;

    fn seal(opcode: u8, payload: &[u8]) -> Vec<u8> {
        seal_frame(MAGIC, VERSION, opcode, |buf| {
            buf.extend_from_slice(payload);
        })
    }

    #[test]
    fn seal_open_roundtrip_zero_copy() {
        let frame = seal(7, &[1, 2, 3, 4, 5]);
        let (opcode, payload) = open_frame(&frame, MAGIC, VERSION).unwrap();
        assert_eq!(opcode, 7);
        assert_eq!(payload, &[1, 2, 3, 4, 5]);
        // The payload view borrows the input buffer: no copy happened.
        assert_eq!(payload.as_ptr(), frame[HEADER_LEN..].as_ptr());
    }

    #[test]
    fn empty_payload_frames_work() {
        let frame = seal(1, &[]);
        assert_eq!(frame.len(), HEADER_LEN + CRC_LEN);
        let (opcode, payload) = open_frame(&frame, MAGIC, VERSION).unwrap();
        assert_eq!(opcode, 1);
        assert!(payload.is_empty());
    }

    #[test]
    fn wrong_magic_and_version_are_typed() {
        let frame = seal(1, &[9]);
        assert!(matches!(
            open_frame(&frame, 0x1111, VERSION),
            Err(WireError::BadMagic(0x4D46))
        ));
        assert!(matches!(
            open_frame(&frame, MAGIC, 2),
            Err(WireError::UnsupportedVersion(1))
        ));
    }

    #[test]
    fn bit_flips_anywhere_are_rejected() {
        let pristine = seal(3, &[10, 20, 30, 40]);
        assert!(open_frame(&pristine, MAGIC, VERSION).is_ok());
        for byte in 0..pristine.len() {
            let mut dented = pristine.clone();
            dented[byte] ^= 0x10;
            assert!(
                open_frame(&dented, MAGIC, VERSION).is_err(),
                "flip at byte {byte} must not open"
            );
        }
    }

    #[test]
    fn truncations_report_truncated() {
        let frame = seal(2, &[1, 2, 3]);
        for cut in 0..frame.len() {
            let err = open_frame(&frame[..cut], MAGIC, VERSION).unwrap_err();
            assert!(
                matches!(err, WireError::Truncated { .. }),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn frame_len_reassembles_partial_buffers() {
        let frame = seal(5, &[7; 33]);
        // Too short for a header: keep reading.
        assert_eq!(
            frame_len(&frame[..HEADER_LEN - 1], MAGIC, VERSION).unwrap(),
            None
        );
        // Header present but body incomplete: keep reading.
        assert_eq!(
            frame_len(&frame[..frame.len() - 1], MAGIC, VERSION).unwrap(),
            None
        );
        // Whole frame (plus trailing bytes of the next one): report its end.
        let mut stream = frame.clone();
        stream.extend_from_slice(&seal(6, &[8; 4]));
        assert_eq!(
            frame_len(&stream, MAGIC, VERSION).unwrap(),
            Some(frame.len())
        );
        // A lying header is a typed error, not an eternal wait.
        let mut garbled = frame.clone();
        garbled[0] ^= 0xFF;
        assert!(matches!(
            frame_len(&garbled, MAGIC, VERSION),
            Err(WireError::BadMagic(_))
        ));
        let mut huge = frame;
        huge[4..8].copy_from_slice(&(u32::MAX).to_le_bytes());
        assert!(matches!(
            frame_len(&huge, MAGIC, VERSION),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn stream_adapters_roundtrip_multiple_frames() {
        let frames = [seal(1, &[]), seal(2, &[1]), seal(3, &[2; 100])];
        let mut wire = Vec::new();
        for f in &frames {
            write_frame_bytes(&mut wire, f).unwrap();
        }
        let mut cursor = &wire[..];
        for f in &frames {
            let got = read_frame_bytes(&mut cursor, MAGIC, VERSION).unwrap();
            assert_eq!(&got, f);
        }
    }

    #[test]
    fn reader_primitives_roundtrip() {
        let mut payload = Vec::new();
        payload.push(0xAB);
        payload.push(1);
        payload.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        payload.extend_from_slice(&(1u64 << 40).to_le_bytes());
        payload.extend_from_slice(&(-0.0f32).to_le_bytes());
        put_string(&mut payload, "héllo");
        put_u32s(&mut payload, &[3, 1, 4, 1, 5]);
        let mut r = Reader::new(&payload);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert!(r.flag().unwrap());
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), 1 << 40);
        assert_eq!(r.f32().unwrap().to_bits(), (-0.0f32).to_bits());
        assert_eq!(r.string_prefixed().unwrap(), "héllo");
        assert_eq!(r.u32s_prefixed().unwrap(), vec![3, 1, 4, 1, 5]);
        assert!(r.is_exhausted());
        assert!(r.u8().is_err());
    }

    #[test]
    fn reader_rejects_bad_flags_lying_lengths_and_bad_utf8() {
        assert!(Reader::new(&[2]).flag().is_err());
        // Length prefix far beyond the remaining bytes.
        let mut lying = Vec::new();
        lying.extend_from_slice(&1_000_000u32.to_le_bytes());
        assert!(Reader::new(&lying).u32s_prefixed().is_err());
        assert!(Reader::new(&lying).string_prefixed().is_err());
        let mut r = Reader::new(&lying);
        assert!(r.f32s(1_000_000).is_err());
        // Invalid UTF-8 under a truthful length.
        let mut bad = Vec::new();
        bad.extend_from_slice(&2u32.to_le_bytes());
        bad.extend_from_slice(&[0xFF, 0xFE]);
        assert!(Reader::new(&bad).string_prefixed().is_err());
    }

    proptest! {
        #[test]
        fn arbitrary_payloads_roundtrip(opcode in any::<u8>(), payload in proptest::collection::vec(any::<u8>(), 0..512)) {
            let frame = seal(opcode, &payload);
            let (got_op, got_payload) = open_frame(&frame, MAGIC, VERSION).unwrap();
            prop_assert_eq!(got_op, opcode);
            prop_assert_eq!(got_payload, &payload[..]);
            prop_assert_eq!(frame_len(&frame, MAGIC, VERSION).unwrap(), Some(frame.len()));
        }

        #[test]
        fn arbitrary_strings_and_u32s_roundtrip(chars in proptest::collection::vec(any::<u32>(), 0..64), xs in proptest::collection::vec(any::<u32>(), 0..64)) {
            // Map raw u32s onto valid scalar values (1–4 byte encodings mixed).
            let s: String = chars
                .iter()
                .map(|&c| char::from_u32(c % 0x11_0000).unwrap_or('\u{1F980}'))
                .collect();
            let mut payload = Vec::new();
            put_string(&mut payload, &s);
            put_u32s(&mut payload, &xs);
            let mut r = Reader::new(&payload);
            prop_assert_eq!(r.string_prefixed().unwrap(), s);
            prop_assert_eq!(r.u32s_prefixed().unwrap(), xs);
            prop_assert!(r.is_exhausted());
        }
    }
}
