//! The coordinator↔worker RPC frame codec.
//!
//! Every message on a worker connection is one length-prefixed,
//! CRC-guarded binary frame, little-endian throughout:
//!
//! | bytes | field |
//! |-------|-------|
//! | 0..2  | magic `0x4D46` ("MF") |
//! | 2     | protocol version (currently 2) |
//! | 3     | opcode |
//! | 4..8  | payload length `n` as `u32` (counts payload **and** the CRC) |
//! | 8..8+n−4 | opcode-specific payload |
//! | last 4 | CRC-32 (IEEE) over bytes `0..8+n−4` |
//!
//! The trailing CRC covers the header too, so a bit flipped anywhere in the
//! frame — opcode, length, payload — is detected before the payload is
//! interpreted (structural checks still run first so a garbled magic or an
//! unknown version reports its own typed error). [`PartialState`] payloads
//! inside [`Frame::ForwardResp`] carry their *own* version-2 wire encoding
//! with its own CRC; the frame CRC is the transport-level guard on top.
//!
//! The codec is pure (`encode`/`decode` on byte buffers); [`write_frame`]
//! and [`read_frame`] adapt it to blocking streams and honour whatever
//! read/write deadline the caller set on the socket.
//!
//! The envelope itself — header layout, length discipline, trailing CRC,
//! the little-endian payload [`mnn_wire::Reader`] — lives in the
//! shared [`mnn_wire`] crate so this protocol and the serving front-end's
//! (`mnn-net`) cannot drift; this module owns only the opcode table and
//! the payload layouts.

use crate::error::FrameError;
use mnn_tensor::PartialState;
use mnn_wire::Reader;
use std::io::{Read, Write};

/// First two bytes of every frame ("MF" little-endian).
pub const MAGIC: u16 = 0x4D46;
/// Protocol version emitted by this build. A frame of any other version
/// is refused whole (a version-1 [`Frame::Forward`] carried one more flag
/// byte, which would shift every later field).
pub const VERSION: u8 = 2;
/// Fixed header length (magic + version + opcode + payload length).
pub const HEADER_LEN: usize = mnn_wire::HEADER_LEN;
/// Trailing checksum length.
pub const CRC_LEN: usize = mnn_wire::CRC_LEN;
/// Upper bound on the declared payload length; anything larger is treated
/// as a corrupt length field rather than an allocation request.
pub const MAX_PAYLOAD: usize = mnn_wire::MAX_PAYLOAD;

/// Worker-side request outcome codes carried by [`Frame::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request was malformed or inconsistent with the worker's state.
    BadRequest,
    /// The engine failed (numeric fault, budget expiry, shape error).
    Engine,
    /// The worker is shutting down and will not serve further requests.
    Shutdown,
}

impl ErrorCode {
    fn to_byte(self) -> u8 {
        match self {
            ErrorCode::BadRequest => 1,
            ErrorCode::Engine => 2,
            ErrorCode::Shutdown => 3,
        }
    }

    fn from_byte(b: u8) -> Result<Self, FrameError> {
        match b {
            1 => Ok(ErrorCode::BadRequest),
            2 => Ok(ErrorCode::Engine),
            3 => Ok(ErrorCode::Shutdown),
            _ => Err(FrameError::Malformed("unknown error code")),
        }
    }
}

/// Engine parameters a [`Frame::Forward`] request pins on the worker so
/// its chunk kernels run bit-identically to the coordinator's reference.
#[derive(Debug, Clone, PartialEq)]
pub struct ForwardSpec {
    /// Shard whose local store the pass runs over.
    pub shard: u32,
    /// Chunk size (must match the placement chunk size).
    pub chunk_size: u32,
    /// Softmax plane: 0 = lazy, 1 = online.
    pub online: bool,
    /// Run over the int8 quantized mirror instead of the f32 rows.
    pub int8: bool,
    /// Raw-weight zero-skip threshold (`None` disables skipping).
    pub skip_raw: Option<f32>,
    /// Compute deadline in milliseconds (0 = unlimited).
    pub deadline_ms: u64,
    /// The query embedding.
    pub u: Vec<f32>,
}

/// Work counters a worker reports back with its partials — the subset of
/// the engine's `InferenceStats` that is meaningful to aggregate across
/// the wire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Rows visited.
    pub rows_total: u64,
    /// Rows skipped by the zero-skip threshold.
    pub rows_skipped: u64,
    /// Floating-point operations executed.
    pub flops: u64,
    /// Memory traffic in bytes.
    pub memory_bytes: u64,
    /// Chunks processed.
    pub chunks: u64,
}

/// One decoded RPC frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Coordinator → worker: open a session. Carries the embedding
    /// dimension, the placement chunk size, and whether shards should
    /// maintain int8 mirrors.
    Hello {
        /// Embedding dimension every pushed row must have.
        ed: u32,
        /// Placement chunk size (rows per global chunk).
        chunk_size: u32,
        /// Maintain int8 quantized mirrors on every shard store.
        quant: bool,
    },
    /// Worker → coordinator: handshake accepted. Reports the worker's
    /// protocol version and total resident rows (non-zero on reconnect).
    HelloAck {
        /// Total rows currently resident across all shard stores.
        rows: u64,
    },
    /// Coordinator → worker: append `n` rows to one shard's store.
    /// `in_rows`/`out_rows` are `n × ed` row-major.
    PushRows {
        /// Target shard.
        shard: u32,
        /// Embedding dimension (redundant guard against misrouted frames).
        ed: u32,
        /// Input-memory rows, flattened.
        in_rows: Vec<f32>,
        /// Output-memory rows, flattened.
        out_rows: Vec<f32>,
    },
    /// Worker → coordinator: push applied; reports the shard's new length.
    PushAck {
        /// Rows now resident on the target shard.
        shard_rows: u64,
    },
    /// Coordinator → worker: drop every shard store.
    Clear,
    /// Worker → coordinator: clear applied.
    ClearAck,
    /// Coordinator → worker: run a forward pass over one shard and stream
    /// back the per-chunk partials.
    Forward(ForwardSpec),
    /// Worker → coordinator: the shard's chunk partials, in the shard's
    /// local (= global, by placement) chunk order, each in the
    /// [`PartialState`] version-2 wire encoding.
    ForwardResp {
        /// Encoded [`PartialState`] per chunk.
        partials: Vec<Vec<u8>>,
        /// Work counters for the pass.
        stats: WireStats,
    },
    /// Coordinator → worker: liveness probe.
    Health,
    /// Worker → coordinator: probe reply with store occupancy.
    HealthAck {
        /// Total rows resident across all shard stores.
        rows: u64,
        /// Number of shard stores.
        shards: u32,
    },
    /// Worker → coordinator: the request failed.
    Error {
        /// Outcome class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl Frame {
    fn opcode(&self) -> u8 {
        match self {
            Frame::Hello { .. } => 1,
            Frame::HelloAck { .. } => 2,
            Frame::PushRows { .. } => 3,
            Frame::PushAck { .. } => 4,
            Frame::Clear => 5,
            Frame::ClearAck => 6,
            Frame::Forward(_) => 7,
            Frame::ForwardResp { .. } => 8,
            Frame::Health => 9,
            Frame::HealthAck { .. } => 10,
            Frame::Error { .. } => 11,
        }
    }

    /// Serializes the frame (header, payload, trailing CRC).
    pub fn encode(&self) -> Vec<u8> {
        mnn_wire::seal_frame(MAGIC, VERSION, self.opcode(), |buf| {
            self.encode_payload(buf)
        })
    }

    fn encode_payload(&self, buf: &mut Vec<u8>) {
        match self {
            Frame::Hello {
                ed,
                chunk_size,
                quant,
            } => {
                buf.extend_from_slice(&ed.to_le_bytes());
                buf.extend_from_slice(&chunk_size.to_le_bytes());
                buf.push(u8::from(*quant));
            }
            Frame::HelloAck { rows } => buf.extend_from_slice(&rows.to_le_bytes()),
            Frame::PushRows {
                shard,
                ed,
                in_rows,
                out_rows,
            } => {
                buf.extend_from_slice(&shard.to_le_bytes());
                buf.extend_from_slice(&ed.to_le_bytes());
                buf.extend_from_slice(&(in_rows.len() as u32).to_le_bytes());
                for x in in_rows {
                    buf.extend_from_slice(&x.to_le_bytes());
                }
                buf.extend_from_slice(&(out_rows.len() as u32).to_le_bytes());
                for x in out_rows {
                    buf.extend_from_slice(&x.to_le_bytes());
                }
            }
            Frame::PushAck { shard_rows } => {
                buf.extend_from_slice(&shard_rows.to_le_bytes());
            }
            Frame::Clear | Frame::ClearAck | Frame::Health => {}
            Frame::Forward(spec) => {
                buf.extend_from_slice(&spec.shard.to_le_bytes());
                buf.extend_from_slice(&spec.chunk_size.to_le_bytes());
                buf.push(u8::from(spec.online));
                buf.push(u8::from(spec.int8));
                match spec.skip_raw {
                    Some(th) => {
                        buf.push(1);
                        buf.extend_from_slice(&th.to_le_bytes());
                    }
                    None => {
                        buf.push(0);
                        buf.extend_from_slice(&0f32.to_le_bytes());
                    }
                }
                buf.extend_from_slice(&spec.deadline_ms.to_le_bytes());
                buf.extend_from_slice(&(spec.u.len() as u32).to_le_bytes());
                for x in &spec.u {
                    buf.extend_from_slice(&x.to_le_bytes());
                }
            }
            Frame::ForwardResp { partials, stats } => {
                buf.extend_from_slice(&(partials.len() as u32).to_le_bytes());
                for p in partials {
                    buf.extend_from_slice(&(p.len() as u32).to_le_bytes());
                    buf.extend_from_slice(p);
                }
                buf.extend_from_slice(&stats.rows_total.to_le_bytes());
                buf.extend_from_slice(&stats.rows_skipped.to_le_bytes());
                buf.extend_from_slice(&stats.flops.to_le_bytes());
                buf.extend_from_slice(&stats.memory_bytes.to_le_bytes());
                buf.extend_from_slice(&stats.chunks.to_le_bytes());
            }
            Frame::HealthAck { rows, shards } => {
                buf.extend_from_slice(&rows.to_le_bytes());
                buf.extend_from_slice(&shards.to_le_bytes());
            }
            Frame::Error { code, message } => {
                buf.push(code.to_byte());
                let bytes = message.as_bytes();
                buf.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
                buf.extend_from_slice(bytes);
            }
        }
    }

    /// Decodes one complete frame from `bytes` (header through CRC).
    ///
    /// # Errors
    ///
    /// [`FrameError::Truncated`] when `bytes` is shorter than the frame it
    /// declares, [`FrameError::BadMagic`]/[`FrameError::UnsupportedVersion`]/
    /// [`FrameError::UnknownOpcode`] on a garbled header,
    /// [`FrameError::Corrupt`] when the trailing CRC disagrees, and
    /// [`FrameError::Malformed`] when the payload doesn't parse.
    pub fn decode(bytes: &[u8]) -> Result<Frame, FrameError> {
        let (opcode, payload) = mnn_wire::open_frame(bytes, MAGIC, VERSION)?;
        let mut r = Reader::new(payload);
        let frame = Self::decode_payload(opcode, &mut r)?;
        if !r.is_exhausted() {
            return Err(FrameError::Malformed("trailing bytes after payload"));
        }
        Ok(frame)
    }

    fn decode_payload(opcode: u8, r: &mut Reader<'_>) -> Result<Frame, FrameError> {
        match opcode {
            1 => Ok(Frame::Hello {
                ed: r.u32()?,
                chunk_size: r.u32()?,
                quant: r.flag()?,
            }),
            2 => Ok(Frame::HelloAck { rows: r.u64()? }),
            3 => {
                let shard = r.u32()?;
                let ed = r.u32()?;
                let n_in = r.u32()? as usize;
                let in_rows = r.f32s(n_in)?;
                let n_out = r.u32()? as usize;
                let out_rows = r.f32s(n_out)?;
                Ok(Frame::PushRows {
                    shard,
                    ed,
                    in_rows,
                    out_rows,
                })
            }
            4 => Ok(Frame::PushAck {
                shard_rows: r.u64()?,
            }),
            5 => Ok(Frame::Clear),
            6 => Ok(Frame::ClearAck),
            7 => {
                let shard = r.u32()?;
                let chunk_size = r.u32()?;
                let online = r.flag()?;
                let int8 = r.flag()?;
                let has_skip = r.flag()?;
                let th = r.f32()?;
                let deadline_ms = r.u64()?;
                let n = r.u32()? as usize;
                let u = r.f32s(n)?;
                Ok(Frame::Forward(ForwardSpec {
                    shard,
                    chunk_size,
                    online,
                    int8,
                    skip_raw: has_skip.then_some(th),
                    deadline_ms,
                    u,
                }))
            }
            8 => {
                let n = r.u32()? as usize;
                let mut partials = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    let len = r.u32()? as usize;
                    partials.push(r.bytes(len)?.to_vec());
                }
                let stats = WireStats {
                    rows_total: r.u64()?,
                    rows_skipped: r.u64()?,
                    flops: r.u64()?,
                    memory_bytes: r.u64()?,
                    chunks: r.u64()?,
                };
                Ok(Frame::ForwardResp { partials, stats })
            }
            9 => Ok(Frame::Health),
            10 => Ok(Frame::HealthAck {
                rows: r.u64()?,
                shards: r.u32()?,
            }),
            11 => {
                let code = ErrorCode::from_byte(r.u8()?)?;
                let len = r.u32()? as usize;
                let bytes = r.bytes(len)?;
                let message = String::from_utf8(bytes.to_vec())
                    .map_err(|_| FrameError::Malformed("error message is not UTF-8"))?;
                Ok(Frame::Error { code, message })
            }
            other => Err(FrameError::UnknownOpcode(other)),
        }
    }

    /// Decodes every [`PartialState`] carried by a [`Frame::ForwardResp`].
    ///
    /// # Errors
    ///
    /// The first inner [`mnn_tensor::PartialDecodeError`], typed as
    /// [`FrameError::Partial`].
    pub fn decode_partials(encoded: &[Vec<u8>]) -> Result<Vec<PartialState>, FrameError> {
        encoded
            .iter()
            .map(|b| PartialState::from_bytes(b).map_err(FrameError::Partial))
            .collect()
    }
}

/// Writes one encoded frame to `w` (single `write_all`, then flush).
///
/// # Errors
///
/// Propagates the stream's I/O error (including write-timeout expiry).
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> std::io::Result<()> {
    mnn_wire::write_frame_bytes(w, &frame.encode())
}

/// Reads exactly one frame from `r`, honouring the stream's read deadline.
///
/// # Errors
///
/// I/O errors (timeouts, resets) as `Err(Ok(io_error))`-free
/// [`FrameError::Io`]; codec errors as their own [`FrameError`] variants.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Frame, FrameError> {
    let buf = mnn_wire::read_frame_bytes(r, MAGIC, VERSION)?;
    Frame::decode(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: &Frame) {
        let bytes = frame.encode();
        let back = Frame::decode(&bytes).unwrap();
        assert_eq!(&back, frame);
    }

    #[test]
    fn every_frame_kind_roundtrips() {
        roundtrip(&Frame::Hello {
            ed: 24,
            chunk_size: 16,
            quant: true,
        });
        roundtrip(&Frame::HelloAck { rows: 123 });
        roundtrip(&Frame::PushRows {
            shard: 3,
            ed: 2,
            in_rows: vec![1.0, -2.0, 0.5, 3.25],
            out_rows: vec![0.0, -0.0, f32::MIN_POSITIVE, 1.0e18],
        });
        roundtrip(&Frame::PushAck { shard_rows: 7 });
        roundtrip(&Frame::Clear);
        roundtrip(&Frame::ClearAck);
        roundtrip(&Frame::Forward(ForwardSpec {
            shard: 1,
            chunk_size: 32,
            online: true,
            int8: true,
            skip_raw: Some(0.125),
            deadline_ms: 250,
            u: vec![0.1, 0.2, 0.3],
        }));
        roundtrip(&Frame::ForwardResp {
            partials: vec![vec![1, 2, 3], vec![], vec![255; 40]],
            stats: WireStats {
                rows_total: 96,
                rows_skipped: 5,
                flops: 4096,
                memory_bytes: 1 << 20,
                chunks: 6,
            },
        });
        roundtrip(&Frame::Health);
        roundtrip(&Frame::HealthAck {
            rows: 1 << 40,
            shards: 9,
        });
        roundtrip(&Frame::Error {
            code: ErrorCode::Engine,
            message: "denominator went non-finite".into(),
        });
    }

    #[test]
    fn bit_flips_anywhere_are_rejected() {
        let frame = Frame::Forward(ForwardSpec {
            shard: 0,
            chunk_size: 16,
            online: false,
            int8: false,
            skip_raw: None,
            deadline_ms: 0,
            u: vec![1.0, 2.0],
        });
        let pristine = frame.encode();
        assert_eq!(Frame::decode(&pristine).unwrap(), frame);
        for byte in 0..pristine.len() {
            let mut dented = pristine.clone();
            dented[byte] ^= 0x10;
            assert!(
                Frame::decode(&dented).is_err(),
                "flip at byte {byte} must not decode"
            );
        }
    }

    #[test]
    fn truncations_report_truncated_or_io() {
        let bytes = Frame::HealthAck {
            rows: 42,
            shards: 2,
        }
        .encode();
        for cut in 0..bytes.len() {
            let err = Frame::decode(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, FrameError::Truncated { .. }),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn stream_reader_matches_buffer_decoder() {
        let frames = [
            Frame::Health,
            Frame::HelloAck { rows: 9 },
            Frame::Error {
                code: ErrorCode::BadRequest,
                message: "nope".into(),
            },
        ];
        let mut wire = Vec::new();
        for f in &frames {
            write_frame(&mut wire, f).unwrap();
        }
        let mut cursor = &wire[..];
        for f in &frames {
            assert_eq!(&read_frame(&mut cursor).unwrap(), f);
        }
    }
}
