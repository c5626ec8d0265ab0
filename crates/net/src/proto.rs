//! The serving front-end's wire protocol.
//!
//! Every message is one [`mnn_wire`] envelope frame (length-prefixed,
//! CRC-guarded, little-endian — see that crate for the offset table) with
//! this protocol's own magic `0x4E46` ("FN" on the wire) so a serving
//! client that dials a distributed-plane worker port (or vice versa) gets
//! a typed `BadMagic` instead of a confused session. The opcode table:
//!
//! | opcode | frame | direction |
//! |--------|-------|-----------|
//! | 1 | [`NetFrame::Hello`] | client → server |
//! | 2 | [`NetFrame::HelloAck`] | server → client |
//! | 3 | [`NetFrame::Observe`] | client → server |
//! | 4 | [`NetFrame::ObserveTokens`] | client → server |
//! | 5 | [`NetFrame::ObserveAck`] | server → client |
//! | 6 | [`NetFrame::Ask`] | client → server |
//! | 7 | [`NetFrame::AskTokens`] | client → server |
//! | 8 | [`NetFrame::Answer`] | server → client |
//! | 9 | [`NetFrame::Overloaded`] | server → client |
//! | 10 | [`NetFrame::Stats`] | client → server |
//! | 11 | [`NetFrame::StatsResp`] | server → client |
//! | 12 | [`NetFrame::Shutdown`] | client → server |
//! | 13 | [`NetFrame::ShutdownAck`] | server → client |
//! | 14 | [`NetFrame::Error`] | server → client |
//!
//! Requests carry a client-chosen `id` echoed by the matching response,
//! so a connection can pipeline many asks and match answers out of order
//! — the open-loop load generator depends on this.

use crate::error::{NetError, NetErrorCode};
use mnn_dataset::WordId;
use mnn_wire::{put_string, put_u32s, Reader};
use std::io::{Read, Write};

/// First two bytes of every serving frame ("FN" on the wire) — distinct
/// from the distributed plane's `0x4D46` so cross-plane dials fail typed.
pub const MAGIC: u16 = 0x4E46;
/// Protocol version emitted by this build.
pub const VERSION: u8 = 1;

/// Request id used by connection-level [`NetFrame::Error`] frames that
/// answer no particular request (e.g. a malformed frame).
pub const NO_REQUEST: u64 = u64::MAX;

/// The aggregate statistics snapshot a [`NetFrame::StatsResp`] carries:
/// the pool counters that matter to an operator watching the serving
/// plane, plus the network-plane counters the server maintains itself.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetStatsWire {
    /// Tenants currently served.
    pub tenants: u64,
    /// Sentences resident across all tenant memories.
    pub total_sentences: u64,
    /// Questions answered pool-wide.
    pub questions_answered: u64,
    /// Questions shed by the admission controller.
    pub shed_questions: u64,
    /// Questions abandoned because their deadline expired.
    pub deadline_misses: u64,
    /// Answers produced by the safe path.
    pub degraded_answers: u64,
    /// Batched passes dispatched.
    pub batches_dispatched: u64,
    /// Questions that went through a dispatched batched pass.
    pub batched_questions: u64,
    /// Largest batch occupancy seen so far.
    pub max_batch_occupancy: u64,
    /// Questions currently waiting in coalescing queues.
    pub pending_questions: u64,
    /// Dispatched-batch occupancy histogram (buckets 1, 2, 3–4, 5–8,
    /// 9–16, 17–32, 33–64, 65+).
    pub batch_occupancy: [u64; mnn_serve::OCCUPANCY_BUCKETS],
    /// Connections accepted over the server's lifetime.
    pub net_connections_accepted: u64,
    /// Connections currently open.
    pub net_connections_active: u64,
    /// Request frames decoded.
    pub net_frames_in: u64,
    /// Response frames written.
    pub net_frames_out: u64,
    /// Admission sheds broken down by tenant, sorted by tenant name.
    pub sheds_by_tenant: Vec<(String, u64)>,
}

/// One decoded serving-protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub enum NetFrame {
    /// Client → server: authenticate. The token maps to a tenant on the
    /// server; every subsequent request on the connection acts as that
    /// tenant.
    Hello {
        /// The per-tenant authentication token.
        token: String,
    },
    /// Server → client: authentication accepted.
    HelloAck {
        /// The tenant this connection now acts as.
        tenant: String,
        /// Requests the connection may have in flight before the server
        /// answers [`NetFrame::Overloaded`] immediately.
        max_inflight: u32,
    },
    /// Client → server: append a story sentence (plain text, encoded
    /// against the server's vocabulary) to the tenant's memory.
    Observe {
        /// Client-chosen request id, echoed by the response.
        id: u64,
        /// The sentence.
        text: String,
    },
    /// Client → server: append a pre-encoded story sentence.
    ObserveTokens {
        /// Client-chosen request id, echoed by the response.
        id: u64,
        /// The sentence's word ids.
        tokens: Vec<WordId>,
    },
    /// Server → client: sentence appended.
    ObserveAck {
        /// The request this acknowledges.
        id: u64,
        /// Sentences now resident in the tenant's memory.
        sentences: u64,
    },
    /// Client → server: ask a question (plain text). The request joins
    /// the tenant's coalescing batch queue, which is dispatched as soon
    /// as it fills or the scheduler has nothing else to do; the answer
    /// carries `id`, so it may arrive out of order with other traffic.
    Ask {
        /// Client-chosen request id, echoed by the response.
        id: u64,
        /// The question.
        text: String,
    },
    /// Client → server: ask a pre-encoded question.
    AskTokens {
        /// Client-chosen request id, echoed by the response.
        id: u64,
        /// The question's word ids.
        tokens: Vec<WordId>,
    },
    /// Server → client: the answer. `probability` crosses the wire
    /// bit-exactly, so loopback answers are bitwise-comparable to
    /// in-process ones.
    Answer {
        /// The request this answers.
        id: u64,
        /// The predicted answer word id.
        word: WordId,
        /// The predicted word decoded against the server's vocabulary
        /// (empty when the id has no entry).
        text: String,
        /// Softmax probability of the predicted word.
        probability: f32,
        /// Whether the answer came from the degraded safe path.
        degraded: bool,
    },
    /// Server → client: the request was shed (admission control or the
    /// per-connection in-flight cap). The connection stays open; the
    /// client should retry after the hint.
    Overloaded {
        /// The request that was shed.
        id: u64,
        /// Suggested backoff before retrying, in milliseconds.
        retry_after_ms: u64,
    },
    /// Client → server: request a statistics snapshot.
    Stats,
    /// Server → client: the statistics snapshot.
    StatsResp(NetStatsWire),
    /// Client → server: drain every coalescing queue, answer what is in
    /// flight, and stop serving.
    Shutdown,
    /// Server → client: shutdown accepted; queued work was flushed.
    ShutdownAck,
    /// Server → client: the request failed.
    Error {
        /// The request that failed ([`NO_REQUEST`] for connection-level
        /// failures such as a malformed frame).
        id: u64,
        /// Failure class.
        code: NetErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl NetFrame {
    fn opcode(&self) -> u8 {
        match self {
            NetFrame::Hello { .. } => 1,
            NetFrame::HelloAck { .. } => 2,
            NetFrame::Observe { .. } => 3,
            NetFrame::ObserveTokens { .. } => 4,
            NetFrame::ObserveAck { .. } => 5,
            NetFrame::Ask { .. } => 6,
            NetFrame::AskTokens { .. } => 7,
            NetFrame::Answer { .. } => 8,
            NetFrame::Overloaded { .. } => 9,
            NetFrame::Stats => 10,
            NetFrame::StatsResp(_) => 11,
            NetFrame::Shutdown => 12,
            NetFrame::ShutdownAck => 13,
            NetFrame::Error { .. } => 14,
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
            NetFrame::Hello { token } => put_string(buf, token),
            NetFrame::HelloAck {
                tenant,
                max_inflight,
            } => {
                put_string(buf, tenant);
                buf.extend_from_slice(&max_inflight.to_le_bytes());
            }
            NetFrame::Observe { id, text } | NetFrame::Ask { id, text } => {
                buf.extend_from_slice(&id.to_le_bytes());
                put_string(buf, text);
            }
            NetFrame::ObserveTokens { id, tokens } | NetFrame::AskTokens { id, tokens } => {
                buf.extend_from_slice(&id.to_le_bytes());
                put_u32s(buf, tokens);
            }
            NetFrame::ObserveAck { id, sentences } => {
                buf.extend_from_slice(&id.to_le_bytes());
                buf.extend_from_slice(&sentences.to_le_bytes());
            }
            NetFrame::Answer {
                id,
                word,
                text,
                probability,
                degraded,
            } => {
                buf.extend_from_slice(&id.to_le_bytes());
                buf.extend_from_slice(&word.to_le_bytes());
                put_string(buf, text);
                buf.extend_from_slice(&probability.to_le_bytes());
                buf.push(u8::from(*degraded));
            }
            NetFrame::Overloaded { id, retry_after_ms } => {
                buf.extend_from_slice(&id.to_le_bytes());
                buf.extend_from_slice(&retry_after_ms.to_le_bytes());
            }
            NetFrame::Stats | NetFrame::Shutdown | NetFrame::ShutdownAck => {}
            NetFrame::StatsResp(s) => {
                for v in [
                    s.tenants,
                    s.total_sentences,
                    s.questions_answered,
                    s.shed_questions,
                    s.deadline_misses,
                    s.degraded_answers,
                    s.batches_dispatched,
                    s.batched_questions,
                    s.max_batch_occupancy,
                    s.pending_questions,
                ] {
                    buf.extend_from_slice(&v.to_le_bytes());
                }
                for v in s.batch_occupancy {
                    buf.extend_from_slice(&v.to_le_bytes());
                }
                for v in [
                    s.net_connections_accepted,
                    s.net_connections_active,
                    s.net_frames_in,
                    s.net_frames_out,
                ] {
                    buf.extend_from_slice(&v.to_le_bytes());
                }
                buf.extend_from_slice(&(s.sheds_by_tenant.len() as u32).to_le_bytes());
                for (tenant, sheds) in &s.sheds_by_tenant {
                    put_string(buf, tenant);
                    buf.extend_from_slice(&sheds.to_le_bytes());
                }
            }
            NetFrame::Error { id, code, message } => {
                buf.extend_from_slice(&id.to_le_bytes());
                buf.push(code.to_byte());
                put_string(buf, message);
            }
        }
    }

    /// Decodes one complete frame from `bytes` (header through CRC).
    ///
    /// # Errors
    ///
    /// [`NetError::Wire`] for envelope problems (truncation, bad magic or
    /// version, CRC mismatch, malformed payload) and for unknown opcodes.
    pub fn decode(bytes: &[u8]) -> Result<NetFrame, NetError> {
        let (opcode, payload) = mnn_wire::open_frame(bytes, MAGIC, VERSION)?;
        let mut r = Reader::new(payload);
        let frame = Self::decode_payload(opcode, &mut r)?;
        if !r.is_exhausted() {
            return Err(NetError::Wire(mnn_wire::WireError::Malformed(
                "trailing bytes after payload",
            )));
        }
        Ok(frame)
    }

    fn decode_payload(opcode: u8, r: &mut Reader<'_>) -> Result<NetFrame, NetError> {
        match opcode {
            1 => Ok(NetFrame::Hello {
                token: r.string_prefixed()?,
            }),
            2 => Ok(NetFrame::HelloAck {
                tenant: r.string_prefixed()?,
                max_inflight: r.u32()?,
            }),
            3 => Ok(NetFrame::Observe {
                id: r.u64()?,
                text: r.string_prefixed()?,
            }),
            4 => Ok(NetFrame::ObserveTokens {
                id: r.u64()?,
                tokens: r.u32s_prefixed()?,
            }),
            5 => Ok(NetFrame::ObserveAck {
                id: r.u64()?,
                sentences: r.u64()?,
            }),
            6 => Ok(NetFrame::Ask {
                id: r.u64()?,
                text: r.string_prefixed()?,
            }),
            7 => Ok(NetFrame::AskTokens {
                id: r.u64()?,
                tokens: r.u32s_prefixed()?,
            }),
            8 => Ok(NetFrame::Answer {
                id: r.u64()?,
                word: r.u32()?,
                text: r.string_prefixed()?,
                probability: r.f32()?,
                degraded: r.flag()?,
            }),
            9 => Ok(NetFrame::Overloaded {
                id: r.u64()?,
                retry_after_ms: r.u64()?,
            }),
            10 => Ok(NetFrame::Stats),
            11 => {
                // Struct-literal fields evaluate in written order, which
                // is the wire order of the first ten counters.
                let mut s = NetStatsWire {
                    tenants: r.u64()?,
                    total_sentences: r.u64()?,
                    questions_answered: r.u64()?,
                    shed_questions: r.u64()?,
                    deadline_misses: r.u64()?,
                    degraded_answers: r.u64()?,
                    batches_dispatched: r.u64()?,
                    batched_questions: r.u64()?,
                    max_batch_occupancy: r.u64()?,
                    pending_questions: r.u64()?,
                    ..NetStatsWire::default()
                };
                for slot in &mut s.batch_occupancy {
                    *slot = r.u64()?;
                }
                s.net_connections_accepted = r.u64()?;
                s.net_connections_active = r.u64()?;
                s.net_frames_in = r.u64()?;
                s.net_frames_out = r.u64()?;
                let n = r.u32()? as usize;
                s.sheds_by_tenant = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    let tenant = r.string_prefixed()?;
                    let sheds = r.u64()?;
                    s.sheds_by_tenant.push((tenant, sheds));
                }
                Ok(NetFrame::StatsResp(s))
            }
            12 => Ok(NetFrame::Shutdown),
            13 => Ok(NetFrame::ShutdownAck),
            14 => Ok(NetFrame::Error {
                id: r.u64()?,
                code: NetErrorCode::from_byte(r.u8()?)?,
                message: r.string_prefixed()?,
            }),
            other => Err(NetError::UnknownOpcode(other)),
        }
    }
}

/// Writes one encoded frame to `w` (single `write_all`, then flush).
///
/// # Errors
///
/// Propagates the stream's I/O error (including write-timeout expiry).
pub fn write_frame<W: Write>(w: &mut W, frame: &NetFrame) -> std::io::Result<()> {
    mnn_wire::write_frame_bytes(w, &frame.encode())
}

/// Reads exactly one frame from `r`, honouring the stream's read deadline.
///
/// # Errors
///
/// I/O errors as [`NetError::Io`]; codec errors as [`NetError::Wire`].
pub fn read_frame<R: Read>(r: &mut R) -> Result<NetFrame, NetError> {
    let buf = mnn_wire::read_frame_bytes(r, MAGIC, VERSION)?;
    NetFrame::decode(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(frame: &NetFrame) {
        let bytes = frame.encode();
        let back = NetFrame::decode(&bytes).unwrap();
        assert_eq!(&back, frame);
    }

    #[test]
    fn every_frame_kind_roundtrips() {
        roundtrip(&NetFrame::Hello {
            token: "tok-alice".into(),
        });
        roundtrip(&NetFrame::HelloAck {
            tenant: "alice".into(),
            max_inflight: 64,
        });
        roundtrip(&NetFrame::Observe {
            id: 7,
            text: "mary went to the kitchen".into(),
        });
        roundtrip(&NetFrame::ObserveTokens {
            id: 8,
            tokens: vec![1, 5, 9, 2],
        });
        roundtrip(&NetFrame::ObserveAck {
            id: 7,
            sentences: 4,
        });
        roundtrip(&NetFrame::Ask {
            id: 9,
            text: "where is mary".into(),
        });
        roundtrip(&NetFrame::AskTokens {
            id: 10,
            tokens: vec![3, 1],
        });
        roundtrip(&NetFrame::Answer {
            id: 9,
            word: 17,
            text: "kitchen".into(),
            probability: 0.8125,
            degraded: false,
        });
        roundtrip(&NetFrame::Overloaded {
            id: 11,
            retry_after_ms: 42,
        });
        roundtrip(&NetFrame::Stats);
        roundtrip(&NetFrame::StatsResp(NetStatsWire {
            tenants: 8,
            total_sentences: 123,
            questions_answered: 456,
            shed_questions: 7,
            deadline_misses: 1,
            degraded_answers: 0,
            batches_dispatched: 99,
            batched_questions: 456,
            max_batch_occupancy: 32,
            pending_questions: 3,
            batch_occupancy: [1, 2, 3, 4, 5, 6, 7, 8],
            net_connections_accepted: 20,
            net_connections_active: 8,
            net_frames_in: 1000,
            net_frames_out: 990,
            sheds_by_tenant: vec![("alice".into(), 4), ("bob".into(), 3)],
        }));
        roundtrip(&NetFrame::Shutdown);
        roundtrip(&NetFrame::ShutdownAck);
        roundtrip(&NetFrame::Error {
            id: NO_REQUEST,
            code: NetErrorCode::Auth,
            message: "unknown token".into(),
        });
    }

    #[test]
    fn answers_cross_the_wire_bit_exactly() {
        for bits in [
            0x3f80_0000u32, // 1.0
            0x8000_0000,    // -0.0
            0x0000_0001,    // smallest subnormal
            0x7f7f_ffff,    // f32::MAX
        ] {
            let frame = NetFrame::Answer {
                id: 1,
                word: 2,
                text: String::new(),
                probability: f32::from_bits(bits),
                degraded: true,
            };
            match NetFrame::decode(&frame.encode()).unwrap() {
                NetFrame::Answer { probability, .. } => {
                    assert_eq!(probability.to_bits(), bits);
                }
                other => panic!("expected Answer, got {other:?}"),
            }
        }
    }

    #[test]
    fn bit_flips_anywhere_are_rejected() {
        let pristine = NetFrame::Ask {
            id: 5,
            text: "where is the football".into(),
        }
        .encode();
        assert!(NetFrame::decode(&pristine).is_ok());
        for byte in 0..pristine.len() {
            let mut dented = pristine.clone();
            dented[byte] ^= 0x10;
            assert!(
                NetFrame::decode(&dented).is_err(),
                "flip at byte {byte} must not decode"
            );
        }
    }

    #[test]
    fn dist_frames_are_rejected_by_magic() {
        // A distributed-plane frame dialed into the serving port: typed
        // BadMagic, not a confused parse.
        let dist = mnn_wire::seal_frame(0x4D46, 1, 9, |_| {});
        assert!(matches!(
            NetFrame::decode(&dist),
            Err(NetError::Wire(mnn_wire::WireError::BadMagic(0x4D46)))
        ));
    }

    #[test]
    fn stream_reader_matches_buffer_decoder() {
        let frames = [
            NetFrame::Stats,
            NetFrame::Overloaded {
                id: 3,
                retry_after_ms: 10,
            },
            NetFrame::Hello {
                token: "tok".into(),
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

    proptest! {
        #[test]
        fn ask_frames_roundtrip(id in any::<u64>(), tokens in proptest::collection::vec(any::<u32>(), 0..64)) {
            let frame = NetFrame::AskTokens { id, tokens };
            let bytes = frame.encode();
            prop_assert_eq!(NetFrame::decode(&bytes).unwrap(), frame);
            // The accumulation-buffer probe agrees on the frame boundary.
            prop_assert_eq!(
                mnn_wire::frame_len(&bytes, MAGIC, VERSION).unwrap(),
                Some(bytes.len())
            );
        }
    }
}
