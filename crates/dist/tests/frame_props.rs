//! Property-based tests for the RPC frame wire format: every frame kind
//! must survive an encode → decode roundtrip at awkward payload lengths,
//! and any single-bit damage or truncation must be rejected with a typed
//! error — never a panic, never a silently-wrong frame.

use mnn_dist::frame::{self, ErrorCode};
use mnn_dist::{ForwardSpec, Frame, FrameError, WireStats};
use proptest::collection::vec;
use proptest::prelude::*;

/// Payload lengths that stress the header/length/CRC bookkeeping: empty,
/// single element, and sizes straddling small power-of-two boundaries.
const AWKWARD_LENS: [usize; 8] = [0, 1, 3, 7, 8, 9, 31, 33];

fn awkward_f32s() -> impl Strategy<Value = Vec<f32>> {
    // Oversample, then cut to one of the awkward lengths — the shim has
    // no flat_map, so dependent sizing happens in the map.
    (0usize..AWKWARD_LENS.len(), vec(-100.0f32..100.0, 33..34)).prop_map(|(i, mut xs)| {
        xs.truncate(AWKWARD_LENS[i]);
        xs
    })
}

fn any_stats() -> impl Strategy<Value = WireStats> {
    (
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
    )
        .prop_map(|(a, b, c, d, e)| WireStats {
            rows_total: a as u64,
            rows_skipped: b as u64,
            flops: c as u64,
            memory_bytes: d as u64,
            chunks: e as u64,
        })
}

fn any_spec() -> impl Strategy<Value = ForwardSpec> {
    (
        (any::<u32>(), 1u32..1024, any::<bool>()),
        (
            any::<bool>(),
            prop_oneof![Just(None), (0.0f32..10.0).prop_map(Some)],
            any::<u32>(),
            awkward_f32s(),
        ),
    )
        .prop_map(
            |((shard, chunk_size, online), (int8, skip_raw, deadline, u))| ForwardSpec {
                shard,
                chunk_size,
                online,
                int8,
                skip_raw,
                deadline_ms: deadline as u64,
                u,
            },
        )
}

/// `spec` as a version-1 peer sealed it: the `fused` byte after `online`.
fn seal_v1_forward(spec: &ForwardSpec, fused: bool) -> Vec<u8> {
    mnn_wire::seal_frame(frame::MAGIC, 1, 7, |buf| {
        buf.extend_from_slice(&spec.shard.to_le_bytes());
        buf.extend_from_slice(&spec.chunk_size.to_le_bytes());
        buf.push(u8::from(spec.online));
        buf.push(u8::from(fused));
        buf.push(u8::from(spec.int8));
        buf.push(u8::from(spec.skip_raw.is_some()));
        buf.extend_from_slice(&spec.skip_raw.unwrap_or(0.0).to_le_bytes());
        buf.extend_from_slice(&spec.deadline_ms.to_le_bytes());
        buf.extend_from_slice(&(spec.u.len() as u32).to_le_bytes());
        for x in &spec.u {
            buf.extend_from_slice(&x.to_le_bytes());
        }
    })
}

fn ascii_message() -> impl Strategy<Value = String> {
    vec(any::<u8>(), 0..48)
        .prop_map(|bytes| bytes.iter().map(|b| (b' ' + b % 95) as char).collect())
}

fn any_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        (any::<u32>(), 1u32..1024, any::<bool>()).prop_map(|(ed, chunk_size, quant)| {
            Frame::Hello {
                ed,
                chunk_size,
                quant,
            }
        }),
        any::<u64>().prop_map(|rows| Frame::HelloAck { rows }),
        (any::<u32>(), 1u32..64, awkward_f32s()).prop_map(|(shard, ed, rows)| Frame::PushRows {
            shard,
            ed,
            in_rows: rows.clone(),
            out_rows: rows,
        }),
        any::<u64>().prop_map(|shard_rows| Frame::PushAck { shard_rows }),
        Just(Frame::Clear),
        Just(Frame::ClearAck),
        any_spec().prop_map(Frame::Forward),
        (vec(vec(any::<u8>(), 0..40), 0..5), any_stats())
            .prop_map(|(partials, stats)| Frame::ForwardResp { partials, stats }),
        Just(Frame::Health),
        (any::<u64>(), any::<u32>()).prop_map(|(rows, shards)| Frame::HealthAck { rows, shards }),
        (
            prop_oneof![
                Just(ErrorCode::BadRequest),
                Just(ErrorCode::Engine),
                Just(ErrorCode::Shutdown)
            ],
            ascii_message()
        )
            .prop_map(|(code, message)| Frame::Error { code, message }),
    ]
}

proptest! {
    #[test]
    fn every_frame_roundtrips(frame in any_frame()) {
        let bytes = frame.encode();
        let back = Frame::decode(&bytes).expect("decode of a fresh encode");
        prop_assert_eq!(back, frame);
    }

    #[test]
    fn single_bit_damage_is_always_rejected(frame in any_frame(), pos_seed in any::<usize>(), bit in 0u8..8) {
        let mut bytes = frame.encode();
        let pos = pos_seed % bytes.len();
        bytes[pos] ^= 1 << bit;
        // A flipped bit must never decode to *any* frame: the structural
        // checks or the trailing CRC must catch it.
        prop_assert!(Frame::decode(&bytes).is_err(), "flip at {} bit {} accepted", pos, bit);
    }

    #[test]
    fn truncation_is_always_rejected(frame in any_frame(), keep_seed in any::<usize>()) {
        let bytes = frame.encode();
        let keep = keep_seed % bytes.len(); // strictly shorter than full
        match Frame::decode(&bytes[..keep]) {
            Err(FrameError::Truncated { .. }) | Err(FrameError::BadMagic(_)) => {}
            Err(other) => prop_assert!(false, "unexpected error class {:?}", other),
            Ok(f) => prop_assert!(false, "truncated to {} bytes decoded {:?}", keep, f),
        }
    }

    /// A `Forward` frame from a version-1 peer — whose layout carried a
    /// `fused` byte after `online`, shifting every later field — is
    /// refused whole with the typed version error, from a buffer and from
    /// a stream, whatever the fused byte said.
    #[test]
    fn version_1_forward_frames_fail_loudly(spec in any_spec(), fused in any::<bool>()) {
        let bytes = seal_v1_forward(&spec, fused);
        match Frame::decode(&bytes) {
            Err(FrameError::UnsupportedVersion(1)) => {}
            other => prop_assert!(false, "v1 frame decoded as {:?}", other),
        }
        match frame::read_frame(&mut bytes.as_slice()) {
            Err(FrameError::UnsupportedVersion(1)) => {}
            other => prop_assert!(false, "v1 frame read as {:?}", other),
        }
    }

    #[test]
    fn garbage_never_panics(bytes in vec(any::<u8>(), 0..96)) {
        // Arbitrary bytes must produce Ok or a typed Err — decode is
        // panic-free by construction; this just drives the corners.
        let _ = Frame::decode(&bytes);
    }
}

#[test]
fn awkward_row_payload_lengths_roundtrip() {
    for &n in &AWKWARD_LENS {
        let rows: Vec<f32> = (0..n * 4).map(|i| i as f32 * 0.25 - 3.0).collect();
        let frame = Frame::PushRows {
            shard: 7,
            ed: 4,
            in_rows: rows.clone(),
            out_rows: rows,
        };
        let back = Frame::decode(&frame.encode()).unwrap();
        assert_eq!(back, frame, "n = {n}");
    }
}
