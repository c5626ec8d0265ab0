//! Typed errors for the distributed serving plane.

use mnn_tensor::PartialDecodeError;
use mnnfast::EngineError;
use std::error::Error;
use std::fmt;

/// A frame failed to decode (transport-level corruption or a protocol
/// mismatch). See [`crate::frame`] for the wire layout.
#[derive(Debug)]
pub enum FrameError {
    /// Fewer bytes than the frame declares.
    Truncated {
        /// Bytes the frame needs to decode.
        needed: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The leading magic is not `0x4D46`.
    BadMagic(u16),
    /// The frame was produced by an incompatible protocol version.
    UnsupportedVersion(u8),
    /// The opcode byte names no known frame kind.
    UnknownOpcode(u8),
    /// The trailing CRC-32 disagrees with the frame contents.
    Corrupt {
        /// Checksum recomputed from the received bytes.
        expected: u32,
        /// Checksum stored on the wire.
        got: u32,
    },
    /// The payload does not parse as its opcode's layout.
    Malformed(&'static str),
    /// An embedded [`mnn_tensor::PartialState`] failed to decode.
    Partial(PartialDecodeError),
    /// The underlying stream failed (timeout, reset, EOF mid-frame).
    Io(std::io::Error),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated { needed, got } => {
                write!(f, "truncated frame: need {needed} bytes, got {got}")
            }
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:#06x}"),
            FrameError::UnsupportedVersion(v) => {
                write!(f, "unsupported frame version {v}")
            }
            FrameError::UnknownOpcode(op) => write!(f, "unknown opcode {op}"),
            FrameError::Corrupt { expected, got } => write!(
                f,
                "corrupt frame: crc32 {got:#010x} on the wire, {expected:#010x} recomputed"
            ),
            FrameError::Malformed(what) => write!(f, "malformed payload: {what}"),
            FrameError::Partial(e) => write!(f, "embedded partial: {e}"),
            FrameError::Io(e) => write!(f, "stream: {e}"),
        }
    }
}

impl Error for FrameError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FrameError::Partial(e) => Some(e),
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl FrameError {
    /// `true` when retrying the RPC could plausibly succeed (corruption,
    /// timeouts, resets); `false` for protocol mismatches that will fail
    /// identically forever.
    pub fn is_retryable(&self) -> bool {
        !matches!(
            self,
            FrameError::UnsupportedVersion(_) | FrameError::UnknownOpcode(_)
        )
    }
}

/// A distributed request failed.
#[derive(Debug)]
pub enum DistError {
    /// Connecting or speaking to a worker failed at the transport level.
    Io(std::io::Error),
    /// A frame failed to decode.
    Frame(FrameError),
    /// The worker-side (or coordinator-side fold) engine failed.
    Engine(EngineError),
    /// The handshake revealed an incompatible worker.
    Handshake(String),
    /// Every replica of a shard failed and the request does not permit
    /// degraded answers.
    ShardUnavailable {
        /// The shard none of whose replicas answered.
        shard: u32,
    },
    /// The worker answered with an application-level error frame.
    Worker(String),
    /// The coordinator was configured inconsistently.
    Config(String),
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistError::Io(e) => write!(f, "transport: {e}"),
            DistError::Frame(e) => write!(f, "frame: {e}"),
            DistError::Engine(e) => write!(f, "engine: {e}"),
            DistError::Handshake(m) => write!(f, "handshake: {m}"),
            DistError::ShardUnavailable { shard } => {
                write!(f, "shard {shard}: every replica failed")
            }
            DistError::Worker(m) => write!(f, "worker error: {m}"),
            DistError::Config(m) => write!(f, "config: {m}"),
        }
    }
}

impl Error for DistError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DistError::Io(e) => Some(e),
            DistError::Frame(e) => Some(e),
            DistError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<mnn_wire::WireError> for FrameError {
    fn from(e: mnn_wire::WireError) -> Self {
        use mnn_wire::WireError as W;
        match e {
            W::Truncated { needed, got } => FrameError::Truncated { needed, got },
            W::BadMagic(m) => FrameError::BadMagic(m),
            W::UnsupportedVersion(v) => FrameError::UnsupportedVersion(v),
            W::Corrupt { expected, got } => FrameError::Corrupt { expected, got },
            W::Malformed(what) => FrameError::Malformed(what),
            W::Io(io) => FrameError::Io(io),
        }
    }
}

impl From<FrameError> for DistError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(io) => DistError::Io(io),
            other => DistError::Frame(other),
        }
    }
}

impl From<std::io::Error> for DistError {
    fn from(e: std::io::Error) -> Self {
        DistError::Io(e)
    }
}

impl From<EngineError> for DistError {
    fn from(e: EngineError) -> Self {
        DistError::Engine(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_and_classify() {
        let corrupt = FrameError::Corrupt {
            expected: 0xdead_beef,
            got: 0x0bad_f00d,
        };
        let msg = corrupt.to_string();
        assert!(
            msg.contains("0xdeadbeef") && msg.contains("0x0badf00d"),
            "{msg}"
        );
        assert!(corrupt.is_retryable());
        assert!(!FrameError::UnsupportedVersion(9).is_retryable());
        assert!(FrameError::Io(std::io::Error::from(std::io::ErrorKind::TimedOut)).is_retryable());

        let dist: DistError = corrupt.into();
        assert!(matches!(dist, DistError::Frame(_)));
        let io: DistError =
            FrameError::Io(std::io::Error::from(std::io::ErrorKind::BrokenPipe)).into();
        assert!(matches!(io, DistError::Io(_)));
        assert!(DistError::ShardUnavailable { shard: 3 }
            .to_string()
            .contains("shard 3"));
    }
}
