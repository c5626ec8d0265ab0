//! Typed errors for the serving front-end.

use mnn_wire::WireError;
use std::error::Error;
use std::fmt;

/// Failure classes a server reports in a [`crate::NetFrame::Error`] frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetErrorCode {
    /// The connection has not authenticated, or the token is unknown.
    Auth,
    /// The request was malformed or inconsistent (e.g. a word outside the
    /// server's vocabulary).
    BadRequest,
    /// The tenant's session failed the request (engine error, deadline,
    /// unknown token id).
    Session,
    /// The server is shutting down and will not serve further requests.
    Shutdown,
}

impl NetErrorCode {
    pub(crate) fn to_byte(self) -> u8 {
        match self {
            NetErrorCode::Auth => 1,
            NetErrorCode::BadRequest => 2,
            NetErrorCode::Session => 3,
            NetErrorCode::Shutdown => 4,
        }
    }

    pub(crate) fn from_byte(b: u8) -> Result<Self, NetError> {
        match b {
            1 => Ok(NetErrorCode::Auth),
            2 => Ok(NetErrorCode::BadRequest),
            3 => Ok(NetErrorCode::Session),
            4 => Ok(NetErrorCode::Shutdown),
            _ => Err(NetError::Wire(WireError::Malformed("unknown error code"))),
        }
    }
}

impl fmt::Display for NetErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetErrorCode::Auth => write!(f, "auth"),
            NetErrorCode::BadRequest => write!(f, "bad-request"),
            NetErrorCode::Session => write!(f, "session"),
            NetErrorCode::Shutdown => write!(f, "shutdown"),
        }
    }
}

/// A serving-protocol operation failed.
#[derive(Debug)]
pub enum NetError {
    /// The frame envelope failed to seal or open (truncation, bad magic
    /// or version, CRC mismatch, malformed payload).
    Wire(WireError),
    /// The opcode byte names no known frame kind.
    UnknownOpcode(u8),
    /// The underlying stream failed (connect, timeout, reset).
    Io(std::io::Error),
    /// The peer answered with a frame the protocol does not allow here
    /// (e.g. an [`crate::NetFrame::Answer`] before any ask).
    Protocol(&'static str),
    /// The server rejected the request with a typed error frame.
    Rejected {
        /// Failure class from the server.
        code: NetErrorCode,
        /// Human-readable detail from the server.
        message: String,
    },
    /// The server failed to start (bind, tenant bootstrap, session
    /// construction).
    Spawn(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Wire(e) => write!(f, "frame: {e}"),
            NetError::UnknownOpcode(op) => write!(f, "unknown opcode {op}"),
            NetError::Io(e) => write!(f, "stream: {e}"),
            NetError::Protocol(what) => write!(f, "protocol violation: {what}"),
            NetError::Rejected { code, message } => {
                write!(f, "server rejected ({code}): {message}")
            }
            NetError::Spawn(m) => write!(f, "server startup: {m}"),
        }
    }
}

impl Error for NetError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            NetError::Wire(e) => Some(e),
            NetError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Io(io) => NetError::Io(io),
            other => NetError::Wire(other),
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_and_chain() {
        let wire: NetError = WireError::BadMagic(0x1234).into();
        assert!(wire.to_string().contains("0x1234"));
        assert!(wire.source().is_some());
        // Stream-level wire errors collapse into the Io variant.
        let io: NetError = WireError::Io(std::io::Error::from(std::io::ErrorKind::TimedOut)).into();
        assert!(matches!(io, NetError::Io(_)));
        let rejected = NetError::Rejected {
            code: NetErrorCode::Auth,
            message: "unknown token".into(),
        };
        let msg = rejected.to_string();
        assert!(
            msg.contains("auth") && msg.contains("unknown token"),
            "{msg}"
        );
        assert!(rejected.source().is_none());
    }

    #[test]
    fn error_codes_roundtrip() {
        for code in [
            NetErrorCode::Auth,
            NetErrorCode::BadRequest,
            NetErrorCode::Session,
            NetErrorCode::Shutdown,
        ] {
            assert_eq!(NetErrorCode::from_byte(code.to_byte()).unwrap(), code);
        }
        assert!(NetErrorCode::from_byte(0).is_err());
        assert!(NetErrorCode::from_byte(99).is_err());
    }
}
