//! Error types of the byte path: [`WireError`], a decoder's structured
//! protocol violation, and [`NetError`], which the codecs return and
//! decoy-net's framed streams and listeners share.

use std::fmt;

/// Errors produced by codecs, framed streams, and the server substrate.
#[derive(Debug)]
pub enum NetError {
    /// Underlying socket I/O failed.
    Io(std::io::Error),
    /// The peer sent bytes that do not form a valid frame for the protocol.
    ///
    /// Honeypots treat this as *signal*, not failure: malformed input is
    /// logged and the session usually answers with the protocol's error
    /// reply instead of being torn down.
    Protocol(String),
    /// A frame exceeded the per-protocol size limit.
    FrameTooLarge {
        /// The codec's limit in bytes.
        limit: usize,
        /// Bytes buffered when the limit tripped.
        got: usize,
    },
    /// The peer closed the connection mid-frame.
    UnexpectedEof,
    /// The session exceeded its idle timeout.
    IdleTimeout,
    /// The listener is shutting down.
    Shutdown,
    /// The rate limiter or connection gate rejected the peer.
    Rejected(String),
    /// A structured wire-protocol violation from a `decoy-wire` decoder.
    ///
    /// Unlike [`NetError::Protocol`], this carries the protocol, the byte
    /// offset at which parsing became impossible, and a machine-readable
    /// kind, so malformed frames can be logged as analysable events.
    Wire(WireError),
}

/// Wire protocols the decoders can attribute a violation to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum WireProtocol {
    /// PostgreSQL v3 wire protocol.
    Pgwire,
    /// MySQL client/server protocol.
    MySql,
    /// Redis RESP2.
    Resp,
    /// Microsoft TDS (MSSQL).
    Tds,
    /// MongoDB wire protocol (OP_MSG / OP_QUERY / OP_REPLY).
    Mongo,
    /// BSON documents embedded in MongoDB frames.
    Bson,
    /// HTTP/1.1 (Elasticsearch / CouchDB REST surface).
    Http,
    /// HAProxy PROXY protocol header.
    Proxy,
    /// A protocol foreign to the advertised service (RDP, JDWP, ...).
    Foreign,
}

impl fmt::Display for WireProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            WireProtocol::Pgwire => "pgwire",
            WireProtocol::MySql => "mysql",
            WireProtocol::Resp => "resp",
            WireProtocol::Tds => "tds",
            WireProtocol::Mongo => "mongo",
            WireProtocol::Bson => "bson",
            WireProtocol::Http => "http",
            WireProtocol::Proxy => "proxy",
            WireProtocol::Foreign => "foreign",
        };
        f.write_str(name)
    }
}

/// What exactly went wrong while parsing a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireErrorKind {
    /// A field needed more bytes than the frame contains.
    Truncated {
        /// Bytes the field required.
        needed: usize,
        /// Bytes actually available at the offset.
        available: usize,
    },
    /// An attacker-supplied length field is outside the accepted range.
    LengthOutOfRange {
        /// The declared length, widened for uniformity.
        declared: u64,
        /// The maximum this decoder accepts.
        max: u64,
    },
    /// A magic number, tag byte, or version marker is wrong.
    BadMagic {
        /// Which marker was wrong.
        what: &'static str,
    },
    /// A delimited field (C string, CRLF line) never terminates.
    Unterminated {
        /// Which field was unterminated.
        what: &'static str,
    },
    /// Text that must be UTF-8 is not.
    InvalidUtf8,
    /// Recursive structure exceeded the nesting limit.
    NestingTooDeep {
        /// The enforced depth limit.
        limit: u32,
    },
    /// A collection declared more elements than the decoder accepts.
    TooManyElements {
        /// The enforced element limit.
        limit: u64,
    },
    /// Anything else that makes the bytes unparseable.
    Malformed {
        /// Human-readable detail.
        detail: &'static str,
    },
}

impl fmt::Display for WireErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireErrorKind::Truncated { needed, available } => {
                write!(f, "truncated field (need {needed} bytes, have {available})")
            }
            WireErrorKind::LengthOutOfRange { declared, max } => {
                write!(f, "length {declared} out of range (max {max})")
            }
            WireErrorKind::BadMagic { what } => write!(f, "bad {what}"),
            WireErrorKind::Unterminated { what } => write!(f, "unterminated {what}"),
            WireErrorKind::InvalidUtf8 => write!(f, "invalid utf-8"),
            WireErrorKind::NestingTooDeep { limit } => {
                write!(f, "nesting deeper than {limit}")
            }
            WireErrorKind::TooManyElements { limit } => {
                write!(f, "more than {limit} elements declared")
            }
            WireErrorKind::Malformed { detail } => f.write_str(detail),
        }
    }
}

/// A structured protocol violation: which protocol, where in the frame, and
/// what kind of damage. This is the error type of the fallible-decode
/// contract — every `decoy-wire` decoder is total and returns `WireError`
/// (never panics) on adversarial input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// The protocol whose grammar was violated.
    pub protocol: WireProtocol,
    /// Byte offset (within the frame being parsed) of the violation.
    pub offset: usize,
    /// Machine-readable classification.
    pub kind: WireErrorKind,
}

impl WireError {
    /// Construct a violation at `offset`.
    pub fn new(protocol: WireProtocol, offset: usize, kind: WireErrorKind) -> Self {
        WireError {
            protocol,
            offset,
            kind,
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} at byte {}: {}",
            self.protocol, self.offset, self.kind
        )
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        NetError::Wire(e)
    }
}

impl NetError {
    /// Convenience constructor for protocol violations.
    pub fn protocol(msg: impl Into<String>) -> Self {
        NetError::Protocol(msg.into())
    }

    /// True when the error is attributable to peer behaviour rather than to
    /// our own machinery (used to decide whether a session counts as
    /// "malformed input observed" in the logs).
    pub fn is_peer_fault(&self) -> bool {
        matches!(
            self,
            NetError::Protocol(_)
                | NetError::Wire(_)
                | NetError::FrameTooLarge { .. }
                | NetError::UnexpectedEof
        )
    }
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "i/o error: {e}"),
            NetError::Protocol(m) => write!(f, "protocol violation: {m}"),
            NetError::FrameTooLarge { limit, got } => {
                write!(f, "frame of {got} bytes exceeds limit of {limit}")
            }
            NetError::UnexpectedEof => write!(f, "peer closed connection mid-frame"),
            NetError::IdleTimeout => write!(f, "session idle timeout"),
            NetError::Shutdown => write!(f, "server shutting down"),
            NetError::Rejected(m) => write!(f, "connection rejected: {m}"),
            NetError::Wire(e) => write!(f, "protocol violation: {e}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            NetError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            NetError::UnexpectedEof
        } else {
            NetError::Io(e)
        }
    }
}

/// Result alias used throughout the substrate.
pub type NetResult<T> = Result<T, NetError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_stable() {
        assert_eq!(
            NetError::protocol("bad magic").to_string(),
            "protocol violation: bad magic"
        );
        assert_eq!(
            NetError::FrameTooLarge { limit: 16, got: 32 }.to_string(),
            "frame of 32 bytes exceeds limit of 16"
        );
        assert_eq!(NetError::IdleTimeout.to_string(), "session idle timeout");
    }

    #[test]
    fn io_eof_maps_to_unexpected_eof() {
        let e: NetError = std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "eof").into();
        assert!(matches!(e, NetError::UnexpectedEof));
        assert!(e.is_peer_fault());
    }

    #[test]
    fn peer_fault_classification() {
        assert!(NetError::protocol("x").is_peer_fault());
        assert!(!NetError::IdleTimeout.is_peer_fault());
        assert!(!NetError::Shutdown.is_peer_fault());
        assert!(!NetError::Rejected("full".into()).is_peer_fault());
    }

    #[test]
    fn wire_error_display_and_classification() {
        let e = WireError::new(
            WireProtocol::Pgwire,
            17,
            WireErrorKind::Truncated {
                needed: 4,
                available: 2,
            },
        );
        assert_eq!(
            e.to_string(),
            "pgwire at byte 17: truncated field (need 4 bytes, have 2)"
        );
        let net: NetError = e.into();
        assert!(net.is_peer_fault());
        assert_eq!(
            net.to_string(),
            "protocol violation: pgwire at byte 17: truncated field (need 4 bytes, have 2)"
        );
    }

    #[test]
    fn wire_error_kinds_format() {
        let k = WireErrorKind::LengthOutOfRange {
            declared: 1 << 40,
            max: 1 << 20,
        };
        assert_eq!(
            WireError::new(WireProtocol::Mongo, 0, k).to_string(),
            "mongo at byte 0: length 1099511627776 out of range (max 1048576)"
        );
        assert_eq!(
            WireErrorKind::BadMagic { what: "tag byte" }.to_string(),
            "bad tag byte"
        );
        assert_eq!(
            WireErrorKind::Unterminated { what: "cstring" }.to_string(),
            "unterminated cstring"
        );
        assert_eq!(
            WireErrorKind::NestingTooDeep { limit: 32 }.to_string(),
            "nesting deeper than 32"
        );
    }
}
