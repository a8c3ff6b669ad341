//! PostgreSQL frontend/backend protocol, version 3.0.
//!
//! Enough of the protocol for a faithful Sticky-Elephant-style honeypot and
//! for attacking clients: startup (including `SSLRequest` negotiation),
//! cleartext and MD5 password authentication, the simple query subprotocol,
//! error responses, and raw pass-through of extended-protocol messages so
//! unexpected client behaviour is preserved verbatim in the logs.
//!
//! Decoding is total: every read goes through [`ByteCursor`], so malformed
//! frames surface as [`crate::error::WireError`] values, never panics.

// decoy-hot-path: file -- per-message decode/encode, one call per wire message

use crate::buf::{Bytes, RecvBuf};
use crate::codec::{peek_u32_be, Codec};
use crate::cursor::{sat_i32, sat_u16, sat_u32, usize_from, ByteCursor};
use crate::error::{NetResult, WireError, WireErrorKind, WireProtocol};
use std::fmt::Write as _;

/// Protocol version number for v3.0 startup packets.
pub const PROTOCOL_V3: u32 = 196_608;
/// Magic "protocol version" of an SSLRequest.
pub const SSL_REQUEST_CODE: u32 = 80_877_103;
/// Magic "protocol version" of a CancelRequest.
pub const CANCEL_REQUEST_CODE: u32 = 80_877_102;

/// Messages sent by the client (frontend).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrontendMessage {
    /// TLS negotiation request; honeypots answer `SslRefused`.
    SslRequest,
    /// Out-of-band query cancellation.
    CancelRequest {
        /// Backend process id to cancel.
        pid: u32,
        /// Cancellation secret from `BackendKeyData`.
        secret: u32,
    },
    /// Connection startup with parameters (`user`, `database`, ...).
    Startup {
        /// Key/value startup parameters in wire order.
        params: Vec<(String, String)>,
    },
    /// `PasswordMessage` — cleartext password or MD5 digest text.
    Password(String),
    /// Simple query (`Q`).
    Query(String),
    /// Clean disconnect (`X`).
    Terminate,
    /// Any other tagged message (extended protocol etc.), preserved raw.
    Other {
        /// Message tag byte.
        tag: u8,
        /// Raw body after the length word (a zero-copy view of the read
        /// buffer).
        body: Bytes,
    },
}

/// Messages sent by the server (backend).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendMessage {
    /// `R` code 0.
    AuthenticationOk,
    /// `R` code 3.
    AuthenticationCleartextPassword,
    /// `R` code 5 with salt.
    AuthenticationMd5Password {
        /// The 4-byte MD5 salt.
        salt: [u8; 4],
    },
    /// `S` run-time parameter report.
    ParameterStatus {
        /// Parameter name.
        name: String,
        /// Parameter value.
        value: String,
    },
    /// `K` cancellation key.
    BackendKeyData {
        /// Backend process id.
        pid: u32,
        /// Cancellation secret.
        secret: u32,
    },
    /// `Z` — `status` is `b'I'`, `b'T'` or `b'E'`.
    ReadyForQuery {
        /// Transaction status byte.
        status: u8,
    },
    /// `E` with the three mandatory fields.
    ErrorResponse {
        /// Severity field (`S`), e.g. `FATAL`.
        severity: String,
        /// SQLSTATE code field (`C`), e.g. `28P01`.
        code: String,
        /// Human-readable message field (`M`).
        message: String,
    },
    /// `T` — column names only (all typed as `text`), which is all the
    /// honeypot's scripted answers need.
    RowDescription {
        /// Column names in order.
        columns: Vec<String>,
    },
    /// `D` — one row of optional text values.
    DataRow {
        /// Column values; `None` is SQL NULL.
        values: Vec<Option<String>>,
    },
    /// `C` command tag, e.g. `SELECT 1`.
    CommandComplete {
        /// The completion tag.
        tag: String,
    },
    /// `I` response to an empty query string.
    EmptyQueryResponse,
    /// The single raw byte `N` refusing an `SSLRequest`.
    SslRefused,
}

impl BackendMessage {
    /// The standard "password authentication failed" error.
    pub fn auth_failed(user: &str) -> Self {
        let mut message = String::with_capacity(44_usize.saturating_add(user.len()));
        let _ = write!(
            message,
            "password authentication failed for user \"{user}\""
        );
        BackendMessage::ErrorResponse {
            severity: "FATAL".into(),
            code: "28P01".into(),
            message,
        }
    }

    /// A generic syntax error, used by the honeypot for unintelligible SQL.
    pub fn syntax_error(near: &str) -> Self {
        let mut message = String::with_capacity(28_usize.saturating_add(near.len()));
        let _ = write!(message, "syntax error at or near \"{near}\"");
        BackendMessage::ErrorResponse {
            severity: "ERROR".into(),
            code: "42601".into(),
            message,
        }
    }
}

fn put_cstring(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(s.as_bytes());
    buf.push(0);
}

/// Decode a startup-family packet body (after the 4-byte length; offsets in
/// errors are relative to the packet start).
fn parse_startup_body(body: &[u8]) -> NetResult<FrontendMessage> {
    let mut cur = ByteCursor::with_base(body, WireProtocol::Pgwire, 4);
    let code = cur.u32_be()?;
    match code {
        SSL_REQUEST_CODE => Ok(FrontendMessage::SslRequest),
        CANCEL_REQUEST_CODE => {
            let pid = cur.u32_be()?;
            let secret = cur.u32_be()?;
            Ok(FrontendMessage::CancelRequest { pid, secret })
        }
        PROTOCOL_V3 => {
            // decoy-lint: allow(alloc-vec) -- startup happens once per session
            let mut params = Vec::new();
            while !matches!(cur.peek_u8(), None | Some(0)) {
                let k = cur.cstring_lossy()?;
                let v = cur.cstring_lossy()?;
                params.push((k, v));
            }
            Ok(FrontendMessage::Startup { params })
        }
        _ => Err(cur
            .err(WireErrorKind::BadMagic {
                what: "startup protocol code",
            })
            .into()),
    }
}

/// Peek a tagged message header: tag byte + big-endian length word.
fn peek_tagged_header(buf: &[u8]) -> Option<(u8, u32)> {
    let tag = *buf.first()?;
    let len = buf
        .get(1..5)
        .and_then(|s| s.first_chunk::<4>())
        .map(|b| u32::from_be_bytes(*b))?;
    Some((tag, len))
}

/// Validate a tagged-message length word against the codec's frame limit.
fn check_tagged_len(len32: u32, max: usize) -> NetResult<usize> {
    let len = usize_from(len32);
    if !(4..=max).contains(&len) {
        return Err(WireError::new(
            WireProtocol::Pgwire,
            1,
            WireErrorKind::LengthOutOfRange {
                declared: u64::from(len32),
                max: u64::try_from(max).unwrap_or(u64::MAX),
            },
        )
        .into());
    }
    Ok(len)
}

/// Server-side codec: decodes [`FrontendMessage`], encodes [`BackendMessage`].
///
/// Stateful: the first packet on a connection has no tag byte. An
/// `SSLRequest` keeps the codec in startup state because the client re-sends
/// its startup packet after the refusal.
#[derive(Debug, Clone)]
pub struct PgServerCodec {
    startup_done: bool,
}

impl PgServerCodec {
    /// A codec positioned before the startup packet.
    pub fn new() -> Self {
        PgServerCodec {
            startup_done: false,
        }
    }
}

impl Default for PgServerCodec {
    fn default() -> Self {
        Self::new()
    }
}

impl Codec for PgServerCodec {
    type In = FrontendMessage;
    type Out = BackendMessage;

    fn decode(&mut self, buf: &mut RecvBuf) -> NetResult<Option<FrontendMessage>> {
        if !self.startup_done {
            let Some(len32) = peek_u32_be(buf) else {
                return Ok(None);
            };
            let len = usize_from(len32);
            if !(8..=10_000).contains(&len) {
                return Err(WireError::new(
                    WireProtocol::Pgwire,
                    0,
                    WireErrorKind::LengthOutOfRange {
                        declared: u64::from(len32),
                        max: 10_000,
                    },
                )
                .into());
            }
            if buf.len() < len {
                return Ok(None);
            }
            buf.advance(4);
            let body = buf.split_to(len - 4);
            let msg = parse_startup_body(&body)?;
            if matches!(msg, FrontendMessage::Startup { .. }) {
                self.startup_done = true;
            }
            return Ok(Some(msg));
        }
        let Some((tag, len32)) = peek_tagged_header(buf) else {
            return Ok(None);
        };
        let len = check_tagged_len(len32, self.max_frame_len())?;
        if buf.len() < 1 + len {
            return Ok(None);
        }
        buf.advance(5);
        // Zero-copy: the body is a shared view of the read buffer; only
        // `Other` keeps it, the typed arms parse out of the borrow.
        let body = buf.split_to(len - 4);
        let msg = match tag {
            b'p' => {
                let mut cur = ByteCursor::with_base(&body, WireProtocol::Pgwire, 5);
                FrontendMessage::Password(cur.cstring_lossy()?)
            }
            b'Q' => {
                let mut cur = ByteCursor::with_base(&body, WireProtocol::Pgwire, 5);
                FrontendMessage::Query(cur.cstring_lossy()?)
            }
            b'X' => FrontendMessage::Terminate,
            other => FrontendMessage::Other { tag: other, body },
        };
        Ok(Some(msg))
    }

    fn encode(&mut self, frame: &BackendMessage, buf: &mut Vec<u8>) -> NetResult<()> {
        encode_backend(frame, buf);
        Ok(())
    }

    fn max_frame_len(&self) -> usize {
        (1 << 20).min(crate::MAX_FRAME)
    }
}

/// Client-side codec: decodes [`BackendMessage`], encodes [`FrontendMessage`].
#[derive(Debug, Clone)]
pub struct PgClientCodec {
    sent_startup: bool,
}

impl PgClientCodec {
    /// A codec positioned before the startup packet is sent.
    pub fn new() -> Self {
        PgClientCodec {
            sent_startup: false,
        }
    }
}

impl Default for PgClientCodec {
    fn default() -> Self {
        Self::new()
    }
}

impl Codec for PgClientCodec {
    type In = BackendMessage;
    type Out = FrontendMessage;

    fn decode(&mut self, buf: &mut RecvBuf) -> NetResult<Option<BackendMessage>> {
        let Some((tag, len32)) = peek_tagged_header(buf) else {
            return Ok(None);
        };
        let len = check_tagged_len(len32, self.max_frame_len())?;
        if buf.len() < 1 + len {
            return Ok(None);
        }
        buf.advance(5);
        let body = buf.split_to(len - 4);
        let msg = parse_backend(tag, &body)?;
        Ok(Some(msg))
    }

    fn encode(&mut self, frame: &FrontendMessage, buf: &mut Vec<u8>) -> NetResult<()> {
        encode_frontend(frame, buf, &mut self.sent_startup);
        Ok(())
    }
}

fn parse_backend(tag: u8, body: &[u8]) -> NetResult<BackendMessage> {
    // Offsets in errors are relative to the tagged message start (tag byte
    // at 0, body begins at 5).
    let mut cur = ByteCursor::with_base(body, WireProtocol::Pgwire, 5);
    Ok(match tag {
        b'R' => match cur.u32_be()? {
            0 => BackendMessage::AuthenticationOk,
            3 => BackendMessage::AuthenticationCleartextPassword,
            5 => {
                let mut salt = [0u8; 4];
                for b in &mut salt {
                    *b = cur.u8()?;
                }
                BackendMessage::AuthenticationMd5Password { salt }
            }
            _ => {
                return Err(cur
                    .err(WireErrorKind::BadMagic {
                        what: "authentication code",
                    })
                    .into())
            }
        },
        b'S' => {
            let name = cur.cstring_lossy()?;
            let value = cur.cstring_lossy()?;
            BackendMessage::ParameterStatus { name, value }
        }
        b'K' => BackendMessage::BackendKeyData {
            pid: cur.u32_be()?,
            secret: cur.u32_be()?,
        },
        b'Z' => BackendMessage::ReadyForQuery {
            status: cur.peek_u8().unwrap_or(b'I'),
        },
        b'E' => {
            let mut severity = String::new();
            let mut code = String::new();
            let mut message = String::new();
            while !matches!(cur.peek_u8(), None | Some(0)) {
                let field = cur.u8()?;
                let value = cur.cstring_lossy()?;
                match field {
                    b'S' => severity = value,
                    b'C' => code = value,
                    b'M' => message = value,
                    _ => {}
                }
            }
            BackendMessage::ErrorResponse {
                severity,
                code,
                message,
            }
        }
        b'T' => {
            let n = usize::from(cur.u16_be()?);
            // decoy-lint: allow(alloc-vec) -- client-side replay path; row shapes vary per response
            let mut columns = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let name = cur.cstring_lossy()?;
                // table oid, attnum, type oid, size, modifier, format
                cur.skip(18)?;
                columns.push(name);
            }
            BackendMessage::RowDescription { columns }
        }
        b'D' => {
            let n = usize::from(cur.u16_be()?);
            // decoy-lint: allow(alloc-vec) -- client-side replay path; row shapes vary per response
            let mut values = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let len = cur.i32_be()?;
                if len < 0 {
                    values.push(None);
                } else {
                    let len = cur.checked_len(i64::from(len), crate::MAX_FRAME)?;
                    let raw = cur.take(len)?;
                    values.push(Some(String::from_utf8_lossy(raw).into_owned()));
                }
            }
            BackendMessage::DataRow { values }
        }
        b'C' => BackendMessage::CommandComplete {
            tag: cur.cstring_lossy()?,
        },
        b'I' => BackendMessage::EmptyQueryResponse,
        _ => {
            return Err(WireError::new(
                WireProtocol::Pgwire,
                0,
                WireErrorKind::BadMagic {
                    what: "backend message tag",
                },
            )
            .into())
        }
    })
}

fn encode_frontend(msg: &FrontendMessage, buf: &mut Vec<u8>, sent_startup: &mut bool) {
    match msg {
        FrontendMessage::SslRequest => {
            buf.extend_from_slice(&8u32.to_be_bytes());
            buf.extend_from_slice(&SSL_REQUEST_CODE.to_be_bytes());
        }
        FrontendMessage::CancelRequest { pid, secret } => {
            buf.extend_from_slice(&16u32.to_be_bytes());
            buf.extend_from_slice(&CANCEL_REQUEST_CODE.to_be_bytes());
            buf.extend_from_slice(&pid.to_be_bytes());
            buf.extend_from_slice(&secret.to_be_bytes());
        }
        FrontendMessage::Startup { params } => {
            // Length computed up front so the body renders straight into
            // `buf` with no intermediate staging buffer.
            let body_len: usize = params
                .iter()
                .map(|(k, v)| k.len().saturating_add(v.len()).saturating_add(2))
                .sum::<usize>()
                .saturating_add(5);
            buf.extend_from_slice(&sat_u32(4usize.saturating_add(body_len)).to_be_bytes());
            buf.extend_from_slice(&PROTOCOL_V3.to_be_bytes());
            for (k, v) in params {
                put_cstring(buf, k);
                put_cstring(buf, v);
            }
            buf.push(0);
            *sent_startup = true;
        }
        FrontendMessage::Password(pw) => {
            buf.push(b'p');
            buf.extend_from_slice(&sat_u32(4 + pw.len() + 1).to_be_bytes());
            put_cstring(buf, pw);
        }
        FrontendMessage::Query(q) => {
            buf.push(b'Q');
            buf.extend_from_slice(&sat_u32(4 + q.len() + 1).to_be_bytes());
            put_cstring(buf, q);
        }
        FrontendMessage::Terminate => {
            buf.push(b'X');
            buf.extend_from_slice(&4u32.to_be_bytes());
        }
        FrontendMessage::Other { tag, body } => {
            buf.push(*tag);
            buf.extend_from_slice(&sat_u32(4 + body.len()).to_be_bytes());
            buf.extend_from_slice(body);
        }
    }
}

fn encode_backend(msg: &BackendMessage, buf: &mut Vec<u8>) {
    match msg {
        BackendMessage::SslRefused => {
            buf.push(b'N');
        }
        BackendMessage::AuthenticationOk => {
            buf.push(b'R');
            buf.extend_from_slice(&8u32.to_be_bytes());
            buf.extend_from_slice(&0u32.to_be_bytes());
        }
        BackendMessage::AuthenticationCleartextPassword => {
            buf.push(b'R');
            buf.extend_from_slice(&8u32.to_be_bytes());
            buf.extend_from_slice(&3u32.to_be_bytes());
        }
        BackendMessage::AuthenticationMd5Password { salt } => {
            buf.push(b'R');
            buf.extend_from_slice(&12u32.to_be_bytes());
            buf.extend_from_slice(&5u32.to_be_bytes());
            buf.extend_from_slice(salt);
        }
        BackendMessage::ParameterStatus { name, value } => {
            buf.push(b'S');
            buf.extend_from_slice(&sat_u32(4 + name.len() + 1 + value.len() + 1).to_be_bytes());
            put_cstring(buf, name);
            put_cstring(buf, value);
        }
        BackendMessage::BackendKeyData { pid, secret } => {
            buf.push(b'K');
            buf.extend_from_slice(&12u32.to_be_bytes());
            buf.extend_from_slice(&pid.to_be_bytes());
            buf.extend_from_slice(&secret.to_be_bytes());
        }
        BackendMessage::ReadyForQuery { status } => {
            buf.push(b'Z');
            buf.extend_from_slice(&5u32.to_be_bytes());
            buf.push(*status);
        }
        BackendMessage::ErrorResponse {
            severity,
            code,
            message,
        } => {
            // Each field is tag byte + NUL-terminated value; +1 terminator.
            let body_len = severity
                .len()
                .saturating_add(code.len())
                .saturating_add(message.len())
                .saturating_add(7);
            buf.push(b'E');
            buf.extend_from_slice(&sat_u32(4usize.saturating_add(body_len)).to_be_bytes());
            buf.push(b'S');
            put_cstring(buf, severity);
            buf.push(b'C');
            put_cstring(buf, code);
            buf.push(b'M');
            put_cstring(buf, message);
            buf.push(0);
        }
        BackendMessage::RowDescription { columns } => {
            // Per column: name + NUL + 18 bytes of fixed descriptor fields.
            let body_len: usize = columns
                .iter()
                .map(|c| c.len().saturating_add(19))
                .sum::<usize>()
                .saturating_add(2);
            buf.push(b'T');
            buf.extend_from_slice(&sat_u32(4usize.saturating_add(body_len)).to_be_bytes());
            buf.extend_from_slice(&sat_u16(columns.len()).to_be_bytes());
            for col in columns {
                put_cstring(buf, col);
                buf.extend_from_slice(&0u32.to_be_bytes()); // table oid
                buf.extend_from_slice(&0u16.to_be_bytes()); // attribute number
                buf.extend_from_slice(&25u32.to_be_bytes()); // type oid: text
                buf.extend_from_slice(&(-1i16).to_be_bytes()); // type size: variable
                buf.extend_from_slice(&(-1i32).to_be_bytes()); // type modifier
                buf.extend_from_slice(&0u16.to_be_bytes()); // format: text
            }
        }
        BackendMessage::DataRow { values } => {
            let body_len: usize = values
                .iter()
                .map(|v| v.as_ref().map_or(4, |s| s.len().saturating_add(4)))
                .sum::<usize>()
                .saturating_add(2);
            buf.push(b'D');
            buf.extend_from_slice(&sat_u32(4usize.saturating_add(body_len)).to_be_bytes());
            buf.extend_from_slice(&sat_u16(values.len()).to_be_bytes());
            for v in values {
                match v {
                    None => buf.extend_from_slice(&(-1i32).to_be_bytes()),
                    Some(s) => {
                        buf.extend_from_slice(&sat_i32(s.len()).to_be_bytes());
                        buf.extend_from_slice(s.as_bytes());
                    }
                }
            }
        }
        BackendMessage::CommandComplete { tag } => {
            buf.push(b'C');
            buf.extend_from_slice(&sat_u32(4 + tag.len() + 1).to_be_bytes());
            put_cstring(buf, tag);
        }
        BackendMessage::EmptyQueryResponse => {
            buf.push(b'I');
            buf.extend_from_slice(&4u32.to_be_bytes());
        }
    }
}

/// Extract the `user` parameter from a startup message, if present.
pub fn startup_user(msg: &FrontendMessage) -> Option<&str> {
    if let FrontendMessage::Startup { params } = msg {
        params
            .iter()
            .find(|(k, _)| k == "user")
            .map(|(_, v)| v.as_str())
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn client_encode(msg: FrontendMessage) -> RecvBuf {
        let mut codec = PgClientCodec::new();
        let mut buf = Vec::new();
        codec.encode(&msg, &mut buf).unwrap();
        RecvBuf::from(buf)
    }

    #[test]
    fn startup_roundtrip_through_server_codec() {
        let msg = FrontendMessage::Startup {
            params: vec![
                ("user".into(), "postgres".into()),
                ("database".into(), "postgres".into()),
            ],
        };
        let mut bytes = client_encode(msg.clone());
        let mut server = PgServerCodec::new();
        let decoded = server.decode(&mut bytes).unwrap().unwrap();
        assert_eq!(decoded, msg);
        assert_eq!(startup_user(&decoded), Some("postgres"));
    }

    #[test]
    fn ssl_request_then_startup() {
        let mut server = PgServerCodec::new();
        let mut buf = client_encode(FrontendMessage::SslRequest);
        assert_eq!(
            server.decode(&mut buf).unwrap().unwrap(),
            FrontendMessage::SslRequest
        );
        // after refusing, the client re-sends a startup on the same codec
        let mut buf = client_encode(FrontendMessage::Startup {
            params: vec![("user".into(), "admin".into())],
        });
        let msg = server.decode(&mut buf).unwrap().unwrap();
        assert_eq!(startup_user(&msg), Some("admin"));
    }

    #[test]
    fn password_and_query_after_startup() {
        let mut server = PgServerCodec::new();
        let mut buf = client_encode(FrontendMessage::Startup {
            params: vec![("user".into(), "x".into())],
        });
        server.decode(&mut buf).unwrap().unwrap();
        let mut buf = client_encode(FrontendMessage::Password("hunter2".into()));
        assert_eq!(
            server.decode(&mut buf).unwrap().unwrap(),
            FrontendMessage::Password("hunter2".into())
        );
        let mut buf = client_encode(FrontendMessage::Query("SELECT version();".into()));
        assert_eq!(
            server.decode(&mut buf).unwrap().unwrap(),
            FrontendMessage::Query("SELECT version();".into())
        );
        let mut buf = client_encode(FrontendMessage::Terminate);
        assert_eq!(
            server.decode(&mut buf).unwrap().unwrap(),
            FrontendMessage::Terminate
        );
    }

    #[test]
    fn backend_messages_roundtrip_through_client_codec() {
        let messages = vec![
            BackendMessage::AuthenticationCleartextPassword,
            BackendMessage::AuthenticationMd5Password { salt: [1, 2, 3, 4] },
            BackendMessage::AuthenticationOk,
            BackendMessage::ParameterStatus {
                name: "server_version".into(),
                value: "14.5".into(),
            },
            BackendMessage::BackendKeyData {
                pid: 4242,
                secret: 0xdead_beef,
            },
            BackendMessage::ReadyForQuery { status: b'I' },
            BackendMessage::auth_failed("postgres"),
            BackendMessage::RowDescription {
                columns: vec!["version".into(), "x".into()],
            },
            BackendMessage::DataRow {
                values: vec![Some("PostgreSQL 14.5".into()), None],
            },
            BackendMessage::CommandComplete {
                tag: "SELECT 1".into(),
            },
            BackendMessage::EmptyQueryResponse,
        ];
        let mut server = PgServerCodec::new();
        let mut client = PgClientCodec::new();
        for msg in messages {
            let mut buf = Vec::new();
            server.encode(&msg, &mut buf).unwrap();
            let mut buf = RecvBuf::from(buf);
            let decoded = client.decode(&mut buf).unwrap().unwrap();
            assert_eq!(decoded, msg);
            assert!(buf.is_empty());
        }
    }

    #[test]
    fn partial_messages_request_more_bytes() {
        let full = client_encode(FrontendMessage::Startup {
            params: vec![("user".into(), "postgres".into())],
        });
        for cut in 1..full.len() {
            let mut server = PgServerCodec::new();
            let mut buf = RecvBuf::from(full[..cut].to_vec());
            assert!(server.decode(&mut buf).unwrap().is_none());
            assert_eq!(buf.len(), cut);
        }
    }

    #[test]
    fn hostile_startup_length_is_rejected() {
        let mut server = PgServerCodec::new();
        let mut buf = RecvBuf::from([0xffu8, 0xff, 0xff, 0xff, 0, 0, 0, 0].to_vec());
        assert!(server.decode(&mut buf).is_err());
        let mut server = PgServerCodec::new();
        let mut buf = RecvBuf::from([0u8, 0, 0, 4].to_vec()); // length < 8
        assert!(server.decode(&mut buf).is_err());
    }

    #[test]
    fn wire_errors_carry_protocol_and_offset() {
        let mut server = PgServerCodec::new();
        let mut buf = RecvBuf::from([0xffu8, 0xff, 0xff, 0xff, 0, 0, 0, 0].to_vec());
        let err = server.decode(&mut buf).unwrap_err();
        match err {
            crate::error::NetError::Wire(w) => {
                assert_eq!(w.protocol, WireProtocol::Pgwire);
                assert_eq!(w.offset, 0);
                assert!(matches!(w.kind, WireErrorKind::LengthOutOfRange { .. }));
            }
            other => panic!("expected wire error, got {other:?}"),
        }
    }

    #[test]
    fn unknown_tagged_messages_are_preserved_raw() {
        let mut server = PgServerCodec::new();
        let mut buf = client_encode(FrontendMessage::Startup { params: vec![] });
        server.decode(&mut buf).unwrap();
        let mut buf = client_encode(FrontendMessage::Other {
            tag: b'P',
            body: Bytes::from_static(b"\0SELECT 1\0\0\0"),
        });
        let msg = server.decode(&mut buf).unwrap().unwrap();
        assert_eq!(
            msg,
            FrontendMessage::Other {
                tag: b'P',
                body: Bytes::from_static(b"\0SELECT 1\0\0\0")
            }
        );
    }

    #[test]
    fn cancel_request_parses() {
        let mut server = PgServerCodec::new();
        let mut buf = client_encode(FrontendMessage::CancelRequest { pid: 7, secret: 99 });
        assert_eq!(
            server.decode(&mut buf).unwrap().unwrap(),
            FrontendMessage::CancelRequest { pid: 7, secret: 99 }
        );
    }

    #[test]
    fn listing13_privilege_manipulation_queries_roundtrip() {
        // The privilege-manipulation commands from Appendix E, Listing 13.
        for q in [
            "ALTER USER pgg_superadmins WITH PASSWORD 'x'",
            "ALTER USER postgres WITH NOSUPERUSER",
        ] {
            let mut server = PgServerCodec::new();
            let mut buf = client_encode(FrontendMessage::Startup {
                params: vec![("user".into(), "postgres".into())],
            });
            server.decode(&mut buf).unwrap();
            let mut buf = client_encode(FrontendMessage::Query(q.into()));
            assert_eq!(
                server.decode(&mut buf).unwrap().unwrap(),
                FrontendMessage::Query(q.into())
            );
        }
    }
}
