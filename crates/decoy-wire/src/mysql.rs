//! MySQL client/server protocol (handshake protocol version 10).
//!
//! Covers what a Qeeqbox-style low-interaction MySQL honeypot and its
//! attackers need: the server greeting, the client `HandshakeResponse41`
//! (credential capture — including cleartext passwords when the client uses
//! the `mysql_clear_password` plugin, as common brute-force tools do),
//! `OK`/`ERR` packets, and `COM_QUERY`.
//!
//! The transport layer is the classic MySQL packet: 3-byte little-endian
//! payload length, 1-byte sequence id, payload. All parsing is total via
//! [`ByteCursor`]; malformed payloads surface as [`crate::error::WireError`].

// decoy-hot-path: file -- per-packet decode/encode, one call per wire message

use crate::buf::{Bytes, RecvBuf};
use crate::codec::Codec;
use crate::cursor::{sat_u32, sat_u8, usize_from, ByteCursor};
use crate::error::{NetResult, WireError, WireErrorKind, WireProtocol};

/// Capability flag: CLIENT_PROTOCOL_41.
pub const CLIENT_PROTOCOL_41: u32 = 0x0000_0200;
/// Capability flag: CLIENT_SECURE_CONNECTION.
pub const CLIENT_SECURE_CONNECTION: u32 = 0x0000_8000;
/// Capability flag: CLIENT_PLUGIN_AUTH.
pub const CLIENT_PLUGIN_AUTH: u32 = 0x0008_0000;
/// Capability flag: CLIENT_CONNECT_WITH_DB.
pub const CLIENT_CONNECT_WITH_DB: u32 = 0x0000_0008;

/// One raw MySQL packet (transport framing only).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MySqlPacket {
    /// Sequence id; increments within a command/response exchange.
    pub seq: u8,
    /// Packet payload — a shared view into the decode buffer (zero-copy)
    /// or a frozen build buffer.
    pub payload: Bytes,
}

/// Codec for the MySQL packet transport. Payload interpretation is done by
/// the typed parse/build helpers below, because meaning depends on
/// connection phase.
#[derive(Debug, Clone, Default)]
pub struct MySqlCodec;

impl Codec for MySqlCodec {
    type In = MySqlPacket;
    type Out = MySqlPacket;

    fn decode(&mut self, buf: &mut RecvBuf) -> NetResult<Option<MySqlPacket>> {
        let Some([b0, b1, b2, seq]) = buf.first_chunk::<4>().copied() else {
            return Ok(None);
        };
        let len = usize_from(u32::from_le_bytes([b0, b1, b2, 0]));
        if len > self.max_frame_len() {
            return Err(WireError::new(
                WireProtocol::MySql,
                0,
                WireErrorKind::LengthOutOfRange {
                    declared: u64::try_from(len).unwrap_or(u64::MAX),
                    max: u64::try_from(self.max_frame_len()).unwrap_or(u64::MAX),
                },
            )
            .into());
        }
        if buf.len() < 4 + len {
            return Ok(None);
        }
        buf.advance(4);
        let payload = buf.split_to(len);
        Ok(Some(MySqlPacket { seq, payload }))
    }

    fn encode(&mut self, frame: &MySqlPacket, buf: &mut Vec<u8>) -> NetResult<()> {
        if frame.payload.len() > 0xff_ffff {
            return Err(WireError::new(
                WireProtocol::MySql,
                0,
                WireErrorKind::LengthOutOfRange {
                    declared: u64::try_from(frame.payload.len()).unwrap_or(u64::MAX),
                    max: 0xff_ffff,
                },
            )
            .into());
        }
        let [b0, b1, b2, _] = sat_u32(frame.payload.len()).to_le_bytes();
        buf.push(b0);
        buf.push(b1);
        buf.push(b2);
        buf.push(frame.seq);
        buf.extend_from_slice(&frame.payload);
        Ok(())
    }

    fn max_frame_len(&self) -> usize {
        0xff_ffff
    }
}

/// Read a possibly-unterminated trailing string: everything up to the first
/// NUL (or the end), returning the text and the bytes after the NUL.
fn split_optional_cstring(rest: &[u8]) -> (String, &[u8]) {
    let nul = rest.iter().position(|&b| b == 0).unwrap_or(rest.len());
    let s = String::from_utf8_lossy(rest.get(..nul).unwrap_or_default()).into_owned();
    let tail = rest.get(nul + 1..).unwrap_or_default();
    (s, tail)
}

/// The server's initial handshake (greeting) packet, protocol version 10.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Greeting {
    /// Human-readable server version, e.g. `8.0.36`.
    pub server_version: String,
    /// Connection/thread id.
    pub thread_id: u32,
    /// 20-byte auth plugin challenge ("scramble").
    pub auth_data: [u8; 20],
    /// Advertised capability flags.
    pub capabilities: u32,
    /// Default authentication plugin name.
    pub auth_plugin: String,
}

impl Greeting {
    /// The greeting our honeypots send (matches a stock MySQL 8 banner).
    pub fn honeypot_default(thread_id: u32, auth_data: [u8; 20]) -> Self {
        Greeting {
            server_version: "8.0.36".into(),
            thread_id,
            auth_data,
            capabilities: CLIENT_PROTOCOL_41
                | CLIENT_SECURE_CONNECTION
                | CLIENT_PLUGIN_AUTH
                | CLIENT_CONNECT_WITH_DB,
            auth_plugin: "mysql_native_password".into(),
        }
    }

    /// Serialize into a packet payload.
    pub fn build(&self) -> Bytes {
        let (part1, part2) = self.auth_data.split_at(8);
        let [cap0, cap1, cap2, cap3] = self.capabilities.to_le_bytes();
        // decoy-lint: allow(alloc-vec) -- the greeting payload, one per session, sent before any peer byte is read
        let mut p = Vec::new();
        p.push(0x0a); // protocol version
        p.extend_from_slice(self.server_version.as_bytes());
        p.push(0);
        p.extend_from_slice(&self.thread_id.to_le_bytes());
        p.extend_from_slice(part1); // auth-plugin-data-part-1
        p.push(0); // filler
        p.push(cap0); // capabilities, low half
        p.push(cap1);
        p.push(0xff); // character set: utf8mb4
        p.extend_from_slice(&0x0002_u16.to_le_bytes()); // status: autocommit
        p.push(cap2); // capabilities, high half
        p.push(cap3);
        p.push(21); // length of auth plugin data
        p.extend_from_slice(&[0u8; 10]); // reserved
        p.extend_from_slice(part2); // part-2 (12 bytes)
        p.push(0); // part-2 terminator
        p.extend_from_slice(self.auth_plugin.as_bytes());
        p.push(0);
        Bytes::from(p)
    }

    /// Parse a greeting payload (client side).
    pub fn parse(payload: &[u8]) -> NetResult<Greeting> {
        let mut cur = ByteCursor::new(payload, WireProtocol::MySql);
        if cur.u8()? != 0x0a {
            return Err(WireError::new(
                WireProtocol::MySql,
                0,
                WireErrorKind::BadMagic {
                    what: "greeting protocol version",
                },
            )
            .into());
        }
        let server_version = cur.cstring_lossy()?;
        let thread_id = cur.u32_le()?;
        let mut auth_data = [0u8; 20];
        for (dst, src) in auth_data.iter_mut().zip(cur.take(8)?) {
            *dst = *src;
        }
        cur.skip(1)?; // filler
        let cap_lo = u32::from(cur.u16_le()?);
        cur.skip(1)?; // charset
        cur.skip(2)?; // status
        let cap_hi = u32::from(cur.u16_le()?);
        cur.skip(1)?; // auth data length
        cur.skip(10)?; // reserved
        for (dst, src) in auth_data.iter_mut().skip(8).zip(cur.take(12)?) {
            *dst = *src;
        }
        cur.skip(1)?; // part-2 terminator
        let (auth_plugin, _) = split_optional_cstring(cur.rest());
        Ok(Greeting {
            server_version,
            thread_id,
            auth_data,
            capabilities: cap_lo | (cap_hi << 16),
            auth_plugin,
        })
    }
}

/// The client's `HandshakeResponse41` — this is where credentials appear.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoginRequest {
    /// Capability flags echoed by the client.
    pub capabilities: u32,
    /// Username, as typed by the attacker.
    pub username: String,
    /// Raw auth response: cleartext password (clear-password plugin, with a
    /// trailing NUL) or a 20-byte native-password scramble.
    pub auth_response: Bytes,
    /// Optional initial database.
    pub database: Option<String>,
    /// Client auth plugin name, when announced.
    pub auth_plugin: Option<String>,
}

impl LoginRequest {
    /// The password as the honeypot logs it: cleartext when recoverable,
    /// otherwise the hex of the scramble (what Qeeqbox-style honeypots do).
    pub fn password_observed(&self) -> String {
        let is_clear = self
            .auth_plugin
            .as_deref()
            .map(|p| p == "mysql_clear_password")
            .unwrap_or(false);
        if is_clear {
            let raw = self
                .auth_response
                .strip_suffix(&[0u8])
                .unwrap_or(&self.auth_response);
            String::from_utf8_lossy(raw).into_owned()
        } else if self.auth_response.is_empty() {
            String::new()
        } else {
            use std::fmt::Write as _;
            let mut hex = String::with_capacity(self.auth_response.len() * 2);
            for b in self.auth_response.iter() {
                let _ = write!(hex, "{b:02x}"); // writing to a String is infallible
            }
            hex
        }
    }

    /// Build a cleartext-plugin login (the form brute-force drivers use).
    pub fn cleartext(username: &str, password: &str, database: Option<&str>) -> Self {
        // decoy-lint: allow(alloc-vec) -- the client's credential, built once per login attempt
        let mut auth = Vec::with_capacity(password.len().saturating_add(1));
        auth.extend_from_slice(password.as_bytes());
        auth.push(0);
        LoginRequest {
            capabilities: CLIENT_PROTOCOL_41
                | CLIENT_SECURE_CONNECTION
                | CLIENT_PLUGIN_AUTH
                | if database.is_some() {
                    CLIENT_CONNECT_WITH_DB
                } else {
                    0
                },
            username: username.into(),
            auth_response: Bytes::from(auth),
            database: database.map(String::from),
            auth_plugin: Some("mysql_clear_password".into()),
        }
    }

    /// Serialize into a packet payload.
    pub fn build(&self) -> Bytes {
        // decoy-lint: allow(alloc-vec) -- the client's login payload, one per login attempt
        let mut p = Vec::new();
        p.extend_from_slice(&self.capabilities.to_le_bytes());
        p.extend_from_slice(&(16u32 << 20).to_le_bytes()); // max packet size
        p.push(0xff); // charset
        p.extend_from_slice(&[0u8; 23]);
        p.extend_from_slice(self.username.as_bytes());
        p.push(0);
        // length-encoded auth response (secure connection form)
        p.push(sat_u8(self.auth_response.len()));
        p.extend_from_slice(&self.auth_response);
        if let Some(db) = &self.database {
            p.extend_from_slice(db.as_bytes());
            p.push(0);
        }
        if let Some(plugin) = &self.auth_plugin {
            p.extend_from_slice(plugin.as_bytes());
            p.push(0);
        }
        Bytes::from(p)
    }

    /// Parse a `HandshakeResponse41` payload (server side).
    pub fn parse(payload: &[u8]) -> NetResult<LoginRequest> {
        let mut cur = ByteCursor::new(payload, WireProtocol::MySql);
        let capabilities = cur.u32_le()?;
        if capabilities & CLIENT_PROTOCOL_41 == 0 {
            return Err(WireError::new(
                WireProtocol::MySql,
                0,
                WireErrorKind::Malformed {
                    detail: "pre-4.1 clients unsupported",
                },
            )
            .into());
        }
        cur.skip(4)?; // max packet size
        cur.skip(1)?; // charset
        cur.skip(23)?; // reserved filler
        let username = cur.cstring_lossy()?;
        let auth_len = usize::from(cur.u8()?);
        // Bounded copy (≤ 255 bytes): the credential must outlive the frame.
        let auth_response = Bytes::copy_from_slice(cur.take(auth_len)?);
        let mut rest = cur.rest();
        let database = if capabilities & CLIENT_CONNECT_WITH_DB != 0 && !rest.is_empty() {
            let (db, tail) = split_optional_cstring(rest);
            rest = tail;
            if db.is_empty() {
                None
            } else {
                Some(db)
            }
        } else {
            None
        };
        let auth_plugin = if capabilities & CLIENT_PLUGIN_AUTH != 0 && !rest.is_empty() {
            let (plugin, _) = split_optional_cstring(rest);
            Some(plugin)
        } else {
            None
        };
        Ok(LoginRequest {
            capabilities,
            username,
            auth_response,
            database,
            auth_plugin,
        })
    }
}

/// Build an `ERR` packet payload.
pub fn build_err(code: u16, sql_state: &str, message: &str) -> Bytes {
    // decoy-lint: allow(alloc-vec) -- the payload is the returned frame; build_err_into writes into a caller's buffer
    let mut p = Vec::new();
    build_err_into(code, sql_state, message, &mut p);
    Bytes::from(p)
}

/// Append an `ERR` packet payload to a caller-provided (pooled) buffer.
pub fn build_err_into(code: u16, sql_state: &str, message: &str, p: &mut Vec<u8>) {
    let start = p.len();
    p.push(0xff);
    p.extend_from_slice(&code.to_le_bytes());
    p.push(b'#');
    let state = sql_state.as_bytes();
    p.extend_from_slice(state.get(..5.min(state.len())).unwrap_or_default());
    while p.len() < start + 4 + 5 {
        p.push(b'0');
    }
    p.extend_from_slice(message.as_bytes());
}

/// The access-denied error a real server sends for a failed login.
pub fn access_denied(user: &str, host: &str, using_password: bool) -> Bytes {
    use std::io::Write as _;
    // decoy-lint: allow(alloc-vec) -- one error payload per refused login
    let mut p = Vec::new();
    p.push(0xff);
    p.extend_from_slice(&1045u16.to_le_bytes());
    p.push(b'#');
    p.extend_from_slice(b"28000");
    // render the message straight into the payload buffer — no temporary String
    let _ = write!(
        p,
        "Access denied for user '{user}'@'{host}' (using password: {})",
        if using_password { "YES" } else { "NO" }
    );
    Bytes::from(p)
}

/// The `OK` packet payload (static: it never varies).
pub fn build_ok() -> Bytes {
    Bytes::from_static(&[0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00])
}

/// Classify a post-auth command payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MySqlCommand {
    /// `COM_QUERY` with the SQL text.
    Query(String),
    /// `COM_QUIT`.
    Quit,
    /// `COM_PING`.
    Ping,
    /// Anything else, preserved raw as a zero-copy view of the payload.
    Other(u8, Bytes),
}

/// Parse a command-phase packet payload. Takes the packet's `Bytes` so the
/// `Other` arm can hold a zero-copy sub-view rather than a copy.
pub fn parse_command(payload: &Bytes) -> NetResult<MySqlCommand> {
    let Some((&op, rest)) = payload.split_first() else {
        return Err(WireError::new(
            WireProtocol::MySql,
            0,
            WireErrorKind::Malformed {
                detail: "empty command packet",
            },
        )
        .into());
    };
    Ok(match op {
        0x03 => MySqlCommand::Query(String::from_utf8_lossy(rest).into_owned()),
        0x01 => MySqlCommand::Quit,
        0x0e => MySqlCommand::Ping,
        other => MySqlCommand::Other(other, payload.slice_ref(rest)),
    })
}

/// Parse an ERR payload (client side), returning `(code, message)`.
pub fn parse_err(payload: &[u8]) -> Option<(u16, String)> {
    if payload.len() < 9 {
        return None;
    }
    let mut cur = ByteCursor::new(payload, WireProtocol::MySql);
    if cur.u8().ok()? != 0xff {
        return None;
    }
    let code = cur.u16_le().ok()?;
    if cur.peek_u8() == Some(b'#') {
        cur.skip(6).ok()?; // '#' + 5-char SQL state
    }
    Some((code, String::from_utf8_lossy(cur.rest()).into_owned()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_codec_roundtrip_and_partials() {
        let mut c = MySqlCodec;
        let pkt = MySqlPacket {
            seq: 1,
            payload: Bytes::from_static(&[1, 2, 3, 4, 5]),
        };
        let mut buf = Vec::new();
        c.encode(&pkt, &mut buf).unwrap();
        for cut in 1..buf.len() {
            let mut partial = RecvBuf::from(buf[..cut].to_vec());
            assert!(c.decode(&mut partial).unwrap().is_none());
        }
        assert_eq!(c.decode(&mut RecvBuf::from(buf)).unwrap().unwrap(), pkt);
    }

    #[test]
    fn greeting_roundtrip() {
        let g = Greeting::honeypot_default(7, *b"abcdefghijklmnopqrst");
        let parsed = Greeting::parse(&g.build()).unwrap();
        assert_eq!(parsed, g);
        assert_eq!(parsed.server_version, "8.0.36");
        assert_eq!(parsed.auth_plugin, "mysql_native_password");
    }

    #[test]
    fn login_request_roundtrip_cleartext() {
        let login = LoginRequest::cleartext("root", "aaaaaa", Some("mysql"));
        let parsed = LoginRequest::parse(&login.build()).unwrap();
        assert_eq!(parsed.username, "root");
        assert_eq!(parsed.password_observed(), "aaaaaa");
        assert_eq!(parsed.database.as_deref(), Some("mysql"));
        assert_eq!(parsed.auth_plugin.as_deref(), Some("mysql_clear_password"));
    }

    #[test]
    fn native_password_is_logged_as_hex() {
        let login = LoginRequest {
            capabilities: CLIENT_PROTOCOL_41 | CLIENT_SECURE_CONNECTION | CLIENT_PLUGIN_AUTH,
            username: "sa".into(),
            auth_response: Bytes::from_static(&[0xde, 0xad]),
            database: None,
            auth_plugin: Some("mysql_native_password".into()),
        };
        let parsed = LoginRequest::parse(&login.build()).unwrap();
        assert_eq!(parsed.password_observed(), "dead");
    }

    #[test]
    fn empty_password_observed_as_empty() {
        let login = LoginRequest::cleartext("root", "", None);
        let parsed = LoginRequest::parse(&login.build()).unwrap();
        assert_eq!(parsed.password_observed(), "");
    }

    #[test]
    fn err_packet_build_and_parse() {
        let payload = access_denied("root", "10.0.0.1", true);
        let (code, msg) = parse_err(&payload).unwrap();
        assert_eq!(code, 1045);
        assert!(msg.contains("Access denied for user 'root'@'10.0.0.1'"));
        assert!(msg.contains("using password: YES"));
        assert_eq!(parse_err(&build_ok()), None);
    }

    #[test]
    fn command_parsing() {
        let mut q = vec![0x03];
        q.extend_from_slice(b"SELECT @@version");
        assert_eq!(
            parse_command(&Bytes::from(q)).unwrap(),
            MySqlCommand::Query("SELECT @@version".into())
        );
        assert_eq!(
            parse_command(&Bytes::from_static(&[0x01])).unwrap(),
            MySqlCommand::Quit
        );
        assert_eq!(
            parse_command(&Bytes::from_static(&[0x0e])).unwrap(),
            MySqlCommand::Ping
        );
        let other = parse_command(&Bytes::from_static(&[0x1b, 9])).unwrap();
        assert!(matches!(other, MySqlCommand::Other(0x1b, ref b) if b[..] == [9]));
        assert!(parse_command(&Bytes::default()).is_err());
    }

    #[test]
    fn rejects_pre41_clients_and_short_packets() {
        assert!(LoginRequest::parse(&[0u8; 40]).is_err());
        assert!(LoginRequest::parse(&[0u8; 4]).is_err());
        assert!(Greeting::parse(b"\x09garbage").is_err());
    }

    #[test]
    fn truncated_login_reports_mysql_offsets() {
        // capabilities announce 4.1, then the packet ends mid-filler
        let mut payload = vec![];
        payload.extend_from_slice(&CLIENT_PROTOCOL_41.to_le_bytes());
        payload.extend_from_slice(&[0u8; 6]);
        let err = LoginRequest::parse(&payload).unwrap_err();
        match err {
            crate::error::NetError::Wire(w) => {
                assert_eq!(w.protocol, WireProtocol::MySql);
                assert!(matches!(w.kind, WireErrorKind::Truncated { .. }));
            }
            other => panic!("expected wire error, got {other:?}"),
        }
    }
}
