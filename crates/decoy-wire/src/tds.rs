//! TDS — the Microsoft SQL Server Tabular Data Stream protocol.
//!
//! Implements the parts a low-interaction MSSQL honeypot and brute-force
//! clients exercise: the packet transport, `PRELOGIN` negotiation, the
//! `LOGIN7` record (including the password obfuscation: swap nibbles, XOR
//! `0xA5` — which is why MSSQL honeypots can log cleartext credentials, and
//! why Table 12 of the paper exists), and the token-stream error response
//! (`Login failed for user ...`, error 18456).
//!
//! All parse paths are total: attacker-declared offsets and lengths are
//! bounds-checked with `.get()` before any read, and violations become
//! structured [`crate::error::WireError`] values.

// decoy-hot-path: file -- per-packet decode/encode, one call per wire message

use crate::buf::{Bytes, RecvBuf};
use crate::codec::Codec;
use crate::cursor::{sat_u16, sat_u32, sat_u8, usize_from};
use crate::error::{NetError, NetResult, WireError, WireErrorKind, WireProtocol};
use std::fmt::Write as _;

/// Packet type: PRELOGIN.
pub const PKT_PRELOGIN: u8 = 0x12;
/// Packet type: LOGIN7.
pub const PKT_LOGIN7: u8 = 0x10;
/// Packet type: SQL batch.
pub const PKT_SQL_BATCH: u8 = 0x01;
/// Packet type: tabular result (server → client).
pub const PKT_RESPONSE: u8 = 0x04;

/// Shorthand for a TDS wire error at `offset`.
fn terr(offset: usize, kind: WireErrorKind) -> NetError {
    WireError::new(WireProtocol::Tds, offset, kind).into()
}

/// One TDS packet. `status = 0x01` marks end-of-message; this codec treats
/// each packet as one frame (fine for login-sized exchanges).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TdsPacket {
    /// Packet type byte.
    pub ptype: u8,
    /// Status bits (0x01 = EOM).
    pub status: u8,
    /// Payload after the 8-byte header (a zero-copy view of the read
    /// buffer on decode).
    pub payload: Bytes,
}

impl TdsPacket {
    /// A single end-of-message packet.
    pub fn eom(ptype: u8, payload: impl Into<Bytes>) -> Self {
        TdsPacket {
            ptype,
            status: 0x01,
            payload: payload.into(),
        }
    }
}

/// TDS packet transport codec.
#[derive(Debug, Clone, Default)]
pub struct TdsCodec;

impl Codec for TdsCodec {
    type In = TdsPacket;
    type Out = TdsPacket;

    fn decode(&mut self, buf: &mut RecvBuf) -> NetResult<Option<TdsPacket>> {
        let Some(&[ptype, status, l0, l1, _, _, _, _]) = buf.first_chunk::<8>() else {
            return Ok(None);
        };
        let len = usize::from(u16::from_be_bytes([l0, l1]));
        if len < 8 {
            return Err(terr(
                2,
                WireErrorKind::Malformed {
                    detail: "tds length below header size",
                },
            ));
        }
        if len > self.max_frame_len().min(crate::MAX_FRAME) {
            return Err(terr(
                2,
                WireErrorKind::LengthOutOfRange {
                    declared: len as u64,
                    max: self.max_frame_len() as u64,
                },
            ));
        }
        if buf.len() < len {
            return Ok(None);
        }
        buf.advance(8);
        let payload = buf.split_to(len - 8);
        Ok(Some(TdsPacket {
            ptype,
            status,
            payload,
        }))
    }

    fn encode(&mut self, frame: &TdsPacket, buf: &mut Vec<u8>) -> NetResult<()> {
        let total = 8usize.saturating_add(frame.payload.len());
        if total > usize::from(u16::MAX) {
            return Err(NetError::protocol("tds payload too large for one packet"));
        }
        buf.push(frame.ptype);
        buf.push(frame.status);
        buf.extend_from_slice(&sat_u16(total).to_be_bytes());
        buf.extend_from_slice(&0u16.to_be_bytes()); // spid
        buf.push(1); // packet id
        buf.push(0); // window
        buf.extend_from_slice(&frame.payload);
        Ok(())
    }

    fn max_frame_len(&self) -> usize {
        usize::from(u16::MAX)
    }
}

// --- UCS-2 helpers ---------------------------------------------------------

/// Encode text as UCS-2 LE (BMP only, which covers observed credentials).
pub fn ucs2_encode(s: &str) -> Vec<u8> {
    s.encode_utf16().flat_map(u16::to_le_bytes).collect()
}

/// Decode UCS-2 LE text (lossy).
pub fn ucs2_decode(bytes: &[u8]) -> String {
    let units: Vec<u16> = bytes
        .chunks_exact(2)
        .map(|c| c.first_chunk::<2>().map_or(0, |a| u16::from_le_bytes(*a)))
        .collect();
    String::from_utf16_lossy(&units)
}

/// The LOGIN7 password obfuscation: per byte, swap nibbles then XOR `0xA5`.
/// Involution-free but trivially reversible via [`password_demangle`].
pub fn password_mangle(ucs2: &[u8]) -> Vec<u8> {
    ucs2.iter().map(|&b| b.rotate_left(4) ^ 0xA5).collect()
}

/// Invert [`password_mangle`].
pub fn password_demangle(mangled: &[u8]) -> Vec<u8> {
    mangled.iter().map(|&b| (b ^ 0xA5).rotate_left(4)).collect()
}

// --- PRELOGIN --------------------------------------------------------------

/// A PRELOGIN option: `(token, data)`. The data is a zero-copy view of the
/// packet payload on parse.
pub type PreloginOption = (u8, Bytes);

/// Parse a PRELOGIN payload into its option list. Option data is shared
/// out of `payload` without copying.
pub fn parse_prelogin(payload: &Bytes) -> NetResult<Vec<PreloginOption>> {
    // decoy-lint: allow(alloc-vec) -- prelogin happens once per session
    let mut options = Vec::new();
    let mut idx = 0usize;
    loop {
        let Some(&token) = payload.get(idx) else {
            return Err(terr(
                idx,
                WireErrorKind::Unterminated {
                    what: "prelogin option list",
                },
            ));
        };
        if token == 0xff {
            break;
        }
        let Some(&[_, o0, o1, n0, n1]) = payload.get(idx..).and_then(|t| t.first_chunk::<5>())
        else {
            return Err(terr(
                idx,
                WireErrorKind::Truncated {
                    needed: 5,
                    available: payload.len().saturating_sub(idx),
                },
            ));
        };
        let offset = usize::from(u16::from_be_bytes([o0, o1]));
        let length = usize::from(u16::from_be_bytes([n0, n1]));
        let Some(data) = offset
            .checked_add(length)
            .and_then(|end| payload.get(offset..end))
        else {
            return Err(terr(
                idx + 1,
                WireErrorKind::Malformed {
                    detail: "prelogin option overruns payload",
                },
            ));
        };
        options.push((token, payload.slice_ref(data)));
        idx += 5;
        if options.len() > 16 {
            return Err(terr(idx, WireErrorKind::TooManyElements { limit: 16 }));
        }
    }
    Ok(options)
}

/// Build a PRELOGIN payload from options. The option table and data render
/// into one sized buffer in a single pass each — no staging vectors.
pub fn build_prelogin(options: &[PreloginOption]) -> Bytes {
    let header_len = options.len() * 5 + 1;
    let data_len: usize = options.iter().map(|(_, b)| b.len()).sum();
    // decoy-lint: allow(alloc-vec) -- one prelogin payload per session
    let mut p = Vec::with_capacity(header_len + data_len);
    let mut offset = header_len;
    for (token, bytes) in options {
        p.push(*token);
        p.extend_from_slice(&sat_u16(offset).to_be_bytes());
        p.extend_from_slice(&sat_u16(bytes.len()).to_be_bytes());
        offset += bytes.len();
    }
    p.push(0xff);
    for (_, bytes) in options {
        p.extend_from_slice(bytes);
    }
    Bytes::from(p)
}

/// The PRELOGIN response our honeypot sends: SQL Server 2019 version token
/// and "encryption not supported" (keeps brute-forcers in cleartext).
pub fn honeypot_prelogin_response() -> Bytes {
    build_prelogin(&[
        (0x00, Bytes::from_static(&[15, 0, 0x08, 0x0b, 0, 0])), // VERSION 15.0.2091
        (0x01, Bytes::from_static(&[2])),                       // ENCRYPT_NOT_SUP
        (0x02, Bytes::from_static(&[0])),                       // INSTOPT
        (0x03, Bytes::from_static(&[0, 0, 0, 0])),              // THREADID
        (0x04, Bytes::from_static(&[0])),                       // MARS off
    ])
}

// --- LOGIN7 ----------------------------------------------------------------

/// The parsed LOGIN7 record — the honeypot's credential capture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Login7 {
    /// Client host name.
    pub hostname: String,
    /// Login username (`sa` in most observed attacks).
    pub username: String,
    /// Deobfuscated cleartext password.
    pub password: String,
    /// Client application name.
    pub appname: String,
    /// Target server name as the client believes it.
    pub servername: String,
    /// Requested database.
    pub database: String,
}

const LOGIN7_FIXED: usize = 94;

impl Login7 {
    /// Serialize into a LOGIN7 payload.
    #[allow(
        clippy::disallowed_macros,
        reason = "a debug-build check of the client encoder's own fixed layout; no peer byte \
                  reaches it"
    )]
    pub fn build(&self) -> Bytes {
        let fields = [
            ucs2_encode(&self.hostname),
            ucs2_encode(&self.username),
            password_mangle(&ucs2_encode(&self.password)),
            ucs2_encode(&self.appname),
            ucs2_encode(&self.servername),
            ucs2_encode(""), // unused / extension
            ucs2_encode("ODBC"),
            ucs2_encode(""), // language
            ucs2_encode(&self.database),
        ];
        let var_len: usize = fields.iter().map(Vec::len).sum();
        let total = LOGIN7_FIXED + var_len;
        // decoy-lint: allow(alloc-vec) -- the client's LOGIN7 payload, one per login attempt
        let mut p = Vec::with_capacity(total);
        p.extend_from_slice(&sat_u32(total).to_le_bytes());
        p.extend_from_slice(&0x7400_0004_u32.to_le_bytes()); // TDS 7.4
        p.extend_from_slice(&4096u32.to_le_bytes()); // packet size
        p.extend_from_slice(&7u32.to_le_bytes()); // client prog version
        p.extend_from_slice(&1000u32.to_le_bytes()); // client pid
        p.extend_from_slice(&0u32.to_le_bytes()); // connection id
        p.push(0xe0); // option flags 1
        p.push(0x03); // option flags 2
        p.push(0); // type flags
        p.push(0); // option flags 3
        p.extend_from_slice(&0i32.to_le_bytes()); // timezone
        p.extend_from_slice(&0x0409_u32.to_le_bytes()); // LCID en-US
        let mut offset = LOGIN7_FIXED;
        for f in &fields {
            p.extend_from_slice(&sat_u16(offset).to_le_bytes());
            p.extend_from_slice(&sat_u16(f.len() / 2).to_le_bytes());
            offset += f.len();
        }
        p.extend_from_slice(&[0, 1, 2, 3, 4, 5]); // client MAC
        p.extend_from_slice(&0u16.to_le_bytes()); // SSPI offset
        p.extend_from_slice(&0u16.to_le_bytes()); // SSPI length
        p.extend_from_slice(&0u16.to_le_bytes()); // AtchDBFile
        p.extend_from_slice(&0u16.to_le_bytes());
        p.extend_from_slice(&0u16.to_le_bytes()); // ChangePassword
        p.extend_from_slice(&0u16.to_le_bytes());
        p.extend_from_slice(&0u32.to_le_bytes()); // cbSSPILong
        debug_assert_eq!(p.len(), LOGIN7_FIXED);
        for f in &fields {
            p.extend_from_slice(f);
        }
        Bytes::from(p)
    }

    /// Parse a LOGIN7 payload, deobfuscating the password.
    pub fn parse(payload: &[u8]) -> NetResult<Login7> {
        if payload.len() < LOGIN7_FIXED {
            return Err(terr(
                0,
                WireErrorKind::Truncated {
                    needed: LOGIN7_FIXED,
                    available: payload.len(),
                },
            ));
        }
        let declared = payload
            .first_chunk::<4>()
            .map_or(0usize, |a| usize_from(u32::from_le_bytes(*a)));
        if declared > payload.len() {
            return Err(terr(
                0,
                WireErrorKind::LengthOutOfRange {
                    declared: declared as u64,
                    max: payload.len() as u64,
                },
            ));
        }
        let read_field = |pair_index: usize, mangled: bool| -> NetResult<String> {
            let base = 36 + pair_index * 4;
            let Some(&[o0, o1, c0, c1]) = payload.get(base..).and_then(|t| t.first_chunk::<4>())
            else {
                return Err(terr(
                    base,
                    WireErrorKind::Truncated {
                        needed: 4,
                        available: payload.len().saturating_sub(base),
                    },
                ));
            };
            let off = usize::from(u16::from_le_bytes([o0, o1]));
            let chars = usize::from(u16::from_le_bytes([c0, c1]));
            if chars == 0 {
                return Ok(String::new());
            }
            let bytes_len = chars * 2;
            let Some(raw) = off
                .checked_add(bytes_len)
                .and_then(|end| payload.get(off..end))
            else {
                return Err(terr(
                    base,
                    WireErrorKind::Malformed {
                        detail: "login7 field overruns packet",
                    },
                ));
            };
            if mangled {
                Ok(ucs2_decode(&password_demangle(raw)))
            } else {
                Ok(ucs2_decode(raw))
            }
        };
        Ok(Login7 {
            hostname: read_field(0, false)?,
            username: read_field(1, false)?,
            password: read_field(2, true)?,
            appname: read_field(3, false)?,
            servername: read_field(4, false)?,
            database: read_field(8, false)?,
        })
    }
}

// --- Server token stream ---------------------------------------------------

/// Token: ERROR.
pub const TOKEN_ERROR: u8 = 0xAA;
/// Token: LOGINACK.
pub const TOKEN_LOGINACK: u8 = 0xAD;
/// Token: DONE.
pub const TOKEN_DONE: u8 = 0xFD;

/// Build the token-stream payload for a failed login (error 18456).
pub fn build_login_failed(username: &str) -> Bytes {
    let mut msg = String::with_capacity(28_usize.saturating_add(username.len()));
    let _ = write!(msg, "Login failed for user '{username}'.");
    let msg_ucs2 = ucs2_encode(&msg);
    let server = ucs2_encode("HONEYDB");
    // ERROR token body: number(4) state(1) class(1) msg-len(2) msg
    // server-len(1) server proc-len(1) line(4).
    let body_len = 14_usize
        .saturating_add(msg_ucs2.len())
        .saturating_add(server.len());
    // decoy-lint: allow(alloc-vec) -- one error payload per refused login
    let mut p = Vec::with_capacity(body_len.saturating_add(16));
    p.push(TOKEN_ERROR);
    p.extend_from_slice(&sat_u16(body_len).to_le_bytes());
    p.extend_from_slice(&18456i32.to_le_bytes()); // error number
    p.push(1); // state
    p.push(14); // class/severity
    p.extend_from_slice(&sat_u16(msg.encode_utf16().count()).to_le_bytes());
    p.extend_from_slice(&msg_ucs2);
    p.push(sat_u8(server.len() / 2));
    p.extend_from_slice(&server);
    p.push(0); // proc name length
    p.extend_from_slice(&1u32.to_le_bytes()); // line number
                                              // DONE token: error, no count
    p.push(TOKEN_DONE);
    p.extend_from_slice(&0x0002_u16.to_le_bytes()); // status: DONE_ERROR
    p.extend_from_slice(&0u16.to_le_bytes());
    p.extend_from_slice(&0u64.to_le_bytes());
    Bytes::from(p)
}

/// Extract the error message from a token-stream response (client side).
pub fn parse_error_token(payload: &[u8]) -> Option<(i32, String)> {
    let &[token, l0, l1] = payload.first_chunk::<3>()?;
    if token != TOKEN_ERROR {
        return None;
    }
    let len = usize::from(u16::from_le_bytes([l0, l1]));
    let body = payload.get(3..3 + len)?;
    let number = i32::from_le_bytes(*body.first_chunk::<4>()?);
    let &[m0, m1] = body.get(6..).and_then(|t| t.first_chunk::<2>())?;
    let msg_chars = usize::from(u16::from_le_bytes([m0, m1]));
    let msg = body.get(8..8 + msg_chars * 2)?;
    Some((number, ucs2_decode(msg)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_codec_roundtrip_and_partials() {
        let mut c = TdsCodec;
        let pkt = TdsPacket::eom(PKT_PRELOGIN, vec![0xff]);
        let mut buf = Vec::new();
        c.encode(&pkt, &mut buf).unwrap();
        assert_eq!(buf.len(), 9);
        for cut in 1..buf.len() {
            let mut partial = RecvBuf::from(buf[..cut].to_vec());
            assert!(c.decode(&mut partial).unwrap().is_none());
        }
        assert_eq!(c.decode(&mut RecvBuf::from(buf)).unwrap().unwrap(), pkt);
    }

    #[test]
    fn packet_codec_rejects_undersized_length() {
        let mut c = TdsCodec;
        let mut buf = RecvBuf::from([0x12u8, 0x01, 0x00, 0x04, 0, 0, 1, 0].to_vec());
        let err = c.decode(&mut buf).unwrap_err();
        match err {
            NetError::Wire(w) => {
                assert_eq!(w.protocol, WireProtocol::Tds);
                assert_eq!(w.offset, 2);
            }
            other => panic!("expected wire error, got {other:?}"),
        }
    }

    #[test]
    fn password_mangle_is_reversible() {
        for pw in ["", "123", "P@ssw0rd", "пароль", "密码"] {
            let ucs2 = ucs2_encode(pw);
            let mangled = password_mangle(&ucs2);
            if !pw.is_empty() {
                assert_ne!(mangled, ucs2, "mangling must change bytes for {pw:?}");
            }
            assert_eq!(password_demangle(&mangled), ucs2);
            assert_eq!(ucs2_decode(&password_demangle(&mangled)), pw);
        }
    }

    #[test]
    fn known_mangle_vector() {
        // 'a' = 0x61 0x00 in UCS-2 LE; swap(0x61)=0x16, ^0xA5 = 0xB3;
        // swap(0x00)=0x00, ^0xA5 = 0xA5.
        assert_eq!(password_mangle(&ucs2_encode("a")), vec![0xb3, 0xa5]);
    }

    #[test]
    fn prelogin_roundtrip() {
        let options = vec![
            (0x00u8, Bytes::from_static(&[15, 0, 0, 0, 0, 0])),
            (0x01u8, Bytes::from_static(&[0])),
            (0x04u8, Bytes::from_static(&[1])),
        ];
        let payload = build_prelogin(&options);
        assert_eq!(parse_prelogin(&payload).unwrap(), options);
        // the canned honeypot response parses too
        let resp = honeypot_prelogin_response();
        let parsed = parse_prelogin(&resp).unwrap();
        assert_eq!(parsed[0].0, 0x00);
        assert_eq!(parsed[1], (0x01, Bytes::from_static(&[2])));
    }

    #[test]
    fn prelogin_rejects_overruns() {
        // option pointing past the payload
        let bad = Bytes::from_static(&[0x00, 0x00, 0xff, 0x00, 0x10, 0xff]);
        assert!(parse_prelogin(&bad).is_err());
        assert!(parse_prelogin(&Bytes::from_static(&[0x00])).is_err());
    }

    #[test]
    fn login7_roundtrip_captures_credentials() {
        let login = Login7 {
            hostname: "DESKTOP-ATTACK".into(),
            username: "sa".into(),
            password: "P@ssw0rd".into(),
            appname: "sqlcmd".into(),
            servername: "203.0.113.5".into(),
            database: "master".into(),
        };
        let parsed = Login7::parse(&login.build()).unwrap();
        assert_eq!(parsed, login);
    }

    #[test]
    fn login7_empty_password() {
        // Table 12 row: user "hbv7" with empty password.
        let login = Login7 {
            hostname: "h".into(),
            username: "hbv7".into(),
            password: String::new(),
            appname: String::new(),
            servername: String::new(),
            database: String::new(),
        };
        let parsed = Login7::parse(&login.build()).unwrap();
        assert_eq!(parsed.username, "hbv7");
        assert_eq!(parsed.password, "");
    }

    #[test]
    fn login7_rejects_overruns() {
        let login = Login7 {
            hostname: "h".into(),
            username: "sa".into(),
            password: "123".into(),
            appname: String::new(),
            servername: String::new(),
            database: String::new(),
        };
        let mut bytes = login.build().to_vec();
        // Corrupt the username offset to point past the end.
        bytes[40] = 0xff;
        bytes[41] = 0xff;
        assert!(Login7::parse(&bytes).is_err());
        assert!(Login7::parse(&bytes[..50]).is_err());
    }

    #[test]
    fn login_failed_token_roundtrip() {
        let payload = build_login_failed("sa");
        let (number, msg) = parse_error_token(&payload).unwrap();
        assert_eq!(number, 18456);
        assert_eq!(msg, "Login failed for user 'sa'.");
        assert_eq!(parse_error_token(b"\x00junk"), None);
    }
}
