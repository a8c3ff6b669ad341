//! Redis RESP2 protocol (REdis Serialization Protocol).
//!
//! Implements the full RESP2 value grammar plus the *inline command* form
//! (bare text lines), which real Redis accepts and which several scanners in
//! the paper's dataset use (e.g. the JDWP probe of Listing 11 arrives as an
//! inline "command"). One [`RespCodec`] serves both directions: servers
//! decode client commands and encode replies; clients do the reverse.
//!
//! Parsing is total and index-free: every length an attacker declares is
//! range-checked against the codec's frame limit before any allocation, and
//! violations surface as [`crate::error::WireError`] values carrying the byte
//! offset of the damage.

// decoy-hot-path: file -- per-value decode/encode, one call per wire message

use crate::buf::{Bytes, RecvBuf};
use crate::codec::Codec;
use crate::error::{NetError, NetResult, WireError, WireErrorKind, WireProtocol};
use std::io::Write as _;

/// Nesting bound for arrays-of-arrays from hostile clients.
const MAX_DEPTH: u32 = 32;
/// Maximum declared element count for one array.
const MAX_ARRAY: i64 = 1 << 20;

/// A RESP2 value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RespValue {
    /// `+OK\r\n`
    Simple(String),
    /// `-ERR message\r\n`
    Error(String),
    /// `:42\r\n`
    Integer(i64),
    /// `$5\r\nhello\r\n` — the payload is a zero-copy view of the frame.
    Bulk(Bytes),
    /// `$-1\r\n`
    NullBulk,
    /// `*2\r\n...`
    Array(Vec<RespValue>),
    /// `*-1\r\n`
    NullArray,
    /// An inline command line, without its line ending (server-side decode
    /// only). Kept verbatim, a zero-copy view of the frame, so honeypots
    /// can log exactly what was thrown at the port.
    Inline(Bytes),
}

impl RespValue {
    /// Shorthand for a bulk string from text.
    pub fn bulk(s: impl AsRef<[u8]>) -> Self {
        RespValue::Bulk(Bytes::copy_from_slice(s.as_ref()))
    }

    /// Shorthand for a command array of bulk strings.
    pub fn command<S: AsRef<[u8]>>(parts: &[S]) -> Self {
        RespValue::Array(parts.iter().map(RespValue::bulk).collect())
    }

    /// The bulk payload as UTF-8 text, if this is a bulk value.
    pub fn as_text(&self) -> Option<String> {
        match self {
            RespValue::Bulk(b) | RespValue::Inline(b) => {
                Some(String::from_utf8_lossy(b).into_owned())
            }
            RespValue::Simple(s) => Some(s.to_owned()),
            _ => None,
        }
    }
}

/// A parsed client command: uppercased name plus raw arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RedisCommand {
    /// Command name, normalized to uppercase (`SET`, `CONFIG`, ...).
    pub name: String,
    /// Arguments, verbatim — zero-copy views of the decoded frame.
    pub args: Vec<Bytes>,
}

impl RedisCommand {
    /// Argument `i` as lossy UTF-8 text.
    pub fn arg_text(&self, i: usize) -> Option<String> {
        self.args
            .get(i)
            .map(|a| String::from_utf8_lossy(a).into_owned())
    }

    /// Render the command the way the paper's logs render it
    /// (space-joined, lossy UTF-8).
    pub fn render(&self) -> String {
        let extra: usize = self.args.iter().map(|a| a.len().saturating_add(1)).sum();
        let mut out = String::with_capacity(self.name.len().saturating_add(extra));
        out.push_str(&self.name);
        for a in &self.args {
            out.push(' ');
            out.push_str(&String::from_utf8_lossy(a));
        }
        out
    }
}

/// Convert a decoded value into a command, accepting both array and inline
/// forms. Returns `None` for values that cannot be a command (e.g. integers).
pub fn as_command(value: &RespValue) -> Option<RedisCommand> {
    match value {
        RespValue::Array(items) => {
            // decoy-lint: allow(alloc-vec) -- one argument vector per decoded command
            let mut parts = Vec::with_capacity(items.len());
            for item in items {
                match item {
                    // Shares the frame bytes; no payload copy.
                    // decoy-lint: allow(alloc-clone) -- a Bytes clone bumps a refcount
                    RespValue::Bulk(b) | RespValue::Inline(b) => parts.push(b.clone()),
                    RespValue::Simple(s) => parts.push(Bytes::copy_from_slice(s.as_bytes())),
                    _ => return None,
                }
            }
            if parts.is_empty() {
                return None;
            }
            let first = parts.remove(0);
            Some(RedisCommand {
                name: String::from_utf8_lossy(&first).to_uppercase(),
                args: parts,
            })
        }
        RespValue::Inline(line) => {
            // C's isspace, as real Redis splits an inline command.
            let space = |b: &u8| b.is_ascii_whitespace() || *b == 0x0b;
            let mut parts = line.split(space).filter(|p| !p.is_empty());
            let name = String::from_utf8_lossy(parts.next()?).to_uppercase();
            Some(RedisCommand {
                name,
                args: parts.map(|p| line.slice_ref(p)).collect(),
            })
        }
        _ => None,
    }
}

/// RESP2 codec. `server_mode` enables inline-command decoding for lines that
/// do not start with a RESP type byte.
#[derive(Debug, Clone)]
pub struct RespCodec {
    server_mode: bool,
    max_frame: usize,
}

impl RespCodec {
    /// Codec for the server side of a connection (accepts inline commands).
    pub fn server() -> Self {
        RespCodec {
            server_mode: true,
            max_frame: (4 << 20).min(crate::MAX_FRAME),
        }
    }

    /// Codec for the client side of a connection.
    pub fn client() -> Self {
        RespCodec {
            server_mode: false,
            max_frame: (4 << 20).min(crate::MAX_FRAME),
        }
    }
}

/// Shorthand for a RESP wire error at `offset`.
fn rerr(offset: usize, kind: WireErrorKind) -> NetError {
    WireError::new(WireProtocol::Resp, offset, kind).into()
}

/// Find `\r\n` starting at `from`; return the index of `\r`.
fn find_crlf(buf: &[u8], from: usize) -> Option<usize> {
    let tail = buf.get(from..)?;
    tail.windows(2).position(|w| w == b"\r\n").map(|p| p + from)
}

/// Parse the decimal integer in `bytes` (RESP length/integer line), located
/// at `offset` in the frame for error reporting.
fn parse_int(bytes: &[u8], offset: usize) -> NetResult<i64> {
    let s = std::str::from_utf8(bytes).map_err(|_| rerr(offset, WireErrorKind::InvalidUtf8))?;
    s.trim().parse::<i64>().map_err(|_| {
        rerr(
            offset,
            WireErrorKind::Malformed {
                detail: "bad RESP integer",
            },
        )
    })
}

/// Measure pass: find the byte length of one complete RESP value at the
/// front of `buf`, validating lengths and nesting, without building
/// anything. Returns `None` if the frame is incomplete — so partial reads
/// cost zero allocations. The build pass ([`parse_value`]) then runs over
/// an exact frozen frame and shares payload bytes out of it.
fn measure_value(buf: &[u8], base: usize, depth: u32, max_bulk: usize) -> NetResult<Option<usize>> {
    if depth > MAX_DEPTH {
        return Err(rerr(
            base,
            WireErrorKind::NestingTooDeep { limit: MAX_DEPTH },
        ));
    }
    let Some(&type_byte) = buf.first() else {
        return Ok(None);
    };
    match type_byte {
        b'+' | b'-' | b':' => {
            let Some(end) = find_crlf(buf, 1) else {
                return Ok(None);
            };
            if type_byte == b':' {
                parse_int(buf.get(1..end).unwrap_or_default(), base + 1)?;
            }
            Ok(Some(end + 2))
        }
        b'$' => {
            let Some(end) = find_crlf(buf, 1) else {
                return Ok(None);
            };
            let declared = parse_int(buf.get(1..end).unwrap_or_default(), base + 1)?;
            let header = end + 2;
            if declared < 0 {
                return Ok(Some(header));
            }
            let len = usize::try_from(declared)
                .ok()
                .filter(|&n| n <= max_bulk)
                .ok_or_else(|| {
                    rerr(
                        base + 1,
                        WireErrorKind::LengthOutOfRange {
                            declared: u64::try_from(declared).unwrap_or(u64::MAX),
                            max: u64::try_from(max_bulk).unwrap_or(u64::MAX),
                        },
                    )
                })?;
            let total = header + len + 2;
            if buf.len() < total {
                return Ok(None);
            }
            if buf.get(header + len..total) != Some(&b"\r\n"[..]) {
                return Err(rerr(
                    base + header + len,
                    WireErrorKind::Malformed {
                        detail: "bulk string missing CRLF terminator",
                    },
                ));
            }
            Ok(Some(total))
        }
        b'*' => {
            let Some(end) = find_crlf(buf, 1) else {
                return Ok(None);
            };
            let declared = parse_int(buf.get(1..end).unwrap_or_default(), base + 1)?;
            let mut consumed = end + 2;
            if declared < 0 {
                return Ok(Some(consumed));
            }
            if declared > MAX_ARRAY {
                return Err(rerr(
                    base + 1,
                    WireErrorKind::TooManyElements {
                        limit: u64::try_from(MAX_ARRAY).unwrap_or(u64::MAX),
                    },
                ));
            }
            let n = usize::try_from(declared).unwrap_or(0);
            for _ in 0..n {
                let tail = buf.get(consumed..).unwrap_or_default();
                match measure_value(tail, base + consumed, depth + 1, max_bulk)? {
                    Some(used) => consumed += used,
                    None => return Ok(None),
                }
            }
            Ok(Some(consumed))
        }
        _ => Err(rerr(
            base,
            WireErrorKind::BadMagic {
                what: "RESP type byte",
            },
        )),
    }
}

/// Build pass over a complete, already-measured frame. `frame` is the
/// frozen frame and `buf` a subslice of it at absolute offset `base`, so
/// bulk payloads are shared out of `frame` without copying. Returns
/// `(value, consumed)`; `None`/validation errors can only occur if the two
/// passes disagree, which [`RespCodec::decode`] treats as malformed.
fn parse_value(
    frame: &Bytes,
    buf: &[u8],
    base: usize,
    depth: u32,
    max_bulk: usize,
) -> NetResult<Option<(RespValue, usize)>> {
    if depth > MAX_DEPTH {
        return Err(rerr(
            base,
            WireErrorKind::NestingTooDeep { limit: MAX_DEPTH },
        ));
    }
    let Some(&type_byte) = buf.first() else {
        return Ok(None);
    };
    match type_byte {
        b'+' | b'-' | b':' => {
            let Some(end) = find_crlf(buf, 1) else {
                return Ok(None);
            };
            let body = buf.get(1..end).unwrap_or_default();
            let consumed = end + 2;
            let v = match type_byte {
                b'+' => RespValue::Simple(String::from_utf8_lossy(body).into_owned()),
                b'-' => RespValue::Error(String::from_utf8_lossy(body).into_owned()),
                _ => RespValue::Integer(parse_int(body, base + 1)?),
            };
            Ok(Some((v, consumed)))
        }
        b'$' => {
            let Some(end) = find_crlf(buf, 1) else {
                return Ok(None);
            };
            let declared = parse_int(buf.get(1..end).unwrap_or_default(), base + 1)?;
            let header = end + 2;
            if declared < 0 {
                return Ok(Some((RespValue::NullBulk, header)));
            }
            let len = usize::try_from(declared)
                .ok()
                .filter(|&n| n <= max_bulk)
                .ok_or_else(|| {
                    rerr(
                        base + 1,
                        WireErrorKind::LengthOutOfRange {
                            declared: u64::try_from(declared).unwrap_or(u64::MAX),
                            max: u64::try_from(max_bulk).unwrap_or(u64::MAX),
                        },
                    )
                })?;
            let total = header + len + 2;
            if buf.len() < total {
                return Ok(None);
            }
            let payload = buf.get(header..header + len).unwrap_or_default();
            Ok(Some((RespValue::Bulk(frame.slice_ref(payload)), total)))
        }
        b'*' => {
            let Some(end) = find_crlf(buf, 1) else {
                return Ok(None);
            };
            let declared = parse_int(buf.get(1..end).unwrap_or_default(), base + 1)?;
            let mut consumed = end + 2;
            if declared < 0 {
                return Ok(Some((RespValue::NullArray, consumed)));
            }
            if declared > MAX_ARRAY {
                return Err(rerr(
                    base + 1,
                    WireErrorKind::TooManyElements {
                        limit: u64::try_from(MAX_ARRAY).unwrap_or(u64::MAX),
                    },
                ));
            }
            let n = usize::try_from(declared).unwrap_or(0);
            // decoy-lint: allow(alloc-vec) -- decoded array elements; count validated by the measure pass
            let mut items = Vec::with_capacity(n.min(64));
            for _ in 0..n {
                let tail = buf.get(consumed..).unwrap_or_default();
                match parse_value(frame, tail, base + consumed, depth + 1, max_bulk)? {
                    Some((item, used)) => {
                        items.push(item);
                        consumed += used;
                    }
                    None => return Ok(None),
                }
            }
            Ok(Some((RespValue::Array(items), consumed)))
        }
        _ => Err(rerr(
            base,
            WireErrorKind::BadMagic {
                what: "RESP type byte",
            },
        )),
    }
}

impl Codec for RespCodec {
    type In = RespValue;
    type Out = RespValue;

    fn decode(&mut self, buf: &mut RecvBuf) -> NetResult<Option<RespValue>> {
        let Some(&first) = buf.first() else {
            return Ok(None);
        };
        // Inline commands: anything not starting with a RESP type byte.
        let is_resp = matches!(first, b'+' | b'-' | b':' | b'$' | b'*');
        if self.server_mode && !is_resp {
            let Some(pos) = buf.iter().position(|&b| b == b'\n') else {
                return Ok(None);
            };
            let frame = buf.split_to(pos + 1);
            let line = frame.get(..pos).unwrap_or_default();
            let line = line.strip_suffix(b"\r").unwrap_or(line);
            return Ok(Some(RespValue::Inline(frame.slice_ref(line))));
        }
        let Some(consumed) = measure_value(buf, 0, 0, self.max_frame)? else {
            return Ok(None);
        };
        // The measure pass fixed the exact frame length; detach it as a
        // shared view and build values whose bulk payloads borrow from it.
        let frame = buf.split_to(consumed);
        match parse_value(&frame, &frame, 0, 0, self.max_frame)? {
            Some((value, _)) => Ok(Some(value)),
            None => Err(rerr(
                0,
                WireErrorKind::Malformed {
                    detail: "frame incomplete after measurement",
                },
            )),
        }
    }

    fn encode(&mut self, frame: &RespValue, buf: &mut Vec<u8>) -> NetResult<()> {
        encode_value(frame, buf);
        Ok(())
    }

    fn max_frame_len(&self) -> usize {
        self.max_frame
    }
}

fn encode_value(v: &RespValue, buf: &mut Vec<u8>) {
    match v {
        RespValue::Simple(s) => {
            buf.extend_from_slice(b"+");
            buf.extend_from_slice(s.as_bytes());
            buf.extend_from_slice(b"\r\n");
        }
        RespValue::Error(s) => {
            buf.extend_from_slice(b"-");
            buf.extend_from_slice(s.as_bytes());
            buf.extend_from_slice(b"\r\n");
        }
        RespValue::Integer(i) => {
            // `write!` renders straight into the output buffer; no
            // intermediate string.
            let _ = write!(buf, ":{i}\r\n");
        }
        RespValue::Bulk(b) => {
            let _ = write!(buf, "${}\r\n", b.len());
            buf.extend_from_slice(b);
            buf.extend_from_slice(b"\r\n");
        }
        RespValue::NullBulk => buf.extend_from_slice(b"$-1\r\n"),
        RespValue::Array(items) => {
            let _ = write!(buf, "*{}\r\n", items.len());
            for item in items {
                encode_value(item, buf);
            }
        }
        RespValue::NullArray => buf.extend_from_slice(b"*-1\r\n"),
        // Inline values re-encode as the raw line (client replay of captures).
        RespValue::Inline(line) => {
            buf.extend_from_slice(line);
            buf.extend_from_slice(b"\r\n");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode_one(codec: &mut RespCodec, bytes: &[u8]) -> NetResult<Option<RespValue>> {
        let mut buf = RecvBuf::from(bytes.to_vec());
        codec.decode(&mut buf)
    }

    #[test]
    fn decodes_scalar_types() {
        let mut c = RespCodec::client();
        assert_eq!(
            decode_one(&mut c, b"+OK\r\n").unwrap(),
            Some(RespValue::Simple("OK".into()))
        );
        assert_eq!(
            decode_one(&mut c, b"-ERR nope\r\n").unwrap(),
            Some(RespValue::Error("ERR nope".into()))
        );
        assert_eq!(
            decode_one(&mut c, b":-7\r\n").unwrap(),
            Some(RespValue::Integer(-7))
        );
        assert_eq!(
            decode_one(&mut c, b"$3\r\nfoo\r\n").unwrap(),
            Some(RespValue::bulk("foo"))
        );
        assert_eq!(
            decode_one(&mut c, b"$-1\r\n").unwrap(),
            Some(RespValue::NullBulk)
        );
        assert_eq!(
            decode_one(&mut c, b"*-1\r\n").unwrap(),
            Some(RespValue::NullArray)
        );
    }

    #[test]
    fn decodes_nested_arrays_incrementally() {
        let mut c = RespCodec::server();
        let full = b"*2\r\n$3\r\nGET\r\n$1\r\nx\r\n";
        // every prefix is incomplete, the full buffer decodes
        for cut in 1..full.len() {
            let mut buf = RecvBuf::from(full[..cut].to_vec());
            assert_eq!(c.decode(&mut buf).unwrap(), None, "cut at {cut}");
            assert_eq!(buf.len(), cut, "no bytes consumed on partial");
        }
        let mut buf = RecvBuf::from(full[..].to_vec());
        let v = c.decode(&mut buf).unwrap().unwrap();
        assert_eq!(v, RespValue::command(&["GET", "x"]));
        assert!(buf.is_empty());
    }

    #[test]
    fn inline_commands_in_server_mode_only() {
        let mut server = RespCodec::server();
        let v = decode_one(&mut server, b"PING\r\n").unwrap().unwrap();
        assert_eq!(v, RespValue::Inline("PING".into()));

        let mut client = RespCodec::client();
        assert!(decode_one(&mut client, b"PING\r\n").is_err());
    }

    #[test]
    fn jdwp_handshake_decodes_as_inline_garbage() {
        // Listing 11: JDWP handshake thrown at a Redis port.
        let mut server = RespCodec::server();
        let v = decode_one(&mut server, b"JDWP-Handshake\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(v, RespValue::Inline("JDWP-Handshake".into()));
        assert_eq!(as_command(&v).unwrap().name, "JDWP-HANDSHAKE".to_string());
    }

    #[test]
    fn inline_lines_decode_to_their_exact_bytes() {
        // An RDP cookie line: the 0xE0 byte is no UTF-8, and no U+FFFD
        // takes its place.
        let mut server = RespCodec::server();
        let line = b"\x03\x00\x00\x2f\x2a\xe0\x00\x00 Cookie: mstshash=x";
        let wire = [&line[..], b"\r\n"].concat();
        let v = decode_one(&mut server, &wire).unwrap().unwrap();
        assert_eq!(v, RespValue::Inline(Bytes::copy_from_slice(line)));
        let cmd = as_command(&v).unwrap();
        assert_eq!(cmd.args.first().map(|a| &a[..]), Some(&b"Cookie:"[..]));
        let mut encoded = Vec::new();
        RespCodec::client().encode(&v, &mut encoded).unwrap();
        assert_eq!(encoded, wire);
    }

    #[test]
    fn command_extraction_and_render() {
        let v = RespValue::command(&["set", "x", "hello world"]);
        let cmd = as_command(&v).unwrap();
        assert_eq!(cmd.name, "SET");
        assert_eq!(cmd.arg_text(0).unwrap(), "x");
        assert_eq!(cmd.render(), "SET x hello world");
        assert_eq!(as_command(&RespValue::Integer(1)), None);
    }

    #[test]
    fn roundtrip_all_variants() {
        let values = vec![
            RespValue::Simple("PONG".into()),
            RespValue::Error("WRONGTYPE".into()),
            RespValue::Integer(1234567890),
            RespValue::bulk(b"\x00\x01binary\xff"),
            RespValue::NullBulk,
            RespValue::NullArray,
            RespValue::Array(vec![
                RespValue::bulk("a"),
                RespValue::Array(vec![RespValue::Integer(1), RespValue::NullBulk]),
            ]),
        ];
        let mut c = RespCodec::client();
        for v in values {
            let mut buf = Vec::new();
            c.encode(&v, &mut buf).unwrap();
            let mut buf = RecvBuf::from(buf);
            let decoded = c.decode(&mut buf).unwrap().unwrap();
            assert_eq!(decoded, v);
            assert!(buf.is_empty());
        }
    }

    #[test]
    fn rejects_hostile_lengths() {
        let mut c = RespCodec::client();
        assert!(decode_one(&mut c, b"$99999999999999999999\r\n").is_err());
        assert!(decode_one(&mut c, b"*2000000\r\n").is_err());
        assert!(decode_one(&mut c, b":abc\r\n").is_err());
    }

    #[test]
    fn bulk_longer_than_frame_limit_is_rejected_up_front() {
        // Declared 5 MiB bulk exceeds the 4 MiB frame limit: the codec must
        // refuse immediately instead of buffering toward a doomed frame.
        let mut c = RespCodec::client();
        let err = decode_one(&mut c, b"$5242880\r\n").unwrap_err();
        match err {
            NetError::Wire(w) => {
                assert_eq!(w.protocol, WireProtocol::Resp);
                assert!(matches!(w.kind, WireErrorKind::LengthOutOfRange { .. }));
            }
            other => panic!("expected wire error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_deep_nesting() {
        let mut bytes = Vec::new();
        for _ in 0..64 {
            bytes.extend_from_slice(b"*1\r\n");
        }
        bytes.extend_from_slice(b":1\r\n");
        let mut c = RespCodec::client();
        assert!(decode_one(&mut c, &bytes).is_err());
    }

    #[test]
    fn bulk_must_end_with_crlf() {
        let mut c = RespCodec::client();
        assert!(decode_one(&mut c, b"$3\r\nfooXX").is_err());
    }
}
