//! Minimal HTTP/1.1, sufficient for an Elasticpot-style Elasticsearch
//! honeypot and for the HTTP-speaking attackers the paper observed (CraftCMS
//! CVE-2023-41892 probes, VMware vSphere SOAP recon, Lucifer's `/_search`
//! script injection).
//!
//! Framing: headers terminated by a blank line, body delimited by
//! `Content-Length` (chunked encoding is intentionally unsupported — none of
//! the observed traffic uses it; a chunked request is a protocol error that
//! gets logged raw).

// decoy-hot-path: file -- per-request decode/encode, one call per wire message

use crate::buf::{Bytes, RecvBuf};
use crate::codec::Codec;
use crate::error::{NetError, NetResult, WireError, WireErrorKind, WireProtocol};
use std::io::Write as _;

/// Shorthand for an HTTP wire error at `offset`.
fn herr(offset: usize, kind: WireErrorKind) -> NetError {
    WireError::new(WireProtocol::Http, offset, kind).into()
}

/// An HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Method verb, e.g. `GET`.
    pub method: String,
    /// Request target, e.g. `/_cat/indices?v`.
    pub target: String,
    /// Protocol version string, e.g. `HTTP/1.1`.
    pub version: String,
    /// Header name/value pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// Request body (a zero-copy view of the read buffer on decode).
    pub body: Bytes,
}

impl HttpRequest {
    /// A request with standard headers.
    pub fn new(method: &str, target: &str) -> Self {
        HttpRequest {
            method: method.into(),
            target: target.into(),
            version: "HTTP/1.1".into(),
            headers: vec![("Host".into(), "localhost".into())],
            body: Bytes::default(),
        }
    }

    /// Attach a body and its `Content-Type`/`Content-Length` headers.
    pub fn with_body(mut self, content_type: &str, body: impl Into<Bytes>) -> Self {
        let body = body.into();
        self.headers
            .push(("Content-Type".into(), content_type.into()));
        self.headers
            .push(("Content-Length".into(), body.len().to_string()));
        self.body = body;
        self
    }

    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Path component of the target (before `?`).
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or(&self.target)
    }

    /// Query string, if any.
    pub fn query(&self) -> Option<&str> {
        self.target.split_once('?').map(|(_, q)| q)
    }

    /// The body as lossy UTF-8 (for logging/classification).
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// An HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code, e.g. 200.
    pub status: u16,
    /// Reason phrase, e.g. `OK`.
    pub reason: String,
    /// Header name/value pairs.
    pub headers: Vec<(String, String)>,
    /// Response body. `Bytes`-backed so canned honeypot responses are
    /// shared, not re-copied per session.
    pub body: Bytes,
}

impl HttpResponse {
    /// A JSON response with Elasticsearch-style headers.
    pub fn json(status: u16, body: impl Into<Bytes>) -> Self {
        let body = body.into();
        HttpResponse {
            status,
            reason: reason_for(status).into(),
            headers: vec![
                (
                    "Content-Type".into(),
                    "application/json; charset=UTF-8".into(),
                ),
                ("Content-Length".into(), body.len().to_string()),
            ],
            body,
        }
    }

    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The body as lossy UTF-8.
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

fn reason_for(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

const MAX_HEADER_BYTES: usize = 64 * 1024;
const MAX_BODY_BYTES: usize = 8 << 20;

/// `(start_line, headers, header_bytes_consumed)`.
type ParsedHead = (String, Vec<(String, String)>, usize);

/// Parse the head of an HTTP message, if complete.
fn parse_head(buf: &[u8]) -> NetResult<Option<ParsedHead>> {
    let Some(end) = find_double_crlf(buf) else {
        if buf.len() > MAX_HEADER_BYTES {
            return Err(herr(
                MAX_HEADER_BYTES,
                WireErrorKind::LengthOutOfRange {
                    declared: buf.len() as u64,
                    max: MAX_HEADER_BYTES as u64,
                },
            ));
        }
        return Ok(None);
    };
    let head = buf.get(..end).unwrap_or_default();
    let text =
        std::str::from_utf8(head).map_err(|e| herr(e.valid_up_to(), WireErrorKind::InvalidUtf8))?;
    let mut lines = text.split("\r\n");
    let start_line = lines
        .next()
        .ok_or_else(|| {
            herr(
                0,
                WireErrorKind::Malformed {
                    detail: "empty http head",
                },
            )
        })?
        .to_string();
    // decoy-lint: allow(alloc-vec) -- header names/values are inherently owned strings
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line.split_once(':').ok_or_else(|| {
            herr(
                0,
                WireErrorKind::Malformed {
                    detail: "header line without colon",
                },
            )
        })?;
        headers.push((name.trim().to_string(), value.trim().to_string()));
    }
    Ok(Some((start_line, headers, end + 4)))
}

fn find_double_crlf(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Extract and bound the body length. Applies the [`MAX_BODY_BYTES`] cap for
/// both codecs, so neither direction can be committed to buffering an
/// attacker-declared body size.
fn content_length(headers: &[(String, String)]) -> NetResult<usize> {
    for (k, v) in headers {
        if k.eq_ignore_ascii_case("content-length") {
            let declared = v.parse::<u64>().map_err(|_| {
                herr(
                    0,
                    WireErrorKind::Malformed {
                        detail: "bad content-length",
                    },
                )
            })?;
            return usize::try_from(declared)
                .ok()
                .filter(|&n| n <= MAX_BODY_BYTES.min(crate::MAX_FRAME))
                .ok_or_else(|| {
                    herr(
                        0,
                        WireErrorKind::LengthOutOfRange {
                            declared,
                            max: MAX_BODY_BYTES as u64,
                        },
                    )
                });
        }
        if k.eq_ignore_ascii_case("transfer-encoding") && v.to_ascii_lowercase().contains("chunked")
        {
            return Err(herr(
                0,
                WireErrorKind::Malformed {
                    detail: "chunked encoding unsupported",
                },
            ));
        }
    }
    Ok(0)
}

/// Server-side codec: decodes [`HttpRequest`], encodes [`HttpResponse`].
#[derive(Debug, Clone, Default)]
pub struct HttpServerCodec;

impl Codec for HttpServerCodec {
    type In = HttpRequest;
    type Out = HttpResponse;

    fn decode(&mut self, buf: &mut RecvBuf) -> NetResult<Option<HttpRequest>> {
        let Some((start_line, headers, head_len)) = parse_head(buf)? else {
            return Ok(None);
        };
        let body_len = content_length(&headers)?;
        let total = head_len.checked_add(body_len).ok_or_else(|| {
            herr(
                0,
                WireErrorKind::LengthOutOfRange {
                    declared: body_len as u64,
                    max: MAX_BODY_BYTES as u64,
                },
            )
        })?;
        if buf.len() < total {
            return Ok(None);
        }
        let mut parts = start_line.split_whitespace();
        let method = parts
            .next()
            .ok_or_else(|| {
                herr(
                    0,
                    WireErrorKind::Malformed {
                        detail: "missing method",
                    },
                )
            })?
            .to_string();
        let target = parts
            .next()
            .ok_or_else(|| {
                herr(
                    0,
                    WireErrorKind::Malformed {
                        detail: "missing request target",
                    },
                )
            })?
            .to_string();
        let version = parts.next().unwrap_or("HTTP/1.0").to_string();
        buf.advance(head_len);
        let body = buf.split_to(body_len);
        Ok(Some(HttpRequest {
            method,
            target,
            version,
            headers,
            body,
        }))
    }

    fn encode(&mut self, resp: &HttpResponse, buf: &mut Vec<u8>) -> NetResult<()> {
        encode_response_head(resp, buf);
        buf.extend_from_slice(&resp.body);
        Ok(())
    }

    fn max_frame_len(&self) -> usize {
        MAX_HEADER_BYTES + MAX_BODY_BYTES
    }
}

/// Render the status line and headers of `resp` (through the terminating
/// blank line) into `buf`, without the body; [`HttpServerCodec`] appends
/// the body after it.
pub fn encode_response_head(resp: &HttpResponse, buf: &mut Vec<u8>) {
    let _ = write!(buf, "HTTP/1.1 {} {}\r\n", resp.status, resp.reason);
    for (k, v) in &resp.headers {
        let _ = write!(buf, "{k}: {v}\r\n");
    }
    buf.extend_from_slice(b"\r\n");
}

/// Client-side codec: encodes [`HttpRequest`], decodes [`HttpResponse`].
#[derive(Debug, Clone, Default)]
pub struct HttpClientCodec;

impl Codec for HttpClientCodec {
    type In = HttpResponse;
    type Out = HttpRequest;

    fn decode(&mut self, buf: &mut RecvBuf) -> NetResult<Option<HttpResponse>> {
        let Some((start_line, headers, head_len)) = parse_head(buf)? else {
            return Ok(None);
        };
        let body_len = content_length(&headers)?;
        let total = head_len.checked_add(body_len).ok_or_else(|| {
            herr(
                0,
                WireErrorKind::LengthOutOfRange {
                    declared: body_len as u64,
                    max: MAX_BODY_BYTES as u64,
                },
            )
        })?;
        if buf.len() < total {
            return Ok(None);
        }
        let mut parts = start_line.splitn(3, ' ');
        let _version = parts.next().unwrap_or_default();
        let status = parts
            .next()
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| {
                herr(
                    0,
                    WireErrorKind::Malformed {
                        detail: "bad status line",
                    },
                )
            })?;
        let reason = parts.next().unwrap_or_default().to_string();
        buf.advance(head_len);
        let body = buf.split_to(body_len);
        Ok(Some(HttpResponse {
            status,
            reason,
            headers,
            body,
        }))
    }

    fn encode(&mut self, req: &HttpRequest, buf: &mut Vec<u8>) -> NetResult<()> {
        let _ = write!(buf, "{} {} {}\r\n", req.method, req.target, req.version);
        let mut has_length = false;
        for (k, v) in &req.headers {
            if k.eq_ignore_ascii_case("content-length") {
                has_length = true;
            }
            let _ = write!(buf, "{k}: {v}\r\n");
        }
        if !has_length && !req.body.is_empty() {
            let _ = write!(buf, "Content-Length: {}\r\n", req.body.len());
        }
        buf.extend_from_slice(b"\r\n");
        buf.extend_from_slice(&req.body);
        Ok(())
    }

    fn max_frame_len(&self) -> usize {
        MAX_HEADER_BYTES + MAX_BODY_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request_bytes(req: &HttpRequest) -> RecvBuf {
        let mut codec = HttpClientCodec;
        let mut buf = Vec::new();
        codec.encode(req, &mut buf).unwrap();
        RecvBuf::from(buf)
    }

    #[test]
    fn get_request_roundtrip() {
        let req = HttpRequest::new("GET", "/_cluster/health?pretty");
        let mut buf = request_bytes(&req);
        let mut server = HttpServerCodec;
        let decoded = server.decode(&mut buf).unwrap().unwrap();
        assert_eq!(decoded.method, "GET");
        assert_eq!(decoded.path(), "/_cluster/health");
        assert_eq!(decoded.query(), Some("pretty"));
        assert_eq!(decoded.header("host"), Some("localhost"));
        assert!(buf.is_empty());
    }

    #[test]
    fn post_with_body_roundtrip() {
        let req = HttpRequest::new("POST", "/_search")
            .with_body("application/json", r#"{"query":{"match_all":{}}}"#);
        let mut buf = request_bytes(&req);
        let mut server = HttpServerCodec;
        let decoded = server.decode(&mut buf).unwrap().unwrap();
        assert_eq!(decoded.body_text(), r#"{"query":{"match_all":{}}}"#);
        assert_eq!(decoded.header("Content-Length"), Some("26"));
    }

    #[test]
    fn response_roundtrip() {
        let resp = HttpResponse::json(200, r#"{"cluster_name":"elasticsearch"}"#);
        let mut server = HttpServerCodec;
        let mut buf = Vec::new();
        server.encode(&resp, &mut buf).unwrap();
        let mut buf = RecvBuf::from(buf);
        let mut client = HttpClientCodec;
        let decoded = client.decode(&mut buf).unwrap().unwrap();
        assert_eq!(decoded.status, 200);
        assert_eq!(decoded.reason, "OK");
        assert_eq!(decoded.body_text(), r#"{"cluster_name":"elasticsearch"}"#);
    }

    #[test]
    fn partial_requests_wait() {
        let req = HttpRequest::new("POST", "/x").with_body("text/plain", "hello body");
        let full = request_bytes(&req);
        let mut server = HttpServerCodec;
        for cut in [3usize, 10, full.len() - 3] {
            let mut partial = RecvBuf::from(full[..cut].to_vec());
            assert!(server.decode(&mut partial).unwrap().is_none(), "cut {cut}");
        }
    }

    #[test]
    fn pipelined_requests_decode_one_at_a_time() {
        let a = request_bytes(&HttpRequest::new("GET", "/a"));
        let b = request_bytes(&HttpRequest::new("GET", "/b"));
        let mut buf = RecvBuf::default();
        buf.extend_from_slice(&a);
        buf.extend_from_slice(&b);
        let mut server = HttpServerCodec;
        let first = server.decode(&mut buf).unwrap().unwrap();
        let second = server.decode(&mut buf).unwrap().unwrap();
        assert_eq!(first.target, "/a");
        assert_eq!(second.target, "/b");
    }

    #[test]
    fn malformed_inputs_error_not_panic() {
        let mut server = HttpServerCodec;
        let mut buf = RecvBuf::from(b"GET\r\n\r\n".to_vec());
        assert!(server.decode(&mut buf).is_err()); // missing target
        let mut buf = RecvBuf::from(b"GET / HTTP/1.1\r\nBadHeader\r\n\r\n".to_vec());
        assert!(server.decode(&mut buf).is_err());
        let mut buf = RecvBuf::from(b"GET / HTTP/1.1\r\nContent-Length: banana\r\n\r\n".to_vec());
        assert!(server.decode(&mut buf).is_err());
        let mut buf =
            RecvBuf::from(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec());
        assert!(server.decode(&mut buf).is_err());
        let mut buf = RecvBuf::from(b"\xff\xfe / HTTP/1.1\r\n\r\n".to_vec());
        assert!(server.decode(&mut buf).is_err());
    }

    #[test]
    fn declared_body_is_capped_in_both_directions() {
        // A hostile Content-Length must be refused before any buffering
        // commitment — on the client codec too (it used to be uncapped).
        let mut server = HttpServerCodec;
        let mut buf =
            RecvBuf::from(b"POST / HTTP/1.1\r\nContent-Length: 999999999999\r\n\r\n".to_vec());
        assert!(server.decode(&mut buf).is_err());
        let mut client = HttpClientCodec;
        let mut buf =
            RecvBuf::from(b"HTTP/1.1 200 OK\r\nContent-Length: 999999999\r\n\r\n".to_vec());
        let err = client.decode(&mut buf).unwrap_err();
        match err {
            NetError::Wire(w) => {
                assert_eq!(w.protocol, WireProtocol::Http);
                assert!(matches!(w.kind, WireErrorKind::LengthOutOfRange { .. }));
            }
            other => panic!("expected wire error, got {other:?}"),
        }
    }

    #[test]
    fn craftcms_probe_shape_parses() {
        // Listing 14 arrives as a POST form body against the HTTP honeypot.
        let body = "action=conditions/render&test[userCondition]=craft\\elements\\conditions\\users\\UserCondition";
        let req = HttpRequest::new("POST", "/index.php")
            .with_body("application/x-www-form-urlencoded", body);
        let mut buf = request_bytes(&req);
        let mut server = HttpServerCodec;
        let decoded = server.decode(&mut buf).unwrap().unwrap();
        assert!(decoded.body_text().contains("conditions/render"));
    }
}
