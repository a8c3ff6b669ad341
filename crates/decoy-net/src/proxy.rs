//! PROXY protocol v1 (the HAProxy text header).
//!
//! Honeypot deployments commonly sit behind a TCP load balancer or NAT that
//! would otherwise hide the attacker's address; the PROXY header preserves
//! it. Our experiment harness uses the same mechanism: agent drivers connect
//! over loopback and announce the simulated actor's source address in a
//! PROXY v1 line, which the honeypot consumes *before* handing the stream to
//! the protocol codec. A deployment facing the raw Internet simply runs with
//! the header disabled.

use crate::framed::read_into;
use decoy_wire::buf::RecvBuf;
use decoy_wire::error::{NetError, NetResult};
use std::net::{IpAddr, SocketAddr};
use tokio::io::AsyncRead;

/// Maximum v1 header length per the HAProxy spec.
const MAX_HEADER: usize = 107;

/// Serialize a PROXY v1 line announcing `src` → `dst`.
pub fn encode_v1(src: SocketAddr, dst: SocketAddr) -> String {
    let family = match src.ip() {
        IpAddr::V4(_) => "TCP4",
        IpAddr::V6(_) => "TCP6",
    };
    format!(
        "PROXY {family} {} {} {} {}\r\n",
        src.ip(),
        dst.ip(),
        src.port(),
        dst.port()
    )
}

/// Parse a PROXY v1 line (without the trailing CRLF). Returns the announced
/// source address.
pub fn parse_v1(line: &str) -> NetResult<SocketAddr> {
    let mut parts = line.split(' ');
    if parts.next() != Some("PROXY") {
        return Err(NetError::protocol("not a PROXY header"));
    }
    let family = parts
        .next()
        .ok_or_else(|| NetError::protocol("missing family"))?;
    if family == "UNKNOWN" {
        return Err(NetError::protocol("PROXY UNKNOWN carries no address"));
    }
    if family != "TCP4" && family != "TCP6" {
        return Err(NetError::protocol("unsupported PROXY family"));
    }
    let src_ip: IpAddr = parts
        .next()
        .ok_or_else(|| NetError::protocol("missing src ip"))?
        .parse()
        .map_err(|_| NetError::protocol("bad src ip"))?;
    let _dst_ip = parts
        .next()
        .ok_or_else(|| NetError::protocol("missing dst ip"))?;
    let src_port: u16 = parts
        .next()
        .ok_or_else(|| NetError::protocol("missing src port"))?
        .parse()
        .map_err(|_| NetError::protocol("bad src port"))?;
    Ok(SocketAddr::new(src_ip, src_port))
}

/// Inspect the start of `stream` for a PROXY v1 header.
///
/// Returns the announced source (if a header was present) and the buffer
/// holding whatever bytes beyond the header were already read — the caller
/// must seed its codec with it ([`crate::framed::Framed::with_initial`]).
pub async fn maybe_read_v1<S: AsyncRead + Unpin>(
    stream: &mut S,
) -> NetResult<(Option<SocketAddr>, RecvBuf)> {
    let mut buf = RecvBuf::default();
    loop {
        // Decide as early as possible whether this is a PROXY line at all.
        let prefix = b"PROXY ";
        let check = buf.len().min(prefix.len());
        if buf.get(..check) != prefix.get(..check) {
            return Ok((None, buf));
        }
        if let Some(pos) = buf.windows(2).position(|w| w == b"\r\n") {
            let line = String::from_utf8_lossy(buf.get(..pos).unwrap_or_default()).into_owned();
            let src = parse_v1(&line)?;
            buf.advance(pos + 2);
            return Ok((Some(src), buf));
        }
        if buf.len() > MAX_HEADER {
            return Err(NetError::protocol("PROXY header too long"));
        }
        let n = read_into(stream, &mut buf).await?;
        if n == 0 {
            // EOF before a decision: treat whatever arrived as protocol bytes.
            return Ok((None, buf));
        }
    }
}

/// Like [`maybe_read_v1`], but gives up waiting after `deadline` and treats
/// the connection as header-less. Needed for server-speaks-first protocols
/// (MySQL): a client that has no PROXY header to send is itself waiting for
/// the server greeting, so the sniff must not block indefinitely.
pub async fn maybe_read_v1_deadline<S: AsyncRead + Unpin>(
    stream: &mut S,
    deadline: std::time::Duration,
) -> NetResult<(Option<SocketAddr>, RecvBuf)> {
    match tokio::time::timeout(deadline, maybe_read_v1(stream)).await {
        Ok(result) => result,
        Err(_) => Ok((None, RecvBuf::default())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tokio::io::{duplex, AsyncWriteExt};

    fn sa(s: &str) -> SocketAddr {
        s.parse().unwrap()
    }

    #[test]
    fn encode_parse_roundtrip() {
        let line = encode_v1(sa("198.51.100.7:40000"), sa("10.0.0.1:3306"));
        assert_eq!(line, "PROXY TCP4 198.51.100.7 10.0.0.1 40000 3306\r\n");
        let src = parse_v1(line.trim_end()).unwrap();
        assert_eq!(src, sa("198.51.100.7:40000"));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_v1("PROXY UNKNOWN").is_err());
        assert!(parse_v1("PROXY TCP4 banana 10.0.0.1 1 2").is_err());
        assert!(parse_v1("GET / HTTP/1.1").is_err());
        assert!(parse_v1("PROXY TCP9 1.2.3.4 5.6.7.8 1 2").is_err());
        assert!(parse_v1("PROXY TCP4 1.2.3.4").is_err());
    }

    #[tokio::test]
    async fn reads_header_and_preserves_rest() {
        let (mut a, mut b) = duplex(512);
        let header = encode_v1(sa("203.0.113.9:55555"), sa("127.0.0.1:6379"));
        a.write_all(header.as_bytes()).await.unwrap();
        a.write_all(b"PING\r\n").await.unwrap();
        let (src, rest) = maybe_read_v1(&mut b).await.unwrap();
        assert_eq!(src, Some(sa("203.0.113.9:55555")));
        assert_eq!(&rest[..], b"PING\r\n");
    }

    #[tokio::test]
    async fn non_proxy_traffic_is_untouched() {
        let (mut a, mut b) = duplex(512);
        a.write_all(b"*1\r\n$4\r\nPING\r\n").await.unwrap();
        drop(a);
        let (src, rest) = maybe_read_v1(&mut b).await.unwrap();
        assert_eq!(src, None);
        assert_eq!(&rest[..], b"*1\r\n$4\r\nPING\r\n");
    }

    #[tokio::test]
    async fn prefix_collision_decides_at_first_divergence() {
        // Starts like "PROXY " but diverges: the Postgres startup packet of
        // a client whose bytes happen to begin with 'P'.
        let (mut a, mut b) = duplex(512);
        a.write_all(b"PRELOGIN-ish bytes").await.unwrap();
        drop(a);
        let (src, rest) = maybe_read_v1(&mut b).await.unwrap();
        assert_eq!(src, None);
        assert_eq!(&rest[..], b"PRELOGIN-ish bytes");
    }

    #[tokio::test]
    async fn overlong_header_is_rejected() {
        let (mut a, mut b) = duplex(512);
        let mut line = b"PROXY TCP4 ".to_vec();
        line.extend([b'9'; 200]);
        a.write_all(&line).await.unwrap();
        drop(a);
        assert!(maybe_read_v1(&mut b).await.is_err());
    }

    #[tokio::test]
    async fn deadline_variant_times_out_to_no_header() {
        let (_a, mut b) = duplex(64);
        let (src, rest) = maybe_read_v1_deadline(&mut b, std::time::Duration::from_millis(50))
            .await
            .unwrap();
        assert_eq!(src, None);
        assert!(rest.is_empty());
    }

    #[tokio::test]
    async fn deadline_variant_reads_prompt_header() {
        let (mut a, mut b) = duplex(256);
        let header = encode_v1(sa("203.0.113.9:55555"), sa("127.0.0.1:3306"));
        a.write_all(header.as_bytes()).await.unwrap();
        let (src, _rest) = maybe_read_v1_deadline(&mut b, std::time::Duration::from_secs(5))
            .await
            .unwrap();
        assert_eq!(src, Some(sa("203.0.113.9:55555")));
    }

    #[tokio::test]
    async fn eof_mid_prefix_returns_bytes() {
        let (mut a, mut b) = duplex(512);
        a.write_all(b"PRO").await.unwrap();
        drop(a);
        let (src, rest) = maybe_read_v1(&mut b).await.unwrap();
        assert_eq!(src, None);
        assert_eq!(&rest[..], b"PRO");
    }
}
