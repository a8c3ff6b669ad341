//! Incremental frame codecs: the synchronous half of the framing layer.
//!
//! Every wire protocol in this crate implements [`Codec`]: decoding consumes
//! bytes from a [`RecvBuf`] and either produces a complete frame, asks for
//! more bytes (`Ok(None)`), or reports a protocol violation; encoding
//! appends to a plain `Vec<u8>`. This is the framing discipline from the
//! Tokio tutorial, kept separate from I/O so codecs are unit-testable (and
//! fuzzable) without sockets or a runtime. The async side is decoy-net's
//! `framed` module.
//!
//! Codecs here parse attacker-controlled bytes, so this module is inside
//! the crate's clippy panic wall: no `unwrap`/`expect`/`panic!`, no slice
//! indexing, no `as` truncation.

// decoy-hot-path: file -- per-connection framing loop; every inbound byte passes through

use crate::buf::{Bytes, RecvBuf};
use crate::error::{NetError, NetResult};

/// An incremental encoder/decoder for one protocol's frames.
pub trait Codec {
    /// The inbound frame type this side decodes.
    type In;
    /// The outbound frame type this side encodes. Symmetric protocols use
    /// `In == Out`; asymmetric ones (PostgreSQL, HTTP) differ per side.
    type Out;

    /// Try to decode one frame from the front of `buf`.
    ///
    /// * `Ok(Some(frame))` — a frame was decoded and its bytes consumed.
    /// * `Ok(None)` — `buf` holds an incomplete frame; read more bytes.
    /// * `Err(_)` — the bytes can never form a valid frame.
    ///
    /// Implementations must not consume bytes when returning `Ok(None)`,
    /// and must be *total*: any byte sequence yields `Ok` or `Err`, never
    /// a panic.
    fn decode(&mut self, buf: &mut RecvBuf) -> NetResult<Option<Self::In>>;

    /// Append the encoding of `frame` to `buf`.
    fn encode(&mut self, frame: &Self::Out, buf: &mut Vec<u8>) -> NetResult<()>;

    /// Upper bound on a single frame, enforced by [`read_step`].
    fn max_frame_len(&self) -> usize {
        1 << 20
    }
}

/// What a frame reader does after one [`read_step`].
#[derive(Debug, PartialEq, Eq)]
pub enum ReadStep<T> {
    /// A whole frame was decoded and its bytes consumed.
    Frame(T),
    /// No whole frame is buffered yet: read more bytes.
    More,
    /// The stream ended at a frame boundary.
    End,
}

/// The one read rule, shared by decoy-net's `Framed` and every in-memory
/// driver so both decode the same bytes the same way. Decode a frame from
/// the front of `buf`; without one, a buffer past the codec's
/// [`Codec::max_frame_len`] is [`NetError::FrameTooLarge`], and once the
/// stream has ended (`eof`) an empty buffer is a clean [`ReadStep::End`]
/// and a partial frame [`NetError::UnexpectedEof`].
pub fn read_step<C: Codec>(
    codec: &mut C,
    buf: &mut RecvBuf,
    eof: bool,
) -> NetResult<ReadStep<C::In>> {
    if let Some(frame) = codec.decode(buf)? {
        return Ok(ReadStep::Frame(frame));
    }
    if buf.len() > codec.max_frame_len() {
        return Err(NetError::FrameTooLarge {
            limit: codec.max_frame_len(),
            got: buf.len(),
        });
    }
    match (eof, buf.is_empty()) {
        (false, _) => Ok(ReadStep::More),
        (true, true) => Ok(ReadStep::End),
        (true, false) => Err(NetError::UnexpectedEof),
    }
}

/// The client side of a frame transport: how a scripted client opens the
/// connections of one visit. decoy-fleet's TCP transport and
/// decoy-honeypots' in-memory driver implement it, so the attack client
/// (`decoy_agents::client`) speaks the same frames over a socket and to a
/// session machine in memory.
#[allow(
    async_fn_in_trait,
    reason = "a client generic over the transport is `Send` wherever the concrete transport is"
)]
pub trait Dial {
    /// An open connection whose frames codec `C` encodes and decodes.
    type Conn<C: Codec + 'static>: Connection<C>;

    /// Open a connection speaking `codec`. `None` once the transport opens
    /// no more connections for this visit (a spent time budget), so a burst
    /// stops at a connection boundary.
    async fn dial<C: Codec + 'static>(&mut self, codec: C) -> Option<NetResult<Self::Conn<C>>>;
}

/// One client connection of a [`Dial`] transport. Dropping it hangs up.
#[allow(
    async_fn_in_trait,
    reason = "a client generic over the transport is `Send` wherever the concrete transport is"
)]
pub trait Connection<C: Codec> {
    /// Encode `frame` and send it.
    async fn send(&mut self, frame: &C::Out) -> NetResult<()>;

    /// Read the next frame: `Ok(None)` once the peer has closed at a frame
    /// boundary.
    async fn recv(&mut self) -> NetResult<Option<C::In>>;
}

/// Read an exact big-endian `u32` length prefix if available, without
/// consuming it. Helper shared by several codecs.
pub fn peek_u32_be(buf: &[u8]) -> Option<u32> {
    buf.first_chunk::<4>().map(|b| u32::from_be_bytes(*b))
}

/// A trivial line-based codec (`\n`-terminated, CR stripped), the frame
/// type of decoy-net's own framing, listener and supervisor tests.
#[derive(Debug, Default, Clone)]
pub struct LineCodec {
    max_len: usize,
}

impl LineCodec {
    /// A line codec with a custom maximum line length.
    pub fn with_max_len(max_len: usize) -> Self {
        LineCodec { max_len }
    }
}

impl Codec for LineCodec {
    type In = String;
    type Out = String;

    fn decode(&mut self, buf: &mut RecvBuf) -> NetResult<Option<String>> {
        let Some(pos) = buf.iter().position(|&b| b == b'\n') else {
            return Ok(None);
        };
        let line = buf.get(..pos).unwrap_or_default();
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        let decoded = match std::str::from_utf8(line) {
            Ok(s) => Ok(Some(s.to_owned())),
            Err(_) => Err(NetError::protocol("line is not valid utf-8")),
        };
        buf.advance(pos + 1);
        decoded
    }

    fn encode(&mut self, frame: &String, buf: &mut Vec<u8>) -> NetResult<()> {
        buf.extend_from_slice(frame.as_bytes());
        buf.extend_from_slice(b"\r\n");
        Ok(())
    }

    fn max_frame_len(&self) -> usize {
        if self.max_len == 0 {
            64 * 1024
        } else {
            self.max_len
        }
    }
}

/// A codec for raw bytes; `decode` yields whatever is available. The
/// attacker drivers use it to throw opaque payloads (foreign protocols) at
/// a database port and read whatever comes back.
#[derive(Debug, Default, Clone)]
pub struct RawCodec;

impl Codec for RawCodec {
    type In = Bytes;
    type Out = Bytes;

    fn decode(&mut self, buf: &mut RecvBuf) -> NetResult<Option<Bytes>> {
        if buf.is_empty() {
            return Ok(None);
        }
        // Zero-copy: detach the readable bytes and hand out a shared view.
        Ok(Some(buf.split_to(buf.len())))
    }

    fn encode(&mut self, frame: &Bytes, buf: &mut Vec<u8>) -> NetResult<()> {
        buf.extend_from_slice(frame);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_codec_roundtrip_and_partials() {
        let mut c = LineCodec::default();
        let mut buf = RecvBuf::from(b"hello\r\nwor".to_vec());
        assert_eq!(c.decode(&mut buf).unwrap(), Some("hello".to_string()));
        assert_eq!(c.decode(&mut buf).unwrap(), None);
        buf.extend_from_slice(b"ld\n");
        assert_eq!(c.decode(&mut buf).unwrap(), Some("world".to_string()));
        assert!(buf.is_empty());
    }

    #[test]
    fn line_codec_rejects_invalid_utf8() {
        let mut c = LineCodec::default();
        let mut buf = RecvBuf::from(b"\xff\xfe\n".to_vec());
        assert!(c.decode(&mut buf).is_err());
    }

    #[test]
    fn raw_codec_is_zero_copy() {
        let mut c = RawCodec;
        let mut buf = RecvBuf::from(b"opaque scanner probe".to_vec());
        let frame = c.decode(&mut buf).unwrap().unwrap();
        assert_eq!(&frame[..], b"opaque scanner probe");
        assert!(buf.is_empty());
        assert_eq!(c.decode(&mut buf).unwrap(), None);
        let mut out = Vec::new();
        c.encode(&frame, &mut out).unwrap();
        assert_eq!(&out[..], &frame[..]);
    }

    /// Frames first, then the frame limit, then the end-of-stream rule.
    #[test]
    fn read_step_rules() {
        let mut c = LineCodec::with_max_len(8);
        let mut buf = RecvBuf::from(b"ping\npo".to_vec());
        let step = read_step(&mut c, &mut buf, false).unwrap();
        assert_eq!(step, ReadStep::Frame("ping".to_string()));
        assert_eq!(read_step(&mut c, &mut buf, false).unwrap(), ReadStep::More);
        assert!(matches!(
            read_step(&mut c, &mut buf, true),
            Err(NetError::UnexpectedEof)
        ));
        buf.extend_from_slice(b"ng\n");
        let step = read_step(&mut c, &mut buf, true).unwrap();
        assert_eq!(step, ReadStep::Frame("pong".to_string()));
        assert_eq!(read_step(&mut c, &mut buf, true).unwrap(), ReadStep::End);
        buf.extend_from_slice(&[b'x'; 9]);
        assert!(matches!(
            read_step(&mut c, &mut buf, false),
            Err(NetError::FrameTooLarge { limit: 8, got: 9 })
        ));
    }

    #[test]
    fn peek_helpers() {
        assert_eq!(peek_u32_be(&[0u8, 0, 1, 2]), Some(0x0000_0102));
        assert_eq!(peek_u32_be(&[1u8, 2]), None);
    }
}
