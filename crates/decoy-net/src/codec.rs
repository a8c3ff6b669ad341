//! Incremental frame codecs: the synchronous half of the framing layer.
//!
//! Every wire protocol in `decoy-wire` implements [`Codec`]: decoding consumes
//! bytes from a [`BytesMut`] and either produces a complete frame, asks for
//! more bytes (`Ok(None)`), or reports a protocol violation. This is the
//! framing discipline from the Tokio tutorial, kept separate from I/O so
//! codecs are unit-testable (and fuzzable) without sockets or a runtime.
//! The async side lives in [`crate::framed`].
//!
//! Codecs here parse attacker-controlled bytes, so this module is covered by
//! the `decoy-xtask analyze` panic-freedom wall: no `unwrap`/`expect`/`panic!`,
//! no slice indexing, no `as` truncation.

// decoy-hot-path: file -- per-connection framing loop; every inbound byte passes through

use crate::error::{NetError, NetResult};
use bytes::{Bytes, BytesMut};

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
    fn decode(&mut self, buf: &mut BytesMut) -> NetResult<Option<Self::In>>;

    /// Append the encoding of `frame` to `buf`.
    fn encode(&mut self, frame: &Self::Out, buf: &mut BytesMut) -> NetResult<()>;

    /// Upper bound on a single frame, enforced by [`crate::framed::Framed`].
    fn max_frame_len(&self) -> usize {
        1 << 20
    }
}

/// Read an exact big-endian `u32` length prefix if available, without
/// consuming it. Helper shared by several codecs.
pub fn peek_u32_be(buf: &BytesMut) -> Option<u32> {
    buf.first_chunk::<4>().map(|b| u32::from_be_bytes(*b))
}

/// Read an exact little-endian `u32` length prefix if available, without
/// consuming it.
pub fn peek_u32_le(buf: &BytesMut) -> Option<u32> {
    buf.first_chunk::<4>().map(|b| u32::from_le_bytes(*b))
}

/// A trivial line-based codec (`\n`-terminated, CR stripped). Used by tests
/// and by the inline-command mode of the Redis honeypot.
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

    fn decode(&mut self, buf: &mut BytesMut) -> NetResult<Option<String>> {
        let Some(pos) = buf.iter().position(|&b| b == b'\n') else {
            return Ok(None);
        };
        let mut line = buf.split_to(pos + 1);
        line.truncate(pos); // drop '\n'
        if line.last() == Some(&b'\r') {
            line.truncate(line.len().saturating_sub(1));
        }
        match std::str::from_utf8(&line) {
            Ok(s) => Ok(Some(s.to_owned())),
            Err(_) => Err(NetError::protocol("line is not valid utf-8")),
        }
    }

    fn encode(&mut self, frame: &String, buf: &mut BytesMut) -> NetResult<()> {
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

/// A codec for fixed-size chunks of raw bytes; `decode` yields whatever is
/// available. Used by honeypots that log opaque payloads (e.g. unknown
/// protocols thrown at a database port).
#[derive(Debug, Default, Clone)]
pub struct RawCodec;

impl Codec for RawCodec {
    type In = Bytes;
    type Out = Bytes;

    fn decode(&mut self, buf: &mut BytesMut) -> NetResult<Option<Bytes>> {
        if buf.is_empty() {
            return Ok(None);
        }
        // Zero-copy: detach the readable bytes and hand out a shared view.
        Ok(Some(buf.split_to(buf.len()).freeze()))
    }

    fn encode(&mut self, frame: &Bytes, buf: &mut BytesMut) -> NetResult<()> {
        buf.extend_from_slice(frame);
        Ok(())
    }
}

/// Drain as many complete frames as `codec` can decode from `bytes` into
/// `frames`, returning how many were appended.
///
/// Test/analysis helper: replays a captured byte stream through a codec
/// without any I/O. The output vector is caller-provided so replay loops
/// (and the load harness) can reuse one allocation across streams.
pub fn decode_all_into<C: Codec>(
    codec: &mut C,
    bytes: &[u8],
    frames: &mut Vec<C::In>,
) -> NetResult<usize> {
    let mut buf = BytesMut::from(bytes);
    let before = frames.len();
    while let Some(f) = codec.decode(&mut buf)? {
        frames.push(f);
        if buf.is_empty() {
            break;
        }
    }
    Ok(frames.len().saturating_sub(before))
}

/// Append the encoding of a sequence of frames to `buf`. The buffer is
/// caller-provided (typically checked out of [`crate::pool::BufferPool`])
/// so batch encoding never allocates per call.
pub fn encode_all_into<C: Codec>(
    codec: &mut C,
    frames: &[C::Out],
    buf: &mut BytesMut,
) -> NetResult<()> {
    for f in frames {
        codec.encode(f, buf)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_codec_roundtrip_and_partials() {
        let mut c = LineCodec::default();
        let mut buf = BytesMut::from(&b"hello\r\nwor"[..]);
        assert_eq!(c.decode(&mut buf).unwrap(), Some("hello".to_string()));
        assert_eq!(c.decode(&mut buf).unwrap(), None);
        buf.extend_from_slice(b"ld\n");
        assert_eq!(c.decode(&mut buf).unwrap(), Some("world".to_string()));
        assert!(buf.is_empty());
    }

    #[test]
    fn line_codec_rejects_invalid_utf8() {
        let mut c = LineCodec::default();
        let mut buf = BytesMut::from(&b"\xff\xfe\n"[..]);
        assert!(c.decode(&mut buf).is_err());
    }

    #[test]
    fn decode_encode_all_helpers() {
        let mut c = LineCodec::default();
        let mut bytes = BytesMut::new();
        encode_all_into(&mut c, &["a".to_string(), "b".to_string()], &mut bytes).unwrap();
        assert_eq!(&bytes[..], b"a\r\nb\r\n");
        let mut frames = Vec::new();
        let n = decode_all_into(&mut c, &bytes, &mut frames).unwrap();
        assert_eq!(n, 2);
        assert_eq!(frames, vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn raw_codec_is_zero_copy() {
        let mut c = RawCodec;
        let mut buf = BytesMut::from(&b"opaque scanner probe"[..]);
        let frame = c.decode(&mut buf).unwrap().unwrap();
        assert_eq!(&frame[..], b"opaque scanner probe");
        assert!(buf.is_empty());
        assert_eq!(c.decode(&mut buf).unwrap(), None);
        let mut out = BytesMut::new();
        c.encode(&frame, &mut out).unwrap();
        assert_eq!(&out[..], &frame[..]);
    }

    #[test]
    fn peek_helpers() {
        let buf = BytesMut::from(&[0u8, 0, 1, 2][..]);
        assert_eq!(peek_u32_be(&buf), Some(0x0000_0102));
        assert_eq!(peek_u32_le(&buf), Some(0x0201_0000));
        assert_eq!(peek_u32_be(&BytesMut::from(&[1u8, 2][..])), None);
    }
}
