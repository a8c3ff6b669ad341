//! The async frame stream: a [`Codec`] bound to an `AsyncRead + AsyncWrite`.
//!
//! The codec layer itself lives in `decoy-wire`, synchronous and I/O-free,
//! so decoders over attacker bytes are compiled, tested, and fuzzed
//! without a runtime.
//!
//! The read side is a [`RecvBuf`]: each read lands in its spare bytes, and
//! the frames a codec splits off share its storage, which it reuses once
//! they are gone. The write buffer is checked out of the process-wide
//! [`crate::pool::BufferPool`] and restored when the `Framed` is dropped,
//! so a churning session fleet reuses it instead of hitting the allocator
//! per connection. [`Framed::write_split`] writes a pooled-buffer head and
//! a borrowed body with one vectored syscall, so large response bodies
//! (HTTP, bulk documents) are never copied into the write buffer at all.

use crate::pool::{BufferPool, PooledBuf, SMALL_CLASS};
use decoy_wire::buf::RecvBuf;
use decoy_wire::codec::Codec;
use decoy_wire::error::{NetError, NetResult};
use std::future::poll_fn;
use std::io::IoSlice;
use std::pin::Pin;
use tokio::io::{AsyncRead, AsyncWrite, AsyncWriteExt, ReadBuf};

/// Room a read asks the buffer for: one small pool class.
const READ_CHUNK: usize = SMALL_CLASS;

/// Read once from `stream` into the spare bytes of `buf`, returning how
/// many arrived (0 at end of stream).
pub(crate) async fn read_into<S: AsyncRead + Unpin>(
    stream: &mut S,
    buf: &mut RecvBuf,
) -> std::io::Result<usize> {
    let spare = buf.spare(READ_CHUNK);
    let n = poll_fn(|cx| {
        let mut read = ReadBuf::new(&mut *spare);
        Pin::new(&mut *stream)
            .poll_read(cx, &mut read)
            .map_ok(|()| read.filled().len())
    })
    .await?;
    buf.commit(n);
    Ok(n)
}

/// A frame-oriented wrapper around a byte stream.
///
/// Owns the read buffer; `read_frame` loops `decode` / read until a frame
/// is complete, the peer disconnects, or the frame limit is exceeded.
pub struct Framed<S, C> {
    stream: S,
    codec: C,
    read_buf: RecvBuf,
    write_buf: PooledBuf,
}

impl<S, C> Framed<S, C>
where
    S: AsyncRead + AsyncWrite + Unpin,
    C: Codec,
{
    /// Wrap `stream` with `codec`, using a pooled write buffer.
    pub fn new(stream: S, codec: C) -> Self {
        Framed::with_initial(stream, codec, RecvBuf::default())
    }

    /// Wrap `stream` with `codec`, seeding the read buffer with bytes that
    /// were already consumed from the stream (e.g. while peeking for a
    /// PROXY protocol header).
    pub fn with_initial(stream: S, codec: C, initial: RecvBuf) -> Self {
        Framed {
            stream,
            codec,
            read_buf: initial,
            write_buf: BufferPool::global().checkout_guarded(SMALL_CLASS),
        }
    }

    /// Access the codec (some protocols carry handshake state in it).
    pub fn codec_mut(&mut self) -> &mut C {
        &mut self.codec
    }

    /// Bytes currently buffered but not yet decoded.
    pub fn buffered(&self) -> &[u8] {
        &self.read_buf
    }

    /// Read one frame, or `None` on clean EOF at a frame boundary.
    pub async fn read_frame(&mut self) -> NetResult<Option<C::In>> {
        loop {
            if let Some(frame) = self.codec.decode(&mut self.read_buf)? {
                return Ok(Some(frame));
            }
            if self.read_buf.len() > self.codec.max_frame_len() {
                return Err(NetError::FrameTooLarge {
                    limit: self.codec.max_frame_len(),
                    got: self.read_buf.len(),
                });
            }
            let n = read_into(&mut self.stream, &mut self.read_buf).await?;
            if n == 0 {
                return if self.read_buf.is_empty() {
                    Ok(None)
                } else {
                    Err(NetError::UnexpectedEof)
                };
            }
        }
    }

    /// Encode and flush one frame.
    pub async fn write_frame(&mut self, frame: &C::Out) -> NetResult<()> {
        self.write_buf.clear();
        self.codec.encode(frame, &mut self.write_buf)?;
        self.stream.write_all(&self.write_buf).await?;
        self.stream.flush().await?;
        Ok(())
    }

    /// Write raw bytes (used for canned banners that bypass the codec).
    pub async fn write_raw(&mut self, bytes: &[u8]) -> NetResult<()> {
        self.stream.write_all(bytes).await?;
        self.stream.flush().await?;
        Ok(())
    }

    /// Write a response as a head rendered into the pooled write buffer
    /// plus a borrowed body, using vectored I/O.
    ///
    /// `encode_head` renders everything that precedes the body (status
    /// line, headers, length prefix) into the cleared write buffer; the
    /// body is then sent from its own slice without ever being copied into
    /// the buffer. One `writev` covers both in the common case.
    pub async fn write_split<F>(&mut self, encode_head: F, body: &[u8]) -> NetResult<()>
    where
        F: FnOnce(&mut Vec<u8>),
    {
        self.write_buf.clear();
        encode_head(&mut self.write_buf);
        let head_len = self.write_buf.len();
        let total = head_len.saturating_add(body.len());
        let mut written = 0usize;
        while written < total {
            let head_rest = self.write_buf.get(written..).unwrap_or(&[]);
            let body_off = written.saturating_sub(head_len);
            let body_rest = body.get(body_off..).unwrap_or(&[]);
            let n = if head_rest.is_empty() {
                self.stream.write(body_rest).await?
            } else {
                let slices = [IoSlice::new(head_rest), IoSlice::new(body_rest)];
                self.stream.write_vectored(&slices).await?
            };
            if n == 0 {
                return Err(NetError::Io(std::io::Error::from(
                    std::io::ErrorKind::WriteZero,
                )));
            }
            written = written.saturating_add(n);
        }
        self.stream.flush().await?;
        Ok(())
    }

    /// Consume the wrapper, returning the underlying stream and any
    /// unconsumed buffered bytes. The write buffer returns to the pool.
    pub fn into_parts(self) -> (S, RecvBuf) {
        (self.stream, self.read_buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decoy_wire::buf::Bytes;
    use decoy_wire::codec::{LineCodec, RawCodec};
    use tokio::io::duplex;

    #[tokio::test]
    async fn framed_roundtrip_over_duplex() {
        let (a, b) = duplex(256);
        let mut fa = Framed::new(a, LineCodec::default());
        let mut fb = Framed::new(b, LineCodec::default());
        fa.write_frame(&"ping".to_string()).await.unwrap();
        assert_eq!(fb.read_frame().await.unwrap(), Some("ping".to_string()));
        fb.write_frame(&"pong".to_string()).await.unwrap();
        assert_eq!(fa.read_frame().await.unwrap(), Some("pong".to_string()));
        drop(fb);
        assert_eq!(fa.read_frame().await.unwrap(), None); // clean EOF
    }

    #[tokio::test]
    async fn framed_eof_mid_frame_is_error() {
        let (a, b) = duplex(256);
        let mut fa = Framed::new(a, LineCodec::default());
        let mut fb = Framed::new(b, RawCodec);
        fb.write_frame(&Bytes::from_static(b"incomplete"))
            .await
            .unwrap();
        drop(fb);
        assert!(matches!(
            fa.read_frame().await,
            Err(NetError::UnexpectedEof)
        ));
    }

    #[tokio::test]
    async fn framed_enforces_frame_limit() {
        let (a, b) = duplex(4096);
        let mut fa = Framed::new(a, LineCodec::with_max_len(8));
        let mut fb = Framed::new(b, RawCodec);
        fb.write_frame(&Bytes::from(vec![b'x'; 64])).await.unwrap();
        assert!(matches!(
            fa.read_frame().await,
            Err(NetError::FrameTooLarge { .. })
        ));
    }

    #[tokio::test]
    async fn write_split_sends_head_then_body() {
        let (a, b) = duplex(64); // smaller than the payload: forces partial writes
        let mut fa = Framed::new(a, RawCodec);
        let mut fb = Framed::new(b, RawCodec);
        let body = vec![b'Z'; 300];
        let expect_body = body.clone();
        let writer = async move {
            fa.write_split(|buf| buf.extend_from_slice(b"HEAD:"), &body)
                .await
                .unwrap();
            fa
        };
        let reader = async move {
            let mut got = Vec::new();
            while got.len() < 305 {
                match fb.read_frame().await.unwrap() {
                    Some(chunk) => got.extend_from_slice(&chunk),
                    None => break,
                }
            }
            got
        };
        let (_fa, got) = tokio::join!(writer, reader);
        assert_eq!(&got[..5], b"HEAD:");
        assert_eq!(&got[5..], &expect_body[..]);
    }

    #[tokio::test]
    async fn write_split_with_empty_body() {
        let (a, b) = duplex(256);
        let mut fa = Framed::new(a, RawCodec);
        let mut fb = Framed::new(b, RawCodec);
        fa.write_split(|buf| buf.extend_from_slice(b"only-head"), &[])
            .await
            .unwrap();
        drop(fa);
        let got = fb.read_frame().await.unwrap().unwrap();
        assert_eq!(&got[..], b"only-head");
    }
}
