//! The async frame stream: a [`Codec`] bound to an `AsyncRead + AsyncWrite`.
//!
//! The codec layer itself lives in `decoy-wire`, synchronous and I/O-free,
//! so decoders over attacker bytes are compiled, tested, and fuzzed
//! without a runtime.
//!
//! The read side is a [`RecvBuf`]: each read lands in its spare bytes, and
//! the frames a codec splits off share its storage, which it reuses once
//! they are gone. Which bytes make a frame, and when a frame is too large
//! or cut off, is `decoy_wire::codec::read_step`'s rule. The write buffer
//! is checked out of the process-wide [`crate::pool::BufferPool`] and
//! restored when the `Framed` is dropped, so a churning session fleet
//! reuses it instead of hitting the allocator per connection.

use crate::pool::{BufferPool, PooledBuf, SMALL_CLASS};
use decoy_wire::buf::RecvBuf;
use decoy_wire::codec::{read_step, Codec, ReadStep};
use decoy_wire::error::NetResult;
use std::future::poll_fn;
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
/// Owns the read buffer; `read_frame` loops [`read_step`] / read until a
/// frame is complete, the peer disconnects, or the frame limit is exceeded.
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

    /// Bytes currently buffered but not yet decoded.
    pub fn buffered(&self) -> &[u8] {
        &self.read_buf
    }

    /// Read one frame, or `None` on clean EOF at a frame boundary.
    pub async fn read_frame(&mut self) -> NetResult<Option<C::In>> {
        let mut eof = false;
        loop {
            match read_step(&mut self.codec, &mut self.read_buf, eof)? {
                ReadStep::Frame(frame) => return Ok(Some(frame)),
                ReadStep::End => return Ok(None),
                ReadStep::More => eof = read_into(&mut self.stream, &mut self.read_buf).await? == 0,
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use decoy_wire::buf::Bytes;
    use decoy_wire::codec::{LineCodec, RawCodec};
    use decoy_wire::error::NetError;
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
}
