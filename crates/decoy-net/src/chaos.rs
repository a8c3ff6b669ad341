//! The socket side of fault injection: [`ChaosStream`] applies one
//! delivered session's `decoy_base::chaos::SessionFaults` to the server's
//! socket. The plan, its draws and the byte rule a faulted connection
//! follows are decoy-base's (`decoy_base::chaos`), shared with the
//! in-memory transport; this wrapper adds only what needs a runtime, the
//! stall before the first read.
//!
//! The listener ([`crate::server::Listener`]) draws each accept's fault and
//! wraps a delivered session's socket in a [`ChaosStream`] under its
//! [`crate::server::SessionStream`].

use decoy_base::chaos::{FaultedIo, SessionFaults};
use std::future::Future;
use std::io;
use std::pin::Pin;
use std::task::{ready, Context, Poll};
use std::time::Duration;
use tokio::io::{AsyncRead, AsyncWrite, ReadBuf};
use tokio::time::Sleep;

/// An `AsyncRead + AsyncWrite` wrapper applying one session's
/// [`SessionFaults`] to the underlying transport: the stall before the
/// first read, then the byte rule of [`FaultedIo`] on every read and write.
#[derive(Debug)]
pub struct ChaosStream<S> {
    inner: S,
    /// The stall still to serve before the first read.
    stall: Option<Duration>,
    /// Armed lazily on the first read when a stall fault is active.
    sleep: Option<Pin<Box<Sleep>>>,
    io: FaultedIo,
}

impl<S> ChaosStream<S> {
    /// Wrap `inner` with `faults`.
    pub fn new(inner: S, faults: SessionFaults) -> Self {
        ChaosStream {
            inner,
            stall: faults.stall,
            sleep: None,
            io: FaultedIo::new(faults),
        }
    }
}

impl<S: AsyncRead + Unpin> AsyncRead for ChaosStream<S> {
    fn poll_read(
        self: Pin<&mut Self>,
        cx: &mut Context<'_>,
        buf: &mut ReadBuf<'_>,
    ) -> Poll<io::Result<()>> {
        let this = self.get_mut();
        if let Some(wait) = this.stall {
            let sleep = this
                .sleep
                .get_or_insert_with(|| Box::pin(tokio::time::sleep(wait)));
            ready!(sleep.as_mut().poll(cx));
            this.stall = None;
            this.sleep = None;
        }
        if this.io.one_byte()? {
            // One byte at a time through a bounce buffer; the copy is
            // irrelevant at chaos-test volumes.
            let mut byte = [0u8; 1];
            let mut one = ReadBuf::new(&mut byte);
            ready!(Pin::new(&mut this.inner).poll_read(cx, &mut one))?;
            buf.put_slice(one.filled());
            this.io.record(one.filled().len());
        } else {
            let before = buf.filled().len();
            ready!(Pin::new(&mut this.inner).poll_read(cx, buf))?;
            this.io.record(buf.filled().len().saturating_sub(before));
        }
        Poll::Ready(Ok(()))
    }
}

impl<S: AsyncWrite + Unpin> AsyncWrite for ChaosStream<S> {
    fn poll_write(
        self: Pin<&mut Self>,
        cx: &mut Context<'_>,
        buf: &[u8],
    ) -> Poll<io::Result<usize>> {
        let this = self.get_mut();
        let cut = if this.io.one_byte()? {
            buf.get(..1.min(buf.len())).unwrap_or(buf)
        } else {
            buf
        };
        let n = ready!(Pin::new(&mut this.inner).poll_write(cx, cut))?;
        this.io.record(n);
        Poll::Ready(Ok(n))
    }

    fn poll_flush(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<io::Result<()>> {
        Pin::new(&mut self.get_mut().inner).poll_flush(cx)
    }

    fn poll_shutdown(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<io::Result<()>> {
        Pin::new(&mut self.get_mut().inner).poll_shutdown(cx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tokio::io::{AsyncReadExt, AsyncWriteExt};

    #[tokio::test]
    async fn partial_io_degrades_to_single_bytes() {
        let (client, server) = tokio::io::duplex(1024);
        let faults = SessionFaults {
            partial_io: true,
            ..SessionFaults::default()
        };
        let mut chaotic = ChaosStream::new(server, faults);
        let mut client = client;
        client.write_all(b"hello").await.unwrap();
        let mut buf = [0u8; 16];
        let n = chaotic.read(&mut buf).await.unwrap();
        assert_eq!(n, 1, "partial read must deliver one byte");
        let written = chaotic.write(b"world").await.unwrap();
        assert_eq!(written, 1, "partial write must accept one byte");
    }

    #[tokio::test]
    async fn reset_fault_trips_after_budget() {
        let (client, server) = tokio::io::duplex(1024);
        let faults = SessionFaults {
            reset_after: Some(4),
            ..SessionFaults::default()
        };
        let mut chaotic = ChaosStream::new(server, faults);
        let mut client = client;
        client.write_all(b"abcdefgh").await.unwrap();
        let mut buf = [0u8; 8];
        chaotic.read_exact(&mut buf[..4]).await.unwrap();
        let err = chaotic.read(&mut buf).await.unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
    }

    #[tokio::test(start_paused = true)]
    async fn stall_delays_first_read_only() {
        let (client, server) = tokio::io::duplex(1024);
        let faults = SessionFaults {
            stall: Some(Duration::from_millis(500)),
            ..SessionFaults::default()
        };
        let mut chaotic = ChaosStream::new(server, faults);
        let mut client = client;
        client.write_all(b"xy").await.unwrap();
        let start = tokio::time::Instant::now();
        let mut buf = [0u8; 1];
        chaotic.read_exact(&mut buf).await.unwrap();
        assert!(start.elapsed() >= Duration::from_millis(500));
        let again = tokio::time::Instant::now();
        chaotic.read_exact(&mut buf).await.unwrap();
        assert!(again.elapsed() < Duration::from_millis(500));
    }
}
