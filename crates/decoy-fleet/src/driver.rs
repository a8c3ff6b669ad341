//! Network mode's transport: [`run_session`] runs the attack client
//! (`decoy_agents::client`) over real TCP against a live honeypot, and
//! [`loopback`] lends the same transport to the fingerprint battery.
//!
//! Each connection announces the simulated actor's source address with a
//! PROXY v1 header (exactly what a honeypot behind a TCP load balancer
//! sees), then carries the client codec's frames through a [`Framed`]
//! stream. This transport also holds a visit's wall-clock bounds, which
//! the in-memory transport has no use for.

use decoy_agents::client::{self, SessionOutcome};
use decoy_agents::schedule::PlannedSession;
use decoy_net::framed::Framed;
use decoy_net::proxy;
use decoy_wire::codec::{Codec, Connection, Dial, RawCodec};
use decoy_wire::error::{NetError, NetResult};
use std::any::TypeId;
use std::net::{IpAddr, Ipv4Addr, SocketAddr};
use std::time::{Duration, Instant};
use tokio::io::{AsyncRead, AsyncWrite, AsyncWriteExt};
use tokio::net::TcpStream;

/// Hard ceiling on one planned session; a backstop only — burst loops
/// self-limit via [`BURST_BUDGET`] so cancellation never lands between a
/// `connect()` and its PROXY header (which would log a loopback artifact).
const SESSION_DEADLINE: Duration = Duration::from_secs(120);

/// Budget for multi-connection bursts; on expiry the burst stops cleanly at
/// a connection boundary.
const BURST_BUDGET: Duration = Duration::from_secs(45);

/// How long a raw probe (a [`RawCodec`] connection) waits for a banner or
/// an error: a port waiting for the rest of a foreign protocol never
/// answers.
const BANNER_WAIT: Duration = Duration::from_millis(200);

/// Execute `session` against the honeypot listening at `addr`.
pub async fn run_session(addr: SocketAddr, session: &PlannedSession) -> SessionOutcome {
    run_session_with(addr, session, Ok).await
}

/// [`run_session`], each connection's socket passed through `wrap` before
/// the PROXY header: a load harness counts the bytes on the wire this way.
pub async fn run_session_with<S, W>(
    addr: SocketAddr,
    session: &PlannedSession,
    wrap: W,
) -> SessionOutcome
where
    S: AsyncRead + AsyncWrite + Unpin,
    W: Fn(TcpStream) -> std::io::Result<S>,
{
    let mut tcp = Tcp {
        addr,
        src: SocketAddr::new(
            IpAddr::V4(session.src),
            40_000 + (session.ts.as_millis() % 20_000) as u16,
        ),
        started: Instant::now(),
        wrap,
    };
    match tokio::time::timeout(SESSION_DEADLINE, client::run(&mut tcp, session)).await {
        Ok(outcome) => outcome,
        Err(_) => SessionOutcome {
            connections: 1,
            errors: 1,
        },
    }
}

/// The TCP transport to the honeypot at `addr` for a client that is no
/// planned session (the fingerprint battery): its PROXY header names a
/// loopback source, and each connection's socket passes through `wrap`
/// before the header.
pub fn loopback<S, W>(addr: SocketAddr, wrap: W) -> impl Dial
where
    S: AsyncRead + AsyncWrite + Unpin,
    W: Fn(TcpStream) -> std::io::Result<S>,
{
    Tcp {
        addr,
        src: SocketAddr::from((Ipv4Addr::LOCALHOST, 40_000)),
        started: Instant::now(),
        wrap,
    }
}

/// The TCP transport of one visit from `src` to the honeypot at `addr`.
struct Tcp<W> {
    addr: SocketAddr,
    src: SocketAddr,
    started: Instant,
    wrap: W,
}

impl<S, W> Dial for Tcp<W>
where
    S: AsyncRead + AsyncWrite + Unpin,
    W: Fn(TcpStream) -> std::io::Result<S>,
{
    type Conn<C: Codec + 'static> = TcpConn<S, C>;

    async fn dial<C: Codec + 'static>(&mut self, codec: C) -> Option<NetResult<TcpConn<S, C>>> {
        if self.started.elapsed() > BURST_BUDGET {
            return None;
        }
        let connected = async {
            let mut stream = (self.wrap)(TcpStream::connect(self.addr).await?)?;
            let header = proxy::encode_v1(self.src, self.addr);
            stream.write_all(header.as_bytes()).await?;
            Ok(TcpConn {
                framed: Framed::new(stream, codec),
                raw: TypeId::of::<C>() == TypeId::of::<RawCodec>(),
            })
        };
        Some(connected.await)
    }
}

/// One connection of [`Tcp`].
struct TcpConn<S, C> {
    framed: Framed<S, C>,
    /// A raw probe, whose reads wait [`BANNER_WAIT`] at most.
    raw: bool,
}

impl<S: AsyncRead + AsyncWrite + Unpin, C: Codec> Connection<C> for TcpConn<S, C> {
    async fn send(&mut self, frame: &C::Out) -> NetResult<()> {
        self.framed.write_frame(frame).await
    }

    async fn recv(&mut self) -> NetResult<Option<C::In>> {
        if !self.raw {
            return self.framed.read_frame().await;
        }
        let read = tokio::time::timeout(BANNER_WAIT, self.framed.read_frame()).await;
        read.unwrap_or(Err(NetError::IdleTimeout))
    }
}
