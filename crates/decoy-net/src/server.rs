//! Supervised TCP listeners.
//!
//! A [`Listener`] binds a socket, accepts connections in a dedicated task,
//! and runs each session through a [`SessionHandler`] in its own task — the
//! spawning + graceful-shutdown pattern from the Tokio guide. Every session
//! flows through a [`SessionStream`], which enforces the fleet-wide session
//! limits (wall-clock deadline, idle timeout, byte budget) once at the
//! server layer so no honeypot family can forget them, and which carries
//! the [`crate::chaos`] fault injection when a [`FaultPlan`] is installed.
//! The returned [`ServerHandle`] shuts the listener down on request and can
//! wait for in-flight sessions to drain.

use crate::chaos::ChaosStream;
use crate::limiter::ConnectionGate;
use crate::time::Clock;
use decoy_base::chaos::{AcceptFault, FaultPlan, SessionFaults};
use decoy_base::latency::LatencyShaper;
use std::future::Future;
use std::io;
use std::net::SocketAddr;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::task::{Context, Poll};
use std::time::Duration;
use tokio::io::{AsyncRead, AsyncWrite, ReadBuf};
use tokio::net::{TcpListener, TcpStream};
use tokio::sync::watch;
use tokio::task::JoinHandle;
use tokio::time::Sleep;

/// Broadcast flag observed by sessions that should abort early on shutdown.
#[derive(Debug, Clone)]
pub struct ShutdownSignal {
    rx: watch::Receiver<bool>,
}

/// The one sender behind every [`ShutdownSignal::noop`] receiver: noop
/// signals share it instead of leaking one `watch::Sender` per call.
static NOOP_SHUTDOWN: OnceLock<watch::Sender<bool>> = OnceLock::new();

impl ShutdownSignal {
    /// A signal that never fires — for tests and standalone session drivers.
    pub fn noop() -> Self {
        let tx = NOOP_SHUTDOWN.get_or_init(|| watch::channel(false).0);
        ShutdownSignal { rx: tx.subscribe() }
    }

    /// True once shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        *self.rx.borrow()
    }

    /// Resolves when shutdown is requested (or immediately if it already was).
    pub async fn wait(&mut self) {
        if *self.rx.borrow() {
            return;
        }
        // An Err means the sender is gone, which also means shutdown.
        let _ = self.rx.wait_for(|v| *v).await;
    }
}

/// Build a signal from an existing receiver (crate-internal: the supervisor
/// shares its shutdown channel with its run loops).
pub(crate) fn shutdown_signal_from(rx: watch::Receiver<bool>) -> ShutdownSignal {
    ShutdownSignal { rx }
}

/// Everything a session handler knows about one accepted connection.
#[derive(Debug, Clone)]
pub struct SessionCtx {
    /// Remote endpoint of the connection.
    pub peer: SocketAddr,
    /// The port the honeypot instance is listening on.
    pub local_port: u16,
    /// Time source for event logging.
    pub clock: Clock,
    /// Cooperative shutdown flag.
    pub shutdown: ShutdownSignal,
    /// Monotone per-listener session counter (1-based), continued across
    /// the restarts of a supervised listener.
    pub session_seq: u64,
}

/// Drives one accepted connection. decoy-fleet's honeypot shell is the one
/// implementation outside this crate's tests.
pub trait SessionHandler: Send + Sync + 'static {
    /// Handle a single session to completion. Errors are the handler's to
    /// log; the supervisor only cares that the task ends.
    fn handle(
        self: Arc<Self>,
        stream: SessionStream,
        ctx: SessionCtx,
    ) -> impl Future<Output = ()> + Send;
}

/// Session-level resource limits enforced uniformly by [`SessionStream`].
///
/// These replace the per-family idle macros: every honeypot session gets a
/// wall-clock deadline, an idle timeout, and a read byte budget whether or
/// not the family remembers to ask for them.
#[derive(Debug, Clone)]
pub struct SessionLimits {
    /// Total wall-clock lifetime of a session; reads return EOF and writes
    /// fail once it passes. `None` disables the deadline.
    pub deadline: Option<Duration>,
    /// Reads return EOF after this long without read progress. `None`
    /// disables the idle timeout.
    pub idle: Option<Duration>,
    /// Reads return EOF after this many bytes have been delivered. `None`
    /// disables the budget.
    pub byte_budget: Option<u64>,
}

impl Default for SessionLimits {
    fn default() -> Self {
        SessionLimits {
            deadline: Some(Duration::from_secs(300)),
            idle: Some(Duration::from_secs(30)),
            byte_budget: Some(64 * 1024 * 1024),
        }
    }
}

/// Configuration for a [`Listener`].
#[derive(Debug, Clone)]
pub struct ListenerOptions {
    /// Maximum concurrent sessions; excess connections are dropped at accept.
    pub max_sessions: usize,
    /// Time source propagated to sessions.
    pub clock: Clock,
    /// Per-session limits enforced by the server layer.
    pub limits: SessionLimits,
    /// Fault-injection schedule; `None` (the default) runs clean.
    pub faults: Option<FaultPlan>,
    /// Stable identifier keying this listener's fault decisions (the
    /// deployment uses the instance seed).
    pub fault_key: u64,
    /// Response-latency shaping; `None` (the default) answers immediately.
    /// On a simulated clock the shared clock advances instead of the task
    /// sleeping, so shaped experiments stay deterministic and instant.
    pub latency: Option<LatencyShaper>,
}

impl Default for ListenerOptions {
    fn default() -> Self {
        ListenerOptions {
            max_sessions: 4096,
            clock: Clock::Wall,
            limits: SessionLimits::default(),
            faults: None,
            fault_key: 0,
            latency: None,
        }
    }
}

/// Why the session stream stopped delivering bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SessionCut {
    /// The wall-clock deadline passed.
    Deadline,
    /// No read progress within the idle window.
    Idle,
    /// The read byte budget was exhausted.
    ByteBudget,
}

enum StreamInner {
    Plain(TcpStream),
    Chaos(ChaosStream<TcpStream>),
}

/// The transport every honeypot session reads and writes.
///
/// Wraps the accepted socket and enforces [`SessionLimits`] in-line:
/// limit hits surface as EOF on the read side (so handlers wind down
/// through their normal end-of-stream path and still log the disconnect)
/// and as `TimedOut` errors on the write side once the deadline has
/// passed. When chaos faults are active the socket is additionally wrapped
/// in a [`ChaosStream`].
pub struct SessionStream {
    inner: StreamInner,
    deadline: Option<Pin<Box<Sleep>>>,
    idle: Option<IdleTimer>,
    budget: Option<u64>,
    cut: Option<SessionCut>,
    shape: Option<ShapeState>,
}

struct IdleTimer {
    window: Duration,
    sleep: Pin<Box<Sleep>>,
}

/// Per-session latency-shaping state: one deterministic delay is armed on
/// the first write after each read (one "op" = one request/response turn).
struct ShapeState {
    shaper: LatencyShaper,
    clock: Clock,
    session: u64,
    op: u64,
    /// Delay cap so a shaped delay can never outlive the session deadline.
    cap: Option<Duration>,
    /// A read completed since the last shaped write: the next write is the
    /// start of a response and gets a delay.
    awaiting: bool,
    pending: Option<Pin<Box<Sleep>>>,
}

impl SessionStream {
    /// Wrap an accepted socket with `limits` and optional chaos `faults`.
    pub fn new(stream: TcpStream, limits: &SessionLimits, faults: Option<SessionFaults>) -> Self {
        let inner = match faults {
            Some(f) if !f.is_noop() => StreamInner::Chaos(ChaosStream::new(stream, f)),
            _ => StreamInner::Plain(stream),
        };
        SessionStream {
            inner,
            deadline: limits
                .deadline
                .map(|d| Box::pin(tokio::time::sleep(d)) as Pin<Box<Sleep>>),
            idle: limits.idle.map(|window| IdleTimer {
                window,
                sleep: Box::pin(tokio::time::sleep(window)),
            }),
            budget: limits.byte_budget,
            cut: None,
            shape: None,
        }
    }

    /// Enable deterministic response-latency shaping on this session.
    ///
    /// Each read→write turn draws one delay from `shaper` keyed by
    /// `(session, op)`. On a simulated clock the shared clock advances by
    /// the delay instead of the task sleeping; on the wall clock the write
    /// is held back for the drawn duration. `cap` (normally the session
    /// deadline) bounds every draw.
    pub fn with_shaping(
        mut self,
        shaper: LatencyShaper,
        clock: Clock,
        session: u64,
        cap: Option<Duration>,
    ) -> Self {
        self.shape = Some(ShapeState {
            shaper,
            clock,
            session,
            op: 0,
            cap,
            awaiting: true,
            pending: None,
        });
        self
    }

    /// A stream with no limits and no faults — for drivers and tests that
    /// need the plain transport semantics.
    pub fn unlimited(stream: TcpStream) -> Self {
        let no_limits = SessionLimits {
            deadline: None,
            idle: None,
            byte_budget: None,
        };
        SessionStream::new(stream, &no_limits, None)
    }

    fn deadline_passed(&mut self, cx: &mut Context<'_>) -> bool {
        match self.deadline.as_mut() {
            Some(sleep) => sleep.as_mut().poll(cx).is_ready(),
            None => false,
        }
    }
}

impl AsyncRead for SessionStream {
    fn poll_read(
        self: Pin<&mut Self>,
        cx: &mut Context<'_>,
        buf: &mut ReadBuf<'_>,
    ) -> Poll<io::Result<()>> {
        let this = self.get_mut();
        if this.cut.is_some() {
            return Poll::Ready(Ok(()));
        }
        if this.deadline_passed(cx) {
            this.cut = Some(SessionCut::Deadline);
            return Poll::Ready(Ok(()));
        }
        if let Some(idle) = this.idle.as_mut() {
            if idle.sleep.as_mut().poll(cx).is_ready() {
                this.cut = Some(SessionCut::Idle);
                return Poll::Ready(Ok(()));
            }
        }
        if this.budget == Some(0) {
            this.cut = Some(SessionCut::ByteBudget);
            return Poll::Ready(Ok(()));
        }
        let before = buf.filled().len();
        let res = match &mut this.inner {
            StreamInner::Plain(s) => Pin::new(s).poll_read(cx, buf),
            StreamInner::Chaos(s) => Pin::new(s).poll_read(cx, buf),
        };
        if let Poll::Ready(Ok(())) = res {
            let n = buf.filled().len().saturating_sub(before) as u64;
            if n > 0 {
                if let Some(idle) = this.idle.as_mut() {
                    let next = tokio::time::Instant::now() + idle.window;
                    idle.sleep.as_mut().reset(next);
                }
                if let Some(b) = this.budget.as_mut() {
                    *b = b.saturating_sub(n);
                }
                if let Some(shape) = this.shape.as_mut() {
                    shape.awaiting = true;
                }
            }
        }
        res
    }
}

impl AsyncWrite for SessionStream {
    fn poll_write(
        self: Pin<&mut Self>,
        cx: &mut Context<'_>,
        buf: &[u8],
    ) -> Poll<io::Result<usize>> {
        let this = self.get_mut();
        if this.cut == Some(SessionCut::Deadline) || this.deadline_passed(cx) {
            this.cut = Some(SessionCut::Deadline);
            return Poll::Ready(Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "session deadline exceeded",
            )));
        }
        if let Some(shape) = this.shape.as_mut() {
            if shape.pending.is_none() && shape.awaiting {
                shape.awaiting = false;
                shape.op += 1;
                let delay = shape
                    .shaper
                    .delay_within(shape.session, shape.op, shape.cap);
                match shape.clock.sim() {
                    // Simulated time: the experiment clock advances by the
                    // drawn delay and the write proceeds immediately.
                    Some(sim) => {
                        sim.advance_millis(u64::try_from(delay.as_millis()).unwrap_or(u64::MAX))
                    }
                    None => shape.pending = Some(Box::pin(tokio::time::sleep(delay))),
                }
            }
            if let Some(sleep) = shape.pending.as_mut() {
                match sleep.as_mut().poll(cx) {
                    Poll::Ready(()) => shape.pending = None,
                    Poll::Pending => return Poll::Pending,
                }
            }
        }
        match &mut this.inner {
            StreamInner::Plain(s) => Pin::new(s).poll_write(cx, buf),
            StreamInner::Chaos(s) => Pin::new(s).poll_write(cx, buf),
        }
    }

    fn poll_flush(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<io::Result<()>> {
        match &mut self.get_mut().inner {
            StreamInner::Plain(s) => Pin::new(s).poll_flush(cx),
            StreamInner::Chaos(s) => Pin::new(s).poll_flush(cx),
        }
    }

    fn poll_shutdown(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<io::Result<()>> {
        match &mut self.get_mut().inner {
            StreamInner::Plain(s) => Pin::new(s).poll_shutdown(cx),
            StreamInner::Chaos(s) => Pin::new(s).poll_shutdown(cx),
        }
    }
}

/// Why an accept loop ended — the supervisor restarts on `Crashed` only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ListenerExit {
    /// Orderly shutdown via the [`ServerHandle`].
    Shutdown,
    /// The accept loop died (in practice: an injected chaos crash).
    Crashed,
}

/// Extra wall-clock slack past the session deadline before the session task
/// itself is aborted, as a backstop for handlers stuck in writes.
const HARD_CAP_GRACE: Duration = Duration::from_secs(5);

/// A running TCP listener bound to one honeypot instance.
pub struct Listener;

impl Listener {
    /// Bind `addr` and serve sessions with `handler` until shutdown,
    /// numbering them from 1.
    pub async fn bind<H: SessionHandler>(
        addr: SocketAddr,
        handler: Arc<H>,
        options: ListenerOptions,
    ) -> io::Result<ServerHandle> {
        Listener::bind_counting(addr, handler, options, Arc::default()).await
    }

    /// [`Listener::bind`], numbering sessions on from the last number in
    /// `sessions`. A supervised instance owns the counter and passes it to
    /// every bind, so a rebound listener continues its sessions' numbers
    /// and the fault plan's draws, and the latency shaper's keys, where the
    /// crashed one stopped.
    pub async fn bind_counting<H: SessionHandler>(
        addr: SocketAddr,
        handler: Arc<H>,
        options: ListenerOptions,
        sessions: Arc<AtomicU64>,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr).await?;
        let local_addr = listener.local_addr()?;
        let (shutdown_tx, shutdown_rx) = watch::channel(false);
        let gate = ConnectionGate::new(options.max_sessions);
        let accept_gate = gate.clone();

        let accept_task: JoinHandle<ListenerExit> = tokio::spawn(async move {
            let mut shutdown = ShutdownSignal {
                rx: shutdown_rx.clone(),
            };
            loop {
                let accepted = tokio::select! {
                    biased;
                    _ = shutdown.wait() => break ListenerExit::Shutdown,
                    r = listener.accept() => r,
                };
                let (stream, peer) = match accepted {
                    Ok(pair) => pair,
                    // Transient accept errors (EMFILE, resets) must not kill
                    // the listener; yield and retry.
                    Err(_) => {
                        tokio::task::yield_now().await;
                        continue;
                    }
                };
                let Some(permit) = accept_gate.try_acquire() else {
                    drop(stream);
                    continue;
                };
                // Relaxed: the counter publishes no other data, and one
                // bind's accept loop has ended (its task joined by the
                // supervisor) before the next bind's starts.
                let session_seq = sessions.fetch_add(1, Ordering::Relaxed).saturating_add(1);
                let mut session_faults = None;
                if let Some(plan) = options.faults.as_ref() {
                    match plan.at_accept(options.fault_key, session_seq) {
                        AcceptFault::Deliver => {
                            session_faults = Some(plan.for_session(options.fault_key, session_seq));
                        }
                        AcceptFault::Refuse => {
                            drop(stream);
                            drop(permit);
                            continue;
                        }
                        AcceptFault::CrashListener => {
                            drop(stream);
                            drop(permit);
                            break ListenerExit::Crashed;
                        }
                    }
                }
                let ctx = SessionCtx {
                    peer,
                    local_port: local_addr.port(),
                    clock: options.clock.clone(),
                    shutdown: ShutdownSignal {
                        rx: shutdown_rx.clone(),
                    },
                    session_seq,
                };
                let mut stream = SessionStream::new(stream, &options.limits, session_faults);
                if let Some(shaper) = options.latency.as_ref() {
                    stream = stream.with_shaping(
                        shaper.clone(),
                        options.clock.clone(),
                        options.fault_key ^ session_seq,
                        options.limits.deadline,
                    );
                }
                let handler = handler.clone();
                let hard_cap = options.limits.deadline.map(|d| d + HARD_CAP_GRACE);
                tokio::spawn(async move {
                    match hard_cap {
                        Some(cap) => {
                            let _ = tokio::time::timeout(cap, handler.handle(stream, ctx)).await;
                        }
                        None => handler.handle(stream, ctx).await,
                    }
                    drop(permit);
                });
            }
        });

        Ok(ServerHandle {
            local_addr,
            shutdown_tx,
            accept_task,
            gate,
        })
    }
}

/// Handle to a running listener; shuts down on [`ServerHandle::shutdown`].
pub struct ServerHandle {
    local_addr: SocketAddr,
    shutdown_tx: watch::Sender<bool>,
    accept_task: JoinHandle<ListenerExit>,
    gate: ConnectionGate,
}

impl ServerHandle {
    /// The address the listener actually bound (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Number of sessions currently in flight.
    pub fn active_sessions(&self) -> usize {
        self.gate.active()
    }

    /// Wait for the accept loop to end on its own and report why. A task
    /// that panicked or was aborted counts as crashed. Callers must not
    /// call this again after it resolves; consume the handle instead.
    pub async fn wait_exit(&mut self) -> ListenerExit {
        match (&mut self.accept_task).await {
            Ok(exit) => exit,
            Err(_) => ListenerExit::Crashed,
        }
    }

    /// Request shutdown and wait for the accept loop to exit. In-flight
    /// sessions observe the shared [`ShutdownSignal`]; callers that need a
    /// bounded drain use [`ServerHandle::shutdown_with_deadline`].
    pub async fn shutdown(self) {
        self.shutdown_with_deadline(Duration::ZERO).await;
    }

    /// Request shutdown, wait for the accept loop to exit, then wait up to
    /// `drain` for in-flight sessions to finish. Sessions still running at
    /// the deadline are left to the shared [`ShutdownSignal`].
    pub async fn shutdown_with_deadline(self, drain: Duration) {
        let _ = self.shutdown_tx.send(true);
        let _ = self.accept_task.await;
        if drain.is_zero() {
            return;
        }
        let deadline = tokio::time::Instant::now() + drain;
        while self.gate.active() > 0 && tokio::time::Instant::now() < deadline {
            tokio::time::sleep(Duration::from_millis(5)).await;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framed::Framed;
    use decoy_wire::codec::LineCodec;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use tokio::io::{AsyncReadExt, AsyncWriteExt};

    struct Echo {
        sessions: AtomicUsize,
    }

    impl SessionHandler for Echo {
        async fn handle(self: Arc<Self>, stream: SessionStream, _ctx: SessionCtx) {
            self.sessions.fetch_add(1, Ordering::SeqCst);
            let mut framed = Framed::new(stream, LineCodec::default());
            while let Ok(Some(line)) = framed.read_frame().await {
                if framed.write_frame(&line).await.is_err() {
                    break;
                }
            }
        }
    }

    fn loopback() -> SocketAddr {
        "127.0.0.1:0".parse().unwrap()
    }

    #[tokio::test]
    async fn serves_and_echoes_multiple_clients() {
        let handler = Arc::new(Echo {
            sessions: AtomicUsize::new(0),
        });
        let server = Listener::bind(loopback(), handler.clone(), ListenerOptions::default())
            .await
            .unwrap();
        let addr = server.local_addr();

        for i in 0..4 {
            let stream = TcpStream::connect(addr).await.unwrap();
            let mut framed = Framed::new(stream, LineCodec::default());
            let msg = format!("hello-{i}");
            framed.write_frame(&msg).await.unwrap();
            assert_eq!(framed.read_frame().await.unwrap(), Some(msg));
        }
        server.shutdown().await;
        assert_eq!(handler.sessions.load(Ordering::SeqCst), 4);
    }

    #[tokio::test]
    async fn shutdown_stops_accepting() {
        let handler = Arc::new(Echo {
            sessions: AtomicUsize::new(0),
        });
        let server = Listener::bind(loopback(), handler, ListenerOptions::default())
            .await
            .unwrap();
        let addr = server.local_addr();
        server.shutdown().await;
        // Either the connect fails outright, or it succeeds (kernel backlog)
        // and the socket is immediately closed with no reads possible.
        if let Ok(mut s) = TcpStream::connect(addr).await {
            let mut buf = [0u8; 1];
            s.write_all(b"x").await.ok();
            let n = s.read(&mut buf).await.unwrap_or(0);
            assert_eq!(n, 0);
        }
    }

    #[tokio::test]
    async fn session_ctx_carries_peer_and_seq() {
        struct Capture {
            seqs: decoy_base::sync::Mutex<Vec<u64>>,
        }
        impl SessionHandler for Capture {
            async fn handle(self: Arc<Self>, _stream: SessionStream, ctx: SessionCtx) {
                assert!(ctx.peer.ip().is_loopback());
                assert!(!ctx.shutdown.is_shutdown());
                self.seqs.lock().push(ctx.session_seq);
            }
        }
        let handler = Arc::new(Capture {
            seqs: decoy_base::sync::Mutex::new(vec![]),
        });
        let server = Listener::bind(loopback(), handler.clone(), ListenerOptions::default())
            .await
            .unwrap();
        for _ in 0..3 {
            let s = TcpStream::connect(server.local_addr()).await.unwrap();
            drop(s);
        }
        // Give the sessions a moment to run.
        tokio::time::sleep(std::time::Duration::from_millis(100)).await;
        server.shutdown().await;
        let mut seqs = handler.seqs.lock().clone();
        seqs.sort_unstable();
        assert_eq!(seqs, vec![1, 2, 3]);
    }

    #[tokio::test]
    async fn noop_signal_is_shared_and_never_fires() {
        let a = ShutdownSignal::noop();
        let b = ShutdownSignal::noop();
        assert!(!a.is_shutdown());
        assert!(!b.is_shutdown());
        // Both receivers hang off the one static sender.
        let tx = NOOP_SHUTDOWN.get().expect("initialized by noop()");
        assert!(tx.receiver_count() >= 2);
    }

    #[tokio::test]
    async fn idle_timeout_cuts_a_silent_session() {
        let options = ListenerOptions {
            limits: SessionLimits {
                deadline: Some(Duration::from_secs(10)),
                idle: Some(Duration::from_millis(150)),
                byte_budget: None,
            },
            ..ListenerOptions::default()
        };
        let handler = Arc::new(Echo {
            sessions: AtomicUsize::new(0),
        });
        let server = Listener::bind(loopback(), handler, options).await.unwrap();
        let mut client = TcpStream::connect(server.local_addr()).await.unwrap();
        // Say nothing: the server must EOF our read once the handler exits.
        let mut buf = [0u8; 8];
        let read = tokio::time::timeout(Duration::from_secs(5), client.read(&mut buf)).await;
        assert_eq!(read.expect("server idle-cut within 5s").unwrap_or(0), 0);
        server.shutdown().await;
    }

    #[tokio::test]
    async fn deadline_cuts_a_slow_drip_session() {
        let options = ListenerOptions {
            limits: SessionLimits {
                deadline: Some(Duration::from_millis(300)),
                idle: Some(Duration::from_secs(10)),
                byte_budget: None,
            },
            ..ListenerOptions::default()
        };
        let handler = Arc::new(Echo {
            sessions: AtomicUsize::new(0),
        });
        let server = Listener::bind(loopback(), handler, options).await.unwrap();
        let mut client = TcpStream::connect(server.local_addr()).await.unwrap();
        let start = tokio::time::Instant::now();
        // Drip bytes without ever completing a line: idle never fires, the
        // wall-clock deadline must.
        let mut buf = [0u8; 8];
        loop {
            if client.write_all(b"x").await.is_err() {
                break;
            }
            match tokio::time::timeout(Duration::from_millis(40), client.read(&mut buf)).await {
                Ok(Ok(0)) | Ok(Err(_)) => break,
                _ => {}
            }
            if start.elapsed() > Duration::from_secs(5) {
                panic!("slow-drip session outlived the deadline");
            }
        }
        assert!(start.elapsed() < Duration::from_secs(5));
        server.shutdown().await;
    }

    #[tokio::test]
    async fn byte_budget_cuts_a_flooding_session() {
        let options = ListenerOptions {
            limits: SessionLimits {
                deadline: Some(Duration::from_secs(10)),
                idle: Some(Duration::from_secs(10)),
                byte_budget: Some(1024),
            },
            ..ListenerOptions::default()
        };
        let handler = Arc::new(Echo {
            sessions: AtomicUsize::new(0),
        });
        let server = Listener::bind(loopback(), handler, options).await.unwrap();
        let mut client = TcpStream::connect(server.local_addr()).await.unwrap();
        let chunk = [b'a'; 512];
        let start = tokio::time::Instant::now();
        loop {
            if client.write_all(&chunk).await.is_err() {
                break;
            }
            let mut buf = [0u8; 4096];
            match tokio::time::timeout(Duration::from_millis(20), client.read(&mut buf)).await {
                Ok(Ok(0)) | Ok(Err(_)) => break,
                _ => {}
            }
            if start.elapsed() > Duration::from_secs(5) {
                panic!("flooding session outlived its byte budget");
            }
        }
        server.shutdown().await;
    }

    #[tokio::test]
    async fn shutdown_with_deadline_waits_for_drain() {
        struct SlowFinish;
        impl SessionHandler for SlowFinish {
            async fn handle(self: Arc<Self>, _stream: SessionStream, mut ctx: SessionCtx) {
                // Finish quickly once shutdown is signaled.
                ctx.shutdown.wait().await;
                tokio::time::sleep(Duration::from_millis(50)).await;
            }
        }
        let server = Listener::bind(loopback(), Arc::new(SlowFinish), ListenerOptions::default())
            .await
            .unwrap();
        let _client = TcpStream::connect(server.local_addr()).await.unwrap();
        // Wait until the session is actually registered.
        let started = tokio::time::Instant::now();
        while server.active_sessions() == 0 {
            if started.elapsed() > Duration::from_secs(5) {
                panic!("session never started");
            }
            tokio::time::sleep(Duration::from_millis(5)).await;
        }
        let gate = server.gate.clone();
        server.shutdown_with_deadline(Duration::from_secs(5)).await;
        assert_eq!(gate.active(), 0, "drain deadline did not wait for session");
    }

    #[tokio::test]
    async fn latency_shaping_advances_the_sim_clock() {
        use decoy_base::latency::{LatencyProfile, LatencyShaper};
        let clock = Clock::simulated();
        let sim = clock.sim().unwrap().clone();
        let t0 = sim.now();
        let options = ListenerOptions {
            clock,
            latency: Some(LatencyShaper::new(11, LatencyProfile::lan())),
            ..ListenerOptions::default()
        };
        let handler = Arc::new(Echo {
            sessions: AtomicUsize::new(0),
        });
        let server = Listener::bind(loopback(), handler, options).await.unwrap();
        let stream = TcpStream::connect(server.local_addr()).await.unwrap();
        let mut framed = Framed::new(stream, LineCodec::default());
        for i in 0..10 {
            let msg = format!("ping-{i}");
            framed.write_frame(&msg).await.unwrap();
            assert_eq!(framed.read_frame().await.unwrap(), Some(msg));
        }
        server.shutdown().await;
        // Each response advanced the simulated clock instead of sleeping.
        assert!(sim.now() > t0, "shaped responses left the sim clock still");
    }

    #[tokio::test]
    async fn latency_shaping_on_wall_clock_still_echoes() {
        use decoy_base::latency::{LatencyProfile, LatencyShaper};
        let options = ListenerOptions {
            latency: Some(LatencyShaper::new(7, LatencyProfile::cache())),
            ..ListenerOptions::default()
        };
        let handler = Arc::new(Echo {
            sessions: AtomicUsize::new(0),
        });
        let server = Listener::bind(loopback(), handler, options).await.unwrap();
        let stream = TcpStream::connect(server.local_addr()).await.unwrap();
        let mut framed = Framed::new(stream, LineCodec::default());
        framed.write_frame(&"shaped".to_string()).await.unwrap();
        assert_eq!(
            framed.read_frame().await.unwrap(),
            Some("shaped".to_string())
        );
        server.shutdown().await;
    }

    #[tokio::test]
    async fn chaos_crash_fault_ends_accept_loop() {
        let plan = FaultPlan {
            crash_per_mille: 1000,
            ..FaultPlan::new(5)
        };
        let options = ListenerOptions {
            faults: Some(plan),
            fault_key: 9,
            ..ListenerOptions::default()
        };
        let handler = Arc::new(Echo {
            sessions: AtomicUsize::new(0),
        });
        let mut server = Listener::bind(loopback(), handler, options).await.unwrap();
        let _client = TcpStream::connect(server.local_addr()).await.unwrap();
        let exit = tokio::time::timeout(Duration::from_secs(5), server.wait_exit())
            .await
            .expect("accept loop must crash on the injected fault");
        assert_eq!(exit, ListenerExit::Crashed);
    }
}
