//! Deployment: the one async shell that puts a honeypot's session machine
//! on a socket, and the helpers that turn a [`HoneypotSpec`] into a bound,
//! running listener. The network runner uses them to stand up the full
//! Table 4 fleet; the examples use them for single instances.

use decoy_base::supervision::Transition;
use decoy_base::time::Clock;
use decoy_honeypots::deploy::{self, Visitor};
use decoy_honeypots::logging::log_transition;
use decoy_honeypots::session::{Conversation, Frame, Reply, Session};
use decoy_honeypots::SessionLogger;
use decoy_net::framed::Framed;
use decoy_net::proxy;
use decoy_net::server::{
    Listener, ListenerOptions, ServerHandle, SessionCtx, SessionHandler, SessionStream,
};
use decoy_net::supervisor::{ListenerFactory, SupervisedListener, Supervisor, TransitionObserver};
use decoy_store::{Dbms, EventStore, HoneypotId};
use decoy_wire::error::NetResult;
use std::future::Future;
use std::net::{Ipv4Addr, SocketAddr};
use std::pin::Pin;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Duration;

/// MySQL is server-speaks-first: a client with no PROXY header to send is
/// itself waiting for the greeting, so the sniff gives up after this long.
const MYSQL_SNIFF_DEADLINE: Duration = Duration::from_millis(1500);

/// The socket side of every honeypot: sniff a PROXY header, then read
/// frames with the machine's codec, feed them to a fresh clone of
/// `machine` and write its replies, logging the session's life through a
/// [`Conversation`].
pub struct Shell<S> {
    store: Arc<EventStore>,
    id: HoneypotId,
    machine: S,
}

impl<S> Shell<S> {
    /// A shell that runs a clone of `machine` per accepted connection and
    /// logs into `store` as honeypot `id`.
    pub fn new(store: Arc<EventStore>, id: HoneypotId, machine: S) -> Arc<Self> {
        Arc::new(Shell { store, id, machine })
    }
}

impl<S> SessionHandler for Shell<S>
where
    S: Session + Clone + Send + Sync + 'static,
    S::Codec: Send,
    Frame<S>: Send,
    Reply<S>: Send + Sync,
{
    async fn handle(self: Arc<Self>, mut stream: SessionStream, ctx: SessionCtx) {
        let sniff = if self.id.dbms == Dbms::MySql {
            proxy::maybe_read_v1_deadline(&mut stream, MYSQL_SNIFF_DEADLINE).await
        } else {
            proxy::maybe_read_v1(&mut stream).await
        };
        let Ok((proxied, initial)) = sniff else {
            return;
        };
        let log = SessionLogger::new(
            self.store.clone(),
            self.id,
            ctx.clock,
            ctx.session_seq,
            ctx.peer.ip(),
            proxied.map(|sa| sa.ip()),
        );
        let machine = self.machine.clone();
        let mut framed = Framed::with_initial(stream, machine.codec(), initial);
        let mut session = Conversation::open(machine, log);
        let written = converse(&mut session, &mut framed).await;
        session.close(written);
    }
}

/// Write the session's replies and read its next frame until it ends;
/// `Err` is the write that failed.
async fn converse<S: Session>(
    session: &mut Conversation<S>,
    framed: &mut Framed<SessionStream, S::Codec>,
) -> NetResult<()> {
    loop {
        for reply in session.replies() {
            framed.write_frame(&reply).await?;
        }
        if !session.is_open() {
            return Ok(());
        }
        let read = framed.read_frame().await;
        session.read(read, framed.buffered());
    }
}

/// What to deploy.
#[derive(Debug, Clone)]
pub struct HoneypotSpec {
    /// Identity (dbms, level, config, instance number).
    pub id: HoneypotId,
    /// Address to bind; port 0 lets the OS choose (the experiment harness
    /// does this and records the mapping).
    pub bind: SocketAddr,
    /// Time source for logging.
    pub clock: Clock,
    /// Seed for any fake data the config variant requires.
    pub seed: u64,
}

impl HoneypotSpec {
    /// A loopback spec with an OS-assigned port.
    pub fn loopback(id: HoneypotId, clock: Clock, seed: u64) -> Self {
        HoneypotSpec {
            id,
            bind: SocketAddr::from((Ipv4Addr::LOCALHOST, 0)),
            clock,
            seed,
        }
    }
}

/// A deployed instance.
pub struct RunningHoneypot {
    /// Identity of the instance.
    pub id: HoneypotId,
    /// The bound listener.
    pub server: ServerHandle,
}

impl RunningHoneypot {
    /// The address attackers should dial.
    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Stop the instance, allowing in-flight sessions a bounded drain.
    pub async fn shutdown(self) {
        self.server
            .shutdown_with_deadline(Duration::from_secs(5))
            .await;
    }
}

/// Spawn the honeypot described by `spec`, logging into `store`, with
/// default listener options.
pub async fn spawn(store: Arc<EventStore>, spec: HoneypotSpec) -> std::io::Result<RunningHoneypot> {
    let options = ListenerOptions {
        clock: spec.clock.clone(),
        ..ListenerOptions::default()
    };
    spawn_with_options(store, spec, options).await
}

/// Spawn the honeypot described by `spec` with explicit listener options
/// (session limits, fault injection). The resilience tests use this to run
/// families under tight deadlines and chaos plans.
pub async fn spawn_with_options(
    store: Arc<EventStore>,
    spec: HoneypotSpec,
    options: ListenerOptions,
) -> std::io::Result<RunningHoneypot> {
    let id = spec.id;
    let server = bind_listener(store, &spec, options, spec.bind, Arc::default()).await?;
    Ok(RunningHoneypot { id, server })
}

/// Bind the listener for `spec` at `addr`, around the machine
/// [`deploy::visit`] builds for it, numbering its sessions on from
/// `sessions`. The supervisor calls it again on every restart with the
/// same counter, re-seeding fake data identically from `spec.seed`.
async fn bind_listener(
    store: Arc<EventStore>,
    spec: &HoneypotSpec,
    options: ListenerOptions,
    addr: SocketAddr,
    sessions: Arc<AtomicU64>,
) -> std::io::Result<ServerHandle> {
    let bind = Bind {
        addr,
        store,
        id: spec.id,
        options,
        sessions,
    };
    deploy::visit(spec.id, spec.seed, bind)?.await
}

/// The [`Visitor`] that binds a [`Shell`] around a honeypot's machine.
struct Bind {
    addr: SocketAddr,
    store: Arc<EventStore>,
    id: HoneypotId,
    options: ListenerOptions,
    sessions: Arc<AtomicU64>,
}

impl Visitor for Bind {
    type Output = Pin<Box<dyn Future<Output = std::io::Result<ServerHandle>> + Send>>;

    fn machine<S>(self, machine: S) -> Self::Output
    where
        S: Session + Clone + Send + Sync + 'static,
        S::Codec: Send,
        Frame<S>: Send,
        Reply<S>: Send + Sync,
    {
        let shell = Shell::new(self.store, self.id, machine);
        Box::pin(Listener::bind_counting(
            self.addr,
            shell,
            self.options,
            self.sessions,
        ))
    }
}

/// A honeypot kept alive by a [`Supervisor`]: the listener is rebound at
/// the same address after crashes, and health transitions are logged into
/// the deployment's event store.
pub struct SupervisedHoneypot {
    /// Identity of the instance.
    pub id: HoneypotId,
    /// Handle to the supervised listener.
    pub listener: SupervisedListener,
}

impl SupervisedHoneypot {
    /// The address attackers should dial (stable across restarts).
    pub fn addr(&self) -> SocketAddr {
        self.listener.addr()
    }
}

/// Spawn `spec` under `supervisor`: the listener restarts on death with the
/// supervisor's backoff policy, its session numbers running on across
/// restarts, and every health transition goes to
/// [`log_transition`], which appends the post-bind ones to `store` as
/// `Health` events so the report can build the fleet-uptime table.
pub async fn spawn_supervised(
    store: Arc<EventStore>,
    spec: HoneypotSpec,
    supervisor: &Supervisor,
    options: ListenerOptions,
) -> std::io::Result<SupervisedHoneypot> {
    let id = spec.id;
    let name = id.to_string();
    let fault_seed = spec.seed;
    let bind = spec.bind;
    let factory_store = store.clone();
    let sessions = Arc::new(AtomicU64::new(0));
    let factory: ListenerFactory = Box::new(move |addr| {
        let store = factory_store.clone();
        let spec = spec.clone();
        let options = options.clone();
        let sessions = sessions.clone();
        Box::pin(async move { bind_listener(store, &spec, options, addr, sessions).await })
    });
    let observer: TransitionObserver =
        Arc::new(move |t: &Transition| log_transition(&store, id, t));
    let listener = supervisor
        .supervise(name, bind, fault_seed, factory, Some(observer))
        .await?;
    Ok(SupervisedHoneypot { id, listener })
}

#[cfg(test)]
mod tests {
    use super::*;
    use decoy_store::{ConfigVariant, InteractionLevel};
    use decoy_wire::resp::{RespCodec, RespValue};
    use tokio::io::AsyncWriteExt;
    use tokio::net::TcpStream;

    fn id(dbms: Dbms, level: InteractionLevel, config: ConfigVariant) -> HoneypotId {
        HoneypotId::new(dbms, level, config, 0)
    }

    #[tokio::test]
    async fn spawns_every_supported_spec() {
        let store = EventStore::new();
        let specs = [
            id(
                Dbms::MySql,
                InteractionLevel::Low,
                ConfigVariant::MultiService,
            ),
            id(
                Dbms::Postgres,
                InteractionLevel::Low,
                ConfigVariant::MultiService,
            ),
            id(
                Dbms::Redis,
                InteractionLevel::Low,
                ConfigVariant::SingleService,
            ),
            id(
                Dbms::Mssql,
                InteractionLevel::Low,
                ConfigVariant::MultiService,
            ),
            id(
                Dbms::MySql,
                InteractionLevel::Medium,
                ConfigVariant::Default,
            ),
            id(
                Dbms::Redis,
                InteractionLevel::Medium,
                ConfigVariant::Default,
            ),
            id(
                Dbms::Redis,
                InteractionLevel::Medium,
                ConfigVariant::FakeData,
            ),
            id(
                Dbms::Postgres,
                InteractionLevel::Medium,
                ConfigVariant::Default,
            ),
            id(
                Dbms::Postgres,
                InteractionLevel::Medium,
                ConfigVariant::LoginDisabled,
            ),
            id(
                Dbms::Elastic,
                InteractionLevel::Medium,
                ConfigVariant::Default,
            ),
            id(
                Dbms::CouchDb,
                InteractionLevel::Medium,
                ConfigVariant::FakeData,
            ),
            id(
                Dbms::MongoDb,
                InteractionLevel::High,
                ConfigVariant::FakeData,
            ),
        ];
        let mut running = Vec::new();
        for spec_id in specs {
            let spec = HoneypotSpec::loopback(spec_id, Clock::simulated(), 7);
            running.push(spawn(store.clone(), spec).await.unwrap());
        }
        assert_eq!(running.len(), 12);
        for r in running {
            assert!(r.addr().port() != 0);
            r.shutdown().await;
        }
    }

    #[tokio::test]
    async fn proxy_header_sets_logged_source() {
        let store = EventStore::new();
        let spec = HoneypotSpec::loopback(
            id(
                Dbms::Redis,
                InteractionLevel::Low,
                ConfigVariant::MultiService,
            ),
            Clock::simulated(),
            0,
        );
        let server = spawn(store.clone(), spec).await.unwrap();
        let mut stream = TcpStream::connect(server.addr()).await.unwrap();
        let header = proxy::encode_v1("198.51.100.42:40000".parse().unwrap(), server.addr());
        stream.write_all(header.as_bytes()).await.unwrap();
        let mut framed = Framed::new(stream, RespCodec::client());
        framed
            .write_frame(&RespValue::command(&["PING"]))
            .await
            .unwrap();
        assert_eq!(
            framed.read_frame().await.unwrap().unwrap(),
            RespValue::Simple("PONG".into())
        );
        server.shutdown().await;
        let srcs = store.sources();
        assert_eq!(
            srcs,
            vec!["198.51.100.42".parse::<std::net::IpAddr>().unwrap()]
        );
    }
}
