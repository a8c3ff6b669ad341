//! Loopback concurrency smoke for the zero-copy wire path (DESIGN.md §11):
//! all six protocol honeypots run at once on one shared store while
//! concurrent clients hammer them with well-formed sessions. The contract:
//!
//! * every scripted client session completes without a protocol error,
//! * the honeypots record **zero** `Malformed` events — the zero-copy
//!   decoders parse concurrent well-formed traffic exactly like the
//!   buffered ones did, and
//! * with a journal attached, replaying it yields exactly the store's
//!   events (count parity + clean recovery stats), proving the pooled
//!   buffers never corrupt what gets persisted.

use decoy_base::time::Clock;
use decoy_fleet::deploy::{spawn, HoneypotSpec};
use decoy_net::framed::Framed;
use decoy_store::{
    ConfigVariant, Dbms, EventKindRef, EventStore, HoneypotId, InteractionLevel, JournalConfig,
    JournalReader, JournalWriter,
};
use decoy_wire::mongo::bson::doc;
use decoy_wire::mongo::{MongoCodec, MongoMessage};
use decoy_wire::{http, mysql, pgwire, resp, tds};
use std::net::SocketAddr;
use tokio::net::TcpStream;

const CLIENTS_PER_PROTOCOL: usize = 6;
const SESSIONS_PER_CLIENT: usize = 3;

type Fail = Box<dyn std::error::Error + Send + Sync>;

async fn pg_session(addr: SocketAddr) -> Result<(), Fail> {
    let stream = TcpStream::connect(addr).await?;
    let mut f = Framed::new(stream, pgwire::PgClientCodec::new());
    f.write_frame(&pgwire::FrontendMessage::Startup {
        params: vec![("user".into(), "postgres".into())],
    })
    .await?;
    loop {
        match f.read_frame().await?.ok_or("closed during auth")? {
            pgwire::BackendMessage::AuthenticationCleartextPassword
            | pgwire::BackendMessage::AuthenticationMd5Password { .. } => {
                f.write_frame(&pgwire::FrontendMessage::Password("postgres".into()))
                    .await?;
            }
            pgwire::BackendMessage::ReadyForQuery { .. } => break,
            pgwire::BackendMessage::ErrorResponse { .. } => return Err("login rejected".into()),
            _ => continue,
        }
    }
    f.write_frame(&pgwire::FrontendMessage::Query("SELECT version();".into()))
        .await?;
    loop {
        if let pgwire::BackendMessage::ReadyForQuery { .. } =
            f.read_frame().await?.ok_or("closed mid query")?
        {
            break;
        }
    }
    f.write_frame(&pgwire::FrontendMessage::Terminate).await?;
    Ok(())
}

async fn mysql_session(addr: SocketAddr) -> Result<(), Fail> {
    let stream = TcpStream::connect(addr).await?;
    let mut f = Framed::new(stream, mysql::MySqlCodec);
    let greeting = f.read_frame().await?.ok_or("no greeting")?;
    mysql::Greeting::parse(&greeting.payload)?;
    let login = mysql::LoginRequest::cleartext("root", "smoke", None);
    f.write_frame(&mysql::MySqlPacket {
        seq: greeting.seq.wrapping_add(1),
        payload: login.build(),
    })
    .await?;
    f.read_frame().await?.ok_or("no auth reply")?;
    let mut q = vec![0x03];
    q.extend_from_slice(b"SELECT @@version");
    f.write_frame(&mysql::MySqlPacket {
        seq: 0,
        payload: q.into(),
    })
    .await?;
    f.read_frame().await?.ok_or("no result")?;
    Ok(())
}

async fn resp_session(addr: SocketAddr) -> Result<(), Fail> {
    let stream = TcpStream::connect(addr).await?;
    let mut f = Framed::new(stream, resp::RespCodec::client());
    for cmd in [
        resp::RespValue::command(&["PING"]),
        resp::RespValue::command(&["SET", "smoke:key", "1"]),
        resp::RespValue::command(&["GET", "smoke:key"]),
    ] {
        f.write_frame(&cmd).await?;
        f.read_frame().await?.ok_or("server closed")?;
    }
    Ok(())
}

async fn tds_session(addr: SocketAddr) -> Result<(), Fail> {
    let stream = TcpStream::connect(addr).await?;
    let mut f = Framed::new(stream, tds::TdsCodec);
    f.write_frame(&tds::TdsPacket::eom(
        tds::PKT_PRELOGIN,
        tds::build_prelogin(&[
            (0x00, vec![15, 0, 0, 0, 0, 0].into()),
            (0x01, vec![2].into()),
        ]),
    ))
    .await?;
    f.read_frame().await?.ok_or("no prelogin reply")?;
    let login = tds::Login7 {
        hostname: "SMOKE".into(),
        username: "sa".into(),
        password: "smoke".into(),
        appname: "wire_load_smoke".into(),
        servername: addr.ip().to_string(),
        database: String::new(),
    };
    f.write_frame(&tds::TdsPacket::eom(tds::PKT_LOGIN7, login.build()))
        .await?;
    f.read_frame().await?.ok_or("no login reply")?;
    Ok(())
}

async fn mongo_session(addr: SocketAddr) -> Result<(), Fail> {
    let stream = TcpStream::connect(addr).await?;
    let mut f = Framed::new(stream, MongoCodec);
    for (rid, cmd) in [
        doc! { "isMaster" => 1i32, "$db" => "admin" },
        doc! { "buildInfo" => 1i32, "$db" => "admin" },
    ]
    .into_iter()
    .enumerate()
    {
        f.write_frame(&MongoMessage::msg(rid as i32 + 1, cmd))
            .await?;
        f.read_frame().await?.ok_or("server closed")?;
    }
    Ok(())
}

async fn http_session(addr: SocketAddr) -> Result<(), Fail> {
    let stream = TcpStream::connect(addr).await?;
    let mut f = Framed::new(stream, http::HttpClientCodec);
    for req in [
        http::HttpRequest::new("GET", "/"),
        http::HttpRequest::new("POST", "/_search")
            .with_body("application/json", r#"{"query":{"match_all":{}}}"#),
    ] {
        f.write_frame(&req).await?;
        f.read_frame().await?.ok_or("server closed")?;
    }
    Ok(())
}

/// All six protocols at once, many concurrent clients each, on one shared
/// store spooling into a journal.
#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn concurrent_wire_sessions_decode_cleanly_and_journal_in_parity() {
    let dir = std::env::temp_dir().join(format!("decoy-wire-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let store = EventStore::new();
    store.with_journal(
        JournalWriter::open(JournalConfig {
            fsync: false,
            ..JournalConfig::spool(&dir)
        })
        .expect("open journal"),
    );

    let specs = [
        HoneypotId::new(
            Dbms::Postgres,
            InteractionLevel::Medium,
            ConfigVariant::Default,
            0,
        ),
        HoneypotId::new(
            Dbms::MySql,
            InteractionLevel::Medium,
            ConfigVariant::Default,
            0,
        ),
        HoneypotId::new(
            Dbms::Redis,
            InteractionLevel::Medium,
            ConfigVariant::Default,
            0,
        ),
        HoneypotId::new(
            Dbms::Mssql,
            InteractionLevel::Low,
            ConfigVariant::MultiService,
            0,
        ),
        HoneypotId::new(
            Dbms::MongoDb,
            InteractionLevel::High,
            ConfigVariant::FakeData,
            0,
        ),
        HoneypotId::new(
            Dbms::Elastic,
            InteractionLevel::Medium,
            ConfigVariant::Default,
            0,
        ),
    ];
    let mut running = Vec::new();
    for id in specs {
        let spec = HoneypotSpec::loopback(id, Clock::simulated(), 7);
        running.push(spawn(store.clone(), spec).await.expect("spawn honeypot"));
    }

    let mut clients = tokio::task::JoinSet::new();
    for (proto, hp) in running.iter().enumerate() {
        let addr = hp.addr();
        for _ in 0..CLIENTS_PER_PROTOCOL {
            clients.spawn(async move {
                for _ in 0..SESSIONS_PER_CLIENT {
                    let outcome = match proto {
                        0 => pg_session(addr).await,
                        1 => mysql_session(addr).await,
                        2 => resp_session(addr).await,
                        3 => tds_session(addr).await,
                        4 => mongo_session(addr).await,
                        _ => http_session(addr).await,
                    };
                    if let Err(e) = outcome {
                        return Err(format!("protocol #{proto} session failed: {e}"));
                    }
                }
                Ok(())
            });
        }
    }
    while let Some(joined) = clients.join_next().await {
        joined.expect("client task").expect("client session");
    }

    for hp in running {
        hp.shutdown().await;
    }

    // zero decode errors: every event the fleet recorded parsed cleanly
    let malformed = store.read(|log| {
        log.iter()
            .filter(|e| matches!(e.kind, EventKindRef::Malformed { .. }))
            .count()
    });
    assert_eq!(
        malformed, 0,
        "well-formed concurrent traffic must not misparse"
    );
    let recorded = store.len();
    assert!(
        recorded >= 6 * CLIENTS_PER_PROTOCOL * SESSIONS_PER_CLIENT * 2,
        "expected at least connect+disconnect per session, saw {recorded}"
    );

    // journal parity: replaying the spool yields exactly the store's events
    store
        .close_journal()
        .expect("close journal")
        .expect("journal attached");
    let reader = JournalReader::open(&dir).expect("open journal dir");
    let mut replayed = 0;
    let stats = reader.replay(|_| replayed += 1);
    assert_eq!(
        replayed, recorded,
        "journal replay count diverges from the store"
    );
    assert!(stats.is_clean(), "recovery not clean: {}", stats.summary());

    let _ = std::fs::remove_dir_all(&dir);
}
