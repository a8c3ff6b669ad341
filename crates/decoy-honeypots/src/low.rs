//! Low-interaction (Qeeqbox-style) honeypots for MySQL, PostgreSQL, Redis
//! and MSSQL.
//!
//! These provide "a basic response upon connection, and can capture user
//! credentials such as usernames and passwords, but lack the ability to
//! provide further interaction" (§4.1). Every login attempt is rejected;
//! everything is logged.

use crate::logging::SessionLogger;
use decoy_net::framed::Framed;
use decoy_net::proxy;
use decoy_net::server::{SessionCtx, SessionHandler, SessionStream};
use decoy_store::{Dbms, EventStore, HoneypotId};
use decoy_wire::cursor::sat_u8;
use decoy_wire::error::NetResult;
use decoy_wire::{mysql, pgwire, resp, tds};
use std::sync::Arc;
use std::time::Duration;

/// Read a frame; on clean EOF return from the session, on decode faults log
/// through [`SessionLogger::fault`] (foreign-payload recognition) and end
/// the session.
///
/// Idle timeouts, the session wall-clock deadline, and the byte budget are
/// enforced underneath by [`SessionStream`] — a stalled peer surfaces here
/// as EOF, so no per-family timeout wrapper is needed.
macro_rules! read_or_fault {
    ($framed:expr, $log:expr) => {
        match $framed.read_frame().await {
            Ok(Some(frame)) => frame,
            Ok(None) => return Ok(()),
            Err(e) => {
                $log.fault($framed.buffered(), &e);
                return Ok(());
            }
        }
    };
}
pub(crate) use read_or_fault;

/// One low-interaction honeypot instance; protocol chosen by `id.dbms`.
pub struct LowHoneypot {
    store: Arc<EventStore>,
    id: HoneypotId,
}

impl LowHoneypot {
    /// Create an instance logging into `store`.
    pub fn new(store: Arc<EventStore>, id: HoneypotId) -> Arc<Self> {
        Arc::new(LowHoneypot { store, id })
    }
}

impl SessionHandler for LowHoneypot {
    async fn handle(self: Arc<Self>, mut stream: SessionStream, ctx: SessionCtx) {
        // MySQL is server-speaks-first: a header-less client is waiting for
        // our greeting, so the PROXY sniff must have a deadline there.
        let sniff = if self.id.dbms == Dbms::MySql {
            proxy::maybe_read_v1_deadline(&mut stream, Duration::from_millis(1500)).await
        } else {
            proxy::maybe_read_v1(&mut stream).await
        };
        let (proxied, initial) = match sniff {
            Ok(pair) => pair,
            Err(_) => return,
        };
        let log = SessionLogger::new(self.store.clone(), self.id, ctx, proxied.map(|sa| sa.ip()));
        log.connect();
        let outcome = match self.id.dbms {
            Dbms::MySql => mysql_session(stream, initial, &log).await,
            Dbms::Postgres => pg_session(stream, initial, &log).await,
            Dbms::Redis => redis_session(stream, initial, &log).await,
            Dbms::Mssql => mssql_session(stream, initial, &log).await,
            // Low Qeeqbox deployment covers only the four DBMS of Table 4.
            other => {
                log.malformed(format!("no low-interaction emulation for {other:?}"));
                Ok(())
            }
        };
        if let Err(e) = outcome {
            if e.is_peer_fault() {
                log.malformed(e.to_string());
            }
        }
        log.disconnect();
    }
}

async fn mysql_session(
    stream: SessionStream,
    initial: decoy_wire::buf::RecvBuf,
    log: &SessionLogger,
) -> NetResult<()> {
    let mut framed = Framed::with_initial(stream, mysql::MySqlCodec, initial);
    // Derive a per-session challenge from the session context; a fixed value
    // would fingerprint the honeypot.
    let mut auth_data = [0u8; 20];
    for (i, b) in auth_data.iter_mut().enumerate() {
        let mix = (usize::from(log.src().to_canonical().is_ipv4()) + i * 7) % 60;
        *b = 0x21 + sat_u8(mix);
    }
    let greeting = mysql::Greeting::honeypot_default(rand_thread_id(log), auth_data);
    framed
        .write_frame(&mysql::MySqlPacket {
            seq: 0,
            payload: greeting.build(),
        })
        .await?;
    let packet = read_or_fault!(framed, log);
    match mysql::LoginRequest::parse(&packet.payload) {
        Ok(login) => {
            log.login(&login.username, &login.password_observed(), false);
            framed
                .write_frame(&mysql::MySqlPacket {
                    seq: packet.seq.wrapping_add(1),
                    payload: mysql::access_denied(
                        &login.username,
                        &log.src().to_string(),
                        !login.auth_response.is_empty(),
                    ),
                })
                .await?;
            // A real server closes the connection after a failed login.
        }
        Err(_) => log.payload(&packet.payload),
    }
    Ok(())
}

async fn pg_session(
    stream: SessionStream,
    initial: decoy_wire::buf::RecvBuf,
    log: &SessionLogger,
) -> NetResult<()> {
    let mut framed = Framed::with_initial(stream, pgwire::PgServerCodec::new(), initial);
    let mut user = String::new();
    loop {
        let msg = read_or_fault!(framed, log);
        match msg {
            pgwire::FrontendMessage::SslRequest => {
                framed
                    .write_frame(&pgwire::BackendMessage::SslRefused)
                    .await?;
            }
            pgwire::FrontendMessage::Startup { params } => {
                user = params
                    .iter()
                    .find(|(k, _)| k == "user")
                    .map(|(_, v)| v.clone())
                    .unwrap_or_default();
                framed
                    .write_frame(&pgwire::BackendMessage::AuthenticationCleartextPassword)
                    .await?;
            }
            pgwire::FrontendMessage::Password(password) => {
                log.login(&user, &password, false);
                framed
                    .write_frame(&pgwire::BackendMessage::auth_failed(&user))
                    .await?;
                return Ok(());
            }
            pgwire::FrontendMessage::Query(q) => {
                // pre-auth queries are protocol abuse; log and refuse
                log.command(&q);
                framed
                    .write_frame(&pgwire::BackendMessage::ErrorResponse {
                        severity: "FATAL".into(),
                        code: "08P01".into(),
                        message: "expected password response".into(),
                    })
                    .await?;
                return Ok(());
            }
            pgwire::FrontendMessage::Terminate => return Ok(()),
            pgwire::FrontendMessage::CancelRequest { .. } => return Ok(()),
            pgwire::FrontendMessage::Other { tag, body } => {
                log.payload(&[&[tag], body.as_ref()].concat());
                return Ok(());
            }
        }
    }
}

async fn redis_session(
    stream: SessionStream,
    initial: decoy_wire::buf::RecvBuf,
    log: &SessionLogger,
) -> NetResult<()> {
    let mut framed = Framed::with_initial(stream, resp::RespCodec::server(), initial);
    loop {
        let value = read_or_fault!(framed, log);
        let Some(cmd) = resp::as_command(&value) else {
            framed
                .write_frame(&resp::RespValue::Error(
                    "ERR Protocol error: expected command".into(),
                ))
                .await?;
            continue;
        };
        // Inline garbage (JDWP probes, RDP cookies, random floods) is a
        // payload capture; only plausible Redis verbs proceed as commands.
        if let resp::RespValue::Inline(line) = &value {
            let plausible = cmd.name.len() <= 20
                && cmd
                    .name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '.' || c == '-');
            if decoy_store::foreign::recognize(line.as_bytes()).is_some() || !plausible {
                log.payload(line.as_bytes());
                framed
                    .write_frame(&resp::RespValue::Error(
                        "ERR Protocol error: unbalanced quotes in request".into(),
                    ))
                    .await?;
                continue;
            }
        }
        log.command(&cmd.render());
        let reply = match cmd.name.as_str() {
            "PING" => resp::RespValue::Simple("PONG".into()),
            "QUIT" => {
                framed
                    .write_frame(&resp::RespValue::Simple("OK".into()))
                    .await?;
                return Ok(());
            }
            "AUTH" => {
                let password = cmd.arg_text(0).unwrap_or_default();
                let username = if cmd.args.len() > 1 {
                    // AUTH <user> <pass> (Redis 6 ACL form)
                    cmd.arg_text(0).unwrap_or_default()
                } else {
                    "default".to_string()
                };
                let password = if cmd.args.len() > 1 {
                    cmd.arg_text(1).unwrap_or_default()
                } else {
                    password
                };
                log.login(&username, &password, false);
                resp::RespValue::Error("ERR invalid password".into())
            }
            // Everything else: the instance claims to require auth, which is
            // all a low-interaction emulation offers.
            _ => resp::RespValue::Error("NOAUTH Authentication required.".into()),
        };
        framed.write_frame(&reply).await?;
    }
}

async fn mssql_session(
    stream: SessionStream,
    initial: decoy_wire::buf::RecvBuf,
    log: &SessionLogger,
) -> NetResult<()> {
    let mut framed = Framed::with_initial(stream, tds::TdsCodec, initial);
    loop {
        let packet = read_or_fault!(framed, log);
        match packet.ptype {
            tds::PKT_PRELOGIN => {
                framed
                    .write_frame(&tds::TdsPacket::eom(
                        tds::PKT_RESPONSE,
                        tds::honeypot_prelogin_response(),
                    ))
                    .await?;
            }
            tds::PKT_LOGIN7 => match tds::Login7::parse(&packet.payload) {
                Ok(login) => {
                    log.login(&login.username, &login.password, false);
                    framed
                        .write_frame(&tds::TdsPacket::eom(
                            tds::PKT_RESPONSE,
                            tds::build_login_failed(&login.username),
                        ))
                        .await?;
                    return Ok(());
                }
                Err(_) => {
                    log.payload(&packet.payload);
                    return Ok(());
                }
            },
            _ => {
                log.payload(&packet.payload);
                return Ok(());
            }
        }
    }
}

/// Vary the advertised MySQL thread id per session without real randomness.
fn rand_thread_id(log: &SessionLogger) -> u32 {
    let mut h: u32 = 0x9e37_79b9;
    if let std::net::IpAddr::V4(v4) = log.src() {
        h ^= u32::from(v4);
    }
    h.rotate_left(13).wrapping_mul(0x85eb_ca6b) % 100_000 + 10
}

#[cfg(test)]
mod tests {
    use super::*;
    use decoy_base::time::Clock;
    use decoy_net::server::{Listener, ListenerOptions};
    use decoy_store::{ConfigVariant, EventKind, InteractionLevel};
    use decoy_wire::codec::Codec;
    use tokio::net::TcpStream;

    async fn spawn_low(dbms: Dbms) -> (decoy_net::server::ServerHandle, Arc<EventStore>) {
        let store = EventStore::new();
        let id = HoneypotId::new(dbms, InteractionLevel::Low, ConfigVariant::MultiService, 0);
        let hp = LowHoneypot::new(store.clone(), id);
        let server = Listener::bind(
            "127.0.0.1:0".parse().unwrap(),
            hp,
            ListenerOptions {
                max_sessions: 64,
                clock: Clock::simulated(),
                ..ListenerOptions::default()
            },
        )
        .await
        .unwrap();
        (server, store)
    }

    fn logins(store: &EventStore) -> Vec<(String, String)> {
        store
            .all()
            .into_iter()
            .filter_map(|e| match e.kind {
                EventKind::LoginAttempt {
                    username, password, ..
                } => Some((username, password)),
                _ => None,
            })
            .collect()
    }

    #[tokio::test]
    async fn mysql_low_captures_credentials_and_denies() {
        let (server, store) = spawn_low(Dbms::MySql).await;
        let stream = TcpStream::connect(server.local_addr()).await.unwrap();
        let mut framed = Framed::new(stream, mysql::MySqlCodec);
        let greeting_pkt = framed.read_frame().await.unwrap().unwrap();
        let greeting = mysql::Greeting::parse(&greeting_pkt.payload).unwrap();
        assert_eq!(greeting.server_version, "8.0.36");
        let login = mysql::LoginRequest::cleartext("root", "aaaaaa", None);
        framed
            .write_frame(&mysql::MySqlPacket {
                seq: 1,
                payload: login.build(),
            })
            .await
            .unwrap();
        let reply = framed.read_frame().await.unwrap().unwrap();
        let (code, msg) = mysql::parse_err(&reply.payload).unwrap();
        assert_eq!(code, 1045);
        assert!(msg.contains("Access denied"));
        server.shutdown().await;
        assert_eq!(
            logins(&store),
            vec![("root".to_string(), "aaaaaa".to_string())]
        );
    }

    #[tokio::test]
    async fn pg_low_denies_with_28p01() {
        let (server, store) = spawn_low(Dbms::Postgres).await;
        let stream = TcpStream::connect(server.local_addr()).await.unwrap();
        let mut framed = Framed::new(stream, pgwire::PgClientCodec::new());
        framed
            .write_frame(&pgwire::FrontendMessage::Startup {
                params: vec![("user".into(), "postgres".into())],
            })
            .await
            .unwrap();
        assert_eq!(
            framed.read_frame().await.unwrap().unwrap(),
            pgwire::BackendMessage::AuthenticationCleartextPassword
        );
        framed
            .write_frame(&pgwire::FrontendMessage::Password("postgres".into()))
            .await
            .unwrap();
        let pgwire::BackendMessage::ErrorResponse { code, .. } =
            framed.read_frame().await.unwrap().unwrap()
        else {
            panic!("expected error");
        };
        assert_eq!(code, "28P01");
        server.shutdown().await;
        assert_eq!(
            logins(&store),
            vec![("postgres".to_string(), "postgres".to_string())]
        );
    }

    #[tokio::test]
    async fn redis_low_requires_auth_and_logs_attempts() {
        let (server, store) = spawn_low(Dbms::Redis).await;
        let stream = TcpStream::connect(server.local_addr()).await.unwrap();
        let mut framed = Framed::new(stream, resp::RespCodec::client());
        framed
            .write_frame(&resp::RespValue::command(&["KEYS", "*"]))
            .await
            .unwrap();
        assert_eq!(
            framed.read_frame().await.unwrap().unwrap(),
            resp::RespValue::Error("NOAUTH Authentication required.".into())
        );
        framed
            .write_frame(&resp::RespValue::command(&["AUTH", "hunter2"]))
            .await
            .unwrap();
        assert_eq!(
            framed.read_frame().await.unwrap().unwrap(),
            resp::RespValue::Error("ERR invalid password".into())
        );
        server.shutdown().await;
        assert_eq!(
            logins(&store),
            vec![("default".to_string(), "hunter2".to_string())]
        );
    }

    #[tokio::test]
    async fn mssql_low_full_login_exchange() {
        let (server, store) = spawn_low(Dbms::Mssql).await;
        let stream = TcpStream::connect(server.local_addr()).await.unwrap();
        let mut framed = Framed::new(stream, tds::TdsCodec);
        framed
            .write_frame(&tds::TdsPacket::eom(
                tds::PKT_PRELOGIN,
                tds::build_prelogin(&[
                    (0x00, vec![0, 0, 0, 0, 0, 0].into()),
                    (0x01, vec![0].into()),
                ]),
            ))
            .await
            .unwrap();
        let prelogin_reply = framed.read_frame().await.unwrap().unwrap();
        assert_eq!(prelogin_reply.ptype, tds::PKT_RESPONSE);
        let login = tds::Login7 {
            hostname: "kali".into(),
            username: "sa".into(),
            password: "123".into(),
            appname: "sqlbrute".into(),
            servername: "victim".into(),
            database: String::new(),
        };
        framed
            .write_frame(&tds::TdsPacket::eom(tds::PKT_LOGIN7, login.build()))
            .await
            .unwrap();
        let reply = framed.read_frame().await.unwrap().unwrap();
        let (number, msg) = tds::parse_error_token(&reply.payload).unwrap();
        assert_eq!(number, 18456);
        assert!(msg.contains("'sa'"));
        server.shutdown().await;
        assert_eq!(logins(&store), vec![("sa".to_string(), "123".to_string())]);
    }

    #[tokio::test]
    async fn proxy_header_sets_logged_source() {
        let (server, store) = spawn_low(Dbms::Redis).await;
        let mut stream = TcpStream::connect(server.local_addr()).await.unwrap();
        use tokio::io::AsyncWriteExt;
        let header = decoy_net::proxy::encode_v1(
            "198.51.100.42:40000".parse().unwrap(),
            server.local_addr(),
        );
        stream.write_all(header.as_bytes()).await.unwrap();
        let mut framed = Framed::new(stream, resp::RespCodec::client());
        framed
            .write_frame(&resp::RespValue::command(&["PING"]))
            .await
            .unwrap();
        assert_eq!(
            framed.read_frame().await.unwrap().unwrap(),
            resp::RespValue::Simple("PONG".into())
        );
        server.shutdown().await;
        let srcs = store.sources();
        assert_eq!(
            srcs,
            vec!["198.51.100.42".parse::<std::net::IpAddr>().unwrap()]
        );
    }

    #[tokio::test]
    async fn jdwp_probe_is_captured_as_payload() {
        let (server, store) = spawn_low(Dbms::Redis).await;
        let stream = TcpStream::connect(server.local_addr()).await.unwrap();
        use tokio::io::AsyncWriteExt;
        let mut stream = stream;
        stream.write_all(b"JDWP-Handshake\r\n").await.unwrap();
        stream.flush().await.unwrap();
        // give the session a beat to log, then close
        tokio::time::sleep(Duration::from_millis(100)).await;
        drop(stream);
        tokio::time::sleep(Duration::from_millis(100)).await;
        server.shutdown().await;
        let payloads = store.filter(|e| {
            matches!(&e.kind, EventKind::Payload { recognized: Some(r), .. } if r == "jdwp-scan")
        });
        assert_eq!(payloads.len(), 1);
    }

    #[tokio::test]
    async fn garbage_tds_is_logged_not_crashed() {
        let (server, store) = spawn_low(Dbms::Mssql).await;
        let mut stream = TcpStream::connect(server.local_addr()).await.unwrap();
        use tokio::io::AsyncWriteExt;
        stream.write_all(&[0xde, 0xad, 0xbe, 0xef]).await.unwrap();
        drop(stream);
        tokio::time::sleep(Duration::from_millis(150)).await;
        server.shutdown().await;
        // either a malformed or payload event was recorded alongside connect
        let interactive = store.filter(|e| e.kind.is_interactive());
        assert!(!interactive.is_empty());
        // a full 8-byte header with an impossible length is a codec error
        let mut codec = tds::TdsCodec;
        assert!(codec
            .decode(&mut decoy_wire::buf::RecvBuf::from(vec![
                0xde, 0xad, 0x00, 0x04, 0, 0, 1, 0
            ]))
            .is_err());
    }
}
