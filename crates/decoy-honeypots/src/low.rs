//! Low-interaction (Qeeqbox-style) honeypots for MySQL, PostgreSQL, Redis
//! and MSSQL.
//!
//! These provide "a basic response upon connection, and can capture user
//! credentials such as usernames and passwords, but lack the ability to
//! provide further interaction" (§4.1). Every login attempt is rejected;
//! everything is logged. One session machine per protocol.

use crate::logging::SessionLogger;
use crate::redis_med::prelude;
use crate::session::{connection_rng, Flow, Session};
use decoy_wire::{mysql, pgwire, resp, tds};

/// Low-interaction MySQL: greet, capture the login, deny it.
#[derive(Debug, Clone, Default)]
pub struct LowMySql;

impl Session for LowMySql {
    type Codec = mysql::MySqlCodec;

    fn codec(&self) -> mysql::MySqlCodec {
        mysql::MySqlCodec
    }

    fn open(&mut self, out: &mut Vec<mysql::MySqlPacket>, log: &SessionLogger) {
        out.push(mysql_greeting(log));
    }

    fn on_frame(
        &mut self,
        packet: mysql::MySqlPacket,
        out: &mut Vec<mysql::MySqlPacket>,
        log: &SessionLogger,
    ) -> Flow {
        match mysql::LoginRequest::parse(&packet.payload) {
            Ok(login) => {
                log.login(&login.username, &login.password_observed(), false);
                out.push(mysql::MySqlPacket {
                    seq: packet.seq.wrapping_add(1),
                    payload: mysql::access_denied(
                        &login.username,
                        &log.src().to_string(),
                        !login.auth_response.is_empty(),
                    ),
                });
                // A real server closes the connection after a failed login.
            }
            Err(_) => log.payload(&packet.payload),
        }
        Flow::Close
    }
}

/// Low-interaction PostgreSQL: ask for a cleartext password, capture it,
/// deny it.
#[derive(Debug, Clone, Default)]
pub struct LowPostgres {
    user: String,
}

impl Session for LowPostgres {
    type Codec = pgwire::PgServerCodec;

    fn codec(&self) -> pgwire::PgServerCodec {
        pgwire::PgServerCodec::new()
    }

    fn on_frame(
        &mut self,
        msg: pgwire::FrontendMessage,
        out: &mut Vec<pgwire::BackendMessage>,
        log: &SessionLogger,
    ) -> Flow {
        match msg {
            pgwire::FrontendMessage::SslRequest => {
                out.push(pgwire::BackendMessage::SslRefused);
            }
            pgwire::FrontendMessage::Startup { params } => {
                self.user = params
                    .iter()
                    .find(|(k, _)| k == "user")
                    .map(|(_, v)| v.clone())
                    .unwrap_or_default();
                out.push(pgwire::BackendMessage::AuthenticationCleartextPassword);
            }
            pgwire::FrontendMessage::Password(password) => {
                log.login(&self.user, &password, false);
                out.push(pgwire::BackendMessage::auth_failed(&self.user));
                return Flow::Close;
            }
            pgwire::FrontendMessage::Query(q) => {
                // pre-auth queries are protocol abuse; log and refuse
                log.command(&q);
                out.push(pgwire::BackendMessage::ErrorResponse {
                    severity: "FATAL".into(),
                    code: "08P01".into(),
                    message: "expected password response".into(),
                });
                return Flow::Close;
            }
            pgwire::FrontendMessage::Terminate => return Flow::Close,
            pgwire::FrontendMessage::CancelRequest { .. } => return Flow::Close,
            pgwire::FrontendMessage::Other { tag, body } => {
                log.payload(&[&[tag], body.as_ref()].concat());
                return Flow::Close;
            }
        }
        Flow::Continue
    }
}

/// Low-interaction Redis: every command but `PING` and `QUIT` demands the
/// password, and every `AUTH` guess is wrong.
#[derive(Debug, Clone, Default)]
pub struct LowRedis;

impl Session for LowRedis {
    type Codec = resp::RespCodec;

    fn codec(&self) -> resp::RespCodec {
        resp::RespCodec::server()
    }

    fn on_frame(
        &mut self,
        value: resp::RespValue,
        out: &mut Vec<resp::RespValue>,
        log: &SessionLogger,
    ) -> Flow {
        let cmd = match prelude(&value, out, log) {
            Ok(cmd) => cmd,
            Err(flow) => return flow,
        };
        out.push(match cmd.name.as_str() {
            "PING" => resp::RespValue::Simple("PONG".into()),
            "AUTH" => resp::RespValue::Error("ERR invalid password".into()),
            // Everything else: the instance claims to require auth, which is
            // all a low-interaction emulation offers.
            _ => resp::RespValue::Error("NOAUTH Authentication required.".into()),
        });
        Flow::Continue
    }
}

/// Low-interaction MSSQL: answer PRELOGIN, capture the LOGIN7 credentials,
/// deny them.
#[derive(Debug, Clone, Default)]
pub struct LowMssql;

impl Session for LowMssql {
    type Codec = tds::TdsCodec;

    fn codec(&self) -> tds::TdsCodec {
        tds::TdsCodec
    }

    fn on_frame(
        &mut self,
        packet: tds::TdsPacket,
        out: &mut Vec<tds::TdsPacket>,
        log: &SessionLogger,
    ) -> Flow {
        match packet.ptype {
            tds::PKT_PRELOGIN => {
                out.push(tds::TdsPacket::eom(
                    tds::PKT_RESPONSE,
                    tds::honeypot_prelogin_response(),
                ));
                Flow::Continue
            }
            tds::PKT_LOGIN7 => {
                match tds::Login7::parse(&packet.payload) {
                    Ok(login) => {
                        log.login(&login.username, &login.password, false);
                        out.push(tds::TdsPacket::eom(
                            tds::PKT_RESPONSE,
                            tds::build_login_failed(&login.username),
                        ));
                    }
                    Err(_) => log.payload(&packet.payload),
                }
                Flow::Close
            }
            _ => {
                log.payload(&packet.payload);
                Flow::Close
            }
        }
    }
}

/// The greeting both MySQL machines open with. Its thread id and 20-byte
/// auth scramble are drawn per connection: a fixed value would fingerprint
/// the honeypot.
pub(crate) fn mysql_greeting(log: &SessionLogger) -> mysql::MySqlPacket {
    let mut rng = connection_rng(log);
    let thread_id = rng.gen_range(10..100_010);
    // printable, like a real server's scramble
    let auth_data = std::array::from_fn(|_| rng.gen_range(0x21..0x7f));
    mysql::MySqlPacket {
        seq: 0,
        payload: mysql::Greeting::honeypot_default(thread_id, auth_data).build(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{logins, Driver};
    use decoy_store::{ConfigVariant, Dbms, EventKind, EventStore, HoneypotId, InteractionLevel};
    use decoy_wire::codec::{Codec, RawCodec};
    use std::sync::Arc;

    fn connect<S: Session + Clone + 'static, C: Codec>(
        machine: S,
        dbms: Dbms,
        client: C,
    ) -> (Driver<C>, Arc<EventStore>) {
        let store = EventStore::new();
        let id = HoneypotId::new(dbms, InteractionLevel::Low, ConfigVariant::MultiService, 0);
        (Driver::connect(machine, &store, id, client), store)
    }

    #[test]
    fn mysql_low_captures_credentials_and_denies() {
        let (mut client, store) = connect(LowMySql, Dbms::MySql, mysql::MySqlCodec);
        let greeting_pkt = client.recv();
        let greeting = mysql::Greeting::parse(&greeting_pkt.payload).unwrap();
        assert_eq!(greeting.server_version, "8.0.36");
        let login = mysql::LoginRequest::cleartext("root", "aaaaaa", None);
        client.send(&mysql::MySqlPacket {
            seq: 1,
            payload: login.build(),
        });
        let reply = client.recv();
        let (code, msg) = mysql::parse_err(&reply.payload).unwrap();
        assert_eq!(code, 1045);
        assert!(msg.contains("Access denied"));
        assert_eq!(
            logins(&store),
            vec![("root".to_string(), "aaaaaa".to_string())]
        );
    }

    #[test]
    fn pg_low_denies_with_28p01() {
        let machine = LowPostgres::default();
        let (mut client, store) = connect(machine, Dbms::Postgres, pgwire::PgClientCodec::new());
        let reply = client.roundtrip(&pgwire::FrontendMessage::Startup {
            params: vec![("user".into(), "postgres".into())],
        });
        assert_eq!(
            reply,
            pgwire::BackendMessage::AuthenticationCleartextPassword
        );
        let pgwire::BackendMessage::ErrorResponse { code, .. } =
            client.roundtrip(&pgwire::FrontendMessage::Password("postgres".into()))
        else {
            panic!("expected error");
        };
        assert_eq!(code, "28P01");
        assert_eq!(
            logins(&store),
            vec![("postgres".to_string(), "postgres".to_string())]
        );
    }

    #[test]
    fn redis_low_requires_auth_and_logs_attempts() {
        let (mut client, store) = connect(LowRedis, Dbms::Redis, resp::RespCodec::client());
        assert_eq!(
            client.roundtrip(&resp::RespValue::command(&["KEYS", "*"])),
            resp::RespValue::Error("NOAUTH Authentication required.".into())
        );
        assert_eq!(
            client.roundtrip(&resp::RespValue::command(&["AUTH", "hunter2"])),
            resp::RespValue::Error("ERR invalid password".into())
        );
        assert_eq!(
            logins(&store),
            vec![("default".to_string(), "hunter2".to_string())]
        );
    }

    #[test]
    fn mssql_low_full_login_exchange() {
        let (mut client, store) = connect(LowMssql, Dbms::Mssql, tds::TdsCodec);
        let prelogin_reply = client.roundtrip(&tds::TdsPacket::eom(
            tds::PKT_PRELOGIN,
            tds::build_prelogin(&[
                (0x00, vec![0, 0, 0, 0, 0, 0].into()),
                (0x01, vec![0].into()),
            ]),
        ));
        assert_eq!(prelogin_reply.ptype, tds::PKT_RESPONSE);
        let login = tds::Login7 {
            hostname: "kali".into(),
            username: "sa".into(),
            password: "123".into(),
            appname: "sqlbrute".into(),
            servername: "victim".into(),
            database: String::new(),
        };
        let reply = client.roundtrip(&tds::TdsPacket::eom(tds::PKT_LOGIN7, login.build()));
        let (number, msg) = tds::parse_error_token(&reply.payload).unwrap();
        assert_eq!(number, 18456);
        assert!(msg.contains("'sa'"));
        assert_eq!(logins(&store), vec![("sa".to_string(), "123".to_string())]);
    }

    #[test]
    fn jdwp_probe_is_captured_as_payload() {
        let (mut client, store) = connect(LowRedis, Dbms::Redis, RawCodec);
        client.write(b"JDWP-Handshake\r\n");
        client.close().unwrap();
        let payloads = store.filter(|e| {
            matches!(&e.kind, EventKind::Payload { recognized: Some(r), .. } if r == "jdwp-scan")
        });
        assert_eq!(payloads.len(), 1);
    }

    #[test]
    fn garbage_tds_is_logged_not_crashed() {
        let (mut client, store) = connect(LowMssql, Dbms::Mssql, RawCodec);
        client.write(&[0xde, 0xad, 0xbe, 0xef]);
        client.close().unwrap();
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
