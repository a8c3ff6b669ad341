//! Medium-interaction MySQL honeypot — an *extension* beyond the paper's
//! Table 4 deployment.
//!
//! The paper's discussion (§7) concludes that "deploying DBMS-specific
//! honeypots with deeper interaction capabilities is a promising approach",
//! and its related work (Ma et al., Wegerer & Tjoa, Hu et al.) is entirely
//! about deeper MySQL honeypots. This module supplies that capability in
//! the same style as the Sticky-Elephant PostgreSQL emulator: accept any
//! login (capturing the credentials as a *successful* attempt), then answer
//! `COM_QUERY` with scripted, protocol-correct result sets so SQL attack
//! scripts keep talking.

use crate::catalog;
use crate::logging::SessionLogger;
use crate::low::read_or_fault;
use decoy_net::framed::Framed;
use decoy_net::proxy;
use decoy_net::server::{SessionCtx, SessionHandler, SessionStream};
use decoy_store::{EventStore, HoneypotId};
use decoy_wire::cursor::sat_u8;
use decoy_wire::error::NetResult;
use decoy_wire::mysql::{self, MySqlCodec, MySqlPacket};
use std::sync::Arc;
use std::time::Duration;

/// The medium-interaction MySQL honeypot.
pub struct MySqlHoneypot {
    store: Arc<EventStore>,
    id: HoneypotId,
}

impl MySqlHoneypot {
    /// Create an instance logging into `store`.
    pub fn new(store: Arc<EventStore>, id: HoneypotId) -> Arc<Self> {
        Arc::new(MySqlHoneypot { store, id })
    }
}

impl SessionHandler for MySqlHoneypot {
    async fn handle(self: Arc<Self>, mut stream: SessionStream, ctx: SessionCtx) {
        // MySQL is server-speaks-first; the PROXY sniff needs a deadline.
        let sniff = proxy::maybe_read_v1_deadline(&mut stream, Duration::from_millis(1500)).await;
        let (proxied, initial) = match sniff {
            Ok(pair) => pair,
            Err(_) => return,
        };
        let log = SessionLogger::new(self.store.clone(), self.id, ctx, proxied.map(|sa| sa.ip()));
        log.connect();
        if let Err(e) = self.session(stream, initial, &log).await {
            if e.is_peer_fault() {
                log.malformed(e.to_string());
            }
        }
        log.disconnect();
    }
}

impl MySqlHoneypot {
    async fn session(
        &self,
        stream: SessionStream,
        initial: decoy_wire::buf::RecvBuf,
        log: &SessionLogger,
    ) -> NetResult<()> {
        let mut framed = Framed::with_initial(stream, MySqlCodec, initial);
        let mut auth_data = [0u8; 20];
        for (i, b) in auth_data.iter_mut().enumerate() {
            *b = 0x23 + sat_u8((i * 11) % 60);
        }
        framed
            .write_frame(&MySqlPacket {
                seq: 0,
                payload: mysql::Greeting::honeypot_default(42_042, auth_data).build(),
            })
            .await?;

        // login phase: accept anything
        let login_pkt = read_or_fault!(framed, log);
        let seq = match mysql::LoginRequest::parse(&login_pkt.payload) {
            Ok(login) => {
                log.login(&login.username, &login.password_observed(), true);
                framed
                    .write_frame(&MySqlPacket {
                        seq: login_pkt.seq.wrapping_add(1),
                        payload: mysql::build_ok(),
                    })
                    .await?;
                0
            }
            Err(_) => {
                log.payload(&login_pkt.payload);
                return Ok(());
            }
        };
        let _ = seq;

        // command phase
        loop {
            let packet = read_or_fault!(framed, log);
            match mysql::parse_command(&packet.payload) {
                Ok(mysql::MySqlCommand::Quit) => return Ok(()),
                Ok(mysql::MySqlCommand::Ping) => {
                    framed
                        .write_frame(&MySqlPacket {
                            seq: 1,
                            payload: mysql::build_ok(),
                        })
                        .await?;
                }
                Ok(mysql::MySqlCommand::Query(sql)) => {
                    log.command(&sql);
                    for pkt in scripted_result(&sql) {
                        framed.write_frame(&pkt).await?;
                    }
                }
                Ok(mysql::MySqlCommand::Other(op, body)) => {
                    log.payload(&[&[op], body.as_ref()].concat());
                    framed
                        .write_frame(&MySqlPacket {
                            seq: 1,
                            payload: mysql::build_err(1047, "08S01", "Unknown command"),
                        })
                        .await?;
                }
                Err(_) => {
                    log.payload(&packet.payload);
                    return Ok(());
                }
            }
        }
    }
}

/// Encode one text-protocol result set with a single column and row.
fn single_value_result(column: &str, value: &str) -> Vec<MySqlPacket> {
    let mut out = Vec::new();
    // column count
    out.push(MySqlPacket {
        seq: 1,
        payload: vec![1].into(),
    });
    // column definition (catalog "def", empty schema/table, name, type var_string)
    let mut def = Vec::new();
    for s in ["def", "", "", "", column, ""] {
        def.push(sat_u8(s.len()));
        def.extend_from_slice(s.as_bytes());
    }
    def.push(0x0c); // fixed fields length
    def.extend_from_slice(&0xff_u16.to_le_bytes()); // charset
    def.extend_from_slice(&1024_u32.to_le_bytes()); // column length
    def.push(0xfd); // type VAR_STRING
    def.extend_from_slice(&0_u16.to_le_bytes()); // flags
    def.push(0); // decimals
    def.extend_from_slice(&0_u16.to_le_bytes()); // filler
    out.push(MySqlPacket {
        seq: 2,
        payload: def.into(),
    });
    // EOF (pre-deprecate form keeps old clients happy)
    out.push(MySqlPacket {
        seq: 3,
        payload: vec![0xfe, 0, 0, 0x02, 0].into(),
    });
    // row
    let mut row = Vec::with_capacity(value.len().saturating_add(1));
    row.push(sat_u8(value.len()));
    row.extend_from_slice(value.as_bytes());
    out.push(MySqlPacket {
        seq: 4,
        payload: row.into(),
    });
    // EOF
    out.push(MySqlPacket {
        seq: 5,
        payload: vec![0xfe, 0, 0, 0x02, 0].into(),
    });
    out
}

/// Scripted answers, Sticky-Elephant style: protocol-correct canned results
/// per statement shape, executing nothing.
pub fn scripted_result(sql: &str) -> Vec<MySqlPacket> {
    let upper = sql.trim().to_uppercase();
    if upper.contains("@@VERSION") || upper.starts_with("SELECT VERSION") {
        return single_value_result("@@version", catalog::MYSQL_VERSION);
    }
    if upper.starts_with("SELECT DATABASE()") {
        return single_value_result("database()", "app_production");
    }
    if upper.starts_with("SHOW DATABASES") {
        return single_value_result("Database", "app_production");
    }
    if upper.starts_with("SELECT") || upper.starts_with("SHOW") {
        return single_value_result("value", "");
    }
    if upper.starts_with("CREATE")
        || upper.starts_with("DROP")
        || upper.starts_with("INSERT")
        || upper.starts_with("UPDATE")
        || upper.starts_with("DELETE")
        || upper.starts_with("SET")
        || upper.starts_with("GRANT")
        || upper.starts_with("ALTER")
        || upper.starts_with("USE")
    {
        return vec![MySqlPacket {
            seq: 1,
            payload: mysql::build_ok(),
        }];
    }
    // 1064 with the full manual clause real servers send — truncating it
    // was a probe-visible tell (catalog keeps the honeypots and the
    // fingerprint corpus on the same string).
    let near: String = sql.chars().take(24).collect();
    let mut msg = String::new();
    let _ = catalog::mysql_syntax_error(&mut msg, &near);
    vec![MySqlPacket {
        seq: 1,
        payload: mysql::build_err(1064, "42000", &msg),
    }]
}

#[cfg(test)]
mod tests {
    use super::*;
    use decoy_base::time::Clock;
    use decoy_net::server::{Listener, ListenerOptions, ServerHandle};
    use decoy_store::{ConfigVariant, Dbms, EventKind, InteractionLevel};
    use tokio::net::TcpStream;

    async fn spawn_med() -> (ServerHandle, Arc<EventStore>) {
        let store = EventStore::new();
        let id = HoneypotId::new(
            Dbms::MySql,
            InteractionLevel::Medium,
            ConfigVariant::Default,
            0,
        );
        let hp = MySqlHoneypot::new(store.clone(), id);
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

    async fn login(addr: std::net::SocketAddr) -> Framed<TcpStream, MySqlCodec> {
        let stream = TcpStream::connect(addr).await.unwrap();
        let mut framed = Framed::new(stream, MySqlCodec);
        let greeting = framed.read_frame().await.unwrap().unwrap();
        mysql::Greeting::parse(&greeting.payload).unwrap();
        framed
            .write_frame(&MySqlPacket {
                seq: greeting.seq.wrapping_add(1),
                payload: mysql::LoginRequest::cleartext("root", "toor", Some("mysql")).build(),
            })
            .await
            .unwrap();
        let ok = framed.read_frame().await.unwrap().unwrap();
        assert_eq!(ok.payload[0], 0x00, "login accepted");
        framed
    }

    #[tokio::test]
    async fn accepts_login_and_answers_version_query() {
        let (server, store) = spawn_med().await;
        let mut framed = login(server.local_addr()).await;
        let mut q = vec![0x03];
        q.extend_from_slice(b"SELECT @@version");
        framed
            .write_frame(&MySqlPacket {
                seq: 0,
                payload: q.into(),
            })
            .await
            .unwrap();
        // column count, def, EOF, row, EOF
        let mut packets = Vec::new();
        for _ in 0..5 {
            packets.push(framed.read_frame().await.unwrap().unwrap());
        }
        let row = &packets[3];
        assert!(String::from_utf8_lossy(&row.payload).contains("8.0.36"));
        server.shutdown().await;
        let logins =
            store.filter(|e| matches!(e.kind, EventKind::LoginAttempt { success: true, .. }));
        assert_eq!(logins.len(), 1);
        let cmds = store.filter(
            |e| matches!(&e.kind, EventKind::Command { raw, .. } if raw == "SELECT @@version"),
        );
        assert_eq!(cmds.len(), 1);
    }

    #[tokio::test]
    async fn ddl_statements_get_ok_and_injections_are_logged() {
        let (server, store) = spawn_med().await;
        let mut framed = login(server.local_addr()).await;
        // the SQL-injection-style write-up of Ma et al.: INTO OUTFILE drops
        let attack = "SELECT '<?php system($_GET[1]); ?>' INTO OUTFILE '/var/www/shell.php'";
        let mut q = vec![0x03];
        q.extend_from_slice(attack.as_bytes());
        framed
            .write_frame(&MySqlPacket {
                seq: 0,
                payload: q.into(),
            })
            .await
            .unwrap();
        // SELECT answers a result set (5 packets)
        for _ in 0..5 {
            framed.read_frame().await.unwrap().unwrap();
        }
        let mut q = vec![0x03];
        q.extend_from_slice(b"CREATE TABLE pwn(cmd text)");
        framed
            .write_frame(&MySqlPacket {
                seq: 0,
                payload: q.into(),
            })
            .await
            .unwrap();
        let reply = framed.read_frame().await.unwrap().unwrap();
        assert_eq!(reply.payload[0], 0x00, "DDL acknowledged");
        server.shutdown().await;
        let cmds = store.filter(
            |e| matches!(&e.kind, EventKind::Command { raw, .. } if raw.contains("INTO OUTFILE")),
        );
        assert_eq!(cmds.len(), 1, "injection attempt captured");
    }

    #[tokio::test]
    async fn gibberish_sql_gets_1064() {
        let (server, _store) = spawn_med().await;
        let mut framed = login(server.local_addr()).await;
        let mut q = vec![0x03];
        q.extend_from_slice(b"FROBNICATE ALL THE THINGS");
        framed
            .write_frame(&MySqlPacket {
                seq: 0,
                payload: q.into(),
            })
            .await
            .unwrap();
        let reply = framed.read_frame().await.unwrap().unwrap();
        let (code, msg) = mysql::parse_err(&reply.payload).unwrap();
        assert_eq!(code, 1064);
        assert!(msg.contains("SQL syntax"));
        assert!(msg.contains("check the manual"), "real 1064 manual clause");
        assert!(msg.ends_with("at line 1"));
        // connection still usable
        let mut q = vec![0x03];
        q.extend_from_slice(b"SELECT 1");
        framed
            .write_frame(&MySqlPacket {
                seq: 0,
                payload: q.into(),
            })
            .await
            .unwrap();
        framed.read_frame().await.unwrap().unwrap();
        server.shutdown().await;
    }
}
