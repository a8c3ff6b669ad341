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
use crate::session::{Flow, Session};
use decoy_wire::cursor::sat_u8;
use decoy_wire::mysql::{self, MySqlCodec, MySqlPacket};

/// The medium-interaction MySQL honeypot.
#[derive(Debug, Clone, Default)]
pub struct MySqlHoneypot {
    /// The login is over and commands follow.
    logged_in: bool,
}

impl Session for MySqlHoneypot {
    type Codec = MySqlCodec;

    fn codec(&self) -> MySqlCodec {
        MySqlCodec
    }

    fn open(&mut self, out: &mut Vec<MySqlPacket>, log: &SessionLogger) {
        out.push(crate::low::mysql_greeting(log));
    }

    fn on_frame(
        &mut self,
        packet: MySqlPacket,
        out: &mut Vec<MySqlPacket>,
        log: &SessionLogger,
    ) -> Flow {
        if !self.logged_in {
            // login phase: accept anything
            return match mysql::LoginRequest::parse(&packet.payload) {
                Ok(login) => {
                    log.login(&login.username, &login.password_observed(), true);
                    out.push(MySqlPacket {
                        seq: packet.seq.wrapping_add(1),
                        payload: mysql::build_ok(),
                    });
                    self.logged_in = true;
                    Flow::Continue
                }
                Err(_) => {
                    log.payload(&packet.payload);
                    Flow::Close
                }
            };
        }
        // command phase
        match mysql::parse_command(&packet.payload) {
            Ok(mysql::MySqlCommand::Quit) => return Flow::Close,
            Ok(mysql::MySqlCommand::Ping) => {
                out.push(MySqlPacket {
                    seq: 1,
                    payload: mysql::build_ok(),
                });
            }
            Ok(mysql::MySqlCommand::Query(sql)) => {
                log.command(&sql);
                out.extend(scripted_result(&sql));
            }
            Ok(mysql::MySqlCommand::Other(op, body)) => {
                log.payload(&[&[op], body.as_ref()].concat());
                out.push(MySqlPacket {
                    seq: 1,
                    payload: mysql::build_err(1047, "08S01", "Unknown command"),
                });
            }
            Err(_) => {
                log.payload(&packet.payload);
                return Flow::Close;
            }
        }
        Flow::Continue
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
    // was a probe-visible tell (the fingerprint battery's error stage
    // checks the clause in what this machine replies).
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
    use crate::driver::Driver;
    use decoy_store::{ConfigVariant, Dbms, EventKind, EventStore, HoneypotId, InteractionLevel};
    use std::sync::Arc;

    type Client = Driver<MySqlCodec>;

    fn login() -> (Client, Arc<EventStore>) {
        let store = EventStore::new();
        let id = HoneypotId::new(
            Dbms::MySql,
            InteractionLevel::Medium,
            ConfigVariant::Default,
            0,
        );
        let mut framed = Driver::connect(MySqlHoneypot::default(), &store, id, MySqlCodec);
        let greeting = framed.recv();
        mysql::Greeting::parse(&greeting.payload).unwrap();
        framed.send(&MySqlPacket {
            seq: greeting.seq.wrapping_add(1),
            payload: mysql::LoginRequest::cleartext("root", "toor", Some("mysql")).build(),
        });
        let ok = framed.recv();
        assert_eq!(ok.payload[0], 0x00, "login accepted");
        (framed, store)
    }

    #[test]
    fn accepts_login_and_answers_version_query() {
        let (mut framed, store) = login();
        let mut q = vec![0x03];
        q.extend_from_slice(b"SELECT @@version");
        framed.send(&MySqlPacket {
            seq: 0,
            payload: q.into(),
        });
        // column count, def, EOF, row, EOF
        let mut packets = Vec::new();
        for _ in 0..5 {
            packets.push(framed.recv());
        }
        let row = &packets[3];
        assert!(String::from_utf8_lossy(&row.payload).contains("8.0.36"));
        let logins =
            store.filter(|e| matches!(e.kind, EventKind::LoginAttempt { success: true, .. }));
        assert_eq!(logins.len(), 1);
        let cmds = store.filter(
            |e| matches!(&e.kind, EventKind::Command { raw, .. } if raw == "SELECT @@version"),
        );
        assert_eq!(cmds.len(), 1);
    }

    #[test]
    fn ddl_statements_get_ok_and_injections_are_logged() {
        let (mut framed, store) = login();
        // the SQL-injection-style write-up of Ma et al.: INTO OUTFILE drops
        let attack = "SELECT '<?php system($_GET[1]); ?>' INTO OUTFILE '/var/www/shell.php'";
        let mut q = vec![0x03];
        q.extend_from_slice(attack.as_bytes());
        framed.send(&MySqlPacket {
            seq: 0,
            payload: q.into(),
        });
        // SELECT answers a result set (5 packets)
        for _ in 0..5 {
            framed.recv();
        }
        let mut q = vec![0x03];
        q.extend_from_slice(b"CREATE TABLE pwn(cmd text)");
        framed.send(&MySqlPacket {
            seq: 0,
            payload: q.into(),
        });
        let reply = framed.recv();
        assert_eq!(reply.payload[0], 0x00, "DDL acknowledged");
        let cmds = store.filter(
            |e| matches!(&e.kind, EventKind::Command { raw, .. } if raw.contains("INTO OUTFILE")),
        );
        assert_eq!(cmds.len(), 1, "injection attempt captured");
    }

    #[test]
    fn gibberish_sql_gets_1064() {
        let (mut framed, _store) = login();
        let mut q = vec![0x03];
        q.extend_from_slice(b"FROBNICATE ALL THE THINGS");
        framed.send(&MySqlPacket {
            seq: 0,
            payload: q.into(),
        });
        let reply = framed.recv();
        let (code, msg) = mysql::parse_err(&reply.payload).unwrap();
        assert_eq!(code, 1064);
        assert!(msg.contains("SQL syntax"));
        assert!(msg.contains("check the manual"), "real 1064 manual clause");
        assert!(msg.ends_with("at line 1"));
        // connection still usable
        let mut q = vec![0x03];
        q.extend_from_slice(b"SELECT 1");
        framed.send(&MySqlPacket {
            seq: 0,
            payload: q.into(),
        });
        framed.recv();
    }
}
