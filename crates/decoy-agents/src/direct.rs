//! Direct mode: emit the events a honeypot would log, without TCP.
//!
//! Used for full-volume runs (18 M login attempts need no sockets to
//! aggregate correctly). `tests/modes_offline.rs` validates it in tier-1:
//! for each planned session, the attack client run against the honeypot's
//! session machine logs exactly these events. The networked
//! `modes_equivalent` test holds network mode to the same aggregates.
//!
//! Stateless caveat: the MongoDB and CouchDB honeypots are *stateful* (a
//! second MongoDB ransom visit finds only the previous note; after a CouchDB
//! ransom only the `warning` database is left). Direct mode always emits the
//! first-visit shape; every aggregate in the tables is invariant to this
//! (same source, same kinds, same tags).

use crate::schedule::PlannedSession;
use crate::scripts::{self, CampaignParams, SessionScript};
use decoy_base::time::Timestamp;
use decoy_store::{ConfigVariant, Dbms, Event, EventKind, EventStore, HoneypotId};
use std::net::IpAddr;

/// Context for direct emission against one honeypot instance.
pub struct DirectSink<'a> {
    /// The shared event store.
    pub store: &'a EventStore,
    /// Which honeypot instance "receives" the session.
    pub honeypot: HoneypotId,
    /// Session counter for the instance (incremented per connection).
    pub session_seq: &'a mut u64,
    /// `(key, value)` entries present in a fake-data Redis instance
    /// (TYPE walks and harvest-and-reuse sessions).
    pub fake_entries: &'a [(String, String)],
}

impl DirectSink<'_> {
    fn next_session(&mut self) -> u64 {
        *self.session_seq += 1;
        *self.session_seq
    }

    fn log(&self, ts: Timestamp, src: IpAddr, session: u64, kind: EventKind) {
        self.store.log(Event {
            ts,
            honeypot: self.honeypot,
            src,
            session,
            kind,
        });
    }

    fn command(&self, ts: Timestamp, src: IpAddr, session: u64, raw: &str) {
        self.log(
            ts,
            src,
            session,
            EventKind::Command {
                action: decoy_store::normalize_action(raw),
                raw: raw.to_string(),
            },
        );
    }

    fn login(&self, ts: Timestamp, src: IpAddr, session: u64, u: &str, p: &str, ok: bool) {
        self.log(
            ts,
            src,
            session,
            EventKind::LoginAttempt {
                username: u.to_string(),
                password: p.to_string(),
                success: ok,
            },
        );
    }

    fn payload(&self, ts: Timestamp, src: IpAddr, session: u64, bytes: &[u8]) {
        let recognized = decoy_store::foreign::recognize(bytes).map(|f| f.label().to_string());
        let preview: String = String::from_utf8_lossy(&bytes[..bytes.len().min(256)])
            .chars()
            .map(|c| if c.is_control() { '.' } else { c })
            .collect();
        self.log(
            ts,
            src,
            session,
            EventKind::Payload {
                len: bytes.len(),
                recognized,
                preview,
            },
        );
    }
}

/// Render a Redis command as the medium honeypot logs it (name uppercased).
fn render_redis(parts: &[String]) -> String {
    let mut out = parts.first().map(|n| n.to_uppercase()).unwrap_or_default();
    for arg in &parts[1..] {
        out.push(' ');
        out.push_str(arg);
    }
    out
}

/// Emit the events for one planned session.
pub fn emit_session(sink: &mut DirectSink<'_>, session: &PlannedSession) {
    let ts = session.ts;
    let src = IpAddr::V4(session.src);
    let params = CampaignParams::derive(u64::from(u32::from(session.src)));
    let hp = sink.honeypot;
    let pg_open = hp.dbms == Dbms::Postgres
        && hp.level == decoy_store::InteractionLevel::Medium
        && hp.config != ConfigVariant::LoginDisabled;

    // one connection with a body of events
    let one = |sink: &mut DirectSink<'_>, body: &dyn Fn(&DirectSink<'_>, u64)| {
        let s = sink.next_session();
        sink.log(ts, src, s, EventKind::Connect);
        body(sink, s);
        sink.log(ts, src, s, EventKind::Disconnect);
    };

    match &session.script {
        SessionScript::ConnectOnly => one(sink, &|_, _| {}),
        SessionScript::MysqlBrute { creds } | SessionScript::MssqlBrute { creds } => {
            for (u, p) in creds {
                one(sink, &|k, s| k.login(ts, src, s, u, p, false));
            }
        }
        SessionScript::PgBrute { creds } => {
            for (u, p) in creds {
                // against low or login-disabled instances logins fail; the
                // medium open config accepts (§6)
                let ok = pg_open;
                one(sink, &|k, s| k.login(ts, src, s, u, p, ok));
            }
        }
        SessionScript::PgLogin {
            user,
            password,
            repeats,
        } => {
            for _ in 0..(*repeats).max(1) {
                let ok = pg_open;
                one(sink, &|k, s| k.login(ts, src, s, user, password, ok));
            }
        }
        SessionScript::RedisAuth { passwords } => one(sink, &|k, s| {
            for pw in passwords {
                if hp.level == decoy_store::InteractionLevel::Medium {
                    k.command(ts, src, s, &format!("AUTH {pw}"));
                }
                k.login(ts, src, s, "default", pw, false);
            }
        }),
        SessionScript::RedisScout { type_walk } => {
            let keys: Vec<String> = if *type_walk && hp.config == ConfigVariant::FakeData {
                sink.fake_entries.iter().map(|(k, _)| k.clone()).collect()
            } else {
                Vec::new()
            };
            one(sink, &move |k, s| {
                k.command(ts, src, s, "INFO");
                k.command(ts, src, s, "DBSIZE");
                k.command(ts, src, s, "KEYS *");
                for key in &keys {
                    k.command(ts, src, s, &format!("TYPE {key}"));
                }
            })
        }
        SessionScript::ElasticScout { deep } => one(sink, &|k, s| {
            k.command(ts, src, s, "GET /");
            k.command(ts, src, s, "GET /_cluster/health");
            k.command(ts, src, s, "GET /_nodes");
            if *deep {
                k.command(ts, src, s, "GET /_cat/indices?v");
                k.command(ts, src, s, r#"POST /_search {"query":{"match_all":{}}}"#);
            }
        }),
        SessionScript::MongoScout { deep } => one(sink, &|k, s| {
            k.command(ts, src, s, "ismaster");
            k.command(ts, src, s, "buildInfo");
            if *deep {
                k.command(ts, src, s, "listDatabases");
                k.command(ts, src, s, "listCollections admin");
                k.command(ts, src, s, "listCollections customers");
            }
        }),
        SessionScript::PgScout => one(sink, &|k, s| {
            k.login(ts, src, s, "postgres", "postgres", pg_open);
            if pg_open {
                k.command(ts, src, s, "SELECT version();");
            }
        }),
        SessionScript::P2pInfect => one(sink, &|k, s| {
            for cmd in scripts::p2pinfect_commands(&params) {
                k.command(ts, src, s, &render_redis(&cmd));
            }
        }),
        SessionScript::AbcBot => one(sink, &|k, s| {
            for cmd in scripts::abcbot_commands(&params) {
                k.command(ts, src, s, &render_redis(&cmd));
            }
        }),
        SessionScript::RedisCve20220543 => one(sink, &|k, s| {
            for cmd in scripts::redis_cve_commands() {
                k.command(ts, src, s, &render_redis(&cmd));
            }
        }),
        SessionScript::Kinsing => one(sink, &|k, s| {
            k.login(ts, src, s, "postgres", "postgres", pg_open);
            if pg_open {
                for q in scripts::kinsing_queries(&params) {
                    k.command(ts, src, s, &q);
                }
            }
        }),
        SessionScript::PgPrivilege => one(sink, &|k, s| {
            k.login(ts, src, s, "postgres", "postgres", pg_open);
            if pg_open {
                for q in scripts::pg_privilege_queries(&params) {
                    k.command(ts, src, s, &q);
                }
            }
        }),
        SessionScript::Lucifer => one(sink, &|k, s| {
            let body = scripts::lucifer_search_body(&params);
            k.command(ts, src, s, &format!("POST /_search {body}"));
            for stage in scripts::lucifer_shell_stages(&params) {
                k.command(
                    ts,
                    src,
                    s,
                    &format!(
                        r#"POST /_search {{"script_fields":{{"exp":{{"script":"{stage}"}}}}}}"#
                    ),
                );
            }
        }),
        SessionScript::MongoRansom { group } => one(sink, &|k, s| {
            k.command(ts, src, s, "ismaster");
            k.command(ts, src, s, "listDatabases");
            k.command(ts, src, s, "listCollections customers");
            k.command(ts, src, s, "find customers.records");
            k.command(ts, src, s, "drop customers.records");
            k.command(ts, src, s, "insert customers.README");
            let _ = scripts::ransom_note(*group, &params.hash_hex()[..8]);
        }),
        SessionScript::HarvestAndReuse => {
            let harvested: Vec<(String, String)> =
                sink.fake_entries.iter().take(8).cloned().collect();
            one(sink, &move |k, s| {
                k.command(ts, src, s, "KEYS *");
                for (key, _) in &harvested {
                    k.command(ts, src, s, &format!("GET {key}"));
                }
                for (_, password) in harvested.iter().take(4) {
                    k.command(ts, src, s, &format!("AUTH {password}"));
                    k.login(ts, src, s, "default", password, false);
                }
            })
        }
        SessionScript::CouchScout => one(sink, &|k, s| {
            k.command(ts, src, s, "GET /");
            k.command(ts, src, s, "GET /_all_dbs");
            k.command(ts, src, s, "GET /customers/_all_docs");
        }),
        SessionScript::CouchRansom => one(sink, &|k, s| {
            k.command(ts, src, s, "GET /_all_dbs");
            k.command(ts, src, s, "GET /customers/_all_docs");
            k.command(ts, src, s, "DELETE /customers");
            let note = scripts::ransom_note(0, &params.hash_hex()[..8]);
            k.command(
                ts,
                src,
                s,
                &format!(r#"PUT /warning/readme {{"note":"{note}"}}"#),
            );
        }),
        SessionScript::MysqlScout => one(sink, &|k, s| {
            k.login(ts, src, s, "root", "root", true);
            k.command(ts, src, s, "SELECT @@version");
            k.command(ts, src, s, "SHOW DATABASES");
        }),
        SessionScript::RdpProbe => one(sink, &|k, s| {
            k.payload(ts, src, s, &foreign_rdp());
        }),
        SessionScript::JdwpProbe => one(sink, &|k, s| {
            k.payload(ts, src, s, b"JDWP-Handshake");
        }),
        SessionScript::VmwareRecon => one(sink, &|k, s| {
            let body = decoy_store::foreign::vmware_soap_body();
            k.command(ts, src, s, &format!("POST /sdk {body}"));
            k.payload(ts, src, s, body.as_bytes());
        }),
        SessionScript::CraftCms => one(sink, &|k, s| {
            let body = decoy_store::foreign::craftcms_probe_body();
            k.command(
                ts,
                src,
                s,
                &format!("POST /index.php?p=admin/actions/conditions/render {body}"),
            );
            k.payload(ts, src, s, body.as_bytes());
        }),
        SessionScript::FingerprintProbe => one(sink, &|k, s| match hp.dbms {
            Dbms::Redis => {
                k.command(ts, src, s, "INFO server");
                k.command(ts, src, s, "FINGERPRINTPROBE arg");
            }
            Dbms::Postgres => {
                k.login(ts, src, s, "postgres", "postgres", pg_open);
                if pg_open {
                    k.command(ts, src, s, "SELECT version();");
                    k.command(ts, src, s, "FROBNICATE the catalog");
                }
            }
            Dbms::MySql => {
                let ok = hp.level == decoy_store::InteractionLevel::Medium;
                k.login(ts, src, s, "root", "root", ok);
                if ok {
                    k.command(ts, src, s, "SELECT @@version");
                    k.command(ts, src, s, "FINGERPRINT PROBE");
                }
            }
            Dbms::MongoDb => {
                k.command(ts, src, s, "ismaster");
                k.command(ts, src, s, "buildInfo");
                k.command(ts, src, s, "fingerprintprobe");
            }
            Dbms::Elastic => {
                k.command(ts, src, s, "GET /");
                k.command(ts, src, s, "GET /fingerprint_probe_missing");
            }
            Dbms::CouchDb => {
                k.command(ts, src, s, "GET /");
                k.command(ts, src, s, "GET /fingerprint_probe_missing_db");
            }
            // no probe battery for the remaining families: connect only
            _ => {}
        }),
    }
}

fn foreign_rdp() -> Vec<u8> {
    decoy_store::foreign::rdp_connection_request("Administr")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actors::TargetSelector;
    use decoy_base::time::EXPERIMENT_START;
    use decoy_store::InteractionLevel;
    use std::net::Ipv4Addr;

    fn planned(script: SessionScript) -> PlannedSession {
        PlannedSession {
            ts: EXPERIMENT_START,
            actor_idx: 0,
            src: Ipv4Addr::new(60, 7, 7, 7),
            target: TargetSelector::low_multi(Dbms::Mssql),
            script,
        }
    }

    fn run(
        hp: HoneypotId,
        script: SessionScript,
        fake_entries: &[(String, String)],
    ) -> std::sync::Arc<EventStore> {
        let store = EventStore::new();
        let mut seq = 0;
        let mut sink = DirectSink {
            store: &store,
            honeypot: hp,
            session_seq: &mut seq,
            fake_entries,
        };
        emit_session(&mut sink, &planned(script));
        store
    }

    fn low(dbms: Dbms) -> HoneypotId {
        HoneypotId::new(dbms, InteractionLevel::Low, ConfigVariant::MultiService, 0)
    }

    fn med(dbms: Dbms, config: ConfigVariant) -> HoneypotId {
        HoneypotId::new(dbms, InteractionLevel::Medium, config, 0)
    }

    #[test]
    fn brute_emits_one_connection_per_credential() {
        let creds = vec![
            ("sa".to_string(), "123".to_string()),
            ("sa".to_string(), "1234".to_string()),
            ("admin".to_string(), "123456".to_string()),
        ];
        let store = run(low(Dbms::Mssql), SessionScript::MssqlBrute { creds }, &[]);
        let events = store.all();
        let connects = events
            .iter()
            .filter(|e| e.kind == EventKind::Connect)
            .count();
        let logins = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::LoginAttempt { .. }))
            .count();
        assert_eq!(connects, 3);
        assert_eq!(logins, 3);
        // distinct session ids per connection
        let sessions: std::collections::HashSet<u64> = events.iter().map(|e| e.session).collect();
        assert_eq!(sessions.len(), 3);
    }

    #[test]
    fn pg_login_success_depends_on_config() {
        let open = run(
            med(Dbms::Postgres, ConfigVariant::Default),
            SessionScript::PgScout,
            &[],
        );
        assert_eq!(
            open.filter(|e| matches!(e.kind, EventKind::LoginAttempt { success: true, .. }))
                .len(),
            1
        );
        let closed = run(
            med(Dbms::Postgres, ConfigVariant::LoginDisabled),
            SessionScript::PgScout,
            &[],
        );
        assert_eq!(
            closed
                .filter(|e| matches!(e.kind, EventKind::LoginAttempt { success: false, .. }))
                .len(),
            1
        );
        // no post-login query against the restricted config
        assert_eq!(
            closed
                .filter(|e| matches!(e.kind, EventKind::Command { .. }))
                .len(),
            0
        );
    }

    #[test]
    fn type_walk_uses_provided_keys() {
        let keys: Vec<(String, String)> = (0..5)
            .map(|i| (format!("user:u{i}"), format!("pw{i}")))
            .collect();
        let store = run(
            med(Dbms::Redis, ConfigVariant::FakeData),
            SessionScript::RedisScout { type_walk: true },
            &keys,
        );
        let types = store.filter(
            |e| matches!(&e.kind, EventKind::Command { raw, .. } if raw.starts_with("TYPE ")),
        );
        assert_eq!(types.len(), 5);
        // no walk on the default config
        let store = run(
            med(Dbms::Redis, ConfigVariant::Default),
            SessionScript::RedisScout { type_walk: true },
            &keys,
        );
        assert_eq!(
            store
                .filter(|e| matches!(&e.kind, EventKind::Command { raw, .. } if raw.starts_with("TYPE ")))
                .len(),
            0
        );
    }

    #[test]
    fn campaign_actions_match_network_rendering() {
        let store = run(
            med(Dbms::Redis, ConfigVariant::Default),
            SessionScript::P2pInfect,
            &[],
        );
        let actions: Vec<String> = store
            .all()
            .into_iter()
            .filter_map(|e| match e.kind {
                EventKind::Command { action, .. } => Some(action),
                _ => None,
            })
            .collect();
        assert!(actions.iter().any(|a| a == "SLAVEOF <IP> <N>"));
        assert!(actions.iter().any(|a| a == "MODULE LOAD /tmp/exp.so"));
        assert!(actions.iter().any(|a| a.starts_with("SYSTEM.EXEC")));
    }

    #[test]
    fn foreign_probes_are_recognized() {
        let store = run(
            med(Dbms::Redis, ConfigVariant::Default),
            SessionScript::JdwpProbe,
            &[],
        );
        assert_eq!(
            store
                .filter(|e| matches!(&e.kind, EventKind::Payload { recognized: Some(r), .. } if r == "jdwp-scan"))
                .len(),
            1
        );
        let store = run(
            med(Dbms::Postgres, ConfigVariant::Default),
            SessionScript::RdpProbe,
            &[],
        );
        assert_eq!(
            store
                .filter(|e| matches!(&e.kind, EventKind::Payload { recognized: Some(r), .. } if r == "rdp-scan"))
                .len(),
            1
        );
    }

    #[test]
    fn ransom_direct_shape() {
        let store = run(
            HoneypotId::new(
                Dbms::MongoDb,
                InteractionLevel::High,
                ConfigVariant::FakeData,
                0,
            ),
            SessionScript::MongoRansom { group: 1 },
            &[],
        );
        let actions: Vec<String> = store
            .all()
            .into_iter()
            .filter_map(|e| match e.kind {
                EventKind::Command { action, .. } => Some(action),
                _ => None,
            })
            .collect();
        assert_eq!(
            actions,
            vec![
                "ismaster",
                "listDatabases",
                "listCollections customers",
                "find customers.records",
                "drop customers.records",
                "insert customers.README",
            ]
        );
    }
}
