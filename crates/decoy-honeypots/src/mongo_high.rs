//! High-interaction MongoDB honeypot.
//!
//! Unlike the scripted medium honeypots, this one fronts a *real* document
//! store ([`DocDb`]): attackers genuinely enumerate databases, read the fake
//! Mockaroo customer data, delete collections, and insert ransom notes —
//! the full §6.3 kill chain. The wire side speaks `OP_MSG` and the legacy
//! `OP_QUERY` handshake scanners still use.

use crate::catalog;
use crate::docdb::DocDb;
use crate::logging::SessionLogger;
use crate::session::{Flow, Session};
use decoy_fakedata::FakeDataGenerator;
use decoy_wire::cursor::{sat_i32, sat_i64};
use decoy_wire::mongo::bson::{doc, Bson, Document};
use decoy_wire::mongo::{MongoBody, MongoCodec, MongoMessage};
use std::sync::Arc;

/// The high-interaction MongoDB honeypot; every session of an instance
/// shares its engine.
#[derive(Clone)]
pub struct MongoHoneypot {
    db: Arc<DocDb>,
}

impl MongoHoneypot {
    /// An instance backed by an existing engine.
    pub fn with_db(db: Arc<DocDb>) -> Self {
        MongoHoneypot { db }
    }

    /// The paper's configuration: fake customer data (names, addresses,
    /// phone numbers, credit cards) generated from `seed`.
    pub fn with_fake_customers(seed: u64, count: usize) -> Self {
        let db = Arc::new(DocDb::new());
        let mut generator = FakeDataGenerator::new(seed);
        let docs: Vec<Document> = generator
            .customers(count)
            .into_iter()
            .map(|c| {
                doc! {
                    "name" => c.name,
                    "address" => c.address,
                    "city" => c.city,
                    "phone" => c.phone,
                    "credit_card" => c.credit_card,
                    "email" => c.email,
                }
            })
            .collect();
        db.insert("customers", "records", docs);
        db.insert(
            "admin",
            "system.version",
            vec![doc! { "_id" => "featureCompatibilityVersion", "version" => "4.4" }],
        );
        Self::with_db(db)
    }

    /// The backing engine (forensics and tests).
    pub fn db(&self) -> &Arc<DocDb> {
        &self.db
    }

    /// Execute one command document, returning the reply document.
    fn execute(&self, cmd: &Document, log: &SessionLogger) -> Document {
        let Some(name) = cmd.keys().next().map(str::to_string) else {
            return error_reply(40415, "empty command document");
        };
        let db_name = cmd.get_str("$db").unwrap_or("admin").to_string();
        let lname = name.to_lowercase();
        match lname.as_str() {
            "ismaster" | "hello" => {
                log.command(&lname);
                doc! {
                    "ismaster" => true,
                    "maxBsonObjectSize" => 16 * 1024 * 1024i32,
                    "maxMessageSizeBytes" => 48_000_000i32,
                    "maxWriteBatchSize" => 100_000i32,
                    "maxWireVersion" => catalog::MONGO_MAX_WIRE_VERSION,
                    "minWireVersion" => 0i32,
                    "readOnly" => false,
                    "ok" => 1.0f64,
                }
            }
            "buildinfo" => {
                log.command("buildInfo");
                doc! {
                    "version" => catalog::MONGO_VERSION,
                    "gitVersion" => catalog::MONGO_GIT_VERSION,
                    "openssl" => doc! { "running" => "OpenSSL 1.1.1f" },
                    "sysInfo" => "deprecated",
                    "bits" => 64i32,
                    "ok" => 1.0f64,
                }
            }
            "ping" => {
                log.command("ping");
                doc! { "ok" => 1.0f64 }
            }
            "whatsmyuri" => {
                log.command("whatsmyuri");
                doc! { "you" => format!("{}:0", log.src()), "ok" => 1.0f64 }
            }
            "getlog" => {
                log.command("getLog");
                doc! {
                    "totalLinesWritten" => 0i32,
                    "log" => Vec::<Bson>::new(),
                    "ok" => 1.0f64,
                }
            }
            "serverstatus" => {
                log.command("serverStatus");
                doc! {
                    "host" => "db-prod-01",
                    "version" => catalog::MONGO_VERSION,
                    "uptime" => catalog::MONGO_UPTIME_SECS,
                    "ok" => 1.0f64,
                }
            }
            "listdatabases" => {
                log.command("listDatabases");
                crate::docdb::list_databases_reply(&self.db)
            }
            "listcollections" => {
                log.command(&format!("listCollections {db_name}"));
                let batch: Vec<Bson> = self
                    .db
                    .list_collections(&db_name)
                    .into_iter()
                    .map(|c| Bson::Document(doc! { "name" => c, "type" => "collection" }))
                    .collect();
                doc! {
                    "cursor" => doc! {
                        "id" => 0i64,
                        "ns" => format!("{db_name}.$cmd.listCollections"),
                        "firstBatch" => batch,
                    },
                    "ok" => 1.0f64,
                }
            }
            "find" => {
                let coll = cmd.get_str(&name).unwrap_or("unknown").to_string();
                log.command(&format!("find {db_name}.{coll}"));
                let filter = cmd.get_doc("filter").cloned().unwrap_or_default();
                let limit = cmd.get_f64("limit").unwrap_or(0.0).clamp(0.0, 1e6);
                #[allow(
                    clippy::cast_possible_truncation,
                    reason = "clamped to [0, 1e6], so the cast drops only the fraction"
                )]
                let limit = usize::try_from(limit as u64).unwrap_or(1_000_000);
                let docs = self.db.find(&db_name, &coll, &filter, limit);
                cursor_reply(&db_name, &coll, docs)
            }
            "count" => {
                let coll = cmd.get_str(&name).unwrap_or("unknown").to_string();
                log.command(&format!("count {db_name}.{coll}"));
                let filter = cmd.get_doc("query").cloned().unwrap_or_default();
                let n = sat_i64(self.db.count(&db_name, &coll, &filter));
                doc! { "n" => n, "ok" => 1.0f64 }
            }
            "insert" => {
                let coll = cmd.get_str(&name).unwrap_or("unknown").to_string();
                log.command(&format!("insert {db_name}.{coll}"));
                let docs: Vec<Document> = cmd
                    .get("documents")
                    .and_then(Bson::as_array)
                    .map(|arr| arr.iter().filter_map(|b| b.as_doc().cloned()).collect())
                    .unwrap_or_default();
                let r = self.db.insert(&db_name, &coll, docs);
                doc! { "n" => sat_i32(r.n), "ok" => 1.0f64 }
            }
            "delete" => {
                let coll = cmd.get_str(&name).unwrap_or("unknown").to_string();
                log.command(&format!("delete {db_name}.{coll}"));
                let mut removed = 0usize;
                if let Some(deletes) = cmd.get("deletes").and_then(Bson::as_array) {
                    for d in deletes {
                        if let Some(d) = d.as_doc() {
                            let filter = d.get_doc("q").cloned().unwrap_or_default();
                            removed += self.db.delete(&db_name, &coll, &filter).n;
                        }
                    }
                } else {
                    removed += self.db.delete(&db_name, &coll, &Document::new()).n;
                }
                doc! { "n" => sat_i32(removed), "ok" => 1.0f64 }
            }
            "drop" => {
                let coll = cmd.get_str(&name).unwrap_or("unknown").to_string();
                log.command(&format!("drop {db_name}.{coll}"));
                if self.db.drop_collection(&db_name, &coll) {
                    doc! { "ns" => format!("{db_name}.{coll}"), "ok" => 1.0f64 }
                } else {
                    error_reply(26, "ns not found")
                }
            }
            "dropdatabase" => {
                log.command(&format!("dropDatabase {db_name}"));
                self.db.drop_database(&db_name);
                doc! { "dropped" => db_name, "ok" => 1.0f64 }
            }
            "aggregate" => {
                // scouting tools sometimes probe with empty pipelines
                let coll = cmd.get_str(&name).unwrap_or("unknown").to_string();
                log.command(&format!("aggregate {db_name}.{coll}"));
                let docs = self.db.find(&db_name, &coll, &Document::new(), 0);
                cursor_reply(&db_name, &coll, docs)
            }
            "saslstart" | "authenticate" => {
                // authentication is disabled; record the attempt
                log.login(cmd.get_str("user").unwrap_or("unknown"), "<sasl>", false);
                error_reply(18, "Authentication failed.")
            }
            other => {
                log.command(other);
                error_reply(59, &format!("no such command: '{other}'"))
            }
        }
    }
}

fn cursor_reply(db: &str, coll: &str, docs: Vec<Document>) -> Document {
    doc! {
        "cursor" => doc! {
            "id" => 0i64,
            "ns" => format!("{db}.{coll}"),
            "firstBatch" => docs.into_iter().map(Bson::Document).collect::<Vec<Bson>>(),
        },
        "ok" => 1.0f64,
    }
}

// Real servers pair every `code` with its `codeName`; scanners check.
fn error_reply(code: i32, msg: &str) -> Document {
    doc! {
        "ok" => 0.0f64,
        "errmsg" => msg,
        "code" => code,
        "codeName" => catalog::mongo_code_name(code),
    }
}

impl Session for MongoHoneypot {
    type Codec = MongoCodec;

    fn codec(&self) -> MongoCodec {
        MongoCodec
    }

    fn on_frame(
        &mut self,
        msg: MongoMessage,
        out: &mut Vec<MongoMessage>,
        log: &SessionLogger,
    ) -> Flow {
        match &msg.body {
            MongoBody::Msg { doc, .. } => {
                let reply = self.execute(doc, log);
                out.push(MongoMessage::msg_reply(&msg, reply));
            }
            MongoBody::Query {
                collection, query, ..
            } => {
                // Legacy handshake path: `admin.$cmd` carries commands.
                let reply = if collection.ends_with(".$cmd") {
                    let mut cmd = query.clone();
                    let db = collection.trim_end_matches(".$cmd");
                    cmd.insert("$db", db);
                    self.execute(&cmd, log)
                } else {
                    log.command(&format!("legacy-find {collection}"));
                    let (db, coll) = collection
                        .split_once('.')
                        .unwrap_or((collection.as_str(), ""));
                    let docs = self.db.find(db, coll, query, 0);
                    cursor_reply(db, coll, docs)
                };
                out.push(MongoMessage::reply(&msg, vec![reply]));
            }
            MongoBody::Reply { .. } => {
                log.malformed("client sent OP_REPLY");
            }
            MongoBody::Unknown { opcode, bytes } => {
                log.payload(bytes.as_ref());
                log.malformed(format!("unknown opcode {opcode}"));
            }
        }
        Flow::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Driver;
    use decoy_store::{ConfigVariant, Dbms, EventKind, EventStore, HoneypotId, InteractionLevel};

    type Client = Driver<MongoCodec>;

    fn connect() -> (Client, Arc<EventStore>, MongoHoneypot) {
        let store = EventStore::new();
        let id = HoneypotId::new(
            Dbms::MongoDb,
            InteractionLevel::High,
            ConfigVariant::FakeData,
            0,
        );
        let hp = MongoHoneypot::with_fake_customers(42, 25);
        let client = Driver::connect(hp.clone(), &store, id, MongoCodec);
        (client, store, hp)
    }

    fn send(f: &mut Client, req_id: i32, cmd: Document) -> Document {
        let reply = f.roundtrip(&MongoMessage::msg(req_id, cmd));
        assert_eq!(reply.response_to, req_id);
        let MongoBody::Msg { doc, .. } = reply.body else {
            panic!("expected OP_MSG reply");
        };
        doc
    }

    fn cursor_docs(reply: &Document) -> Vec<Document> {
        reply
            .get_doc("cursor")
            .and_then(|c| c.get("firstBatch"))
            .and_then(Bson::as_array)
            .map(|a| a.iter().filter_map(|b| b.as_doc().cloned()).collect())
            .unwrap_or_default()
    }

    #[test]
    fn handshake_commands() {
        let (mut f, _store, _hp) = connect();
        let hello = send(&mut f, 1, doc! { "isMaster" => 1i32, "$db" => "admin" });
        assert_eq!(hello.get_f64("ismaster"), Some(1.0));
        let build = send(&mut f, 2, doc! { "buildInfo" => 1i32, "$db" => "admin" });
        assert_eq!(build.get_str("version"), Some("4.4.18"));
        let ping = send(&mut f, 3, doc! { "ping" => 1i32, "$db" => "admin" });
        assert_eq!(ping.get_f64("ok"), Some(1.0));
    }

    #[test]
    fn legacy_op_query_ismaster() {
        let (mut f, _store, _hp) = connect();
        let q = MongoMessage {
            request_id: 11,
            response_to: 0,
            body: MongoBody::Query {
                collection: "admin.$cmd".into(),
                skip: 0,
                limit: -1,
                query: doc! { "isMaster" => 1i32 },
            },
        };
        f.send(&q);
        let reply = f.recv();
        let MongoBody::Reply { documents, .. } = reply.body else {
            panic!("expected OP_REPLY");
        };
        assert_eq!(documents[0].get_f64("ismaster"), Some(1.0));
    }

    #[test]
    fn full_ransom_kill_chain() {
        let (mut f, store, hp) = connect();

        // 1. reconnaissance
        let dbs = send(
            &mut f,
            1,
            doc! { "listDatabases" => 1i32, "$db" => "admin" },
        );
        let names: Vec<String> = dbs
            .get("databases")
            .and_then(Bson::as_array)
            .unwrap()
            .iter()
            .filter_map(|d| d.as_doc().and_then(|d| d.get_str("name")).map(String::from))
            .collect();
        assert!(names.contains(&"customers".to_string()));

        let colls = send(
            &mut f,
            2,
            doc! { "listCollections" => 1i32, "$db" => "customers" },
        );
        assert_eq!(colls.get_f64("ok"), Some(1.0));

        // 2. exfiltration — real fake data comes back
        let found = send(
            &mut f,
            3,
            doc! { "find" => "records", "$db" => "customers", "limit" => 0i32 },
        );
        let stolen = cursor_docs(&found);
        assert_eq!(stolen.len(), 25);
        assert!(stolen[0].get_str("credit_card").is_some());

        // 3. destruction
        let dropped = send(
            &mut f,
            4,
            doc! { "drop" => "records", "$db" => "customers" },
        );
        assert_eq!(dropped.get_f64("ok"), Some(1.0));

        // 4. ransom note (Listing 7 shape)
        let note = "All your data is backed up. You must pay 0.0058 BTC to <ADDRESS> \
                    In 48 hours, your data will be publicly disclosed and deleted.";
        let inserted = send(
            &mut f,
            5,
            doc! {
                "insert" => "README",
                "$db" => "customers",
                "documents" => vec![Bson::Document(doc! { "content" => note })],
            },
        );
        assert_eq!(inserted.get_f64("n"), Some(1.0));

        // engine state reflects the attack
        assert_eq!(hp.db().list_collections("customers"), vec!["README"]);
        let notes = hp.db().find("customers", "README", &Document::new(), 0);
        assert!(notes[0].get_str("content").unwrap().contains("0.0058 BTC"));

        // log contains the full action sequence
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
                "listDatabases",
                "listCollections customers",
                "find customers.records",
                "drop customers.records",
                "insert customers.README",
            ]
        );
    }

    #[test]
    fn find_with_filter_and_limit() {
        let (mut f, _store, _hp) = connect();
        let limited = send(
            &mut f,
            1,
            doc! { "find" => "records", "$db" => "customers", "limit" => 5i32 },
        );
        assert_eq!(cursor_docs(&limited).len(), 5);
        let counted = send(
            &mut f,
            2,
            doc! { "count" => "records", "$db" => "customers" },
        );
        assert_eq!(counted.get_f64("n"), Some(25.0));
    }

    #[test]
    fn misc_admin_commands() {
        let (mut f, _store, _hp) = connect();
        let status = send(&mut f, 1, doc! { "serverStatus" => 1i32, "$db" => "admin" });
        assert_eq!(status.get_str("version"), Some("4.4.18"));
        // ten days, correctly grouped (the old literal read 86_4000.0)
        assert_eq!(status.get_f64("uptime"), Some(864_000.0));
        let log = send(&mut f, 2, doc! { "getLog" => "global", "$db" => "admin" });
        assert_eq!(log.get_f64("ok"), Some(1.0));
        let uri = send(&mut f, 3, doc! { "whatsmyuri" => 1i32, "$db" => "admin" });
        assert!(uri.get_str("you").is_some());
        let agg = send(
            &mut f,
            4,
            doc! { "aggregate" => "records", "$db" => "customers", "pipeline" => Vec::<Bson>::new() },
        );
        assert_eq!(cursor_docs(&agg).len(), 25);
    }

    #[test]
    fn legacy_find_on_collection_namespace() {
        let (mut f, store, _hp) = connect();
        let q = MongoMessage {
            request_id: 9,
            response_to: 0,
            body: MongoBody::Query {
                collection: "customers.records".into(),
                skip: 0,
                limit: 0,
                query: Document::new(),
            },
        };
        f.send(&q);
        let reply = f.recv();
        let MongoBody::Reply { documents, .. } = reply.body else {
            panic!("expected OP_REPLY");
        };
        assert_eq!(cursor_docs(&documents[0]).len(), 25);
        let legacy = store.filter(|e| {
            matches!(&e.kind, EventKind::Command { action, .. } if action.starts_with("legacy-find"))
        });
        assert_eq!(legacy.len(), 1);
    }

    #[test]
    fn unknown_command_and_auth_attempt() {
        let (mut f, store, _hp) = connect();
        let bogus = send(
            &mut f,
            1,
            doc! { "shutdownServer" => 1i32, "$db" => "admin" },
        );
        assert_eq!(bogus.get_f64("ok"), Some(0.0));
        assert_eq!(bogus.get_str("codeName"), Some("CommandNotFound"));
        let auth = send(
            &mut f,
            2,
            doc! { "saslStart" => 1i32, "user" => "admin", "$db" => "admin" },
        );
        assert_eq!(auth.get_f64("ok"), Some(0.0));
        let login_attempts = store.filter(|e| matches!(e.kind, EventKind::LoginAttempt { .. }));
        assert_eq!(login_attempts.len(), 1);
    }
}
