//! Medium-interaction CouchDB honeypot — a coverage *extension*: the
//! paper's limitations section (§7) names CouchDB among the "lesser studied"
//! DBMS platforms whose inclusion "could have provided a more comprehensive
//! view".
//!
//! CouchDB's API is HTTP+JSON, so this emulator rides the same HTTP codec
//! as Elasticpot but fronts a *real* [`DocDb`] engine (like the
//! high-interaction MongoDB honeypot): `_all_dbs` enumerates, `_all_docs`
//! reads, `PUT`/`DELETE` actually mutate — which is exactly what the
//! well-known CouchDB ransom waves did.

use crate::catalog;
use crate::docdb::DocDb;
use crate::elastic::{flow_after, render};
use crate::logging::SessionLogger;
use crate::session::{Flow, Session};
use decoy_base::json::{self, object, Value};
use decoy_fakedata::FakeDataGenerator;
use decoy_wire::http::{HttpRequest, HttpResponse, HttpServerCodec};
use decoy_wire::mongo::bson::{doc, Bson, Document};
use std::sync::Arc;

/// The medium-interaction CouchDB honeypot; every session of an instance
/// shares its engine.
#[derive(Clone)]
pub struct CouchHoneypot {
    db: Arc<DocDb>,
}

impl CouchHoneypot {
    /// An instance backed by an existing engine.
    pub fn with_db(db: Arc<DocDb>) -> Self {
        CouchHoneypot { db }
    }

    /// Bait configuration: fake customer documents generated from `seed`.
    pub fn with_fake_customers(seed: u64, count: usize) -> Self {
        let db = Arc::new(DocDb::new());
        let mut generator = FakeDataGenerator::new(seed);
        let docs: Vec<Document> = generator
            .customers(count)
            .into_iter()
            .enumerate()
            .map(|(i, c)| {
                doc! {
                    "_id" => format!("customer:{i}"),
                    "name" => c.name,
                    "address" => c.address,
                    "phone" => c.phone,
                    "credit_card" => c.credit_card,
                    "email" => c.email,
                }
            })
            .collect();
        db.insert("customers", "docs", docs);
        Self::with_db(db)
    }

    /// The backing engine (forensics and tests).
    pub fn db(&self) -> &Arc<DocDb> {
        &self.db
    }

    fn respond(&self, req: &HttpRequest) -> HttpResponse {
        let path = req.path().trim_matches('/').to_string();
        let segments: Vec<&str> = if path.is_empty() {
            Vec::new()
        } else {
            path.split('/').collect()
        };
        match (req.method.as_str(), segments.as_slice()) {
            (_, []) => {
                let features = ["access-ready", "partitioned", "pluggable-storage-engines"];
                let welcome = object([
                    ("couchdb", "Welcome".into()),
                    ("version", catalog::COUCH_VERSION.into()),
                    ("git_sha", catalog::COUCH_GIT_SHA.into()),
                    ("uuid", "f9a5d3a8e1b24a0c8d5e7f0182b3c4d5".into()),
                    ("features", Value::Array(features.map(Value::from).into())),
                    (
                        "vendor",
                        object([("name", "The Apache Software Foundation".into())]),
                    ),
                ]);
                HttpResponse::json(200, welcome.to_string())
            }
            ("GET", ["_all_dbs"]) => {
                let dbs = self.db.list_databases().into_iter().map(Value::from);
                HttpResponse::json(200, Value::Array(dbs.collect()).to_string())
            }
            ("GET", ["_utils"]) | ("GET", ["_utils", ..]) => {
                let forbidden = object([
                    ("error", "forbidden".into()),
                    ("reason", "Fauxton disabled".into()),
                ]);
                HttpResponse::json(403, forbidden.to_string())
            }
            ("GET", [db]) => {
                if self.db.list_databases().contains(&db.to_string()) {
                    let count = self.db.count(db, "docs", &Document::new());
                    let info = object([
                        ("db_name", (*db).into()),
                        ("doc_count", count.into()),
                        ("doc_del_count", 0.into()),
                    ]);
                    HttpResponse::json(200, info.to_string())
                } else {
                    not_found()
                }
            }
            ("PUT", [db]) => {
                // create database
                self.db.insert(db, "docs", vec![]);
                HttpResponse::json(201, object([("ok", true.into())]).to_string())
            }
            ("DELETE", [db]) => {
                if self.db.drop_database(db) {
                    HttpResponse::json(200, object([("ok", true.into())]).to_string())
                } else {
                    not_found()
                }
            }
            ("GET", [db, "_all_docs"]) => {
                let docs = self.db.find(db, "docs", &Document::new(), 0);
                let rows: Vec<Value> = docs
                    .iter()
                    .map(|d| {
                        let id = d.get_str("_id").unwrap_or("unknown");
                        let rev = object([("rev", "1-x".into())]);
                        object([("id", id.into()), ("key", id.into()), ("value", rev)])
                    })
                    .collect();
                let all = object([
                    ("total_rows", rows.len().into()),
                    ("offset", 0.into()),
                    ("rows", rows.into()),
                ]);
                HttpResponse::json(200, all.to_string())
            }
            ("GET", [db, doc_id]) => {
                let filter = Document::new().with("_id", *doc_id);
                match self.db.find(db, "docs", &filter, 1).pop() {
                    Some(found) => HttpResponse::json(200, doc_to_json(&found).to_string()),
                    None => not_found(),
                }
            }
            ("PUT", [db, doc_id]) => {
                let mut document = Document::new().with("_id", *doc_id);
                if let Ok(Value::Object(fields)) = json::parse(&req.body) {
                    for (key, value) in fields {
                        if let Some(value) = json_to_bson(value) {
                            document.insert(key, value);
                        }
                    }
                }
                self.db.insert(db, "docs", vec![document]);
                let created = object([
                    ("ok", true.into()),
                    ("id", (*doc_id).into()),
                    ("rev", "1-x".into()),
                ]);
                HttpResponse::json(201, created.to_string())
            }
            _ => not_found(),
        }
    }
}

fn not_found() -> HttpResponse {
    let mut body = String::new();
    let _ = catalog::couch_not_found(&mut body);
    HttpResponse::json(404, body)
}

/// A stored document as CouchDB renders it: strings, numbers and booleans
/// as themselves, any other field as `null`.
fn doc_to_json(d: &Document) -> Value {
    let fields = d.iter().map(|(k, v)| {
        let value = match v {
            Bson::String(s) => Value::from(s.as_str()),
            Bson::Int32(i) => Value::from(*i),
            Bson::Int64(i) => Value::from(*i),
            Bson::Double(f) => Value::from(*f),
            Bson::Bool(b) => Value::from(*b),
            _ => Value::Null,
        };
        (k.to_string(), value)
    });
    Value::Object(fields.collect())
}

/// A `PUT` body field as the engine stores it: strings and booleans as
/// themselves, an integer that fits `i64` as one, any other number as a
/// double. Nulls, arrays and objects are not kept.
fn json_to_bson(value: Value) -> Option<Bson> {
    match value {
        Value::String(s) => Some(Bson::String(s)),
        Value::Bool(b) => Some(Bson::Bool(b)),
        Value::Number(_) => value
            .as_i64()
            .map(Bson::Int64)
            .or_else(|| value.as_f64().map(Bson::Double)),
        _ => None,
    }
}

impl Session for CouchHoneypot {
    type Codec = HttpServerCodec;

    fn codec(&self) -> HttpServerCodec {
        HttpServerCodec
    }

    fn on_frame(
        &mut self,
        req: HttpRequest,
        out: &mut Vec<HttpResponse>,
        log: &SessionLogger,
    ) -> Flow {
        log.command(&render(&req));
        out.push(self.respond(&req));
        flow_after(&req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Driver;
    use decoy_store::{ConfigVariant, Dbms, EventKind, EventStore, HoneypotId, InteractionLevel};
    use decoy_wire::http::HttpClientCodec;

    type Client = Driver<HttpClientCodec>;

    fn connect_couch() -> (Client, Arc<EventStore>, CouchHoneypot) {
        let store = EventStore::new();
        let id = HoneypotId::new(
            Dbms::CouchDb,
            InteractionLevel::Medium,
            ConfigVariant::FakeData,
            0,
        );
        let hp = CouchHoneypot::with_fake_customers(12, 10);
        let client = Driver::connect(hp.clone(), &store, id, HttpClientCodec);
        (client, store, hp)
    }

    fn request(f: &mut Client, method: &str, target: &str) -> HttpResponse {
        f.roundtrip(&HttpRequest::new(method, target))
    }

    #[test]
    fn welcome_banner_and_all_dbs() {
        let (mut f, _store, _hp) = connect_couch();
        let banner = request(&mut f, "GET", "/");
        let v = json::parse(&banner.body).unwrap();
        assert_eq!(v["couchdb"].as_str(), Some("Welcome"));
        assert_eq!(v["version"].as_str(), Some("3.3.2"));
        let dbs = request(&mut f, "GET", "/_all_dbs");
        let v = json::parse(&dbs.body).unwrap();
        assert_eq!(v, Value::from(vec!["customers".into()]));
    }

    #[test]
    fn reads_real_bait_documents() {
        let (mut f, _store, _hp) = connect_couch();
        let all = request(&mut f, "GET", "/customers/_all_docs");
        let v = json::parse(&all.body).unwrap();
        assert_eq!(v["total_rows"].as_u64(), Some(10));
        let one = request(&mut f, "GET", "/customers/customer:0");
        assert_eq!(one.status, 200);
        let v = json::parse(&one.body).unwrap();
        assert!(v["credit_card"].as_str().unwrap().starts_with('4'));
    }

    #[test]
    fn couch_ransom_kill_chain() {
        // the real-world CouchDB ransom pattern: enumerate, wipe, leave note
        let (mut f, store, hp) = connect_couch();
        request(&mut f, "GET", "/_all_dbs");
        request(&mut f, "GET", "/customers/_all_docs");
        let deleted = request(&mut f, "DELETE", "/customers");
        assert_eq!(deleted.status, 200);
        f.send(&HttpRequest::new("PUT", "/warning/readme").with_body(
            "application/json",
            r#"{"note":"send 0.01 BTC to recover your data"}"#,
        ));
        let created = f.recv();
        assert_eq!(created.status, 201);

        // engine state reflects the wipe
        assert_eq!(hp.db().list_databases(), vec!["warning"]);
        let notes = hp.db().find("warning", "docs", &Document::new(), 0);
        assert!(notes[0].get_str("note").unwrap().contains("BTC"));

        // the destructive commands are in the log for the pipeline
        let raws: Vec<String> = store
            .all()
            .into_iter()
            .filter_map(|e| match e.kind {
                EventKind::Command { raw, .. } => Some(raw),
                _ => None,
            })
            .collect();
        assert!(raws.iter().any(|r| r.starts_with("DELETE /customers")));
        assert!(raws.iter().any(|r| r.contains("BTC")));
    }

    #[test]
    fn unknown_paths_404_and_are_logged() {
        let (mut f, store, _hp) = connect_couch();
        let resp = request(&mut f, "GET", "/_utils/");
        assert_eq!(resp.status, 403);
        let resp = request(&mut f, "GET", "/nope/_all_docs");
        assert_eq!(resp.status, 200); // empty db: zero rows
        let v = json::parse(&resp.body).unwrap();
        assert_eq!(v["total_rows"].as_u64(), Some(0));
        assert!(
            store
                .filter(|e| matches!(e.kind, EventKind::Command { .. }))
                .len()
                >= 2
        );
    }

    fn couch(db: DocDb) -> CouchHoneypot {
        CouchHoneypot::with_db(Arc::new(db))
    }

    fn answer(hp: &CouchHoneypot, req: HttpRequest) -> (u16, String) {
        let resp = hp.respond(&req);
        (resp.status, resp.body_text())
    }

    /// Every body, byte for byte: keys sorted, no whitespace.
    #[test]
    fn bodies_are_pinned() {
        let db = DocDb::new();
        let doc = doc! {
            "_id" => "a",
            "name" => "x",
            "n" => 3i32,
            "big" => 5i64,
            "pi" => 2.5,
            "paid" => false,
        };
        db.insert("customers", "docs", vec![doc]);
        let hp = couch(db);
        let get = |target: &str| answer(&hp, HttpRequest::new("GET", target));
        let welcome = r#"{"couchdb":"Welcome","features":["access-ready","partitioned","pluggable-storage-engines"],"git_sha":"11a234070","uuid":"f9a5d3a8e1b24a0c8d5e7f0182b3c4d5","vendor":{"name":"The Apache Software Foundation"},"version":"3.3.2"}"#;
        let missing = r#"{"error":"not_found","reason":"missing"}"#;
        let cases = [
            ("/", 200, welcome),
            ("/_all_dbs", 200, r#"["customers"]"#),
            (
                "/_utils/",
                403,
                r#"{"error":"forbidden","reason":"Fauxton disabled"}"#,
            ),
            (
                "/customers",
                200,
                r#"{"db_name":"customers","doc_count":1,"doc_del_count":0}"#,
            ),
            (
                "/customers/_all_docs",
                200,
                r#"{"offset":0,"rows":[{"id":"a","key":"a","value":{"rev":"1-x"}}],"total_rows":1}"#,
            ),
            (
                "/customers/a",
                200,
                r#"{"_id":"a","big":5,"n":3,"name":"x","paid":false,"pi":2.5}"#,
            ),
            ("/customers/b", 404, missing),
            ("/nope", 404, missing),
            ("/a/b/c", 404, missing),
        ];
        for (target, status, body) in cases {
            assert_eq!(get(target), (status, body.to_string()), "GET {target}");
        }
        let created = (201, r#"{"ok":true}"#.to_string());
        assert_eq!(answer(&hp, HttpRequest::new("PUT", "/fresh")), created);
        let deleted = (200, r#"{"ok":true}"#.to_string());
        assert_eq!(answer(&hp, HttpRequest::new("DELETE", "/fresh")), deleted);
        let gone = (404, missing.to_string());
        assert_eq!(answer(&hp, HttpRequest::new("DELETE", "/fresh")), gone);
        let put = HttpRequest::new("PUT", "/warning/readme")
            .with_body("application/json", r#"{"note":"pay"}"#);
        let created = r#"{"id":"readme","ok":true,"rev":"1-x"}"#;
        assert_eq!(answer(&hp, put), (201, created.to_string()));
    }

    /// A `PUT` document reads back with every string, boolean and number it
    /// carried; nulls, arrays and objects are not kept.
    #[test]
    fn put_documents_keep_booleans_and_floats() {
        let hp = couch(DocDb::new());
        let body = r#"{"paid":false,"vip":true,"amount":12.5,"n":-3,"big":18446744073709551615,"who":"x\u0001","skip":null,"list":[1],"nested":{"a":1}}"#;
        let put = HttpRequest::new("PUT", "/bills/b1").with_body("application/json", body);
        assert_eq!(answer(&hp, put).0, 201);
        let stored = r#"{"_id":"b1","amount":12.5,"big":1.8446744073709552e19,"n":-3,"paid":false,"vip":true,"who":"x\u0001"}"#;
        let get = HttpRequest::new("GET", "/bills/b1");
        assert_eq!(answer(&hp, get), (200, stored.to_string()));
        // a body that is no JSON object stores the bare document
        let put = HttpRequest::new("PUT", "/bills/b2").with_body("application/json", "[1,");
        assert_eq!(answer(&hp, put).0, 201);
        let get = HttpRequest::new("GET", "/bills/b2");
        assert_eq!(answer(&hp, get), (200, r#"{"_id":"b2"}"#.to_string()));
    }
}
