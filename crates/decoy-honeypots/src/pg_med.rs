//! Medium-interaction PostgreSQL honeypot (Sticky-Elephant-style).
//!
//! "A specialized 'handler' script to manage queries, which allows it to
//! respond to a wider range of queries. However, it doesn't execute
//! corresponding actions like a real database but provides a scripted
//! response" (§4.1). Two configurations per §4.2: `allow_login = true`
//! (default, anyone gets in) and `allow_login = false` (the restricted
//! variant that attracted twice the login attempts).

use crate::catalog;
use crate::logging::SessionLogger;
use crate::session::{connection_rng, Flow, Session};
use decoy_wire::pgwire::{BackendMessage, FrontendMessage, PgServerCodec};

/// The medium-interaction PostgreSQL honeypot.
#[derive(Debug, Clone)]
pub struct StickyElephant {
    allow_login: bool,
    user: String,
    authed: bool,
}

impl StickyElephant {
    /// `allow_login = true` reproduces the open default configuration;
    /// `false` the login-disabled variant.
    pub fn new(allow_login: bool) -> Self {
        StickyElephant {
            allow_login,
            user: String::new(),
            authed: false,
        }
    }
}

impl Session for StickyElephant {
    type Codec = PgServerCodec;

    fn codec(&self) -> PgServerCodec {
        PgServerCodec::new()
    }

    fn on_frame(
        &mut self,
        msg: FrontendMessage,
        out: &mut Vec<BackendMessage>,
        log: &SessionLogger,
    ) -> Flow {
        match msg {
            FrontendMessage::SslRequest => {
                out.push(BackendMessage::SslRefused);
            }
            FrontendMessage::Startup { params } => {
                self.user = params
                    .iter()
                    .find(|(k, _)| k == "user")
                    .map(|(_, v)| v.clone())
                    .unwrap_or_default();
                out.push(BackendMessage::AuthenticationCleartextPassword);
            }
            FrontendMessage::Password(password) => {
                if self.allow_login {
                    log.login(&self.user, &password, true);
                    self.authed = true;
                    out.push(BackendMessage::AuthenticationOk);
                    for (name, value) in [
                        ("server_version", catalog::PG_SERVER_VERSION),
                        ("server_encoding", "UTF8"),
                        ("client_encoding", "UTF8"),
                    ] {
                        out.push(BackendMessage::ParameterStatus {
                            name: name.into(),
                            value: value.into(),
                        });
                    }
                    // the cancel key is per connection, as on a real server
                    let mut rng = connection_rng(log);
                    out.push(BackendMessage::BackendKeyData {
                        pid: rng.gen_range(1_000..64_000),
                        secret: rng.gen_range(0..=u32::MAX),
                    });
                    out.push(BackendMessage::ReadyForQuery { status: b'I' });
                } else {
                    log.login(&self.user, &password, false);
                    out.push(BackendMessage::auth_failed(&self.user));
                    return Flow::Close;
                }
            }
            FrontendMessage::Query(q) => {
                log.command(&q);
                if !self.authed {
                    out.push(BackendMessage::ErrorResponse {
                        severity: "FATAL".into(),
                        code: "08P01".into(),
                        message: "expected password response".into(),
                    });
                    return Flow::Close;
                }
                out.extend(scripted_response(&q));
                out.push(BackendMessage::ReadyForQuery { status: b'I' });
            }
            FrontendMessage::Terminate => return Flow::Close,
            FrontendMessage::CancelRequest { .. } => return Flow::Close,
            FrontendMessage::Other { tag, body } => {
                log.payload(&[&[tag], body.as_ref()].concat());
                out.push(BackendMessage::ErrorResponse {
                    severity: "ERROR".into(),
                    code: "0A000".into(),
                    message: "extended query protocol not supported".into(),
                });
                out.push(BackendMessage::ReadyForQuery { status: b'I' });
            }
        }
        Flow::Continue
    }
}

/// The "handler script": scripted responses per statement shape. Nothing is
/// executed; responses are canned but protocol-correct, so attack scripts
/// (Kinsing's Listing 4, the privilege manipulation of Listing 13) receive
/// the success indications they expect.
pub fn scripted_response(query: &str) -> Vec<BackendMessage> {
    let trimmed = query.trim().trim_end_matches(';').trim();
    if trimmed.is_empty() {
        return vec![BackendMessage::EmptyQueryResponse];
    }
    let upper = trimmed.to_uppercase();
    let first_word = upper
        .split_whitespace()
        .next()
        .unwrap_or_default()
        .to_string();
    match first_word.as_str() {
        "SELECT" => {
            if upper.contains("VERSION()") {
                vec![
                    BackendMessage::RowDescription {
                        columns: vec!["version".into()],
                    },
                    BackendMessage::DataRow {
                        values: vec![Some(catalog::PG_VERSION_BANNER.into())],
                    },
                    BackendMessage::CommandComplete {
                        tag: "SELECT 1".into(),
                    },
                ]
            } else if upper.contains("CURRENT_USER") || upper.contains("SESSION_USER") {
                vec![
                    BackendMessage::RowDescription {
                        columns: vec!["current_user".into()],
                    },
                    BackendMessage::DataRow {
                        values: vec![Some("postgres".into())],
                    },
                    BackendMessage::CommandComplete {
                        tag: "SELECT 1".into(),
                    },
                ]
            } else {
                // Generic SELECT (including the post-COPY read of Listing 4):
                // an empty, well-formed result set.
                vec![
                    BackendMessage::RowDescription {
                        columns: vec!["cmd_output".into()],
                    },
                    BackendMessage::CommandComplete {
                        tag: "SELECT 0".into(),
                    },
                ]
            }
        }
        "CREATE" => vec![BackendMessage::CommandComplete {
            tag: "CREATE TABLE".into(),
        }],
        "DROP" => vec![BackendMessage::CommandComplete {
            tag: "DROP TABLE".into(),
        }],
        "COPY" => vec![BackendMessage::CommandComplete {
            tag: "COPY 1".into(),
        }],
        "ALTER" => vec![BackendMessage::CommandComplete {
            tag: "ALTER ROLE".into(),
        }],
        "INSERT" => vec![BackendMessage::CommandComplete {
            tag: "INSERT 0 1".into(),
        }],
        "DELETE" => vec![BackendMessage::CommandComplete {
            tag: "DELETE 0".into(),
        }],
        "UPDATE" => vec![BackendMessage::CommandComplete {
            tag: "UPDATE 0".into(),
        }],
        "SET" | "BEGIN" | "COMMIT" | "ROLLBACK" => vec![BackendMessage::CommandComplete {
            tag: first_word.clone(),
        }],
        "SHOW" => vec![
            BackendMessage::RowDescription {
                columns: vec!["setting".into()],
            },
            BackendMessage::DataRow {
                values: vec![Some("on".into())],
            },
            BackendMessage::CommandComplete { tag: "SHOW".into() },
        ],
        _ => {
            let near = trimmed.split_whitespace().next().unwrap_or("?");
            vec![BackendMessage::syntax_error(near)]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Driver;
    use decoy_store::{ConfigVariant, Dbms, EventKind, EventStore, HoneypotId, InteractionLevel};
    use decoy_wire::pgwire::PgClientCodec;
    use std::sync::Arc;

    type Client = Driver<PgClientCodec>;

    fn honeypot(allow_login: bool) -> (Arc<EventStore>, HoneypotId) {
        let id = HoneypotId::new(
            Dbms::Postgres,
            InteractionLevel::Medium,
            if allow_login {
                ConfigVariant::Default
            } else {
                ConfigVariant::LoginDisabled
            },
            0,
        );
        (EventStore::new(), id)
    }

    fn connect(store: &Arc<EventStore>, id: HoneypotId, allow_login: bool) -> Client {
        Driver::connect(
            StickyElephant::new(allow_login),
            store,
            id,
            PgClientCodec::new(),
        )
    }

    fn login(framed: &mut Client, user: &str, password: &str) -> BackendMessage {
        let reply = framed.roundtrip(&FrontendMessage::Startup {
            params: vec![("user".into(), user.into())],
        });
        assert_eq!(reply, BackendMessage::AuthenticationCleartextPassword);
        framed.roundtrip(&FrontendMessage::Password(password.into()))
    }

    /// Read backend messages until ReadyForQuery, returning all of them.
    fn until_ready(framed: &mut Client) -> Vec<BackendMessage> {
        let mut out = Vec::new();
        loop {
            let msg = framed.recv();
            let ready = matches!(msg, BackendMessage::ReadyForQuery { .. });
            out.push(msg);
            if ready {
                return out;
            }
        }
    }

    #[test]
    fn open_config_grants_access_and_answers_queries() {
        let (store, id) = honeypot(true);
        let mut f = connect(&store, id, true);
        assert_eq!(
            login(&mut f, "postgres", "postgres"),
            BackendMessage::AuthenticationOk
        );
        let rest = until_ready(&mut f);
        assert!(rest
            .iter()
            .any(|m| matches!(m, BackendMessage::ParameterStatus { .. })));
        f.send(&FrontendMessage::Query("SELECT version();".into()));
        let msgs = until_ready(&mut f);
        let row = msgs
            .iter()
            .find_map(|m| match m {
                BackendMessage::DataRow { values } => values[0].clone(),
                _ => None,
            })
            .unwrap();
        assert!(row.contains("PostgreSQL 11.3"));
        let logins =
            store.filter(|e| matches!(e.kind, EventKind::LoginAttempt { success: true, .. }));
        assert_eq!(logins.len(), 1);
    }

    #[test]
    fn restricted_config_rejects_all_logins() {
        let (store, id) = honeypot(false);
        for attempt in 0..3 {
            let mut f = connect(&store, id, false);
            let reply = login(&mut f, "postgres", &format!("guess{attempt}"));
            let BackendMessage::ErrorResponse { code, .. } = reply else {
                panic!("expected rejection");
            };
            assert_eq!(code, "28P01");
        }
        let logins =
            store.filter(|e| matches!(e.kind, EventKind::LoginAttempt { success: false, .. }));
        assert_eq!(logins.len(), 3);
    }

    #[test]
    fn kinsing_listing4_sequence_succeeds_scripted() {
        let (store, id) = honeypot(true);
        let mut f = connect(&store, id, true);
        login(&mut f, "postgres", "x");
        until_ready(&mut f);
        let queries = [
            "DROP TABLE IF EXISTS deadbeefcafe1234;",
            "CREATE TABLE deadbeefcafe1234(cmd_output text);",
            "COPY deadbeefcafe1234 FROM PROGRAM 'echo aGk= | base64 -d | bash';",
            "SELECT * FROM deadbeefcafe1234;",
            "DROP TABLE IF EXISTS deadbeefcafe1234;",
        ];
        for q in queries {
            f.send(&FrontendMessage::Query(q.into()));
            let msgs = until_ready(&mut f);
            assert!(
                !msgs.iter().any(|m| matches!(
                    m,
                    BackendMessage::ErrorResponse { severity, .. } if severity == "FATAL"
                )),
                "query {q:?} fatally failed"
            );
        }
        // All five commands logged; hash masked identically for clustering.
        let cmds: Vec<String> = store
            .all()
            .into_iter()
            .filter_map(|e| match e.kind {
                EventKind::Command { action, .. } => Some(action),
                _ => None,
            })
            .collect();
        assert_eq!(cmds.len(), 5);
        assert!(cmds[0].contains("<HASH>"), "{:?}", cmds[0]);
        assert_eq!(cmds[0], cmds[4]);
    }

    #[test]
    fn privilege_manipulation_listing13() {
        let (store, id) = honeypot(true);
        let mut f = connect(&store, id, true);
        login(&mut f, "postgres", "x");
        until_ready(&mut f);
        for q in [
            "ALTER USER pgg_superadmins WITH PASSWORD 'pwned'",
            "ALTER USER postgres WITH NOSUPERUSER",
        ] {
            f.send(&FrontendMessage::Query(q.into()));
            let msgs = until_ready(&mut f);
            assert!(msgs.iter().any(
                |m| matches!(m, BackendMessage::CommandComplete { tag } if tag == "ALTER ROLE")
            ));
        }
        assert_eq!(
            store
                .filter(|e| matches!(e.kind, EventKind::Command { .. }))
                .len(),
            2
        );
    }

    #[test]
    fn gibberish_sql_gets_syntax_error_not_disconnect() {
        let (store, id) = honeypot(true);
        let mut f = connect(&store, id, true);
        login(&mut f, "admin", "x");
        until_ready(&mut f);
        f.send(&FrontendMessage::Query("FROBNICATE THE DATABASE".into()));
        let msgs = until_ready(&mut f);
        assert!(msgs.iter().any(|m| matches!(
            m,
            BackendMessage::ErrorResponse { code, .. } if code == "42601"
        )));
        // connection still usable
        f.send(&FrontendMessage::Query("SELECT 1".into()));
        until_ready(&mut f);
    }

    #[test]
    fn show_set_and_transaction_statements() {
        let (store, id) = honeypot(true);
        let mut f = connect(&store, id, true);
        login(&mut f, "postgres", "x");
        until_ready(&mut f);
        for (q, expect_tag) in [
            ("BEGIN", "BEGIN"),
            ("SET search_path TO public", "SET"),
            ("COMMIT", "COMMIT"),
            ("SELECT current_user", "SELECT 1"),
        ] {
            f.send(&FrontendMessage::Query(q.into()));
            let msgs = until_ready(&mut f);
            assert!(
                msgs.iter().any(|m| matches!(
                    m,
                    BackendMessage::CommandComplete { tag } if tag == expect_tag
                )),
                "query {q} missing tag {expect_tag}: {msgs:?}"
            );
        }
        // SHOW answers a single-row result
        f.send(&FrontendMessage::Query("SHOW ssl".into()));
        let msgs = until_ready(&mut f);
        assert!(msgs
            .iter()
            .any(|m| matches!(m, BackendMessage::DataRow { .. })));
    }

    #[test]
    fn scripted_response_shapes() {
        assert!(matches!(
            scripted_response("")[0],
            BackendMessage::EmptyQueryResponse
        ));
        assert!(matches!(
            scripted_response("BEGIN")[0],
            BackendMessage::CommandComplete { .. }
        ));
        assert_eq!(scripted_response("SHOW ssl").len(), 3);
        assert!(matches!(
            scripted_response("blargh")[0],
            BackendMessage::ErrorResponse { .. }
        ));
    }
}
