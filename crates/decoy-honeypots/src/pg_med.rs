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
use crate::low::read_or_fault;
use decoy_net::framed::Framed;
use decoy_net::proxy;
use decoy_net::server::{SessionCtx, SessionHandler, SessionStream};
use decoy_store::{EventStore, HoneypotId};
use decoy_wire::error::NetResult;
use decoy_wire::pgwire::{BackendMessage, FrontendMessage, PgServerCodec};
use std::sync::Arc;

/// The medium-interaction PostgreSQL honeypot.
pub struct StickyElephant {
    store: Arc<EventStore>,
    id: HoneypotId,
    allow_login: bool,
}

impl StickyElephant {
    /// `allow_login = true` reproduces the open default configuration;
    /// `false` the login-disabled variant.
    pub fn new(store: Arc<EventStore>, id: HoneypotId, allow_login: bool) -> Arc<Self> {
        Arc::new(StickyElephant {
            store,
            id,
            allow_login,
        })
    }
}

impl SessionHandler for StickyElephant {
    async fn handle(self: Arc<Self>, mut stream: SessionStream, ctx: SessionCtx) {
        let (proxied, initial) = match proxy::maybe_read_v1(&mut stream).await {
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

impl StickyElephant {
    async fn session(
        &self,
        stream: SessionStream,
        initial: decoy_wire::buf::RecvBuf,
        log: &SessionLogger,
    ) -> NetResult<()> {
        let mut framed = Framed::with_initial(stream, PgServerCodec::new(), initial);
        let mut user = String::new();
        let mut authed = false;
        loop {
            let msg = read_or_fault!(framed, log);
            match msg {
                FrontendMessage::SslRequest => {
                    framed.write_frame(&BackendMessage::SslRefused).await?;
                }
                FrontendMessage::Startup { params } => {
                    user = params
                        .iter()
                        .find(|(k, _)| k == "user")
                        .map(|(_, v)| v.clone())
                        .unwrap_or_default();
                    framed
                        .write_frame(&BackendMessage::AuthenticationCleartextPassword)
                        .await?;
                }
                FrontendMessage::Password(password) => {
                    if self.allow_login {
                        log.login(&user, &password, true);
                        authed = true;
                        framed
                            .write_frame(&BackendMessage::AuthenticationOk)
                            .await?;
                        for (name, value) in [
                            ("server_version", catalog::PG_SERVER_VERSION),
                            ("server_encoding", "UTF8"),
                            ("client_encoding", "UTF8"),
                        ] {
                            framed
                                .write_frame(&BackendMessage::ParameterStatus {
                                    name: name.into(),
                                    value: value.into(),
                                })
                                .await?;
                        }
                        framed
                            .write_frame(&BackendMessage::BackendKeyData {
                                pid: 24_601,
                                secret: 0x5eed_cafe,
                            })
                            .await?;
                        framed
                            .write_frame(&BackendMessage::ReadyForQuery { status: b'I' })
                            .await?;
                    } else {
                        log.login(&user, &password, false);
                        framed
                            .write_frame(&BackendMessage::auth_failed(&user))
                            .await?;
                        return Ok(());
                    }
                }
                FrontendMessage::Query(q) => {
                    log.command(&q);
                    if !authed {
                        framed
                            .write_frame(&BackendMessage::ErrorResponse {
                                severity: "FATAL".into(),
                                code: "08P01".into(),
                                message: "expected password response".into(),
                            })
                            .await?;
                        return Ok(());
                    }
                    for reply in scripted_response(&q) {
                        framed.write_frame(&reply).await?;
                    }
                    framed
                        .write_frame(&BackendMessage::ReadyForQuery { status: b'I' })
                        .await?;
                }
                FrontendMessage::Terminate => return Ok(()),
                FrontendMessage::CancelRequest { .. } => return Ok(()),
                FrontendMessage::Other { tag, body } => {
                    log.payload(&[&[tag], body.as_ref()].concat());
                    framed
                        .write_frame(&BackendMessage::ErrorResponse {
                            severity: "ERROR".into(),
                            code: "0A000".into(),
                            message: "extended query protocol not supported".into(),
                        })
                        .await?;
                    framed
                        .write_frame(&BackendMessage::ReadyForQuery { status: b'I' })
                        .await?;
                }
            }
        }
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
    use decoy_base::time::Clock;
    use decoy_net::server::{Listener, ListenerOptions, ServerHandle};
    use decoy_store::{ConfigVariant, Dbms, EventKind, InteractionLevel};
    use decoy_wire::pgwire::PgClientCodec;
    use tokio::net::TcpStream;

    async fn spawn(allow_login: bool) -> (ServerHandle, Arc<EventStore>) {
        let store = EventStore::new();
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
        let hp = StickyElephant::new(store.clone(), id, allow_login);
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

    async fn login(
        framed: &mut Framed<TcpStream, PgClientCodec>,
        user: &str,
        password: &str,
    ) -> BackendMessage {
        framed
            .write_frame(&FrontendMessage::Startup {
                params: vec![("user".into(), user.into())],
            })
            .await
            .unwrap();
        assert_eq!(
            framed.read_frame().await.unwrap().unwrap(),
            BackendMessage::AuthenticationCleartextPassword
        );
        framed
            .write_frame(&FrontendMessage::Password(password.into()))
            .await
            .unwrap();
        framed.read_frame().await.unwrap().unwrap()
    }

    /// Read backend messages until ReadyForQuery, returning all of them.
    async fn until_ready(framed: &mut Framed<TcpStream, PgClientCodec>) -> Vec<BackendMessage> {
        let mut out = Vec::new();
        loop {
            let msg = framed.read_frame().await.unwrap().unwrap();
            let ready = matches!(msg, BackendMessage::ReadyForQuery { .. });
            out.push(msg);
            if ready {
                return out;
            }
        }
    }

    #[tokio::test]
    async fn open_config_grants_access_and_answers_queries() {
        let (server, store) = spawn(true).await;
        let stream = TcpStream::connect(server.local_addr()).await.unwrap();
        let mut f = Framed::new(stream, PgClientCodec::new());
        assert_eq!(
            login(&mut f, "postgres", "postgres").await,
            BackendMessage::AuthenticationOk
        );
        let rest = until_ready(&mut f).await;
        assert!(rest
            .iter()
            .any(|m| matches!(m, BackendMessage::ParameterStatus { .. })));
        f.write_frame(&FrontendMessage::Query("SELECT version();".into()))
            .await
            .unwrap();
        let msgs = until_ready(&mut f).await;
        let row = msgs
            .iter()
            .find_map(|m| match m {
                BackendMessage::DataRow { values } => values[0].clone(),
                _ => None,
            })
            .unwrap();
        assert!(row.contains("PostgreSQL 11.3"));
        server.shutdown().await;
        let logins =
            store.filter(|e| matches!(e.kind, EventKind::LoginAttempt { success: true, .. }));
        assert_eq!(logins.len(), 1);
    }

    #[tokio::test]
    async fn restricted_config_rejects_all_logins() {
        let (server, store) = spawn(false).await;
        for attempt in 0..3 {
            let stream = TcpStream::connect(server.local_addr()).await.unwrap();
            let mut f = Framed::new(stream, PgClientCodec::new());
            let reply = login(&mut f, "postgres", &format!("guess{attempt}")).await;
            let BackendMessage::ErrorResponse { code, .. } = reply else {
                panic!("expected rejection");
            };
            assert_eq!(code, "28P01");
        }
        server.shutdown().await;
        let logins =
            store.filter(|e| matches!(e.kind, EventKind::LoginAttempt { success: false, .. }));
        assert_eq!(logins.len(), 3);
    }

    #[tokio::test]
    async fn kinsing_listing4_sequence_succeeds_scripted() {
        let (server, store) = spawn(true).await;
        let stream = TcpStream::connect(server.local_addr()).await.unwrap();
        let mut f = Framed::new(stream, PgClientCodec::new());
        login(&mut f, "postgres", "x").await;
        until_ready(&mut f).await;
        let queries = [
            "DROP TABLE IF EXISTS deadbeefcafe1234;",
            "CREATE TABLE deadbeefcafe1234(cmd_output text);",
            "COPY deadbeefcafe1234 FROM PROGRAM 'echo aGk= | base64 -d | bash';",
            "SELECT * FROM deadbeefcafe1234;",
            "DROP TABLE IF EXISTS deadbeefcafe1234;",
        ];
        for q in queries {
            f.write_frame(&FrontendMessage::Query(q.into()))
                .await
                .unwrap();
            let msgs = until_ready(&mut f).await;
            assert!(
                !msgs.iter().any(|m| matches!(
                    m,
                    BackendMessage::ErrorResponse { severity, .. } if severity == "FATAL"
                )),
                "query {q:?} fatally failed"
            );
        }
        server.shutdown().await;
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

    #[tokio::test]
    async fn privilege_manipulation_listing13() {
        let (server, store) = spawn(true).await;
        let stream = TcpStream::connect(server.local_addr()).await.unwrap();
        let mut f = Framed::new(stream, PgClientCodec::new());
        login(&mut f, "postgres", "x").await;
        until_ready(&mut f).await;
        for q in [
            "ALTER USER pgg_superadmins WITH PASSWORD 'pwned'",
            "ALTER USER postgres WITH NOSUPERUSER",
        ] {
            f.write_frame(&FrontendMessage::Query(q.into()))
                .await
                .unwrap();
            let msgs = until_ready(&mut f).await;
            assert!(msgs.iter().any(
                |m| matches!(m, BackendMessage::CommandComplete { tag } if tag == "ALTER ROLE")
            ));
        }
        server.shutdown().await;
        assert_eq!(
            store
                .filter(|e| matches!(e.kind, EventKind::Command { .. }))
                .len(),
            2
        );
    }

    #[tokio::test]
    async fn gibberish_sql_gets_syntax_error_not_disconnect() {
        let (server, _store) = spawn(true).await;
        let stream = TcpStream::connect(server.local_addr()).await.unwrap();
        let mut f = Framed::new(stream, PgClientCodec::new());
        login(&mut f, "admin", "x").await;
        until_ready(&mut f).await;
        f.write_frame(&FrontendMessage::Query("FROBNICATE THE DATABASE".into()))
            .await
            .unwrap();
        let msgs = until_ready(&mut f).await;
        assert!(msgs.iter().any(|m| matches!(
            m,
            BackendMessage::ErrorResponse { code, .. } if code == "42601"
        )));
        // connection still usable
        f.write_frame(&FrontendMessage::Query("SELECT 1".into()))
            .await
            .unwrap();
        until_ready(&mut f).await;
        server.shutdown().await;
    }

    #[tokio::test]
    async fn show_set_and_transaction_statements() {
        let (server, _store) = spawn(true).await;
        let stream = TcpStream::connect(server.local_addr()).await.unwrap();
        let mut f = Framed::new(stream, PgClientCodec::new());
        login(&mut f, "postgres", "x").await;
        until_ready(&mut f).await;
        for (q, expect_tag) in [
            ("BEGIN", "BEGIN"),
            ("SET search_path TO public", "SET"),
            ("COMMIT", "COMMIT"),
            ("SELECT current_user", "SELECT 1"),
        ] {
            f.write_frame(&FrontendMessage::Query(q.into()))
                .await
                .unwrap();
            let msgs = until_ready(&mut f).await;
            assert!(
                msgs.iter().any(|m| matches!(
                    m,
                    BackendMessage::CommandComplete { tag } if tag == expect_tag
                )),
                "query {q} missing tag {expect_tag}: {msgs:?}"
            );
        }
        // SHOW answers a single-row result
        f.write_frame(&FrontendMessage::Query("SHOW ssl".into()))
            .await
            .unwrap();
        let msgs = until_ready(&mut f).await;
        assert!(msgs
            .iter()
            .any(|m| matches!(m, BackendMessage::DataRow { .. })));
        server.shutdown().await;
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
