//! The live probe engine: drives the multistage battery against real
//! honeypot listeners over loopback TCP and captures one
//! [`Surface`] per protocol family.
//!
//! Each capture session speaks the genuine client protocol (the same
//! codecs attackers' tools use): it completes the handshake, records
//! the banner and every advertised fact, elicits error text with a
//! deliberately malformed or unknown request, then measures the latency
//! of repeated cheap round trips. The captured surfaces feed
//! [`crate::probes::run_all`] and [`crate::score::Scorecard::tally`]
//! exactly like the frozen corpus does.

use std::fmt::Write as _;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use decoy_base::json::{self, Value};
use decoy_net::framed::Framed;
use decoy_net::server::ListenerOptions;
use decoy_store::{ConfigVariant, Dbms, EventStore, HoneypotId, InteractionLevel};
use decoy_wire::mongo::bson::{doc, Document};
use decoy_wire::mongo::{MongoCodec, MongoMessage};
use decoy_wire::{http, mysql, pgwire, resp};
use tokio::net::TcpStream;

use crate::probes::Surface;

type Fail = Box<dyn std::error::Error + Send + Sync>;

/// `d` in whole microseconds, saturating: a timing sample.
pub(crate) fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// How the engine deploys and probes the fleet.
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Listener options every spawned honeypot runs with; set
    /// `listener.latency` to probe a shaped fleet.
    pub listener: ListenerOptions,
    /// Round trips measured by the timing stage, per family.
    pub timing_samples: usize,
    /// Fake-data seed for the spawned honeypots.
    pub seed: u64,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            listener: ListenerOptions::default(),
            timing_samples: 24,
            seed: 11,
        }
    }
}

/// Spawn each of the six deploy-spec honeypot families on loopback,
/// capture its probe surface, and shut it down again.
pub async fn fingerprint_fleet(options: &EngineOptions) -> std::io::Result<Vec<Surface>> {
    use decoy_fleet::deploy::{spawn_with_options, HoneypotSpec};

    let targets: [(HoneypotId, CaptureFn); 6] = [
        (
            HoneypotId::new(
                Dbms::MySql,
                InteractionLevel::Medium,
                ConfigVariant::Default,
                0,
            ),
            |a, n| Box::pin(capture_mysql(a, n)),
        ),
        (
            HoneypotId::new(
                Dbms::Postgres,
                InteractionLevel::Medium,
                ConfigVariant::Default,
                0,
            ),
            |a, n| Box::pin(capture_postgres(a, n)),
        ),
        (
            HoneypotId::new(
                Dbms::MongoDb,
                InteractionLevel::High,
                ConfigVariant::FakeData,
                0,
            ),
            |a, n| Box::pin(capture_mongodb(a, n)),
        ),
        (
            HoneypotId::new(
                Dbms::Redis,
                InteractionLevel::Medium,
                ConfigVariant::Default,
                0,
            ),
            |a, n| Box::pin(capture_redis(a, n)),
        ),
        (
            HoneypotId::new(
                Dbms::Elastic,
                InteractionLevel::Medium,
                ConfigVariant::Default,
                0,
            ),
            |a, n| Box::pin(capture_elastic(a, n)),
        ),
        (
            HoneypotId::new(
                Dbms::CouchDb,
                InteractionLevel::Medium,
                ConfigVariant::FakeData,
                0,
            ),
            |a, n| Box::pin(capture_couchdb(a, n)),
        ),
    ];

    let mut surfaces = Vec::with_capacity(targets.len());
    for (id, capture) in targets {
        let store = EventStore::new();
        let spec = HoneypotSpec::loopback(id, options.listener.clock.clone(), options.seed);
        let hp = spawn_with_options(store, spec, options.listener.clone()).await?;
        let surface = capture(hp.addr(), options.timing_samples)
            .await
            .map_err(|e| {
                std::io::Error::other(format!("probing {:?} at {}: {e}", id.dbms, hp.addr()))
            });
        hp.shutdown().await;
        surfaces.push(surface?);
    }
    Ok(surfaces)
}

type CaptureFn =
    fn(
        SocketAddr,
        usize,
    ) -> std::pin::Pin<Box<dyn std::future::Future<Output = Result<Surface, Fail>> + Send>>;

async fn dial(addr: SocketAddr) -> Result<TcpStream, Fail> {
    let stream = TcpStream::connect(addr).await?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// MySQL: greeting facts, `SELECT @@version` cross-check, a parse
/// error, then COM_PING round trips.
async fn capture_mysql(addr: SocketAddr, samples: usize) -> Result<Surface, Fail> {
    let mut s = Surface::named("mysql");
    let mut f = Framed::new(dial(addr).await?, mysql::MySqlCodec);
    let greeting_pkt = f.read_frame().await?.ok_or("no greeting")?;
    let greeting = mysql::Greeting::parse(&greeting_pkt.payload)?;
    s.banner = greeting.server_version.clone();
    s.push_fact("version", greeting.server_version.clone());
    // Greeting::parse only accepts protocol version 10 frames.
    s.push_fact("protocol", "10");
    s.push_fact("auth_plugin", greeting.auth_plugin.clone());
    let login = mysql::LoginRequest::cleartext("root", "fingerprint", None);
    f.write_frame(&mysql::MySqlPacket {
        seq: greeting_pkt.seq.wrapping_add(1),
        payload: login.build(),
    })
    .await?;
    let reply = f.read_frame().await?.ok_or("no auth reply")?;
    if reply.payload.first() != Some(&0x00) {
        return Err("login rejected".into());
    }
    let mut q = vec![0x03];
    q.extend_from_slice(b"SELECT @@version");
    f.write_frame(&mysql::MySqlPacket {
        seq: 0,
        payload: q.into(),
    })
    .await?;
    // column-count, definition, EOF, row, EOF
    for i in 0..5 {
        let pkt = f.read_frame().await?.ok_or("result truncated")?;
        if i == 3 {
            // Single-column row: one length-prefixed string value.
            let text = pkt
                .payload
                .get(1..)
                .map(|b| String::from_utf8_lossy(b).into_owned())
                .unwrap_or_default();
            s.push_fact("query_version", text);
        }
    }
    let mut bad = vec![0x03];
    bad.extend_from_slice(b"FINGERPRINT PROBE");
    f.write_frame(&mysql::MySqlPacket {
        seq: 0,
        payload: bad.into(),
    })
    .await?;
    let err = f.read_frame().await?.ok_or("no error reply")?;
    if let Some((_, message)) = mysql::parse_err(&err.payload) {
        s.error_syntax = message;
    }
    for _ in 0..samples {
        let t0 = Instant::now();
        f.write_frame(&mysql::MySqlPacket {
            seq: 0,
            payload: vec![0x0e].into(),
        })
        .await?;
        f.read_frame().await?.ok_or("no ping reply")?;
        s.timing_us.push(micros(t0.elapsed()));
    }
    Ok(s)
}

/// Postgres: startup parameters, `SELECT version();`, a parse error,
/// then `SELECT 1` round trips.
async fn capture_postgres(addr: SocketAddr, samples: usize) -> Result<Surface, Fail> {
    let mut s = Surface::named("postgres");
    let mut f = Framed::new(dial(addr).await?, pgwire::PgClientCodec::new());
    f.write_frame(&pgwire::FrontendMessage::Startup {
        params: vec![
            ("user".into(), "postgres".into()),
            ("database".into(), "postgres".into()),
        ],
    })
    .await?;
    loop {
        match f.read_frame().await?.ok_or("closed during auth")? {
            pgwire::BackendMessage::AuthenticationCleartextPassword
            | pgwire::BackendMessage::AuthenticationMd5Password { .. } => {
                f.write_frame(&pgwire::FrontendMessage::Password("postgres".into()))
                    .await?;
            }
            pgwire::BackendMessage::ParameterStatus { name, value } => {
                if name == "server_version" {
                    s.push_fact("version", value.clone());
                }
                s.push_fact(&name, value);
            }
            pgwire::BackendMessage::ReadyForQuery { .. } => break,
            pgwire::BackendMessage::ErrorResponse { message, .. } => {
                return Err(format!("login rejected: {message}").into());
            }
            _ => continue,
        }
    }
    f.write_frame(&pgwire::FrontendMessage::Query("SELECT version();".into()))
        .await?;
    loop {
        match f.read_frame().await?.ok_or("closed mid query")? {
            pgwire::BackendMessage::DataRow { values } => {
                if let Some(Some(banner)) = values.first() {
                    s.banner = banner.clone();
                }
            }
            pgwire::BackendMessage::ReadyForQuery { .. } => break,
            _ => continue,
        }
    }
    f.write_frame(&pgwire::FrontendMessage::Query(
        "FROBNICATE the catalog".into(),
    ))
    .await?;
    loop {
        match f.read_frame().await?.ok_or("closed mid error")? {
            pgwire::BackendMessage::ErrorResponse { code, message, .. } => {
                s.error_syntax = message;
                s.push_fact("sqlstate", code);
            }
            pgwire::BackendMessage::ReadyForQuery { .. } => break,
            _ => continue,
        }
    }
    for _ in 0..samples {
        let t0 = Instant::now();
        f.write_frame(&pgwire::FrontendMessage::Query("SELECT 1".into()))
            .await?;
        loop {
            match f.read_frame().await?.ok_or("closed mid ping")? {
                pgwire::BackendMessage::ReadyForQuery { .. } => break,
                _ => continue,
            }
        }
        s.timing_us.push(micros(t0.elapsed()));
    }
    f.write_frame(&pgwire::FrontendMessage::Terminate).await?;
    Ok(s)
}

/// MongoDB: `buildInfo` and `isMaster` facts, an unknown command, then
/// `ping` round trips.
async fn capture_mongodb(addr: SocketAddr, samples: usize) -> Result<Surface, Fail> {
    let mut s = Surface::named("mongodb");
    let mut f = Framed::new(dial(addr).await?, MongoCodec);
    let mut rid = 0i32;
    let mut command = |doc| {
        rid += 1;
        MongoMessage::msg(rid, doc)
    };

    f.write_frame(&command(doc! { "buildInfo" => 1i32, "$db" => "admin" }))
        .await?;
    let reply = f.read_frame().await?.ok_or("no buildInfo reply")?;
    let info = reply.command_doc().ok_or("buildInfo reply had no body")?;
    if let Some(version) = info.get_str("version") {
        s.banner = version.to_string();
        s.push_fact("version", version);
    }
    if let Some(sha) = info.get_str("gitVersion") {
        s.push_fact("gitVersion", sha);
    }

    f.write_frame(&command(doc! { "isMaster" => 1i32, "$db" => "admin" }))
        .await?;
    let reply = f.read_frame().await?.ok_or("no isMaster reply")?;
    let hello = reply.command_doc().ok_or("isMaster reply had no body")?;
    if let Some(wire) = hello.get_f64("maxWireVersion") {
        let mut text = String::new();
        #[allow(
            clippy::cast_possible_truncation,
            reason = "`as` saturates; the fact is the integer part a scanner reads"
        )]
        let _ = write!(text, "{}", wire as i64);
        s.push_fact("maxWireVersion", text);
    }

    f.write_frame(&command(
        doc! { "fingerprintProbe" => 1i32, "$db" => "admin" },
    ))
    .await?;
    let reply = f.read_frame().await?.ok_or("no error reply")?;
    let err = reply.command_doc().ok_or("error reply had no body")?;
    s.error_unknown = render_doc(err);

    for _ in 0..samples {
        let t0 = Instant::now();
        f.write_frame(&command(doc! { "ping" => 1i32, "$db" => "admin" }))
            .await?;
        f.read_frame().await?.ok_or("no ping reply")?;
        s.timing_us.push(micros(t0.elapsed()));
    }
    Ok(s)
}

fn render_doc(doc: &Document) -> String {
    let mut out = String::new();
    for (key, value) in doc.iter() {
        if !out.is_empty() {
            out.push(' ');
        }
        if let Some(text) = value.as_str() {
            let _ = write!(out, "{key}={text}");
        } else if let Some(number) = value.as_f64() {
            let _ = write!(out, "{key}={number}");
        } else {
            let _ = write!(out, "{key}=?");
        }
    }
    out
}

/// Redis: HELLO facts, `INFO server` banner, an unknown command, then
/// PING round trips.
async fn capture_redis(addr: SocketAddr, samples: usize) -> Result<Surface, Fail> {
    let mut s = Surface::named("redis");
    let mut f = Framed::new(dial(addr).await?, resp::RespCodec::client());
    f.write_frame(&resp::RespValue::command(&["HELLO"])).await?;
    if let resp::RespValue::Array(fields) = f.read_frame().await?.ok_or("no HELLO reply")? {
        let mut it = fields.iter();
        while let (Some(key), Some(value)) = (it.next(), it.next()) {
            let key = match key.as_text() {
                Some(key) => key,
                None => continue,
            };
            let value = match value {
                resp::RespValue::Integer(i) => i.to_string(),
                other => other.as_text().unwrap_or_default(),
            };
            s.push_fact(&key, value);
        }
    }
    f.write_frame(&resp::RespValue::command(&["INFO", "server"]))
        .await?;
    if let Some(text) = f.read_frame().await?.ok_or("no INFO reply")?.as_text() {
        s.banner = text;
    }
    f.write_frame(&resp::RespValue::command(&["FINGERPRINTPROBE", "arg"]))
        .await?;
    if let resp::RespValue::Error(message) = f.read_frame().await?.ok_or("no error reply")? {
        s.error_unknown = message;
    }
    for _ in 0..samples {
        let t0 = Instant::now();
        f.write_frame(&resp::RespValue::command(&["PING"])).await?;
        f.read_frame().await?.ok_or("no PING reply")?;
        s.timing_us.push(micros(t0.elapsed()));
    }
    Ok(s)
}

async fn capture_http(
    family: &str,
    banner_facts: fn(&Value, &mut Surface),
    missing_path: &str,
    addr: SocketAddr,
    samples: usize,
) -> Result<Surface, Fail> {
    let mut s = Surface::named(family);
    let mut f = Framed::new(dial(addr).await?, http::HttpClientCodec);
    f.write_frame(&http::HttpRequest::new("GET", "/")).await?;
    let root = f.read_frame().await?.ok_or("no banner reply")?;
    s.banner = root.body_text();
    if let Ok(value) = json::parse(s.banner.as_bytes()) {
        banner_facts(&value, &mut s);
    }
    f.write_frame(&http::HttpRequest::new("GET", missing_path))
        .await?;
    let missing = f.read_frame().await?.ok_or("no 404 reply")?;
    s.error_unknown = missing.body_text();
    for _ in 0..samples {
        let t0 = Instant::now();
        f.write_frame(&http::HttpRequest::new("GET", "/")).await?;
        f.read_frame().await?.ok_or("no timing reply")?;
        s.timing_us.push(micros(t0.elapsed()));
    }
    Ok(s)
}

/// Elasticsearch: root document facts, a missing-index 404, then
/// banner round trips.
async fn capture_elastic(addr: SocketAddr, samples: usize) -> Result<Surface, Fail> {
    capture_http(
        "elastic",
        |value, s| {
            let version = value.get("version");
            if let Some(number) = version
                .and_then(|v| v.get("number"))
                .and_then(|v| v.as_str())
            {
                s.push_fact("version", number);
            }
            if let Some(lucene) = version
                .and_then(|v| v.get("lucene_version"))
                .and_then(|v| v.as_str())
            {
                s.push_fact("lucene_version", lucene);
            }
        },
        "/fingerprint_probe_missing",
        addr,
        samples,
    )
    .await
}

/// CouchDB: welcome document facts, a missing-database 404, then
/// banner round trips.
async fn capture_couchdb(addr: SocketAddr, samples: usize) -> Result<Surface, Fail> {
    capture_http(
        "couchdb",
        |value, s| {
            if let Some(version) = value.get("version").and_then(|v| v.as_str()) {
                s.push_fact("version", version);
            }
            if let Some(sha) = value.get("git_sha").and_then(|v| v.as_str()) {
                s.push_fact("git_sha", sha);
            }
        },
        "/fingerprint_probe_missing_db",
        addr,
        samples,
    )
    .await
}
