//! The probe engine: drives the multistage battery through a honeypot's
//! own client protocol and captures one [`Surface`] per protocol family.
//!
//! Each capture speaks the genuine client protocol (the same decoy-wire
//! client codecs attackers' tools use): it completes the handshake,
//! records the banner and every advertised fact, elicits error text with a
//! deliberately malformed or unknown request, then times 24 cheap
//! round trips. The captures are generic over a [`Dial`] transport, as the
//! attack client (`decoy_agents::client`) is, so the one battery runs over
//! two transports:
//!
//! * [`capture_in_memory`] dials the six [`TARGETS`] as session machines
//!   through decoy-honeypots' in-memory transport, which tier-1 scores
//!   against `FINGERPRINT_BASELINE.json`;
//! * decoy-fleet's TCP transport dials the same honeypots on live loopback
//!   listeners (its `live_fleet_scores_zero_and_matches_the_baseline`
//!   test).
//!
//! A [`Timing`] says what each timed round trip records: wall-clock
//! microseconds over TCP, the seeded LAN shaper's draw in memory (the
//! shaper's model, not a measurement), or zero in the unshaped control.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use decoy_base::json::{self, Value};
use decoy_base::latency::{LatencyProfile, LatencyShaper};
use decoy_base::time::Clock;
use decoy_honeypots::driver::{poll_once, Memory};
use decoy_store::{ConfigVariant, Dbms, EventStore, HoneypotId, InteractionLevel};
use decoy_wire::codec::{Codec, Connection, Dial};
use decoy_wire::error::{NetError, NetResult};
use decoy_wire::http;
use decoy_wire::mongo::bson::{doc, Document};
use decoy_wire::mongo::{MongoCodec, MongoMessage};
use decoy_wire::mysql::{self, MySqlCodec, MySqlPacket};
use decoy_wire::pgwire::{BackendMessage, FrontendMessage, PgClientCodec};
use decoy_wire::resp::{RespCodec, RespValue};

use crate::probes::Surface;

/// Round trips the timing stage times, per family.
pub(crate) const SAMPLES: usize = 24;

/// The seed of every capture: the machines' fake data and the LAN latency
/// shaper.
pub const SEED: u64 = 11;

/// The honeypots the battery probes, one per family, as the deploy specs
/// run them. A target's index is its session key in [`Timing::Shaped`].
pub const TARGETS: [HoneypotId; 6] = [
    target(
        Dbms::MySql,
        InteractionLevel::Medium,
        ConfigVariant::Default,
    ),
    target(
        Dbms::Postgres,
        InteractionLevel::Medium,
        ConfigVariant::Default,
    ),
    target(
        Dbms::MongoDb,
        InteractionLevel::High,
        ConfigVariant::FakeData,
    ),
    target(
        Dbms::Redis,
        InteractionLevel::Medium,
        ConfigVariant::Default,
    ),
    target(
        Dbms::Elastic,
        InteractionLevel::Medium,
        ConfigVariant::Default,
    ),
    target(
        Dbms::CouchDb,
        InteractionLevel::Medium,
        ConfigVariant::FakeData,
    ),
];

const fn target(dbms: Dbms, level: InteractionLevel, config: ConfigVariant) -> HoneypotId {
    HoneypotId {
        dbms,
        level,
        config,
        instance: 0,
    }
}

/// What a capture records for each timed round trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Timing {
    /// The round trip's wall-clock microseconds: a measurement, over TCP.
    Wall,
    /// The delay the LAN shaper (seed [`SEED`]) draws for round trip `op`
    /// of this session: the shaper's model of a network, in memory.
    Shaped(u64),
    /// Zero: the unshaped control.
    Zero,
}

impl Timing {
    /// The sample for round trip `op`, which began at `start`.
    fn sample(self, op: u64, start: Instant) -> u64 {
        match self {
            Timing::Wall => micros(start.elapsed()),
            Timing::Shaped(session) => {
                let shaper = LatencyShaper::new(SEED, LatencyProfile::lan());
                micros(shaper.delay_for(session, op))
            }
            Timing::Zero => 0,
        }
    }
}

/// `d` in whole microseconds, saturating: a timing sample.
fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Capture the six [`TARGETS`] as session machines in memory, each logging
/// into a store of its own, target `i`'s round trips timed by `timing(i)`.
pub fn capture_in_memory(timing: impl Fn(u64) -> Timing) -> std::io::Result<Vec<Surface>> {
    let mut surfaces = Vec::with_capacity(TARGETS.len());
    for (session, id) in (0..).zip(TARGETS) {
        let store = EventStore::new();
        let mut honeypot = Memory::deploy(&store, id, SEED, Clock::simulated())?;
        let captured = poll_once(capture(&mut honeypot, id.dbms, timing(session)))
            .unwrap_or(Err(NetError::IdleTimeout))
            .map_err(|e| std::io::Error::other(format!("probing {id}: {e}")))?;
        surfaces.push(captured);
    }
    Ok(surfaces)
}

/// Capture the surface of the `dbms` honeypot that `net` dials, timing its
/// round trips by `timing`. The battery has no MSSQL stage.
pub async fn capture<D: Dial>(net: &mut D, dbms: Dbms, timing: Timing) -> NetResult<Surface> {
    match dbms {
        Dbms::MySql => capture_mysql(net, timing).await,
        Dbms::Postgres => capture_postgres(net, timing).await,
        Dbms::MongoDb => capture_mongodb(net, timing).await,
        Dbms::Redis => capture_redis(net, timing).await,
        Dbms::Elastic => capture_elastic(net, timing).await,
        Dbms::CouchDb => capture_couchdb(net, timing).await,
        Dbms::Mssql => Err(NetError::Protocol("no probe battery for MSSQL".into())),
    }
}

/// Open the capture's one connection.
async fn connect<D: Dial, C: Codec + 'static>(net: &mut D, codec: C) -> NetResult<D::Conn<C>> {
    net.dial(codec).await.unwrap_or(Err(NetError::Shutdown))
}

/// The frame a reply must be: a server that closed instead ends the
/// capture.
fn reply<T>(frame: Option<T>, what: &str) -> NetResult<T> {
    frame.ok_or_else(|| NetError::Protocol(format!("closed before the {what}")))
}

/// Time [`SAMPLES`] round trips, each sending the frame `next` makes and
/// reading up to the reply `last` accepts.
async fn time_round_trips<C: Codec, K: Connection<C>>(
    conn: &mut K,
    timing: Timing,
    s: &mut Surface,
    mut next: impl FnMut() -> C::Out,
    last: impl Fn(&C::In) -> bool,
) -> NetResult<()> {
    for op in (0..).take(SAMPLES) {
        let start = Instant::now();
        conn.send(&next()).await?;
        while !last(&reply(conn.recv().await?, "timed reply")?) {}
        s.timing_us.push(timing.sample(op, start));
    }
    Ok(())
}

/// A `COM_QUERY` packet.
fn mysql_query(sql: &str) -> MySqlPacket {
    MySqlPacket {
        seq: 0,
        payload: [&[0x03], sql.as_bytes()].concat().into(),
    }
}

/// MySQL: greeting facts, `SELECT @@version` cross-check, a parse
/// error, then COM_PING round trips.
async fn capture_mysql<D: Dial>(net: &mut D, timing: Timing) -> NetResult<Surface> {
    let mut s = Surface::named("mysql");
    let mut conn = connect(net, MySqlCodec).await?;
    let greeting_pkt = reply(conn.recv().await?, "greeting")?;
    let greeting = mysql::Greeting::parse(&greeting_pkt.payload)?;
    s.banner = greeting.server_version.clone();
    s.push_fact("version", greeting.server_version);
    // Greeting::parse only accepts protocol version 10 frames.
    s.push_fact("protocol", "10");
    s.push_fact("auth_plugin", greeting.auth_plugin);
    let login = mysql::LoginRequest::cleartext("root", "fingerprint", None);
    conn.send(&MySqlPacket {
        seq: greeting_pkt.seq.wrapping_add(1),
        payload: login.build(),
    })
    .await?;
    if reply(conn.recv().await?, "auth reply")?.payload.first() != Some(&0x00) {
        return Err(NetError::Protocol("login rejected".into()));
    }
    conn.send(&mysql_query("SELECT @@version")).await?;
    // column-count, definition, EOF, row, EOF
    for i in 0..5 {
        let pkt = reply(conn.recv().await?, "version result")?;
        if i == 3 {
            // Single-column row: one length-prefixed string value.
            let text = pkt.payload.get(1..).map(String::from_utf8_lossy);
            s.push_fact("query_version", text.unwrap_or_default());
        }
    }
    conn.send(&mysql_query("FINGERPRINT PROBE")).await?;
    let err = reply(conn.recv().await?, "error reply")?;
    if let Some((_, message)) = mysql::parse_err(&err.payload) {
        s.error_syntax = message;
    }
    let ping = || MySqlPacket {
        seq: 0,
        payload: vec![0x0e].into(),
    };
    time_round_trips(&mut conn, timing, &mut s, ping, |_| true).await?;
    Ok(s)
}

/// Send a simple query and hand every message of its answer to `visit`, up
/// to `ReadyForQuery`.
async fn pg_query<C: Connection<PgClientCodec>>(
    pg: &mut C,
    sql: &str,
    mut visit: impl FnMut(BackendMessage),
) -> NetResult<()> {
    pg.send(&FrontendMessage::Query(sql.into())).await?;
    loop {
        match reply(pg.recv().await?, "query result")? {
            BackendMessage::ReadyForQuery { .. } => return Ok(()),
            message => visit(message),
        }
    }
}

/// Postgres: startup parameters, `SELECT version();`, a parse error,
/// then `SELECT 1` round trips.
async fn capture_postgres<D: Dial>(net: &mut D, timing: Timing) -> NetResult<Surface> {
    let mut s = Surface::named("postgres");
    let mut conn = connect(net, PgClientCodec::new()).await?;
    conn.send(&FrontendMessage::Startup {
        params: vec![
            ("user".into(), "postgres".into()),
            ("database".into(), "postgres".into()),
        ],
    })
    .await?;
    loop {
        match reply(conn.recv().await?, "login")? {
            BackendMessage::AuthenticationCleartextPassword
            | BackendMessage::AuthenticationMd5Password { .. } => {
                conn.send(&FrontendMessage::Password("postgres".into()))
                    .await?;
            }
            BackendMessage::ParameterStatus { name, value } => {
                if name == "server_version" {
                    s.push_fact("version", value.clone());
                }
                s.push_fact(&name, value);
            }
            BackendMessage::ReadyForQuery { .. } => break,
            BackendMessage::ErrorResponse { message, .. } => {
                return Err(NetError::Protocol(format!("login rejected: {message}")));
            }
            _ => {}
        }
    }
    pg_query(&mut conn, "SELECT version();", |message| {
        if let BackendMessage::DataRow { values } = message {
            if let Some(Some(banner)) = values.into_iter().next() {
                s.banner = banner;
            }
        }
    })
    .await?;
    pg_query(&mut conn, "FROBNICATE the catalog", |message| {
        if let BackendMessage::ErrorResponse { code, message, .. } = message {
            s.error_syntax = message;
            s.push_fact("sqlstate", code);
        }
    })
    .await?;
    let select = || FrontendMessage::Query("SELECT 1".into());
    let ready = |m: &BackendMessage| matches!(m, BackendMessage::ReadyForQuery { .. });
    time_round_trips(&mut conn, timing, &mut s, select, ready).await?;
    conn.send(&FrontendMessage::Terminate).await?;
    Ok(s)
}

/// MongoDB: `buildInfo` and `isMaster` facts, an unknown command, then
/// `ping` round trips.
async fn capture_mongodb<D: Dial>(net: &mut D, timing: Timing) -> NetResult<Surface> {
    let mut s = Surface::named("mongodb");
    let mut conn = connect(net, MongoCodec).await?;
    let mut rid = 0i32;
    let mut command = |name: &str| {
        rid += 1;
        MongoMessage::msg(rid, doc! { name => 1i32, "$db" => "admin" })
    };

    conn.send(&command("buildInfo")).await?;
    let reply_doc = reply(conn.recv().await?, "buildInfo reply")?;
    let info = reply(reply_doc.command_doc(), "buildInfo body")?;
    if let Some(version) = info.get_str("version") {
        s.banner = version.to_string();
        s.push_fact("version", version);
    }
    if let Some(sha) = info.get_str("gitVersion") {
        s.push_fact("gitVersion", sha);
    }

    conn.send(&command("isMaster")).await?;
    let reply_doc = reply(conn.recv().await?, "isMaster reply")?;
    let hello = reply(reply_doc.command_doc(), "isMaster body")?;
    if let Some(wire) = hello.get_f64("maxWireVersion") {
        let mut text = String::new();
        #[allow(
            clippy::cast_possible_truncation,
            reason = "`as` saturates; the fact is the integer part a scanner reads"
        )]
        let _ = write!(text, "{}", wire as i64);
        s.push_fact("maxWireVersion", text);
    }

    conn.send(&command("fingerprintProbe")).await?;
    let reply_doc = reply(conn.recv().await?, "error reply")?;
    s.error_unknown = render_doc(reply(reply_doc.command_doc(), "error body")?);

    time_round_trips(&mut conn, timing, &mut s, || command("ping"), |_| true).await?;
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
async fn capture_redis<D: Dial>(net: &mut D, timing: Timing) -> NetResult<Surface> {
    let mut s = Surface::named("redis");
    let mut conn = connect(net, RespCodec::client()).await?;
    conn.send(&RespValue::command(&["HELLO"])).await?;
    if let RespValue::Array(fields) = reply(conn.recv().await?, "HELLO reply")? {
        let mut it = fields.iter();
        while let (Some(key), Some(value)) = (it.next(), it.next()) {
            let Some(key) = key.as_text() else {
                continue;
            };
            let value = match value {
                RespValue::Integer(i) => i.to_string(),
                other => other.as_text().unwrap_or_default(),
            };
            s.push_fact(&key, value);
        }
    }
    conn.send(&RespValue::command(&["INFO", "server"])).await?;
    if let Some(text) = reply(conn.recv().await?, "INFO reply")?.as_text() {
        s.banner = text;
    }
    conn.send(&RespValue::command(&["FINGERPRINTPROBE", "arg"]))
        .await?;
    if let RespValue::Error(message) = reply(conn.recv().await?, "error reply")? {
        s.error_unknown = message;
    }
    let ping = || RespValue::command(&["PING"]);
    time_round_trips(&mut conn, timing, &mut s, ping, |_| true).await?;
    Ok(s)
}

/// An HTTP family: the `GET /` banner and its facts, a 404 for
/// `missing_path`, then banner round trips.
async fn capture_http<D: Dial>(
    net: &mut D,
    timing: Timing,
    family: &str,
    banner_facts: fn(&Value, &mut Surface),
    missing_path: &str,
) -> NetResult<Surface> {
    let mut s = Surface::named(family);
    let mut conn = connect(net, http::HttpClientCodec).await?;
    let root = || http::HttpRequest::new("GET", "/");
    conn.send(&root()).await?;
    s.banner = reply(conn.recv().await?, "banner reply")?.body_text();
    if let Ok(value) = json::parse(s.banner.as_bytes()) {
        banner_facts(&value, &mut s);
    }
    conn.send(&http::HttpRequest::new("GET", missing_path))
        .await?;
    s.error_unknown = reply(conn.recv().await?, "404 reply")?.body_text();
    time_round_trips(&mut conn, timing, &mut s, root, |_| true).await?;
    Ok(s)
}

/// Elasticsearch: root document facts, a missing-index 404, then
/// banner round trips.
async fn capture_elastic<D: Dial>(net: &mut D, timing: Timing) -> NetResult<Surface> {
    let facts = |value: &Value, s: &mut Surface| {
        let version = value.get("version");
        let field = |name: &str| version.and_then(|v| v.get(name)).and_then(Value::as_str);
        if let Some(number) = field("number") {
            s.push_fact("version", number);
        }
        if let Some(lucene) = field("lucene_version") {
            s.push_fact("lucene_version", lucene);
        }
    };
    capture_http(net, timing, "elastic", facts, "/fingerprint_probe_missing").await
}

/// CouchDB: welcome document facts, a missing-database 404, then
/// banner round trips.
async fn capture_couchdb<D: Dial>(net: &mut D, timing: Timing) -> NetResult<Surface> {
    let facts = |value: &Value, s: &mut Surface| {
        for key in ["version", "git_sha"] {
            if let Some(text) = value.get(key).and_then(Value::as_str) {
                s.push_fact(key, text);
            }
        }
    };
    let missing = "/fingerprint_probe_missing_db";
    capture_http(net, timing, "couchdb", facts, missing).await
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probes::FAMILIES;
    use crate::{evaluate, Scorecard};

    /// The tier-1 detectability ratchet: the six machines, their round
    /// trips timed by the seeded LAN shaper, show no tell, and their card
    /// is the committed baseline (`fingerprint_scorecard --check`).
    #[test]
    fn shaped_fleet_scores_zero_and_matches_the_baseline() {
        let surfaces = capture_in_memory(Timing::Shaped).unwrap();
        assert_eq!(surfaces.len(), TARGETS.len());
        let (findings, card) = evaluate(&surfaces);
        assert!(findings.is_empty(), "the machines leak tells: {findings:?}");
        assert_eq!(card.total(), 0);

        let committed = include_str!("../../../FINGERPRINT_BASELINE.json");
        let baseline = Scorecard::parse_json(committed).unwrap();
        assert_eq!(baseline, card, "committed baseline is out of date");
        Scorecard::ratchet(&baseline, &card).unwrap();
    }

    /// With every round trip timed at zero the timing stage fires its
    /// three findings for every family, and nothing else does: every
    /// surface is captured whole and every content stage is clean.
    #[test]
    fn unshaped_engine_still_captures_coherent_surfaces() {
        let surfaces = capture_in_memory(|_| Timing::Zero).unwrap();
        assert_eq!(surfaces.len(), TARGETS.len());
        for s in &surfaces {
            assert!(!s.banner.is_empty(), "{}: no banner", s.family);
            assert!(!s.facts.is_empty(), "{}: no facts", s.family);
            assert!(
                !s.error_unknown.is_empty() || !s.error_syntax.is_empty(),
                "{}: no error text captured",
                s.family
            );
        }
        let (findings, _) = evaluate(&surfaces);
        for family in FAMILIES {
            let drawn: Vec<_> = findings
                .iter()
                .filter(|f| f.family == family)
                .map(|f| (f.probe, f.weight))
                .collect();
            let timing = [("timing", 3), ("timing", 2), ("timing", 1)];
            assert_eq!(drawn, timing, "{family}: {findings:?}");
        }
        assert_eq!(findings.len(), 3 * FAMILIES.len(), "{findings:?}");
    }
}
