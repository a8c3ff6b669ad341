//! `wire_load`: loopback sessions/sec load harness for the six wire
//! protocols.
//!
//! Spawns one honeypot per protocol (the same deploy specs the experiment
//! fleet uses), then drives scripted client sessions over real TCP
//! loopback sockets at maximum rate and reports, per protocol:
//!
//! * `sessions_per_sec` — completed sessions over wall-clock time
//! * `p50_ms` / `p99_ms` — per-session latency percentiles
//! * `bytes_per_sec` — bytes on the wire (both directions), counted at
//!   the socket so vectored writes and pooled-buffer reads are included
//!
//! Run: `cargo run -p decoy-bench --release --bin wire_load -- \
//!          --sessions 500 --concurrency 8 --out BENCH_wire.json`
//!
//! The emitted JSON matches the committed `BENCH_wire.json` schema, so a
//! networked machine can regenerate the file in place; `decoy-xtask
//! analyze` tracks placeholder freshness of the committed copy.

use decoy_base::json::{object, Value};
use decoy_base::time::Clock;
use decoy_net::framed::Framed;
use decoy_store::{ConfigVariant, Dbms, EventStore, HoneypotId, InteractionLevel};
use decoy_wire::mongo::bson::doc;
use decoy_wire::mongo::{MongoBody, MongoCodec, MongoMessage};
use decoy_wire::{http, mysql, pgwire, resp, tds};
use std::io::IoSlice;
use std::net::SocketAddr;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::Instant;
use tokio::io::{AsyncRead, AsyncWrite, ReadBuf};
use tokio::net::TcpStream;

/// A stream wrapper that counts bytes in both directions at the socket.
struct Counted {
    inner: TcpStream,
    bytes: Arc<AtomicU64>,
}

impl AsyncRead for Counted {
    fn poll_read(
        mut self: Pin<&mut Self>,
        cx: &mut Context<'_>,
        buf: &mut ReadBuf<'_>,
    ) -> Poll<std::io::Result<()>> {
        let before = buf.filled().len();
        let poll = Pin::new(&mut self.inner).poll_read(cx, buf);
        if let Poll::Ready(Ok(())) = &poll {
            let n = buf.filled().len().saturating_sub(before);
            self.bytes.fetch_add(n as u64, Ordering::Relaxed);
        }
        poll
    }
}

impl AsyncWrite for Counted {
    fn poll_write(
        mut self: Pin<&mut Self>,
        cx: &mut Context<'_>,
        buf: &[u8],
    ) -> Poll<std::io::Result<usize>> {
        let poll = Pin::new(&mut self.inner).poll_write(cx, buf);
        if let Poll::Ready(Ok(n)) = &poll {
            self.bytes.fetch_add(*n as u64, Ordering::Relaxed);
        }
        poll
    }

    fn poll_write_vectored(
        mut self: Pin<&mut Self>,
        cx: &mut Context<'_>,
        bufs: &[IoSlice<'_>],
    ) -> Poll<std::io::Result<usize>> {
        let poll = Pin::new(&mut self.inner).poll_write_vectored(cx, bufs);
        if let Poll::Ready(Ok(n)) = &poll {
            self.bytes.fetch_add(*n as u64, Ordering::Relaxed);
        }
        poll
    }

    fn is_write_vectored(&self) -> bool {
        self.inner.is_write_vectored()
    }

    fn poll_flush(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<std::io::Result<()>> {
        Pin::new(&mut self.inner).poll_flush(cx)
    }

    fn poll_shutdown(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<std::io::Result<()>> {
        Pin::new(&mut self.inner).poll_shutdown(cx)
    }
}

async fn dial(addr: SocketAddr, bytes: Arc<AtomicU64>) -> std::io::Result<Counted> {
    let inner = TcpStream::connect(addr).await?;
    inner.set_nodelay(true)?;
    Ok(Counted { inner, bytes })
}

type Fail = Box<dyn std::error::Error + Send + Sync>;

/// One scripted pgwire session: startup, cleartext auth, one query, quit.
async fn pg_session(addr: SocketAddr, bytes: Arc<AtomicU64>) -> Result<(), Fail> {
    let stream = dial(addr, bytes).await?;
    let mut f = Framed::new(stream, pgwire::PgClientCodec::new());
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
            pgwire::BackendMessage::ReadyForQuery { .. } => break,
            pgwire::BackendMessage::ErrorResponse { .. } => return Err("login rejected".into()),
            _ => continue,
        }
    }
    f.write_frame(&pgwire::FrontendMessage::Query("SELECT version();".into()))
        .await?;
    loop {
        match f.read_frame().await?.ok_or("closed mid query")? {
            pgwire::BackendMessage::ReadyForQuery { .. } => break,
            _ => continue,
        }
    }
    f.write_frame(&pgwire::FrontendMessage::Terminate).await?;
    Ok(())
}

/// MySQL: greeting, login, one COM_QUERY result set, COM_QUIT.
async fn mysql_session(addr: SocketAddr, bytes: Arc<AtomicU64>) -> Result<(), Fail> {
    let stream = dial(addr, bytes).await?;
    let mut f = Framed::new(stream, mysql::MySqlCodec);
    let greeting = f.read_frame().await?.ok_or("no greeting")?;
    mysql::Greeting::parse(&greeting.payload)?;
    let login = mysql::LoginRequest::cleartext("root", "wire", None);
    f.write_frame(&mysql::MySqlPacket {
        seq: greeting.seq.wrapping_add(1),
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
    for _ in 0..5 {
        f.read_frame().await?.ok_or("result truncated")?;
    }
    f.write_frame(&mysql::MySqlPacket {
        seq: 0,
        payload: vec![0x01].into(),
    })
    .await?;
    Ok(())
}

/// RESP: PING, SET, GET.
async fn resp_session(addr: SocketAddr, bytes: Arc<AtomicU64>) -> Result<(), Fail> {
    let stream = dial(addr, bytes).await?;
    let mut f = Framed::new(stream, resp::RespCodec::client());
    for cmd in [
        resp::RespValue::command(&["PING"]),
        resp::RespValue::command(&["SET", "wire:probe", "1"]),
        resp::RespValue::command(&["GET", "wire:probe"]),
    ] {
        f.write_frame(&cmd).await?;
        f.read_frame().await?.ok_or("server closed")?;
    }
    Ok(())
}

/// TDS: prelogin exchange, LOGIN7, error token (the brute-force hot path).
async fn tds_session(addr: SocketAddr, bytes: Arc<AtomicU64>) -> Result<(), Fail> {
    let stream = dial(addr, bytes).await?;
    let mut f = Framed::new(stream, tds::TdsCodec);
    f.write_frame(&tds::TdsPacket::eom(
        tds::PKT_PRELOGIN,
        tds::build_prelogin(&[
            (0x00, vec![15, 0, 0, 0, 0, 0].into()),
            (0x01, vec![2].into()),
        ]),
    ))
    .await?;
    f.read_frame().await?.ok_or("no prelogin reply")?;
    let login = tds::Login7 {
        hostname: "WIRE-LOAD".into(),
        username: "sa".into(),
        password: "wire".into(),
        appname: "wire_load".into(),
        servername: addr.ip().to_string(),
        database: String::new(),
    };
    f.write_frame(&tds::TdsPacket::eom(tds::PKT_LOGIN7, login.build()))
        .await?;
    f.read_frame().await?.ok_or("no login reply")?;
    Ok(())
}

/// MongoDB: isMaster then buildInfo over OP_MSG.
async fn mongo_session(addr: SocketAddr, bytes: Arc<AtomicU64>) -> Result<(), Fail> {
    let stream = dial(addr, bytes).await?;
    let mut f = Framed::new(stream, MongoCodec);
    let mut rid = 0i32;
    for cmd in [
        doc! { "isMaster" => 1i32, "$db" => "admin" },
        doc! { "buildInfo" => 1i32, "$db" => "admin" },
    ] {
        rid += 1;
        f.write_frame(&MongoMessage::msg(rid, cmd)).await?;
        let reply = f.read_frame().await?.ok_or("server closed")?;
        if !matches!(reply.body, MongoBody::Msg { .. }) {
            return Err("unexpected reply opcode".into());
        }
    }
    Ok(())
}

/// HTTP: banner GET plus a `_search` POST.
async fn http_session(addr: SocketAddr, bytes: Arc<AtomicU64>) -> Result<(), Fail> {
    let stream = dial(addr, bytes).await?;
    let mut f = Framed::new(stream, http::HttpClientCodec);
    for req in [
        http::HttpRequest::new("GET", "/"),
        http::HttpRequest::new("POST", "/_search")
            .with_body("application/json", r#"{"query":{"match_all":{}}}"#),
    ] {
        f.write_frame(&req).await?;
        f.read_frame().await?.ok_or("server closed")?;
    }
    Ok(())
}

/// Per-protocol results.
struct ProtoReport {
    proto: &'static str,
    sessions: usize,
    errors: usize,
    wall_secs: f64,
    latencies_ms: Vec<f64>,
    bytes: u64,
}

impl ProtoReport {
    fn percentile(&self, p: f64) -> f64 {
        if self.latencies_ms.is_empty() {
            return 0.0;
        }
        let rank = (p * (self.latencies_ms.len() - 1) as f64).round() as usize;
        self.latencies_ms[rank.min(self.latencies_ms.len() - 1)]
    }

    fn json(&self) -> Value {
        let ok = self.sessions - self.errors;
        let per_sec = (ok as f64 / self.wall_secs * 10.0).round() / 10.0;
        let ms = |p: f64| Value::from((self.percentile(p) * 1000.0).round() / 1000.0);
        object([
            ("sessions", self.sessions.into()),
            ("errors", self.errors.into()),
            ("sessions_per_sec", per_sec.into()),
            ("p50_ms", ms(0.50)),
            ("p99_ms", ms(0.99)),
            (
                "bytes_per_sec",
                (self.bytes as f64 / self.wall_secs).round().into(),
            ),
        ])
    }
}

type SessionFn = fn(
    SocketAddr,
    Arc<AtomicU64>,
) -> Pin<Box<dyn std::future::Future<Output = Result<(), Fail>> + Send>>;

/// Drive `sessions` scripted sessions against `addr` with `concurrency`
/// parallel clients; returns the aggregated report.
async fn drive(
    proto: &'static str,
    addr: SocketAddr,
    sessions: usize,
    concurrency: usize,
    run: SessionFn,
) -> ProtoReport {
    let bytes = Arc::new(AtomicU64::new(0));
    let started = Instant::now();
    let mut workers = tokio::task::JoinSet::new();
    let per_worker = sessions.div_ceil(concurrency.max(1));
    let mut assigned = 0usize;
    for _ in 0..concurrency.max(1) {
        let n = per_worker.min(sessions - assigned);
        if n == 0 {
            break;
        }
        assigned += n;
        let bytes = bytes.clone();
        workers.spawn(async move {
            let mut latencies = Vec::with_capacity(n);
            let mut errors = 0usize;
            for _ in 0..n {
                let t0 = Instant::now();
                if run(addr, bytes.clone()).await.is_err() {
                    errors += 1;
                }
                latencies.push(t0.elapsed().as_secs_f64() * 1000.0);
            }
            (latencies, errors)
        });
    }
    let mut latencies_ms = Vec::with_capacity(sessions);
    let mut errors = 0usize;
    while let Some(res) = workers.join_next().await {
        if let Ok((lat, err)) = res {
            latencies_ms.extend(lat);
            errors += err;
        }
    }
    let wall_secs = started.elapsed().as_secs_f64().max(1e-9);
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    ProtoReport {
        proto,
        sessions,
        errors,
        wall_secs,
        latencies_ms,
        bytes: bytes.load(Ordering::Relaxed),
    }
}

fn parse_args() -> (usize, usize, Option<String>) {
    let mut sessions = 200usize;
    let mut concurrency = 8usize;
    let mut out = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--sessions" => {
                sessions = args.next().and_then(|v| v.parse().ok()).unwrap_or(sessions);
            }
            "--concurrency" => {
                concurrency = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(concurrency);
            }
            "--out" => out = args.next(),
            "--help" | "-h" => {
                eprintln!(
                    "usage: wire_load [--sessions N] [--concurrency C] [--out BENCH_wire.json]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    (sessions, concurrency, out)
}

fn main() {
    let (sessions, concurrency, out) = parse_args();
    let runtime = tokio::runtime::Builder::new_multi_thread()
        .enable_all()
        .build()
        .expect("tokio runtime");
    let report = runtime.block_on(run_all(sessions, concurrency));
    let rendered = format!("{report:#}");
    match out {
        Some(path) => {
            std::fs::write(&path, format!("{rendered}\n")).expect("write report");
            eprintln!("wrote {path}");
        }
        None => println!("{rendered}"),
    }
}

async fn run_all(sessions: usize, concurrency: usize) -> Value {
    use decoy_fleet::deploy::{spawn, HoneypotSpec};

    let targets: [(&'static str, HoneypotId, SessionFn); 6] = [
        (
            "pgwire",
            HoneypotId::new(
                Dbms::Postgres,
                InteractionLevel::Medium,
                ConfigVariant::Default,
                0,
            ),
            |a, b| Box::pin(pg_session(a, b)),
        ),
        (
            "mysql",
            HoneypotId::new(
                Dbms::MySql,
                InteractionLevel::Medium,
                ConfigVariant::Default,
                0,
            ),
            |a, b| Box::pin(mysql_session(a, b)),
        ),
        (
            "resp",
            HoneypotId::new(
                Dbms::Redis,
                InteractionLevel::Medium,
                ConfigVariant::Default,
                0,
            ),
            |a, b| Box::pin(resp_session(a, b)),
        ),
        (
            "tds",
            HoneypotId::new(
                Dbms::Mssql,
                InteractionLevel::Low,
                ConfigVariant::MultiService,
                0,
            ),
            |a, b| Box::pin(tds_session(a, b)),
        ),
        (
            "mongo",
            HoneypotId::new(
                Dbms::MongoDb,
                InteractionLevel::High,
                ConfigVariant::FakeData,
                0,
            ),
            |a, b| Box::pin(mongo_session(a, b)),
        ),
        (
            "http",
            HoneypotId::new(
                Dbms::Elastic,
                InteractionLevel::Medium,
                ConfigVariant::Default,
                0,
            ),
            |a, b| Box::pin(http_session(a, b)),
        ),
    ];

    let mut per_proto = std::collections::BTreeMap::new();
    for (proto, id, run) in targets {
        let store = EventStore::new();
        let spec = HoneypotSpec::loopback(id, Clock::simulated(), 11);
        let hp = spawn(store.clone(), spec).await.expect("spawn honeypot");
        let report = drive(proto, hp.addr(), sessions, concurrency, run).await;
        hp.shutdown().await;
        eprintln!(
            "{:>6}: {:8.1} sessions/s  p50 {:7.3} ms  p99 {:7.3} ms  {:10.0} bytes/s  ({} errors)",
            report.proto,
            (report.sessions - report.errors) as f64 / report.wall_secs,
            report.percentile(0.50),
            report.percentile(0.99),
            report.bytes as f64 / report.wall_secs,
            report.errors,
        );
        per_proto.insert(proto.to_string(), report.json());
    }

    let command = format!(
        "cargo run -p decoy-bench --release --bin wire_load -- --sessions {sessions} --concurrency {concurrency}"
    );
    let dataset = object([
        ("sessions_per_protocol", sessions.into()),
        ("concurrency", concurrency.into()),
        (
            "note",
            "loopback TCP against the deploy-spec honeypots; scripted client sessions per protocol (auth + one command where the protocol has one)".into(),
        ),
    ]);
    object([
        ("bench", "wire_load".into()),
        ("command", command.into()),
        ("dataset", dataset),
        ("targets", Value::Object(per_proto)),
    ])
}
