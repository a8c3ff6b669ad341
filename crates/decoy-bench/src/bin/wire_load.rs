//! `wire_load`: loopback sessions/sec load harness for the six wire
//! protocols.
//!
//! Spawns one honeypot per protocol (the same deploy specs the experiment
//! fleet uses), then drives one attack-client script per protocol over
//! real TCP loopback sockets (`decoy_fleet::driver::run_session_with`, the
//! network replay's transport) at maximum rate and reports, per protocol:
//!
//! * `sessions_per_sec` — completed sessions over wall-clock time; a
//!   session fails on an error, and where the script logs in, on a login
//!   the honeypot refused
//! * `p50_ms` / `p99_ms` — per-session latency percentiles
//! * `bytes_per_sec` — bytes on the wire (both directions, the PROXY
//!   header included), counted at the socket
//!
//! Run: `cargo run -p decoy-bench --release --bin wire_load -- \
//!          --sessions 500 --concurrency 8 --out BENCH_wire.json`
//!
//! The emitted JSON matches the committed `BENCH_wire.json` schema, so a
//! networked machine can regenerate the file in place; `decoy-xtask
//! analyze` tracks placeholder freshness of the committed copy.

use decoy_agents::actors::TargetSelector;
use decoy_agents::schedule::PlannedSession;
use decoy_agents::scripts::SessionScript;
use decoy_base::json::{object, Value};
use decoy_base::time::{Clock, EXPERIMENT_START};
use decoy_fleet::driver::run_session_with;
use decoy_store::{ConfigVariant, Dbms, EventKindRef, EventStore, HoneypotId, InteractionLevel};
use std::net::{Ipv4Addr, SocketAddr};
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

    fn poll_flush(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<std::io::Result<()>> {
        Pin::new(&mut self.inner).poll_flush(cx)
    }

    fn poll_shutdown(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<std::io::Result<()>> {
        Pin::new(&mut self.inner).poll_shutdown(cx)
    }
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

/// Drive `sessions` runs of `session` against `addr` with `concurrency`
/// parallel clients; returns the aggregated report. A run with any error
/// counts as one failed session. Where the script logs in, `login_log` is
/// the honeypot's store, and a run it logged no successful login for fails
/// too; a run can fail both ways, so the larger of the two counts is a
/// floor on the failures.
async fn drive(
    proto: &'static str,
    addr: SocketAddr,
    sessions: usize,
    concurrency: usize,
    session: PlannedSession,
    login_log: Option<&EventStore>,
) -> ProtoReport {
    let session = Arc::new(session);
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
        let session = Arc::clone(&session);
        let bytes = Arc::clone(&bytes);
        workers.spawn(async move {
            let count = |inner: TcpStream| {
                inner.set_nodelay(true)?;
                let bytes = Arc::clone(&bytes);
                Ok(Counted { inner, bytes })
            };
            let mut latencies = Vec::with_capacity(n);
            let mut errors = 0usize;
            for _ in 0..n {
                let t0 = Instant::now();
                if run_session_with(addr, &session, count).await.errors > 0 {
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
    if let Some(store) = login_log {
        let success =
            |kind: &EventKindRef| matches!(kind, EventKindRef::LoginAttempt { success: true, .. });
        let logins = store.read(|log| log.iter().filter(|e| success(&e.kind)).count());
        errors = errors.max(sessions.saturating_sub(logins));
    }
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

    use ConfigVariant::*;
    use InteractionLevel::*;
    let id = |dbms, level, config| HoneypotId::new(dbms, level, config, 0);
    let creds = vec![("sa".to_string(), "wire".to_string())];
    // (protocol, honeypot, script, whether the script logs in)
    let targets = [
        (
            "pgwire",
            id(Dbms::Postgres, Medium, Default),
            SessionScript::PgScout,
            true,
        ),
        (
            "mysql",
            id(Dbms::MySql, Medium, Default),
            SessionScript::MysqlScout,
            true,
        ),
        (
            "resp",
            id(Dbms::Redis, Medium, Default),
            SessionScript::AbcBot,
            false,
        ),
        (
            "tds",
            id(Dbms::Mssql, Low, MultiService),
            SessionScript::MssqlBrute { creds },
            false,
        ),
        (
            "mongo",
            id(Dbms::MongoDb, High, FakeData),
            SessionScript::MongoScout { deep: false },
            false,
        ),
        (
            "http",
            id(Dbms::Elastic, Medium, Default),
            SessionScript::ElasticScout { deep: true },
            false,
        ),
    ];

    let mut per_proto = std::collections::BTreeMap::new();
    for (proto, id, script, logs_in) in targets {
        let store = EventStore::new();
        let spec = HoneypotSpec::loopback(id, Clock::simulated(), 11);
        let hp = spawn(store.clone(), spec).await.expect("spawn honeypot");
        let session = PlannedSession {
            ts: EXPERIMENT_START,
            actor_idx: 0,
            src: Ipv4Addr::new(198, 51, 100, 7),
            target: TargetSelector {
                dbms: id.dbms,
                level: id.level,
                config: Some(id.config),
            },
            script,
        };
        let login_log = logs_in.then_some(&*store);
        let report = drive(proto, hp.addr(), sessions, concurrency, session, login_log).await;
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
            "loopback TCP against the deploy-spec honeypots; one attack-client script per protocol through the network replay's transport; bytes counted at the socket in both directions".into(),
        ),
    ]);
    object([
        ("bench", "wire_load".into()),
        ("command", command.into()),
        ("dataset", dataset),
        ("targets", Value::Object(per_proto)),
    ])
}
