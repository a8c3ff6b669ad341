//! Failure injection: honeypots face adversarial and broken clients by
//! definition. These tests throw pathological traffic at every family and
//! assert the listener keeps serving, nothing panics, and the hostile input
//! is *logged* rather than dropped on the floor.
//!
//! Synchronization discipline: every "did the server see it?" check waits
//! on the event log via [`common::wait_for_events`] — never on bare sleeps,
//! which made this suite timing-sensitive on loaded CI machines.

mod common;

use common::wait_for_events;
use decoy_base::time::Clock;
use decoy_base::Rng;
use decoy_core::deployment::instance_seed;
use decoy_fleet::deploy::{spawn, spawn_with_options, HoneypotSpec, RunningHoneypot};
use decoy_net::framed::Framed;
use decoy_net::server::{ListenerOptions, SessionLimits};
use decoy_store::{ConfigVariant, Dbms, EventKindRef, EventStore, HoneypotId, InteractionLevel};
use decoy_wire::resp::{RespCodec, RespValue};
use std::sync::Arc;
use std::time::Duration;
use tokio::io::AsyncWriteExt;
use tokio::net::TcpStream;

/// Log-wait budget: generous because CI machines stall, harmless when fast.
const LOG_WAIT: Duration = Duration::from_secs(20);

async fn spawn_family(
    dbms: Dbms,
    level: InteractionLevel,
    config: ConfigVariant,
) -> (RunningHoneypot, Arc<EventStore>) {
    let store = EventStore::new();
    let id = HoneypotId::new(dbms, level, config, 0);
    let hp = spawn(
        store.clone(),
        HoneypotSpec::loopback(id, Clock::simulated(), instance_seed(3, id)),
    )
    .await
    .expect("spawn");
    (hp, store)
}

fn count_kind(store: &EventStore, pred: impl Fn(EventKindRef<'_>) -> bool) -> usize {
    store.read(|log| log.iter().filter(|e| pred(e.kind)).count())
}

/// Every family survives random garbage and keeps serving real clients.
#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn garbage_flood_does_not_wedge_any_family() {
    let families = [
        (
            Dbms::MySql,
            InteractionLevel::Low,
            ConfigVariant::MultiService,
        ),
        (
            Dbms::Postgres,
            InteractionLevel::Low,
            ConfigVariant::MultiService,
        ),
        (
            Dbms::Redis,
            InteractionLevel::Low,
            ConfigVariant::MultiService,
        ),
        (
            Dbms::Mssql,
            InteractionLevel::Low,
            ConfigVariant::MultiService,
        ),
        (
            Dbms::Redis,
            InteractionLevel::Medium,
            ConfigVariant::Default,
        ),
        (
            Dbms::Postgres,
            InteractionLevel::Medium,
            ConfigVariant::Default,
        ),
        (
            Dbms::Elastic,
            InteractionLevel::Medium,
            ConfigVariant::Default,
        ),
        (
            Dbms::MongoDb,
            InteractionLevel::High,
            ConfigVariant::FakeData,
        ),
    ];
    let mut rng = Rng::seed_from_u64(0xBAD);
    for (dbms, level, config) in families {
        let (hp, store) = spawn_family(dbms, level, config).await;
        // three floods of random bytes
        for _ in 0..3 {
            let garbage: Vec<u8> = (0..512)
                .flat_map(|_| rng.next_u64().to_le_bytes())
                .collect();
            if let Ok(mut stream) = TcpStream::connect(hp.addr()).await {
                let _ = stream.write_all(&garbage).await;
                let _ = stream.flush().await;
                drop(stream);
            }
        }
        // wait for the floods to land in the log: connects plus a hostile
        // trace (fault capture), not just the TCP handshake
        let logged = wait_for_events(
            &store,
            |s| {
                count_kind(s, |k| k == EventKindRef::Connect) >= 3
                    && count_kind(s, |k| {
                        matches!(
                            k,
                            EventKindRef::Malformed { .. } | EventKindRef::Payload { .. }
                        )
                    }) >= 1
            },
            LOG_WAIT,
        )
        .await;
        assert!(logged, "{dbms:?}: hostile input left no trace");
        // the listener still answers a legitimate probe afterwards
        let probe = TcpStream::connect(hp.addr()).await;
        assert!(probe.is_ok(), "{dbms:?} listener wedged after garbage");
        drop(probe);
        assert!(
            wait_for_events(
                &store,
                |s| count_kind(s, |k| k == EventKindRef::Connect) >= 4,
                LOG_WAIT,
            )
            .await,
            "{dbms:?}: probe connect never logged"
        );
        hp.shutdown().await;
    }
}

/// Oversized frames are rejected without killing the listener.
#[tokio::test]
async fn oversized_frame_is_bounded() {
    let (hp, store) = spawn_family(
        Dbms::Redis,
        InteractionLevel::Medium,
        ConfigVariant::Default,
    )
    .await;
    let mut stream = TcpStream::connect(hp.addr()).await.unwrap();
    // declare a 100MB bulk string (over the 4MiB frame cap) and start
    // streaming zeros; the codec must abort rather than buffer it all
    stream
        .write_all(b"*2\r\n$3\r\nSET\r\n$104857600\r\n")
        .await
        .unwrap();
    let chunk = vec![0u8; 64 * 1024];
    for _ in 0..200 {
        if stream.write_all(&chunk).await.is_err() {
            break; // server already hung up — exactly what we want
        }
    }
    drop(stream);
    // the aborted session must close out in the log before we re-probe
    assert!(
        wait_for_events(
            &store,
            |s| count_kind(s, |k| k == EventKindRef::Disconnect) >= 1,
            LOG_WAIT,
        )
        .await,
        "oversized session never closed in the log"
    );
    // listener alive
    let stream = TcpStream::connect(hp.addr()).await.unwrap();
    let mut f = Framed::new(stream, RespCodec::client());
    f.write_frame(&RespValue::command(&["PING"])).await.unwrap();
    assert_eq!(
        f.read_frame().await.unwrap().unwrap(),
        RespValue::Simple("PONG".into())
    );
    hp.shutdown().await;
    assert!(!store.is_empty());
}

/// A storm of concurrent connect/disconnect clients is fully accounted for.
#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn concurrent_connect_storm_is_fully_logged() {
    let (hp, store) = spawn_family(
        Dbms::Mssql,
        InteractionLevel::Low,
        ConfigVariant::MultiService,
    )
    .await;
    let addr = hp.addr();
    let mut join = tokio::task::JoinSet::new();
    const STORM: usize = 150;
    for _ in 0..STORM {
        join.spawn(async move {
            if let Ok(mut s) = TcpStream::connect(addr).await {
                let _ = s.flush().await;
            }
        });
    }
    while join.join_next().await.is_some() {}
    // A client's connect() returns on SYN-ACK, which can be before the
    // listener has accept()ed it from the backlog — wait on the *log*, not
    // on the socket API, before shutting down.
    wait_for_events(
        &store,
        |s| count_kind(s, |k| k == EventKindRef::Connect) >= STORM,
        LOG_WAIT,
    )
    .await;
    hp.shutdown().await;
    let connects = count_kind(&store, |k| k == EventKindRef::Connect);
    assert!(
        connects >= STORM * 9 / 10,
        "only {connects}/{STORM} storm connections logged"
    );
}

/// Half-written protocol exchanges (client dies mid-handshake) leave clean
/// connect/disconnect pairs.
#[tokio::test]
async fn half_open_handshakes_close_cleanly() {
    let (hp, store) = spawn_family(
        Dbms::Postgres,
        InteractionLevel::Medium,
        ConfigVariant::Default,
    )
    .await;
    // partial startup packet: length says 50 bytes, we send 8 and die
    let mut stream = TcpStream::connect(hp.addr()).await.unwrap();
    stream.write_all(&[0, 0, 0, 50, 0, 3, 0, 0]).await.unwrap();
    stream.flush().await.unwrap();
    drop(stream);
    assert!(
        wait_for_events(
            &store,
            |s| count_kind(s, |k| k == EventKindRef::Disconnect) >= 1,
            LOG_WAIT,
        )
        .await,
        "half-open session never closed"
    );
    hp.shutdown().await;
    let connects = count_kind(&store, |k| k == EventKindRef::Connect);
    let disconnects = count_kind(&store, |k| k == EventKindRef::Disconnect);
    assert_eq!(connects, 1);
    assert_eq!(disconnects, 1, "session did not close: {:?}", store.all());
}

/// Slowloris regression: a client dripping one byte at a time — fast enough
/// to defeat any idle timeout — must be evicted by the listener-level
/// session deadline on every medium/high family. Before session limits
/// moved into [`SessionLimits`], a drip could hold a session open forever.
#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn slow_drip_clients_are_evicted_by_the_session_deadline() {
    let families = [
        (
            Dbms::Redis,
            InteractionLevel::Medium,
            ConfigVariant::Default,
        ),
        (
            Dbms::Postgres,
            InteractionLevel::Medium,
            ConfigVariant::Default,
        ),
        (
            Dbms::Elastic,
            InteractionLevel::Medium,
            ConfigVariant::Default,
        ),
        (
            Dbms::MySql,
            InteractionLevel::Medium,
            ConfigVariant::Default,
        ),
        (
            Dbms::CouchDb,
            InteractionLevel::Medium,
            ConfigVariant::FakeData,
        ),
        (
            Dbms::MongoDb,
            InteractionLevel::High,
            ConfigVariant::FakeData,
        ),
    ];
    for (dbms, level, config) in families {
        let store = EventStore::new();
        let id = HoneypotId::new(dbms, level, config, 0);
        let options = ListenerOptions {
            clock: Clock::simulated(),
            limits: SessionLimits {
                // the deadline must win: idle window far above drip cadence
                deadline: Some(Duration::from_millis(700)),
                idle: Some(Duration::from_secs(30)),
                byte_budget: None,
            },
            ..ListenerOptions::default()
        };
        let hp = spawn_with_options(
            store.clone(),
            HoneypotSpec::loopback(id, Clock::simulated(), instance_seed(5, id)),
            options,
        )
        .await
        .expect("spawn");
        let mut stream = TcpStream::connect(hp.addr()).await.expect("connect");
        let start = std::time::Instant::now();
        let mut evicted = false;
        // drip for up to 8s; the 700ms deadline must cut us long before that
        for _ in 0..320 {
            if stream.write_all(&[0x2a]).await.is_err() || stream.flush().await.is_err() {
                evicted = true;
                break;
            }
            tokio::time::sleep(Duration::from_millis(25)).await;
        }
        assert!(evicted, "{dbms:?}: slow drip was never evicted");
        assert!(
            start.elapsed() < Duration::from_secs(6),
            "{dbms:?}: eviction took {:?}",
            start.elapsed()
        );
        // the evicted session still leaves a clean connect/disconnect pair
        assert!(
            wait_for_events(
                &store,
                |s| count_kind(s, |k| k == EventKindRef::Disconnect) >= 1,
                LOG_WAIT,
            )
            .await,
            "{dbms:?}: evicted session never logged Disconnect"
        );
        drop(stream);
        hp.shutdown().await;
    }
}
