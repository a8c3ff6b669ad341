//! Loopback concurrency smoke for the zero-copy wire path (DESIGN.md §11):
//! all six protocol honeypots run at once on one shared store while
//! concurrent clients hammer them with well-formed sessions. The contract:
//!
//! * every scripted client session completes without a protocol error,
//!   and every Postgres and MySQL login is let in,
//! * the honeypots record **zero** `Malformed` events — the zero-copy
//!   decoders parse concurrent well-formed traffic exactly like the
//!   buffered ones did, and
//! * with a journal attached, replaying it yields exactly the store's
//!   events (count parity + clean recovery stats), proving the pooled
//!   buffers never corrupt what gets persisted.

use decoy_agents::actors::TargetSelector;
use decoy_agents::schedule::PlannedSession;
use decoy_agents::scripts::SessionScript;
use decoy_base::time::{Clock, EXPERIMENT_START};
use decoy_fleet::deploy::{spawn, HoneypotSpec};
use decoy_fleet::driver::run_session;
use decoy_store::{
    ConfigVariant, Dbms, EventKindRef, EventStore, HoneypotId, InteractionLevel, JournalConfig,
    JournalReader, JournalWriter,
};
use std::net::Ipv4Addr;
use std::sync::Arc;

const CLIENTS_PER_PROTOCOL: usize = 6;
const SESSIONS_PER_CLIENT: usize = 3;

/// All six protocols at once, many concurrent clients each, on one shared
/// store spooling into a journal.
#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn concurrent_wire_sessions_decode_cleanly_and_journal_in_parity() {
    let dir = std::env::temp_dir().join(format!("decoy-wire-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let store = EventStore::new();
    store.with_journal(
        JournalWriter::open(JournalConfig {
            fsync: false,
            ..JournalConfig::spool(&dir)
        })
        .expect("open journal"),
    );

    use ConfigVariant::*;
    use InteractionLevel::*;
    let id = |dbms, level, config| HoneypotId::new(dbms, level, config, 0);
    let creds = vec![("sa".to_string(), "smoke".to_string())];
    let targets = [
        (id(Dbms::Postgres, Medium, Default), SessionScript::PgScout),
        (id(Dbms::MySql, Medium, Default), SessionScript::MysqlScout),
        (id(Dbms::Redis, Medium, Default), SessionScript::AbcBot),
        (
            id(Dbms::Mssql, Low, MultiService),
            SessionScript::MssqlBrute { creds },
        ),
        (
            id(Dbms::MongoDb, High, FakeData),
            SessionScript::MongoScout { deep: false },
        ),
        (
            id(Dbms::Elastic, Medium, Default),
            SessionScript::ElasticScout { deep: true },
        ),
    ];
    let mut running = Vec::new();
    let mut clients = tokio::task::JoinSet::new();
    for (proto, (id, script)) in targets.into_iter().enumerate() {
        let spec = HoneypotSpec::loopback(id, Clock::simulated(), 7);
        let hp = spawn(store.clone(), spec).await.expect("spawn honeypot");
        let addr = hp.addr();
        running.push(hp);
        for client in 0..CLIENTS_PER_PROTOCOL {
            let session = Arc::new(PlannedSession {
                ts: EXPERIMENT_START,
                actor_idx: client,
                src: Ipv4Addr::new(198, 51, 100, client as u8),
                target: TargetSelector {
                    dbms: id.dbms,
                    level: id.level,
                    config: Some(id.config),
                },
                script: script.clone(),
            });
            clients.spawn(async move {
                for _ in 0..SESSIONS_PER_CLIENT {
                    let outcome = run_session(addr, &session).await;
                    if outcome.errors > 0 {
                        return Err(format!("protocol #{proto} session failed: {outcome:?}"));
                    }
                }
                Ok(())
            });
        }
    }
    while let Some(joined) = clients.join_next().await {
        joined.expect("client task").expect("client session");
    }

    for hp in running {
        hp.shutdown().await;
    }

    // zero decode errors: every event the fleet recorded parsed cleanly
    let malformed = store.read(|log| {
        log.iter()
            .filter(|e| matches!(e.kind, EventKindRef::Malformed { .. }))
            .count()
    });
    assert_eq!(
        malformed, 0,
        "well-formed concurrent traffic must not misparse"
    );
    // a refused login is no protocol error: count the ones let in
    for dbms in [Dbms::Postgres, Dbms::MySql] {
        let logins = store.read(|log| {
            log.iter()
                .filter(|e| e.honeypot.dbms == dbms)
                .filter(|e| matches!(e.kind, EventKindRef::LoginAttempt { success: true, .. }))
                .count()
        });
        assert_eq!(
            logins,
            CLIENTS_PER_PROTOCOL * SESSIONS_PER_CLIENT,
            "{dbms:?} logins let in"
        );
    }
    let recorded = store.len();
    assert!(
        recorded >= 6 * CLIENTS_PER_PROTOCOL * SESSIONS_PER_CLIENT * 2,
        "expected at least connect+disconnect per session, saw {recorded}"
    );

    // journal parity: replaying the spool yields exactly the store's events
    store
        .close_journal()
        .expect("close journal")
        .expect("journal attached");
    let reader = JournalReader::open(&dir).expect("open journal dir");
    let mut replayed = 0;
    let stats = reader.replay(|_| replayed += 1);
    assert_eq!(
        replayed, recorded,
        "journal replay count diverges from the store"
    );
    assert!(stats.is_clean(), "recovery not clean: {}", stats.summary());

    let _ = std::fs::remove_dir_all(&dir);
}
