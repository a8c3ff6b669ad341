//! The chaos replay in memory: decoy-fleet's `tests/chaos.rs` run, every
//! visit made by the attack client (`decoy_agents::client`) against the
//! honeypot machines through the in-memory transport, one poll per visit,
//! on one thread and with no socket.
//!
//! Each instance runs under the same fault plan and restart policy as a
//! listener of the socket run (`decoy_honeypots::driver::Memory::with_faults`),
//! and the store drops appends through the same hook. The restart policy's
//! deadlines fall due on the run's simulated clock, so the run is exact:
//! where the socket run bounds its loss, this one checks each count
//! against the number the plan draws.

use decoy_databases::agents::client;
use decoy_databases::analysis::fleet::{fleet_totals, fleet_uptime};
use decoy_databases::analysis::frame::AnalysisFrame;
use decoy_databases::base::chaos::{AcceptFault, FaultPlan};
use decoy_databases::base::health::{FleetHealth, HealthState};
use decoy_databases::base::time::Clock;
use decoy_databases::core::report::Report;
use decoy_databases::core::runner::{ExperimentConfig, ExperimentResult, Replay};
use decoy_databases::store::{EventKind, EventStore};
use decoy_honeypots::driver::{poll_once, Memory};
use decoy_honeypots::logging::drop_appends;
use std::net::IpAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// `chaos.rs`'s run.
const SEED: u64 = 904;

fn config() -> ExperimentConfig {
    let mut config = ExperimentConfig::direct(SEED, 0.004);
    config.deployment_scale = 0.05;
    config
}

/// `chaos.rs`'s plan: `mild` with a crash rate that restarts listeners.
fn chaotic() -> FaultPlan {
    FaultPlan {
        crash_per_mille: 60,
        ..FaultPlan::mild(SEED)
    }
}

/// A finished replay, and each instance's fault key (its seed) and final
/// session counter.
struct Run {
    result: ExperimentResult,
    sessions: Vec<(u64, u64)>,
}

/// Replay `config`'s schedule in memory, every instance under `plan` when
/// one is given, as `decoy_fleet::run` replays it over sockets.
fn replay(config: ExperimentConfig, plan: Option<FaultPlan>) -> Run {
    let replay = Replay::start(config).expect("plan and schedule");
    let clock = Clock::Sim(Arc::clone(&replay.sim));
    if let Some(plan) = &plan {
        drop_appends(&replay.store, plan.clone());
    }
    let mut fleet: Vec<Memory> = replay
        .plan
        .instances
        .iter()
        .map(|inst| {
            let memory = Memory::deploy(&replay.store, inst.id, inst.seed, clock.clone());
            let memory = memory.expect("deploy");
            match &plan {
                Some(plan) => memory.with_faults(plan.clone()),
                None => memory,
            }
        })
        .collect();
    let (mut connections, mut errors) = (0, 0);
    for session in &replay.schedule {
        replay.sim.advance_to(session.ts);
        // Deadlines past are logged before the visit, in time order.
        fleet.iter_mut().for_each(Memory::catch_up);
        let Some(idx) = replay.plan.pick(&session.target, session.src) else {
            continue;
        };
        let memory = fleet[idx].with_source(IpAddr::V4(session.src));
        let outcome = poll_once(client::run(memory, session)).expect("a visit never waits");
        connections += outcome.connections;
        errors += outcome.errors;
    }
    fleet.iter_mut().for_each(Memory::catch_up);
    replay.store.clear_fault_hook();
    let health = FleetHealth {
        listeners: fleet.iter().map(Memory::health).collect(),
    };
    let sessions = (replay.plan.instances.iter())
        .zip(&fleet)
        .map(|(inst, memory)| (inst.seed, memory.sessions()))
        .collect();
    let fleet = plan.is_some().then_some(health);
    let result = replay.finish(connections, errors, fleet).expect("finish");
    Run { result, sessions }
}

/// The session numbers among 1..=`n` at which `plan` crashes the instance
/// keyed `key`.
fn crashes(plan: &FaultPlan, key: u64, n: u64) -> impl Iterator<Item = u64> + '_ {
    (1..=n).filter(move |&seq| plan.at_accept(key, seq) == AcceptFault::CrashListener)
}

/// Health events in `store`.
fn health_events(store: &EventStore) -> usize {
    let events = store.all();
    events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Health { .. }))
        .count()
}

/// A fresh scratch directory.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("decoy-chaos-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every file in `dir`, by name, with its bytes.
fn files(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("journal dir")
        .map(|entry| {
            let path = entry.expect("entry").path();
            let bytes = std::fs::read(&path).expect("segment");
            (path.file_name().expect("name").into(), bytes)
        })
        .collect();
    files.sort();
    files
}

#[test]
fn chaotic_replay_matches_the_plan_exactly() {
    let plan = chaotic();
    let dirs = [scratch("a"), scratch("b")];
    let run = replay(config().persist_to(&dirs[0]), Some(plan.clone()));
    let result = &run.result;
    assert_eq!(result.plan.len(), 22);
    assert_eq!(result.connections, 116_195);
    // A burst's connections share one virtual instant, so a crash refuses
    // the rest of its burst: most connections fail, and few take a
    // session number.
    let accepted: u64 = run.sessions.iter().map(|&(_, n)| n).sum();
    assert_eq!(accepted, 17_945);
    assert_eq!(result.errors, 99_446);

    // Every crash the plan draws over the sessions an instance accepted
    // was one restart, in the snapshot and in the logged transitions.
    let drawn: u64 = (run.sessions.iter())
        .map(|&(key, n)| crashes(&plan, key, n).count() as u64)
        .sum();
    assert_eq!(drawn, 1_038);
    let fleet = result.fleet.as_ref().expect("fleet snapshot");
    assert_eq!(fleet.listeners.len(), 22);
    assert_eq!(fleet.restarts_total(), drawn, "{}", fleet.summary());
    let frame = AnalysisFrame::build(&result.store, &result.geo);
    let rows = fleet_uptime(frame.health_events());
    assert_eq!(fleet_totals(&rows).restarts, drawn);

    // Every instance came back from its last crash: a listener is
    // promoted to healthy only once it was rebound and stayed up a whole
    // breaker window, and every one ends healthy (an instance that never
    // rebound would end degraded).
    for listener in &fleet.listeners {
        assert_eq!(listener.state, HealthState::Healthy, "{}", listener.name);
    }

    // The store dropped the appends the plan draws, numbered over the
    // appends that are not health events.
    let dropped = result.store.dropped_appends();
    let logged = result.store.len() - health_events(&result.store);
    let appends = logged as u64 + dropped;
    let drawn = (0..appends).filter(|&n| plan.drops_append(n)).count() as u64;
    assert_eq!(dropped, drawn);
    assert_eq!(dropped, 257);

    // The report renders under chaos, its fleet section included.
    let report = Report::generate(result);
    let section = report.section("Fleet health").expect("fleet section");
    assert!(section.body.contains("restarts"), "{}", section.body);

    // A second run writes the same journal, byte for byte.
    result.store.close_journal().expect("close");
    let again = replay(config().persist_to(&dirs[1]), Some(plan));
    again.result.store.close_journal().expect("close");
    let (a, b) = (files(&dirs[0]), files(&dirs[1]));
    assert!(!a.is_empty());
    assert!(a == b, "the two runs' journals differ");
    for dir in dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn a_zero_rate_plan_changes_no_event() {
    let quiet = replay(config(), Some(FaultPlan::new(SEED)));
    let clean = replay(config(), None);
    let fleet = quiet.result.fleet.as_ref().expect("fleet snapshot");
    assert_eq!(fleet.restarts_total(), 0);
    assert_eq!(health_events(&quiet.result.store), 0);
    assert_eq!(quiet.result.store.dropped_appends(), 0);
    assert_eq!(quiet.result.store.all(), clean.result.store.all());
    assert_eq!(quiet.result.errors, 0);
}
