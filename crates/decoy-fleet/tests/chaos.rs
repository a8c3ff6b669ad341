//! The deterministic chaos harness: replay a small network-mode experiment
//! with every fault class active — accept-time refusals, listener crashes,
//! mid-stream resets, stalls, 1-byte I/O, and dropped event-store appends —
//! and assert the fleet supervisor keeps the replay usable.
//!
//! Fault decisions are pure functions of `(seed, listener key, session
//! seq)`, so reruns with the same seed hit the same sessions with the same
//! faults regardless of task interleaving. Wall-clock restarts and task
//! interleaving still move the counts, so this socket copy checks bounds;
//! the root's `tests/chaos_replay.rs` replays the same run through the
//! session machines in memory, on the run's simulated clock, and checks
//! each count exactly.

mod common;

use common::wait_for_events;
use decoy_analysis::fleet::{fleet_totals, fleet_uptime};
use decoy_analysis::frame::AnalysisFrame;
use decoy_base::chaos::FaultPlan;
use decoy_base::HealthState;
use decoy_core::report::Report;
use decoy_core::runner::ExperimentConfig;
use decoy_store::EventKindRef;
use std::time::Duration;

const SEED: u64 = 904;
const SCALE: f64 = 0.004;

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn chaotic_replay_survives_with_bounded_loss() {
    let mut config = ExperimentConfig::direct(SEED, SCALE);
    config.deployment_scale = 0.05;
    // Crash rate above mild(): over this run's 116,195 connections to 22
    // listeners, listener crashes are certain for this fixed seed.
    let mut plan = FaultPlan::mild(SEED);
    plan.crash_per_mille = 60;

    let result = decoy_fleet::run(config, Some(plan))
        .await
        .expect("chaotic run must complete");

    // Bounded loss: under 10% of planned sessions may fail.
    assert!(result.sessions > 0);
    let loss = result.errors as f64 / result.sessions as f64;
    assert!(
        loss < 0.10,
        "session loss {:.1}% ({} of {})",
        100.0 * loss,
        result.errors,
        result.sessions
    );

    // The supervisor restarted at least one crashed listener, and the final
    // snapshot accounts for every transition.
    let fleet = result.fleet.as_ref().expect("network mode snapshot");
    assert!(
        fleet.restarts_total() >= 1,
        "no supervisor restarts: {}",
        fleet.summary()
    );
    assert!(!fleet.listeners.is_empty());

    // Health transitions were logged into the store (and exempted from the
    // append-drop fault), so the uptime table reflects the restarts.
    let health_logged = wait_for_events(
        &result.store,
        |s| {
            s.read(|log| {
                log.iter()
                    .any(|e| matches!(e.kind, EventKindRef::Health { .. }))
            })
        },
        Duration::from_secs(5),
    )
    .await;
    assert!(health_logged, "no Health events in the store");
    let frame = AnalysisFrame::build(&result.store, &result.geo);
    let rows = fleet_uptime(frame.health_events());
    assert!(!rows.is_empty());
    let totals = fleet_totals(&rows);
    assert_eq!(
        totals.restarts,
        fleet.restarts_total(),
        "logged restarts diverge from the live snapshot"
    );
    assert!(rows.iter().any(|r| r.degraded >= 1));
    // A restarted listener that re-bound is Degraded or promoted Healthy;
    // every final state must be a coherent member of the state machine.
    for row in &rows {
        assert!(matches!(
            row.final_state,
            HealthState::Healthy | HealthState::Degraded | HealthState::Down
        ));
    }

    // The injectable log-pipeline fault actually dropped appends.
    assert!(
        result.store.dropped_appends() > 0,
        "store fault hook never fired"
    );

    // The report renders under chaos, fleet section included.
    let report = Report::generate(&result);
    let section = report.section("Fleet health").expect("fleet section");
    assert!(
        section.body.contains("restarts"),
        "fleet section body: {}",
        section.body
    );
}
