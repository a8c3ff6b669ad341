//! The network replay: stand the deployment up on loopback under
//! supervision, drive each planned session through the real TCP
//! [`driver`](crate::driver), advancing the run's simulated clock to each
//! session's virtual start so honeypot logs carry virtual timestamps.

use crate::deploy::{spawn_supervised, HoneypotSpec, SupervisedHoneypot};
use crate::driver;
use decoy_agents::schedule::PlannedSession;
use decoy_base::chaos::FaultPlan;
use decoy_base::supervision::SupervisorOptions;
use decoy_base::time::{Clock, SimClock};
use decoy_core::deployment::DeploymentPlan;
use decoy_core::runner::{ExperimentConfig, ExperimentResult, Replay};
use decoy_honeypots::logging::drop_appends;
use decoy_net::server::ListenerOptions;
use decoy_net::supervisor::Supervisor;
use std::sync::Arc;

/// Planned sessions the network replay keeps in flight.
const CONCURRENCY: usize = 64;

/// Run the experiment described by `config` over real TCP. `faults` is a
/// seeded fault-injection plan for the listeners and the event store;
/// `None` runs clean.
pub async fn run(
    config: ExperimentConfig,
    faults: Option<FaultPlan>,
) -> std::io::Result<ExperimentResult> {
    let mut replay = Replay::start(config)?;
    let clock = Clock::Sim(Arc::clone(&replay.sim));
    // Chaos plans may drop event-store appends too.
    if let Some(plan) = faults.clone() {
        drop_appends(&replay.store, plan);
    }
    // stand the fleet up under supervision
    let supervisor = Supervisor::new(SupervisorOptions::fast_replay(), clock.clone());
    let mut running: Vec<SupervisedHoneypot> = Vec::with_capacity(replay.plan.len());
    for inst in &mut replay.plan.instances {
        let spec = HoneypotSpec {
            id: inst.id,
            bind: "127.0.0.1:0".parse().expect("loopback"),
            clock: clock.clone(),
            seed: inst.seed,
        };
        let options = ListenerOptions {
            clock: clock.clone(),
            faults: faults.clone(),
            fault_key: inst.seed,
            ..ListenerOptions::default()
        };
        let hp = spawn_supervised(replay.store.clone(), spec, &supervisor, options).await?;
        inst.addr = Some(hp.addr());
        running.push(hp);
    }
    let (connections, errors) = replay_network(&replay.plan, &replay.schedule, &replay.sim).await;
    // Snapshot only after shutdown: a listener crash can still be in flight
    // when the last driver returns, and the snapshot must agree with the
    // Health events already logged.
    supervisor.shutdown().await;
    let fleet = supervisor.fleet_health();
    replay.store.clear_fault_hook();
    drop(running);
    replay.finish(connections, errors, Some(fleet))
}

async fn replay_network(
    plan: &DeploymentPlan,
    schedule: &[PlannedSession],
    sim: &Arc<SimClock>,
) -> (usize, usize) {
    let mut connections = 0usize;
    let mut errors = 0usize;
    let mut joinset = tokio::task::JoinSet::new();
    let mut in_flight = 0usize;
    for session in schedule {
        sim.advance_to(session.ts);
        let Some(idx) = plan.pick(&session.target, session.src) else {
            continue;
        };
        let Some(addr) = plan.instances[idx].addr else {
            continue;
        };
        let session = session.clone();
        joinset.spawn(async move { driver::run_session(addr, &session).await });
        in_flight += 1;
        if in_flight >= CONCURRENCY {
            match joinset.join_next().await {
                Some(Ok(outcome)) => {
                    connections += outcome.connections;
                    errors += outcome.errors;
                }
                // A panicked or aborted driver task loses its counts; it
                // must still surface as a driver error, not vanish.
                Some(Err(_)) => errors += 1,
                None => {}
            }
            in_flight -= 1;
        }
    }
    while let Some(joined) = joinset.join_next().await {
        match joined {
            Ok(outcome) => {
                connections += outcome.connections;
                errors += outcome.errors;
            }
            Err(_) => errors += 1,
        }
    }
    (connections, errors)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn network_mode_tiny_run() {
        let mut config = ExperimentConfig::direct(17, 0.002);
        config.deployment_scale = 0.02;
        let result = run(config, None).await.unwrap();
        assert!(result.sessions > 0);
        assert!(result.connections > 0);
        // the replay is lossy-free: nearly all sessions succeed
        let error_rate = result.errors as f64 / result.connections.max(1) as f64;
        assert!(error_rate < 0.05, "error rate {error_rate}");
        assert!(!result.store.is_empty());
        // network mode records proxy-announced (actor) sources, not loopback
        let loopback_events = result.store.filter(|e| e.src.is_loopback());
        assert!(
            loopback_events.is_empty(),
            "loopback-source events: {:?}",
            &loopback_events[..loopback_events.len().min(5)]
        );
    }
}
