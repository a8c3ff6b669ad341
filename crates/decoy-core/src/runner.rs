//! The experiment runner: replay the 20-day attacker schedule into the
//! event store.
//!
//! [`run_direct`] emits, for every planned session, the events the target
//! honeypot would log, without sockets: every full-volume run, the golden
//! report and the benchmark replay this way. [`Replay`] is the set-up and
//! finish every run shares (the spool journal, the live-report sidecar,
//! plan → population → schedule, the durability barrier and the live join).
//! `decoy-fleet`'s network runner starts and finishes a [`Replay`] too, and
//! in between drives the same schedule over real TCP against live
//! honeypots; its `modes_equivalent` test pins the two replays together.

use crate::deployment::{fake_redis_entries, DeploymentPlan};
use decoy_agents::direct;
use decoy_agents::population::{build_population, PopulationConfig};
use decoy_agents::schedule::{build_schedule, PlannedSession};
use decoy_base::health::FleetHealth;
use decoy_base::time::{Clock, SimClock, Timestamp, EXPERIMENT_START};
use decoy_geo::GeoDb;
use decoy_store::journal::{JournalConfig, JournalWriter};
use decoy_store::{EventStore, RecoveryStats};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// RNG seed for population, schedule, and bait data.
    pub seed: u64,
    /// Population/volume scale (1.0 = paper).
    pub scale: f64,
    /// Deployment scale (instance counts); usually smaller than the
    /// population scale is fine since analyses are per-source.
    pub deployment_scale: f64,
    /// Deploy + attack the §7 extension honeypots (medium MySQL, CouchDB).
    pub extensions: bool,
    /// Spool mode: when set, every event is also appended to a durable
    /// segmented journal in this directory (see `decoy_store::journal`), so
    /// a crashed run can be recovered with [`ExperimentResult::recover`].
    pub persist: Option<PathBuf>,
    /// Live rendering interval (spool mode only): when set, a sidecar
    /// thread tails the journal with a [`crate::report::LiveReport`] and
    /// rewrites `live-report.txt` in the journal directory every this many
    /// milliseconds while the run executes, plus once after the final sync.
    pub live_report_every_ms: Option<u64>,
}

impl ExperimentConfig {
    /// The run of `seed` at `scale`: no extensions, no spool. Every runner
    /// takes this config, `decoy-fleet`'s network runner too; the name is
    /// the direct replay's, which every caller in this workspace runs.
    pub fn direct(seed: u64, scale: f64) -> Self {
        ExperimentConfig {
            seed,
            scale,
            deployment_scale: scale.clamp(0.1, 1.0),
            extensions: false,
            persist: None,
            live_report_every_ms: None,
        }
    }

    /// Enable spool mode: journal every event into `dir`.
    pub fn persist_to(mut self, dir: impl Into<PathBuf>) -> Self {
        self.persist = Some(dir.into());
        self
    }

    /// Enable live rendering: while a spooled run executes, re-render the
    /// full report from the journal tail every `ms` milliseconds into
    /// `live-report.txt` next to the segments. No effect without
    /// [`persist_to`](Self::persist_to).
    pub fn live_report_every(mut self, ms: u64) -> Self {
        self.live_report_every_ms = Some(ms);
        self
    }
}

/// Everything a finished run produces.
pub struct ExperimentResult {
    /// The standardized event store (input to every analysis).
    pub store: Arc<EventStore>,
    /// The enrichment database used.
    pub geo: Arc<GeoDb>,
    /// The deployment that served the run.
    pub plan: DeploymentPlan,
    /// Planned sessions replayed.
    pub sessions: usize,
    /// TCP connections opened (network mode) or emulated (direct mode).
    pub connections: usize,
    /// Driver-level errors (network mode).
    pub errors: usize,
    /// Final fleet-health snapshot (network mode; `None` in direct mode).
    pub fleet: Option<FleetHealth>,
    /// Times the live-report sidecar rewrote `live-report.txt` (spool mode
    /// with [`ExperimentConfig::live_report_every`] set; 0 otherwise).
    pub live_renders: u64,
    /// The config that produced this result.
    pub config: ExperimentConfig,
}

impl ExperimentResult {
    /// Rebuild a result from a spooled journal directory, without re-running
    /// the experiment: the store is replayed through the journal's total
    /// recovery path (indexes rebuilt through the normal append path, order
    /// preserved), and the geo database and deployment plan — both pure
    /// functions of `config` — are reconstructed deterministically. Session
    /// and connection counters are not journaled and come back as zero;
    /// every analysis and report section depends only on the store, so a
    /// report generated from a fault-free recovered result is byte-identical
    /// to one from the original run.
    pub fn recover(
        config: ExperimentConfig,
        dir: impl AsRef<std::path::Path>,
    ) -> std::io::Result<(ExperimentResult, RecoveryStats)> {
        let (store, stats) = decoy_store::recover_full_store(dir)?;
        let plan =
            DeploymentPlan::scaled_with(config.seed, config.deployment_scale, config.extensions);
        Ok((
            ExperimentResult {
                store,
                geo: GeoDb::builtin(),
                plan,
                sessions: 0,
                connections: 0,
                errors: 0,
                fleet: None,
                live_renders: 0,
                config,
            },
            stats,
        ))
    }
}

/// A run set up to replay its schedule: the set-up and finish that the
/// direct replay and `decoy-fleet`'s network replay share.
pub struct Replay {
    config: ExperimentConfig,
    /// The store every replayed event lands in.
    pub store: Arc<EventStore>,
    geo: Arc<GeoDb>,
    /// The deployment the schedule targets; a network replay records each
    /// instance's bound address here.
    pub plan: DeploymentPlan,
    /// The planned sessions, in time order.
    pub schedule: Vec<PlannedSession>,
    /// The run's virtual clock: the journal stamps its batches with it, and
    /// a replay advances it to each session's start.
    pub sim: Arc<SimClock>,
    live: Option<(Arc<AtomicBool>, JoinHandle<u64>)>,
}

impl Replay {
    /// Set `config` up: open the spool journal (when `persist` is set),
    /// start the live-report sidecar (when both `persist` and
    /// `live_report_every_ms` are set), and draw the deployment plan, the
    /// population and its schedule.
    pub fn start(config: ExperimentConfig) -> std::io::Result<Replay> {
        let geo = GeoDb::builtin();
        let store = EventStore::new();
        let sim = SimClock::at_experiment_start();

        if let Some(dir) = &config.persist {
            // Spool: encode every surviving append into the durable journal,
            // batched on the experiment's virtual clock.
            let clock = Clock::Sim(Arc::clone(&sim));
            let journal = JournalWriter::open(JournalConfig::spool(dir).with_clock(clock))?;
            store.with_journal(journal);
        }

        // Report-as-you-ingest: a sidecar thread tails the journal this run
        // is writing and periodically re-renders the full report beside it.
        // It only ever reads completed frames, so it observes the same prefix
        // any concurrent external reader would.
        let live = match (&config.persist, config.live_report_every_ms) {
            (Some(dir), Some(every_ms)) => {
                let stop = Arc::new(AtomicBool::new(false));
                let flag = Arc::clone(&stop);
                let dir = dir.clone();
                let cfg = config.clone();
                let handle = std::thread::Builder::new()
                    .name("live-report".into())
                    .spawn(move || {
                        let mut live = crate::report::LiveReport::open(&cfg, &dir);
                        let mut renders = 0u64;
                        let interval = std::time::Duration::from_millis(every_ms.max(1));
                        let mut last_render = std::time::Instant::now();
                        loop {
                            // Read the stop flag before polling: everything
                            // the run flushed before setting it is drained by
                            // this final poll, so the last render sees the
                            // full run.
                            let stopping = flag.load(Ordering::Acquire);
                            let _ = live.poll();
                            if stopping || last_render.elapsed() >= interval {
                                let text = live.render().render_text();
                                if std::fs::write(dir.join("live-report.txt"), text).is_ok() {
                                    renders = renders.saturating_add(1);
                                }
                                last_render = std::time::Instant::now();
                            }
                            if stopping {
                                return renders;
                            }
                            std::thread::sleep(std::time::Duration::from_millis(10));
                        }
                    })?;
                Some((stop, handle))
            }
            _ => None,
        };

        let plan =
            DeploymentPlan::scaled_with(config.seed, config.deployment_scale, config.extensions);
        let mut population_config = PopulationConfig::scaled(config.seed, config.scale);
        if config.extensions {
            population_config = population_config.with_extensions();
        }
        let population = build_population(&population_config, &geo);
        let schedule = build_schedule(&population, EXPERIMENT_START, config.seed);
        Ok(Replay {
            config,
            store,
            geo,
            plan,
            schedule,
            sim,
            live,
        })
    }

    /// Finish the run once its schedule is replayed: the durability
    /// barrier, then the live sidecar's final render.
    pub fn finish(
        self,
        connections: usize,
        errors: usize,
        fleet: Option<FleetHealth>,
    ) -> std::io::Result<ExperimentResult> {
        // Durability barrier: when the run returns, a spooled journal holds
        // every event on disk, so even a caller that exits without dropping
        // the store (a crash, in the dataset_analysis example) loses nothing.
        self.store.journal_sync()?;

        // The final live render happens after the sync barrier above, so
        // `live-report.txt` covers the complete run when the run returns.
        let live_renders = match self.live {
            Some((stop, handle)) => {
                stop.store(true, Ordering::Release);
                handle.join().unwrap_or(0)
            }
            None => 0,
        };

        Ok(ExperimentResult {
            store: self.store,
            geo: self.geo,
            plan: self.plan,
            sessions: self.schedule.len(),
            connections,
            errors,
            fleet,
            live_renders,
            config: self.config,
        })
    }
}

/// Run the experiment described by `config` in direct mode.
pub fn run_direct(config: ExperimentConfig) -> std::io::Result<ExperimentResult> {
    let replay = Replay::start(config)?;
    let connections = replay_direct(&replay.plan, &replay.schedule, &replay.sim, &replay.store);
    replay.finish(connections, 0, None)
}

/// [`run_direct`] behind an `async fn`, because the offline `bench/`
/// package drives `block_on(run(..))`. It goes when `bench/` joins this
/// workspace and calls `run_direct`.
pub async fn run(config: ExperimentConfig) -> std::io::Result<ExperimentResult> {
    run_direct(config)
}

fn replay_direct(
    plan: &DeploymentPlan,
    schedule: &[PlannedSession],
    sim: &Arc<SimClock>,
    store: &Arc<EventStore>,
) -> usize {
    // per-instance session counters and cached fake keys
    let mut counters: Vec<u64> = vec![0; plan.len()];
    let mut keys_cache: HashMap<usize, Vec<(String, String)>> = HashMap::new();
    let mut connections = 0usize;
    for session in schedule {
        sim.advance_to(session.ts);
        let Some(idx) = plan.pick(&session.target, session.src) else {
            continue;
        };
        let inst = &plan.instances[idx];
        let fake_entries: &[(String, String)] = if inst.id.config
            == decoy_store::ConfigVariant::FakeData
            && inst.id.dbms == decoy_store::Dbms::Redis
        {
            keys_cache
                .entry(idx)
                .or_insert_with(|| fake_redis_entries(inst.seed))
        } else {
            &[]
        };
        let mut sink = direct::DirectSink {
            store,
            honeypot: inst.id,
            session_seq: &mut counters[idx],
            fake_entries,
        };
        direct::emit_session(&mut sink, session);
        connections += session.script.connections_per_visit();
    }
    connections
}

/// Final virtual time after a full replay (diagnostics).
pub fn window_end() -> Timestamp {
    decoy_base::time::EXPERIMENT_END
}

#[cfg(test)]
mod tests {
    use super::*;
    use decoy_store::EventKindRef;

    #[test]
    fn direct_mode_small_run() {
        let result = run_direct(ExperimentConfig::direct(11, 0.01)).unwrap();
        assert!(result.sessions > 0);
        assert!(result.connections > 0);
        assert_eq!(result.errors, 0);
        assert!(!result.store.is_empty());
        // inspect events in place — no full-store clone
        let (in_window, mssql_logins, other_logins) = result.store.read(|log| {
            let in_window = log
                .iter()
                .all(|e| e.ts >= EXPERIMENT_START && e.ts <= window_end());
            let logins = |mssql: bool| {
                log.iter()
                    .filter(|e| {
                        (e.honeypot.dbms == decoy_store::Dbms::Mssql) == mssql
                            && matches!(e.kind, EventKindRef::LoginAttempt { .. })
                    })
                    .count()
            };
            (in_window, logins(true), logins(false))
        });
        // events carry virtual timestamps inside the window
        assert!(in_window);
        // logins exist (brute cohorts) and MSSQL dominates
        assert!(
            mssql_logins > other_logins * 10,
            "mssql {mssql_logins} vs other {other_logins}"
        );
    }

    #[test]
    fn extensions_flag_adds_couch_traffic() {
        let mut config = ExperimentConfig::direct(31, 0.02);
        config.extensions = true;
        let result = run_direct(config).unwrap();
        let is_couch = |e: &decoy_store::Event| e.honeypot.dbms == decoy_store::Dbms::CouchDb;
        let couch = result.store.filter(is_couch);
        assert!(!couch.is_empty(), "no CouchDB events with extensions on");
        let base = run_direct(ExperimentConfig::direct(31, 0.02)).unwrap();
        assert!(base.store.filter(is_couch).is_empty());
    }

    #[test]
    fn spooled_run_recovers_identical_events() {
        let dir = std::env::temp_dir().join(format!("decoy-spool-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ExperimentConfig::direct(5, 0.005).persist_to(&dir);
        let live = run_direct(config.clone()).unwrap();
        live.store.close_journal().unwrap();

        let (recovered, stats) = ExperimentResult::recover(config, &dir).unwrap();
        assert!(stats.is_clean(), "{}", stats.summary());
        assert_eq!(stats.records_kept as usize, live.store.len());
        assert!(
            recovered.store.events_eq(&live.store),
            "journal replay diverged from the live store"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn live_report_renders_during_spooled_run() {
        let dir = std::env::temp_dir().join(format!("decoy-live-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ExperimentConfig::direct(5, 0.005)
            .persist_to(&dir)
            .live_report_every(25);
        let result = run_direct(config).unwrap();
        assert!(result.live_renders >= 1, "no live renders happened");
        // the final live render (written after the journal sync barrier)
        // matches the batch report over the finished run
        let live_text = std::fs::read_to_string(dir.join("live-report.txt")).unwrap();
        let batch_text = crate::report::Report::generate(&result).render_text();
        assert_eq!(live_text, batch_text);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn direct_mode_is_deterministic() {
        let a = run_direct(ExperimentConfig::direct(3, 0.005)).unwrap();
        let b = run_direct(ExperimentConfig::direct(3, 0.005)).unwrap();
        // zero-clone comparison: both stores are read in place
        assert!(a.store.events_eq(&b.store), "runs diverged");
        assert_eq!(a.store.session_count(), b.store.session_count());
        assert_eq!(a.connections, b.connections);
    }
}
