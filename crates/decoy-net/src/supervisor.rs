//! Restart supervision for the honeypot fleet.
//!
//! The paper's artifact is 278 honeypots surviving 20 days unattended —
//! uptime *is* the experiment. A [`Supervisor`] keeps each
//! [`crate::server::Listener`] alive: when an accept loop dies it rebinds
//! the same address under jittered exponential [`BackoffPolicy`] delays,
//! a crash-loop circuit [`BreakerPolicy`] takes persistent failures to
//! [`HealthState::Down`] instead of restarting forever, and every
//! transition is pushed through an observer callback so the deployment can
//! log it into the event store. [`Supervisor::fleet_health`] exposes the
//! whole fleet's state as a [`FleetHealth`] snapshot for reports.
//!
//! Determinism: backoff jitter is derived from the seeded hash in
//! [`crate::chaos`] (keyed by listener and attempt), never from a global
//! RNG, so a seeded chaos replay schedules the same delays every run.

use crate::chaos::per_mille;
use crate::server::{ListenerExit, ServerHandle};
use decoy_base::health::{FleetHealth, HealthState, ListenerHealth};
use decoy_base::sync::Mutex;
use decoy_base::time::{Clock, Timestamp};
use std::future::Future;
use std::io;
use std::net::SocketAddr;
use std::pin::Pin;
use std::sync::Arc;
use std::time::Duration;
use tokio::sync::watch;
use tokio::task::JoinHandle;

/// Jittered exponential backoff between restart attempts.
#[derive(Debug, Clone)]
pub struct BackoffPolicy {
    /// Delay before the first restart attempt.
    pub base: Duration,
    /// Upper bound on the exponential delay.
    pub cap: Duration,
    /// Extra jitter added on top, up to this ‰ of the computed delay.
    pub jitter_per_mille: u64,
    /// Rebind attempts before the listener is declared [`HealthState::Down`].
    pub max_attempts: u32,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            base: Duration::from_millis(50),
            cap: Duration::from_secs(2),
            jitter_per_mille: 250,
            max_attempts: 8,
        }
    }
}

impl BackoffPolicy {
    /// The delay before restart attempt `attempt` (0-based), deterministic
    /// in `(seed, attempt)`.
    pub fn delay(&self, seed: u64, attempt: u32) -> Duration {
        let exp = self
            .base
            .saturating_mul(2u32.saturating_pow(attempt.min(16)))
            .min(self.cap);
        let base_ms = u64::try_from(exp.as_millis()).unwrap_or(u64::MAX);
        let roll = per_mille(seed, u64::from(attempt), 0, 0xB0);
        let extra_ms = base_ms
            .saturating_mul(self.jitter_per_mille.min(1000))
            .saturating_mul(roll)
            / 1_000_000;
        Duration::from_millis(base_ms.saturating_add(extra_ms))
    }
}

/// Crash-loop circuit breaker: more than `max_restarts` crashes inside
/// `window` opens the circuit ([`HealthState::Down`], no more restarts).
#[derive(Debug, Clone)]
pub struct BreakerPolicy {
    /// Crashes tolerated within the window before going down.
    pub max_restarts: u32,
    /// Sliding crash-counting window; also the stable-uptime span after
    /// which a degraded listener is promoted back to healthy.
    pub window: Duration,
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        BreakerPolicy {
            max_restarts: 5,
            window: Duration::from_secs(30),
        }
    }
}

/// Supervisor tuning knobs.
#[derive(Debug, Clone, Default)]
pub struct SupervisorOptions {
    /// Restart delay policy.
    pub backoff: BackoffPolicy,
    /// Crash-loop circuit breaker.
    pub breaker: BreakerPolicy,
    /// Session-drain allowance on orderly shutdown.
    pub drain: Duration,
}

impl SupervisorOptions {
    /// Tight timings for compressed-time replays and tests: restarts within
    /// tens of milliseconds, a breaker window short enough to both trip and
    /// recover inside a test run.
    pub fn fast_replay() -> Self {
        SupervisorOptions {
            backoff: BackoffPolicy {
                base: Duration::from_millis(10),
                cap: Duration::from_millis(250),
                jitter_per_mille: 250,
                max_attempts: 8,
            },
            breaker: BreakerPolicy {
                max_restarts: 32,
                window: Duration::from_millis(1500),
            },
            drain: Duration::from_secs(5),
        }
    }
}

/// One health transition, pushed to the observer as it happens.
#[derive(Debug, Clone)]
pub struct Transition {
    /// Supervised listener's display name.
    pub name: String,
    /// State entered.
    pub state: HealthState,
    /// Total restarts of this listener so far.
    pub restarts: u32,
    /// Human-readable cause.
    pub detail: String,
    /// When (on the supervisor's clock — virtual time in replays).
    pub at: Timestamp,
}

/// Callback invoked on every health transition.
pub type TransitionObserver = Arc<dyn Fn(&Transition) + Send + Sync>;

/// Factory the supervisor calls to (re)bind a listener at an address.
pub type ListenerFactory = Box<
    dyn Fn(SocketAddr) -> Pin<Box<dyn Future<Output = io::Result<ServerHandle>> + Send>>
        + Send
        + Sync,
>;

/// Handle to one supervised listener.
pub struct SupervisedListener {
    addr: SocketAddr,
    slot: Arc<Mutex<ListenerHealth>>,
}

impl SupervisedListener {
    /// The pinned address the listener serves (stable across restarts).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current health snapshot.
    pub fn health(&self) -> ListenerHealth {
        self.slot.lock().clone()
    }
}

/// Keeps a fleet of listeners alive; see the module docs.
pub struct Supervisor {
    options: SupervisorOptions,
    clock: Clock,
    shutdown_tx: watch::Sender<bool>,
    slots: Mutex<Vec<Arc<Mutex<ListenerHealth>>>>,
    tasks: Mutex<Vec<JoinHandle<()>>>,
}

impl Supervisor {
    /// A supervisor stamping transitions on `clock`.
    pub fn new(options: SupervisorOptions, clock: Clock) -> Self {
        let (shutdown_tx, _) = watch::channel(false);
        Supervisor {
            options,
            clock,
            shutdown_tx,
            slots: Mutex::new(Vec::new()),
            tasks: Mutex::new(Vec::new()),
        }
    }

    /// Bind a listener through `factory` at `bind` and keep it alive.
    ///
    /// `factory` is called once now (propagating the initial bind error to
    /// the caller) and again after every crash, always with the concrete
    /// address from the first bind so the deployment's address map stays
    /// valid across restarts. `fault_seed` keys the deterministic backoff
    /// jitter; `observer` sees every health transition.
    pub async fn supervise(
        &self,
        name: impl Into<String>,
        bind: SocketAddr,
        fault_seed: u64,
        factory: ListenerFactory,
        observer: Option<TransitionObserver>,
    ) -> io::Result<SupervisedListener> {
        let name = name.into();
        let handle = factory(bind).await?;
        let pinned = handle.local_addr();
        let slot = Arc::new(Mutex::new(ListenerHealth {
            name: name.clone(),
            state: HealthState::Healthy,
            restarts: 0,
            addr: Some(pinned),
        }));
        emit(
            &slot,
            &observer,
            &self.clock,
            HealthState::Healthy,
            0,
            format!("listener bound at {pinned}"),
        );
        let shutdown = watch_signal(&self.shutdown_tx);
        let task = tokio::spawn(run_loop(RunLoop {
            pinned,
            handle,
            factory,
            slot: slot.clone(),
            observer,
            options: self.options.clone(),
            clock: self.clock.clone(),
            shutdown,
            fault_seed,
        }));
        self.slots.lock().push(slot.clone());
        self.tasks.lock().push(task);
        Ok(SupervisedListener { addr: pinned, slot })
    }

    /// Snapshot of every supervised listener's health.
    pub fn fleet_health(&self) -> FleetHealth {
        FleetHealth {
            listeners: self.slots.lock().iter().map(|s| s.lock().clone()).collect(),
        }
    }

    /// Stop all supervised listeners and wait for their supervision tasks.
    pub async fn shutdown(&self) {
        let _ = self.shutdown_tx.send(true);
        let tasks: Vec<JoinHandle<()>> = std::mem::take(&mut *self.tasks.lock());
        for task in tasks {
            let _ = task.await;
        }
    }
}

fn watch_signal(tx: &watch::Sender<bool>) -> crate::server::ShutdownSignal {
    crate::server::shutdown_signal_from(tx.subscribe())
}

fn emit(
    slot: &Arc<Mutex<ListenerHealth>>,
    observer: &Option<TransitionObserver>,
    clock: &Clock,
    state: HealthState,
    restarts: u32,
    detail: String,
) {
    let name = {
        let mut s = slot.lock();
        s.state = state;
        s.restarts = restarts;
        if state == HealthState::Down {
            s.addr = None;
        }
        s.name.clone()
    };
    if let Some(obs) = observer {
        obs(&Transition {
            name,
            state,
            restarts,
            detail,
            at: clock.now(),
        });
    }
}

struct RunLoop {
    pinned: SocketAddr,
    handle: ServerHandle,
    factory: ListenerFactory,
    slot: Arc<Mutex<ListenerHealth>>,
    observer: Option<TransitionObserver>,
    options: SupervisorOptions,
    clock: Clock,
    shutdown: crate::server::ShutdownSignal,
    fault_seed: u64,
}

enum Tick {
    Exit(ListenerExit),
    Quit,
    Promote,
}

async fn run_loop(mut rl: RunLoop) {
    let mut restarts: u32 = 0;
    let mut window_start = tokio::time::Instant::now();
    let mut in_window: u32 = 0;
    // Armed (checked by the `degraded` guard) only after a restart.
    let mut stable_at = tokio::time::Instant::now();
    let mut handle = rl.handle;
    loop {
        let degraded = rl.slot.lock().state == HealthState::Degraded;
        let tick = tokio::select! {
            biased;
            _ = rl.shutdown.wait() => Tick::Quit,
            exit = handle.wait_exit() => Tick::Exit(exit),
            _ = tokio::time::sleep_until(stable_at), if degraded => Tick::Promote,
        };
        match tick {
            Tick::Quit => {
                handle.shutdown_with_deadline(rl.options.drain).await;
                return;
            }
            Tick::Promote => {
                emit(
                    &rl.slot,
                    &rl.observer,
                    &rl.clock,
                    HealthState::Healthy,
                    restarts,
                    "stable since restart".to_string(),
                );
            }
            // Externally shut down: nothing left to supervise.
            Tick::Exit(ListenerExit::Shutdown) => return,
            Tick::Exit(ListenerExit::Crashed) => {
                let now = tokio::time::Instant::now();
                if now.duration_since(window_start) > rl.options.breaker.window {
                    window_start = now;
                    in_window = 0;
                }
                in_window += 1;
                restarts = restarts.saturating_add(1);
                if in_window > rl.options.breaker.max_restarts {
                    emit(
                        &rl.slot,
                        &rl.observer,
                        &rl.clock,
                        HealthState::Down,
                        restarts,
                        format!(
                            "crash loop: {in_window} crashes within {:?}; circuit open",
                            rl.options.breaker.window
                        ),
                    );
                    rl.shutdown.wait().await;
                    return;
                }
                emit(
                    &rl.slot,
                    &rl.observer,
                    &rl.clock,
                    HealthState::Degraded,
                    restarts,
                    "accept loop died; restarting".to_string(),
                );
                let mut attempt: u32 = 0;
                handle = loop {
                    let delay = rl.options.backoff.delay(rl.fault_seed, attempt);
                    attempt = attempt.saturating_add(1);
                    tokio::select! {
                        biased;
                        _ = rl.shutdown.wait() => return,
                        _ = tokio::time::sleep(delay) => {}
                    }
                    match (rl.factory)(rl.pinned).await {
                        Ok(h) => break h,
                        Err(e) => {
                            if attempt >= rl.options.backoff.max_attempts {
                                emit(
                                    &rl.slot,
                                    &rl.observer,
                                    &rl.clock,
                                    HealthState::Down,
                                    restarts,
                                    format!("rebind failed after {attempt} attempts: {e}"),
                                );
                                rl.shutdown.wait().await;
                                return;
                            }
                        }
                    }
                };
                rl.slot.lock().addr = Some(rl.pinned);
                emit(
                    &rl.slot,
                    &rl.observer,
                    &rl.clock,
                    HealthState::Degraded,
                    restarts,
                    format!("restarted (restart #{restarts}) at {}", rl.pinned),
                );
                stable_at = tokio::time::Instant::now() + rl.options.breaker.window;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::FaultPlan;
    use crate::framed::Framed;
    use crate::server::{Listener, ListenerOptions, SessionCtx, SessionHandler, SessionStream};
    use decoy_wire::codec::LineCodec;
    use std::sync::atomic::{AtomicU32, Ordering};
    use tokio::net::TcpStream;

    struct Echo;
    impl SessionHandler for Echo {
        async fn handle(self: Arc<Self>, stream: SessionStream, _ctx: SessionCtx) {
            let mut framed = Framed::new(stream, LineCodec::default());
            while let Ok(Some(line)) = framed.read_frame().await {
                if framed.write_frame(&line).await.is_err() {
                    break;
                }
            }
        }
    }

    #[test]
    fn backoff_is_deterministic_exponential_and_capped() {
        let policy = BackoffPolicy::default();
        for attempt in 0..20 {
            assert_eq!(policy.delay(7, attempt), policy.delay(7, attempt));
            // jitter adds at most 25% on top of the capped exponential
            let cap = policy.cap + policy.cap / 4;
            assert!(policy.delay(7, attempt) <= cap);
        }
        assert!(policy.delay(7, 3) >= policy.base * 8);
        // different seeds, different jitter somewhere
        assert!((0..20).any(|a| policy.delay(1, a) != policy.delay(2, a)));
    }

    /// Factory whose first bind injects a crash-on-accept fault and whose
    /// rebinds are clean: exactly one deterministic crash.
    fn crash_once_factory(calls: Arc<AtomicU32>) -> ListenerFactory {
        Box::new(move |addr| {
            let calls = calls.clone();
            Box::pin(async move {
                let n = calls.fetch_add(1, Ordering::SeqCst);
                let faults = (n == 0).then(|| FaultPlan {
                    crash_per_mille: 1000,
                    ..FaultPlan::new(1)
                });
                let options = ListenerOptions {
                    faults,
                    ..ListenerOptions::default()
                };
                Listener::bind(addr, Arc::new(Echo), options).await
            })
        })
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 2)]
    async fn restarts_after_crash_and_promotes_to_healthy() {
        let options = SupervisorOptions {
            backoff: BackoffPolicy {
                base: Duration::from_millis(10),
                cap: Duration::from_millis(50),
                jitter_per_mille: 0,
                max_attempts: 4,
            },
            breaker: BreakerPolicy {
                max_restarts: 3,
                window: Duration::from_millis(200),
            },
            drain: Duration::from_millis(200),
        };
        let supervisor = Supervisor::new(options, Clock::Wall);
        let calls = Arc::new(AtomicU32::new(0));
        let transitions: Arc<Mutex<Vec<(HealthState, u32)>>> = Arc::new(Mutex::new(Vec::new()));
        let seen = transitions.clone();
        let observer: TransitionObserver =
            Arc::new(move |t: &Transition| seen.lock().push((t.state, t.restarts)));
        let listener = supervisor
            .supervise(
                "echo",
                "127.0.0.1:0".parse().unwrap(),
                7,
                crash_once_factory(calls),
                Some(observer),
            )
            .await
            .unwrap();
        let addr = listener.addr();

        // First connection trips the injected crash.
        let s = TcpStream::connect(addr).await.unwrap();
        drop(s);
        // The supervisor must rebind the same address and serve again.
        let deadline = tokio::time::Instant::now() + Duration::from_secs(5);
        loop {
            if let Ok(stream) = TcpStream::connect(addr).await {
                let mut framed = Framed::new(stream, LineCodec::default());
                if framed.write_frame(&"ping".to_string()).await.is_ok() {
                    if let Ok(Some(echoed)) = framed.read_frame().await {
                        assert_eq!(echoed, "ping");
                        break;
                    }
                }
            }
            if tokio::time::Instant::now() > deadline {
                panic!("listener never came back after crash");
            }
            tokio::time::sleep(Duration::from_millis(10)).await;
        }
        // Stability window passes -> Healthy again.
        let deadline = tokio::time::Instant::now() + Duration::from_secs(5);
        while listener.health().state != HealthState::Healthy {
            if tokio::time::Instant::now() > deadline {
                panic!("listener stuck in {:?}", listener.health().state);
            }
            tokio::time::sleep(Duration::from_millis(20)).await;
        }
        let health = listener.health();
        assert_eq!(health.restarts, 1);
        let fleet = supervisor.fleet_health();
        assert_eq!(fleet.restarts_total(), 1);
        assert_eq!(fleet.count(HealthState::Healthy), 1);
        let states: Vec<HealthState> = transitions.lock().iter().map(|(s, _)| *s).collect();
        assert!(states.contains(&HealthState::Degraded));
        assert_eq!(states.first(), Some(&HealthState::Healthy));
        assert_eq!(states.last(), Some(&HealthState::Healthy));
        supervisor.shutdown().await;
    }

    /// Factory that always injects crash-on-accept: a crash loop.
    fn always_crash_factory() -> ListenerFactory {
        Box::new(|addr| {
            Box::pin(async move {
                let options = ListenerOptions {
                    faults: Some(FaultPlan {
                        crash_per_mille: 1000,
                        ..FaultPlan::new(2)
                    }),
                    ..ListenerOptions::default()
                };
                Listener::bind(addr, Arc::new(Echo), options).await
            })
        })
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 2)]
    async fn crash_loop_opens_the_circuit_breaker() {
        let options = SupervisorOptions {
            backoff: BackoffPolicy {
                base: Duration::from_millis(5),
                cap: Duration::from_millis(10),
                jitter_per_mille: 0,
                max_attempts: 4,
            },
            breaker: BreakerPolicy {
                max_restarts: 2,
                window: Duration::from_secs(30),
            },
            drain: Duration::ZERO,
        };
        let supervisor = Supervisor::new(options, Clock::Wall);
        let listener = supervisor
            .supervise(
                "crashy",
                "127.0.0.1:0".parse().unwrap(),
                3,
                always_crash_factory(),
                None,
            )
            .await
            .unwrap();
        let addr = listener.addr();
        // Keep poking until the breaker opens.
        let deadline = tokio::time::Instant::now() + Duration::from_secs(10);
        while listener.health().state != HealthState::Down {
            let _ = TcpStream::connect(addr).await;
            if tokio::time::Instant::now() > deadline {
                panic!("breaker never opened: {:?}", listener.health());
            }
            tokio::time::sleep(Duration::from_millis(10)).await;
        }
        let health = listener.health();
        assert_eq!(health.state, HealthState::Down);
        assert_eq!(health.addr, None);
        assert!(health.restarts >= 3);
        assert_eq!(supervisor.fleet_health().count(HealthState::Down), 1);
        supervisor.shutdown().await;
    }
}
