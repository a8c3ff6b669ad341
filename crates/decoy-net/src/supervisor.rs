//! Restart supervision for the honeypot fleet: the tokio shell of the
//! restart policy.
//!
//! A [`Supervisor`] keeps each [`crate::server::Listener`] alive. What
//! happens when an accept loop dies (the backoff before each rebind, the
//! crash-loop breaker, the promotion after a stable window, the move to
//! [`HealthState::Down`]) is decided by one `decoy_base::supervision::Supervision`
//! per listener, the machine the in-memory transport runs too. This shell
//! feeds it wall-clock offsets, sleeps until its deadline, rebinds the
//! socket through the listener's factory when it asks, and pushes every
//! transition through an observer callback, so the deployment can log it
//! into the event store. [`Supervisor::fleet_health`] exposes the whole
//! fleet's state as a [`FleetHealth`] snapshot for reports.

use crate::server::{ListenerExit, ServerHandle};
use decoy_base::health::{FleetHealth, HealthState, ListenerHealth};
use decoy_base::supervision::{Due, Supervision, SupervisorOptions, Transition};
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
use tokio::time::Instant;

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
        let start = Instant::now();
        let policy = Supervision::new(&*name, &self.options, fault_seed, start.elapsed());
        let slot = Arc::new(Mutex::new(ListenerHealth {
            name,
            state: HealthState::Healthy,
            restarts: 0,
            addr: Some(pinned),
        }));
        let shell = Shell {
            slot: slot.clone(),
            observer,
            clock: self.clock.clone(),
            start,
        };
        shell.emit(policy.bound(self.clock.now()));
        let task = tokio::spawn(run_loop(RunLoop {
            pinned,
            handle: Some(handle),
            factory,
            policy,
            shell,
            drain: self.options.drain,
            shutdown: watch_signal(&self.shutdown_tx),
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

/// Where one listener's transitions go, and the clocks they are read on.
struct Shell {
    slot: Arc<Mutex<ListenerHealth>>,
    observer: Option<TransitionObserver>,
    /// Stamps each transition.
    clock: Clock,
    /// The origin of the policy's monotonic offsets.
    start: Instant,
}

impl Shell {
    /// The policy's `now` and the transition's `at`.
    fn now(&self) -> (Duration, Timestamp) {
        (self.start.elapsed(), self.clock.now())
    }

    fn emit(&self, transition: Transition) {
        self.slot.lock().apply(&transition);
        if let Some(observer) = &self.observer {
            observer(&transition);
        }
    }
}

struct RunLoop {
    pinned: SocketAddr,
    /// `None` while no accept loop runs.
    handle: Option<ServerHandle>,
    factory: ListenerFactory,
    policy: Supervision,
    shell: Shell,
    drain: Duration,
    shutdown: crate::server::ShutdownSignal,
}

enum Tick {
    Exit(ListenerExit),
    Quit,
    Due,
}

/// The accept loop's exit; never, while none runs.
async fn exit_of(handle: &mut Option<ServerHandle>) -> ListenerExit {
    match handle {
        Some(handle) => handle.wait_exit().await,
        None => std::future::pending().await,
    }
}

/// The policy's deadline; never, while it has none.
async fn deadline(at: Option<Instant>) {
    match at {
        Some(at) => tokio::time::sleep_until(at).await,
        None => std::future::pending().await,
    }
}

async fn run_loop(mut rl: RunLoop) {
    loop {
        let due = rl.policy.deadline().map(|d| rl.shell.start + d);
        let tick = tokio::select! {
            biased;
            _ = rl.shutdown.wait() => Tick::Quit,
            exit = exit_of(&mut rl.handle) => Tick::Exit(exit),
            _ = deadline(due) => Tick::Due,
        };
        let (now, at) = rl.shell.now();
        match tick {
            Tick::Quit => {
                if let Some(handle) = rl.handle {
                    handle.shutdown_with_deadline(rl.drain).await;
                }
                return;
            }
            // Externally shut down: nothing left to supervise.
            Tick::Exit(ListenerExit::Shutdown) => return,
            Tick::Exit(ListenerExit::Crashed) => {
                rl.handle = None;
                rl.shell.emit(rl.policy.crashed(now, at));
            }
            Tick::Due => match rl.policy.due(now, at) {
                Some(Due::Rebind) => {
                    let rebound = (rl.factory)(rl.pinned).await;
                    let (now, at) = rl.shell.now();
                    match rebound {
                        Ok(handle) => {
                            rl.handle = Some(handle);
                            rl.shell.emit(rl.policy.rebound(now, at));
                        }
                        Err(e) => {
                            if let Some(down) = rl.policy.rebind_failed(now, at, &e.to_string()) {
                                rl.shell.emit(down);
                            }
                        }
                    }
                }
                Some(Due::Promote(promoted)) => rl.shell.emit(promoted),
                None => {}
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framed::Framed;
    use crate::server::{Listener, ListenerOptions, SessionCtx, SessionHandler, SessionStream};
    use decoy_base::chaos::FaultPlan;
    use decoy_base::supervision::{BackoffPolicy, BreakerPolicy};
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
