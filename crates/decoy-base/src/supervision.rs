//! The restart policy of a supervised listener, as one machine per
//! listener.
//!
//! The paper's artifact is 278 honeypots surviving 20 days unattended, so
//! uptime is the experiment. A [`Supervision`] decides what happens to one
//! listener when its accept loop dies: a rebind under jittered
//! exponential [`BackoffPolicy`] delays, a crash-loop circuit
//! [`BreakerPolicy`] that takes persistent failures to
//! [`HealthState::Down`] instead of restarting forever, and the promotion
//! of a restarted listener back to healthy once it has stayed up for a
//! whole breaker window. It reads no clock and opens no socket: every
//! input carries `now`, a monotonic offset, and `at`, the timestamp its
//! [`Transition`] records. Each input returns the transition to emit, and
//! [`Supervision::deadline`] says when [`Supervision::due`] is next wanted.
//!
//! Two shells run it. decoy-net's `Supervisor` feeds it wall-clock offsets
//! and rebinds real sockets; decoy-honeypots' in-memory transport
//! (`decoy_honeypots::driver::Memory`) feeds it the run's simulated clock
//! and redeploys a session machine. Backoff jitter is derived from the
//! seeded hash of [`crate::chaos`], keyed by listener and attempt, so a
//! seeded replay schedules the same delays every run. Clippy holds the
//! module to the byte-path wall (DESIGN.md "Threat model of the byte
//! path").
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::string_slice,
        clippy::cast_possible_truncation,
        clippy::cast_possible_wrap,
        clippy::disallowed_macros,
        clippy::allow_attributes_without_reason
    )
)]

use crate::chaos::per_mille;
use crate::health::HealthState;
use crate::time::Timestamp;
use std::time::Duration;

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
    /// Session-drain allowance on orderly shutdown (the socket shell's;
    /// an in-memory session never outlives its visit).
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

/// One health transition, pushed to the shell's observer as it happens.
#[derive(Debug, Clone, PartialEq, Eq)]
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

/// What fell due at a [`Supervision`]'s deadline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Due {
    /// Rebind the listener now, then report [`Supervision::rebound`] or
    /// [`Supervision::rebind_failed`].
    Rebind,
    /// The restarted listener stayed up for a whole breaker window.
    Promote(Transition),
}

/// Where a supervised listener stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Bound, with no restart to watch.
    Healthy,
    /// Unbound, waiting for rebind attempt `attempt` (0-based) at `due`.
    Backoff { attempt: u32, due: Duration },
    /// Rebound after a crash; promoted at `due` unless it crashes first.
    Probation { due: Duration },
    /// The circuit is open: no more restarts.
    Down,
}

/// The restart policy of one supervised listener; see the module docs.
#[derive(Debug, Clone)]
pub struct Supervision {
    name: String,
    backoff: BackoffPolicy,
    breaker: BreakerPolicy,
    /// Keys the backoff jitter.
    seed: u64,
    restarts: u32,
    /// Start of the current crash-counting window.
    window_start: Duration,
    /// Crashes inside the current window.
    in_window: u32,
    phase: Phase,
}

impl Supervision {
    /// The policy of listener `name`, bound and healthy at `now`, under
    /// `options`; `seed` keys its backoff jitter.
    pub fn new(
        name: impl Into<String>,
        options: &SupervisorOptions,
        seed: u64,
        now: Duration,
    ) -> Self {
        Supervision {
            name: name.into(),
            backoff: options.backoff.clone(),
            breaker: options.breaker.clone(),
            seed,
            restarts: 0,
            window_start: now,
            in_window: 0,
            phase: Phase::Healthy,
        }
    }

    /// The transition of the first bind, stamped `at`.
    pub fn bound(&self, at: Timestamp) -> Transition {
        self.transition(at, HealthState::Healthy, "listener bound".to_string())
    }

    /// Whether a listener is bound: not while it waits for a rebind, and
    /// not once it is down.
    pub fn serving(&self) -> bool {
        matches!(self.phase, Phase::Healthy | Phase::Probation { .. })
    }

    /// When [`Supervision::due`] is next wanted: the next rebind attempt or
    /// the promotion. `None` while healthy and once down.
    pub fn deadline(&self) -> Option<Duration> {
        match self.phase {
            Phase::Backoff { due, .. } | Phase::Probation { due } => Some(due),
            Phase::Healthy | Phase::Down => None,
        }
    }

    /// The accept loop died at `now`. More than the breaker's crashes
    /// within its window take the listener down; otherwise the first
    /// rebind attempt falls due after the backoff's first delay.
    pub fn crashed(&mut self, now: Duration, at: Timestamp) -> Transition {
        if now.saturating_sub(self.window_start) > self.breaker.window {
            self.window_start = now;
            self.in_window = 0;
        }
        self.in_window = self.in_window.saturating_add(1);
        self.restarts = self.restarts.saturating_add(1);
        if self.in_window > self.breaker.max_restarts {
            self.phase = Phase::Down;
            let detail = format!(
                "crash loop: {} crashes within {:?}; circuit open",
                self.in_window, self.breaker.window
            );
            return self.transition(at, HealthState::Down, detail);
        }
        self.phase = Phase::Backoff {
            attempt: 0,
            due: now.saturating_add(self.backoff.delay(self.seed, 0)),
        };
        let detail = "accept loop died; restarting".to_string();
        self.transition(at, HealthState::Degraded, detail)
    }

    /// The deadline at `now`: `None` if nothing is due yet.
    pub fn due(&mut self, now: Duration, at: Timestamp) -> Option<Due> {
        match self.phase {
            Phase::Backoff { due, .. } if due <= now => Some(Due::Rebind),
            Phase::Probation { due } if due <= now => {
                self.phase = Phase::Healthy;
                let detail = "stable since restart".to_string();
                Some(Due::Promote(self.transition(
                    at,
                    HealthState::Healthy,
                    detail,
                )))
            }
            _ => None,
        }
    }

    /// The rebind at `now` succeeded: the listener serves again, on
    /// probation for one breaker window.
    pub fn rebound(&mut self, now: Duration, at: Timestamp) -> Transition {
        self.phase = Phase::Probation {
            due: now.saturating_add(self.breaker.window),
        };
        let detail = format!("restarted (restart #{})", self.restarts);
        self.transition(at, HealthState::Degraded, detail)
    }

    /// The rebind at `now` failed with `error`: the next attempt falls due
    /// after its backoff delay, or, after the backoff's `max_attempts`
    /// failures, the listener goes down.
    pub fn rebind_failed(
        &mut self,
        now: Duration,
        at: Timestamp,
        error: &str,
    ) -> Option<Transition> {
        let attempt = match self.phase {
            Phase::Backoff { attempt, .. } => attempt.saturating_add(1),
            _ => 1,
        };
        if attempt >= self.backoff.max_attempts {
            self.phase = Phase::Down;
            let detail = format!("rebind failed after {attempt} attempts: {error}");
            return Some(self.transition(at, HealthState::Down, detail));
        }
        self.phase = Phase::Backoff {
            attempt,
            due: now.saturating_add(self.backoff.delay(self.seed, attempt)),
        };
        None
    }

    fn transition(&self, at: Timestamp, state: HealthState, detail: String) -> Transition {
        Transition {
            name: self.name.clone(),
            state,
            restarts: self.restarts,
            detail,
            at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    /// No jitter, so every delay is exact: 10, 20, 40 ms, capped at 50.
    fn options(max_restarts: u32, max_attempts: u32) -> SupervisorOptions {
        SupervisorOptions {
            backoff: BackoffPolicy {
                base: ms(10),
                cap: ms(50),
                jitter_per_mille: 0,
                max_attempts,
            },
            breaker: BreakerPolicy {
                max_restarts,
                window: ms(200),
            },
            drain: Duration::ZERO,
        }
    }

    fn at(n: u64) -> Timestamp {
        Timestamp::from_millis(n)
    }

    fn expect(t: &Transition, state: HealthState, restarts: u32, detail: &str) {
        assert_eq!(
            (t.state, t.restarts, t.detail.as_str()),
            (state, restarts, detail)
        );
        assert_eq!(t.name, "pg");
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

    #[test]
    fn a_crash_restarts_and_a_stable_window_promotes() {
        let mut s = Supervision::new("pg", &options(3, 4), 7, ms(1_000));
        expect(&s.bound(at(5)), HealthState::Healthy, 0, "listener bound");
        assert!(s.serving());
        assert_eq!(s.deadline(), None);

        let crash = s.crashed(ms(1_100), at(6));
        expect(
            &crash,
            HealthState::Degraded,
            1,
            "accept loop died; restarting",
        );
        assert_eq!(crash.at, at(6));
        assert!(!s.serving());
        assert_eq!(s.deadline(), Some(ms(1_110)));
        assert_eq!(s.due(ms(1_109), at(7)), None);
        assert_eq!(s.due(ms(1_110), at(7)), Some(Due::Rebind));

        let back = s.rebound(ms(1_112), at(8));
        expect(&back, HealthState::Degraded, 1, "restarted (restart #1)");
        assert!(s.serving());
        assert_eq!(s.deadline(), Some(ms(1_312)));
        assert_eq!(s.due(ms(1_311), at(9)), None);
        let Some(Due::Promote(promoted)) = s.due(ms(1_312), at(9)) else {
            panic!("no promotion at the end of the window");
        };
        expect(&promoted, HealthState::Healthy, 1, "stable since restart");
        assert!(s.serving());
        assert_eq!(s.deadline(), None);
    }

    #[test]
    fn failed_rebinds_back_off_then_go_down_after_max_attempts() {
        let mut s = Supervision::new("pg", &options(3, 3), 7, Duration::ZERO);
        s.crashed(ms(100), at(1));
        assert_eq!(s.deadline(), Some(ms(110)));
        assert_eq!(s.rebind_failed(ms(111), at(2), "in use"), None);
        assert_eq!(s.deadline(), Some(ms(131)));
        assert_eq!(s.rebind_failed(ms(131), at(3), "in use"), None);
        assert_eq!(s.deadline(), Some(ms(171)));
        let down = s.rebind_failed(ms(171), at(4), "in use").unwrap();
        expect(
            &down,
            HealthState::Down,
            1,
            "rebind failed after 3 attempts: in use",
        );
        assert!(!s.serving());
        assert_eq!(s.deadline(), None);
    }

    #[test]
    fn more_crashes_than_the_breaker_allows_in_a_window_open_it() {
        let mut s = Supervision::new("pg", &options(2, 4), 7, Duration::ZERO);
        // Three crashes 100 ms apart: the third is the breaker's third
        // inside one 200 ms window.
        for (n, now) in [(1, 0), (2, 100)] {
            let t = s.crashed(ms(now), at(now));
            expect(&t, HealthState::Degraded, n, "accept loop died; restarting");
            assert_eq!(s.due(ms(now + 10), at(now)), Some(Due::Rebind));
            s.rebound(ms(now + 10), at(now));
        }
        let open = s.crashed(ms(200), at(200));
        let detail = "crash loop: 3 crashes within 200ms; circuit open";
        expect(&open, HealthState::Down, 3, detail);
        assert_eq!(s.deadline(), None);
        assert_eq!(s.due(ms(10_000), at(10_000)), None);
    }

    #[test]
    fn a_crash_after_the_window_starts_a_new_window() {
        let mut s = Supervision::new("pg", &options(1, 4), 7, Duration::ZERO);
        s.crashed(ms(0), at(0));
        s.rebound(ms(10), at(10));
        // 201 ms after the window opened: a new window, one crash in it.
        let t = s.crashed(ms(201), at(201));
        expect(&t, HealthState::Degraded, 2, "accept loop died; restarting");
        // The window opened at 201 ms still holds at 401 ms: two crashes.
        s.rebound(ms(211), at(211));
        let open = s.crashed(ms(401), at(401));
        let detail = "crash loop: 2 crashes within 200ms; circuit open";
        expect(&open, HealthState::Down, 3, detail);
    }
}
