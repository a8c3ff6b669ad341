//! Listener health, as the supervisor tracks it, the event store logs it
//! and the report's fleet section renders it.

use crate::supervision::Transition;
use std::net::SocketAddr;

/// Health of one supervised listener.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum HealthState {
    /// Accepting connections, no recent crash.
    Healthy,
    /// Restarted recently; watching for a crash loop.
    Degraded,
    /// Circuit breaker open: crash loop or rebind failure; not restarting.
    Down,
}

impl HealthState {
    /// Display label used in report tables.
    pub fn label(&self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Down => "down",
        }
    }
}

/// Snapshot of one listener's health.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ListenerHealth {
    /// Display name.
    pub name: String,
    /// Current state.
    pub state: HealthState,
    /// Total restarts so far.
    pub restarts: u32,
    /// Bound address; `None` once the listener is down.
    pub addr: Option<SocketAddr>,
}

impl ListenerHealth {
    /// Take `transition`'s state and restart count; a listener that goes
    /// down loses its address.
    pub fn apply(&mut self, transition: &Transition) {
        self.state = transition.state;
        self.restarts = transition.restarts;
        if transition.state == HealthState::Down {
            self.addr = None;
        }
    }
}

/// Point-in-time health of every supervised listener.
#[derive(Debug, Clone, Default)]
pub struct FleetHealth {
    /// One entry per supervised listener, in registration order.
    pub listeners: Vec<ListenerHealth>,
}

impl FleetHealth {
    /// Listeners currently in `state`.
    pub fn count(&self, state: HealthState) -> usize {
        self.listeners.iter().filter(|l| l.state == state).count()
    }

    /// Total restarts across the fleet.
    pub fn restarts_total(&self) -> u64 {
        self.listeners.iter().map(|l| u64::from(l.restarts)).sum()
    }

    /// One-line summary for logs and reports.
    pub fn summary(&self) -> String {
        format!(
            "{} listeners: {} healthy, {} degraded, {} down, {} restarts",
            self.listeners.len(),
            self.count(HealthState::Healthy),
            self.count(HealthState::Degraded),
            self.count(HealthState::Down),
            self.restarts_total()
        )
    }
}
