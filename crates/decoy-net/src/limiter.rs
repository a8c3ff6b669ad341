//! Connection admission.
//!
//! Honeypots deliberately accept hostile traffic, but the replay harness can
//! drive tens of thousands of sessions per second at a single listener; the
//! [`ConnectionGate`] bounds concurrent sessions the way a production
//! deployment would.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Bounds the number of concurrently active sessions on a listener.
///
/// Cheap clone-able handle; a [`ConnectionPermit`] releases its slot on drop.
#[derive(Debug, Clone)]
pub struct ConnectionGate {
    inner: Arc<GateInner>,
}

#[derive(Debug)]
struct GateInner {
    active: AtomicUsize,
    limit: usize,
    rejected_total: AtomicUsize,
}

/// RAII permit for one active session.
#[derive(Debug)]
pub struct ConnectionPermit {
    inner: Arc<GateInner>,
}

impl ConnectionGate {
    /// A gate admitting at most `limit` concurrent sessions.
    #[allow(
        clippy::disallowed_macros,
        reason = "deploy-time config invariant, not on the byte path"
    )]
    pub fn new(limit: usize) -> Self {
        assert!(limit >= 1, "gate must admit at least one session");
        ConnectionGate {
            inner: Arc::new(GateInner {
                active: AtomicUsize::new(0),
                limit,
                rejected_total: AtomicUsize::new(0),
            }),
        }
    }

    /// Try to claim a session slot.
    pub fn try_acquire(&self) -> Option<ConnectionPermit> {
        let mut cur = self.inner.active.load(Ordering::Relaxed);
        loop {
            if cur >= self.inner.limit {
                self.inner.rejected_total.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            match self.inner.active.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    return Some(ConnectionPermit {
                        inner: self.inner.clone(),
                    })
                }
                Err(actual) => cur = actual,
            }
        }
    }

    /// Sessions currently holding permits.
    pub fn active(&self) -> usize {
        self.inner.active.load(Ordering::Acquire)
    }

    /// Total connections turned away since creation.
    pub fn rejected_total(&self) -> usize {
        self.inner.rejected_total.load(Ordering::Relaxed)
    }
}

impl Drop for ConnectionPermit {
    fn drop(&mut self) {
        self.inner.active.fetch_sub(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_limits_concurrency_and_counts_rejections() {
        let gate = ConnectionGate::new(2);
        let p1 = gate.try_acquire().unwrap();
        let _p2 = gate.try_acquire().unwrap();
        assert!(gate.try_acquire().is_none());
        assert_eq!(gate.active(), 2);
        assert_eq!(gate.rejected_total(), 1);
        drop(p1);
        assert_eq!(gate.active(), 1);
        assert!(gate.try_acquire().is_some());
    }
}
