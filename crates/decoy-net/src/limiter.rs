//! Per-source rate limiting and connection admission.
//!
//! Honeypots deliberately accept hostile traffic, but the replay harness can
//! drive tens of thousands of sessions per second at a single listener; the
//! [`ConnectionGate`] bounds concurrent sessions and the [`RateLimiter`]
//! bounds per-source connection rates the way a production deployment would.

use decoy_base::sync::Mutex;
use decoy_base::time::Timestamp;
use std::collections::HashMap;
use std::net::IpAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Token-bucket rate limiter keyed by source IP.
///
/// Buckets refill continuously at `rate_per_sec` up to `burst`. Time is
/// supplied by the caller so the limiter works identically under wall and
/// simulated clocks.
#[derive(Debug)]
pub struct RateLimiter {
    rate_per_sec: f64,
    burst: f64,
    buckets: Mutex<HashMap<IpAddr, Bucket>>,
}

#[derive(Debug, Clone, Copy)]
struct Bucket {
    tokens: f64,
    last: Timestamp,
}

impl RateLimiter {
    /// A limiter allowing `rate_per_sec` sustained and `burst` instantaneous
    /// admissions per source IP.
    #[allow(
        clippy::disallowed_macros,
        reason = "deploy-time config invariant, not on the byte path"
    )]
    pub fn new(rate_per_sec: f64, burst: u32) -> Self {
        // Constructor misconfiguration is operator error at deploy time, not
        // attacker input; failing fast here can never be reached by peer
        // bytes. Locks below are decoy_base::sync and cannot poison.
        assert!(rate_per_sec > 0.0, "rate must be positive");
        assert!(burst >= 1, "burst must admit at least one");
        RateLimiter {
            rate_per_sec,
            burst: burst as f64,
            buckets: Mutex::new(HashMap::new()),
        }
    }

    /// An effectively unlimited limiter (used by experiments that model
    /// volume explicitly in the agent layer).
    pub fn unlimited() -> Self {
        RateLimiter::new(1e12, u32::MAX)
    }

    /// Try to admit one event from `ip` at time `now`.
    pub fn admit(&self, ip: IpAddr, now: Timestamp) -> bool {
        let mut buckets = self.buckets.lock();
        let bucket = buckets.entry(ip).or_insert(Bucket {
            tokens: self.burst,
            last: now,
        });
        let elapsed_s = now.millis_since(bucket.last) as f64 / 1000.0;
        bucket.tokens = (bucket.tokens + elapsed_s * self.rate_per_sec).min(self.burst);
        bucket.last = if now > bucket.last { now } else { bucket.last };
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Drop state for sources idle since before `cutoff` (housekeeping).
    pub fn evict_idle(&self, cutoff: Timestamp) {
        self.buckets.lock().retain(|_, b| b.last >= cutoff);
    }

    /// Number of sources currently tracked.
    pub fn tracked_sources(&self) -> usize {
        self.buckets.lock().len()
    }
}

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
    use decoy_base::time::EXPERIMENT_START;

    fn ip(n: u8) -> IpAddr {
        IpAddr::from([10, 0, 0, n])
    }

    #[test]
    fn rate_limiter_allows_burst_then_blocks() {
        let rl = RateLimiter::new(1.0, 3);
        let t = EXPERIMENT_START;
        assert!(rl.admit(ip(1), t));
        assert!(rl.admit(ip(1), t));
        assert!(rl.admit(ip(1), t));
        assert!(!rl.admit(ip(1), t));
        // another source has its own bucket
        assert!(rl.admit(ip(2), t));
    }

    #[test]
    fn rate_limiter_refills_over_time() {
        let rl = RateLimiter::new(2.0, 2);
        let t = EXPERIMENT_START;
        assert!(rl.admit(ip(1), t));
        assert!(rl.admit(ip(1), t));
        assert!(!rl.admit(ip(1), t));
        // after 500ms at 2 tokens/s one token is back
        let t2 = t.add_millis(500);
        assert!(rl.admit(ip(1), t2));
        assert!(!rl.admit(ip(1), t2));
    }

    #[test]
    fn rate_limiter_caps_at_burst() {
        let rl = RateLimiter::new(100.0, 2);
        let t = EXPERIMENT_START;
        assert!(rl.admit(ip(1), t));
        // a long pause must not bank more than `burst` tokens
        let t2 = t.add_millis(60_000);
        assert!(rl.admit(ip(1), t2));
        assert!(rl.admit(ip(1), t2));
        assert!(!rl.admit(ip(1), t2));
    }

    #[test]
    fn eviction_drops_idle_sources() {
        let rl = RateLimiter::new(1.0, 1);
        let t = EXPERIMENT_START;
        rl.admit(ip(1), t);
        rl.admit(ip(2), t.add_millis(10_000));
        assert_eq!(rl.tracked_sources(), 2);
        rl.evict_idle(t.add_millis(5_000));
        assert_eq!(rl.tracked_sources(), 1);
    }

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
