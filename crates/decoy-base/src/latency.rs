//! Seeded per-op response-latency shaping.
//!
//! A honeypot that answers every query in tens of microseconds is trivially
//! fingerprintable: real DBMS servers sit behind query planners, buffer
//! pools, and spinning disks, and their response latencies form a skewed
//! distribution with a long tail. The multistage-fingerprinting literature
//! ("Gotta catch 'em all", PAPERS.md) samples exactly that distribution.
//!
//! [`LatencyShaper`] closes the gap deterministically: every `(seed,
//! session, op)` triple hashes to one draw from a configurable
//! [`LatencyProfile`] (floor / median / ceiling plus a per-mille tail
//! probability), so replaying an experiment replays its latencies — no
//! wall-clock flake, no RNG state threading. decoy-net's listener applies
//! the draw per response write (its `server::SessionStream`): on a
//! simulated [`Clock`](crate::time::Clock) the shared clock advances
//! instead of the task sleeping, keeping tests instant; on the wall clock
//! the session really waits.
//!
//! Shaping is opt-in (`ListenerOptions::latency` defaults to `None`) so
//! existing byte-identity goldens are untouched.

use crate::splitmix64;
use std::time::Duration;

/// Shape of the response-latency distribution a shaper draws from.
///
/// All quantities are microseconds. Draws are triangular on
/// `[floor_us, 2*median_us - floor_us]` peaked at `median_us`, except that
/// `tail_per_mille` out of every 1000 draws land uniformly in
/// `[median_us, ceil_us]` — the long tail a loaded server shows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyProfile {
    /// Fastest plausible response (cache hit, already-parsed statement).
    pub floor_us: u64,
    /// Typical response; the peak of the body distribution.
    pub median_us: u64,
    /// Slowest shaped response; every draw is clamped here.
    pub ceil_us: u64,
    /// Out of every 1000 ops, how many draw from the slow tail.
    pub tail_per_mille: u16,
}

impl LatencyProfile {
    /// A LAN-attached database: sub-millisecond floor, a few milliseconds
    /// typical, occasional tens-of-milliseconds stalls.
    pub fn lan() -> Self {
        LatencyProfile {
            floor_us: 350,
            median_us: 2_400,
            ceil_us: 45_000,
            tail_per_mille: 30,
        }
    }

    /// An in-memory store (Redis-like): faster floor and median, shorter
    /// tail — but still a distribution, never a constant.
    pub fn cache() -> Self {
        LatencyProfile {
            floor_us: 120,
            median_us: 650,
            ceil_us: 9_000,
            tail_per_mille: 15,
        }
    }
}

impl Default for LatencyProfile {
    fn default() -> Self {
        LatencyProfile::lan()
    }
}

/// Deterministic per-op latency source: a pure function of
/// `(seed, session, op)`, shared by every listener in a deployment via
/// `ListenerOptions::latency`.
#[derive(Debug, Clone)]
pub struct LatencyShaper {
    seed: u64,
    profile: LatencyProfile,
}

impl LatencyShaper {
    /// A shaper keyed by `seed` drawing from `profile`.
    pub fn new(seed: u64, profile: LatencyProfile) -> Self {
        LatencyShaper { seed, profile }
    }

    /// The distribution this shaper draws from.
    pub fn profile(&self) -> &LatencyProfile {
        &self.profile
    }

    // decoy-hot-path: fn -- one draw per response write on every shaped session
    /// The delay for response `op` of session `session`: pure integer
    /// hashing, no RNG state, no allocation. Identical inputs always
    /// yield the identical delay.
    pub fn delay_for(&self, session: u64, op: u64) -> Duration {
        let p = &self.profile;
        let h = splitmix64(self.seed ^ splitmix64(session ^ splitmix64(op)));
        let micros = if (h >> 52) % 1000 < u64::from(p.tail_per_mille) {
            // Tail draw: uniform over [median, ceil].
            let span = p.ceil_us.saturating_sub(p.median_us);
            p.median_us + (h & 0xffff_ffff) % span.saturating_add(1)
        } else {
            // Body draw: sum of two independent 16-bit lanes gives a
            // triangular distribution peaked at the median.
            let spread = p.median_us.saturating_sub(p.floor_us);
            let a = h & 0xffff;
            let b = (h >> 16) & 0xffff;
            p.floor_us + ((a + b) * spread) / 0xffff
        };
        Duration::from_micros(micros.min(p.ceil_us))
    }

    // decoy-hot-path: fn -- deadline clamp on the same per-write path
    /// [`LatencyShaper::delay_for`] clamped so a shaped delay can never
    /// outlive the session budget (`SessionLimits::deadline` remainder).
    pub fn delay_within(&self, session: u64, op: u64, remaining: Option<Duration>) -> Duration {
        let d = self.delay_for(session, op);
        match remaining {
            Some(r) => d.min(r),
            None => d,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{for_all, Rng};

    #[test]
    fn identical_inputs_identical_delays() {
        let s = LatencyShaper::new(11, LatencyProfile::lan());
        for session in 0..50u64 {
            for op in 0..20u64 {
                assert_eq!(s.delay_for(session, op), s.delay_for(session, op));
            }
        }
    }

    #[test]
    fn draws_stay_inside_the_profile() {
        let p = LatencyProfile::lan();
        let s = LatencyShaper::new(7, p.clone());
        for session in 0..200u64 {
            for op in 0..10u64 {
                let d = s.delay_for(session, op).as_micros() as u64;
                assert!(d >= p.floor_us, "{d} below floor");
                assert!(d <= p.ceil_us, "{d} above ceiling");
            }
        }
    }

    #[test]
    fn distribution_is_not_a_constant() {
        let s = LatencyShaper::new(3, LatencyProfile::cache());
        let mut seen = std::collections::HashSet::new();
        for op in 0..64u64 {
            seen.insert(s.delay_for(1, op));
        }
        assert!(seen.len() > 16, "only {} distinct delays", seen.len());
    }

    #[test]
    fn tail_draws_occur_but_rarely() {
        let p = LatencyProfile::lan();
        let s = LatencyShaper::new(5, p.clone());
        // The body draw is symmetric about the median and ends at
        // `2 * median_us - floor_us`; only tail draws land above that.
        let body_top = 2 * p.median_us - p.floor_us;
        let mut tail = 0usize;
        let total = 4000usize;
        for op in 0..total as u64 {
            if s.delay_for(9, op).as_micros() as u64 > body_top {
                tail += 1;
            }
        }
        assert!(tail > 0, "no tail draws in {total}");
        assert!(tail < total / 4, "{tail} tail draws is not a tail");
    }

    #[test]
    fn delay_within_respects_the_budget() {
        let s = LatencyShaper::new(1, LatencyProfile::lan());
        let cap = Duration::from_micros(500);
        for op in 0..100u64 {
            assert!(s.delay_within(2, op, Some(cap)) <= cap);
        }
        assert_eq!(s.delay_within(2, 0, None), s.delay_for(2, 0));
    }

    #[test]
    fn different_seeds_diverge() {
        let a = LatencyShaper::new(1, LatencyProfile::lan());
        let b = LatencyShaper::new(2, LatencyProfile::lan());
        let diverged = (0..32u64).any(|op| a.delay_for(1, op) != b.delay_for(1, op));
        assert!(diverged);
    }

    /// The draw is a pure function of (seed, session, op): two shapers
    /// built from the same seed agree on every delay.
    #[test]
    fn prop_delay_is_deterministic() {
        let gen = |rng: &mut Rng| (rng.next_u64(), rng.next_u64(), rng.next_u64());
        for_all(0x1a7, 256, gen, |&(seed, session, op)| {
            let a = LatencyShaper::new(seed, LatencyProfile::lan());
            let b = LatencyShaper::new(seed, LatencyProfile::lan());
            assert_eq!(a.delay_for(session, op), b.delay_for(session, op));
        });
    }

    /// A shaped delay clamped by the session deadline never exceeds it,
    /// and an unclamped delay never exceeds the profile ceiling — so
    /// shaping can never push a session past `SessionLimits::deadline`.
    #[test]
    fn prop_delay_respects_deadlines() {
        let gen = |rng: &mut Rng| {
            let ids = (rng.next_u64(), rng.next_u64(), rng.next_u64());
            (ids, rng.gen_range(1u64..2_000_000))
        };
        for_all(0x1a8, 256, gen, |&((seed, session, op), cap_us)| {
            let p = LatencyProfile::lan();
            let s = LatencyShaper::new(seed, p.clone());
            let cap = Duration::from_micros(cap_us);
            assert!(s.delay_within(session, op, Some(cap)) <= cap);
            assert!(s.delay_for(session, op).as_micros() as u64 <= p.ceil_us);
        });
    }
}
