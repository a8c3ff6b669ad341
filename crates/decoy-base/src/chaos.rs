//! Deterministic fault injection, for resilience testing.
//!
//! A seeded [`FaultPlan`] decides, as a pure function of stable
//! identifiers (the listener's fault key and its session number), which
//! faults strike which sessions. No shared counter and no clock takes
//! part, so the same seed yields the same fault schedule however tasks
//! interleave.
//!
//! Both transports consume the plan. decoy-net's listener and decoy-honeypots'
//! in-memory transport (`decoy_honeypots::driver::Memory`) call
//! [`FaultPlan::at_accept`] per accepted connection and either refuse it or
//! crash the listener, which the restart policy in
//! [`crate::supervision`] then restarts. Each delivered session's
//! [`SessionFaults`] are applied to the server's end of the connection
//! through one byte rule, [`FaultedIo`]: decoy-net's `ChaosStream` on a
//! socket, the in-memory connection in tier-1. The fleets install
//! [`FaultPlan::drops_append`] as an event-store fault hook, so
//! log-pipeline loss is injectable too. This module reads no attacker
//! bytes, but the socket shell runs it on every accepted connection, so
//! clippy holds it to the byte-path wall (DESIGN.md "Threat model of the
//! byte path").
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

use crate::splitmix64;
use std::io;
use std::time::Duration;

/// A deterministic per-mille roll in `0..1000` derived from
/// `(seed, key, seq, salt)`. Pure: same inputs, same roll.
pub(crate) fn per_mille(seed: u64, key: u64, seq: u64, salt: u64) -> u64 {
    splitmix64(splitmix64(splitmix64(seed ^ salt) ^ key) ^ seq) % 1000
}

// Distinct salts keep the individual fault decisions independent.
const SALT_REFUSE: u64 = 0xA1;
const SALT_CRASH: u64 = 0xA2;
const SALT_RESET: u64 = 0xA3;
const SALT_STALL: u64 = 0xA4;
const SALT_PARTIAL: u64 = 0xA5;
const SALT_STORE: u64 = 0xA6;

/// What the accept loop should do with one accepted connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcceptFault {
    /// Hand the connection to the session handler (possibly with
    /// [`SessionFaults`]).
    Deliver,
    /// Drop the connection at accept, as an overloaded or flaky host would.
    Refuse,
    /// Kill the whole accept task: the supervisor must notice and restart.
    CrashListener,
}

/// Faults applied to one delivered session's byte stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionFaults {
    /// Degrade the transport to 1-byte reads and writes.
    pub partial_io: bool,
    /// Stall this long before the first read completes.
    pub stall: Option<Duration>,
    /// Inject a connection reset after this many transferred bytes.
    pub reset_after: Option<u64>,
}

impl SessionFaults {
    /// True when no fault is active and the stream can run unwrapped.
    pub fn is_noop(&self) -> bool {
        *self == SessionFaults::default()
    }
}

/// A seeded, pure-function fault schedule.
///
/// Rates are expressed per mille (`0..=1000`) of sessions/appends affected.
/// All decision methods are pure functions of their arguments plus the
/// seed, so a plan can be cloned freely across listeners and tasks without
/// perturbing the schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed every decision derives from.
    pub seed: u64,
    /// ‰ of accepted connections refused at accept.
    pub refuse_per_mille: u64,
    /// ‰ of accepts that crash the accept task.
    pub crash_per_mille: u64,
    /// ‰ of delivered sessions that reset mid-stream.
    pub reset_per_mille: u64,
    /// ‰ of delivered sessions stalled before their first read.
    pub stall_per_mille: u64,
    /// ‰ of delivered sessions degraded to 1-byte I/O.
    pub partial_per_mille: u64,
    /// ‰ of event-store appends dropped.
    pub store_drop_per_mille: u64,
    /// How long a stalled session waits.
    pub stall_for: Duration,
    /// Bytes a resetting session transfers before the injected reset.
    pub reset_after_bytes: u64,
}

impl FaultPlan {
    /// A plan with every rate at zero (no faults) under `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            refuse_per_mille: 0,
            crash_per_mille: 0,
            reset_per_mille: 0,
            stall_per_mille: 0,
            partial_per_mille: 0,
            store_drop_per_mille: 0,
            stall_for: Duration::from_millis(50),
            reset_after_bytes: 64,
        }
    }

    /// A mild all-fault mix suitable for smoke replays: every fault class is
    /// exercised while keeping expected session loss well under 10%.
    pub fn mild(seed: u64) -> Self {
        FaultPlan {
            refuse_per_mille: 8,
            crash_per_mille: 20,
            reset_per_mille: 15,
            stall_per_mille: 25,
            partial_per_mille: 40,
            store_drop_per_mille: 5,
            ..FaultPlan::new(seed)
        }
    }

    /// Accept-time decision for session `seq` on the listener with fault
    /// key `key`. Crash is checked before refuse so a crash-heavy plan is
    /// not masked by its refuse rate.
    pub fn at_accept(&self, key: u64, seq: u64) -> AcceptFault {
        if per_mille(self.seed, key, seq, SALT_CRASH) < self.crash_per_mille {
            AcceptFault::CrashListener
        } else if per_mille(self.seed, key, seq, SALT_REFUSE) < self.refuse_per_mille {
            AcceptFault::Refuse
        } else {
            AcceptFault::Deliver
        }
    }

    /// Stream faults for delivered session `seq` on listener `key`.
    pub fn for_session(&self, key: u64, seq: u64) -> SessionFaults {
        SessionFaults {
            partial_io: per_mille(self.seed, key, seq, SALT_PARTIAL) < self.partial_per_mille,
            stall: (per_mille(self.seed, key, seq, SALT_STALL) < self.stall_per_mille)
                .then_some(self.stall_for),
            reset_after: (per_mille(self.seed, key, seq, SALT_RESET) < self.reset_per_mille)
                .then_some(self.reset_after_bytes),
        }
    }

    /// Whether the `n`-th event-store append should be dropped.
    pub fn drops_append(&self, n: u64) -> bool {
        per_mille(self.seed, 0, n, SALT_STORE) < self.store_drop_per_mille
    }
}

/// The byte rule of one faulted connection, applied to the server's end:
/// partial I/O moves one byte per read or write, and a reset fails every
/// read and write once `reset_after` bytes have crossed in either
/// direction. A transport asks [`FaultedIo::one_byte`] before each read or
/// write and reports what crossed with [`FaultedIo::record`]. The stall
/// is the transport's to apply.
#[derive(Debug, Clone, Default)]
pub struct FaultedIo {
    faults: SessionFaults,
    /// Bytes crossed in either direction.
    crossed: u64,
}

impl FaultedIo {
    /// The rule for a connection with `faults`.
    pub fn new(faults: SessionFaults) -> Self {
        FaultedIo { faults, crossed: 0 }
    }

    /// Whether the next read or write moves one byte only (`false`: as many
    /// as it has), or the injected reset once the reset budget is spent.
    pub fn one_byte(&self) -> io::Result<bool> {
        let reset = self
            .faults
            .reset_after
            .is_some_and(|budget| self.crossed >= budget);
        if reset {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "chaos: injected reset",
            ));
        }
        Ok(self.faults.partial_io)
    }

    /// Count `n` bytes a read or write moved.
    pub fn record(&mut self, n: usize) {
        let n = u64::try_from(n).unwrap_or(u64::MAX);
        self.crossed = self.crossed.saturating_add(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_pure_and_seed_dependent() {
        let a = FaultPlan::mild(42);
        let b = FaultPlan::mild(42);
        let c = FaultPlan::mild(43);
        let mut diverged = false;
        for key in [1u64, 7, 99] {
            for seq in 0..500u64 {
                assert_eq!(a.at_accept(key, seq), b.at_accept(key, seq));
                assert_eq!(a.for_session(key, seq), b.for_session(key, seq));
                assert_eq!(a.drops_append(seq), b.drops_append(seq));
                if a.at_accept(key, seq) != c.at_accept(key, seq)
                    || a.for_session(key, seq) != c.for_session(key, seq)
                {
                    diverged = true;
                }
            }
        }
        assert!(diverged, "different seeds produced identical schedules");
    }

    #[test]
    fn rates_are_roughly_honored() {
        let plan = FaultPlan {
            crash_per_mille: 100,
            refuse_per_mille: 100,
            store_drop_per_mille: 100,
            ..FaultPlan::new(7)
        };
        let n = 20_000u64;
        let crashes = (0..n)
            .filter(|&s| plan.at_accept(3, s) == AcceptFault::CrashListener)
            .count();
        let drops = (0..n).filter(|&s| plan.drops_append(s)).count();
        // 10% ± 2% over 20k draws
        for observed in [crashes, drops] {
            assert!((1600..=2400).contains(&observed), "observed {observed}");
        }
    }

    #[test]
    fn zero_rate_plan_is_silent() {
        let plan = FaultPlan::new(1);
        for seq in 0..2000 {
            assert_eq!(plan.at_accept(9, seq), AcceptFault::Deliver);
            assert!(plan.for_session(9, seq).is_noop());
            assert!(!plan.drops_append(seq));
        }
    }

    /// The same seed must produce the same fault schedule: the plan's
    /// decisions are pure, so two plans constructed alike agree on every
    /// session.
    #[test]
    fn fault_schedule_is_reproducible_across_plan_clones() {
        let a = FaultPlan::mild(904);
        let b = a.clone();
        // arbitrary distinct listener fault keys
        for key in [0xDEC0_1000, 0xDEC0_1001, 0xDEC0_1002] {
            for seq in 0..2_000 {
                assert_eq!(a.at_accept(key, seq), b.at_accept(key, seq));
                assert_eq!(a.for_session(key, seq), b.for_session(key, seq));
            }
        }
    }

    #[test]
    fn the_byte_rule_moves_single_bytes_and_resets_after_its_budget() {
        let mut clean = FaultedIo::new(SessionFaults::default());
        clean.record(1 << 20);
        assert!(!clean.one_byte().unwrap());

        let mut partial = FaultedIo::new(SessionFaults {
            partial_io: true,
            ..SessionFaults::default()
        });
        assert!(partial.one_byte().unwrap());
        partial.record(1);
        assert!(partial.one_byte().unwrap());

        // Reads and writes both count toward the budget; the reset fails
        // every operation from the one that finds it spent.
        let mut reset = FaultedIo::new(SessionFaults {
            reset_after: Some(4),
            ..SessionFaults::default()
        });
        reset.record(3);
        assert!(!reset.one_byte().unwrap());
        reset.record(1);
        for _ in 0..2 {
            let err = reset.one_byte().unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        }
    }
}
