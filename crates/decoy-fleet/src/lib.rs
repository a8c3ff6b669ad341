#![warn(missing_docs)]

//! # decoy-fleet
//!
//! Network mode of the Decoy Databases experiment: the same 20-day
//! schedule the direct replay emits, driven over real TCP against a live,
//! supervised honeypot fleet on loopback.
//!
//! * [`deploy`] — the one async shell that puts a honeypot's session
//!   machine (`decoy-honeypots`) on a socket: the PROXY sniff, the framed
//!   reads, the machine call and the replies' writes; and the helpers that
//!   bind a honeypot spec, alone or under supervision.
//! * [`driver`] — the TCP transport of the attack client
//!   (`decoy_agents::client`): runs one planned session against a live
//!   honeypot, announcing the actor's address via the PROXY protocol, and
//!   carries the fingerprint battery (`tests/fingerprint.rs`). The
//!   same client runs against the session machines in memory in tier-1,
//!   where `tests/modes_offline.rs` holds it to direct mode event for event;
//!   `modes_equivalent` here checks this shell against direct mode.
//! * [`runner`] — stands every honeypot of the deployment plan up under
//!   supervision, replays the schedule 64 sessions at a time, and
//!   snapshots the fleet's health. The set-up and finish (spool journal,
//!   live report, plan → population → schedule, durability barrier) are
//!   `decoy_core::runner::Replay`'s, shared with the direct replay.

pub mod deploy;
pub mod driver;
pub mod runner;

pub use runner::run;
