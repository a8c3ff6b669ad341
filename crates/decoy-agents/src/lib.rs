#![warn(missing_docs)]

//! # decoy-agents
//!
//! The attacker-population simulator — our substitute for the live Internet
//! traffic the paper's honeypots received over 20 days (see DESIGN.md's
//! substitution table).
//!
//! * [`credentials`] — brute-force credential corpora (Table 12's top
//!   MSSQL pairs, generated long-tail lists, the paper's single-combination
//!   PostgreSQL actors).
//! * [`scripts`] — per-session attack scripts: every campaign of Table 9
//!   and Listings 1–14, expressed as protocol-level intents.
//! * [`actors`] — the actor model: source address, activity window, visit
//!   rate, targets, script.
//! * [`population`] — cohort definitions calibrated to the paper's
//!   aggregates (country/AS mixes of Tables 5–7, the classification splits
//!   of Table 8, the campaign sizes of Table 9), scaled by a global factor.
//! * [`schedule`] — expands actors into a time-ordered session plan over
//!   the virtual 20-day window.
//! * [`direct`] — direct mode: emits the standardized events a honeypot
//!   would log for each planned session, without TCP, for full-volume runs.
//! * [`client`] — the attack client: each script's conversation in the
//!   target's wire protocol, generic over a `Dial` transport.
//!
//! The crate opens no socket and names no crates.io package. Network mode
//! runs the client over real TCP against live honeypots (`decoy-fleet`'s
//! `driver`); tier-1 runs it against the honeypots' session machines in
//! memory, and `tests/modes_offline.rs` holds it to direct mode event for
//! event.
//!
//! Everything is deterministic in `(seed, scale)`.

pub mod actors;
pub mod client;
pub mod credentials;
pub mod direct;
pub mod population;
pub mod schedule;
pub mod scripts;

pub use actors::{Actor, ActorScript, TargetSelector};
pub use population::{build_population, PopulationConfig};
pub use schedule::{build_schedule, PlannedSession};
pub use scripts::SessionScript;
