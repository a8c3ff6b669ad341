#![warn(missing_docs)]
// Honeypot read paths handle attacker-controlled bytes end to end. Like
// decoy-wire, they must be total: Ok or Err, never a panic. Clippy holds
// that wall; see DESIGN.md "Threat model of the byte path".
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

//! # decoy-honeypots
//!
//! The honeypot fleet of the paper as std-only session machines over
//! `decoy-wire` frames, logging into `decoy-store`:
//!
//! | Module | Paper honeypot | Level | DBMS |
//! |---|---|---|---|
//! | [`low`] | Qeeqbox Honeypots | low | MySQL, PostgreSQL, Redis, MSSQL |
//! | [`redis_med`] | RedisHoneyPot | medium | Redis (default + fake-data configs) |
//! | [`pg_med`] | Sticky Elephant | medium | PostgreSQL (default + login-disabled) |
//! | [`elastic`] | Elasticpot | medium | Elasticsearch (JSON-driven responses) |
//! | [`mongo_high`] | mongodb-honeypot | high | MongoDB over a real document store |
//! | [`mysql_med`] | *(extension, §7)* | medium | MySQL with scripted SQL responses |
//! | [`couch_med`] | *(extension, §7)* | medium | CouchDB over HTTP fronting a real document store |
//!
//! Each honeypot is a [`session::Session`]: a state machine that answers
//! one decoded frame at a time, with no socket and no runtime.
//! [`session::Conversation`] logs a connection's life around it, and
//! decoy-fleet's shell is the only code that puts a machine on a socket
//! (with the PROXY-protocol sniff that preserves simulated source
//! addresses exactly as a production load balancer would). [`deploy`]
//! builds the machine each deployed honeypot runs, for that shell and for
//! [`driver`], the in-memory transport the attack client
//! (`decoy_agents::client`) runs against in tier-1. Every session
//! logs standardized [`decoy_store::Event`]s through
//! [`logging::SessionLogger`]. Honeypots never execute captured payloads
//! (Appendix A): exploit bytes are stored, recognized, and answered with
//! the protocol's plausible response.
//!
//! The [`catalog`] module is the fingerprinting-hardening layer: one
//! authoritative version profile and real error-message catalog per DBMS,
//! validated for coherence at deploy time. The `decoy-fingerprint` battery
//! scores it through the machines: it captures their replies over
//! [`driver::Memory`], so no probe reads the renderers directly.
//!
//! The [`docdb`] module is the document engine behind [`mongo_high`] and
//! [`couch_med`]: a miniature MongoDB (databases → collections → BSON
//! documents) that gives them a *real* database to steal from and ransom,
//! per §6.3.

pub mod catalog;
pub mod couch_med;
pub mod deploy;
pub mod docdb;
pub mod driver;
pub mod elastic;
pub mod logging;
pub mod low;
pub mod mongo_high;
pub mod mysql_med;
pub mod pg_med;
pub mod redis_med;
pub mod session;

pub use logging::SessionLogger;
