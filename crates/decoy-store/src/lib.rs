#![warn(missing_docs)]
// The journal's recovery path parses possibly corrupt bytes from disk, and
// `foreign` and `kv` take attacker bytes from the honeypots; clippy holds
// the crate to the byte-path wall (DESIGN.md "Threat model of the byte
// path").
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

//! # decoy-store
//!
//! Storage engines for the Decoy Databases reproduction:
//!
//! * [`events`] — the standardized, queryable event store every honeypot
//!   logs into. This is the paper's "convert all logs into SQLite databases"
//!   pipeline stage (§4.3, Figure 1), rebuilt as an embedded append-only log.
//! * [`kv`] — a Redis-like keyspace backing the medium-interaction Redis
//!   honeypot (strings, config table, SLAVEOF state) and holding the
//!   Mockaroo-style fake login entries of the paper's "fake data" variant.
//! * [`journal`] — a durable, segmented, append-only binary journal with
//!   crash recovery and streaming replay, so a run (and its evidence) can
//!   outlive the process that captured it.
//! * [`foreign`] — non-database payloads thrown at database ports (RDP
//!   `mstshash`, JDWP handshake, VMware SOAP recon): builders for the
//!   agents, and the recognizer the honeypots and the direct emitter run on
//!   every opaque payload they log.

pub mod events;
pub mod foreign;
pub mod journal;
pub mod kv;
pub mod mask;

pub use events::{
    Chunk, ConfigVariant, Dbms, Event, EventKind, EventKindRef, EventLog, EventRef, EventStore,
    HoneypotId, InteractionLevel, SessionKey, SessionSet,
};
pub use journal::{
    decode_segment, recover_events, recover_full_store, JournalConfig, JournalError,
    JournalErrorKind, JournalReader, JournalTail, JournalWriter, RecoveryStats, SegmentBatch,
    SegmentVerdict, Segments, WriterStats,
};
pub use mask::normalize_action;
