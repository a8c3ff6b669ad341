#![warn(missing_docs)]
// Every byte entering this crate is attacker-controlled. Parsing must be
// total: Ok or Err, never a panic. Clippy holds that wall; an escape is
// `#[allow(clippy::…, reason = "…")]`. See DESIGN.md "Threat model of the
// byte path".
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

//! # decoy-wire
//!
//! From-scratch wire-protocol implementations for every database the paper's
//! honeypots emulate, each with **both** the server side (used by
//! `decoy-honeypots`) and the client side (used by the attacker drivers in
//! `decoy-fleet`), so recorded interactions traverse real protocol code in
//! both directions.
//!
//! | Module | Protocol | Used by |
//! |---|---|---|
//! | [`resp`] | Redis RESP2 (+ inline commands) | low + medium Redis honeypots |
//! | [`pgwire`] | PostgreSQL frontend/backend v3 | low + medium (Sticky-Elephant-style) PostgreSQL |
//! | [`mysql`] | MySQL client/server protocol (handshake v10) | low MySQL |
//! | [`tds`] | MS SQL Server TDS (PRELOGIN / LOGIN7) | low MSSQL |
//! | [`mongo`] | MongoDB `OP_MSG`/`OP_QUERY` over our own [`mongo::bson`] codec | high MongoDB |
//! | [`http`] | minimal HTTP/1.1 | medium Elasticsearch (Elasticpot-style) |
//!
//! All codecs implement [`codec::Codec`]: incremental, bounded, and
//! tolerant of adversarial bytes. They decode from a [`buf::RecvBuf`], the
//! read buffer whose frames are [`buf::Bytes`] views of its own storage,
//! and encode into a plain `Vec<u8>`. Decoding is *total* — every input
//! yields `Ok` or a structured [`error::WireError`], read through the
//! bounds-checked [`cursor::ByteCursor`]; clippy's panic wall above forbids
//! panics, and the mutation campaign in `tests/wire_total.rs` exercises
//! it. The crate is std-only: the byte path builds and tests with no
//! socket and no crates.io package.

pub mod buf;
pub mod codec;
pub mod cursor;
pub mod error;
pub mod http;
pub mod mongo;
pub mod mysql;
pub mod pgwire;
pub mod resp;
pub mod tds;

/// Hard ceiling on any single frame accepted from a peer, shared by every
/// codec in this crate. Individual protocols may enforce tighter limits
/// (and most do), but no attacker-supplied length field may commit us to
/// buffering more than this, no matter what the frame header claims.
pub const MAX_FRAME: usize = 48 << 20;
