#![warn(missing_docs)]
// Attacker bytes flow through this crate; the byte path must be total.
// Clippy holds that wall (DESIGN.md "Threat model of the byte path").
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

//! # decoy-net
//!
//! Networking substrate for the Decoy Databases honeypot fleet.
//!
//! This crate provides the async pieces every honeypot server and attacker
//! client is built from. The synchronous byte path under them (the
//! `Codec` trait, the frame buffer, the bounds-checked cursor and the
//! error types) is std-only and lives in `decoy-wire`:
//!
//! * [`framed`] — [`framed::Framed`], an async frame stream that drives a
//!   `decoy_wire::codec::Codec` over any `AsyncRead + AsyncWrite`, reading
//!   into a `decoy_wire::buf::RecvBuf`.
//! * [`pool`] — a thread-safe, size-classed [`pool::BufferPool`] of
//!   `Vec<u8>` write buffers, reused across connections instead of
//!   allocated per session.
//! * [`limiter`] — the connection gate that caps a listener's concurrent
//!   sessions, protecting honeypots from accidental self-DoS during replay.
//! * [`server`] — a supervised TCP listener: accept loop, per-session tasks,
//!   uniform session limits (deadline, idle timeout, byte budget), optional
//!   response-latency shaping (the std-only `decoy_base::latency` shaper),
//!   and graceful shutdown, following the Tokio guide idioms.
//! * [`supervisor`] — restart-on-death: the tokio shell of the restart
//!   policy (`decoy_base::supervision`: jittered exponential backoff, a
//!   crash-loop circuit breaker), and fleet health snapshots
//!   ([`decoy_base::HealthState`] per listener).
//! * [`chaos`] — the stream wrapper that applies a seeded fault plan's
//!   session faults (`decoy_base::chaos`) to a socket, used by the chaos
//!   and resilience suites.
//!
//! The fault plan, the byte rule of a faulted connection and the restart
//! policy are std-only and live in `decoy-base`, where the in-memory
//! transport runs them in tier-1; this crate keeps only the shells that
//! apply them to sockets.
//!
//! decoy-fleet's honeypot shell and its attacker drivers share these
//! primitives, so both sides of every recorded interaction flow through the
//! same production code path. The honeypots' protocol logic
//! (`decoy-honeypots`) names no socket: the shell reads frames with
//! [`framed::Framed`], feeds them to a honeypot's session machine and
//! writes its replies.

pub mod chaos;
pub mod framed;
pub mod limiter;
pub mod pool;
pub mod proxy;
pub mod server;
pub mod supervisor;

/// The virtual clock lives in [`decoy_base::time`], and the workspace
/// imports it from there. This alias exists only for the offline `bench/`
/// package, which still imports the clock through this crate.
pub use decoy_base::time;

pub use chaos::ChaosStream;
pub use framed::Framed;
pub use limiter::ConnectionGate;
pub use pool::{BufferPool, PooledBuf};
pub use server::{
    Listener, ListenerExit, ListenerOptions, ServerHandle, SessionCtx, SessionHandler,
    SessionLimits, SessionStream, ShutdownSignal,
};
pub use supervisor::{Supervisor, TransitionObserver};
