//! # decoy-xtask
//!
//! Registry-free static analysis of the workspace, run as
//! `cargo run -p decoy-xtask -- analyze`.
//!
//! The crate is a library plus a thin CLI (`main.rs`) so the analysis
//! passes are unit- and integration-testable without spawning the binary:
//!
//! * [`tok`] — the shared brace-aware tokenizer every pass is built on
//!   (comment/string stripping with preserved spans, token stream, `fn`
//!   item recovery, test masking).
//! * [`diag`] — unified findings, `decoy-lint: allow` escape hatches, the
//!   per-file [`diag::SourceFile`] context, JSON reports, and the
//!   checked-in suppression baseline.
//! * [`locks`] — lock discipline: inter-function lock-order cycles across
//!   the serving crates.
//! * [`alloc`] — hot-path allocation bans in `decoy-hot-path`-tagged
//!   modules.
//! * [`bench`](mod@bench) — freshness of committed `BENCH_*.json` placeholders.
//! * [`analyze`] — the orchestrator wiring scopes, passes, and baseline
//!   together.

pub mod alloc;
pub mod analyze;
pub mod bench;
pub mod diag;
pub mod locks;
pub mod tok;
