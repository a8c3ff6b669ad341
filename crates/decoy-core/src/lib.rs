#![warn(missing_docs)]

//! # decoy-core
//!
//! Orchestration for the full Decoy Databases experiment:
//!
//! * [`deployment`] — the Table 4 deployment plan (278 honeypots at paper
//!   scale: 220 low-interaction on multi/single-service VMs, 40 medium, 8
//!   high across eight countries), scalable, with deterministic instance
//!   seeds shared by both execution modes.
//! * [`runner`] — builds the population, expands the 20-day schedule, and
//!   replays it straight into the event store ([`runner::run_direct`]),
//!   advancing a shared simulated clock. [`runner::Replay`] is the set-up
//!   and finish `decoy-fleet`'s network runner shares when it replays the
//!   same schedule over real TCP against live honeypots.
//! * [`report`] — regenerates every table and figure of the paper from the
//!   collected events, annotated with the paper's published values for
//!   side-by-side comparison (EXPERIMENTS.md is generated from this).
//!   Besides the batch path, the report folds: segment-streamed from a
//!   journal with bounded memory ([`Report::from_journal_streaming`]),
//!   merged across sharded journal directories ([`Report::from_shards`]),
//!   or re-rendered live while a run is still writing ([`LiveReport`]).

pub mod deployment;
pub mod report;
pub mod runner;

pub use deployment::{DeploymentPlan, InstanceRef};
pub use report::{LiveReport, Report};
pub use runner::{ExperimentConfig, ExperimentResult, Replay};
