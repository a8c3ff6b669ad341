#![warn(missing_docs)]

//! # Decoy Databases
//!
//! A production-quality Rust reproduction of *"Decoy Databases: Analyzing
//! Attacks on Public Facing Databases"* (IMC 2025): a fleet of database
//! honeypots (low/medium/high interaction, six DBMS wire protocols
//! implemented from scratch), an attacker-population simulator standing in
//! for the live Internet, and the full analysis pipeline — behavioral
//! classification, TF + Ward clustering, campaign tagging, and every table
//! and figure of the paper's evaluation.
//!
//! ## Crate map
//!
//! This facade re-exports the std-only half of the workspace, the crates
//! that build and test with no crates.io package:
//!
//! | Facade module | Crate | Contents |
//! |---|---|---|
//! | [`base`] | `decoy-base` | the one seeded generator (xoshiro256**), the one JSON codec, virtual time, listener and fleet health, the one lock type |
//! | [`store`] | `decoy-store` | event store, durable journal, Redis-like keyspace, foreign-payload recognition |
//! | [`fakedata`] | `decoy-fakedata` | Mockaroo-style bait data |
//! | [`geo`] | `decoy-geo` | GeoIP/ASN enrichment (prefix trie + AS registry) |
//! | [`agents`] | `decoy-agents` | attacker cohorts, campaign scripts, the direct-mode emitter |
//! | [`analysis`] | `decoy-analysis` | classification, clustering, tables, figures |
//! | [`core`] | `decoy-core` | Table 4 deployment, the direct runner, report |
//!
//! Three more std-only crates sit in the root workspace but are not
//! re-exported here: `decoy-wire` (MySQL, PostgreSQL, TDS, RESP,
//! MongoDB+BSON and HTTP codecs), `decoy-honeypots` (the five honeypot
//! families of Table 3 as sans-IO session machines) and
//! `decoy-fingerprint` (the probe battery that scores those machines'
//! detectability). The socket half is the `net/` workspace: `decoy-net`
//! (framing, PROXY protocol, listeners, supervision), `decoy-bench` and
//! `decoy-fleet` (the honeypots' socket shell, the attack client's TCP
//! transport and the network-mode runner).
//!
//! ## Quickstart
//!
//! ```no_run
//! use decoy_databases::core::runner::{run_direct, ExperimentConfig};
//! use decoy_databases::core::Report;
//!
//! # fn demo() -> std::io::Result<()> {
//! // Replay a scaled 20-day deployment and regenerate the paper's tables.
//! let result = run_direct(ExperimentConfig::direct(42, 0.05))?;
//! println!("{}", Report::generate(&result).render_text());
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` (and `crates/decoy-fleet/examples/` for the networked
//! ones) for runnable entry points and DESIGN.md / EXPERIMENTS.md for the
//! experiment inventory.

pub use decoy_agents as agents;
pub use decoy_analysis as analysis;
pub use decoy_base as base;
pub use decoy_core as core;
pub use decoy_fakedata as fakedata;
pub use decoy_geo as geo;
pub use decoy_store as store;
