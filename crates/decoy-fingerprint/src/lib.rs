//! `decoy-fingerprint`: the fingerprinting arms race, instrumented.
//!
//! The paper's deployment depends on attackers treating the decoys as
//! real databases; a scanner that can cheaply distinguish a honeypot
//! changes the observed attack mix. This crate keeps the fleet honest
//! with a three-part loop:
//!
//! * [`probes`] -- a multistage probe battery (banner consistency,
//!   capability-flag coherence, error-catalog fidelity, timing
//!   distribution) that inspects a captured [`Surface`] the way a
//!   fingerprinting scanner would and emits weighted findings.
//! * [`engine`] -- captures each family's surface through the honeypot's
//!   genuine client protocol, over any `decoy_wire::codec::Dial`
//!   transport: the session machines in memory (tier-1 and the
//!   `fingerprint_scorecard` binary) or live listeners over TCP
//!   (decoy-fleet's test).
//! * [`score`] -- folds findings into a per-family detectability
//!   [`Scorecard`], persisted as `FINGERPRINT_BASELINE.json` with a
//!   write-baseline ratchet that refuses regressions.
//!
//! [`corpus`] rebuilds the pre-hardening surfaces from captured ones, so
//! the score improvement from the hardening layer
//! (`decoy_honeypots::catalog`, the seeded latency shaper in
//! `decoy_base::latency`) stays measurable and regression-proof.

// The probes parse live honeypot responses, attacker-shaped bytes; clippy
// holds them to the byte-path wall (DESIGN.md "Threat model of the byte
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
#![warn(missing_docs)]

pub mod corpus;
pub mod engine;
pub mod probes;
pub mod score;

pub use engine::{capture, capture_in_memory, Timing, TARGETS};
pub use probes::{run_all, ProbeFinding, Surface, FAMILIES};
pub use score::Scorecard;

/// Probe a set of surfaces and fold the findings into a scorecard.
pub fn evaluate(surfaces: &[Surface]) -> (Vec<ProbeFinding>, Scorecard) {
    let findings: Vec<ProbeFinding> = surfaces.iter().flat_map(probes::run_all).collect();
    let card = Scorecard::tally(&findings);
    (findings, card)
}
