#![warn(missing_docs)]

//! # decoy-analysis
//!
//! The paper's analysis pipeline (§4.3, §5, §6) over the standardized event
//! stream:
//!
//! * [`frame`] — the materialized [`AnalysisFrame`]:
//!   one pass over the events (decoded in place, on every core) that
//!   partitions the fleet, enriches each source IP once, interns strings,
//!   and gives every source a dense id that per-source tables and figures
//!   index. Every paper artifact below
//!   has exactly one implementation, and it takes a
//!   [`FrameView`], so the whole report shares that
//!   single pass.
//! * [`classify`] — the scanning / scouting / exploiting behavior rules.
//! * [`tf`] — per-source action sequences and Term Frequency vectors (§6.1);
//!   the sparse vector/vocabulary types live in [`tfvec`].
//! * [`cluster`] — agglomerative hierarchical clustering with Ward linkage;
//!   the O(n²) nearest-neighbor-chain engine (Lance–Williams recurrence,
//!   condensed matrix, canonical merge order) lives in [`ward`].
//! * [`tagging`] — campaign tags (P2PInfect, ABCbot, Kinsing, Lucifer,
//!   ransom, CVE probes, ...) assigned from recognizable action patterns.
//! * [`behavior`] — the [`BehaviorTable`](behavior::BehaviorTable): every
//!   medium/high source's profile, documents and tags folded once per
//!   source id and family, with one Ward run per clustered family; Tables
//!   8–11, Figure 5 and the §6 intel gap read it. The three modules above
//!   also keep their per-address folds (`classify_sources`,
//!   `cluster_sources`, `tag_sources`) as its reference.
//! * [`ecdf`] — empirical CDFs (client retention, Figures 3 and 5).
//! * [`timeseries`] — hourly activity series (Figures 2, 6–9).
//! * [`upset`] — cross-honeypot IP intersections (Figure 4).
//! * [`tables`] — the aggregations behind Tables 5–12 and the §5/§6
//!   headline statistics.
//! * [`intel`] — synthetic threat-intelligence feeds reproducing the §6.2
//!   coverage-gap measurement.
//! * [`honeytokens`] — bait-credential reuse detection (§4.2's fake-data
//!   objective and the honeytoken tripwire of the related work).
//! * [`detect`] — counter-fingerprinting: recognize the `decoy-fingerprint`
//!   probe battery (or tooling shaped like it) in captured traffic.
//! * [`forensics`] — per-source session reconstruction in the paper's
//!   Appendix E listing style.
//! * [`fleet`] — fleet-uptime rows folded from the supervisor's
//!   [`EventKind::Health`](decoy_store::EventKind) telemetry.
//! * [`fold`] — the incrementally foldable
//!   [`PartialFrame`]: fold per journal segment, merge
//!   associatively across segments or shards, seal into the same
//!   [`AnalysisFrame`] the batch path builds.

pub mod behavior;
pub mod classify;
pub mod cluster;
pub mod detect;
#[cfg(test)]
mod differential;
pub mod ecdf;
pub mod fleet;
pub mod fold;
pub mod forensics;
pub mod frame;
pub mod honeytokens;
pub mod intel;
pub mod tables;
pub mod tagging;
pub mod tf;
pub mod tfvec;
pub mod timeseries;
pub mod upset;
pub mod ward;

pub use classify::{classify_sources, Behavior, BehaviorProfile};
pub use cluster::{cluster_sources, Dendrogram};
pub use detect::is_fingerprint_probe;
pub use ecdf::Ecdf;
pub use fleet::{fleet_totals, fleet_uptime, FleetTotals, ListenerUptime};
pub use fold::PartialFrame;
pub use frame::{AnalysisFrame, FrameEvent, FrameKind, FrameView, Partition};
pub use tf::{action_sequences, TfVector, Vocabulary};
