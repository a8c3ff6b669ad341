//! The frozen pre-hardening surfaces.
//!
//! [`legacy`] rebuilds what the fleet looked like to a scanner *before*
//! the hardening layer landed, from surfaces the engine captured: the same
//! banners and facts, with the ad-hoc error strings the honeypots used to
//! ship and the constant tens-of-microseconds response time of an
//! unshaped in-process responder.
//!
//! The golden tests at the bottom pin the exact pre-hardening scores and
//! prove that the hardening (`decoy_honeypots::catalog`, the seeded
//! latency shaper in `decoy_base::latency`) lowers every family's score
//! on the surfaces the honeypot machines serve.

use crate::engine::SAMPLES;
use crate::probes::Surface;

/// `captured` as it looked before the hardening layer: each family's
/// frozen pre-hardening error string, and a constant 45 µs per round trip.
pub fn legacy(captured: &[Surface]) -> Vec<Surface> {
    let mut surfaces = captured.to_vec();
    for s in &mut surfaces {
        let (field, frozen) = match s.family.as_str() {
            "mysql" => (
                &mut s.error_syntax,
                "You have an error in your SQL syntax near 'FINGERPRINT PROBE'",
            ),
            // Postgres already shipped the stock parser message.
            "postgres" => (&mut s.error_syntax, "syntax error at or near \"FROBNICATE\""),
            "mongodb" => (
                &mut s.error_unknown,
                "ok=0 errmsg=no such command: 'fingerprintprobe' code=59",
            ),
            "redis" => (&mut s.error_unknown, "ERR unknown command 'FINGERPRINTPROBE'"),
            "elastic" => (
                &mut s.error_unknown,
                "{\"error\":{\"root_cause\":[{\"type\":\"index_not_found_exception\",\"reason\":\"no such index\"}]},\"status\":404}",
            ),
            // CouchDB's not_found body was already canonical.
            _ => (
                &mut s.error_unknown,
                "{\"error\":\"not_found\",\"reason\":\"missing\"}",
            ),
        };
        *field = frozen.to_string();
        s.timing_us = vec![45; SAMPLES];
    }
    surfaces
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{capture_in_memory, Timing};
    use crate::probes::run_all;
    use crate::score::Scorecard;

    fn score(surfaces: &[Surface]) -> Scorecard {
        let findings: Vec<_> = surfaces.iter().flat_map(run_all).collect();
        Scorecard::tally(&findings)
    }

    /// The six machines' surfaces, timed by the seeded LAN shaper.
    fn captured() -> Vec<Surface> {
        capture_in_memory(Timing::Shaped).unwrap()
    }

    #[test]
    fn golden_legacy_scores_are_pinned() {
        // Error-catalog misses (+3) where the old strings were ad hoc,
        // plus the constant-instant-narrow timing triple (+6) everywhere.
        let card = score(&legacy(&captured()));
        assert_eq!(card.get("mysql"), Some(9));
        assert_eq!(card.get("redis"), Some(9));
        assert_eq!(card.get("mongodb"), Some(9));
        assert_eq!(card.get("elastic"), Some(9));
        assert_eq!(card.get("postgres"), Some(6));
        assert_eq!(card.get("couchdb"), Some(6));
        assert_eq!(card.total(), 48);
    }

    #[test]
    fn hardening_lowers_every_family_score() {
        let captured = captured();
        let before = score(&legacy(&captured));
        let after = score(&captured);
        for (family, was) in before.entries() {
            let now = after.get(family).unwrap_or(0);
            assert!(
                now < *was,
                "{family}: hardened score {now} is not below legacy {was}"
            );
        }
    }

    #[test]
    fn a_broken_banner_raises_the_score() {
        let mut surfaces = captured();
        let clean = score(&surfaces);
        if let Some(mongo) = surfaces.iter_mut().find(|s| s.family == "mongodb") {
            mongo.facts.retain(|(k, _)| k != "maxWireVersion");
            mongo.push_fact("maxWireVersion", "8");
            mongo.banner = "4.2.0".to_string();
        }
        let broken = score(&surfaces);
        // Wire-version incoherence (+4) and banner disagreement (+3).
        assert_eq!(
            broken.get("mongodb"),
            Some(clean.get("mongodb").unwrap_or(0) + 7)
        );
    }
}
