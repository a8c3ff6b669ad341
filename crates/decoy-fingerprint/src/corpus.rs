//! The frozen regression corpus: pre- and post-hardening surfaces.
//!
//! [`legacy`] reconstructs what the fleet looked like to a scanner
//! *before* the hardening layer landed: ad-hoc error strings, and the
//! constant tens-of-microseconds response time of an unshapped
//! in-process responder. [`hardened`] builds the same six surfaces from
//! the live sources of truth -- [`decoy_honeypots::catalog`] renderers
//! and constants for text, a seeded [`LatencyShaper`] for timing -- so
//! the corpus cannot drift from what the honeypots actually serve.
//!
//! The golden tests at the bottom pin the exact pre-hardening scores
//! and prove the hardening measurably lowers every family's score.

use std::fmt::Write as _;

use decoy_base::latency::{LatencyProfile, LatencyShaper};
use decoy_honeypots::catalog;

use crate::probes::Surface;

/// Latency samples recorded per corpus surface.
pub const TIMING_SAMPLES: usize = 24;

fn shaped_timing(session: u64) -> Vec<u64> {
    let shaper = LatencyShaper::new(11, LatencyProfile::lan());
    (0..TIMING_SAMPLES as u64)
        .map(|op| crate::engine::micros(shaper.delay_for(session, op)))
        .collect()
}

fn render<F: Fn(&mut String) -> std::fmt::Result>(f: F) -> String {
    let mut out = String::new();
    let _ = f(&mut out);
    out
}

fn base_mysql() -> Surface {
    let mut s = Surface::named("mysql");
    s.banner = catalog::MYSQL_VERSION.to_string();
    s.push_fact("version", catalog::MYSQL_VERSION);
    s.push_fact("query_version", catalog::MYSQL_VERSION);
    s.push_fact("protocol", "10");
    s.push_fact("auth_plugin", "mysql_native_password");
    s
}

fn base_postgres() -> Surface {
    let mut s = Surface::named("postgres");
    s.banner = catalog::PG_VERSION_BANNER.to_string();
    s.push_fact("version", catalog::PG_SERVER_VERSION);
    s
}

fn base_mongodb() -> Surface {
    let mut s = Surface::named("mongodb");
    s.banner = catalog::MONGO_VERSION.to_string();
    s.push_fact("version", catalog::MONGO_VERSION);
    s.push_fact("gitVersion", catalog::MONGO_GIT_VERSION);
    let mut wire = String::new();
    let _ = write!(wire, "{}", catalog::MONGO_MAX_WIRE_VERSION);
    s.push_fact("maxWireVersion", wire);
    s
}

fn base_redis() -> Surface {
    let mut s = Surface::named("redis");
    s.banner = render(|out| {
        write!(
            out,
            "# Server\r\nredis_version:{}\r\nredis_mode:standalone\r\n",
            catalog::REDIS_VERSION
        )
    });
    s.push_fact("version", catalog::REDIS_VERSION);
    s.push_fact("proto", "2");
    s
}

fn base_elastic() -> Surface {
    let mut s = Surface::named("elastic");
    s.banner = render(|out| {
        write!(
            out,
            "{{\"name\":\"node-1\",\"version\":{{\"number\":\"{}\",\"build_hash\":\"{}\",\"lucene_version\":\"{}\"}}}}",
            catalog::ELASTIC_VERSION,
            catalog::ELASTIC_BUILD_HASH,
            catalog::LUCENE_VERSION
        )
    });
    s.push_fact("version", catalog::ELASTIC_VERSION);
    s.push_fact("lucene_version", catalog::LUCENE_VERSION);
    s
}

fn base_couchdb() -> Surface {
    let mut s = Surface::named("couchdb");
    s.banner = render(|out| {
        write!(
            out,
            "{{\"couchdb\":\"Welcome\",\"version\":\"{}\",\"git_sha\":\"{}\"}}",
            catalog::COUCH_VERSION,
            catalog::COUCH_GIT_SHA
        )
    });
    s.push_fact("version", catalog::COUCH_VERSION);
    s.push_fact("git_sha", catalog::COUCH_GIT_SHA);
    s
}

/// The six fleet surfaces as the hardening layer serves them today:
/// error text straight from the catalog renderers, timing drawn from
/// the seeded LAN latency shaper.
pub fn hardened() -> Vec<Surface> {
    let mut mysql = base_mysql();
    mysql.error_syntax = render(|out| catalog::mysql_syntax_error(out, "FINGERPRINT PROBE"));
    let mut postgres = base_postgres();
    postgres.error_syntax = render(|out| catalog::pg_syntax_error(out, "FROBNICATE"));
    let mut mongodb = base_mongodb();
    mongodb.error_unknown = render(|out| {
        write!(
            out,
            "ok=0 errmsg=no such command: 'fingerprintprobe' code=59 codeName={}",
            catalog::mongo_code_name(59)
        )
    });
    let mut redis = base_redis();
    redis.error_unknown =
        render(|out| catalog::redis_unknown_command(out, "FINGERPRINTPROBE", ["arg"]));
    let mut elastic = base_elastic();
    elastic.error_unknown =
        render(|out| catalog::elastic_index_not_found(out, "fingerprint_probe"));
    let mut couchdb = base_couchdb();
    couchdb.error_unknown = render(catalog::couch_not_found);
    let mut surfaces = vec![mysql, postgres, mongodb, redis, elastic, couchdb];
    for (i, s) in surfaces.iter_mut().enumerate() {
        s.timing_us = shaped_timing(i as u64);
    }
    surfaces
}

/// The six fleet surfaces as they looked *before* the hardening layer:
/// the frozen ad-hoc error strings the honeypots used to ship, plus the
/// constant sub-millisecond timing of an unshaped canned responder.
pub fn legacy() -> Vec<Surface> {
    let mut mysql = base_mysql();
    mysql.error_syntax =
        "You have an error in your SQL syntax near 'FINGERPRINT PROBE'".to_string();
    let mut postgres = base_postgres();
    // Postgres already shipped the stock parser message pre-hardening.
    postgres.error_syntax = "syntax error at or near \"FROBNICATE\"".to_string();
    let mut mongodb = base_mongodb();
    mongodb.error_unknown = "ok=0 errmsg=no such command: 'fingerprintprobe' code=59".to_string();
    let mut redis = base_redis();
    redis.error_unknown = "ERR unknown command 'FINGERPRINTPROBE'".to_string();
    let mut elastic = base_elastic();
    elastic.error_unknown =
        "{\"error\":{\"root_cause\":[{\"type\":\"index_not_found_exception\",\"reason\":\"no such index\"}]},\"status\":404}".to_string();
    let mut couchdb = base_couchdb();
    // CouchDB's not_found body was already canonical pre-hardening.
    couchdb.error_unknown = render(catalog::couch_not_found);
    let mut surfaces = vec![mysql, postgres, mongodb, redis, elastic, couchdb];
    for s in surfaces.iter_mut() {
        s.timing_us = vec![45; TIMING_SAMPLES];
    }
    surfaces
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probes::run_all;
    use crate::score::Scorecard;

    fn score(surfaces: &[Surface]) -> Scorecard {
        let findings: Vec<_> = surfaces.iter().flat_map(run_all).collect();
        Scorecard::tally(&findings)
    }

    #[test]
    fn golden_legacy_scores_are_pinned() {
        // Error-catalog misses (+3) where the old strings were ad hoc,
        // plus the constant-instant-narrow timing triple (+6) everywhere.
        let card = score(&legacy());
        assert_eq!(card.get("mysql"), Some(9));
        assert_eq!(card.get("redis"), Some(9));
        assert_eq!(card.get("mongodb"), Some(9));
        assert_eq!(card.get("elastic"), Some(9));
        assert_eq!(card.get("postgres"), Some(6));
        assert_eq!(card.get("couchdb"), Some(6));
    }

    #[test]
    fn hardened_surfaces_score_zero() {
        let surfaces = hardened();
        let findings: Vec<_> = surfaces.iter().flat_map(run_all).collect();
        assert!(findings.is_empty(), "unexpected tells: {findings:?}");
        assert_eq!(score(&surfaces).total(), 0);
    }

    #[test]
    fn hardening_lowers_every_family_score() {
        let before = score(&legacy());
        let after = score(&hardened());
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
        let mut surfaces = hardened();
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
