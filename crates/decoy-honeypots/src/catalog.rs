//! Shared per-DBMS error catalog and version profiles — the hardening
//! layer the fingerprint scorecard drives down.
//!
//! Before this module each honeypot family carried its own ad-hoc banner
//! and error strings, and the slips between them (a Redis 5 answering with
//! the pre-5 unknown-command format, a MySQL syntax error missing the
//! manual clause, a Mongo error without `codeName`) are exactly what
//! multistage fingerprinting probes key on. The catalog centralizes:
//!
//! * **Version constants** — one authoritative version string per family,
//!   referenced by every banner, greeting, and `version()` result.
//! * **[`VersionProfile`]** — the capability facts that must stay coherent
//!   with the version (Mongo 4.4 ⇔ wire version 9, Elasticsearch 5.6 ⇔
//!   Lucene 6.6, Redis 5 ⇔ RESP2). [`VersionProfile::validate`] is called
//!   at deploy time so an incoherent decoy never binds a socket.
//! * **Error renderers** — the real servers' error messages, rendered with
//!   `write!` into a caller-provided buffer (no per-error `format!`).
//!
//! The module needs only std and the std-only `decoy_base::json` escaper.
//! `decoy-fingerprint` does not read these renderers: its battery captures
//! what the session machines reply through their client protocols, so its
//! score measures the strings the honeypots actually send.

use decoy_base::json;
use std::fmt::{self, Write as _};

// ---------------------------------------------------------------------------
// Version constants: the single source every banner quotes
// ---------------------------------------------------------------------------

/// MySQL server version advertised by the greeting and `@@version`.
pub const MYSQL_VERSION: &str = "8.0.36";
/// PostgreSQL short version.
pub const PG_VERSION: &str = "11.3";
/// PostgreSQL `server_version` parameter value.
pub const PG_SERVER_VERSION: &str = "11.3 (Debian 11.3-1.pgdg90+1)";
/// PostgreSQL `SELECT version()` banner.
pub const PG_VERSION_BANNER: &str =
    "PostgreSQL 11.3 (Debian 11.3-1.pgdg90+1) on x86_64-pc-linux-gnu";
/// MongoDB server version.
pub const MONGO_VERSION: &str = "4.4.18";
/// MongoDB git commit for 4.4.18.
pub const MONGO_GIT_VERSION: &str = "8ed32b5c2c68ebe7f8ae2ebe8d23f36037a17dea";
/// MongoDB wire-protocol ceiling for the 4.4 series.
pub const MONGO_MAX_WIRE_VERSION: i32 = 9;
/// MongoDB serverStatus uptime (seconds): ten days into the window.
pub const MONGO_UPTIME_SECS: f64 = 864_000.0;
/// Redis server version.
pub const REDIS_VERSION: &str = "5.0.7";
/// Elasticsearch version.
pub const ELASTIC_VERSION: &str = "5.6.16";
/// Elasticsearch cluster name: the out-of-the-box default.
pub const ELASTIC_CLUSTER_NAME: &str = "elasticsearch";
/// Lucene version paired with Elasticsearch 5.6.
pub const LUCENE_VERSION: &str = "6.6.1";
/// Elasticsearch build hash.
pub const ELASTIC_BUILD_HASH: &str = "3a740d1";
/// CouchDB version.
pub const COUCH_VERSION: &str = "3.3.2";
/// CouchDB git sha.
pub const COUCH_GIT_SHA: &str = "11a234070";

// ---------------------------------------------------------------------------
// Version profiles: capability facts checked for coherence at deploy time
// ---------------------------------------------------------------------------

/// The six catalogued DBMS families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// MySQL (medium interaction).
    MySql,
    /// PostgreSQL (Sticky-Elephant medium interaction).
    Postgres,
    /// MongoDB (high interaction).
    MongoDb,
    /// Redis (medium interaction).
    Redis,
    /// Elasticsearch (Elasticpot medium interaction).
    Elastic,
    /// CouchDB (medium interaction).
    CouchDb,
}

impl Family {
    /// Every catalogued family, in scorecard order.
    pub const ALL: [Family; 6] = [
        Family::MySql,
        Family::Postgres,
        Family::MongoDb,
        Family::Redis,
        Family::Elastic,
        Family::CouchDb,
    ];

    /// Stable lowercase name (scorecard keys, report rows).
    pub fn name(self) -> &'static str {
        match self {
            Family::MySql => "mysql",
            Family::Postgres => "postgres",
            Family::MongoDb => "mongodb",
            Family::Redis => "redis",
            Family::Elastic => "elastic",
            Family::CouchDb => "couchdb",
        }
    }
}

/// A family's advertised version plus the capability facts that must stay
/// coherent with it. Honeypots read their banner fields from here; the
/// deploy path refuses to bind when [`VersionProfile::validate`] fails.
#[derive(Debug, Clone, Copy)]
pub struct VersionProfile {
    /// Which family this profile describes.
    pub family: Family,
    /// The advertised version string.
    pub version: &'static str,
    /// Capability facts as `(key, value)` pairs.
    pub facts: &'static [(&'static str, &'static str)],
}

impl VersionProfile {
    /// The checked-in profile for `family`.
    pub const fn of(family: Family) -> VersionProfile {
        match family {
            Family::MySql => VersionProfile {
                family,
                version: MYSQL_VERSION,
                facts: &[
                    ("protocol", "10"),
                    ("auth_plugin", "mysql_native_password"),
                    ("charset", "utf8mb4"),
                ],
            },
            Family::Postgres => VersionProfile {
                family,
                version: PG_VERSION,
                facts: &[
                    ("server_version", PG_SERVER_VERSION),
                    ("banner", PG_VERSION_BANNER),
                    ("server_encoding", "UTF8"),
                ],
            },
            Family::MongoDb => VersionProfile {
                family,
                version: MONGO_VERSION,
                facts: &[
                    ("maxWireVersion", "9"),
                    ("minWireVersion", "0"),
                    ("gitVersion", MONGO_GIT_VERSION),
                    ("featureCompatibilityVersion", "4.4"),
                ],
            },
            Family::Redis => VersionProfile {
                family,
                version: REDIS_VERSION,
                facts: &[("proto", "2"), ("mode", "standalone")],
            },
            Family::Elastic => VersionProfile {
                family,
                version: ELASTIC_VERSION,
                facts: &[
                    ("lucene_version", LUCENE_VERSION),
                    ("build_hash", ELASTIC_BUILD_HASH),
                ],
            },
            Family::CouchDb => VersionProfile {
                family,
                version: COUCH_VERSION,
                facts: &[("git_sha", COUCH_GIT_SHA)],
            },
        }
    }

    /// The value of capability fact `key`, if declared.
    pub fn fact(&self, key: &str) -> Option<&'static str> {
        self.facts.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }

    /// Check version/capability coherence — the pairings a fingerprinting
    /// scanner cross-references. Deploy refuses to bind on `Err`.
    pub fn validate(&self) -> Result<(), String> {
        let fail = |what: &str| -> Result<(), String> {
            let mut msg = String::new();
            let _ = write!(
                msg,
                "incoherent {} profile (version {}): {what}",
                self.family.name(),
                self.version
            );
            Err(msg)
        };
        match self.family {
            Family::MongoDb => {
                // wire-protocol ceiling moves in lockstep with the series
                let expected = match self.version {
                    v if v.starts_with("4.2") => "8",
                    v if v.starts_with("4.4") => "9",
                    v if v.starts_with("5.0") => "13",
                    v if v.starts_with("6.0") => "17",
                    _ => return fail("unknown series, add its wire version"),
                };
                if self.fact("maxWireVersion") != Some(expected) {
                    return fail("maxWireVersion does not match the release series");
                }
                let git_ok = self
                    .fact("gitVersion")
                    .is_some_and(|g| g.len() == 40 && g.bytes().all(|b| b.is_ascii_hexdigit()));
                if !git_ok {
                    return fail("gitVersion is not a 40-char commit hash");
                }
                let fcv_ok = self
                    .fact("featureCompatibilityVersion")
                    .is_some_and(|f| self.version.starts_with(f));
                if !fcv_ok {
                    return fail("featureCompatibilityVersion disagrees with version");
                }
            }
            Family::Elastic => {
                let expected = match self.version {
                    v if v.starts_with("5.6") => "6.6",
                    v if v.starts_with("6.8") => "7.7",
                    v if v.starts_with("7.17") => "8.11",
                    _ => return fail("unknown series, add its lucene pairing"),
                };
                let lucene_ok = self
                    .fact("lucene_version")
                    .is_some_and(|l| l.starts_with(expected));
                if !lucene_ok {
                    return fail("lucene_version does not pair with this release");
                }
            }
            Family::Redis => {
                let major_pre_6 = self.version.starts_with('3')
                    || self.version.starts_with('4')
                    || self.version.starts_with('5');
                // RESP3 only exists from Redis 6 on
                if major_pre_6 && self.fact("proto") != Some("2") {
                    return fail("RESP3 advertised by a pre-6 server");
                }
            }
            Family::Postgres => {
                let sv_ok = self
                    .fact("server_version")
                    .is_some_and(|sv| sv.starts_with(self.version));
                if !sv_ok {
                    return fail("server_version parameter disagrees with version");
                }
                let banner_ok = self
                    .fact("banner")
                    .is_some_and(|b| b.contains(self.version));
                if !banner_ok {
                    return fail("version() banner disagrees with version");
                }
            }
            Family::MySql => {
                if self.fact("protocol") != Some("10") {
                    return fail("handshake protocol must be 10");
                }
                let plugin_ok = matches!(
                    self.fact("auth_plugin"),
                    Some("mysql_native_password" | "caching_sha2_password")
                );
                if !plugin_ok {
                    return fail("unknown default auth plugin");
                }
            }
            Family::CouchDb => {
                let sha_ok = self
                    .fact("git_sha")
                    .is_some_and(|s| !s.is_empty() && s.bytes().all(|b| b.is_ascii_hexdigit()));
                if !sha_ok {
                    return fail("git_sha is not a hex commit prefix");
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Error renderers: real servers' messages, written into caller buffers
// ---------------------------------------------------------------------------

// decoy-hot-path: fn -- renders on every unknown-command reply
/// Redis ≥5 unknown-command error: backticked command plus the first args,
/// e.g. `` ERR unknown command `FOO`, with args beginning with: `a`, ``.
/// Pre-5 Redis quoted the name instead — the exact slip scanners probe.
pub fn redis_unknown_command<W, I, T>(out: &mut W, cmd: &str, args: I) -> fmt::Result
where
    W: fmt::Write,
    I: IntoIterator<Item = T>,
    T: fmt::Display,
{
    write!(
        out,
        "ERR unknown command `{cmd}`, with args beginning with: "
    )?;
    for arg in args.into_iter().take(20) {
        write!(out, "`{arg}`, ")?;
    }
    Ok(())
}

// decoy-hot-path: fn -- renders on every arity-error reply
/// Redis wrong-arity error, lowercase command name as the real server does.
pub fn redis_wrong_args<W: fmt::Write>(out: &mut W, cmd: &str) -> fmt::Result {
    write!(out, "ERR wrong number of arguments for '{cmd}' command")
}

// decoy-hot-path: fn -- renders on every invalid-SQL reply
/// MySQL 1064: the full message including the manual clause real servers
/// append (the ad-hoc string dropped it — a probe-visible tell).
pub fn mysql_syntax_error<W: fmt::Write>(out: &mut W, near: &str) -> fmt::Result {
    write!(
        out,
        "You have an error in your SQL syntax; check the manual that corresponds \
         to your MySQL server version for the right syntax to use near '{near}' at line 1"
    )
}

// decoy-hot-path: fn -- renders on every rejected login
/// PostgreSQL 28P01 message body.
pub fn pg_auth_failed<W: fmt::Write>(out: &mut W, user: &str) -> fmt::Result {
    write!(out, "password authentication failed for user \"{user}\"")
}

// decoy-hot-path: fn -- renders on every invalid-SQL reply
/// PostgreSQL 42601 message body.
pub fn pg_syntax_error<W: fmt::Write>(out: &mut W, near: &str) -> fmt::Result {
    write!(out, "syntax error at or near \"{near}\"")
}

/// MongoDB `codeName` for the error codes the honeypot answers. Real
/// servers always send it next to `code`; its absence is a one-probe tell.
pub fn mongo_code_name(code: i32) -> &'static str {
    match code {
        18 => "AuthenticationFailed",
        26 => "NamespaceNotFound",
        59 => "CommandNotFound",
        40415 => "Location40415",
        _ => "UnknownError",
    }
}

// decoy-hot-path: fn -- renders on every unknown-index reply
/// Elasticsearch 5.x `index_not_found_exception` body: the full resource
/// envelope (`resource.type`, `resource.id`, `index_uuid`, `index`) the
/// real server sends, not just type+reason.
pub fn elastic_index_not_found<W: fmt::Write>(out: &mut W, index: &str) -> fmt::Result {
    out.write_str("{\"error\":{\"root_cause\":[")?;
    elastic_infe_object(out, index)?;
    out.write_str("],")?;
    elastic_infe_fields(out, index)?;
    out.write_str("},\"status\":404}")
}

// decoy-hot-path: fn -- inner object of the 404 body
fn elastic_infe_object<W: fmt::Write>(out: &mut W, index: &str) -> fmt::Result {
    out.write_char('{')?;
    elastic_infe_fields(out, index)?;
    out.write_char('}')
}

// decoy-hot-path: fn -- shared fields of the 404 body
fn elastic_infe_fields<W: fmt::Write>(out: &mut W, index: &str) -> fmt::Result {
    out.write_str(
        "\"type\":\"index_not_found_exception\",\"reason\":\"no such index\",\
         \"resource.type\":\"index_or_alias\",\"resource.id\":",
    )?;
    json::quote(out, index)?;
    out.write_str(",\"index_uuid\":\"_na_\",\"index\":")?;
    json::quote(out, index)
}

// decoy-hot-path: fn -- renders on every missing-document reply
/// CouchDB missing-resource body.
pub fn couch_not_found<W: fmt::Write>(out: &mut W) -> fmt::Result {
    out.write_str("{\"error\":\"not_found\",\"reason\":\"missing\"}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_checked_in_profiles_are_coherent() {
        for family in Family::ALL {
            VersionProfile::of(family)
                .validate()
                .unwrap_or_else(|e| panic!("{e}"));
        }
    }

    #[test]
    fn incoherent_profiles_are_refused() {
        let wrong_wire = VersionProfile {
            family: Family::MongoDb,
            version: "4.4.18",
            facts: &[
                ("maxWireVersion", "8"),
                ("gitVersion", MONGO_GIT_VERSION),
                ("featureCompatibilityVersion", "4.4"),
            ],
        };
        assert!(wrong_wire
            .validate()
            .unwrap_err()
            .contains("maxWireVersion"));
        let wrong_lucene = VersionProfile {
            family: Family::Elastic,
            version: "5.6.16",
            facts: &[("lucene_version", "8.11.0"), ("build_hash", "3a740d1")],
        };
        assert!(wrong_lucene.validate().is_err());
        let resp3_on_5 = VersionProfile {
            family: Family::Redis,
            version: "5.0.7",
            facts: &[("proto", "3")],
        };
        assert!(resp3_on_5.validate().unwrap_err().contains("RESP3"));
    }

    #[test]
    fn redis_unknown_command_uses_backticks() {
        let mut s = String::new();
        redis_unknown_command(&mut s, "TOTALLYBOGUS", ["a", "b"]).unwrap();
        assert_eq!(
            s,
            "ERR unknown command `TOTALLYBOGUS`, with args beginning with: `a`, `b`, "
        );
        let mut bare = String::new();
        redis_unknown_command(&mut bare, "X", std::iter::empty::<&str>()).unwrap();
        assert_eq!(bare, "ERR unknown command `X`, with args beginning with: ");
    }

    #[test]
    fn mysql_syntax_error_carries_the_manual_clause() {
        let mut s = String::new();
        mysql_syntax_error(&mut s, "FROBNICATE").unwrap();
        assert!(s.contains("check the manual"));
        assert!(s.ends_with("at line 1"));
    }

    #[test]
    fn pg_renderers_match_the_wire_constructors() {
        use decoy_wire::pgwire::BackendMessage;
        let mut auth = String::new();
        pg_auth_failed(&mut auth, "postgres").unwrap();
        let BackendMessage::ErrorResponse { message, code, .. } =
            BackendMessage::auth_failed("postgres")
        else {
            panic!("expected error response");
        };
        assert_eq!(auth, message);
        assert_eq!(code, "28P01");
        let mut syn = String::new();
        pg_syntax_error(&mut syn, "blargh").unwrap();
        let BackendMessage::ErrorResponse { message, .. } = BackendMessage::syntax_error("blargh")
        else {
            panic!("expected error response");
        };
        assert_eq!(syn, message);
    }

    #[test]
    fn elastic_404_body_is_valid_json_with_resource_fields() {
        let mut s = String::new();
        elastic_index_not_found(&mut s, "se\"cret\u{8}").unwrap();
        let fields = r#""type":"index_not_found_exception","reason":"no such index","resource.type":"index_or_alias","resource.id":"se\"cret\b","index_uuid":"_na_","index":"se\"cret\b""#;
        assert_eq!(
            s,
            format!(r#"{{"error":{{"root_cause":[{{{fields}}}],{fields}}},"status":404}}"#)
        );
        let v = json::parse(s.as_bytes()).unwrap();
        assert_eq!(v["error"]["resource.id"].as_str(), Some("se\"cret\u{8}"));
        let root_cause = v["error"]["root_cause"].as_array().unwrap();
        assert_eq!(
            root_cause[0]["resource.type"].as_str(),
            Some("index_or_alias")
        );
        assert_eq!(v["status"].as_u64(), Some(404));
    }

    #[test]
    fn mongo_code_names_cover_the_honeypot_codes() {
        assert_eq!(mongo_code_name(59), "CommandNotFound");
        assert_eq!(mongo_code_name(26), "NamespaceNotFound");
        assert_eq!(mongo_code_name(18), "AuthenticationFailed");
        assert_eq!(mongo_code_name(40415), "Location40415");
        assert_eq!(mongo_code_name(9999), "UnknownError");
    }

    #[test]
    fn couch_not_found_is_the_real_body() {
        let mut s = String::new();
        couch_not_found(&mut s).unwrap();
        assert_eq!(s, r#"{"error":"not_found","reason":"missing"}"#);
    }
}
