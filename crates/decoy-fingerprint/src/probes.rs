//! The multistage probe battery.
//!
//! A [`Surface`] is everything a remote client can observe about one
//! honeypot without credentials: the banner it volunteers, the facts it
//! advertises during the handshake (version strings, capability flags),
//! the error text it produces for malformed requests, and the latency
//! distribution of cheap request/response round trips. The probe stages
//! in this module inspect a surface the way a fingerprinting scanner
//! would and emit weighted [`ProbeFinding`]s for every tell.
//!
//! The stages, in the order [`run_all`] executes them:
//!
//! 1. **banner** -- does the banner exist, and does it agree with the
//!    version the handshake advertised?
//! 2. **capability** -- are the advertised capability flags coherent for
//!    that version (wire version, Lucene pairing, RESP protocol, auth
//!    plugin)?
//! 3. **error** -- do error messages for malformed requests match the
//!    real server's error catalog, byte for byte where it matters?
//! 4. **timing** -- does the latency distribution look like a real
//!    networked database, or like an in-process canned responder?
//!
//! The stages read only a [`Surface`], so they score the surfaces the
//! engine captures ([`crate::engine`]) and the frozen pre-hardening ones
//! ([`crate::corpus`]) alike.

/// The six protocol families the fleet deploys, by scorecard key.
pub const FAMILIES: [&str; 6] = [
    "couchdb", "elastic", "mongodb", "mysql", "postgres", "redis",
];

/// Everything a remote, unauthenticated client can observe about one
/// honeypot: the raw material the probe stages score.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Surface {
    /// Scorecard key; one of [`FAMILIES`].
    pub family: String,
    /// The free-text banner the service volunteers (greeting version,
    /// `INFO server`, the `GET /` body, ...).
    pub banner: String,
    /// Error text produced for a syntactically well-formed request
    /// naming a command/resource that does not exist.
    pub error_unknown: String,
    /// Error text produced for a malformed / unparseable request.
    pub error_syntax: String,
    /// Key/value facts advertised during the handshake (version,
    /// capability flags, auth plugin, wire version, ...).
    pub facts: Vec<(String, String)>,
    /// Microsecond latencies of repeated cheap round trips.
    pub timing_us: Vec<u64>,
}

impl Surface {
    /// An empty surface for `family`.
    pub fn named(family: &str) -> Surface {
        Surface {
            family: family.to_string(),
            ..Surface::default()
        }
    }

    /// Record a handshake fact.
    pub fn push_fact(&mut self, key: &str, value: impl Into<String>) {
        self.facts.push((key.to_string(), value.into()));
    }

    /// Look up a handshake fact by key.
    pub fn fact(&self, key: &str) -> Option<&str> {
        self.facts
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// One tell discovered by a probe stage, weighted by how cheaply a
/// scanner could exploit it (higher = more damning).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeFinding {
    /// Scorecard key of the surface that leaked.
    pub family: String,
    /// The stage that fired: `banner`, `capability`, `error`, `timing`.
    pub probe: &'static str,
    /// Score contribution of this finding.
    pub weight: u32,
    /// Human-readable description of the tell.
    pub detail: String,
}

fn finding(surface: &Surface, probe: &'static str, weight: u32, detail: String) -> ProbeFinding {
    ProbeFinding {
        family: surface.family.clone(),
        probe,
        weight,
        detail,
    }
}

/// Stage 1: banner presence and banner/handshake version agreement.
pub fn probe_banner(surface: &Surface) -> Vec<ProbeFinding> {
    let mut out = Vec::new();
    if surface.banner.is_empty() {
        out.push(finding(
            surface,
            "banner",
            3,
            "no banner captured: the service refused the stock banner request".to_string(),
        ));
        return out;
    }
    let version = surface.fact("version").unwrap_or("");
    match surface.family.as_str() {
        "redis" => {
            let advertised = format!("redis_version:{version}");
            if !surface.banner.contains("redis_version:") {
                out.push(finding(
                    surface,
                    "banner",
                    3,
                    "INFO server omits redis_version".to_string(),
                ));
            } else if !version.is_empty() && !surface.banner.contains(&advertised) {
                out.push(finding(
                    surface,
                    "banner",
                    3,
                    format!("INFO redis_version disagrees with the HELLO version {version}"),
                ));
            }
        }
        "postgres" => {
            if !surface.banner.starts_with("PostgreSQL ") {
                out.push(finding(
                    surface,
                    "banner",
                    3,
                    "version() does not start with 'PostgreSQL '".to_string(),
                ));
            } else {
                let short = version.split_whitespace().next().unwrap_or("");
                if !short.is_empty() && !surface.banner.contains(short) {
                    out.push(finding(
                        surface,
                        "banner",
                        3,
                        format!(
                            "version() banner disagrees with the server_version parameter {short}"
                        ),
                    ));
                }
            }
        }
        "elastic" => {
            let advertised = format!("\"number\":\"{version}\"");
            if !version.is_empty() && !surface.banner.contains(&advertised) {
                out.push(finding(
                    surface,
                    "banner",
                    3,
                    format!("root document version.number disagrees with {version}"),
                ));
            }
        }
        _ => {
            // mysql / mongodb / couchdb: the banner is (or embeds) the
            // advertised version string itself.
            if !version.is_empty() && !surface.banner.contains(version) {
                out.push(finding(
                    surface,
                    "banner",
                    3,
                    format!("banner does not carry the advertised version {version}"),
                ));
            }
        }
    }
    if surface.family.as_str() == "mysql" {
        if let (Some(version), Some(queried)) =
            (surface.fact("version"), surface.fact("query_version"))
        {
            if !queried.contains(version) {
                out.push(finding(
                    surface,
                    "banner",
                    3,
                    format!(
                        "SELECT @@version returned '{queried}' but the greeting advertised {version}"
                    ),
                ));
            }
        }
    }
    out
}

fn is_hex(s: &str) -> bool {
    !s.is_empty() && s.chars().all(|c| c.is_ascii_hexdigit())
}

/// Stage 2: capability-flag coherence for the advertised version.
pub fn probe_capability(surface: &Surface) -> Vec<ProbeFinding> {
    let mut out = Vec::new();
    let version = surface.fact("version").unwrap_or("");
    match surface.family.as_str() {
        "mongodb" => {
            let pairs = [("4.2", "8"), ("4.4", "9"), ("5.0", "13"), ("6.0", "17")];
            let wire = surface.fact("maxWireVersion").unwrap_or("");
            if let Some((_, want)) = pairs.iter().find(|(series, _)| version.starts_with(series)) {
                if wire != *want {
                    out.push(finding(
                        surface,
                        "capability",
                        4,
                        format!(
                            "server {version} must speak maxWireVersion {want}, advertised {wire}"
                        ),
                    ));
                }
            }
            let sha = surface.fact("gitVersion").unwrap_or("");
            if sha.len() != 40 || !is_hex(sha) {
                out.push(finding(
                    surface,
                    "capability",
                    2,
                    "gitVersion is not a 40-hex commit hash".to_string(),
                ));
            }
        }
        "elastic" => {
            let pairs = [("5.6", "6.6"), ("6.8", "7.7"), ("7.17", "8.11")];
            let lucene = surface.fact("lucene_version").unwrap_or("");
            if let Some((_, want)) = pairs.iter().find(|(series, _)| version.starts_with(series)) {
                if !lucene.starts_with(want) {
                    out.push(finding(
                        surface,
                        "capability",
                        4,
                        format!(
                            "Elasticsearch {version} ships Lucene {want}.x, advertised {lucene}"
                        ),
                    ));
                }
            }
        }
        "redis" => {
            let pre6 = ["3.", "4.", "5."].iter().any(|s| version.starts_with(s));
            let proto = surface.fact("proto").unwrap_or("");
            if pre6 && proto != "2" {
                out.push(finding(
                    surface,
                    "capability",
                    4,
                    format!("RESP{proto} advertised by a pre-6 server ({version})"),
                ));
            }
        }
        "mysql" => {
            if surface.fact("protocol").unwrap_or("") != "10" {
                out.push(finding(
                    surface,
                    "capability",
                    4,
                    "greeting does not use protocol version 10".to_string(),
                ));
            }
            let plugin = surface.fact("auth_plugin").unwrap_or("");
            let known = ["mysql_native_password", "caching_sha2_password"];
            if !known.contains(&plugin) {
                out.push(finding(
                    surface,
                    "capability",
                    2,
                    format!("unknown auth plugin '{plugin}' in the greeting"),
                ));
            }
        }
        "couchdb" => {
            let sha = surface.fact("git_sha").unwrap_or("");
            if !is_hex(sha) {
                out.push(finding(
                    surface,
                    "capability",
                    2,
                    "git_sha is not a hex commit prefix".to_string(),
                ));
            }
        }
        _ => {}
    }
    out
}

/// Stage 3: error-catalog fidelity for malformed and unknown requests.
pub fn probe_errors(surface: &Surface) -> Vec<ProbeFinding> {
    let (unknown, syntax) = (&surface.error_unknown, &surface.error_syntax);
    let flaw = match surface.family.as_str() {
        "redis" if !unknown.starts_with("ERR unknown command `") => {
            "unknown-command error does not use the backtick format real servers ship"
        }
        "mysql" if !syntax.contains("check the manual") || !syntax.ends_with("at line 1") => {
            "ER_PARSE_ERROR text is missing the manual clause real servers ship"
        }
        "postgres" if !syntax.starts_with("syntax error at or near") => {
            "parse error is not the stock 'syntax error at or near' message"
        }
        "mongodb" if !unknown.contains("codeName") => {
            "command error omits the codeName field every real 3.4+ server returns"
        }
        "elastic" if !unknown.contains("resource.type") || !unknown.contains("index_uuid") => {
            "index_not_found_exception omits the resource.* / index_uuid fields"
        }
        "couchdb" if unknown != "{\"error\":\"not_found\",\"reason\":\"missing\"}" => {
            "missing-database body differs from the canonical not_found document"
        }
        _ => return Vec::new(),
    };
    vec![finding(surface, "error", 3, flaw.to_string())]
}

/// Minimum latency samples before the timing stage will judge a surface.
pub const MIN_TIMING_SAMPLES: usize = 8;

/// Stage 4: latency-distribution plausibility.
///
/// Real networked databases show milliseconds-scale medians with a
/// visible spread; canned in-process responders answer in tens of
/// microseconds with near-zero variance. Fewer than
/// [`MIN_TIMING_SAMPLES`] samples is treated as inconclusive.
pub fn probe_timing(surface: &Surface) -> Vec<ProbeFinding> {
    let mut out = Vec::new();
    if surface.timing_us.len() < MIN_TIMING_SAMPLES {
        return out;
    }
    let mut sorted = surface.timing_us.clone();
    sorted.sort_unstable();
    let median = sorted.get(sorted.len() / 2).copied().unwrap_or(0);
    let min = sorted.first().copied().unwrap_or(0);
    let max = sorted.last().copied().unwrap_or(0);
    let mut distinct = sorted.clone();
    distinct.dedup();
    if distinct.len() <= 2 {
        out.push(finding(
            surface,
            "timing",
            3,
            format!(
                "response latency is effectively constant ({} distinct values over {} samples)",
                distinct.len(),
                sorted.len()
            ),
        ));
    }
    if median < 400 {
        out.push(finding(
            surface,
            "timing",
            2,
            format!("median round trip of {median}us is faster than any real networked DBMS"),
        ));
    }
    if max.saturating_sub(min) < 200 {
        out.push(finding(
            surface,
            "timing",
            1,
            format!(
                "latency band of {}us is implausibly narrow for a database under load",
                max.saturating_sub(min)
            ),
        ));
    }
    out
}

/// Run all four probe stages against one surface.
pub fn run_all(surface: &Surface) -> Vec<ProbeFinding> {
    let mut out = probe_banner(surface);
    out.extend(probe_capability(surface));
    out.extend(probe_errors(surface));
    out.extend(probe_timing(surface));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plausible_redis() -> Surface {
        let mut s = Surface::named("redis");
        s.banner = "# Server\r\nredis_version:5.0.7\r\n".to_string();
        s.error_unknown = "ERR unknown command `BOGUS`, with args beginning with: ".to_string();
        s.push_fact("version", "5.0.7");
        s.push_fact("proto", "2");
        s.timing_us = (0..24).map(|i| 2_100 + 173 * i).collect();
        s
    }

    #[test]
    fn a_coherent_surface_yields_no_findings() {
        assert_eq!(run_all(&plausible_redis()), Vec::new());
    }

    #[test]
    fn an_empty_banner_is_a_tell() {
        let mut s = plausible_redis();
        s.banner.clear();
        let hits = probe_banner(&s);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits.first().map(|f| f.weight), Some(3));
    }

    #[test]
    fn banner_version_disagreement_is_a_tell() {
        let mut s = plausible_redis();
        s.banner = "# Server\r\nredis_version:6.2.0\r\n".to_string();
        assert_eq!(probe_banner(&s).len(), 1);
    }

    #[test]
    fn resp3_on_a_pre6_server_is_a_tell() {
        let mut s = plausible_redis();
        s.facts.retain(|(k, _)| k != "proto");
        s.push_fact("proto", "3");
        let hits = probe_capability(&s);
        assert_eq!(hits.first().map(|f| f.weight), Some(4));
    }

    #[test]
    fn mongo_wire_version_mismatch_is_a_tell() {
        let mut s = Surface::named("mongodb");
        s.banner = "4.4.18".to_string();
        s.error_unknown = "code=59 codeName=CommandNotFound".to_string();
        s.push_fact("version", "4.4.18");
        s.push_fact("maxWireVersion", "8");
        s.push_fact("gitVersion", "8ed32b5c2c68ebe7f8ae2ebe8d23f36037a17dea");
        let hits = probe_capability(&s);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits.first().map(|f| f.weight), Some(4));
    }

    #[test]
    fn quoted_unknown_command_format_is_a_tell() {
        let mut s = plausible_redis();
        s.error_unknown = "ERR unknown command 'BOGUS'".to_string();
        assert_eq!(probe_errors(&s).len(), 1);
    }

    #[test]
    fn constant_and_instant_latency_fires_all_three_timing_probes() {
        let mut s = plausible_redis();
        s.timing_us = vec![45; 24];
        let hits = probe_timing(&s);
        assert_eq!(hits.iter().map(|f| f.weight).sum::<u32>(), 6);
    }

    #[test]
    fn too_few_timing_samples_are_inconclusive() {
        let mut s = plausible_redis();
        s.timing_us = vec![45; MIN_TIMING_SAMPLES - 1];
        assert!(probe_timing(&s).is_empty());
    }
}
