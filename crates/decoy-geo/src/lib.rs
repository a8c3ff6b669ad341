#![warn(missing_docs)]

//! # decoy-geo
//!
//! IP enrichment for the analysis pipeline — the substitute for the paper's
//! MaxMind GeoLite database, manual AS classification, ASdb cross-reference,
//! and institutional-scanner list (§4.3, Figure 1 step ③).
//!
//! * [`trie`] — a binary longest-prefix-match trie over IPv4.
//! * [`enrich`] — a memoizing per-IP cache ([`GeoEnricher`]) so the analysis
//!   frame enriches each source exactly once.
//! * [`registry`] — a built-in allocation table whose autonomous systems are
//!   modeled on the ASes the paper names (AS6939 Hurricane, AS396982 Google
//!   Cloud, AS14061 DigitalOcean, AS4134 Chinanet, AS208091, AS398324
//!   Censys, ...), each with synthetic-but-disjoint prefixes and per-prefix
//!   geolocation. Lookups are consistent, which is all enrichment needs.
//!
//! The same registry drives the *generation* side: `decoy-agents` samples
//! attacker source addresses from these prefixes, so enrichment of simulated
//! traffic recovers exactly the country/AS structure the population was
//! built with — mirroring how the paper's enrichment recovers the structure
//! of real traffic.

pub mod enrich;
pub mod registry;
pub mod trie;

pub use enrich::GeoEnricher;

use decoy_base::Rng;
use std::net::{IpAddr, Ipv4Addr};
use std::sync::Arc;

/// AS classification categories (Appendix D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AsType {
    /// Business services unrelated to hosting/telecom/security.
    Business,
    /// Data centers and cloud hosting providers.
    Hosting,
    /// ICT services: registrars, SaaS, CDNs.
    IctService,
    /// Specialized IP services, e.g. address brokerage / transit.
    IpService,
    /// Security research firms and scanners (Censys, Shodan, ...).
    Security,
    /// Telcos and access ISPs.
    Telecom,
    /// Academic institutions.
    University,
    /// VPN providers.
    Vpn,
    /// Access ISPs distinct from backbone telecoms (Table 7 lists ISP
    /// separately from Telecom).
    Isp,
    /// Could not be classified.
    Unknown,
}

impl AsType {
    /// Label used in Tables 7 and 11.
    pub fn label(&self) -> &'static str {
        match self {
            AsType::Business => "Business",
            AsType::Hosting => "Hosting",
            AsType::IctService => "ICT",
            AsType::IpService => "IP Service",
            AsType::Security => "Security",
            AsType::Telecom => "Telecom",
            AsType::University => "University",
            AsType::Vpn => "VPN",
            AsType::Isp => "ISP",
            AsType::Unknown => "Unknown",
        }
    }

    /// All categories in table order.
    pub fn all() -> [AsType; 10] {
        [
            AsType::Business,
            AsType::Hosting,
            AsType::IctService,
            AsType::IpService,
            AsType::Security,
            AsType::Telecom,
            AsType::University,
            AsType::Vpn,
            AsType::Isp,
            AsType::Unknown,
        ]
    }
}

/// One autonomous system in the registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsRecord {
    /// AS number.
    pub asn: u32,
    /// Organization name as it appears in tables.
    pub name: String,
    /// Manual classification (Appendix D).
    pub as_type: AsType,
    /// Whether this AS belongs to the institutional-scanner list of
    /// Griffioen et al. (search engines, research scanners).
    pub institutional: bool,
}

/// One announced prefix: `base/len`, geolocated to `country`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefixRecord {
    /// Network base address.
    pub base: Ipv4Addr,
    /// Prefix length in bits.
    pub len: u8,
    /// Owning AS number.
    pub asn: u32,
    /// ISO 3166-1 alpha-2 country of the prefix.
    pub country: [u8; 2],
}

impl PrefixRecord {
    /// Country code as a string slice.
    pub fn country_str(&self) -> &str {
        std::str::from_utf8(&self.country).unwrap_or("??")
    }
}

/// Enrichment result for one IP.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IpMeta {
    /// Owning AS number.
    pub asn: u32,
    /// AS organization name.
    pub as_name: String,
    /// AS classification.
    pub as_type: AsType,
    /// ISO country code of the prefix.
    pub country: String,
    /// Institutional-scanner flag.
    pub institutional: bool,
}

/// The enrichment database: AS registry + prefix trie.
#[derive(Debug)]
pub struct GeoDb {
    records: Vec<AsRecord>,
    prefixes: Vec<PrefixRecord>,
    trie: trie::PrefixTrie,
}

impl GeoDb {
    /// Build a database from explicit records and prefixes.
    pub fn from_parts(records: Vec<AsRecord>, prefixes: Vec<PrefixRecord>) -> Arc<Self> {
        let mut trie = trie::PrefixTrie::new();
        for (idx, p) in prefixes.iter().enumerate() {
            trie.insert(u32::from(p.base), p.len, idx as u32);
        }
        Arc::new(GeoDb {
            records,
            prefixes,
            trie,
        })
    }

    /// The built-in registry modeled on the paper's ASes.
    pub fn builtin() -> Arc<Self> {
        registry::build()
    }

    /// Longest-prefix-match enrichment of one address (IPv6 is unmapped —
    /// the paper's honeypot traffic is IPv4).
    pub fn lookup(&self, ip: IpAddr) -> Option<IpMeta> {
        let IpAddr::V4(v4) = ip else { return None };
        let idx = self.trie.lookup(u32::from(v4))? as usize;
        let prefix = &self.prefixes[idx];
        let record = self.record(prefix.asn)?;
        Some(IpMeta {
            asn: record.asn,
            as_name: record.name.clone(),
            as_type: record.as_type,
            country: prefix.country_str().to_string(),
            institutional: record.institutional,
        })
    }

    /// The registry record for `asn`.
    pub fn record(&self, asn: u32) -> Option<&AsRecord> {
        self.records.iter().find(|r| r.asn == asn)
    }

    /// All registered AS numbers.
    pub fn asns(&self) -> impl Iterator<Item = u32> + '_ {
        self.records.iter().map(|r| r.asn)
    }

    /// ASes of a given classification.
    pub fn asns_of_type(&self, t: AsType) -> Vec<u32> {
        self.records
            .iter()
            .filter(|r| r.as_type == t)
            .map(|r| r.asn)
            .collect()
    }

    /// ASes announcing at least one prefix in `country`.
    pub fn asns_in_country(&self, country: &str) -> Vec<u32> {
        let mut out: Vec<u32> = self
            .prefixes
            .iter()
            .filter(|p| p.country_str() == country)
            .map(|p| p.asn)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Prefixes announced by `asn`, optionally restricted to a country.
    pub fn prefixes_of(&self, asn: u32, country: Option<&str>) -> Vec<&PrefixRecord> {
        self.prefixes
            .iter()
            .filter(|p| p.asn == asn && country.map(|c| p.country_str() == c).unwrap_or(true))
            .collect()
    }

    /// Whether `ip` belongs to an institutional scanner.
    pub fn is_institutional(&self, ip: IpAddr) -> bool {
        self.lookup(ip).map(|m| m.institutional).unwrap_or(false)
    }

    /// Draw a host address uniformly from one of `asn`'s prefixes (used by
    /// the agent population to place actors in realistic networks).
    pub fn sample_ip(&self, asn: u32, country: Option<&str>, rng: &mut Rng) -> Option<Ipv4Addr> {
        let candidates = self.prefixes_of(asn, country);
        if candidates.is_empty() {
            return None;
        }
        let p = candidates[rng.gen_range(0..candidates.len())];
        let host_bits = 32 - p.len as u32;
        let span = if host_bits >= 32 {
            u32::MAX
        } else {
            (1u32 << host_bits) - 1
        };
        // avoid .0 network addresses for realism
        let offset = if span > 1 { rng.gen_range(1..=span) } else { 1 };
        Some(Ipv4Addr::from(u32::from(p.base) | (offset & span)))
    }

    /// Number of prefixes in the table.
    pub fn prefix_count(&self) -> usize {
        self.prefixes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Arc<GeoDb> {
        GeoDb::builtin()
    }

    #[test]
    fn builtin_contains_paper_ases() {
        let db = db();
        // The top-10 ASes of Table 6 plus the Russian brute-force hoster.
        for asn in [
            6939, 396982, 14061, 211298, 14618, 135377, 4134, 4837, 398324, 63949, 208091,
        ] {
            assert!(db.record(asn).is_some(), "AS{asn} missing");
        }
        assert_eq!(db.record(4134).unwrap().as_type, AsType::Telecom);
        assert_eq!(db.record(14061).unwrap().as_type, AsType::Hosting);
        assert_eq!(db.record(398324).unwrap().as_type, AsType::Security);
        assert!(db.record(398324).unwrap().institutional);
        assert!(!db.record(4134).unwrap().institutional);
    }

    #[test]
    fn lookup_is_consistent_with_sampling() {
        let db = db();
        let mut rng = Rng::seed_from_u64(1);
        for asn in db.asns().collect::<Vec<_>>() {
            let ip = db.sample_ip(asn, None, &mut rng).unwrap();
            let meta = db.lookup(IpAddr::V4(ip)).unwrap();
            assert_eq!(meta.asn, asn, "ip {ip} sampled from AS{asn}");
        }
    }

    #[test]
    fn country_restricted_sampling() {
        let db = db();
        let mut rng = Rng::seed_from_u64(2);
        // DigitalOcean announces in several countries; restrict to NL.
        let ip = db.sample_ip(14061, Some("NL"), &mut rng).unwrap();
        let meta = db.lookup(IpAddr::V4(ip)).unwrap();
        assert_eq!(meta.country, "NL");
        assert_eq!(meta.asn, 14061);
        // an impossible combination yields None
        assert!(db.sample_ip(4134, Some("BR"), &mut rng).is_none());
    }

    #[test]
    fn unknown_space_is_unmapped() {
        let db = db();
        assert!(db.lookup("203.0.113.77".parse().unwrap()).is_none());
        assert!(db.lookup("::1".parse().unwrap()).is_none());
    }

    #[test]
    fn type_and_country_queries() {
        let db = db();
        let hosting = db.asns_of_type(AsType::Hosting);
        assert!(hosting.contains(&14061));
        assert!(hosting.contains(&396982));
        let cn = db.asns_in_country("CN");
        assert!(cn.contains(&4134));
        assert!(cn.contains(&4837));
        let ru = db.asns_in_country("RU");
        assert!(ru.contains(&208091), "AS208091 hosts in RU per §5");
    }

    #[test]
    fn astype_labels_cover_tables() {
        assert_eq!(AsType::IctService.label(), "ICT");
        assert_eq!(AsType::IpService.label(), "IP Service");
        assert_eq!(AsType::all().len(), 10);
    }
}
