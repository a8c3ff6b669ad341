//! The aggregations behind the paper's tables, computed over a
//! [`FrameView`] (Tables 10 and 11 over the [`BehaviorTable`] built from
//! one) with the frame's memoized per-source enrichment.
//!
//! * [`logins_by_country`] — Table 5 (top countries by login attempts, with
//!   the per-DBMS split and the IPs-attempting / IPs-total ratio).
//! * [`asn_table`] — Table 6 (top ASes by IP count with login distribution).
//! * [`astype_login_ips`] — Table 7 (#IPs by AS type attempting logins).
//! * [`exploit_countries`] — Table 10 (exploiting IPs by country × family).
//! * [`astype_behavior`] — Table 11 (AS type × behavior class).
//! * [`top_credentials`] — Table 12 (top usernames/passwords).
//! * [`bruteforce_summary`] / [`scanning_summary`] — the §5 headline stats.
//! * [`control_group_summary`] — the §5 multi- vs single-service control.

use crate::behavior::BehaviorTable;
use crate::classify::Behavior;
use crate::frame::{FrameKind, FrameView, Sym, FAMILIES};
use decoy_geo::AsType;
use decoy_store::Dbms;
use std::collections::{BTreeMap, HashMap};

/// One row of Table 5.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountryLoginRow {
    /// ISO country code ("??" for unmapped space).
    pub country: String,
    /// Total login attempts from the country.
    pub logins: u64,
    /// Distinct IPs that attempted at least one login.
    pub ips_with_logins: usize,
    /// Distinct IPs observed at all.
    pub ips_total: usize,
    /// Login attempts per DBMS.
    pub per_dbms: BTreeMap<Dbms, u64>,
}

/// Login attempts per DBMS family of every source id (indexed by
/// `dbms as usize`), `None` for the ids `view` never saw.
fn logins_per_source(view: FrameView<'_>) -> Vec<Option<[u64; FAMILIES]>> {
    let mut per_source = vec![None; view.frame().distinct_sources()];
    for event in view.events() {
        let counts = per_source[event.source as usize].get_or_insert([0; FAMILIES]);
        if matches!(event.kind, FrameKind::LoginAttempt { .. }) {
            counts[event.honeypot.dbms as usize] += 1;
        }
    }
    per_source
}

/// The non-zero entries of a per-family count array.
fn nonzero_per_dbms(counts: &[u64; FAMILIES]) -> BTreeMap<Dbms, u64> {
    let families: [Dbms; FAMILIES] = Dbms::all();
    families
        .into_iter()
        .zip(counts.iter().copied())
        .filter(|&(_, n)| n > 0)
        .collect()
}

/// The sources and login attempts behind one row of Table 5 or 6.
#[derive(Default)]
struct LoginTally {
    /// Distinct sources.
    ips: usize,
    /// Distinct sources that attempted at least one login.
    login_ips: usize,
    /// Login attempts per family, indexed by `dbms as usize`.
    logins: [u64; FAMILIES],
}

impl LoginTally {
    /// Count one source with its per-family login attempts.
    fn add(&mut self, counts: &[u64; FAMILIES]) {
        self.ips += 1;
        if counts.iter().any(|&n| n > 0) {
            self.login_ips += 1;
        }
        for (total, n) in self.logins.iter_mut().zip(counts) {
            *total += n;
        }
    }

    fn total_logins(&self) -> u64 {
        self.logins.iter().sum()
    }
}

/// Build Table 5 rows, sorted by login attempts descending.
pub fn logins_by_country(view: FrameView<'_>) -> Vec<CountryLoginRow> {
    let frame = view.frame();
    let mut per_country: BTreeMap<&str, LoginTally> = BTreeMap::new();
    for (id, counts) in logins_per_source(view).iter().enumerate() {
        if let Some(counts) = counts {
            let country = frame.source_country(id as u32);
            per_country.entry(country).or_default().add(counts);
        }
    }
    let mut rows: Vec<CountryLoginRow> = per_country
        .into_iter()
        .map(|(country, tally)| CountryLoginRow {
            country: country.to_string(),
            logins: tally.total_logins(),
            ips_with_logins: tally.login_ips,
            ips_total: tally.ips,
            per_dbms: nonzero_per_dbms(&tally.logins),
        })
        .collect();
    rows.sort_by(|a, b| {
        b.logins
            .cmp(&a.logins)
            .then_with(|| a.country.cmp(&b.country))
    });
    rows
}

/// One row of Table 6.
#[derive(Debug, Clone, PartialEq)]
pub struct AsnRow {
    /// AS number.
    pub asn: u32,
    /// AS name (empty for unmapped).
    pub name: String,
    /// Distinct IPs from this AS.
    pub ips: usize,
    /// Share of all observed IPs.
    pub share: f64,
    /// Total login attempts.
    pub logins: u64,
    /// Login attempts per DBMS.
    pub per_dbms: BTreeMap<Dbms, u64>,
}

/// Build Table 6 rows, sorted by IP count descending. Unmapped sources are
/// aggregated under ASN 0. The AS name comes from the memoized enrichment.
pub fn asn_table(view: FrameView<'_>) -> Vec<AsnRow> {
    let frame = view.frame();
    let mut per_asn: BTreeMap<u32, LoginTally> = BTreeMap::new();
    let mut names: BTreeMap<u32, &str> = BTreeMap::new();
    for (id, counts) in logins_per_source(view).iter().enumerate() {
        let Some(counts) = counts else { continue };
        let meta = frame.source_meta(id as u32);
        let asn = meta.map(|m| m.asn).unwrap_or(0);
        if let Some(meta) = meta {
            names.entry(asn).or_insert(&meta.as_name);
        }
        per_asn.entry(asn).or_default().add(counts);
    }
    let total_ips: usize = per_asn.values().map(|t| t.ips).sum();
    let mut rows: Vec<AsnRow> = per_asn
        .into_iter()
        .map(|(asn, tally)| AsnRow {
            asn,
            name: names.get(&asn).map(|n| n.to_string()).unwrap_or_default(),
            ips: tally.ips,
            share: tally.ips as f64 / total_ips.max(1) as f64,
            logins: tally.total_logins(),
            per_dbms: nonzero_per_dbms(&tally.logins),
        })
        .collect();
    rows.sort_by(|a, b| b.ips.cmp(&a.ips).then_with(|| a.asn.cmp(&b.asn)));
    rows
}

/// Per source id: did it attempt at least one login in `view`?
pub fn login_sources(view: FrameView<'_>) -> Vec<bool> {
    let mut logged_in = vec![false; view.frame().distinct_sources()];
    for event in view.events() {
        if matches!(event.kind, FrameKind::LoginAttempt { .. }) {
            logged_in[event.source as usize] = true;
        }
    }
    logged_in
}

/// Table 7: distinct IPs that attempted logins, by AS type.
pub fn astype_login_ips(view: FrameView<'_>) -> BTreeMap<AsType, usize> {
    let frame = view.frame();
    let mut per_type: BTreeMap<AsType, usize> = BTreeMap::new();
    for (id, _) in login_sources(view).iter().enumerate().filter(|(_, &l)| l) {
        let as_type = frame
            .source_meta(id as u32)
            .map(|m| m.as_type)
            .unwrap_or(AsType::Unknown);
        *per_type.entry(as_type).or_insert(0) += 1;
    }
    per_type
}

/// One row of Table 10.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploitCountryRow {
    /// ISO country code.
    pub country: String,
    /// Total exploiting IPs.
    pub ips: usize,
    /// Exploiting IPs per honeypot family.
    pub per_dbms: BTreeMap<Dbms, usize>,
}

/// Build Table 10: exploiting sources by country and family, sorted by
/// total descending, over the families `table` clustered (the medium/high
/// set).
pub fn exploit_countries(table: &BehaviorTable<'_>) -> Vec<ExploitCountryRow> {
    let frame = table.view().frame();
    let families: Vec<Dbms> = table.families().iter().map(|f| f.dbms).collect();
    let mut per_country: BTreeMap<&str, ExploitCountryRow> = BTreeMap::new();
    for id in table.ids() {
        let exploiting = |&dbms: &Dbms| table.profile(id, Some(dbms)).is_some_and(|p| p.exploiting);
        if !families.iter().any(exploiting) {
            continue;
        }
        let country = frame.source_country(id);
        let row = per_country
            .entry(country)
            .or_insert_with(|| ExploitCountryRow {
                country: country.to_string(),
                ips: 0,
                per_dbms: families.iter().map(|&d| (d, 0)).collect(),
            });
        row.ips += 1;
        for dbms in families.iter().filter(|d| exploiting(d)) {
            *row.per_dbms.entry(*dbms).or_insert(0) += 1;
        }
    }
    let mut rows: Vec<ExploitCountryRow> = per_country.into_values().collect();
    rows.sort_by(|a, b| b.ips.cmp(&a.ips).then_with(|| a.country.cmp(&b.country)));
    rows
}

/// Table 11: AS type × primary behavior class, each source counted once
/// with its profile merged over the families `table` clustered.
pub fn astype_behavior(table: &BehaviorTable<'_>) -> BTreeMap<AsType, BTreeMap<Behavior, usize>> {
    let frame = table.view().frame();
    let mut out: BTreeMap<AsType, BTreeMap<Behavior, usize>> = BTreeMap::new();
    for id in table.ids() {
        let Some(profile) = table.clustered_profile(id) else {
            continue;
        };
        let as_type = frame.source_meta(id).map_or(AsType::Unknown, |m| m.as_type);
        *out.entry(as_type)
            .or_default()
            .entry(profile.primary())
            .or_insert(0) += 1;
    }
    out
}

/// Table 12 shape: top-k usernames and passwords for one DBMS.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CredentialStats {
    /// (username, attempts), descending.
    pub top_usernames: Vec<(String, u64)>,
    /// (password, attempts), descending.
    pub top_passwords: Vec<(String, u64)>,
    /// Distinct (username, password) combinations.
    pub unique_combinations: usize,
    /// Distinct usernames.
    pub unique_usernames: usize,
    /// Distinct passwords.
    pub unique_passwords: usize,
}

/// Compute credential statistics for `dbms`, keeping the top `k` of each.
/// Attempts are counted once per `(username, password)` symbol pair (a
/// frame numbers each distinct string once); the per-field counts are
/// derived from the pair counts. Symbol order is string order in a sealed
/// frame, so ties rank by symbol and only the top `k` are resolved.
pub fn top_credentials(view: FrameView<'_>, dbms: Dbms, k: usize) -> CredentialStats {
    let mut pairs: HashMap<(Sym, Sym), u64> = HashMap::new();
    for event in view.events_of(Some(dbms)) {
        if let FrameKind::LoginAttempt {
            username, password, ..
        } = event.kind
        {
            *pairs.entry((username, password)).or_insert(0) += 1;
        }
    }
    let mut users: HashMap<Sym, u64> = HashMap::new();
    let mut passwords: HashMap<Sym, u64> = HashMap::new();
    for (&(username, password), &n) in &pairs {
        *users.entry(username).or_insert(0) += n;
        *passwords.entry(password).or_insert(0) += n;
    }
    let top = |map: HashMap<Sym, u64>| {
        let mut v: Vec<(Sym, u64)> = map.into_iter().collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v.truncate(k);
        v.into_iter()
            .map(|(s, n)| (view.string(s).to_string(), n))
            .collect()
    };
    CredentialStats {
        unique_combinations: pairs.len(),
        unique_usernames: users.len(),
        unique_passwords: passwords.len(),
        top_usernames: top(users),
        top_passwords: top(passwords),
    }
}

/// The §5 brute-force headline numbers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BruteforceSummary {
    /// Total login attempts across all DBMS.
    pub total_logins: u64,
    /// Login attempts per DBMS.
    pub per_dbms: BTreeMap<Dbms, u64>,
    /// Distinct sources that attempted at least one login.
    pub clients: usize,
    /// Mean attempts per such source.
    pub avg_attempts_per_client: f64,
}

/// Compute the brute-force summary over the whole view.
pub fn bruteforce_summary(view: FrameView<'_>) -> BruteforceSummary {
    let mut per_dbms = [0u64; FAMILIES];
    let mut clients = vec![false; view.frame().distinct_sources()];
    for event in view.events() {
        if matches!(event.kind, FrameKind::LoginAttempt { .. }) {
            per_dbms[event.honeypot.dbms as usize] += 1;
            clients[event.source as usize] = true;
        }
    }
    let total_logins: u64 = per_dbms.iter().sum();
    let clients = clients.iter().filter(|&&c| c).count();
    BruteforceSummary {
        total_logins,
        per_dbms: nonzero_per_dbms(&per_dbms),
        clients,
        avg_attempts_per_client: if clients == 0 {
            0.0
        } else {
            total_logins as f64 / clients as f64
        },
    }
}

/// The §5 control-group comparison: multi-service VMs vs single-service
/// VMs ("Adversaries do not care whether a system runs multiple services").
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ControlGroupSummary {
    /// Distinct sources seen on single-service instances.
    pub single_ips: usize,
    /// Distinct sources seen on multi-service instances.
    pub multi_ips: usize,
    /// Sources seen on both.
    pub overlap: usize,
    /// Sources that brute-forced only single-service instances.
    pub brute_single_only: usize,
    /// Sources that brute-forced only multi-service instances.
    pub brute_multi_only: usize,
}

/// Compute the §5 control-group comparison over the low-interaction fleet.
pub fn control_group_summary(view: FrameView<'_>) -> ControlGroupSummary {
    use decoy_store::ConfigVariant;
    // per source id: seen on [single, multi], brute-forced [single, multi]
    let mut seen = vec![[false; 2]; view.frame().distinct_sources()];
    let mut brute = vec![[false; 2]; seen.len()];
    for event in view.events() {
        let group = match event.honeypot.config {
            ConfigVariant::SingleService => 0,
            ConfigVariant::MultiService => 1,
            _ => continue,
        };
        seen[event.source as usize][group] = true;
        if matches!(event.kind, FrameKind::LoginAttempt { .. }) {
            brute[event.source as usize][group] = true;
        }
    }
    let count = |flags: &[[bool; 2]], pred: fn([bool; 2]) -> bool| {
        flags.iter().filter(|&&f| pred(f)).count()
    };
    ControlGroupSummary {
        single_ips: count(&seen, |[single, _]| single),
        multi_ips: count(&seen, |[_, multi]| multi),
        overlap: count(&seen, |[single, multi]| single && multi),
        brute_single_only: count(&brute, |[single, multi]| single && !multi),
        brute_multi_only: count(&brute, |[single, multi]| multi && !single),
    }
}

/// The §5 scanning-population summary.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScanningSummary {
    /// Distinct sources observed.
    pub unique_ips: usize,
    /// Sources on the institutional-scanner list.
    pub institutional_ips: usize,
    /// (country, distinct sources), descending.
    pub country_counts: Vec<(String, usize)>,
}

/// Compute the scanning summary over the whole view.
pub fn scanning_summary(view: FrameView<'_>) -> ScanningSummary {
    let frame = view.frame();
    let mut seen = vec![false; frame.distinct_sources()];
    for event in view.events() {
        seen[event.source as usize] = true;
    }
    let mut per_country: BTreeMap<&str, usize> = BTreeMap::new();
    let mut unique_ips = 0usize;
    let mut institutional_ips = 0usize;
    for (id, _) in seen.iter().enumerate().filter(|(_, &s)| s) {
        let id = id as u32;
        *per_country.entry(frame.source_country(id)).or_insert(0) += 1;
        if frame.source_meta(id).is_some_and(|m| m.institutional) {
            institutional_ips += 1;
        }
        unique_ips += 1;
    }
    let mut country_counts: Vec<(String, usize)> = per_country
        .into_iter()
        .map(|(country, n)| (country.to_string(), n))
        .collect();
    country_counts.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    ScanningSummary {
        unique_ips,
        institutional_ips,
        country_counts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{AnalysisFrame, Partition};
    use decoy_base::time::EXPERIMENT_START;
    use decoy_geo::GeoDb;
    use decoy_store::{ConfigVariant, Event, EventKind, EventStore, HoneypotId, InteractionLevel};
    use std::net::IpAddr;
    use std::sync::Arc;

    struct Fixture {
        store: Arc<EventStore>,
        geo: Arc<GeoDb>,
        chinanet_ip: IpAddr,
        censys_ip: IpAddr,
        ru_ip: IpAddr,
    }

    impl Fixture {
        /// The frame over everything logged so far.
        fn frame(&self) -> AnalysisFrame {
            AnalysisFrame::build(&self.store, &self.geo)
        }
    }

    fn fixture() -> Fixture {
        let geo = GeoDb::builtin();
        let mut rng = decoy_base::Rng::seed_from_u64(9);
        let chinanet_ip = IpAddr::V4(geo.sample_ip(4134, None, &mut rng).unwrap());
        let censys_ip = IpAddr::V4(geo.sample_ip(398324, None, &mut rng).unwrap());
        let ru_ip = IpAddr::V4(geo.sample_ip(208091, Some("RU"), &mut rng).unwrap());
        let store = EventStore::new();
        let hp =
            |dbms| HoneypotId::new(dbms, InteractionLevel::Low, ConfigVariant::MultiService, 0);
        let log = |src: IpAddr, dbms, kind| {
            store.log(Event {
                ts: EXPERIMENT_START,
                honeypot: hp(dbms),
                src,
                session: 1,
                kind,
            })
        };
        // censys scans only
        log(censys_ip, Dbms::Mssql, EventKind::Connect);
        // chinanet brute-forces MSSQL twice
        for pw in ["123", "123456"] {
            log(
                chinanet_ip,
                Dbms::Mssql,
                EventKind::LoginAttempt {
                    username: "sa".into(),
                    password: pw.into(),
                    success: false,
                },
            );
        }
        // the RU hoster hammers MSSQL
        for _ in 0..10 {
            log(
                ru_ip,
                Dbms::Mssql,
                EventKind::LoginAttempt {
                    username: "sa".into(),
                    password: "P@ssw0rd".into(),
                    success: false,
                },
            );
        }
        // one MySQL login from chinanet
        log(
            chinanet_ip,
            Dbms::MySql,
            EventKind::LoginAttempt {
                username: "root".into(),
                password: "root".into(),
                success: false,
            },
        );
        Fixture {
            store,
            geo,
            chinanet_ip,
            censys_ip,
            ru_ip,
        }
    }

    #[test]
    fn table5_country_rows() {
        let frame = fixture().frame();
        let rows = logins_by_country(frame.view(Partition::All));
        // RU tops by volume (10 logins)
        assert_eq!(rows[0].country, "RU");
        assert_eq!(rows[0].logins, 10);
        assert_eq!(rows[0].ips_with_logins, 1);
        assert_eq!(rows[0].per_dbms[&Dbms::Mssql], 10);
        let cn = rows.iter().find(|r| r.country == "CN").unwrap();
        assert_eq!(cn.logins, 3);
        assert_eq!(cn.per_dbms[&Dbms::Mssql], 2);
        assert_eq!(cn.per_dbms[&Dbms::MySql], 1);
        // US row exists (censys) with zero logins
        let us = rows.iter().find(|r| r.country == "US").unwrap();
        assert_eq!(us.logins, 0);
        assert_eq!(us.ips_total, 1);
    }

    #[test]
    fn table6_asn_rows() {
        let frame = fixture().frame();
        let rows = asn_table(frame.view(Partition::All));
        let chinanet = rows.iter().find(|r| r.asn == 4134).unwrap();
        assert_eq!(chinanet.ips, 1);
        assert_eq!(chinanet.logins, 3);
        assert_eq!(chinanet.name, "Chinanet");
        let censys = rows.iter().find(|r| r.asn == 398324).unwrap();
        assert_eq!(censys.logins, 0);
        let total_share: f64 = rows.iter().map(|r| r.share).sum();
        assert!((total_share - 1.0).abs() < 1e-9);
    }

    #[test]
    fn table7_astype_logins() {
        let frame = fixture().frame();
        let t = astype_login_ips(frame.view(Partition::All));
        assert_eq!(t[&AsType::Telecom], 1); // chinanet
        assert_eq!(t[&AsType::Hosting], 1); // AS208091
        assert!(!t.contains_key(&AsType::Security)); // censys never logged in
    }

    #[test]
    fn table12_credentials() {
        let frame = fixture().frame();
        let stats = top_credentials(frame.view(Partition::All), Dbms::Mssql, 10);
        assert_eq!(stats.top_usernames[0], ("sa".to_string(), 12));
        assert_eq!(stats.top_passwords[0], ("P@ssw0rd".to_string(), 10));
        assert_eq!(stats.unique_combinations, 3);
        assert_eq!(stats.unique_usernames, 1);
        assert_eq!(stats.unique_passwords, 3);
    }

    #[test]
    fn bruteforce_and_scanning_summaries() {
        let f = fixture();
        let frame = f.frame();
        let view = frame.view(Partition::All);
        let b = bruteforce_summary(view);
        assert_eq!(b.total_logins, 13);
        assert_eq!(b.per_dbms[&Dbms::Mssql], 12);
        assert_eq!(b.per_dbms[&Dbms::MySql], 1);
        assert_eq!(b.clients, 2);
        assert!((b.avg_attempts_per_client - 6.5).abs() < 1e-12);

        let s = scanning_summary(view);
        assert_eq!(s.unique_ips, 3);
        assert_eq!(s.institutional_ips, 1);
        assert_eq!(s.country_counts.len(), 3);
        // sanity: the fixture IPs resolve where expected
        assert_eq!(f.geo.lookup(f.censys_ip).unwrap().country, "US");
        assert_eq!(f.geo.lookup(f.ru_ip).unwrap().country, "RU");
        assert_eq!(f.geo.lookup(f.chinanet_ip).unwrap().country, "CN");
    }

    #[test]
    fn control_group_accounting() {
        let store = EventStore::new();
        let hp = |config| HoneypotId::new(Dbms::Mssql, InteractionLevel::Low, config, 0);
        let log = |src: IpAddr, config, kind| {
            store.log(Event {
                ts: EXPERIMENT_START,
                honeypot: hp(config),
                src,
                session: 1,
                kind,
            })
        };
        let a: IpAddr = "60.0.0.1".parse().unwrap(); // both groups, brutes multi only
        let b: IpAddr = "60.0.0.2".parse().unwrap(); // single only, brutes there
        let c: IpAddr = "60.0.0.3".parse().unwrap(); // multi only, scan only
        let login = EventKind::LoginAttempt {
            username: "sa".into(),
            password: "1".into(),
            success: false,
        };
        log(a, ConfigVariant::SingleService, EventKind::Connect);
        log(a, ConfigVariant::MultiService, login.clone());
        log(b, ConfigVariant::SingleService, login.clone());
        log(c, ConfigVariant::MultiService, EventKind::Connect);
        let frame = AnalysisFrame::build(&store, &GeoDb::builtin());
        let summary = control_group_summary(frame.view(Partition::All));
        assert_eq!(summary.single_ips, 2);
        assert_eq!(summary.multi_ips, 2);
        assert_eq!(summary.overlap, 1);
        assert_eq!(summary.brute_single_only, 1); // b
        assert_eq!(summary.brute_multi_only, 1); // a
    }

    #[test]
    fn table10_and_table11_exploiters() {
        let f = fixture();
        // add an exploiting source on medium Redis from Chinanet
        let hp = HoneypotId::new(
            Dbms::Redis,
            InteractionLevel::Medium,
            ConfigVariant::Default,
            0,
        );
        f.store.log(Event {
            ts: EXPERIMENT_START,
            honeypot: hp,
            src: f.chinanet_ip,
            session: 2,
            kind: EventKind::Command {
                action: "SLAVEOF <IP> <N>".into(),
                raw: "SLAVEOF 1.2.3.4 8886".into(),
            },
        });
        let families = [Dbms::Elastic, Dbms::MongoDb, Dbms::Postgres, Dbms::Redis];
        let frame = f.frame();
        let table = BehaviorTable::build(frame.view(Partition::All), &families, 0.05);
        let rows = exploit_countries(&table);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].country, "CN");
        assert_eq!(rows[0].per_dbms[&Dbms::Redis], 1);
        assert_eq!(rows[0].per_dbms[&Dbms::Postgres], 0);

        let t11 = astype_behavior(&table);
        assert_eq!(t11[&AsType::Telecom][&Behavior::Exploiting], 1);
    }
}
