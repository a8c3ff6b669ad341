//! Differential test: every per-source aggregation that runs on the frame's
//! dense source ids, checked against a naive fold that keys `BTreeSet`s and
//! `HashMap`s by source address, over seeded random events.
//!
//! The events cover what the flat arrays must get right: more than 64
//! distinct sources (bitsets span several words), IPv4 sources next to
//! their IPv4-mapped IPv6 twins, sources seen in only one partition, events
//! before the origin, past day 63 (the day mask's last bit) and past the
//! hour window, and every DBMS family and configuration variant. For the
//! behavior table they also carry recognized foreign payloads, campaign
//! commands and repeated logins, so profiles, tags and the manual-review
//! refinement all have something to find. Each check runs on a batch frame
//! and on a frame sealed from three partials merged out of order, whose
//! equal credential strings sit in different allocations.

use crate::behavior::BehaviorTable;
use crate::classify::{classify_sources, Behavior, BehaviorProfile};
use crate::cluster::{cluster_sources, refine_by_behavior};
use crate::ecdf::retention_days;
use crate::fold::PartialFrame;
use crate::frame::{AnalysisFrame, FrameKind, FrameKindRef, FrameView, Partition};
use crate::tables::{self, *};
use crate::tagging::{collect_activity, tag_sources, CampaignTag};
use crate::timeseries::{hourly_series, HourBucket};
use decoy_base::time::{Timestamp, EXPERIMENT_START, MILLIS_PER_DAY, MILLIS_PER_HOUR};
use decoy_base::HealthState;
use decoy_base::Rng;
use decoy_geo::{AsType, GeoDb, GeoEnricher};
use decoy_store::{
    ConfigVariant, Dbms, Event, EventKind, EventStore, HoneypotId, InteractionLevel,
};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::net::{IpAddr, Ipv4Addr};

/// The families the behavior table clusters (the report's medium/high set).
const CLUSTERED: [Dbms; 4] = [Dbms::Elastic, Dbms::MongoDb, Dbms::Postgres, Dbms::Redis];

/// The report's Ward cut.
const CUT: f64 = 0.05;

const CONFIGS: [ConfigVariant; 5] = [
    ConfigVariant::Default,
    ConfigVariant::FakeData,
    ConfigVariant::LoginDisabled,
    ConfigVariant::MultiService,
    ConfigVariant::SingleService,
];

/// Which partitions a source shows up in.
#[derive(Clone, Copy)]
enum Reach {
    LowOnly,
    MedHighOnly,
    Both,
}

/// The source population: two addresses from every registered AS, a block
/// of unmapped addresses, and the IPv4-mapped IPv6 twin of some of each.
fn sources(geo: &GeoDb, rng: &mut Rng) -> Vec<(IpAddr, Reach)> {
    let mut v4: Vec<Ipv4Addr> = Vec::new();
    for asn in geo.asns() {
        for _ in 0..2 {
            v4.extend(geo.sample_ip(asn, None, rng));
        }
    }
    v4.extend((1..=24).map(|host| Ipv4Addr::new(203, 0, 113, host)));
    v4.sort_unstable();
    v4.dedup();
    let mut all: Vec<IpAddr> = v4.iter().map(|&ip| IpAddr::V4(ip)).collect();
    all.extend(
        v4.iter()
            .step_by(5)
            .map(|ip| IpAddr::V6(ip.to_ipv6_mapped())),
    );
    all.into_iter()
        .map(|ip| {
            let reach = match rng.gen_range(0..4u32) {
                0 => Reach::LowOnly,
                1 => Reach::MedHighOnly,
                _ => Reach::Both,
            };
            (ip, reach)
        })
        .collect()
}

/// A timestamp drawn to cover the window edges the aggregations bucket by.
fn timestamp(rng: &mut Rng) -> Timestamp {
    let millis = |days: u64, rng: &mut Rng| rng.gen_range(0..days * MILLIS_PER_DAY);
    match rng.gen_range(0..10u32) {
        // before the origin
        0 => Timestamp::from_millis(EXPERIMENT_START.as_millis() - 1 - millis(3, rng)),
        // past day 63
        1 => EXPERIMENT_START.add_millis(64 * MILLIS_PER_DAY + millis(40, rng)),
        // past the 480-hour window, before day 64
        2 => EXPERIMENT_START.add_millis(480 * MILLIS_PER_HOUR + millis(40, rng)),
        _ => EXPERIMENT_START.add_millis(millis(20, rng)),
    }
}

fn kind(rng: &mut Rng) -> EventKind {
    const USERS: [&str; 5] = ["sa", "root", "admin", "postgres", "sa "];
    const PASSWORDS: [&str; 6] = ["123", "123456", "P@ssw0rd", "", "root", "sa"];
    const COMMANDS: [&str; 9] = [
        "INFO server",
        "KEYS *",
        "SELECT 1",
        "SLAVEOF <IP> <N>",
        "MODULE LOAD /tmp/exp.so",
        "COPY x FROM PROGRAM 'id'",
        "ALTER USER postgres WITH NOSUPERUSER",
        "drop prod.users",
        "insert prod.README",
    ];
    const PAYLOADS: [Option<&str>; 3] = [None, Some("rdp-scan"), Some("jdwp-scan")];
    let pick = |rng: &mut Rng, from: &[&str]| from[rng.gen_range(0..from.len())].to_string();
    match rng.gen_range(0..10u32) {
        0 => EventKind::Connect,
        1 => EventKind::Disconnect,
        2 => EventKind::Command {
            action: pick(rng, &COMMANDS),
            raw: pick(rng, &COMMANDS),
        },
        3 => EventKind::Payload {
            len: rng.gen_range(0..64usize),
            recognized: PAYLOADS[rng.gen_range(0..PAYLOADS.len())].map(str::to_string),
            preview: "GET / HTTP/1.1".to_string(),
        },
        4 => EventKind::Malformed {
            detail: "short frame".to_string(),
        },
        _ => EventKind::LoginAttempt {
            username: pick(rng, &USERS),
            password: pick(rng, &PASSWORDS),
            success: rng.gen_bool(0.1),
        },
    }
}

/// Campaign scripts some medium/high sources replay verbatim on one
/// honeypot (the bots whose identical documents Ward collapses).
const SCRIPTS: [&[&str]; 3] = [
    &["listDatabases", "drop prod.users", "insert prod.README"],
    &["INFO server", "MODULE LOAD /tmp/exp.so"],
    &[
        "COPY x FROM PROGRAM 'id'",
        "ALTER USER postgres WITH NOSUPERUSER",
    ],
];

/// Seeded events in bursts of one source, with some health telemetry.
fn events(seed: u64) -> Vec<Event> {
    let geo = GeoDb::builtin();
    let mut rng = Rng::seed_from_u64(seed);
    let sources = sources(&geo, &mut rng);
    let mut events = Vec::new();
    while events.len() < 6000 {
        let (src, reach) = sources[rng.gen_range(0..sources.len())];
        if !matches!(reach, Reach::LowOnly) && rng.gen_range(0..10u32) == 0 {
            let dbms = Dbms::all()[rng.gen_range(0..Dbms::all().len())];
            let honeypot =
                HoneypotId::new(dbms, InteractionLevel::Medium, ConfigVariant::Default, 0);
            let script = SCRIPTS[rng.gen_range(0..SCRIPTS.len())];
            events.extend(script.iter().map(|&raw| Event {
                ts: timestamp(&mut rng),
                honeypot,
                src,
                session: 0,
                kind: EventKind::Command {
                    action: raw.to_string(),
                    raw: raw.to_string(),
                },
            }));
            continue;
        }
        for _ in 0..rng.gen_range(1..6u32) {
            let level = match reach {
                Reach::LowOnly => InteractionLevel::Low,
                Reach::MedHighOnly if rng.gen_bool(0.5) => InteractionLevel::Medium,
                Reach::MedHighOnly => InteractionLevel::High,
                Reach::Both => match rng.gen_range(0..3u32) {
                    0 => InteractionLevel::Low,
                    1 => InteractionLevel::Medium,
                    _ => InteractionLevel::High,
                },
            };
            let dbms = Dbms::all()[rng.gen_range(0..Dbms::all().len())];
            let config = CONFIGS[rng.gen_range(0..CONFIGS.len())];
            let honeypot = HoneypotId::new(dbms, level, config, rng.gen_range(0..3u16));
            let event = Event {
                ts: timestamp(&mut rng),
                honeypot,
                src,
                session: rng.gen_range(0..40u64),
                kind: kind(&mut rng),
            };
            // some logins are retried with the same credentials
            let repeats = match event.kind {
                EventKind::LoginAttempt { .. } if rng.gen_bool(0.2) => rng.gen_range(1..4usize),
                _ => 0,
            };
            events.extend(std::iter::repeat(event).take(1 + repeats));
        }
        if rng.gen_range(0..50u32) == 0 {
            events.push(Event {
                ts: timestamp(&mut rng),
                honeypot: HoneypotId::new(
                    Dbms::Redis,
                    InteractionLevel::Medium,
                    ConfigVariant::Default,
                    0,
                ),
                src: IpAddr::from([0, 0, 0, 0]),
                session: 0,
                kind: EventKind::Health {
                    state: HealthState::Degraded,
                    restarts: 1,
                    detail: "accept stall".into(),
                },
            });
        }
    }
    events
}

fn batch_frame(events: &[Event]) -> AnalysisFrame {
    let store = EventStore::new();
    store.log_many(events.iter().cloned());
    AnalysisFrame::build(&store, &GeoDb::builtin())
}

/// Three partials over consecutive thirds, each with its own string and
/// source tables.
fn partials(events: &[Event]) -> [PartialFrame; 3] {
    let (a, b) = (events.len() / 3, 2 * events.len() / 3);
    let fold = |from: usize, to: usize| {
        let enricher = GeoEnricher::new(GeoDb::builtin());
        let mut partial = PartialFrame::new(from as u64);
        for event in &events[from..to] {
            partial.push(event, &enricher);
        }
        partial
    };
    [fold(0, a), fold(a, b), fold(b, events.len())]
}

/// The three partials, merged out of order.
fn merged_frame(events: &[Event]) -> AnalysisFrame {
    let [head, mid, tail] = partials(events);
    PartialFrame::merge(PartialFrame::merge(tail, head), mid).seal()
}

// ---------------------------------------------------------------------------
// The naive folds, keyed by source address
// ---------------------------------------------------------------------------

fn is_login(kind: &FrameKind) -> bool {
    matches!(kind, FrameKind::LoginAttempt { .. })
}

fn naive_logins_by_country(view: FrameView<'_>) -> Vec<CountryLoginRow> {
    let mut logins: HashMap<String, u64> = HashMap::new();
    let mut per_dbms: HashMap<String, BTreeMap<Dbms, u64>> = HashMap::new();
    let mut login_ips: HashMap<String, BTreeSet<IpAddr>> = HashMap::new();
    let mut all_ips: HashMap<String, BTreeSet<IpAddr>> = HashMap::new();
    for event in view.events() {
        let country = view.country(view.src(event)).to_string();
        all_ips
            .entry(country.clone())
            .or_default()
            .insert(view.src(event));
        if is_login(&event.kind) {
            *logins.entry(country.clone()).or_insert(0) += 1;
            *per_dbms
                .entry(country.clone())
                .or_default()
                .entry(event.honeypot.dbms)
                .or_insert(0) += 1;
            login_ips
                .entry(country)
                .or_default()
                .insert(view.src(event));
        }
    }
    let mut rows: Vec<CountryLoginRow> = all_ips
        .iter()
        .map(|(country, ips)| CountryLoginRow {
            country: country.clone(),
            logins: logins.get(country).copied().unwrap_or(0),
            ips_with_logins: login_ips.get(country).map(BTreeSet::len).unwrap_or(0),
            ips_total: ips.len(),
            per_dbms: per_dbms.get(country).cloned().unwrap_or_default(),
        })
        .collect();
    rows.sort_by(|a, b| {
        b.logins
            .cmp(&a.logins)
            .then_with(|| a.country.cmp(&b.country))
    });
    rows
}

fn naive_asn_table(view: FrameView<'_>) -> Vec<AsnRow> {
    let mut ips: HashMap<u32, BTreeSet<IpAddr>> = HashMap::new();
    let mut names: HashMap<u32, String> = HashMap::new();
    let mut logins: HashMap<u32, u64> = HashMap::new();
    let mut per_dbms: HashMap<u32, BTreeMap<Dbms, u64>> = HashMap::new();
    for event in view.events() {
        let meta = view.meta(view.src(event));
        let asn = meta.map(|m| m.asn).unwrap_or(0);
        if let Some(meta) = meta {
            names.entry(asn).or_insert_with(|| meta.as_name.clone());
        }
        ips.entry(asn).or_default().insert(view.src(event));
        if is_login(&event.kind) {
            *logins.entry(asn).or_insert(0) += 1;
            *per_dbms
                .entry(asn)
                .or_default()
                .entry(event.honeypot.dbms)
                .or_insert(0) += 1;
        }
    }
    let total_ips: usize = ips.values().map(BTreeSet::len).sum();
    let mut rows: Vec<AsnRow> = ips
        .iter()
        .map(|(&asn, set)| AsnRow {
            asn,
            name: names.get(&asn).cloned().unwrap_or_default(),
            ips: set.len(),
            share: set.len() as f64 / total_ips.max(1) as f64,
            logins: logins.get(&asn).copied().unwrap_or(0),
            per_dbms: per_dbms.get(&asn).cloned().unwrap_or_default(),
        })
        .collect();
    rows.sort_by(|a, b| b.ips.cmp(&a.ips).then_with(|| a.asn.cmp(&b.asn)));
    rows
}

fn naive_login_ips(view: FrameView<'_>) -> BTreeSet<IpAddr> {
    view.events()
        .filter(|e| is_login(&e.kind))
        .map(|e| view.src(e))
        .collect()
}

fn naive_astype_login_ips(view: FrameView<'_>) -> BTreeMap<AsType, usize> {
    let mut per_type: BTreeMap<AsType, BTreeSet<IpAddr>> = BTreeMap::new();
    for ip in naive_login_ips(view) {
        let as_type = view.meta(ip).map(|m| m.as_type).unwrap_or(AsType::Unknown);
        per_type.entry(as_type).or_default().insert(ip);
    }
    per_type.into_iter().map(|(t, s)| (t, s.len())).collect()
}

fn naive_top_credentials(view: FrameView<'_>, dbms: Dbms, k: usize) -> CredentialStats {
    let mut users: HashMap<String, u64> = HashMap::new();
    let mut passwords: HashMap<String, u64> = HashMap::new();
    let mut combos: BTreeSet<(String, String)> = BTreeSet::new();
    for event in view.events_of(Some(dbms)) {
        if let FrameKindRef::LoginAttempt {
            username, password, ..
        } = view.kind(event)
        {
            *users.entry(username.to_string()).or_insert(0) += 1;
            *passwords.entry(password.to_string()).or_insert(0) += 1;
            combos.insert((username.to_string(), password.to_string()));
        }
    }
    let top = |map: &HashMap<String, u64>| {
        let mut v: Vec<(String, u64)> = map.iter().map(|(s, &n)| (s.clone(), n)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v.truncate(k);
        v
    };
    CredentialStats {
        top_usernames: top(&users),
        top_passwords: top(&passwords),
        unique_combinations: combos.len(),
        unique_usernames: users.len(),
        unique_passwords: passwords.len(),
    }
}

fn naive_bruteforce_summary(view: FrameView<'_>) -> BruteforceSummary {
    let mut summary = BruteforceSummary::default();
    for event in view.events().filter(|e| is_login(&e.kind)) {
        summary.total_logins += 1;
        *summary.per_dbms.entry(event.honeypot.dbms).or_insert(0) += 1;
    }
    summary.clients = naive_login_ips(view).len();
    summary.avg_attempts_per_client = if summary.clients == 0 {
        0.0
    } else {
        summary.total_logins as f64 / summary.clients as f64
    };
    summary
}

fn naive_control_group_summary(view: FrameView<'_>) -> ControlGroupSummary {
    let mut single: BTreeSet<IpAddr> = BTreeSet::new();
    let mut multi: BTreeSet<IpAddr> = BTreeSet::new();
    let mut brute_single: BTreeSet<IpAddr> = BTreeSet::new();
    let mut brute_multi: BTreeSet<IpAddr> = BTreeSet::new();
    for event in view.events() {
        let (seen, brute) = match event.honeypot.config {
            ConfigVariant::SingleService => (&mut single, &mut brute_single),
            ConfigVariant::MultiService => (&mut multi, &mut brute_multi),
            _ => continue,
        };
        seen.insert(view.src(event));
        if is_login(&event.kind) {
            brute.insert(view.src(event));
        }
    }
    ControlGroupSummary {
        single_ips: single.len(),
        multi_ips: multi.len(),
        overlap: single.intersection(&multi).count(),
        brute_single_only: brute_single.difference(&brute_multi).count(),
        brute_multi_only: brute_multi.difference(&brute_single).count(),
    }
}

fn naive_scanning_summary(view: FrameView<'_>) -> ScanningSummary {
    let sources: BTreeSet<IpAddr> = view.events().map(|e| view.src(e)).collect();
    let mut per_country: HashMap<String, usize> = HashMap::new();
    let mut institutional_ips = 0;
    for &src in &sources {
        *per_country
            .entry(view.country(src).to_string())
            .or_insert(0) += 1;
        if view.meta(src).is_some_and(|m| m.institutional) {
            institutional_ips += 1;
        }
    }
    let mut country_counts: Vec<(String, usize)> = per_country.into_iter().collect();
    country_counts.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    ScanningSummary {
        unique_ips: sources.len(),
        institutional_ips,
        country_counts,
    }
}

fn naive_retention_days(
    view: FrameView<'_>,
    dbms: Option<Dbms>,
    origin: Timestamp,
) -> BTreeMap<IpAddr, usize> {
    let mut days: BTreeMap<IpAddr, BTreeSet<u64>> = BTreeMap::new();
    for event in view.events_of(dbms) {
        days.entry(view.src(event))
            .or_default()
            .insert(event.ts.days_since(origin));
    }
    days.into_iter().map(|(ip, d)| (ip, d.len())).collect()
}

fn naive_hourly_series(
    view: FrameView<'_>,
    dbms: Option<Dbms>,
    origin: Timestamp,
    hours: usize,
) -> Vec<HourBucket> {
    let mut per_hour: Vec<BTreeSet<IpAddr>> = vec![BTreeSet::new(); hours];
    for event in view.events_of(dbms) {
        let hour = event.ts.hours_since(origin) as usize;
        if event.ts >= origin && hour < hours {
            per_hour[hour].insert(view.src(event));
        }
    }
    let mut seen: BTreeSet<IpAddr> = BTreeSet::new();
    per_hour
        .into_iter()
        .map(|ips| {
            let new_clients = ips.iter().filter(|&&ip| seen.insert(ip)).count();
            HourBucket {
                unique_clients: ips.len(),
                new_clients,
                cumulative_clients: seen.len(),
            }
        })
        .collect()
}

/// Table 10 as a per-address fold over one classification per family.
fn naive_exploit_countries(view: FrameView<'_>) -> Vec<ExploitCountryRow> {
    let mut per_country: BTreeMap<String, BTreeSet<IpAddr>> = BTreeMap::new();
    let mut per_pair: BTreeMap<(String, Dbms), BTreeSet<IpAddr>> = BTreeMap::new();
    for dbms in CLUSTERED {
        for (src, profile) in classify_sources(view, Some(dbms)) {
            if profile.exploiting {
                let country = view.country(src).to_string();
                per_country.entry(country.clone()).or_default().insert(src);
                per_pair.entry((country, dbms)).or_default().insert(src);
            }
        }
    }
    let mut rows: Vec<ExploitCountryRow> = per_country
        .iter()
        .map(|(country, ips)| ExploitCountryRow {
            country: country.clone(),
            ips: ips.len(),
            per_dbms: CLUSTERED
                .iter()
                .map(|&d| {
                    let pair = per_pair.get(&(country.clone(), d));
                    (d, pair.map_or(0, BTreeSet::len))
                })
                .collect(),
        })
        .collect();
    rows.sort_by(|a, b| b.ips.cmp(&a.ips).then_with(|| a.country.cmp(&b.country)));
    rows
}

/// Each source's profile merged over the clustered families, by address.
fn naive_clustered_profiles(view: FrameView<'_>) -> BTreeMap<IpAddr, BehaviorProfile> {
    let mut merged: BTreeMap<IpAddr, BehaviorProfile> = BTreeMap::new();
    for dbms in CLUSTERED {
        for (src, profile) in classify_sources(view, Some(dbms)) {
            merged.entry(src).or_default().merge(profile);
        }
    }
    merged
}

/// Table 11 as a per-address fold.
fn naive_astype_behavior(view: FrameView<'_>) -> BTreeMap<AsType, BTreeMap<Behavior, usize>> {
    let mut out: BTreeMap<AsType, BTreeMap<Behavior, usize>> = BTreeMap::new();
    for (src, profile) in naive_clustered_profiles(view) {
        let as_type = view.meta(src).map_or(AsType::Unknown, |m| m.as_type);
        *out.entry(as_type)
            .or_default()
            .entry(profile.primary())
            .or_insert(0) += 1;
    }
    out
}

// ---------------------------------------------------------------------------
// The checks
// ---------------------------------------------------------------------------

/// Assert the fixture reaches every case the flat arrays must handle.
fn assert_coverage(frame: &AnalysisFrame) {
    let low = frame.view(Partition::Low);
    let low_ips: BTreeSet<IpAddr> = low.events().map(|e| low.src(e)).collect();
    let mh = frame.view(Partition::MedHigh);
    let mh_ips: BTreeSet<IpAddr> = mh.events().map(|e| mh.src(e)).collect();
    assert!(low_ips.len() > 64, "{} low sources", low_ips.len());
    assert!(
        mh_ips.difference(&low_ips).count() > 0,
        "med/high-only sources"
    );
    assert!(low_ips.difference(&mh_ips).count() > 0, "low-only sources");
    assert!(low_ips.iter().any(|ip| match ip {
        IpAddr::V6(v6) => v6
            .to_ipv4_mapped()
            .is_some_and(|v4| low_ips.contains(&IpAddr::V4(v4))),
        IpAddr::V4(_) => false,
    }));
    let events = frame.events();
    assert!(events.iter().any(|e| e.ts < EXPERIMENT_START));
    assert!(events
        .iter()
        .any(|e| e.ts.days_since(EXPERIMENT_START) >= 64));
    assert!(events.iter().any(|e| {
        let hour = e.ts.hours_since(EXPERIMENT_START);
        (480..64 * 24).contains(&hour)
    }));
    let dbms: BTreeSet<Dbms> = events.iter().map(|e| e.honeypot.dbms).collect();
    assert_eq!(dbms.len(), Dbms::all().len());
    let configs: BTreeSet<ConfigVariant> = events.iter().map(|e| e.honeypot.config).collect();
    assert_eq!(configs.len(), CONFIGS.len());
}

/// Every rewritten aggregation equals its naive fold, on every partition.
fn assert_matches_naive(frame: &AnalysisFrame) {
    for partition in [Partition::All, Partition::Low, Partition::MedHigh] {
        let view = frame.view(partition);
        let at = format!("{partition:?}");
        assert_eq!(
            logins_by_country(view),
            naive_logins_by_country(view),
            "{at}"
        );
        assert_eq!(asn_table(view), naive_asn_table(view), "{at}");
        assert_eq!(astype_login_ips(view), naive_astype_login_ips(view), "{at}");
        let login_ips: BTreeSet<IpAddr> = tables::login_sources(view)
            .into_iter()
            .zip(frame.sources())
            .filter_map(|(logged_in, &ip)| logged_in.then_some(ip))
            .collect();
        assert_eq!(login_ips, naive_login_ips(view), "{at}");
        assert_eq!(
            bruteforce_summary(view),
            naive_bruteforce_summary(view),
            "{at}"
        );
        assert_eq!(scanning_summary(view), naive_scanning_summary(view), "{at}");
        assert_eq!(
            control_group_summary(view),
            naive_control_group_summary(view),
            "{at}"
        );
        for dbms in Dbms::all() {
            for k in [2, usize::MAX] {
                assert_eq!(
                    top_credentials(view, dbms, k),
                    naive_top_credentials(view, dbms, k),
                    "{at} {dbms:?} top {k}"
                );
            }
        }
        let retention = retention_days(view, EXPERIMENT_START);
        let panels = std::iter::once(None).chain(Dbms::all().map(Some));
        assert!(retention.keys().copied().eq(panels.clone()), "{at}");
        for dbms in panels.clone() {
            let naive = naive_retention_days(view, dbms, EXPERIMENT_START);
            assert_eq!(retention[&dbms], naive, "{at} {dbms:?}");
        }
        for hours in [480, 37] {
            let series = hourly_series(view, EXPERIMENT_START, hours);
            assert!(series.keys().copied().eq(panels.clone()), "{at}");
            for dbms in panels.clone() {
                let naive = naive_hourly_series(view, dbms, EXPERIMENT_START, hours);
                assert_eq!(series[&dbms].buckets, naive, "{at} {dbms:?} {hours}h");
                assert_eq!(series[&dbms].origin, EXPERIMENT_START);
            }
        }
    }
}

/// The behavior table equals the per-address reference folds, on every
/// partition: profiles per family and merged, tags, the plain Ward cut, the
/// refined cluster count, and Tables 10 and 11.
fn assert_behavior_matches_reference(frame: &AnalysisFrame) {
    for partition in [Partition::All, Partition::Low, Partition::MedHigh] {
        let view = frame.view(partition);
        let at = format!("{partition:?}");
        let table = BehaviorTable::build(view, &CLUSTERED, CUT);
        for dbms in std::iter::once(None).chain(Dbms::all().map(Some)) {
            let reference = classify_sources(view, dbms);
            assert_eq!(table.profiles(dbms), reference, "{at} {dbms:?}");
        }
        let clustered: BTreeMap<IpAddr, BehaviorProfile> = table
            .ids()
            .filter_map(|id| Some((frame.sources()[id as usize], table.clustered_profile(id)?)))
            .collect();
        assert_eq!(clustered, naive_clustered_profiles(view), "{at}");
        let families: Vec<Dbms> = table.families().iter().map(|f| f.dbms).collect();
        assert_eq!(families, CLUSTERED, "{at}");
        for family in table.families() {
            let dbms = Some(family.dbms);
            assert_eq!(family.tags, tag_sources(view, dbms), "{at} {dbms:?}");
            let mut reference = cluster_sources(view, dbms, CUT);
            assert_eq!(
                family.clusters.assignments, reference.assignments,
                "{at} {dbms:?}"
            );
            assert_eq!(family.clusters.num_clusters, reference.num_clusters);
            refine_by_behavior(&mut reference, &classify_sources(view, dbms));
            assert_eq!(
                family.refined_clusters, reference.num_clusters,
                "{at} {dbms:?}"
            );
        }
        assert_eq!(
            exploit_countries(&table),
            naive_exploit_countries(view),
            "{at}"
        );
        assert_eq!(astype_behavior(&table), naive_astype_behavior(view), "{at}");
    }
}

/// Assert the fixture reaches every case the behavior table must handle.
fn assert_behavior_coverage(frame: &AnalysisFrame) {
    let table = BehaviorTable::build(frame.view(Partition::MedHigh), &CLUSTERED, CUT);
    let tags: BTreeSet<CampaignTag> = table
        .families()
        .iter()
        .flat_map(|f| f.tags.values().flatten().copied())
        .collect();
    for tag in [
        CampaignTag::P2pInfect,
        CampaignTag::Kinsing,
        CampaignTag::PrivilegeManipulation,
        CampaignTag::MongoRansom,
        CampaignTag::BruteForce,
        CampaignTag::RdpScan,
        CampaignTag::JdwpScan,
    ] {
        assert!(tags.contains(&tag), "no {tag:?} source");
    }
    assert!(
        table
            .families()
            .iter()
            .any(|f| f.refined_clusters != f.clusters.num_clusters),
        "the manual-review pass split no cluster"
    );
    // sources that retried a credential pair on one family
    let mh = frame.view(Partition::MedHigh);
    let retried = CLUSTERED.iter().any(|&dbms| {
        let activity = collect_activity(mh, Some(dbms));
        activity
            .values()
            .any(|a| a.distinct_credentials > 0 && a.login_attempts > a.distinct_credentials)
    });
    assert!(retried, "no repeated-login source");
}

#[test]
fn behavior_table_matches_reference_folds() {
    let events = events(20240322);
    let batch = batch_frame(&events);
    assert_behavior_coverage(&batch);
    assert_behavior_matches_reference(&batch);
    assert_behavior_matches_reference(&merged_frame(&events));
}

#[test]
fn source_id_aggregations_match_naive_folds() {
    let events = events(20240322);
    let batch = batch_frame(&events);
    assert_coverage(&batch);
    assert_matches_naive(&batch);

    let merged = merged_frame(&events);
    // the premise of the merged run: the partials number an equal
    // credential string differently, so the merge rewrites their ids
    let usernames: BTreeSet<&str> = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::LoginAttempt { username, .. } => Some(username.as_str()),
            _ => None,
        })
        .collect();
    let parts = partials(&events);
    assert!(usernames.iter().any(|u| {
        let mut syms = parts.iter().filter_map(|p| p.symbol(u));
        syms.next()
            .is_some_and(|first| syms.any(|other| other != first))
    }));
    assert_matches_naive(&merged);
    assert_eq!(merged, batch);
}
