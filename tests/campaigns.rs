//! Campaign end-to-end tests: every Table 9 attack, run by the attack
//! client against the corresponding honeypot's session machine in memory,
//! must come out the other end of the pipeline with the right
//! classification and campaign tag — the listings of the paper reproduced
//! as living integration tests.

use decoy_databases::agents::actors::TargetSelector;
use decoy_databases::agents::client;
use decoy_databases::agents::schedule::PlannedSession;
use decoy_databases::agents::scripts::SessionScript;
use decoy_databases::analysis::classify::{classify_sources, Behavior};
use decoy_databases::analysis::frame::{AnalysisFrame, Partition};
use decoy_databases::analysis::tagging::{tag_sources, AttackCategory, CampaignTag};
use decoy_databases::base::time::{Clock, EXPERIMENT_START};
use decoy_databases::core::deployment::instance_seed;
use decoy_databases::geo::GeoDb;
use decoy_databases::store::{ConfigVariant, Dbms, EventStore, HoneypotId, InteractionLevel};
use decoy_honeypots::driver::{poll_once, Memory};
use std::net::{IpAddr, Ipv4Addr};
use std::sync::Arc;

/// Run one scripted attack, returning the log and the source.
fn attack(
    dbms: Dbms,
    level: InteractionLevel,
    config: ConfigVariant,
    script: SessionScript,
) -> (Arc<EventStore>, IpAddr) {
    let store = EventStore::new();
    let id = HoneypotId::new(dbms, level, config, 0);
    let seed = instance_seed(5, id);
    let mut honeypot = Memory::deploy(&store, id, seed, Clock::simulated()).expect("deploy");
    let src = Ipv4Addr::new(60, 9, 1, 23);
    let session = PlannedSession {
        ts: EXPERIMENT_START,
        actor_idx: 0,
        src,
        target: TargetSelector {
            dbms,
            level,
            config: Some(config),
        },
        script,
    };
    let outcome = poll_once(client::run(honeypot.with_source(IpAddr::V4(src)), &session));
    let outcome = outcome.expect("an in-memory visit never waits");
    assert_eq!(outcome.errors, 0, "campaign errored against {dbms:?}");
    (store, IpAddr::V4(src))
}

/// Assert the pipeline verdict for the source.
fn assert_verdict(
    store: &Arc<EventStore>,
    src: IpAddr,
    behavior: Behavior,
    tag: CampaignTag,
    category: AttackCategory,
) {
    let frame = AnalysisFrame::build(store, &GeoDb::builtin());
    let profiles = classify_sources(frame.view(Partition::All), None);
    assert_eq!(
        profiles[&src].primary(),
        behavior,
        "classification for {tag:?}"
    );
    let tags = tag_sources(frame.view(Partition::All), None);
    assert!(
        tags.get(&src).map(|t| t.contains(&tag)).unwrap_or(false),
        "missing tag {tag:?}: got {:?}",
        tags.get(&src)
    );
    assert_eq!(tag.category(), category);
}

#[test]
fn listing1_p2pinfect() {
    let (store, src) = attack(
        Dbms::Redis,
        InteractionLevel::Medium,
        ConfigVariant::Default,
        SessionScript::P2pInfect,
    );
    assert_verdict(
        &store,
        src,
        Behavior::Exploiting,
        CampaignTag::P2pInfect,
        AttackCategory::AttackOnSystem,
    );
}

#[test]
fn listing2_abcbot() {
    let (store, src) = attack(
        Dbms::Redis,
        InteractionLevel::Medium,
        ConfigVariant::Default,
        SessionScript::AbcBot,
    );
    assert_verdict(
        &store,
        src,
        Behavior::Exploiting,
        CampaignTag::AbcBot,
        AttackCategory::AttackOnSystem,
    );
}

#[test]
fn listing3_redis_cve_2022_0543() {
    let (store, src) = attack(
        Dbms::Redis,
        InteractionLevel::Medium,
        ConfigVariant::Default,
        SessionScript::RedisCve20220543,
    );
    assert_verdict(
        &store,
        src,
        Behavior::Exploiting,
        CampaignTag::RedisCve20220543,
        AttackCategory::AttackOnSystem,
    );
}

#[test]
fn listing4_kinsing() {
    let (store, src) = attack(
        Dbms::Postgres,
        InteractionLevel::Medium,
        ConfigVariant::Default,
        SessionScript::Kinsing,
    );
    assert_verdict(
        &store,
        src,
        Behavior::Exploiting,
        CampaignTag::Kinsing,
        AttackCategory::AttackOnSystem,
    );
}

#[test]
fn listings5_6_lucifer() {
    let (store, src) = attack(
        Dbms::Elastic,
        InteractionLevel::Medium,
        ConfigVariant::Default,
        SessionScript::Lucifer,
    );
    assert_verdict(
        &store,
        src,
        Behavior::Exploiting,
        CampaignTag::Lucifer,
        AttackCategory::AttackOnSystem,
    );
}

#[test]
fn listings7_8_mongo_ransom_both_groups() {
    for group in [0u8, 1] {
        let (store, src) = attack(
            Dbms::MongoDb,
            InteractionLevel::High,
            ConfigVariant::FakeData,
            SessionScript::MongoRansom { group },
        );
        assert_verdict(
            &store,
            src,
            Behavior::Exploiting,
            CampaignTag::MongoRansom,
            AttackCategory::AttackOnData,
        );
    }
}

#[test]
fn listing10_rdp_scan_is_scouting_not_exploiting() {
    for (dbms, level) in [
        (Dbms::Redis, InteractionLevel::Medium),
        (Dbms::Postgres, InteractionLevel::Medium),
    ] {
        let (store, src) = attack(dbms, level, ConfigVariant::Default, SessionScript::RdpProbe);
        assert_verdict(
            &store,
            src,
            Behavior::Scouting,
            CampaignTag::RdpScan,
            AttackCategory::UnrelatedServiceScan,
        );
    }
}

#[test]
fn listing11_jdwp_scan() {
    let (store, src) = attack(
        Dbms::Redis,
        InteractionLevel::Medium,
        ConfigVariant::Default,
        SessionScript::JdwpProbe,
    );
    assert_verdict(
        &store,
        src,
        Behavior::Scouting,
        CampaignTag::JdwpScan,
        AttackCategory::UnrelatedServiceScan,
    );
}

#[test]
fn listing12_vmware_recon() {
    let (store, src) = attack(
        Dbms::Elastic,
        InteractionLevel::Medium,
        ConfigVariant::Default,
        SessionScript::VmwareRecon,
    );
    let frame = AnalysisFrame::build(&store, &GeoDb::builtin());
    let tags = tag_sources(frame.view(Partition::All), None);
    assert!(tags[&src].contains(&CampaignTag::VmwareRecon));
}

#[test]
fn listing13_privilege_manipulation() {
    let (store, src) = attack(
        Dbms::Postgres,
        InteractionLevel::Medium,
        ConfigVariant::Default,
        SessionScript::PgPrivilege,
    );
    assert_verdict(
        &store,
        src,
        Behavior::Exploiting,
        CampaignTag::PrivilegeManipulation,
        AttackCategory::AttackOnDbms,
    );
}

#[test]
fn listing14_craftcms_probe() {
    let (store, src) = attack(
        Dbms::Elastic,
        InteractionLevel::Medium,
        ConfigVariant::Default,
        SessionScript::CraftCms,
    );
    let frame = AnalysisFrame::build(&store, &GeoDb::builtin());
    let tags = tag_sources(frame.view(Partition::All), None);
    assert!(tags[&src].contains(&CampaignTag::CraftCmsProbe));
    assert_eq!(
        CampaignTag::CraftCmsProbe.category(),
        AttackCategory::UnrelatedServiceScan
    );
}

#[test]
fn bruteforce_tagging_from_mssql_burst() {
    let creds: Vec<(String, String)> = vec![
        ("sa".into(), "123".into()),
        ("sa".into(), "123456".into()),
        ("admin".into(), "1234".into()),
    ];
    let (store, src) = attack(
        Dbms::Mssql,
        InteractionLevel::Low,
        ConfigVariant::MultiService,
        SessionScript::MssqlBrute { creds },
    );
    assert_verdict(
        &store,
        src,
        Behavior::Scouting,
        CampaignTag::BruteForce,
        AttackCategory::AttackOnDbms,
    );
}

#[test]
fn pure_scanner_stays_a_scanner() {
    let (store, src) = attack(
        Dbms::Mssql,
        InteractionLevel::Low,
        ConfigVariant::MultiService,
        SessionScript::ConnectOnly,
    );
    let frame = AnalysisFrame::build(&store, &GeoDb::builtin());
    let profiles = classify_sources(frame.view(Partition::All), None);
    assert_eq!(profiles[&src].primary(), Behavior::Scanning);
    assert!(!tag_sources(frame.view(Partition::All), None).contains_key(&src));
}
