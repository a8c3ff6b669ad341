//! Campaign end-to-end tests: every Table 9 attack, executed over real TCP
//! against the corresponding honeypot, must come out the other end of the
//! pipeline with the right classification and campaign tag — the listings
//! of the paper reproduced as living integration tests.

use decoy_agents::actors::TargetSelector;
use decoy_agents::schedule::PlannedSession;
use decoy_agents::scripts::SessionScript;
use decoy_analysis::classify::{classify_sources, Behavior};
use decoy_analysis::frame::{AnalysisFrame, Partition};
use decoy_analysis::tagging::{tag_sources, AttackCategory, CampaignTag};
use decoy_base::time::{Clock, EXPERIMENT_START};
use decoy_core::deployment::instance_seed;
use decoy_fleet::deploy::{spawn, HoneypotSpec};
use decoy_fleet::driver::run_session;
use decoy_geo::GeoDb;
use decoy_store::{ConfigVariant, Dbms, EventStore, HoneypotId, InteractionLevel};
use std::net::{IpAddr, Ipv4Addr};
use std::sync::Arc;

/// Run one scripted attack over TCP, returning the log and the source.
async fn attack(
    dbms: Dbms,
    level: InteractionLevel,
    config: ConfigVariant,
    script: SessionScript,
) -> (Arc<EventStore>, IpAddr) {
    let store = EventStore::new();
    let id = HoneypotId::new(dbms, level, config, 0);
    let hp = spawn(
        store.clone(),
        HoneypotSpec::loopback(id, Clock::simulated(), instance_seed(5, id)),
    )
    .await
    .expect("spawn honeypot");
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
    let outcome = run_session(hp.addr(), &session).await;
    assert_eq!(outcome.errors, 0, "campaign errored against {dbms:?}");
    tokio::time::sleep(std::time::Duration::from_millis(150)).await;
    hp.shutdown().await;
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

#[tokio::test]
async fn listing1_p2pinfect() {
    let (store, src) = attack(
        Dbms::Redis,
        InteractionLevel::Medium,
        ConfigVariant::Default,
        SessionScript::P2pInfect,
    )
    .await;
    assert_verdict(
        &store,
        src,
        Behavior::Exploiting,
        CampaignTag::P2pInfect,
        AttackCategory::AttackOnSystem,
    );
}

#[tokio::test]
async fn listing2_abcbot() {
    let (store, src) = attack(
        Dbms::Redis,
        InteractionLevel::Medium,
        ConfigVariant::Default,
        SessionScript::AbcBot,
    )
    .await;
    assert_verdict(
        &store,
        src,
        Behavior::Exploiting,
        CampaignTag::AbcBot,
        AttackCategory::AttackOnSystem,
    );
}

#[tokio::test]
async fn listing3_redis_cve_2022_0543() {
    let (store, src) = attack(
        Dbms::Redis,
        InteractionLevel::Medium,
        ConfigVariant::Default,
        SessionScript::RedisCve20220543,
    )
    .await;
    assert_verdict(
        &store,
        src,
        Behavior::Exploiting,
        CampaignTag::RedisCve20220543,
        AttackCategory::AttackOnSystem,
    );
}

#[tokio::test]
async fn listing4_kinsing() {
    let (store, src) = attack(
        Dbms::Postgres,
        InteractionLevel::Medium,
        ConfigVariant::Default,
        SessionScript::Kinsing,
    )
    .await;
    assert_verdict(
        &store,
        src,
        Behavior::Exploiting,
        CampaignTag::Kinsing,
        AttackCategory::AttackOnSystem,
    );
}

#[tokio::test]
async fn listings5_6_lucifer() {
    let (store, src) = attack(
        Dbms::Elastic,
        InteractionLevel::Medium,
        ConfigVariant::Default,
        SessionScript::Lucifer,
    )
    .await;
    assert_verdict(
        &store,
        src,
        Behavior::Exploiting,
        CampaignTag::Lucifer,
        AttackCategory::AttackOnSystem,
    );
}

#[tokio::test]
async fn listings7_8_mongo_ransom_both_groups() {
    for group in [0u8, 1] {
        let (store, src) = attack(
            Dbms::MongoDb,
            InteractionLevel::High,
            ConfigVariant::FakeData,
            SessionScript::MongoRansom { group },
        )
        .await;
        assert_verdict(
            &store,
            src,
            Behavior::Exploiting,
            CampaignTag::MongoRansom,
            AttackCategory::AttackOnData,
        );
    }
}

#[tokio::test]
async fn listing10_rdp_scan_is_scouting_not_exploiting() {
    for (dbms, level) in [
        (Dbms::Redis, InteractionLevel::Medium),
        (Dbms::Postgres, InteractionLevel::Medium),
    ] {
        let (store, src) =
            attack(dbms, level, ConfigVariant::Default, SessionScript::RdpProbe).await;
        assert_verdict(
            &store,
            src,
            Behavior::Scouting,
            CampaignTag::RdpScan,
            AttackCategory::UnrelatedServiceScan,
        );
    }
}

#[tokio::test]
async fn listing11_jdwp_scan() {
    let (store, src) = attack(
        Dbms::Redis,
        InteractionLevel::Medium,
        ConfigVariant::Default,
        SessionScript::JdwpProbe,
    )
    .await;
    assert_verdict(
        &store,
        src,
        Behavior::Scouting,
        CampaignTag::JdwpScan,
        AttackCategory::UnrelatedServiceScan,
    );
}

#[tokio::test]
async fn listing12_vmware_recon() {
    let (store, src) = attack(
        Dbms::Elastic,
        InteractionLevel::Medium,
        ConfigVariant::Default,
        SessionScript::VmwareRecon,
    )
    .await;
    let frame = AnalysisFrame::build(&store, &GeoDb::builtin());
    let tags = tag_sources(frame.view(Partition::All), None);
    assert!(tags[&src].contains(&CampaignTag::VmwareRecon));
}

#[tokio::test]
async fn listing13_privilege_manipulation() {
    let (store, src) = attack(
        Dbms::Postgres,
        InteractionLevel::Medium,
        ConfigVariant::Default,
        SessionScript::PgPrivilege,
    )
    .await;
    assert_verdict(
        &store,
        src,
        Behavior::Exploiting,
        CampaignTag::PrivilegeManipulation,
        AttackCategory::AttackOnDbms,
    );
}

#[tokio::test]
async fn listing14_craftcms_probe() {
    let (store, src) = attack(
        Dbms::Elastic,
        InteractionLevel::Medium,
        ConfigVariant::Default,
        SessionScript::CraftCms,
    )
    .await;
    let frame = AnalysisFrame::build(&store, &GeoDb::builtin());
    let tags = tag_sources(frame.view(Partition::All), None);
    assert!(tags[&src].contains(&CampaignTag::CraftCmsProbe));
    assert_eq!(
        CampaignTag::CraftCmsProbe.category(),
        AttackCategory::UnrelatedServiceScan
    );
}

#[tokio::test]
async fn bruteforce_tagging_from_mssql_burst() {
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
    )
    .await;
    assert_verdict(
        &store,
        src,
        Behavior::Scouting,
        CampaignTag::BruteForce,
        AttackCategory::AttackOnDbms,
    );
}

#[tokio::test]
async fn pure_scanner_stays_a_scanner() {
    let (store, src) = attack(
        Dbms::Mssql,
        InteractionLevel::Low,
        ConfigVariant::MultiService,
        SessionScript::ConnectOnly,
    )
    .await;
    let frame = AnalysisFrame::build(&store, &GeoDb::builtin());
    let profiles = classify_sources(frame.view(Partition::All), None);
    assert_eq!(profiles[&src].primary(), Behavior::Scanning);
    assert!(!tag_sources(frame.view(Partition::All), None).contains_key(&src));
}
