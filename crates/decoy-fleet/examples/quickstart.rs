//! Quickstart: stand up one medium-interaction Redis honeypot, attack it
//! with the P2PInfect campaign script over real TCP, and inspect what the
//! honeypot logged.
//!
//! Run: `cargo run --manifest-path net/Cargo.toml --example quickstart`

use decoy_agents::actors::TargetSelector;
use decoy_agents::schedule::PlannedSession;
use decoy_agents::scripts::SessionScript;
use decoy_analysis::frame::{AnalysisFrame, Partition};
use decoy_base::time::{Clock, EXPERIMENT_START};
use decoy_core::deployment::instance_seed;
use decoy_fleet::deploy::{spawn, HoneypotSpec};
use decoy_fleet::driver::run_session;
use decoy_geo::GeoDb;
use decoy_store::{ConfigVariant, Dbms, EventKind, EventStore, HoneypotId, InteractionLevel};

#[tokio::main]
async fn main() -> std::io::Result<()> {
    // 1. One RedisHoneyPot-style instance on an OS-assigned loopback port.
    let store = EventStore::new();
    let id = HoneypotId::new(
        Dbms::Redis,
        InteractionLevel::Medium,
        ConfigVariant::Default,
        0,
    );
    let honeypot = spawn(
        store.clone(),
        HoneypotSpec::loopback(id, Clock::simulated(), instance_seed(1, id)),
    )
    .await?;
    println!("honeypot listening on {}", honeypot.addr());

    // 2. One attacker session: the P2PInfect worm of the paper's Listing 1,
    //    from a simulated source in Chinanet space.
    let session = PlannedSession {
        ts: EXPERIMENT_START,
        actor_idx: 0,
        src: "60.26.0.99".parse().expect("ipv4"),
        target: TargetSelector::medium(Dbms::Redis, None),
        script: SessionScript::P2pInfect,
    };
    let outcome = run_session(honeypot.addr(), &session).await;
    println!(
        "attack ran: {} connection(s), {} error(s)\n",
        outcome.connections, outcome.errors
    );
    tokio::time::sleep(std::time::Duration::from_millis(200)).await;
    honeypot.shutdown().await;

    // 3. What the honeypot saw (masked actions drive the clustering).
    println!("captured events:");
    for event in store.all() {
        match event.kind {
            EventKind::Connect => println!("  [{}] connect", event.src),
            EventKind::Disconnect => println!("  [{}] disconnect", event.src),
            EventKind::Command { action, .. } => println!("  [{}] {}", event.src, action),
            other => println!("  [{}] {:?}", event.src, other),
        }
    }

    // 4. The analysis pipeline classifies and tags the source.
    let frame = AnalysisFrame::build(&store, &GeoDb::builtin());
    let all = frame.view(Partition::All);
    let profiles = decoy_analysis::classify::classify_sources(all, None);
    let tags = decoy_analysis::tagging::tag_sources(all, None);
    for (src, profile) in profiles {
        let tag_labels: Vec<&str> = tags
            .get(&src)
            .map(|t| t.iter().map(|t| t.label()).collect())
            .unwrap_or_default();
        println!(
            "\nverdict for {src}: {} (tags: {})",
            profile.primary().label(),
            tag_labels.join(", ")
        );
    }
    Ok(())
}
