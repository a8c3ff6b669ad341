//! Forensics walk-through: run the MongoDB ransom kill chain (§6.3,
//! Listings 7–8) against a high-interaction honeypot with bait customer
//! data, then reconstruct the attack from the standardized logs — the
//! paper's classify → cluster → tag pipeline on a single campaign.
//!
//! Run: `cargo run --manifest-path net/Cargo.toml --example attack_forensics`

use decoy_agents::actors::TargetSelector;
use decoy_agents::schedule::PlannedSession;
use decoy_agents::scripts::SessionScript;
use decoy_analysis::classify::classify_sources;
use decoy_analysis::cluster::cluster_sources;
use decoy_analysis::frame::{AnalysisFrame, Partition};
use decoy_analysis::tagging::tag_sources;
use decoy_base::time::{Clock, EXPERIMENT_START, MILLIS_PER_DAY};
use decoy_fleet::deploy::Shell;
use decoy_fleet::driver::run_session;
use decoy_geo::GeoDb;
use decoy_honeypots::docdb::DocDb;
use decoy_honeypots::mongo_high::MongoHoneypot;
use decoy_net::server::{Listener, ListenerOptions};
use decoy_store::{ConfigVariant, Dbms, EventKind, EventStore, HoneypotId, InteractionLevel};
use decoy_wire::mongo::bson::Document;
use std::sync::Arc;

#[tokio::main]
async fn main() -> std::io::Result<()> {
    let store = EventStore::new();
    let id = HoneypotId::new(
        Dbms::MongoDb,
        InteractionLevel::High,
        ConfigVariant::FakeData,
        0,
    );
    // keep a handle on the engine so we can inspect the damage afterwards
    let honeypot = MongoHoneypot::with_fake_customers(99, 50);
    let engine: Arc<DocDb> = honeypot.db().clone();
    let clock = Clock::simulated();
    let server = Listener::bind(
        "127.0.0.1:0".parse().expect("loopback"),
        Shell::new(store.clone(), id, honeypot),
        ListenerOptions {
            max_sessions: 64,
            clock: clock.clone(),
            ..ListenerOptions::default()
        },
    )
    .await?;
    println!(
        "bait: {} customer records in {:?}",
        engine.total_documents(),
        engine.list_databases()
    );

    // Two ransom groups return over several (virtual) days, like the
    // paper's automated scripts that replace each other's notes.
    for (day, group, src) in [
        (0u64, 0u8, "60.21.0.66"),
        (2, 1, "60.3.0.99"),
        (5, 0, "60.21.0.66"),
    ] {
        clock
            .sim()
            .expect("simulated clock")
            .advance_to(EXPERIMENT_START.add_millis(day * MILLIS_PER_DAY));
        let session = PlannedSession {
            ts: EXPERIMENT_START.add_millis(day * MILLIS_PER_DAY),
            actor_idx: 0,
            src: src.parse().expect("ipv4"),
            target: TargetSelector::high_mongo(),
            script: SessionScript::MongoRansom { group },
        };
        let outcome = run_session(server.local_addr(), &session).await;
        println!(
            "day {day}: ransom group {group} from {src} ({} errors)",
            outcome.errors
        );
    }
    tokio::time::sleep(std::time::Duration::from_millis(200)).await;
    server.shutdown().await;

    // Damage report from the real engine.
    println!("\npost-attack database state:");
    for db in engine.list_databases() {
        for coll in engine.list_collections(&db) {
            let docs = engine.find(&db, &coll, &Document::new(), 1);
            println!(
                "  {db}.{coll}: {} docs",
                engine.count(&db, &coll, &Document::new())
            );
            if let Some(note) = docs.first().and_then(|d| d.get_str("content")) {
                println!("    note: {}", &note[..note.len().min(90)]);
            }
        }
    }

    // The pipeline's view.
    println!("\npipeline reconstruction:");
    let frame = AnalysisFrame::build(&store, &GeoDb::builtin());
    let all = frame.view(Partition::All);
    let profiles = classify_sources(all, Some(Dbms::MongoDb));
    let tags = tag_sources(all, Some(Dbms::MongoDb));
    let clusters = cluster_sources(all, Some(Dbms::MongoDb), 0.05);
    println!(
        "  {} sources, {} clusters",
        profiles.len(),
        clusters.num_clusters
    );
    for (src, profile) in &profiles {
        let tag_labels: Vec<&str> = tags
            .get(src)
            .map(|t| t.iter().map(|t| t.label()).collect())
            .unwrap_or_default();
        println!(
            "  {src}: {} | cluster {} | tags [{}]",
            profile.primary().label(),
            clusters.assignments[src],
            tag_labels.join(", ")
        );
    }
    let commands = store.filter(|e| matches!(e.kind, EventKind::Command { .. }));
    println!("  {} commands captured across the campaign", commands.len());

    // Appendix-E-style listing of the repeat offender's sessions
    println!(
        "
reconstructed listing for 60.21.0.66:"
    );
    print!(
        "{}",
        decoy_analysis::forensics::render_listing(
            &store,
            "60.21.0.66".parse().expect("ip"),
            Some(Dbms::MongoDb),
        )
    );
    Ok(())
}
