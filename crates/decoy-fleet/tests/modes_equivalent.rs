//! Network ≡ Direct equivalence: the substitution argument of DESIGN.md.
//!
//! The same `(seed, scale)` replayed over real TCP and via direct emission
//! must agree on every aggregate the paper's tables are built from:
//! per-family source sets, login attempt counts and credentials,
//! classification counts, and campaign tags.

use decoy_analysis::classify::{classify_sources, ClassCounts};
use decoy_analysis::frame::{AnalysisFrame, Partition};
use decoy_analysis::tagging::tag_sources;
use decoy_core::runner::{run_direct, ExperimentConfig};
use decoy_store::{Dbms, EventKind, EventStore};
use std::collections::BTreeMap;
use std::net::IpAddr;
use std::sync::Arc;

const SEED: u64 = 904;
const SCALE: f64 = 0.004;

fn login_counts(store: &Arc<EventStore>) -> BTreeMap<(IpAddr, Dbms), usize> {
    let mut out = BTreeMap::new();
    for e in store.all() {
        if matches!(e.kind, EventKind::LoginAttempt { .. }) {
            *out.entry((e.src, e.honeypot.dbms)).or_insert(0) += 1;
        }
    }
    out
}

fn credentials(store: &Arc<EventStore>) -> BTreeMap<IpAddr, Vec<(String, String)>> {
    let mut out: BTreeMap<IpAddr, Vec<(String, String)>> = BTreeMap::new();
    for e in store.all() {
        if let EventKind::LoginAttempt {
            username, password, ..
        } = e.kind
        {
            out.entry(e.src).or_default().push((username, password));
        }
    }
    for creds in out.values_mut() {
        creds.sort();
    }
    out
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn modes_equivalent() {
    let mut config = ExperimentConfig::direct(SEED, SCALE);
    config.deployment_scale = 0.05;

    let network = decoy_fleet::run(config.clone(), None)
        .await
        .expect("network run");
    let direct = run_direct(config).expect("direct run");
    assert_eq!(network.sessions, direct.sessions, "same schedule");
    assert_eq!(
        network.connections, direct.connections,
        "same connection count"
    );

    // identical source populations per family
    for dbms in Dbms::all() {
        let family_sources = |store: &EventStore| {
            let mut sources: Vec<IpAddr> = store.read(|log| {
                let family = log.iter().filter(|e| e.honeypot.dbms == dbms);
                family.map(|e| e.src).collect()
            });
            sources.sort();
            sources.dedup();
            sources
        };
        let net_sources = family_sources(&network.store);
        let dir_sources = family_sources(&direct.store);
        assert_eq!(
            net_sources,
            dir_sources,
            "source set mismatch for {}",
            dbms.label()
        );
    }

    // identical login volumes and captured credentials
    assert_eq!(login_counts(&network.store), login_counts(&direct.store));
    assert_eq!(credentials(&network.store), credentials(&direct.store));

    // identical behavior classification
    let network_frame = AnalysisFrame::build(&network.store, &network.geo);
    let direct_frame = AnalysisFrame::build(&direct.store, &direct.geo);
    let (net_view, dir_view) = (
        network_frame.view(Partition::All),
        direct_frame.view(Partition::All),
    );
    for dbms in Dbms::all() {
        let net = ClassCounts::from_profiles(classify_sources(net_view, Some(dbms)).values());
        let dir = ClassCounts::from_profiles(classify_sources(dir_view, Some(dbms)).values());
        assert_eq!(net, dir, "classification mismatch for {}", dbms.label());
    }

    // identical campaign tagging
    let net_tags = tag_sources(net_view, None);
    let dir_tags = tag_sources(dir_view, None);
    assert_eq!(net_tags, dir_tags, "campaign tags diverge between modes");
}
