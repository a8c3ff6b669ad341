//! The fingerprint battery over live loopback sockets: the captures
//! tier-1 runs against the honeypots' session machines in memory, run here
//! through the attack client's TCP transport against the deploy-spec
//! listeners, the seeded LAN shaper delaying their replies on the wall
//! clock. This is the one measured timing behind the baseline: the
//! hardened, latency-shaped fleet must score zero, matching the committed
//! `FINGERPRINT_BASELINE.json`.

use decoy_base::latency::{LatencyProfile, LatencyShaper};
use decoy_base::time::Clock;
use decoy_fingerprint::engine::SEED;
use decoy_fingerprint::{capture, evaluate, Scorecard, Timing, TARGETS};
use decoy_fleet::deploy::{spawn_with_options, HoneypotSpec};
use decoy_fleet::driver;
use decoy_net::server::ListenerOptions;
use decoy_store::EventStore;
use tokio::net::TcpStream;

#[tokio::test(flavor = "multi_thread")]
async fn live_fleet_scores_zero_and_matches_the_baseline() {
    let options = ListenerOptions {
        clock: Clock::Wall,
        latency: Some(LatencyShaper::new(SEED, LatencyProfile::lan())),
        ..ListenerOptions::default()
    };
    let mut surfaces = Vec::with_capacity(TARGETS.len());
    for id in TARGETS {
        let spec = HoneypotSpec::loopback(id, Clock::Wall, SEED);
        let hp = spawn_with_options(EventStore::new(), spec, options.clone())
            .await
            .expect("spawn the honeypot");
        let nodelay = |stream: TcpStream| stream.set_nodelay(true).map(|()| stream);
        let mut tcp = driver::loopback(hp.addr(), nodelay);
        let captured = capture(&mut tcp, id.dbms, Timing::Wall).await;
        hp.shutdown().await;
        surfaces.push(captured.unwrap_or_else(|e| panic!("probing {id}: {e}")));
    }
    let (findings, card) = evaluate(&surfaces);
    assert!(findings.is_empty(), "live fleet leaked tells: {findings:?}");

    let committed = include_str!("../../../FINGERPRINT_BASELINE.json");
    let baseline = Scorecard::parse_json(committed).expect("parse the committed baseline");
    assert_eq!(baseline, card, "committed baseline is out of date");
    Scorecard::ratchet(&baseline, &card).expect("fresh scores regressed past the baseline");
}
