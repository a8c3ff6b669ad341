//! Live-fleet fingerprinting integration: the probe engine drives real
//! loopback listeners and the hardened, latency-shaped fleet must score
//! zero — matching the committed `FINGERPRINT_BASELINE.json`.

use decoy_base::latency::{LatencyProfile, LatencyShaper};
use decoy_base::time::Clock;
use decoy_fingerprint::{evaluate, fingerprint_fleet, EngineOptions, Scorecard};
use decoy_net::server::ListenerOptions;

#[tokio::test(flavor = "multi_thread")]
async fn shaped_fleet_scores_zero_and_matches_the_baseline() {
    let options = EngineOptions {
        listener: ListenerOptions {
            clock: Clock::Wall,
            latency: Some(LatencyShaper::new(11, LatencyProfile::lan())),
            ..ListenerOptions::default()
        },
        ..EngineOptions::default()
    };
    let surfaces = fingerprint_fleet(&options).await.expect("probe the fleet");
    assert_eq!(surfaces.len(), 6);
    let (findings, card) = evaluate(&surfaces);
    assert!(findings.is_empty(), "live fleet leaked tells: {findings:?}");
    for (family, score) in card.entries() {
        assert_eq!(*score, 0, "{family} scored {score}");
    }

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../FINGERPRINT_BASELINE.json"
    );
    let committed = std::fs::read_to_string(path).expect("read FINGERPRINT_BASELINE.json");
    let baseline = Scorecard::parse_json(&committed).expect("parse the committed baseline");
    assert_eq!(baseline, card, "committed baseline is out of date");
    Scorecard::ratchet(&baseline, &card).expect("fresh scores regressed past the baseline");
}

#[tokio::test(flavor = "multi_thread")]
async fn unshaped_engine_still_captures_coherent_surfaces() {
    // On the simulated clock with no shaper the timing stage will fire
    // (that is the point of the shaper); every *content* stage must
    // still be clean, and every surface fully captured.
    let options = EngineOptions {
        listener: ListenerOptions {
            clock: Clock::simulated(),
            ..ListenerOptions::default()
        },
        ..EngineOptions::default()
    };
    let surfaces = fingerprint_fleet(&options).await.expect("probe the fleet");
    assert_eq!(surfaces.len(), 6);
    for s in &surfaces {
        assert!(!s.banner.is_empty(), "{}: no banner", s.family);
        assert!(!s.facts.is_empty(), "{}: no facts", s.family);
        assert!(
            !s.error_unknown.is_empty() || !s.error_syntax.is_empty(),
            "{}: no error text captured",
            s.family
        );
    }
    let (findings, _) = evaluate(&surfaces);
    let content: Vec<_> = findings.iter().filter(|f| f.probe != "timing").collect();
    assert!(
        content.is_empty(),
        "content tells on a live fleet: {content:?}"
    );
}
