//! `fingerprint_scorecard`: run the multistage fingerprinting probe
//! battery against the six honeypots and report the per-family
//! detectability scorecard.
//!
//! The honeypots are the session machines the experiment deploys (same
//! deploy specs, fake-data seed and hardened error catalog), run in memory
//! and probed with the genuine client codecs; each timed round trip
//! records the seeded LAN latency shaper's draw. Modes:
//!
//! * default — print the scorecard JSON
//! * `--check` — exit non-zero if any family scores worse than the
//!   committed `FINGERPRINT_BASELINE.json`
//! * `--write-baseline` — rewrite the baseline, refusing regressions (the
//!   same one-way ratchet as the hot-path allocation baseline)
//!
//! Run: `cargo run -p decoy-fingerprint --release --bin fingerprint_scorecard -- --check`

use decoy_fingerprint::{capture_in_memory, evaluate, Scorecard, Timing};

const BASELINE: &str = "FINGERPRINT_BASELINE.json";

fn baseline_path() -> std::path::PathBuf {
    // Works from the workspace root and from the crate directory.
    let local = std::path::Path::new(BASELINE);
    if local.exists() {
        return local.to_path_buf();
    }
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(BASELINE)
}

fn main() {
    let (mut check, mut write_baseline) = (false, false);
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--check" => check = true,
            "--write-baseline" => write_baseline = true,
            "--help" | "-h" => {
                eprintln!("usage: fingerprint_scorecard [--check] [--write-baseline]");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    let surfaces = capture_in_memory(Timing::Shaped).expect("probe the fleet");
    let (findings, card) = evaluate(&surfaces);

    for f in &findings {
        eprintln!("[{}] {} (+{}): {}", f.family, f.probe, f.weight, f.detail);
    }
    for (family, score) in card.entries() {
        eprintln!("{family:>10}: {score}");
    }

    let rendered = card.render_json();
    if !check && !write_baseline {
        println!("{rendered}");
        return;
    }
    let path = baseline_path();
    let committed = std::fs::read_to_string(&path).expect("read FINGERPRINT_BASELINE.json");
    let baseline = Scorecard::parse_json(&committed).expect("parse FINGERPRINT_BASELINE.json");
    if let Err(message) = Scorecard::ratchet(&baseline, &card) {
        eprintln!("{message}");
        std::process::exit(1);
    }
    if write_baseline {
        std::fs::write(&path, &rendered).expect("write FINGERPRINT_BASELINE.json");
        eprintln!("wrote {}", path.display());
    } else {
        eprintln!("scorecard within baseline ({} total)", card.total());
    }
}
