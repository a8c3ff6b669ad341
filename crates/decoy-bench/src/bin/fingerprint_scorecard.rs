//! `fingerprint_scorecard`: run the multistage fingerprinting probe
//! battery against the live loopback fleet and report the per-family
//! detectability scorecard.
//!
//! The fleet is spawned exactly as the experiment deploys it (same
//! deploy specs, hardened error catalog, seeded LAN latency shaper on a
//! wall clock) and probed with the genuine client codecs. Modes:
//!
//! * default — print the scorecard JSON (or `--out FILE`)
//! * `--check` — exit non-zero if any family scores worse than the
//!   committed `FINGERPRINT_BASELINE.json`
//! * `--write-baseline` — rewrite the baseline, refusing regressions (the
//!   same one-way ratchet as the hot-path allocation baseline)
//!
//! Run: `cargo run -p decoy-bench --release --bin fingerprint_scorecard -- --check`

use decoy_base::latency::{LatencyProfile, LatencyShaper};
use decoy_base::time::Clock;
use decoy_fingerprint::{evaluate, fingerprint_fleet, EngineOptions, Scorecard};
use decoy_net::server::ListenerOptions;

const BASELINE: &str = "FINGERPRINT_BASELINE.json";

struct Args {
    out: Option<String>,
    check: bool,
    write_baseline: bool,
    samples: usize,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        out: None,
        check: false,
        write_baseline: false,
        samples: 24,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => parsed.out = args.next(),
            "--check" => parsed.check = true,
            "--write-baseline" => parsed.write_baseline = true,
            "--samples" => {
                parsed.samples = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(parsed.samples);
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: fingerprint_scorecard [--check] [--write-baseline] [--samples N] [--out FILE]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    parsed
}

fn baseline_path() -> std::path::PathBuf {
    // Works from the workspace root (CI) and from the crate directory.
    let local = std::path::Path::new(BASELINE);
    if local.exists() {
        return local.to_path_buf();
    }
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(BASELINE)
}

fn main() {
    let args = parse_args();
    let runtime = tokio::runtime::Builder::new_multi_thread()
        .enable_all()
        .build()
        .expect("tokio runtime");

    let options = EngineOptions {
        listener: ListenerOptions {
            clock: Clock::Wall,
            latency: Some(LatencyShaper::new(11, LatencyProfile::lan())),
            ..ListenerOptions::default()
        },
        timing_samples: args.samples,
        seed: 11,
    };
    let surfaces = runtime
        .block_on(fingerprint_fleet(&options))
        .expect("probe the fleet");
    let (findings, card) = evaluate(&surfaces);

    for f in &findings {
        eprintln!("[{}] {} (+{}): {}", f.family, f.probe, f.weight, f.detail);
    }
    for (family, score) in card.entries() {
        eprintln!("{family:>10}: {score}");
    }

    let rendered = card.render_json();
    if let Some(path) = &args.out {
        std::fs::write(path, &rendered).expect("write scorecard");
        eprintln!("wrote {path}");
    } else if !args.check && !args.write_baseline {
        println!("{rendered}");
    }

    if args.check || args.write_baseline {
        let path = baseline_path();
        let committed = std::fs::read_to_string(&path).expect("read FINGERPRINT_BASELINE.json");
        let baseline = Scorecard::parse_json(&committed).expect("parse FINGERPRINT_BASELINE.json");
        if let Err(message) = Scorecard::ratchet(&baseline, &card) {
            eprintln!("{message}");
            std::process::exit(1);
        }
        if args.write_baseline {
            std::fs::write(&path, &rendered).expect("write FINGERPRINT_BASELINE.json");
            eprintln!("wrote {}", path.display());
        } else {
            eprintln!("scorecard within baseline ({} total)", card.total());
        }
    }
}
