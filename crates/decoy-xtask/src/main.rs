//! Thin CLI over the `decoy_xtask` library: `analyze` runs every
//! static-analysis pass (lock discipline, hot-path allocation, bench
//! freshness) with the suppression baseline.
//!
//! Exit codes are the contract CI relies on:
//!
//! * `0` — clean
//! * `1` — findings
//! * `2` — usage or I/O error

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use decoy_xtask::analyze;

/// Workspace root: `--root` wins, then the manifest dir's grandparent
/// (`crates/decoy-xtask` → repo root), then the current directory.
fn workspace_root(explicit: Option<&str>) -> PathBuf {
    if let Some(r) = explicit {
        return PathBuf::from(r);
    }
    if let Ok(manifest) = std::env::var("CARGO_MANIFEST_DIR") {
        let p = PathBuf::from(&manifest);
        if let Some(root) = p.parent().and_then(Path::parent) {
            if root.join("Cargo.toml").is_file() {
                return root.to_path_buf();
            }
        }
    }
    PathBuf::from(".")
}

const USAGE: &str = "\
usage: decoy-xtask <command> [options]

commands:
  analyze   all passes: lock discipline, hot-path alloc, bench freshness

options:
  --json             machine-readable report on stdout
  --root <path>      workspace root (default: inferred)
  --no-baseline      analyze: ignore ANALYSIS_BASELINE.json (raw view)
  --write-baseline   analyze: regenerate ANALYSIS_BASELINE.json from findings";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut analyze_cmd = false;
    let mut json = false;
    let mut root_arg: Option<String> = None;
    let mut use_baseline = true;
    let mut write_baseline = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--no-baseline" => use_baseline = false,
            "--write-baseline" => write_baseline = true,
            "--root" => match it.next() {
                Some(v) => root_arg = Some(v.clone()),
                None => {
                    eprintln!("{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "analyze" if !analyze_cmd => analyze_cmd = true,
            other => {
                eprintln!("unknown argument {other:?}\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    if !analyze_cmd {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    let opts = analyze::Options {
        root: workspace_root(root_arg.as_deref()),
        use_baseline,
        write_baseline,
    };
    let outcome = match analyze::run(&opts) {
        Ok(outcome) => outcome,
        Err(msg) => {
            eprintln!("decoy-xtask analyze: {msg}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &outcome.wrote_baseline {
        eprintln!(
            "decoy-xtask analyze: wrote {} ({} entr{}) — review the diff",
            path.display(),
            outcome.suppressed,
            if outcome.suppressed == 1 { "y" } else { "ies" }
        );
        return ExitCode::SUCCESS;
    }
    if json {
        println!("{}", outcome.json);
    } else {
        for f in &outcome.findings {
            println!("{}", f.render());
        }
        println!(
            "decoy-xtask analyze: {} finding(s), {} suppressed by baseline",
            outcome.findings.len(),
            outcome.suppressed
        );
    }
    if outcome.stale_baseline > 0 {
        eprintln!(
            "decoy-xtask analyze: warning: {} stale baseline entr{} \
             (fixed code still excused) — regenerate with --write-baseline",
            outcome.stale_baseline,
            if outcome.stale_baseline == 1 {
                "y"
            } else {
                "ies"
            }
        );
    }
    if outcome.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
