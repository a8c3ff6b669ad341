//! The `analyze` orchestrator: walks the workspace once, builds a
//! [`SourceFile`] per module, runs every pass over its scope, and applies
//! the suppression baseline.
//!
//! Pass scopes:
//!
//! * **locks** — everything under `decoy-net`, `decoy-store`,
//!   `decoy-core`, `decoy-geo` and `decoy-honeypots` (`src/` trees),
//!   analyzed together as one program so inter-file call chains contribute
//!   lock-order edges.
//! * **alloc** — every workspace `.rs` file (tags opt modules in), plus the
//!   [`HOT_PATH_EXPECTED`] registry: files that *must* carry a
//!   `decoy-hot-path` tag so coverage cannot silently regress.
//! * **bench** — `BENCH_*.json` at the workspace root, with the PR ordinal
//!   derived from `CHANGES.md`.
//!
//! The baseline (`ANALYSIS_BASELINE.json`) is applied last, uniformly:
//! a finding matching an unexhausted `(file, rule, trimmed-line)` entry is
//! suppressed and counted; everything else fails the run. Regenerate with
//! `--write-baseline` after reviewing what it would hide.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use crate::diag::{report_json, Baseline, Finding, SourceFile};
use crate::{alloc, bench, locks};

/// Crate `src/` trees the lock-discipline pass analyzes as one program.
pub const LOCK_SCOPE: [&str; 6] = [
    "crates/decoy-net/src/",
    "crates/decoy-store/src/",
    "crates/decoy-core/src/",
    "crates/decoy-fleet/src/",
    "crates/decoy-geo/src/",
    "crates/decoy-honeypots/src/",
];

/// Files that must carry a `decoy-hot-path` tag: the six wire decoders,
/// the journal decode path, the journal sink and record encoder (fn-scope
/// tags), the codec write path and the frame buffer, the store's
/// `append_locked` (fn-scope tag in events.rs), the latency shaper's
/// draw path, the error-catalog render path, and the JSON string escaper.
pub const HOT_PATH_EXPECTED: [&str; 15] = [
    "crates/decoy-wire/src/http.rs",
    "crates/decoy-wire/src/mongo.rs",
    "crates/decoy-wire/src/mysql.rs",
    "crates/decoy-wire/src/pgwire.rs",
    "crates/decoy-wire/src/resp.rs",
    "crates/decoy-wire/src/tds.rs",
    "crates/decoy-store/src/journal/decode.rs",
    // every spooled event is encoded once, by the sink, under the store lock
    "crates/decoy-store/src/journal/mod.rs",
    "crates/decoy-store/src/journal/encode.rs",
    "crates/decoy-wire/src/codec.rs",
    // every inbound byte is buffered in it and every frame split from it
    "crates/decoy-wire/src/buf.rs",
    "crates/decoy-store/src/events.rs",
    // per-response latency shaping runs inside every session loop
    "crates/decoy-base/src/latency.rs",
    // the shared error catalog renders on every scripted error response
    "crates/decoy-honeypots/src/catalog.rs",
    // every JSON body escapes through it, each unknown-index 404 included
    "crates/decoy-base/src/json.rs",
];

/// What `analyze` produces: fresh findings (post-baseline) plus the
/// bookkeeping the report and exit code are built from.
pub struct Outcome {
    /// Findings not covered by the baseline — these fail the run.
    pub findings: Vec<Finding>,
    /// Findings suppressed by baseline entries.
    pub suppressed: usize,
    /// Baseline budget left over (code was fixed; baseline needs a regen).
    pub stale_baseline: usize,
    /// Rendered unified JSON report.
    pub json: String,
    /// Set when `--write-baseline` rewrote the baseline file.
    pub wrote_baseline: Option<PathBuf>,
}

/// Options for one `analyze` run.
pub struct Options {
    pub root: PathBuf,
    /// Apply `ANALYSIS_BASELINE.json` when present (`--no-baseline` turns
    /// this off for a raw view).
    pub use_baseline: bool,
    /// Regenerate the baseline from the current findings instead of
    /// failing on them.
    pub write_baseline: bool,
}

/// All `.rs` files under `dir`, recursively, sorted for stable output.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The workspace-relative, `/`-separated form of `path`.
fn rel_of(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// Every crate `src/` dir in the workspace (top-level `src/` included).
fn crate_src_dirs(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut dirs = vec![root.join("src")];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut entries: Vec<_> = std::fs::read_dir(&crates_dir)
            .map_err(|e| format!("read {}: {e}", crates_dir.display()))?
            .collect::<Result<_, _>>()
            .map_err(|e| format!("read {}: {e}", crates_dir.display()))?;
        entries.sort_by_key(|e| e.file_name());
        for entry in entries {
            dirs.push(entry.path().join("src"));
        }
    }
    Ok(dirs)
}

/// Run every pass over the workspace at `root` and apply the baseline.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let root = &opts.root;
    // a mistyped --root must not report success over an empty walk
    if !root.join("Cargo.toml").is_file() {
        return Err(format!(
            "{} is not a workspace root (no Cargo.toml)",
            root.display()
        ));
    }

    // ---- gather sources
    let mut files = Vec::new();
    let mut findings: Vec<Finding> = Vec::new();
    for src_dir in crate_src_dirs(root)? {
        if !src_dir.is_dir() {
            continue;
        }
        rust_files(&src_dir, &mut files).map_err(|e| format!("walk {}: {e}", src_dir.display()))?;
    }
    files.sort();
    files.dedup();
    let mut sources: Vec<SourceFile> = Vec::new();
    for path in &files {
        let rel = rel_of(root, path);
        // the analyzer does not scan itself: its source is saturated with
        // rule-pattern literals (docs, test fixtures, directive strings)
        // that would self-match; its correctness is covered by its own
        // unit/integration suite instead
        if rel.starts_with("crates/decoy-xtask/src/") {
            continue;
        }
        let src = std::fs::read_to_string(path).map_err(|e| format!("read {rel}: {e}"))?;
        sources.push(SourceFile::new(&rel, &src));
    }

    // ---- per-file passes
    for sf in &sources {
        findings.extend(sf.bad_allows.iter().cloned());
        findings.extend(alloc::check(sf));
    }
    // hot-path tag registry
    for expected in HOT_PATH_EXPECTED {
        let Some(sf) = sources.iter().find(|sf| sf.rel == expected) else {
            continue; // file moved/removed: the registry is updated with it
        };
        if !alloc::has_tag(sf) {
            findings.push(Finding {
                file: expected.to_string(),
                line: 1,
                col: 1,
                rule: "hot-path-tag-missing",
                pass: "alloc",
                message: "this file is in the hot-path registry but carries no \
                          `decoy-hot-path:` tag; re-tag it (or remove it from \
                          HOT_PATH_EXPECTED with a review)"
                    .to_string(),
            });
        }
    }

    // ---- lock discipline over net+store+core as one program
    let lock_sources: Vec<&SourceFile> = sources
        .iter()
        .filter(|sf| LOCK_SCOPE.iter().any(|p| sf.rel.starts_with(p)))
        .collect();
    findings.extend(locks::check(&lock_sources));

    // ---- bench freshness
    let mut bench_files: Vec<(String, String)> = Vec::new();
    let mut entries: Vec<_> = std::fs::read_dir(root)
        .map_err(|e| format!("read {}: {e}", root.display()))?
        .collect::<Result<_, _>>()
        .map_err(|e| format!("read {}: {e}", root.display()))?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with("BENCH_") && name.ends_with(".json") {
            let src =
                std::fs::read_to_string(entry.path()).map_err(|e| format!("read {name}: {e}"))?;
            bench_files.push((name, src));
        }
    }
    let changes = std::fs::read_to_string(root.join("CHANGES.md")).unwrap_or_default();
    findings.extend(bench::check(&bench_files, bench::current_pr(&changes)));

    findings
        .sort_by(|x, y| (&x.file, x.line, x.col, x.rule).cmp(&(&y.file, y.line, y.col, y.rule)));

    // ---- baseline
    // key: the trimmed text of the finding's line, looked up in whichever
    // corpus the finding came from
    let mut texts: HashMap<String, String> = HashMap::new();
    for sf in &sources {
        texts.insert(sf.rel.clone(), sf.src.clone());
    }
    for (rel, src) in &bench_files {
        texts.insert(rel.clone(), src.clone());
    }
    let key_of = |f: &Finding| -> String {
        texts
            .get(&f.file)
            .and_then(|src| src.lines().nth(f.line.saturating_sub(1)))
            .unwrap_or_default()
            .trim()
            .to_string()
    };
    let baseline_path = root.join("ANALYSIS_BASELINE.json");

    if opts.write_baseline {
        let keyed: Vec<(Finding, String)> = findings
            .into_iter()
            .map(|f| (f.clone(), key_of(&f)))
            .collect();
        let baseline = Baseline::from_findings(keyed.iter().map(|(f, k)| (f, k.as_str())));
        // ratchet: a regeneration may hold or shrink the hot-path
        // allocation budget, never grow it back
        if baseline_path.is_file() {
            let old_text = std::fs::read_to_string(&baseline_path)
                .map_err(|e| format!("read {}: {e}", baseline_path.display()))?;
            if let Ok(old) = Baseline::parse(&old_text) {
                let (was, now) = (old.alloc_budget(), baseline.alloc_budget());
                if now > was {
                    return Err(format!(
                        "refusing to write baseline: the hot-path allocation budget would \
                         grow from {was} to {now}; burn the new allocations down (see the \
                         alloc pass findings) instead of re-baselining them"
                    ));
                }
            }
        }
        std::fs::write(&baseline_path, baseline.render())
            .map_err(|e| format!("write {}: {e}", baseline_path.display()))?;
        let json = report_json(&[], keyed.len(), 0);
        return Ok(Outcome {
            findings: Vec::new(),
            suppressed: keyed.len(),
            stale_baseline: 0,
            json,
            wrote_baseline: Some(baseline_path),
        });
    }

    let (fresh, suppressed, stale_baseline) = if opts.use_baseline && baseline_path.is_file() {
        let text = std::fs::read_to_string(&baseline_path)
            .map_err(|e| format!("read {}: {e}", baseline_path.display()))?;
        let baseline =
            Baseline::parse(&text).map_err(|e| format!("{}: {e}", baseline_path.display()))?;
        baseline.apply(findings, key_of)
    } else {
        (findings, 0, 0)
    };
    let json = report_json(&fresh, suppressed, stale_baseline);
    Ok(Outcome {
        findings: fresh,
        suppressed,
        stale_baseline,
        json,
        wrote_baseline: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The panic wall is clippy's, but clippy cannot notice an attribute
    /// that is gone: every byte-path root still denies all twelve lints.
    #[test]
    fn enforced_set_covers_the_byte_path() {
        let walled = [
            ("store", include_str!("../../decoy-store/src/lib.rs")),
            ("wire", include_str!("../../decoy-wire/src/lib.rs")),
            ("net", include_str!("../../decoy-net/src/lib.rs")),
            (
                "honeypots",
                include_str!("../../decoy-honeypots/src/lib.rs"),
            ),
            (
                "fingerprint",
                include_str!("../../decoy-fingerprint/src/lib.rs"),
            ),
            ("json.rs", include_str!("../../decoy-base/src/json.rs")),
            ("chaos.rs", include_str!("../../decoy-base/src/chaos.rs")),
            (
                "supervision.rs",
                include_str!("../../decoy-base/src/supervision.rs"),
            ),
        ];
        for (name, src) in walled {
            let wall = src
                .split_once("#![cfg_attr(\n    not(test),\n    deny(")
                .and_then(|(_, rest)| rest.split_once(")\n)]"))
                .map(|(lints, _)| lints)
                .unwrap_or_default();
            for lint in [
                "unwrap_used",
                "expect_used",
                "panic",
                "unreachable",
                "todo",
                "unimplemented",
                "indexing_slicing",
                "string_slice",
                "cast_possible_truncation",
                "cast_possible_wrap",
                "disallowed_macros",
                "allow_attributes_without_reason",
            ] {
                assert!(
                    wall.contains(&format!("clippy::{lint},"))
                        || wall.contains(&format!("clippy::{lint}\n")),
                    "{name} does not deny clippy::{lint}"
                );
            }
        }
    }

    #[test]
    fn lock_scope_covers_every_crate_that_locks() {
        assert!(LOCK_SCOPE
            .iter()
            .any(|p| "crates/decoy-net/src/supervisor.rs".starts_with(p)));
        assert!(LOCK_SCOPE
            .iter()
            .any(|p| "crates/decoy-store/src/events.rs".starts_with(p)));
        assert!(LOCK_SCOPE
            .iter()
            .any(|p| "crates/decoy-core/src/runner.rs".starts_with(p)));
        assert!(LOCK_SCOPE
            .iter()
            .any(|p| "crates/decoy-fleet/src/runner.rs".starts_with(p)));
        assert!(LOCK_SCOPE
            .iter()
            .any(|p| "crates/decoy-geo/src/enrich.rs".starts_with(p)));
        assert!(LOCK_SCOPE
            .iter()
            .any(|p| "crates/decoy-honeypots/src/docdb.rs".starts_with(p)));
        assert!(!LOCK_SCOPE
            .iter()
            .any(|p| "crates/decoy-analysis/src/frame.rs".starts_with(p)));
    }

    #[test]
    fn hot_path_registry_names_the_decoders() {
        for f in [
            "crates/decoy-wire/src/mysql.rs",
            "crates/decoy-wire/src/resp.rs",
            "crates/decoy-store/src/journal/decode.rs",
            "crates/decoy-store/src/journal/mod.rs",
            "crates/decoy-store/src/journal/encode.rs",
            "crates/decoy-wire/src/codec.rs",
            "crates/decoy-wire/src/buf.rs",
            "crates/decoy-store/src/events.rs",
            "crates/decoy-base/src/latency.rs",
            "crates/decoy-honeypots/src/catalog.rs",
            "crates/decoy-base/src/json.rs",
        ] {
            assert!(HOT_PATH_EXPECTED.contains(&f), "{f} missing from registry");
        }
    }
}
