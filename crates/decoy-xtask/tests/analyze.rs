//! End-to-end tests of `analyze` over the seeded-violation fixture
//! workspace in `tests/fixtures/violations/`.
//!
//! The fixture tree mirrors the real workspace layout (lock scope under
//! `crates/decoy-net/src/`, hot-path tags in `crates/decoy-app/src/`,
//! `BENCH_*.json` + `CHANGES.md` at the root) with one positive, one
//! negative, and one allow case per rule, so every pass is exercised
//! through the same entry point CI uses.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use decoy_xtask::analyze::{run, Options};
use decoy_xtask::diag::Finding;

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("violations")
}

fn run_raw(root: &Path) -> Vec<Finding> {
    run(&Options {
        root: root.to_path_buf(),
        use_baseline: false,
        write_baseline: false,
    })
    .expect("fixture analyze runs")
    .findings
}

/// `rule -> count` for findings in files whose path contains `needle`.
fn rules_in(findings: &[Finding], needle: &str) -> BTreeMap<&'static str, usize> {
    let mut out = BTreeMap::new();
    for f in findings.iter().filter(|f| f.file.contains(needle)) {
        *out.entry(f.rule).or_insert(0) += 1;
    }
    out
}

#[test]
fn every_seeded_violation_is_found_and_only_those() {
    let findings = run_raw(&fixture_root());

    // ---- lock-discipline
    assert_eq!(
        rules_in(&findings, "lock_order_pos"),
        BTreeMap::from([("lock-order", 1)])
    );
    // the same cycle through guards bound by `unwrap_or_else`
    assert_eq!(
        rules_in(&findings, "lock_order_std"),
        BTreeMap::from([("lock-order", 1)])
    );
    assert!(rules_in(&findings, "lock_order_neg").is_empty());
    assert!(rules_in(&findings, "lock_order_allow").is_empty());
    // the interprocedural fixture yields both the A->B->A ring and the
    // reacquire-through-a-call self-loop
    assert_eq!(
        rules_in(&findings, "lock_order_call"),
        BTreeMap::from([("lock-order", 2)])
    );

    // ---- hot-path allocation
    assert_eq!(
        rules_in(&findings, "alloc_hot"),
        BTreeMap::from([
            ("alloc-vec", 1),
            ("alloc-to-vec", 1),
            ("alloc-clone", 1),
            ("alloc-format", 1),
            ("alloc-box", 1),
            ("alloc-string-from", 1),
        ])
    );
    assert!(rules_in(&findings, "alloc_cold").is_empty());
    assert_eq!(
        rules_in(&findings, "alloc_fn"),
        BTreeMap::from([("alloc-vec", 1)])
    );
    // the untagged registry member
    assert_eq!(
        rules_in(&findings, "codec.rs"),
        BTreeMap::from([("hot-path-tag-missing", 1)])
    );

    // ---- bench freshness
    assert_eq!(
        rules_in(&findings, "BENCH_stale"),
        BTreeMap::from([("bench-stale", 1)])
    );
    assert_eq!(
        rules_in(&findings, "BENCH_nosince"),
        BTreeMap::from([("bench-missing-since", 1)])
    );
    assert!(rules_in(&findings, "BENCH_fresh").is_empty());

    // nothing unaccounted for: the assertions above cover every finding
    let expected_total = 1 + 1 + 2 + 6 + 1 + 1 + 1 + 1;
    assert_eq!(
        findings.len(),
        expected_total,
        "unexpected extra findings: {:#?}",
        findings
    );
}

#[test]
fn findings_carry_spans_and_passes() {
    let findings = run_raw(&fixture_root());
    for f in &findings {
        assert!(f.line >= 1, "{}: line must be 1-based", f.render());
        assert!(f.col >= 1, "{}: col must be 1-based", f.render());
        assert!(
            ["locks", "alloc", "bench", "diag"].contains(&f.pass),
            "{}: unknown pass",
            f.render()
        );
        assert!(
            f.file.starts_with("crates/") || f.file.starts_with("BENCH_"),
            "{}: paths are workspace-relative",
            f.render()
        );
    }
    // spot-check one known span: the seeded `.to_vec()` in alloc_hot.rs
    let to_vec = findings
        .iter()
        .find(|f| f.file.contains("alloc_hot") && f.rule == "alloc-to-vec")
        .expect("seeded to_vec");
    let src = std::fs::read_to_string(fixture_root().join(&to_vec.file)).expect("fixture source");
    let line = src.lines().nth(to_vec.line - 1).expect("line exists");
    assert!(line.contains(".to_vec()"), "span points at the violation");
}

#[test]
fn baseline_roundtrip_suppresses_everything_then_goes_stale() {
    // copy the fixture tree so --write-baseline does not dirty the corpus
    let scratch = std::env::temp_dir().join(format!(
        "decoy-xtask-analyze-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&scratch);
    copy_tree(&fixture_root(), &scratch).expect("copy fixtures");

    let raw = run_raw(&scratch).len();
    assert!(raw > 0);

    let wrote = run(&Options {
        root: scratch.clone(),
        use_baseline: true,
        write_baseline: true,
    })
    .expect("write baseline");
    assert!(wrote.wrote_baseline.is_some());
    assert_eq!(wrote.suppressed, raw);

    // with the baseline applied the same tree is clean
    let after = run(&Options {
        root: scratch.clone(),
        use_baseline: true,
        write_baseline: false,
    })
    .expect("apply baseline");
    assert!(after.findings.is_empty(), "{:#?}", after.findings);
    assert_eq!(after.suppressed, raw);
    assert_eq!(after.stale_baseline, 0);

    // fixing a violation leaves its baseline entry stale but stays clean
    let fixed = scratch.join("crates/decoy-app/src/alloc_hot.rs");
    let src = std::fs::read_to_string(&fixed).expect("read alloc_hot");
    std::fs::write(
        &fixed,
        src.replace("let copy = frame.to_vec();", "let copy = frame;"),
    )
    .expect("fix alloc_hot");
    let fixed_run = run(&Options {
        root: scratch.clone(),
        use_baseline: true,
        write_baseline: false,
    })
    .expect("rerun after fix");
    assert!(fixed_run.findings.is_empty());
    assert_eq!(fixed_run.suppressed, raw - 1);
    assert_eq!(fixed_run.stale_baseline, 1);

    // --no-baseline shows the raw view again
    let no_baseline = run(&Options {
        root: scratch.clone(),
        use_baseline: false,
        write_baseline: false,
    })
    .expect("raw rerun");
    assert_eq!(no_baseline.findings.len(), raw - 1);

    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn rewriting_the_baseline_cannot_grow_the_alloc_budget() {
    let scratch = std::env::temp_dir().join(format!(
        "decoy-xtask-ratchet-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&scratch);
    copy_tree(&fixture_root(), &scratch).expect("copy fixtures");

    run(&Options {
        root: scratch.clone(),
        use_baseline: true,
        write_baseline: true,
    })
    .expect("write initial baseline");

    // seed one more hot-path allocation and try to re-baseline it away
    let hot = scratch.join("crates/decoy-app/src/alloc_hot.rs");
    let src = std::fs::read_to_string(&hot).expect("read alloc_hot");
    std::fs::write(
        &hot,
        format!("{src}\nfn grew() {{ let _ = format!(\"{{}}\", 1); }}\n"),
    )
    .expect("grow alloc_hot");
    let err = run(&Options {
        root: scratch.clone(),
        use_baseline: true,
        write_baseline: true,
    });
    match err {
        Err(msg) => assert!(msg.contains("allocation budget"), "{msg}"),
        Ok(_) => panic!("baseline regeneration with a larger alloc budget must fail"),
    }

    // restoring the file makes regeneration legal again (budget shrinks back)
    std::fs::write(&hot, src).expect("restore alloc_hot");
    run(&Options {
        root: scratch.clone(),
        use_baseline: true,
        write_baseline: true,
    })
    .expect("rewrite at equal budget");

    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn missing_root_is_an_error_not_a_clean_run() {
    let err = run(&Options {
        root: PathBuf::from("/nonexistent/nowhere"),
        use_baseline: false,
        write_baseline: false,
    });
    assert!(err.is_err());
}

fn copy_tree(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.path().is_dir() {
            copy_tree(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target)?;
        }
    }
    Ok(())
}
