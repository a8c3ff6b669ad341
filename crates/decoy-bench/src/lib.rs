//! # decoy-bench
//!
//! Criterion micro- and ablation benches (wire codecs, substrate, journal
//! ingest, frame fold, Ward scaling, clustering ablations) plus the
//! `wire_load` binary. The paper's report sections are measured end to end
//! by the offline `bench/` package.
//!
//! Benches that need a realistic capture share one direct-mode run (fixed
//! seed and scale) cached in a `OnceLock`.

use decoy_core::runner::{run_direct, ExperimentConfig, ExperimentResult};
use std::sync::OnceLock;

/// Scale of the shared benchmark dataset (2 % of paper volume keeps the
/// full `cargo bench` run in minutes while preserving every table's shape).
pub const BENCH_SCALE: f64 = 0.02;
/// Seed of the shared benchmark dataset.
pub const BENCH_SEED: u64 = 20240322;

static SHARED: OnceLock<ExperimentResult> = OnceLock::new();

/// The shared direct-mode experiment result (computed once per process).
pub fn shared_run() -> &'static ExperimentResult {
    SHARED.get_or_init(|| {
        run_direct(ExperimentConfig::direct(BENCH_SEED, BENCH_SCALE)).expect("experiment run")
    })
}
