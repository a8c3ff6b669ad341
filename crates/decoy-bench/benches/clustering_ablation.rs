//! Clustering ablations called out in DESIGN.md:
//!
//! 1. **Dedup before Ward** — the paper's population collapses thousands of
//!    bot IPs into dozens of unique action sequences. `cluster_sources`
//!    dedupes first (weighted Ward); the ablation runs Ward over every
//!    point. Same hierarchy, very different cost.
//! 2. **Ward scaling** — raw `ward_cluster` across population sizes.
//! 3. **Masking ablation** — §6.1's motivating design choice: clustering on
//!    masked actions vs raw command text. Raw text splits campaign bots on
//!    volatile parameters (hashes, loader IPs); masking collapses them.
//!
//! Run: `cargo bench -p decoy-bench --bench clustering_ablation`

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use decoy_analysis::cluster::{cluster_sources, ward_cluster};
use decoy_analysis::frame::{AnalysisFrame, FrameKindRef, FrameView, Partition};
use decoy_analysis::tf::TfVector;
use decoy_base::Rng;
use decoy_store::Dbms;
use std::hint::black_box;

/// Synthetic TF vectors: `k` true groups, `n` points.
fn synthetic(n: usize, k: usize, dims: usize) -> Vec<TfVector> {
    let mut rng = Rng::seed_from_u64(42);
    (0..n)
        .map(|i| {
            let group = i % k;
            let mut values = vec![0.0; dims];
            values[group % dims] = 0.8 + rng.unit() * 0.05;
            values[(group + 1) % dims] = 0.2 - rng.unit() * 0.05;
            TfVector::from_dense(values, 10)
        })
        .collect()
}

fn bench(c: &mut Criterion) {
    // Ward scaling
    let mut group = c.benchmark_group("ward_scaling");
    for n in [32usize, 64, 128, 256] {
        let vectors = synthetic(n, 8, 16);
        let weights = vec![1.0; n];
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(ward_cluster(&vectors, &weights)))
        });
    }
    group.finish();

    // Dedup ablation on the shared experiment's Redis events: the real
    // pipeline (dedup, weighted) vs brute-force Ward over every source.
    let result = decoy_bench::shared_run();
    let frame = AnalysisFrame::build(&result.store, &result.geo);
    let med_high = frame.view(Partition::MedHigh);
    let docs = decoy_analysis::tf::action_sequences(med_high, Some(Dbms::Redis));
    let (_, vectors, _) = decoy_analysis::tf::vectorize(&docs);
    println!(
        "redis sources: {} (unique sequences drive the dedup win)",
        vectors.len()
    );
    let mut group = c.benchmark_group("dedup_ablation");
    group.sample_size(10);
    group.bench_function("with_dedup(cluster_sources)", |b| {
        b.iter(|| black_box(cluster_sources(med_high, Some(Dbms::Redis), 0.05)))
    });
    let weights = vec![1.0; vectors.len()];
    group.bench_function("without_dedup(raw_ward)", |b| {
        b.iter(|| black_box(ward_cluster(&vectors, &weights)))
    });
    group.finish();

    // Masking ablation (§6.1): cluster on masked actions vs raw commands.
    let masked = cluster_sources(med_high, Some(Dbms::Redis), 0.05);
    let raw_clusters = cluster_on_raw(med_high, Dbms::Redis, 0.05);
    println!(
        "masking ablation (Redis): {} clusters with masking, {} without          (the paper's DELETE /tmp/hash1 vs hash2 argument)",
        masked.num_clusters, raw_clusters
    );
    let mut group = c.benchmark_group("masking_ablation");
    group.sample_size(10);
    group.bench_function("masked_actions", |b| {
        b.iter(|| black_box(cluster_sources(med_high, Some(Dbms::Redis), 0.05)))
    });
    group.bench_function("raw_commands", |b| {
        b.iter(|| black_box(cluster_on_raw(med_high, Dbms::Redis, 0.05)))
    });
    group.finish();
}

/// Cluster on raw command text (no masking): the ablated §6.1 pipeline.
fn cluster_on_raw(view: FrameView<'_>, dbms: Dbms, threshold: f64) -> usize {
    use decoy_analysis::tf::{TfVector, Vocabulary};
    use std::collections::{BTreeMap, HashMap};
    let mut docs: BTreeMap<std::net::IpAddr, Vec<&str>> = BTreeMap::new();
    for event in view.events_of(Some(dbms)) {
        let term = match view.kind(event) {
            FrameKindRef::Command { raw, .. } => Some(raw),
            FrameKindRef::LoginAttempt { .. } => Some("LOGIN"),
            FrameKindRef::Payload { preview, .. } => Some(preview),
            _ => None,
        };
        let doc = docs.entry(view.src(event)).or_default();
        if let Some(term) = term {
            doc.push(term);
        }
    }
    // dedup identical raw documents (same as the real pipeline)
    let mut unique: Vec<&[&str]> = Vec::new();
    let mut members: Vec<f64> = Vec::new();
    let mut by_doc: HashMap<&[&str], usize> = HashMap::new();
    for doc in docs.values() {
        match by_doc.get(doc.as_slice()) {
            Some(&i) => members[i] += 1.0,
            None => {
                by_doc.insert(doc, unique.len());
                unique.push(doc);
                members.push(1.0);
            }
        }
    }
    let mut vocab = Vocabulary::new();
    let vectors: Vec<TfVector> = unique
        .iter()
        .map(|d| TfVector::from_terms(d, &mut vocab))
        .collect();
    let dendrogram = ward_cluster(&vectors, &members);
    dendrogram.clusters_at(threshold)
}

criterion_group! {
    name = benches;
    // experiment analyses run hundreds of ms per iteration; 10 samples keep
    // the full `cargo bench` sweep in minutes
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
