//! Foldable-frame campaign: partial frames folded over arbitrary segment
//! cuts must seal into exactly the frame a batch build produces.
//!
//! The streaming-analysis contract (DESIGN.md §9) is that
//! `PartialFrame` is a fold any event slice can enter, `merge` is
//! associative and order-insensitive across segments, and `seal` of the
//! merged fold equals `AnalysisFrame::build` over the whole store. The
//! property suite attacks that contract with arbitrary events (every
//! DBMS, every `EventKind` including `Health`, IPv6, non-ASCII) and
//! arbitrary cut points. The report layer over the same fold (streamed,
//! live-tailed, shard-merged) is pinned to the committed golden by
//! `tests/golden_report.rs`.

#[path = "common/gen.rs"]
mod gen;

use decoy_analysis::fold::PartialFrame;
use decoy_analysis::frame::AnalysisFrame;
use decoy_base::rng::{for_all, Rng};
use decoy_geo::{GeoDb, GeoEnricher};
use decoy_store::{Event, EventKind, EventStore};
use gen::arb_events;

/// The batch oracle: one store, one full-scan frame build.
fn batch_frame(events: &[Event]) -> AnalysisFrame {
    let store = EventStore::new();
    store.log_many(events.iter().cloned());
    AnalysisFrame::build(&store, &GeoDb::builtin())
}

/// The bounds of the contiguous segments that `cuts` (taken modulo the
/// event count, deduplicated) cut `events` into.
fn segment_bounds(events: &[Event], cuts: &[usize]) -> Vec<usize> {
    let mut bounds: Vec<usize> = vec![0, events.len()];
    bounds.extend(cuts.iter().map(|c| c % (events.len() + 1)));
    bounds.sort_unstable();
    bounds.dedup();
    bounds
}

/// Fold `events[start..end]` into a `PartialFrame` anchored at `start`.
fn fold_window(events: &[Event], start: usize, end: usize, enricher: &GeoEnricher) -> PartialFrame {
    let mut partial = PartialFrame::new(start as u64);
    for event in &events[start..end] {
        partial.push(event, enricher);
    }
    partial
}

/// Cut `events` into contiguous segments at `cuts` and fold each window
/// into its own `PartialFrame` anchored at its global start position.
fn fold_segments(events: &[Event], cuts: &[usize], enricher: &GeoEnricher) -> Vec<PartialFrame> {
    segment_bounds(events, cuts)
        .windows(2)
        .map(|w| fold_window(events, w[0], w[1], enricher))
        .collect()
}

/// `count` (drawn) cut points in `0..64`.
fn arb_cuts(rng: &mut Rng, count: std::ops::Range<usize>) -> Vec<usize> {
    (0..rng.gen_range(count))
        .map(|_| rng.gen_range(0..64))
        .collect()
}

/// seal(fold(segment) ∘ merge) == AnalysisFrame::build(store), for any
/// cut of the stream into contiguous segments.
#[test]
fn sealed_fold_equals_batch_build() {
    let gen = |rng: &mut Rng| (arb_events(rng, 0..60), arb_cuts(rng, 0..6));
    for_all(0xf01d, 48, gen, |(events, cuts)| {
        let enricher = GeoEnricher::new(GeoDb::builtin());
        let folded = fold_segments(events, cuts, &enricher)
            .into_iter()
            .fold(PartialFrame::new(0), PartialFrame::merge);
        assert_eq!(folded.seal(), batch_frame(events));
    });
}

/// merge is associative, and the sealed result does not depend on the
/// order segments arrive in.
#[test]
fn merge_is_associative_and_permutation_invariant() {
    let gen = |rng: &mut Rng| (arb_events(rng, 1..48), arb_cuts(rng, 2..6), rng.next_u64());
    for_all(0xa55c, 48, gen, |(events, cuts, shuffle_seed)| {
        let enricher = GeoEnricher::new(GeoDb::builtin());
        let parts = fold_segments(events, cuts, &enricher);

        // associativity on a three-way split of the parts
        if parts.len() >= 3 {
            let (a, b, c) = (parts[0].clone(), parts[1].clone(), parts[2].clone());
            let left = PartialFrame::merge(PartialFrame::merge(a.clone(), b.clone()), c.clone());
            let right = PartialFrame::merge(a, PartialFrame::merge(b, c));
            assert_eq!(left, right);
        }

        // permutation invariance: shuffled arrival seals identically
        let in_order = parts
            .iter()
            .cloned()
            .fold(PartialFrame::new(0), PartialFrame::merge);
        let mut shuffled = parts;
        let mut rng = Rng::seed_from_u64(*shuffle_seed);
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.gen_range(0..=i));
        }
        let out_of_order = shuffled
            .into_iter()
            .fold(PartialFrame::new(0), PartialFrame::merge);
        assert_eq!(&in_order, &out_of_order);
        assert_eq!(in_order.seal(), batch_frame(events));
    });
}

/// Empty partials are neutral elements and singleton segments fold
/// cleanly — the degenerate shapes a tail poll produces constantly.
#[test]
fn empty_and_singleton_segments_fold_cleanly() {
    let gen = |rng: &mut Rng| (arb_events(rng, 0..10), rng.next_u64());
    for_all(0x5e97, 48, gen, |(events, empty_anchor)| {
        let enricher = GeoEnricher::new(GeoDb::builtin());
        // every event in its own singleton segment
        let cuts: Vec<usize> = (0..events.len()).collect();
        let mut folded = fold_segments(events, &cuts, &enricher)
            .into_iter()
            .fold(PartialFrame::new(0), PartialFrame::merge);
        // interleave empty partials anywhere: they must change nothing
        folded = PartialFrame::merge(folded, PartialFrame::new(*empty_anchor));
        folded = PartialFrame::merge(PartialFrame::new(0), folded);
        // `span` counts every record, `len` only the non-telemetry ones
        let telemetry = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Health { .. }))
            .count();
        assert_eq!(folded.span(), events.len() as u64);
        assert_eq!(folded.len(), events.len() - telemetry);
        assert_eq!(folded.seal(), batch_frame(events));
    });
}

/// Whole and cut-short copies of random segments change nothing: merged
/// with the segments pairwise in random order, they seal to the batch
/// frame, with the same sources, strings and sessions. A cut-short copy is
/// a prefix of its segment folded at the segment's start (a torn or
/// corrupt tail), the shape two shards of one journal hold; this pins the
/// table-union rule that the merge's id rewrite must keep.
#[test]
fn replicas_and_cut_short_copies_change_nothing() {
    let gen = |rng: &mut Rng| (arb_events(rng, 1..60), arb_cuts(rng, 1..6), rng.next_u64());
    for_all(0x7e91, 48, gen, |(events, cuts, seed)| {
        let enricher = GeoEnricher::new(GeoDb::builtin());
        let mut rng = Rng::seed_from_u64(*seed);
        let bounds = segment_bounds(events, cuts);
        let mut parts: Vec<PartialFrame> = bounds
            .windows(2)
            .map(|w| fold_window(events, w[0], w[1], &enricher))
            .collect();
        for _ in 0..rng.gen_range(1..6) {
            let segment = rng.gen_range(0..bounds.len() - 1);
            let (start, end) = (bounds[segment], bounds[segment + 1]);
            let end = if rng.gen_bool(0.5) {
                end
            } else {
                rng.gen_range(start..end)
            };
            parts.push(fold_window(events, start, end, &enricher));
        }
        while parts.len() > 1 {
            let a = parts.swap_remove(rng.gen_range(0..parts.len()));
            let b = parts.swap_remove(rng.gen_range(0..parts.len()));
            parts.push(PartialFrame::merge(a, b));
        }
        let merged = parts.pop().unwrap();
        assert_eq!(merged.span(), events.len() as u64);
        let (sealed, batch) = (merged.seal(), batch_frame(events));
        assert_eq!(sealed.distinct_sources(), batch.distinct_sources());
        assert_eq!(sealed.interned_strings(), batch.interned_strings());
        assert_eq!(sealed.session_count(), batch.session_count());
        assert_eq!(sealed, batch);
    });
}
