//! Ward-linkage core: the nearest-neighbor-chain algorithm over a condensed
//! dissimilarity matrix, plus the naive global-scan implementation kept as a
//! test oracle.
//!
//! Like [`tfvec`](super::tfvec), this module is std-only, so it compiles
//! and tests on its own. Paths into the rest of the crate go through
//! `super` only. The public surface is re-exported through
//! [`crate::cluster`].
//!
//! ## Why the chain algorithm gives the same answer
//!
//! Ward's criterion is *reducible*: merging clusters `i` and `j` never
//! brings the merged cluster closer to a bystander `k` than the nearer of
//! `d(i,k)`, `d(j,k)`. For reducible linkages, merging any
//! reciprocal-nearest-neighbor pair — not necessarily the globally closest
//! one — produces the same dendrogram as greedy global-minimum merging, up
//! to the order in which independent merges are recorded (Murtagh's
//! nearest-neighbor-chain argument). Ties are broken identically in both
//! implementations (smallest slot index wins). A tie is any two
//! dissimilarities within a relative `TIE_TOLERANCE`, not only bitwise
//! equal ones: the two implementations update the matrix in different
//! orders, so one real tie can round to values a few ulps apart, in
//! opposite directions in each, and a bitwise rule would then join
//! different pairs and grow different trees. `canonicalize`
//! rewrites either merge history into a unique order — stable sort by
//! `(height, min-leaf child ids)` constrained to dependency order, with a
//! union-find-style relabel — so `cut_at`/`cut_into` partitions coincide.
//!
//! Complexity: the chain performs O(n) nearest-neighbor scans of O(n) each
//! between consecutive merges amortized, for O(n²) total — no per-step
//! global O(n²) rescans — over a condensed upper-triangle matrix (half the
//! memory of the former full square), whose initial Ward dissimilarities
//! are computed in parallel row blocks with `std::thread::scope`.

use super::tfvec::TfVector;
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, HashMap};

/// One merge step: clusters `a` and `b` (ids in scipy convention: leaves are
/// `0..n`, the cluster created by step `s` is `n + s`) joined at `height`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Merge {
    /// First merged cluster id (the child containing the smaller leaf).
    pub a: usize,
    /// Second merged cluster id.
    pub b: usize,
    /// Ward criterion value (variance increase) at this merge.
    pub height: f64,
    /// Total weight of the resulting cluster.
    pub size: f64,
}

/// The full merge history over `n` leaves.
#[derive(Debug, Clone, Default)]
pub struct Dendrogram {
    /// Number of leaves.
    pub n: usize,
    /// Merges in canonical order (heights are non-decreasing).
    pub merges: Vec<Merge>,
}

impl Dendrogram {
    /// Cut so that merges with `height <= threshold` are applied. Returns a
    /// label in `0..k` for each leaf.
    pub fn cut_at(&self, threshold: f64) -> Vec<usize> {
        let apply = self
            .merges
            .iter()
            .take_while(|m| m.height <= threshold)
            .count();
        self.cut_after(apply)
    }

    /// Cut into exactly `k` clusters (or as close as the hierarchy allows).
    pub fn cut_into(&self, k: usize) -> Vec<usize> {
        let k = k.clamp(1, self.n.max(1));
        let apply = self.n.saturating_sub(k).min(self.merges.len());
        self.cut_after(apply)
    }

    /// Apply the first `steps` merges and label the components.
    fn cut_after(&self, steps: usize) -> Vec<usize> {
        let mut parent: Vec<usize> = (0..self.n + steps).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for (step, merge) in self.merges.iter().take(steps).enumerate() {
            let new_id = self.n + step;
            let ra = find(&mut parent, merge.a);
            let rb = find(&mut parent, merge.b);
            parent[ra] = new_id;
            parent[rb] = new_id;
        }
        // compact component labels
        let mut labels = vec![0usize; self.n];
        let mut next = 0usize;
        let mut seen: HashMap<usize, usize> = HashMap::new();
        for (leaf, label_slot) in labels.iter_mut().enumerate() {
            let root = find(&mut parent, leaf);
            let label = *seen.entry(root).or_insert_with(|| {
                let l = next;
                next += 1;
                l
            });
            *label_slot = label;
        }
        labels
    }

    /// Number of clusters after cutting at `threshold`.
    pub fn clusters_at(&self, threshold: f64) -> usize {
        let applied = self
            .merges
            .iter()
            .take_while(|m| m.height <= threshold)
            .count();
        self.n - applied
    }
}

/// Index of the pair `(i, j)`, `i < j`, in the condensed upper-triangle
/// layout: row `i` occupies a contiguous run of `n - 1 - i` entries.
#[inline]
fn cond_index(n: usize, i: usize, j: usize) -> usize {
    debug_assert!(i < j && j < n);
    // rows 0..i hold i·(n-1) − i·(i−1)/2 = i·(2n−i−1)/2 entries
    i * (2 * n - i - 1) / 2 + (j - i - 1)
}

/// Condensed-matrix read for an unordered active pair.
#[inline]
fn cond_at(dist: &[f64], n: usize, a: usize, b: usize) -> f64 {
    dist[cond_index(n, a.min(b), a.max(b))]
}

/// Ward's weighted initial dissimilarity for two points.
#[inline]
fn ward_form(vi: &TfVector, vj: &TfVector, wi: f64, wj: f64) -> f64 {
    2.0 * wi * wj / (wi + wj) * vi.distance_sq(vj)
}

/// Populations below this size fill the condensed matrix serially; the
/// thread-spawn overhead only pays off once the O(n²) build dominates.
const PARALLEL_MIN_POINTS: usize = 128;

/// The condensed (upper-triangle) matrix of Ward's weighted initial
/// dissimilarities `2·wᵢwⱼ/(wᵢ+wⱼ)·‖xᵢ−xⱼ‖²`, built in parallel
/// row blocks of roughly equal pair counts.
fn ward_initial_condensed(vectors: &[TfVector], weights: &[f64]) -> Vec<f64> {
    let n = vectors.len();
    if n < 2 {
        return Vec::new();
    }
    let total = n * (n - 1) / 2;
    let mut dist = vec![0.0f64; total];
    let fill_rows = |rows: std::ops::Range<usize>, out: &mut [f64]| {
        let mut k = 0usize;
        for i in rows {
            let (vi, wi) = (&vectors[i], weights[i]);
            for j in (i + 1)..n {
                out[k] = ward_form(vi, &vectors[j], wi, weights[j]);
                k += 1;
            }
        }
    };
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    if n < PARALLEL_MIN_POINTS || workers < 2 {
        fill_rows(0..n, &mut dist);
        return dist;
    }
    // Contiguous row blocks balanced by pair count (row i holds n-1-i
    // pairs, so equal row counts would leave the first worker with almost
    // all the work). Blocks align with row boundaries, so each worker owns
    // a disjoint contiguous slice of the condensed layout.
    let mut blocks: Vec<(usize, usize, usize)> = Vec::new();
    let target = total / workers + 1;
    let mut row = 0usize;
    while row < n {
        let start = row;
        let mut pairs = 0usize;
        while row < n && pairs < target {
            pairs += n - 1 - row;
            row += 1;
        }
        if pairs > 0 {
            blocks.push((start, row, pairs));
        }
    }
    std::thread::scope(|s| {
        let mut rest: &mut [f64] = &mut dist;
        let fill = &fill_rows;
        for &(start, end, pairs) in &blocks {
            let (chunk, tail) = rest.split_at_mut(pairs);
            rest = tail;
            s.spawn(move || fill(start..end, chunk));
        }
    });
    dist
}

/// Ward heights are non-negative in exact arithmetic; the Lance–Williams
/// recurrence can produce `-0.0` or a cancellation-sized negative, which
/// would perturb canonical ordering between implementations. Clamp.
#[inline]
fn non_negative(height: f64) -> f64 {
    if height <= 0.0 {
        0.0
    } else {
        height
    }
}

/// Relative gap below which two dissimilarities count as tied. The chain
/// and the naive scan apply their Lance–Williams updates in different
/// orders, so one real tie can come out a few ulps apart in each, rounded
/// in opposite directions; this sits far above that noise and far below
/// any real gap between Ward heights.
const TIE_TOLERANCE: f64 = 1e-12;

/// The value a later candidate of an ascending scan must come in below to
/// beat the running minimum `best`: lower by more than [`TIE_TOLERANCE`],
/// so on a tie, exact or near, the earlier slot wins in both
/// implementations. Computed once per new minimum, so the scan still
/// makes one comparison per candidate.
#[inline]
fn tie_limit(best: f64) -> f64 {
    best - TIE_TOLERANCE * best.abs()
}

/// Ward clustering over weighted points via the nearest-neighbor-chain
/// algorithm. `weights[i]` is the multiplicity of point `i` (deduplicated
/// sources). O(n²) time, condensed-triangle memory; produces the same
/// canonical dendrogram as [`ward_cluster_naive`].
pub fn ward_cluster(vectors: &[TfVector], weights: &[f64]) -> Dendrogram {
    let n = vectors.len();
    assert_eq!(n, weights.len());
    if n == 0 {
        return Dendrogram::default();
    }
    let mut dist = ward_initial_condensed(vectors, weights);
    let mut active = vec![true; n];
    let mut size = weights.to_vec();
    let mut cluster_id: Vec<usize> = (0..n).collect();
    let mut merges = Vec::with_capacity(n.saturating_sub(1));
    let mut chain: Vec<usize> = Vec::with_capacity(n);

    for step in 0..n.saturating_sub(1) {
        if chain.is_empty() {
            if let Some(start) = (0..n).find(|&i| active[i]) {
                chain.push(start);
            }
        }
        // Grow the chain until a reciprocal nearest-neighbor pair appears.
        // Nearest-neighbor ties break toward the smallest slot index (the
        // ascending scan keeps the first minimum, see [`tie_limit`]), which
        // matches the naive implementation's row-major global scan. A
        // tolerance is not transitive, so a near-tie plateau could send
        // the walk round a cycle; a chain of `n` entries must hold one,
        // and its top then merges with its nearest neighbor.
        let (i, j) = loop {
            let top = chain[chain.len() - 1];
            let prev = if chain.len() >= 2 {
                Some(chain[chain.len() - 2])
            } else {
                None
            };
            let mut nn = usize::MAX;
            let mut limit = f64::INFINITY;
            for k in (0..n).filter(|&k| active[k] && k != top) {
                let d = cond_at(&dist, n, top, k);
                if d < limit {
                    limit = tie_limit(d);
                    nn = k;
                }
            }
            if prev == Some(nn) {
                chain.truncate(chain.len() - 2);
                break (top.min(nn), top.max(nn));
            }
            if chain.len() == n {
                chain.clear();
                break (top.min(nn), top.max(nn));
            }
            chain.push(nn);
        };
        // Lance–Williams update for Ward: merge j into i's slot.
        let height = non_negative(cond_at(&dist, n, i, j));
        let (si, sj) = (size[i], size[j]);
        for k in 0..n {
            if !active[k] || k == i || k == j {
                continue;
            }
            let sk = size[k];
            let dik = cond_at(&dist, n, i, k);
            let djk = cond_at(&dist, n, j, k);
            let updated = ((si + sk) * dik + (sj + sk) * djk - sk * height) / (si + sj + sk);
            dist[cond_index(n, i.min(k), i.max(k))] = updated;
        }
        active[j] = false;
        size[i] = si + sj;
        merges.push(Merge {
            a: cluster_id[i],
            b: cluster_id[j],
            height,
            size: si + sj,
        });
        cluster_id[i] = n + step;
    }
    Dendrogram {
        n,
        merges: canonicalize(n, merges),
    }
}

/// The pre-chain implementation: full square matrix, global minimum scan
/// at every step — O(n²) memory, O(n³) time. Kept as the oracle the
/// property tests compare [`ward_cluster`] against, and as the baseline of
/// the `cluster_scale` bench.
pub fn ward_cluster_naive(vectors: &[TfVector], weights: &[f64]) -> Dendrogram {
    let n = vectors.len();
    assert_eq!(n, weights.len());
    if n == 0 {
        return Dendrogram::default();
    }
    // full squared-distance matrix with Ward's weighted initial form
    let mut dist = vec![0.0f64; n * n];
    for i in 0..n {
        for j in (i + 1)..n {
            let d = ward_form(&vectors[i], &vectors[j], weights[i], weights[j]);
            dist[i * n + j] = d;
            dist[j * n + i] = d;
        }
    }
    let mut active: Vec<bool> = vec![true; n];
    let mut size: Vec<f64> = weights.to_vec();
    let mut cluster_id: Vec<usize> = (0..n).collect();
    let mut merges = Vec::with_capacity(n.saturating_sub(1));

    for step in 0..n.saturating_sub(1) {
        // globally closest active pair (first minimum in row-major order)
        let mut best = (usize::MAX, usize::MAX, f64::INFINITY);
        let mut limit = f64::INFINITY;
        for i in 0..n {
            if !active[i] {
                continue;
            }
            for j in (i + 1)..n {
                if !active[j] {
                    continue;
                }
                let d = dist[i * n + j];
                if d < limit {
                    limit = tie_limit(d);
                    best = (i, j, d);
                }
            }
        }
        let (i, j, height) = best;
        let height = non_negative(height);
        // Lance–Williams update for Ward: merge j into i's slot.
        let (si, sj) = (size[i], size[j]);
        for k in 0..n {
            if !active[k] || k == i || k == j {
                continue;
            }
            let sk = size[k];
            let dik = dist[i * n + k];
            let djk = dist[j * n + k];
            let updated = ((si + sk) * dik + (sj + sk) * djk - sk * height) / (si + sj + sk);
            dist[i * n + k] = updated;
            dist[k * n + i] = updated;
        }
        active[j] = false;
        size[i] = si + sj;
        merges.push(Merge {
            a: cluster_id[i],
            b: cluster_id[j],
            height,
            size: si + sj,
        });
        cluster_id[i] = n + step;
    }
    Dendrogram {
        n,
        merges: canonicalize(n, merges),
    }
}

/// Sort key of one merge in the canonical order: `(height, smaller child
/// min-leaf, larger child min-leaf)`, with the original position as a
/// final deterministic tiebreak. `(lo, hi)` pairs are unique within one
/// dendrogram (children have disjoint leaf sets), so the `idx` component
/// never decides between the outputs of two algorithms.
struct MergeKey {
    height: f64,
    lo: usize,
    hi: usize,
    idx: usize,
}

impl PartialEq for MergeKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for MergeKey {}
impl PartialOrd for MergeKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for MergeKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.height
            .total_cmp(&other.height)
            .then(self.lo.cmp(&other.lo))
            .then(self.hi.cmp(&other.hi))
            .then(self.idx.cmp(&other.idx))
    }
}

/// Rewrite a valid merge history into the canonical order: merges sorted
/// by [`MergeKey`], constrained so every cluster is created before it is
/// consumed (a lexicographic topological order), then relabelled to the
/// scipy `n + step` convention via an old-id → new-id map. Two histories
/// describing the same tree — e.g. the chain's and the naive scan's, which
/// record independent merges in different orders — canonicalize to the
/// same sequence, which is what makes `cut_at`/`cut_into` agree.
///
/// Heights stay attached to their merges, and because a parent merge is
/// never lower than its children (Ward is reducible), the canonical order
/// still has non-decreasing heights.
fn canonicalize(n: usize, merges: Vec<Merge>) -> Vec<Merge> {
    if merges.len() <= 1 {
        return merges;
    }
    let total = n + merges.len();
    // min leaf of every cluster id (leaves map to themselves)
    let mut min_leaf: Vec<usize> = (0..total).collect();
    for (step, m) in merges.iter().enumerate() {
        min_leaf[n + step] = min_leaf[m.a].min(min_leaf[m.b]);
    }
    // dependency bookkeeping: a merge is ready once both children exist
    let mut waiting: Vec<usize> = vec![0; merges.len()];
    let mut parent_of: Vec<Option<usize>> = vec![None; merges.len()];
    for (idx, m) in merges.iter().enumerate() {
        for child in [m.a, m.b] {
            if child >= n {
                waiting[idx] += 1;
                parent_of[child - n] = Some(idx);
            }
        }
    }
    let key = |idx: usize| {
        let m = &merges[idx];
        let (la, lb) = (min_leaf[m.a], min_leaf[m.b]);
        Reverse(MergeKey {
            height: m.height,
            lo: la.min(lb),
            hi: la.max(lb),
            idx,
        })
    };
    let mut ready: BinaryHeap<Reverse<MergeKey>> = (0..merges.len())
        .filter(|&idx| waiting[idx] == 0)
        .map(key)
        .collect();
    let mut remap: Vec<usize> = (0..total).collect();
    let mut out = Vec::with_capacity(merges.len());
    while let Some(Reverse(k)) = ready.pop() {
        let m = &merges[k.idx];
        remap[n + k.idx] = n + out.len();
        // canonical child order: the child containing the smaller leaf first
        let (a, b) = if min_leaf[m.a] <= min_leaf[m.b] {
            (m.a, m.b)
        } else {
            (m.b, m.a)
        };
        out.push(Merge {
            a: remap[a],
            b: remap[b],
            height: m.height,
            size: m.size,
        });
        if let Some(p) = parent_of[k.idx] {
            waiting[p] -= 1;
            if waiting[p] == 0 {
                ready.push(key(p));
            }
        }
    }
    debug_assert_eq!(out.len(), merges.len());
    out
}

#[cfg(test)]
mod tests {
    use super::super::tfvec::Vocabulary;
    use super::*;
    use decoy_base::rng::{for_all, Rng};

    fn vecs<P: AsRef<[f64]>>(points: &[P]) -> Vec<TfVector> {
        points
            .iter()
            .map(|p| TfVector::from_dense(p.as_ref().to_vec(), 1))
            .collect()
    }

    /// Relative float tolerance for merge heights: the two implementations
    /// record independent merges in different chronological orders, so the
    /// Lance–Williams updates round differently in the last bits.
    fn tol(h: f64) -> f64 {
        1e-9 * (1.0 + h.abs())
    }

    /// Every cluster a dendrogram ever forms, as its sorted leaf set with
    /// the merge height and weight. Order-free: equal outputs mean the two
    /// histories describe the exact same tree.
    fn leaf_sets(d: &Dendrogram) -> Vec<(Vec<usize>, f64, f64)> {
        let mut sets: Vec<Vec<usize>> = (0..d.n).map(|i| vec![i]).collect();
        let mut out = Vec::new();
        for m in &d.merges {
            let mut leaves = sets[m.a].clone();
            leaves.extend_from_slice(&sets[m.b]);
            leaves.sort_unstable();
            out.push((leaves.clone(), m.height, m.size));
            sets.push(leaves);
        }
        out.sort_by(|x, y| x.0.cmp(&y.0));
        out
    }

    /// Assert the two algorithms agree: identical tree (same leaf-set for
    /// every formed cluster), merge-height multisets equal within float
    /// noise, and identical `cut_at`/`cut_into` partitions. Thresholds and
    /// cluster counts that fall *inside* a noisy near-tie run are skipped —
    /// there the canonical order is decided by sub-1e-9 rounding and either
    /// ordering is a correct Ward dendrogram — but exact ties (bitwise
    /// equal heights, e.g. duplicate points merging at 0) are compared in
    /// full, because canonical ordering resolves them deterministically.
    fn assert_equivalent(vectors: &[TfVector], weights: &[f64], ctx: &str) {
        let chain = ward_cluster(vectors, weights);
        let naive = ward_cluster_naive(vectors, weights);
        assert_eq!(chain.n, naive.n, "{ctx}: leaf count");
        assert_eq!(chain.merges.len(), naive.merges.len(), "{ctx}: merge count");

        // same tree: every cluster ever formed has the same leaf set
        let (cs, ns) = (leaf_sets(&chain), leaf_sets(&naive));
        for (idx, (c, v)) in cs.iter().zip(&ns).enumerate() {
            assert_eq!(c.0, v.0, "{ctx}: cluster {idx} leaf set");
            assert!(
                (c.1 - v.1).abs() <= tol(c.1),
                "{ctx}: cluster {idx} height: {} vs {}",
                c.1,
                v.1
            );
            assert!((c.2 - v.2).abs() <= 1e-9, "{ctx}: cluster {idx} size");
        }
        // merge-height multisets agree (sorted heights pairwise close)
        let mut ch: Vec<f64> = chain.merges.iter().map(|m| m.height).collect();
        let mut nh: Vec<f64> = naive.merges.iter().map(|m| m.height).collect();
        ch.sort_by(f64::total_cmp);
        nh.sort_by(f64::total_cmp);
        for (c, v) in ch.iter().zip(&nh) {
            assert!((c - v).abs() <= tol(*c), "{ctx}: height multiset");
        }
        // heights are non-decreasing in canonical order
        for w in chain.merges.windows(2) {
            assert!(w[0].height <= w[1].height + 1e-12, "{ctx}: monotone");
        }

        // identical partitions at thresholds between near-tie classes
        let mut cuts: Vec<f64> = vec![-1.0];
        for w in chain.merges.windows(2) {
            if w[1].height - w[0].height > tol(w[1].height) {
                cuts.push((w[0].height + w[1].height) / 2.0);
            }
        }
        if let Some(last) = chain.merges.last() {
            cuts.push(last.height + 1.0);
        }
        for t in cuts {
            assert_eq!(chain.cut_at(t), naive.cut_at(t), "{ctx}: cut_at({t})");
        }
        // identical partitions for every k whose boundary is decidable:
        // outside any tie run, or inside an *exact* tie run (both impls
        // bitwise-agree on the boundary heights, so canonical (lo, hi)
        // ordering is the tiebreak in both)
        for k in 1..=chain.n {
            let boundary = chain.n - k; // first merge NOT applied
            let decidable = boundary == 0
                || boundary >= chain.merges.len()
                || chain.merges[boundary].height - chain.merges[boundary - 1].height
                    > tol(chain.merges[boundary].height)
                || (chain.merges[boundary].height == naive.merges[boundary].height
                    && chain.merges[boundary - 1].height == naive.merges[boundary - 1].height);
            if decidable {
                assert_eq!(chain.cut_into(k), naive.cut_into(k), "{ctx}: cut_into({k})");
            }
        }
    }

    #[test]
    fn condensed_index_layout() {
        let n = 5;
        let mut seen = vec![false; n * (n - 1) / 2];
        for i in 0..n {
            for j in (i + 1)..n {
                let idx = cond_index(n, i, j);
                assert!(!seen[idx], "({i},{j}) collides");
                seen[idx] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(cond_index(4, 0, 1), 0);
        assert_eq!(cond_index(4, 1, 2), 3);
        assert_eq!(cond_index(4, 2, 3), 5);
    }

    #[test]
    fn parallel_condensed_build_matches_serial() {
        // large enough to cross PARALLEL_MIN_POINTS
        let n = PARALLEL_MIN_POINTS + 37;
        let mut vocab = Vocabulary::new();
        let mut rng = Rng::seed_from_u64(0x5eed);
        let vectors: Vec<TfVector> = (0..n)
            .map(|_| {
                let len = rng.gen_range(1..=6);
                let doc: Vec<String> = (0..len)
                    .map(|_| format!("T{}", rng.gen_range(0..40)))
                    .collect();
                TfVector::from_terms(&doc, &mut vocab)
            })
            .collect();
        let weights: Vec<f64> = (0..n).map(|_| f64::from(rng.gen_range(1..=3))).collect();
        let parallel = ward_initial_condensed(&vectors, &weights);
        // serial reference via the naive full matrix
        for i in 0..n {
            for j in (i + 1)..n {
                let want = ward_form(&vectors[i], &vectors[j], weights[i], weights[j]);
                // bitwise equality: the parallel build runs the exact same
                // expression per entry, just on another thread
                assert_eq!(parallel[cond_index(n, i, j)], want, "entry ({i},{j})");
            }
        }
    }

    #[test]
    fn chain_matches_naive_on_plain_groups() {
        let vectors = vecs(&[&[0.0, 0.0], &[0.05, 0.0], &[1.0, 1.0], &[1.0, 0.95]]);
        assert_equivalent(&vectors, &[1.0; 4], "two tight pairs");
    }

    #[test]
    fn chain_matches_naive_on_tied_path() {
        // d(0,1) == d(1,2): the classic shared-node tie — different merge
        // choices give genuinely different trees, so the tiebreak must align
        let vectors = vecs(&[&[0.0], &[1.0], &[2.0]]);
        assert_equivalent(&vectors, &[1.0; 3], "tied path 0-1-2");
    }

    #[test]
    fn chain_matches_naive_on_tied_star() {
        // center 1 equidistant from 0, 2, 3
        let vectors = vecs(&[&[0.0, 1.0], &[0.0, 0.0], &[1.0, 0.0], &[-1.0, 0.0]]);
        assert_equivalent(&vectors, &[1.0; 4], "tied star");
    }

    #[test]
    fn chain_matches_naive_on_duplicates() {
        // duplicate points: zero-height ties everywhere
        let vectors = vecs(&[&[0.5], &[0.5], &[0.5], &[2.0], &[2.0], &[9.0]]);
        assert_equivalent(&vectors, &[1.0; 6], "duplicate triples");
    }

    #[test]
    fn chain_matches_naive_on_disjoint_tied_pairs() {
        // (0,1) and (2,3) tie at the same height; the chain may record
        // them in either order — canonicalization must line them up
        let vectors = vecs(&[&[0.0], &[1.0], &[10.0], &[11.0]]);
        assert_equivalent(&vectors, &[1.0; 4], "disjoint tied pairs");
    }

    #[test]
    fn chain_matches_naive_on_weighted_duplicates() {
        let vectors = vecs(&[&[0.0], &[0.0], &[1.0], &[1.0]]);
        assert_equivalent(&vectors, &[3.0, 1.0, 2.0, 5.0], "weighted duplicates");
    }

    /// TF vectors of documents given as term indices, term `k` being `T{k}`.
    fn documents(docs: &[Vec<u8>]) -> Vec<TfVector> {
        let mut vocab = Vocabulary::new();
        docs.iter()
            .map(|doc| {
                let terms: Vec<String> = doc.iter().map(|t| format!("T{t}")).collect();
                TfVector::from_terms(&terms, &mut vocab)
            })
            .collect()
    }

    /// Weighted points with coordinates drawn by `coord`.
    fn points(
        rng: &mut Rng,
        n: std::ops::Range<usize>,
        dims: std::ops::RangeInclusive<usize>,
        coord: impl Fn(&mut Rng) -> f64,
        weight: impl Fn(&mut Rng) -> f64,
    ) -> (Vec<Vec<f64>>, Vec<f64>) {
        let n = rng.gen_range(n);
        let dims = rng.gen_range(dims);
        let points = (0..n)
            .map(|_| (0..dims).map(|_| coord(rng)).collect())
            .collect();
        (points, (0..n).map(|_| weight(rng)).collect())
    }

    #[test]
    fn chain_matches_naive_on_random_sparse_documents() {
        // TF vectors from random short documents over a small term
        // alphabet: duplicates and tied distances arise constantly, the
        // exact regime of the real pipeline after masking.
        let gen = |rng: &mut Rng| {
            let n = rng.gen_range(2..30);
            let alphabet = rng.gen_range(2u8..8);
            let docs: Vec<Vec<u8>> = (0..n)
                .map(|_| {
                    let len = rng.gen_range(1..=4);
                    (0..len).map(|_| rng.gen_range(0..alphabet)).collect()
                })
                .collect();
            let weights: Vec<f64> = (0..n).map(|_| f64::from(rng.gen_range(1..=3))).collect();
            (docs, weights)
        };
        for_all(0xdec0_15ed, 256, gen, |(docs, weights)| {
            assert_equivalent(&documents(docs), weights, "sparse documents");
        });
    }

    #[test]
    fn chain_matches_naive_on_a_rounded_near_tie() {
        // At canonical merge 10 the chain joined clusters 23 and 25 at
        // 0.61111111111111105 and the naive scan 27 and 25 at
        // 0.61111111111111116: one tie in real arithmetic, which the two
        // update orders round apart, so a bitwise tie rule grew two trees.
        // Eighteen documents, one word each, digit `k` standing for `T{k}`:
        let words = "2 30 0004 1200 03 0113 20 14 4142 2422 202 3104 140 3204 3 01 22 0";
        let docs: Vec<Vec<u8>> = words
            .split(' ')
            .map(|doc| doc.bytes().map(|d| d - b'0').collect())
            .collect();
        let weights = [1, 2, 2, 2, 2, 2, 3, 2, 1, 1, 3, 1, 1, 1, 3, 2, 3, 1].map(f64::from);
        assert_equivalent(&documents(&docs), &weights, "near tie");
    }

    #[test]
    fn chain_matches_naive_on_random_continuous_points() {
        // no exact ties: the full partition comparison applies at almost
        // every threshold
        let gen = |rng: &mut Rng| points(rng, 2..26, 1..=4, Rng::unit, |r| r.gen_range(1.0..5.0));
        for_all(0xfeed_beef, 256, gen, |(points, weights)| {
            assert_equivalent(&vecs(points), weights, "continuous points");
        });
    }

    #[test]
    fn chain_matches_naive_on_grid_points() {
        // coordinates restricted to a coarse grid force exact ties in the
        // *initial* matrix, not just at height zero
        let gen = |rng: &mut Rng| {
            points(
                rng,
                2..22,
                1..=3,
                |r| f64::from(r.gen_range(0..4)) * 0.25,
                |r| f64::from(r.gen_range(1..=2)),
            )
        };
        for_all(0x900d, 256, gen, |(points, weights)| {
            assert_equivalent(&vecs(points), weights, "grid points");
        });
    }

    #[test]
    fn chain_matches_naive_on_duplicated_points() {
        // every point sits on one of three sites, so zero-height exact-tie
        // merges dominate
        const SITES: [[f64; 2]; 3] = [[0.0, 0.0], [1.0, 0.5], [0.25, 2.0]];
        let gen = |rng: &mut Rng| {
            let n = rng.gen_range(2..24);
            let picks: Vec<usize> = (0..n).map(|_| rng.gen_range(0..3)).collect();
            let weights: Vec<f64> = (0..n).map(|_| f64::from(rng.gen_range(1..=4))).collect();
            (picks, weights)
        };
        for_all(0xd0_0b1e, 256, gen, |(picks, weights)| {
            let points: Vec<[f64; 2]> = picks.iter().map(|&s| SITES[s]).collect();
            assert_equivalent(&vecs(&points), weights, "duplicated points");
        });
    }

    #[test]
    fn ward_heights_are_monotone() {
        let gen = |rng: &mut Rng| points(rng, 2..24, 3..=3, Rng::unit, |_| 1.0).0;
        for_all(0x3070_7013, 256, gen, |points| {
            let d = ward_cluster(&vecs(points), &vec![1.0; points.len()]);
            assert_eq!(d.merges.len(), d.n - 1);
            for w in d.merges.windows(2) {
                assert!(w[0].height <= w[1].height + 1e-9);
            }
            // cutting into k clusters yields exactly k labels
            for k in 1..=d.n.min(4) {
                let labels = d.cut_into(k);
                let distinct: std::collections::HashSet<_> = labels.iter().collect();
                assert_eq!(distinct.len(), k);
            }
        });
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let d = ward_cluster(&[], &[]);
        assert_eq!(d.n, 0);
        assert!(d.merges.is_empty());
        let d = ward_cluster(&vecs(&[&[1.0]]), &[1.0]);
        assert_eq!(d.n, 1);
        assert!(d.merges.is_empty());
        assert_eq!(d.cut_at(0.0), vec![0]);
        let d = ward_cluster_naive(&[], &[]);
        assert_eq!(d.n, 0);
    }

    #[test]
    fn canonical_child_order_is_min_leaf_first() {
        let vectors = vecs(&[&[10.0], &[0.0], &[0.1]]);
        let d = ward_cluster(&vectors, &[1.0; 3]);
        // first merge joins leaves 1 and 2; child a holds the smaller leaf
        assert_eq!(d.merges[0].a, 1);
        assert_eq!(d.merges[0].b, 2);
        // second merge joins leaf 0 with cluster 3; 0 is the smaller min-leaf
        assert_eq!(d.merges[1].a, 0);
        assert_eq!(d.merges[1].b, 3);
    }
}
