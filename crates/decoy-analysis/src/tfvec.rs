//! Term-frequency vector and vocabulary types (§6.1), dependency-free.
//!
//! This module is deliberately std-only (no store/frame imports), so the
//! clustering core compiles and tests on its own. The public surface is
//! re-exported through [`crate::tf`].
//!
//! Real attacker documents touch a handful of the vocabulary's terms, so
//! [`TfVector`] stores sorted `(term_index, tf)` pairs and computes squared
//! Euclidean distances with a two-pointer merge walk — O(nnz) instead of
//! O(|vocab|). Vectors built from raw coordinate arrays (tests, benches,
//! ablations) keep their nonzero coordinates the same way.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Bidirectional term ↔ index mapping shared by a set of documents.
///
/// Each distinct term is allocated once as an `Arc<str>` shared by the
/// `index` map and the `terms` table; indices are assigned in first-seen
/// order, so interning the same document stream always yields the same
/// deterministic indices.
#[derive(Debug, Default, Clone)]
pub struct Vocabulary {
    terms: Vec<Arc<str>>,
    index: HashMap<Arc<str>, usize>,
}

impl Vocabulary {
    /// Empty vocabulary.
    pub fn new() -> Self {
        Vocabulary::default()
    }

    /// Index of `term`, inserting it if new.
    pub fn intern(&mut self, term: &str) -> usize {
        if let Some(&i) = self.index.get(term) {
            return i;
        }
        let shared: Arc<str> = Arc::from(term);
        let i = self.terms.len();
        self.terms.push(Arc::clone(&shared));
        self.index.insert(shared, i);
        i
    }

    /// Index of `term` if known.
    pub fn get(&self, term: &str) -> Option<usize> {
        self.index.get(term).copied()
    }

    /// The term at `index`.
    pub fn term(&self, index: usize) -> Option<&str> {
        self.terms.get(index).map(|t| &**t)
    }

    /// Number of distinct terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True when no terms have been interned.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }
}

/// A TF vector over a [`Vocabulary`].
///
/// Missing dimensions are implicitly zero, so a vector built before the
/// vocabulary grew compares correctly against one built after. Two vectors
/// are equal when their documents have the same length and they have the
/// same nonzero coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct TfVector {
    /// Nonzero coordinates as `(term_index, tf)`, strictly sorted by index.
    entries: Vec<(usize, f64)>,
    /// Total number of terms in the underlying document.
    pub total_terms: usize,
}

impl TfVector {
    /// Build from a document (sequence of terms), interning new terms.
    /// Generic over the term representation so owned `String` documents and
    /// `&str` terms borrowed from the frame vectorize identically. The
    /// result is sparse: one entry per distinct term.
    pub fn from_terms<T: AsRef<str>>(terms: &[T], vocab: &mut Vocabulary) -> Self {
        let mut counts: BTreeMap<usize, f64> = BTreeMap::new();
        for term in terms {
            *counts.entry(vocab.intern(term.as_ref())).or_insert(0.0) += 1.0;
        }
        let total = terms.len().max(1) as f64;
        let entries = counts.into_iter().map(|(i, c)| (i, c / total)).collect();
        TfVector {
            entries,
            total_terms: terms.len(),
        }
    }

    /// Build from raw dense coordinates (tests, benches, ablations),
    /// keeping the nonzero ones.
    pub fn from_dense(values: Vec<f64>, total_terms: usize) -> Self {
        TfVector {
            entries: values
                .into_iter()
                .enumerate()
                .filter(|&(_, v)| v != 0.0)
                .collect(),
            total_terms,
        }
    }

    /// The coordinate at `index` (zero when absent).
    pub fn value(&self, index: usize) -> f64 {
        self.entries
            .binary_search_by_key(&index, |&(i, _)| i)
            .map(|pos| self.entries[pos].1)
            .unwrap_or(0.0)
    }

    /// Number of stored nonzero coordinates.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Nonzero coordinates as `(index, value)`, in ascending index order.
    pub fn nonzero(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.entries.iter().copied()
    }

    /// Squared Euclidean distance, treating missing dimensions as zero: a
    /// two-pointer merge walk over the nonzero entries, O(nnz(a) + nnz(b)).
    pub fn distance_sq(&self, other: &TfVector) -> f64 {
        let (a, b) = (&self.entries, &other.entries);
        let (mut i, mut j) = (0, 0);
        let mut sum = 0.0;
        while i < a.len() && j < b.len() {
            let (ia, va) = a[i];
            let (ib, vb) = b[j];
            match ia.cmp(&ib) {
                std::cmp::Ordering::Less => {
                    sum += va * va;
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    sum += vb * vb;
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    let d = va - vb;
                    sum += d * d;
                    i += 1;
                    j += 1;
                }
            }
        }
        sum += a[i..].iter().map(|&(_, v)| v * v).sum::<f64>();
        sum += b[j..].iter().map(|&(_, v)| v * v).sum::<f64>();
        sum
    }

    /// Euclidean distance.
    pub fn distance(&self, other: &TfVector) -> f64 {
        self.distance_sq(other).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decoy_base::rng::{for_all, Rng};

    fn terms(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn tf_matches_paper_definition() {
        let mut vocab = Vocabulary::new();
        // document: [SET, SET, GET] → tf(SET)=2/3, tf(GET)=1/3
        let v = TfVector::from_terms(&terms(&["SET", "SET", "GET"]), &mut vocab);
        assert_eq!(v.total_terms, 3);
        assert!((v.value(vocab.get("SET").unwrap()) - 2.0 / 3.0).abs() < 1e-12);
        assert!((v.value(vocab.get("GET").unwrap()) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(v.nnz(), 2);
    }

    #[test]
    fn empty_document_is_zero_vector() {
        let mut vocab = Vocabulary::new();
        vocab.intern("SET");
        let v = TfVector::from_terms::<String>(&[], &mut vocab);
        assert_eq!(v.total_terms, 0);
        assert_eq!(v.nnz(), 0);
        assert_eq!(v.value(0), 0.0);
    }

    #[test]
    fn distances_tolerate_vocabulary_growth() {
        let mut vocab = Vocabulary::new();
        let a = TfVector::from_terms(&terms(&["SET"]), &mut vocab);
        let b = TfVector::from_terms(&terms(&["GET"]), &mut vocab);
        // a was built before GET existed; zero extension still applies
        assert!((a.distance_sq(&b) - 2.0).abs() < 1e-12);
        assert!((a.distance(&b) - 2.0_f64.sqrt()).abs() < 1e-12);
        // identical documents are at distance zero regardless of when built
        let a2 = TfVector::from_terms(&terms(&["SET"]), &mut vocab);
        assert_eq!(a.distance_sq(&a2), 0.0);
        assert_eq!(a, a2);
    }

    #[test]
    fn hash_variant_sequences_vectorize_identically() {
        // The motivating example of §6.1: DELETE /tmp/hash1 vs hash2 —
        // after masking both are the same term, so TF vectors coincide.
        let mut vocab = Vocabulary::new();
        let doc1 = terms(&["DELETE /tmp/<HASH>", "LOGIN"]);
        let doc2 = terms(&["DELETE /tmp/<HASH>", "LOGIN"]);
        let v1 = TfVector::from_terms(&doc1, &mut vocab);
        let v2 = TfVector::from_terms(&doc2, &mut vocab);
        assert_eq!(v1.distance_sq(&v2), 0.0);
        assert_eq!(v1, v2);
    }

    #[test]
    fn vocabulary_intern_is_idempotent() {
        let mut vocab = Vocabulary::new();
        let a = vocab.intern("INFO");
        let b = vocab.intern("INFO");
        assert_eq!(a, b);
        assert_eq!(vocab.len(), 1);
        assert_eq!(vocab.term(0), Some("INFO"));
        assert_eq!(vocab.term(1), None);
        assert!(!vocab.is_empty());
    }

    #[test]
    fn vocabulary_indices_are_deterministic() {
        let stream = ["GET", "SET", "DEL", "SET", "INFO", "GET"];
        let mut a = Vocabulary::new();
        let mut b = Vocabulary::new();
        for t in stream {
            a.intern(t);
        }
        for t in stream {
            b.intern(t);
        }
        for t in stream {
            assert_eq!(a.get(t), b.get(t));
        }
        assert_eq!(a.len(), 4);
        assert_eq!(a.get("GET"), Some(0));
        assert_eq!(a.get("SET"), Some(1));
        assert_eq!(a.get("DEL"), Some(2));
        assert_eq!(a.get("INFO"), Some(3));
    }

    #[test]
    fn dense_and_sparse_distances_agree() {
        // the merge walk over vectors built from dense coordinates equals
        // the dense formula: the common prefix, then the longer tail
        let gen = |rng: &mut Rng| -> [Vec<f64>; 2] {
            std::array::from_fn(|_| {
                (0..rng.gen_range(0..12))
                    .map(|_| match rng.gen_range(0..3) {
                        0 => 0.0,
                        _ => rng.gen_range(-1.0..1.0),
                    })
                    .collect()
            })
        };
        for_all(0x7f1, 256, gen, |[a, b]| {
            let common = a.len().min(b.len());
            let dense = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>()
                + a[common..]
                    .iter()
                    .chain(&b[common..])
                    .map(|v| v * v)
                    .sum::<f64>();
            let (x, y) = (
                TfVector::from_dense(a.clone(), 1),
                TfVector::from_dense(b.clone(), 1),
            );
            assert!((x.distance_sq(&y) - dense).abs() < 1e-12);
            assert!((y.distance_sq(&x) - dense).abs() < 1e-12);
        });

        // a document's terms and its dense coordinates build one vector
        let dense = TfVector::from_dense(vec![0.5, 0.0, 0.25, 0.0, 0.25], 4);
        let mut vocab = Vocabulary::new();
        for t in ["A", "B", "C", "D", "E"] {
            vocab.intern(t);
        }
        let sparse = TfVector::from_terms(&terms(&["A", "A", "C", "E"]), &mut vocab);
        assert_eq!(dense, sparse);
        assert_eq!(dense.nnz(), 3);
        assert_eq!(dense.distance_sq(&sparse), 0.0);
    }

    #[test]
    fn dense_tail_handles_both_sides() {
        let short = TfVector::from_dense(vec![1.0], 1);
        let long = TfVector::from_dense(vec![0.0, 0.0, 2.0], 1);
        assert!((short.distance_sq(&long) - 5.0).abs() < 1e-12);
        assert!((long.distance_sq(&short) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn equality_ignores_trailing_zeros_and_representation() {
        let a = TfVector::from_dense(vec![0.5, 0.0], 2);
        let b = TfVector::from_dense(vec![0.5], 2);
        assert_eq!(a, b);
        let c = TfVector::from_dense(vec![0.5], 3);
        assert_ne!(a, c); // different document length
    }

    #[test]
    fn tf_vectors_are_distributions() {
        let gen = |rng: &mut Rng| -> Vec<String> {
            (0..rng.gen_range(0..32))
                .map(|_| {
                    let len = rng.gen_range(1..=6);
                    (0..len)
                        .map(|_| char::from(rng.gen_range(b'A'..=b'Z')))
                        .collect()
                })
                .collect()
        };
        for_all(0x7f0, 256, gen, |terms| {
            let mut vocab = Vocabulary::new();
            let v = TfVector::from_terms(terms, &mut vocab);
            let sum: f64 = v.nonzero().map(|(_, x)| x).sum();
            if terms.is_empty() {
                assert_eq!(sum, 0.0);
            } else {
                assert!((sum - 1.0).abs() < 1e-9, "tf sums to 1, got {sum}");
            }
            assert!(v.nonzero().all(|(_, x)| (0.0..=1.0).contains(&x)));
        });
    }
}
