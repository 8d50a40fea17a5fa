//! Subsequence similarity search (the paper's stated future work,
//! following the ULISSE line it cites).
//!
//! Given one or more *long* sequences, find the z-normalized
//! length-`w` subsequence closest to a length-`w` query. The classic
//! reduction — index every sliding window as its own z-normalized series
//! and run whole-matching search — is implemented here: a
//! [`SubsequenceIndex`] materializes the windows (optionally strided),
//! maps window ids back to `(sequence, offset)` positions, and exposes
//! exact/k-NN search over them through the ordinary [`Index`] machinery.
//! Overlapping-window *trivial matches* can be suppressed with an
//! exclusion radius, as in matrix-profile practice.

use crate::index::{Index, IndexConfig};
use crate::search::answer::Answer;
use crate::search::engine::BatchEngine;
use crate::search::exact::SearchParams;
use crate::series::{znormalize, DatasetBuffer};
use std::sync::Arc;

/// A position inside the original long-sequence collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowRef {
    /// Index of the source sequence.
    pub sequence: usize,
    /// Offset of the window's first point within that sequence.
    pub offset: usize,
}

/// A whole-matching index over the sliding windows of long sequences.
#[derive(Debug)]
pub struct SubsequenceIndex {
    index: Arc<Index>,
    refs: Vec<WindowRef>,
    window: usize,
}

impl SubsequenceIndex {
    /// Builds the index over all windows of length `window`, taken every
    /// `stride` points, from each sequence in `sequences`.
    ///
    /// # Panics
    /// Panics when `window == 0`, `stride == 0`, or no sequence is long
    /// enough to contain a single window.
    pub fn build<S: AsRef<[f32]>>(
        sequences: &[S],
        window: usize,
        stride: usize,
        n_threads: usize,
    ) -> Self {
        assert!(window > 0 && stride > 0);
        let mut data = Vec::new();
        let mut refs = Vec::new();
        let mut buf = vec![0.0f32; window];
        for (si, seq) in sequences.iter().enumerate() {
            let seq = seq.as_ref();
            if seq.len() < window {
                continue;
            }
            let mut off = 0;
            while off + window <= seq.len() {
                buf.copy_from_slice(&seq[off..off + window]);
                znormalize(&mut buf);
                data.extend_from_slice(&buf);
                refs.push(WindowRef {
                    sequence: si,
                    offset: off,
                });
                off += stride;
            }
        }
        assert!(
            !refs.is_empty(),
            "no sequence is long enough for a {window}-point window"
        );
        let cfg = IndexConfig::new(window)
            .with_segments(16.min(window))
            .with_leaf_capacity(128);
        let index = Index::build(DatasetBuffer::from_vec(data, window), cfg, n_threads);
        SubsequenceIndex {
            index: Arc::new(index),
            refs,
            window,
        }
    }

    /// The window length.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Number of indexed windows.
    pub fn num_windows(&self) -> usize {
        self.refs.len()
    }

    /// The underlying whole-matching index.
    pub fn index(&self) -> &Index {
        &self.index
    }

    /// The source position of window id `w`.
    pub fn window_ref(&self, w: u32) -> WindowRef {
        self.refs[w as usize]
    }

    /// Exact best-match search: the z-normalized window closest to the
    /// (z-normalized) query. Returns the answer plus its source position.
    ///
    /// # Panics
    /// Panics if the query length differs from the window length.
    pub fn best_match(&self, query: &[f32], n_threads: usize) -> (Answer, WindowRef) {
        assert_eq!(query.len(), self.window, "query/window length mismatch");
        let q = crate::series::znormalized(query);
        let engine = BatchEngine::new(Arc::clone(&self.index), n_threads);
        let out = engine.exact(&q, &SearchParams::new(n_threads));
        let id = out.answer.series_id.expect("non-empty index");
        (out.answer, self.refs[id as usize])
    }

    /// The `k` best matches whose windows are pairwise non-trivial: two
    /// matches from the same sequence must differ in offset by at least
    /// `exclusion` points (use `exclusion = window / 2` for the common
    /// matrix-profile convention; `0` disables the filter).
    pub fn top_matches(
        &self,
        query: &[f32],
        k: usize,
        exclusion: usize,
        n_threads: usize,
    ) -> Vec<(f64, WindowRef)> {
        assert_eq!(query.len(), self.window);
        let q = crate::series::znormalized(query);
        // Over-fetch, then greedily keep non-trivial matches. The factor
        // bounds how many overlapping windows one true match can spawn.
        let overfetch = k * (2 * exclusion / self.window.max(1) + 4);
        let engine = BatchEngine::new(Arc::clone(&self.index), n_threads);
        let (knn, _) = engine.knn(
            &q,
            overfetch.min(self.num_windows()),
            &SearchParams::new(n_threads),
        );
        let mut kept: Vec<(f64, WindowRef)> = Vec::with_capacity(k);
        for &(d_sq, id) in &knn.neighbors {
            let r = self.refs[id as usize];
            let trivial = kept.iter().any(|&(_, kr)| {
                kr.sequence == r.sequence && kr.offset.abs_diff(r.offset) < exclusion.max(1)
            });
            if !trivial || exclusion == 0 {
                kept.push((d_sq, r));
                if kept.len() == k {
                    break;
                }
            }
        }
        kept
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::euclidean_sq;

    fn long_sequence(len: usize, seed: u64) -> Vec<f32> {
        let mut x = seed | 1;
        let mut acc = 0.0f32;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                acc += ((x % 2000) as f32 / 1000.0) - 1.0;
                acc
            })
            .collect()
    }

    #[test]
    fn finds_planted_pattern() {
        // Plant an exact copy of the query inside a long sequence.
        let mut seq = long_sequence(2000, 7);
        let pattern = long_sequence(64, 99);
        seq[500..564].copy_from_slice(&pattern[..64]);
        let idx = SubsequenceIndex::build(&[seq], 64, 1, 2);
        let (ans, r) = idx.best_match(&pattern[..64], 2);
        assert_eq!(r.offset, 500);
        assert_eq!(r.sequence, 0);
        assert!(ans.distance < 1e-4, "distance {}", ans.distance);
    }

    #[test]
    fn best_match_equals_brute_force_over_windows() {
        let seqs = vec![long_sequence(800, 3), long_sequence(600, 5)];
        let w = 48;
        let idx = SubsequenceIndex::build(&seqs, w, 1, 2);
        let query = long_sequence(w, 21);
        let qz = crate::series::znormalized(&query);
        // Brute force over all z-normalized windows.
        let mut best = f64::INFINITY;
        for seq in &seqs {
            for off in 0..=(seq.len() - w) {
                let wz = crate::series::znormalized(&seq[off..off + w]);
                best = best.min(euclidean_sq(&qz, &wz));
            }
        }
        let (ans, _) = idx.best_match(&query, 2);
        assert!((ans.distance_sq - best).abs() < 1e-6);
    }

    #[test]
    fn stride_reduces_window_count() {
        let seq = long_sequence(1000, 9);
        let dense = SubsequenceIndex::build(std::slice::from_ref(&seq), 64, 1, 1);
        let sparse = SubsequenceIndex::build(&[seq], 64, 8, 1);
        assert_eq!(dense.num_windows(), 1000 - 64 + 1);
        assert_eq!(sparse.num_windows(), (1000 - 64) / 8 + 1);
    }

    #[test]
    fn top_matches_respect_exclusion() {
        let mut seq = long_sequence(3000, 11);
        let pattern = long_sequence(64, 77);
        // Plant the pattern at two distant spots.
        seq[400..464].copy_from_slice(&pattern[..64]);
        seq[2000..2064].copy_from_slice(&pattern[..64]);
        let idx = SubsequenceIndex::build(&[seq], 64, 1, 2);
        let matches = idx.top_matches(&pattern[..64], 2, 32, 2);
        assert_eq!(matches.len(), 2);
        let offs: Vec<usize> = matches.iter().map(|m| m.1.offset).collect();
        assert!(offs.contains(&400), "offsets: {offs:?}");
        assert!(offs.contains(&2000), "offsets: {offs:?}");
        // Without exclusion the two best matches are the exact plants
        // (both at distance ~0), order unconstrained.
        let trivial = idx.top_matches(&pattern[..64], 2, 0, 2);
        assert!(trivial.iter().all(|&(d, _)| d < 1e-6));
    }

    #[test]
    fn short_sequences_are_skipped() {
        let seqs = vec![long_sequence(10, 1), long_sequence(200, 2)];
        let idx = SubsequenceIndex::build(&seqs, 64, 1, 1);
        assert!(idx.num_windows() > 0);
        assert!((0..idx.num_windows() as u32).all(|w| idx.window_ref(w).sequence == 1));
    }

    #[test]
    #[should_panic(expected = "long enough")]
    fn all_too_short_panics() {
        let seqs = vec![long_sequence(10, 1)];
        SubsequenceIndex::build(&seqs, 64, 1, 1);
    }
}
