//! Exact DTW similarity search (Section 4, "DTW Distance").
//!
//! "No changes are required in the index structure for this: the index we
//! build can answer both Euclidean and DTW similarity search queries."
//! Only the kernel changes:
//!
//! * **node / per-series lower bound** — the distance between the iSAX
//!   region of a candidate and the *LB_Keogh envelope* of the query. For
//!   segment `i` we compare the envelope's per-segment hull
//!   `[Lmin_i, Umax_i]` (the min of the lower / max of the upper envelope
//!   over the segment) against the region's breakpoint interval: any gap
//!   lower-bounds the pointwise envelope distance and hence, by LB_Keogh,
//!   the DTW distance.
//! * **real distance** — LB_Keogh on the raw candidate first (cheap,
//!   early-abandoning), then banded DTW on survivors.

use super::answer::Answer;
use super::bsf::{ResultSet, SharedBsf, SharedKnn};
use super::kernel::QueryKernel;
use crate::distance::{dtw_banded, keogh_envelope_reusing, lb_keogh_sq, LbKeoghEnvelope};
use crate::index::Index;
use crate::paa::segment_bounds;
use crate::sax::{MindistTable, WordRef};

/// The DTW query kernel: envelope, per-segment envelope hull, window.
///
/// Like [`super::kernel::EdKernel`], construction folds the hull and
/// the breakpoints into a per-query [`MindistTable`]: the envelope of
/// segment `i` is `[min lower, max upper]` over the segment's points,
/// so every table-based bound equals the interval-gap arithmetic the
/// kernel previously evaluated per candidate — and stays below
/// LB_Keogh, hence below DTW (the soundness chain).
#[derive(Debug)]
pub struct DtwKernel<'q> {
    query: &'q [f32],
    env: LbKeoghEnvelope,
    table: MindistTable,
    window: usize,
}

thread_local! {
    /// Recycled envelope buffers for [`DtwKernel`] construction: a
    /// thread seeding DTW queries back to back (the batch engine's
    /// submitter, a lane's rank-0 worker, a cluster node's estimator)
    /// reuses one pair of allocations instead of allocating two vectors
    /// per query — the last piece of the "cleared, not reallocated"
    /// story (the Lemire deques and DTW band rows are already
    /// thread-local). Refilled by `DtwKernel`'s `Drop`.
    static ENVELOPE_BUFS: std::cell::Cell<Option<(Vec<f32>, Vec<f32>)>> =
        const { std::cell::Cell::new(None) };
}

impl Drop for DtwKernel<'_> {
    fn drop(&mut self) {
        let upper = std::mem::take(&mut self.env.upper);
        let lower = std::mem::take(&mut self.env.lower);
        ENVELOPE_BUFS.set(Some((upper, lower)));
    }
}

impl<'q> DtwKernel<'q> {
    /// Builds the kernel for `query` with a Sakoe-Chiba band of
    /// half-width `window` points, under `segments` iSAX segments.
    pub fn new(query: &'q [f32], window: usize, segments: usize) -> Self {
        let (upper, lower) = ENVELOPE_BUFS.take().unwrap_or_default();
        let env = keogh_envelope_reusing(query, window, upper, lower);
        let n = query.len();
        let mut seg_upper = vec![0.0f64; segments];
        let mut seg_lower = vec![0.0f64; segments];
        for i in 0..segments {
            let (s, e) = segment_bounds(n, segments, i);
            seg_upper[i] = env.upper[s..e].iter().cloned().fold(f32::MIN, f32::max) as f64;
            seg_lower[i] = env.lower[s..e].iter().cloned().fold(f32::MAX, f32::min) as f64;
        }
        let table = MindistTable::from_envelope(&seg_lower, &seg_upper, n);
        DtwKernel {
            query,
            env,
            table,
            window,
        }
    }

    /// The warping window in points.
    pub fn window(&self) -> usize {
        self.window
    }
}

impl QueryKernel for DtwKernel<'_> {
    #[inline]
    fn node_lb_sq(&self, word: WordRef<'_>) -> f64 {
        self.table.word_lb_sq(word)
    }

    #[inline]
    fn series_lb_sq(&self, sax: &[u8]) -> f64 {
        self.table.series_lb_sq(sax)
    }

    #[inline]
    fn lb_block_sq(&self, sax_block: &[u8], segments: usize, out: &mut [f64]) {
        debug_assert_eq!(segments, self.table.segments());
        self.table.block_lb_sq(sax_block, out);
    }

    #[inline]
    fn root_lb_block(
        &self,
        _forest: &crate::tree::Forest,
        roots: &crate::tree::RootSoa,
        range: std::ops::Range<usize>,
        out: &mut [f64],
    ) {
        self.table.root_lb_block(roots, range, out);
    }

    fn distance_sq(&self, candidate: &[f32], threshold_sq: f64) -> Option<f64> {
        // Tight raw-data filter first, then the full banded DTW.
        lb_keogh_sq(&self.env, candidate, threshold_sq)?;
        dtw_banded(self.query, candidate, self.window, threshold_sq)
    }
}

/// Descends to the approximate-search leaf and returns the best *DTW*
/// squared distance inside it plus the series id (the initial BSF for
/// DTW queries). Public so the distributed layer can seed per-node BSFs.
pub fn approx_dtw(index: &Index, kernel: &DtwKernel) -> (f64, Option<u32>) {
    let Some(leaf) = index.seed_leaf(&kernel.table, None) else {
        return (f64::INFINITY, None);
    };
    let layout = index.layout();
    let mut best = f64::INFINITY;
    let mut best_id = None;
    for p in leaf.range() {
        if let Some(d) = dtw_banded(kernel.query, layout.series(p), kernel.window, best) {
            if d < best {
                best = d;
                best_id = Some(layout.original_id(p));
            }
        }
    }
    (best, best_id)
}

/// Builds the DTW kernel and an approx-seeded [`SharedBsf`] — the DTW
/// analogue of [`super::exact::seed_ed`], shared by the batch engine and
/// the approximate answer.
pub(crate) fn seed_dtw<'q>(
    index: &Index,
    query: &'q [f32],
    window: usize,
) -> (DtwKernel<'q>, SharedBsf, f64) {
    let kernel = DtwKernel::new(query, window, index.config().segments);
    let (init_sq, init_id) = approx_dtw(index, &kernel);
    (kernel, SharedBsf::new(init_sq, init_id), init_sq.sqrt())
}

/// Builds the DTW kernel and a [`SharedKnn`] holding the `k` smallest
/// DTW distances of the most promising leaf — the seed of a DTW k-NN
/// search. The returned seed bound is the rooted k-th seed distance:
/// infinite when the leaf holds fewer than `k` series.
pub(crate) fn seed_dtw_knn<'q>(
    index: &Index,
    query: &'q [f32],
    window: usize,
    k: usize,
) -> (DtwKernel<'q>, SharedKnn, f64) {
    let kernel = DtwKernel::new(query, window, index.config().segments);
    let knn = SharedKnn::new(k);
    if let Some(leaf) = index.seed_leaf(&kernel.table, None) {
        let layout = index.layout();
        for p in leaf.range() {
            if let Some(d) = dtw_banded(query, layout.series(p), window, knn.threshold_sq()) {
                knn.offer(d, layout.original_id(p));
            }
        }
    }
    let initial = knn.threshold_sq().sqrt();
    (kernel, knn, initial)
}

/// Brute-force DTW 1-NN oracle. Scans in scan order and keeps the
/// smallest `(distance, original id)`, so ties resolve to the lowest id
/// as a scan in id order would; `dtw_banded` abandons only strictly
/// above `best`, so a tie with a lower id still completes.
pub fn dtw_brute_force(index: &Index, query: &[f32], window: usize) -> Answer {
    let layout = index.layout();
    let mut best = f64::INFINITY;
    let mut best_id = None;
    for p in 0..index.num_series() {
        if let Some(d) = dtw_banded(query, layout.series(p), window, best) {
            let id = layout.original_id(p);
            if crate::index::beats(d, id, best, best_id) {
                best = d;
                best_id = Some(id);
            }
        }
    }
    Answer::from_sq(best, best_id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexConfig;
    use crate::sax::IsaxWord;
    use crate::search::engine::BatchEngine;
    use crate::search::exact::SearchParams;
    use crate::series::DatasetBuffer;
    use std::sync::Arc;

    fn walk_dataset(n: usize, len: usize, seed: u64) -> DatasetBuffer {
        let mut x = seed | 1;
        let mut data = Vec::with_capacity(n * len);
        for _ in 0..n {
            let mut acc = 0.0f32;
            let mut s = Vec::with_capacity(len);
            for _ in 0..len {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                acc += ((x % 2000) as f32 / 1000.0) - 1.0;
                s.push(acc);
            }
            crate::series::znormalize(&mut s);
            data.extend_from_slice(&s);
        }
        DatasetBuffer::from_vec(data, len)
    }

    fn build(n: usize) -> Arc<Index> {
        Arc::new(Index::build(
            walk_dataset(n, 64, 21),
            IndexConfig::new(64).with_segments(8).with_leaf_capacity(16),
            2,
        ))
    }

    #[test]
    fn dtw_kernel_soundness_chain() {
        // node_lb <= series_lb <= LB_Keogh <= DTW for random candidates.
        let q = walk_dataset(1, 64, 777).series(0).to_vec();
        let kernel = DtwKernel::new(&q, 3, 8);
        for seed in 0..8u64 {
            let c = walk_dataset(1, 64, 1000 + seed).series(0).to_vec();
            let cpaa = crate::paa::paa(&c, 8);
            let mut sax = vec![0u8; 8];
            crate::sax::sax_word_into(&cpaa, &mut sax);
            let dtw = dtw_banded(&q, &c, 3, f64::INFINITY).expect("no threshold");
            let series_lb = kernel.series_lb_sq(&sax);
            assert!(series_lb <= dtw + 1e-6, "seed={seed}: {series_lb} > {dtw}");
            for bits in 1..=crate::sax::MAX_CARD_BITS {
                let word = IsaxWord::from_sax(&sax, bits);
                let node_lb = kernel.node_lb_sq(word.view());
                assert!(node_lb <= series_lb + 1e-9, "bits={bits}");
            }
        }
    }

    #[test]
    fn dtw_search_matches_brute_force() {
        let idx = build(500);
        let engines = [1usize, 2].map(|threads| BatchEngine::new(Arc::clone(&idx), threads));
        for qseed in [31u64, 47] {
            let q = walk_dataset(1, 64, qseed).series(0).to_vec();
            for window in [1usize, 3, 6] {
                let want = dtw_brute_force(&idx, &q, window);
                for engine in &engines {
                    let threads = engine.n_threads();
                    let (got, _) = engine.dtw(&q, window, &SearchParams::new(threads));
                    assert!(
                        (got.distance - want.distance).abs() < 1e-9,
                        "qseed={qseed} window={window} threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn dtw_search_finds_identical_series() {
        let idx = build(400);
        let q = idx.series_by_id(123).to_vec();
        let (ans, _) = BatchEngine::new(idx, 2).dtw(&q, 3, &SearchParams::new(2));
        assert_eq!(ans.distance, 0.0);
    }

    #[test]
    fn kernel_envelope_reuse_is_bit_identical_to_fresh() {
        // Constructing kernels back to back recycles envelope buffers
        // through the thread-local slot (including across different
        // lengths and windows); the envelopes must equal a fresh
        // computation bit for bit.
        for (len, window) in [(64usize, 3usize), (96, 9), (32, 1), (64, 0)] {
            let q = walk_dataset(1, len, 9000 + (len + window) as u64)
                .series(0)
                .to_vec();
            let want = crate::distance::keogh_envelope(&q, window);
            let kernel = DtwKernel::new(&q, window, 8);
            assert_eq!(kernel.env.upper, want.upper, "len={len} window={window}");
            assert_eq!(kernel.env.lower, want.lower, "len={len} window={window}");
            drop(kernel); // parks the buffers for the next iteration
        }
    }

    #[test]
    fn dtw_answer_never_exceeds_euclidean_answer() {
        // DTW 1-NN distance <= ED 1-NN distance (warping only helps).
        let idx = build(400);
        let q = walk_dataset(1, 64, 5).series(0).to_vec();
        let ed = idx.brute_force(&q);
        let (dtw, _) = BatchEngine::new(idx, 2).dtw(&q, 4, &SearchParams::new(2));
        assert!(dtw.distance <= ed.distance + 1e-9);
    }
}
