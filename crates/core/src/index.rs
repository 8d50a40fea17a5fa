//! The `Index` façade: parallel construction, approximate search, stats.
//!
//! `Index::build` runs the two construction phases the paper times
//! separately in every index-scalability experiment (Figure 17):
//! the **buffer phase** (parallel summarization + buffer fill) and the
//! **tree phase** (parallel root-subtree growth). The timings are kept on
//! the index so harnesses can report the same breakdown.

use crate::buffers::{root_key_of_sax, SummarizationBuffers, Summaries};
use crate::layout::LeafLayout;
use crate::paa::paa;
use crate::sax::{sax_word_into, MindistTable};
use crate::search::answer::Answer;
use crate::search::batches::RsBatches;
use crate::series::DatasetBuffer;
use crate::tree::{build_forest, Forest, LeafSlice, RootSoa};
use parking_lot::RwLock;
use std::sync::Arc;
use std::time::Duration;

/// Roots bounded per sweep call in `Index::seed_leaf`'s
/// minimum-bound root scan — a stack buffer's worth, so the scan
/// allocates nothing.
const ROOT_SWEEP_CHUNK: usize = 64;

/// Distinct RS-batch counts whose partitions [`Index::rs_batches`]
/// keeps; further counts are computed per call. Callers use a handful
/// (one per lane or node width, plus the cluster's fixed count).
const RS_BATCH_CACHE_CAP: usize = 16;

/// Index construction parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexConfig {
    /// Length (dimensionality) of every series.
    pub series_len: usize,
    /// Number of iSAX segments (the paper and the MESSI line use 16).
    pub segments: usize,
    /// Maximum series per leaf before splitting.
    pub leaf_capacity: usize,
}

impl IndexConfig {
    /// Defaults: 16 segments, leaf capacity 2000 (the MESSI defaults),
    /// clamped so `segments <= series_len`.
    pub fn new(series_len: usize) -> Self {
        IndexConfig {
            series_len,
            segments: 16.min(series_len),
            leaf_capacity: 2000,
        }
    }

    /// Sets the segment count.
    pub fn with_segments(mut self, segments: usize) -> Self {
        assert!(segments > 0 && segments <= self.series_len);
        assert!(segments <= 64, "root keys are packed into u64");
        self.segments = segments;
        self
    }

    /// Sets the leaf capacity.
    pub fn with_leaf_capacity(mut self, cap: usize) -> Self {
        assert!(cap > 0);
        self.leaf_capacity = cap;
        self
    }
}

/// Construction-time breakdown, matching the paper's evaluation measures
/// ("buffer time" and "tree time"; their sum is the "index time").
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildTimes {
    /// Summarization + buffer-fill phase.
    pub buffer_time: Duration,
    /// Tree-construction phase.
    pub tree_time: Duration,
}

impl BuildTimes {
    /// Total index-creation time.
    pub fn index_time(&self) -> Duration {
        self.buffer_time + self.tree_time
    }
}

/// An in-memory iSAX index over one data chunk.
///
/// The raw series and SAX words are stored **leaf-contiguously** in a
/// [`LeafLayout`]: tree leaves hold slot ranges, not id lists, so
/// draining a leaf during search reads sequential memory. All public
/// ids (answers) remain *original* dataset ids; the layout keeps the
/// position-to-id permutation.
pub struct Index {
    config: IndexConfig,
    layout: LeafLayout,
    forest: Forest,
    /// Segment-major planes of each root's data-tight SAX envelope (the
    /// shape the SIMD root-mindist sweep consumes); a pure function of
    /// `forest` and `layout`, rebuilt on load, never persisted.
    root_soa: RootSoa,
    build_times: BuildTimes,
    /// RS-batch partitions already computed, keyed by the effective
    /// batch count (see [`Index::rs_batches`]). Derived state: not
    /// persisted and not counted by [`Index::size_bytes`].
    rs_batches: RwLock<Vec<(usize, Arc<RsBatches>)>>,
}

/// Result of the approximate search that seeds the exact algorithm's BSF.
#[derive(Debug, Clone, Copy)]
pub struct ApproxResult {
    /// Rooted Euclidean distance of the best series in the visited leaf.
    pub distance: f64,
    /// Squared distance (what the search actually compares against).
    pub distance_sq: f64,
    /// Id of that series, or `None` on an empty index.
    pub series_id: Option<u32>,
    /// Number of series scanned in the visited leaf (the cost of the
    /// approximate search, used by the cluster's unit accounting).
    pub leaf_size: usize,
}

impl Index {
    /// Builds the index with `n_threads` workers.
    ///
    /// # Panics
    /// Panics if the buffer's series length disagrees with the config.
    pub fn build(data: DatasetBuffer, config: IndexConfig, n_threads: usize) -> Self {
        assert_eq!(
            data.series_len(),
            config.series_len,
            "config/series length mismatch"
        );
        let t0 = std::time::Instant::now();
        let summaries = Summaries::compute(&data, config.segments, n_threads);
        let buffers = SummarizationBuffers::build(&summaries);
        let buffer_time = t0.elapsed();
        let t1 = std::time::Instant::now();
        let (forest, scan_to_id) = build_forest(&buffers, &summaries, config.leaf_capacity, n_threads);
        // Materialize the leaf-contiguous scan layout; the dataset-ordered
        // buffer is dropped — the permuted copy plus the permutation is
        // the single copy of the raw values.
        let layout = LeafLayout::build(&data, &summaries, scan_to_id);
        let root_soa = RootSoa::build(&forest, &layout);
        let tree_time = t1.elapsed();
        Index {
            config,
            layout,
            root_soa,
            forest,
            build_times: BuildTimes {
                buffer_time,
                tree_time,
            },
            rs_batches: RwLock::new(Vec::new()),
        }
    }

    /// Reassembles an index from parts (the persistence path): raw
    /// data, SAX words, and the permutation all in **scan order**, plus
    /// the forest. The caller guarantees consistency (`crate::persist`
    /// validates it); build times are zeroed since nothing was built.
    pub fn from_parts(
        config: IndexConfig,
        scan_data: DatasetBuffer,
        scan_sax: Vec<u8>,
        scan_to_id: Vec<u32>,
        forest: Forest,
    ) -> Self {
        assert_eq!(scan_data.series_len(), config.series_len);
        let layout =
            LeafLayout::from_scan_parts(scan_data, scan_sax, scan_to_id, config.segments);
        let root_soa = RootSoa::build(&forest, &layout);
        Index {
            config,
            layout,
            root_soa,
            forest,
            build_times: BuildTimes::default(),
            rs_batches: RwLock::new(Vec::new()),
        }
    }

    /// The construction parameters.
    #[inline]
    pub fn config(&self) -> &IndexConfig {
        &self.config
    }

    /// The leaf-contiguous scan layout (position-indexed raw data and
    /// SAX words plus the position-to-id permutation).
    #[inline]
    pub fn layout(&self) -> &LeafLayout {
        &self.layout
    }

    /// Raw values of the series with original dataset id `id`, found
    /// by a linear search of the permutation (tests only: no search
    /// path maps ids back to positions).
    #[cfg(test)]
    pub(crate) fn series_by_id(&self, id: u32) -> &[f32] {
        let p = self.layout.scan_to_id().iter().position(|&x| x == id);
        self.layout.series(p.expect("id out of range"))
    }

    /// The root subtrees, sorted by root key, in one pre-order arena.
    #[inline]
    pub fn forest(&self) -> &Forest {
        &self.forest
    }

    /// Segment-major planes of each root subtree's data-tight SAX
    /// envelope — the operand of the batched root-level lower-bound
    /// sweep ([`crate::sax::MindistTable::root_lb_block`]).
    #[inline]
    pub fn root_soa(&self) -> &RootSoa {
        &self.root_soa
    }

    /// The RS-batch partition of the forest into `nsb` batches — exactly
    /// [`RsBatches::build`] over the root-subtree sizes — computed on
    /// first use and shared afterwards, so a query does not walk every
    /// root to rebuild it.
    pub fn rs_batches(&self, nsb: usize) -> Arc<RsBatches> {
        // `build` clamps the count to `[1, roots]`; key on the clamped
        // value so every count past the root count shares one entry.
        let key = nsb.max(1).min(self.forest.len());
        let find = |cache: &[(usize, Arc<RsBatches>)]| {
            cache
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, b)| Arc::clone(b))
        };
        if let Some(b) = find(&self.rs_batches.read()) {
            return b;
        }
        let sizes: Vec<usize> = self.forest.iter().map(|t| t.size).collect();
        let built = Arc::new(RsBatches::build(&sizes, key));
        let mut cache = self.rs_batches.write();
        if let Some(b) = find(&cache) {
            return b; // another caller filled it meanwhile
        }
        if cache.len() < RS_BATCH_CACHE_CAP {
            cache.push((key, Arc::clone(&built)));
        }
        built
    }

    /// Construction timing breakdown.
    #[inline]
    pub fn build_times(&self) -> BuildTimes {
        self.build_times
    }

    /// Number of indexed series.
    #[inline]
    pub fn num_series(&self) -> usize {
        self.layout.num_series()
    }

    /// Total leaves in the forest.
    pub fn leaf_count(&self) -> usize {
        self.forest.leaf_count()
    }

    /// Index overhead in bytes, exactly: the scan layout (SAX words +
    /// permutation), the root planes and the forest arena, excluding the
    /// raw data (the quantity plotted in Figure 14).
    pub fn size_bytes(&self) -> usize {
        self.layout.size_bytes() + self.root_soa.size_bytes() + self.forest.size_bytes()
    }

    /// PAA of a query under this index's configuration.
    pub fn query_paa(&self, query: &[f32]) -> Vec<f64> {
        assert_eq!(query.len(), self.config.series_len, "query length mismatch");
        paa(query, self.config.segments)
    }

    /// Approximate search (the "initial BSF" computation, Algorithm 1
    /// line 5): descend greedily to the most promising leaf and take the
    /// best real distance inside it. Builds a throwaway per-query
    /// [`MindistTable`] — callers that already hold one (the
    /// exact-search kernels) use [`Index::approx_search_with_table`]
    /// instead.
    pub fn approx_search(&self, query: &[f32]) -> ApproxResult {
        let qpaa = self.query_paa(query);
        let table = MindistTable::from_paa(&qpaa, self.config.series_len);
        self.approx_search_with_table(query, &qpaa, &table)
    }

    /// [`Index::approx_search`] against a caller-supplied per-query
    /// mindist table (built from the same `qpaa`): the best real
    /// distance inside the seed leaf (`Index::seed_leaf`), which the
    /// k-NN and DTW seeds start from too.
    pub fn approx_search_with_table(
        &self,
        query: &[f32],
        qpaa: &[f64],
        table: &MindistTable,
    ) -> ApproxResult {
        let Some(leaf) = self.seed_leaf(table, Some(qpaa)) else {
            return ApproxResult {
                distance: f64::INFINITY,
                distance_sq: f64::INFINITY,
                series_id: None,
                leaf_size: 0,
            };
        };
        // Leaf-contiguous scan: sequential raw values; slice positions
        // ascend in original-id order, so ties resolve exactly as a
        // dataset-order scan would. Each distance abandons once it
        // exceeds the best so far: a series that ties the best still
        // completes (and loses the tie), so the answer is a full
        // scan's with the same kernel, bit for bit.
        let mut best = f64::INFINITY;
        let mut best_id = None;
        for p in leaf.range() {
            let d = crate::distance::euclidean_sq_early_abandon(query, self.layout.series(p), best);
            if let Some(d) = d.filter(|&d| d < best) {
                best = d;
                best_id = Some(self.layout.original_id(p));
            }
        }
        ApproxResult {
            distance: best.sqrt(),
            distance_sq: best,
            series_id: best_id,
            leaf_size: leaf.len(),
        }
    }

    /// The approximate search's leaf — the one every seed starts from
    /// (Euclidean 1-NN and k-NN, DTW 1-NN and k-NN), or `None` on an
    /// empty forest.
    ///
    /// The root is the *home* root when `qpaa` (a Euclidean query's PAA)
    /// is given and the forest has a subtree keyed by the query's root
    /// word; otherwise it is the root with the smallest bound under
    /// `table` (first minimum on ties), from the batched sweep over the
    /// data-tight root planes. From there the descent is greedy by the
    /// children's word bounds (the left child on ties).
    pub(crate) fn seed_leaf(
        &self,
        table: &MindistTable,
        qpaa: Option<&[f64]>,
    ) -> Option<LeafSlice> {
        if self.forest.is_empty() {
            return None;
        }
        let home = qpaa.and_then(|qpaa| {
            let mut qsax = vec![0u8; self.config.segments];
            sax_word_into(qpaa, &mut qsax);
            let qkey = root_key_of_sax(&qsax);
            self.forest.keys().binary_search(&qkey).ok()
        });
        let root = home.unwrap_or_else(|| {
            let mut best = f64::INFINITY;
            let mut best_root = 0usize;
            let mut lbs = [0.0f64; ROOT_SWEEP_CHUNK];
            for start in (0..self.forest.len()).step_by(ROOT_SWEEP_CHUNK) {
                let end = (start + ROOT_SWEEP_CHUNK).min(self.forest.len());
                let lbs = &mut lbs[..end - start];
                table.root_lb_block(&self.root_soa, start..end, lbs);
                for (k, &d) in lbs.iter().enumerate() {
                    if d.total_cmp(&best) == std::cmp::Ordering::Less {
                        best = d;
                        best_root = start + k;
                    }
                }
            }
            best_root
        });
        let forest = &self.forest;
        let mut node = forest.root_node(root);
        while let Some([left, right]) = forest.children(node) {
            let d0 = table.word_lb_sq(forest.word(left));
            let d1 = table.word_lb_sq(forest.word(right));
            node = if d0 <= d1 { left } else { right };
        }
        forest.leaf_id(node).map(|leaf| forest.leaf(leaf))
    }

    /// Brute-force 1-NN scan; the test oracle for every search algorithm.
    /// Scans in scan order and keeps the smallest `(distance, original
    /// id)`, so ties resolve to the lowest id, as a scan in id order would.
    pub fn brute_force(&self, query: &[f32]) -> Answer {
        let mut best = f64::INFINITY;
        let mut best_id = None;
        for p in 0..self.num_series() {
            let d = crate::distance::euclidean_sq(query, self.layout.series(p));
            let id = self.layout.original_id(p);
            if beats(d, id, best, best_id) {
                best = d;
                best_id = Some(id);
            }
        }
        Answer {
            distance: best.sqrt(),
            distance_sq: best,
            series_id: best_id,
        }
    }
}

/// Whether `(d, id)` orders before the best `(best, best_id)` so far —
/// the brute-force oracles' tie rule: a smaller distance, or an equal one
/// with a lower original id. Nothing ties the empty best.
pub(crate) fn beats(d: f64, id: u32, best: f64, best_id: Option<u32>) -> bool {
    d < best || (d == best && best_id.is_some_and(|b| id < b))
}

impl std::fmt::Debug for Index {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Index")
            .field("num_series", &self.num_series())
            .field("series_len", &self.config.series_len)
            .field("segments", &self.config.segments)
            .field("root_subtrees", &self.forest.len())
            .field("leaves", &self.leaf_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn test_index(n: usize) -> Index {
        let data = walk_dataset(n, 64, 5);
        let cfg = IndexConfig::new(64).with_segments(8).with_leaf_capacity(20);
        Index::build(data, cfg, 2)
    }

    #[test]
    fn build_covers_all_series() {
        let idx = test_index(500);
        let total: usize = idx.forest().iter().map(|t| t.node.series_count()).sum();
        assert_eq!(total, 500);
        assert!(idx.leaf_count() >= 1);
        assert!(idx.size_bytes() > 0);
    }

    #[test]
    fn approx_search_returns_real_distance() {
        let idx = test_index(400);
        // Query = an indexed series: approximate search lands in its own
        // leaf region, so the distance must be exactly zero.
        let q = idx.series_by_id(123).to_vec();
        let r = idx.approx_search(&q);
        assert_eq!(r.distance, 0.0);
        assert_eq!(r.series_id, Some(123));
    }

    #[test]
    fn approx_upper_bounds_exact() {
        let idx = test_index(600);
        let q: Vec<f32> = crate::series::znormalized(
            &(0..64)
                .map(|i| (i as f32 * 0.21).sin())
                .collect::<Vec<_>>(),
        );
        let approx = idx.approx_search(&q);
        let exact = idx.brute_force(&q);
        assert!(approx.distance >= exact.distance - 1e-9);
    }

    #[test]
    fn brute_force_finds_planted_neighbor() {
        let mut data = walk_dataset(300, 64, 9);
        // plant an exact copy of the query at id 300
        let q: Vec<f32> = data.series(42).iter().map(|&v| v + 1e-4).collect();
        let mut raw = data.raw().to_vec();
        raw.extend_from_slice(&q);
        data = DatasetBuffer::from_vec(raw, 64);
        let cfg = IndexConfig::new(64).with_segments(8).with_leaf_capacity(16);
        let idx = Index::build(data, cfg, 2);
        let ans = idx.brute_force(&q);
        assert_eq!(ans.series_id, Some(300));
        assert_eq!(ans.distance, 0.0);
    }

    #[test]
    fn rs_batches_match_build_and_are_shared() {
        let idx = test_index(600);
        let roots = idx.forest().len();
        let sizes: Vec<usize> = idx.forest().iter().map(|t| t.size).collect();
        for nsb in [1usize, 2, 3, 7, 32, roots + 5] {
            let first = idx.rs_batches(nsb);
            assert_eq!(*first, RsBatches::build(&sizes, nsb), "nsb={nsb}");
            assert!(Arc::ptr_eq(&first, &idx.rs_batches(nsb)), "nsb={nsb}");
        }
        // Counts past the root count all name the one-per-root partition.
        assert!(Arc::ptr_eq(&idx.rs_batches(roots), &idx.rs_batches(roots + 5)));
    }

    #[test]
    fn build_times_are_recorded() {
        let idx = test_index(200);
        let t = idx.build_times();
        assert!(t.index_time() >= t.buffer_time);
        assert!(t.index_time() >= t.tree_time);
    }
}
