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
use crate::sax::sax_word_into;
use crate::search::answer::Answer;
use crate::search::batches::RsBatches;
use crate::search::exact::{exact_search, SearchParams};
use crate::series::DatasetBuffer;
use crate::tree::{build_forest, Node, RootSubtree};
use parking_lot::RwLock;
use std::sync::Arc;
use std::time::Duration;

/// Roots bounded per sweep call in the approximate search's fallback
/// scan — a stack buffer's worth, so the scan allocates nothing.
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
/// ids (answers, [`Index::sax_by_id`]) remain *original* dataset ids;
/// the layout keeps the position/id mapping.
pub struct Index {
    config: IndexConfig,
    layout: LeafLayout,
    forest: Vec<RootSubtree>,
    /// Segment-major planes of the root words (the shape the SIMD
    /// root-mindist sweep consumes); a pure function of `forest`,
    /// rebuilt on load, never persisted.
    root_soa: crate::tree::RootSoa,
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
        // buffer is dropped — the permuted copy plus the id mapping is the
        // single copy of the raw values.
        let layout = LeafLayout::build(&data, &summaries, scan_to_id);
        let tree_time = t1.elapsed();
        Index {
            config,
            layout,
            root_soa: crate::tree::RootSoa::build(&forest),
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
        forest: Vec<crate::tree::RootSubtree>,
    ) -> Self {
        assert_eq!(scan_data.series_len(), config.series_len);
        let layout =
            LeafLayout::from_scan_parts(scan_data, scan_sax, scan_to_id, config.segments);
        Index {
            config,
            layout,
            root_soa: crate::tree::RootSoa::build(&forest),
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
    /// SAX words plus the position/id mappings).
    #[inline]
    pub fn layout(&self) -> &LeafLayout {
        &self.layout
    }

    /// Raw values of the series with original dataset id `id`.
    #[inline]
    pub fn series_by_id(&self, id: u32) -> &[f32] {
        self.layout.series_by_id(id)
    }

    /// Full-cardinality SAX word of the series with original dataset id
    /// `id` (looked up through the scan layout — the SAX bytes are
    /// stored exactly once, in scan order).
    #[inline]
    pub fn sax_by_id(&self, id: u32) -> &[u8] {
        self.layout.sax(self.layout.scan_pos(id))
    }

    /// The root subtrees, sorted by root key.
    #[inline]
    pub fn forest(&self) -> &[RootSubtree] {
        &self.forest
    }

    /// Segment-major planes of the root words — the operand of the
    /// batched root-level lower-bound sweep
    /// ([`crate::sax::MindistTable::root_lb_block`]).
    #[inline]
    pub fn root_soa(&self) -> &crate::tree::RootSoa {
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
        self.forest.iter().map(|t| t.node.leaf_count()).sum()
    }

    /// Index overhead in bytes: the scan layout (SAX words + id
    /// mappings) and the tree structure, excluding the raw data (the
    /// quantity plotted in Figure 14).
    pub fn size_bytes(&self) -> usize {
        self.layout.size_bytes()
            + self.root_soa.size_bytes()
            + self
                .forest
                .iter()
                .map(|t| t.node.size_bytes() + std::mem::size_of::<RootSubtree>())
                .sum::<usize>()
    }

    /// PAA of a query under this index's configuration.
    pub fn query_paa(&self, query: &[f32]) -> Vec<f64> {
        assert_eq!(query.len(), self.config.series_len, "query length mismatch");
        paa(query, self.config.segments)
    }

    /// Approximate search (the "initial BSF" computation, Algorithm 1
    /// line 5): descend greedily to the most promising leaf and take the
    /// best real distance inside it.
    pub fn approx_search(&self, query: &[f32]) -> ApproxResult {
        let qpaa = self.query_paa(query);
        self.approx_search_paa(query, &qpaa)
    }

    /// [`Index::approx_search`] with a precomputed query PAA. Builds a
    /// throwaway per-query [`MindistTable`](crate::sax::MindistTable) —
    /// callers that already hold one (the exact-search kernels) use
    /// [`Index::approx_search_with_table`] instead.
    pub fn approx_search_paa(&self, query: &[f32], qpaa: &[f64]) -> ApproxResult {
        let table = crate::sax::MindistTable::from_paa(qpaa, self.config.series_len);
        self.approx_search_with_table(query, qpaa, &table)
    }

    /// [`Index::approx_search`] against a caller-supplied per-query
    /// mindist table (built from the same `qpaa`). All lower bounds —
    /// the fallback scan over every root and the greedy descent — go
    /// through the table, whose `word_lb_sq` is bit-identical to the
    /// reference [`crate::sax::mindist_paa_isax_sq`], so the visited leaf (and
    /// hence the seeded BSF) is exactly the one the reference
    /// arithmetic selects. The root scan runs through the batched SIMD
    /// sweep over the root-word planes rather than one
    /// breakpoint-recomputing call per root.
    pub fn approx_search_with_table(
        &self,
        query: &[f32],
        qpaa: &[f64],
        table: &crate::sax::MindistTable,
    ) -> ApproxResult {
        if self.forest.is_empty() {
            return ApproxResult {
                distance: f64::INFINITY,
                distance_sq: f64::INFINITY,
                series_id: None,
                leaf_size: 0,
            };
        }
        // Prefer the root subtree whose region contains the query; fall
        // back to the minimum-mindist subtree (first minimum on ties,
        // matching `Iterator::min_by` over the same values).
        let mut qsax = vec![0u8; self.config.segments];
        sax_word_into(qpaa, &mut qsax);
        let qkey = root_key_of_sax(&qsax);
        let subtree = match self.forest.binary_search_by_key(&qkey, |t| t.key) {
            Ok(i) => &self.forest[i],
            Err(_) => {
                let mut best = f64::INFINITY;
                let mut best_root = 0usize;
                let mut lbs = [0.0f64; ROOT_SWEEP_CHUNK];
                let mut start = 0;
                while start < self.forest.len() {
                    let end = (start + ROOT_SWEEP_CHUNK).min(self.forest.len());
                    let lbs = &mut lbs[..end - start];
                    table.root_lb_block(&self.root_soa, start..end, lbs);
                    for (k, &d) in lbs.iter().enumerate() {
                        if d.total_cmp(&best) == std::cmp::Ordering::Less {
                            best = d;
                            best_root = start + k;
                        }
                    }
                    start = end;
                }
                &self.forest[best_root]
            }
        };
        // Greedy descent by child mindist.
        let mut node = &subtree.node;
        loop {
            match node {
                Node::Inner { children, .. } => {
                    let d0 = table.word_lb_sq(children[0].word());
                    let d1 = table.word_lb_sq(children[1].word());
                    node = if d0 <= d1 { &children[0] } else { &children[1] };
                }
                Node::Leaf(leaf) => {
                    // Leaf-contiguous scan: sequential raw values; slice
                    // positions ascend in original-id order, so ties
                    // resolve exactly as a dataset-order scan would.
                    let mut best = f64::INFINITY;
                    let mut best_id = None;
                    for p in leaf.slice.range() {
                        let d = crate::distance::euclidean_sq(query, self.layout.series(p));
                        if d < best {
                            best = d;
                            best_id = Some(self.layout.original_id(p));
                        }
                    }
                    return ApproxResult {
                        distance: best.sqrt(),
                        distance_sq: best,
                        series_id: best_id,
                        leaf_size: leaf.slice.len(),
                    };
                }
            }
        }
    }

    /// Exact 1-NN search with default Odyssey parameters (convenience
    /// wrapper over [`crate::search::exact::exact_search`]).
    pub fn exact_search(&self, query: &[f32], n_threads: usize) -> Answer {
        let params = SearchParams::new(n_threads);
        exact_search(self, query, &params).answer
    }

    /// Brute-force 1-NN scan; the test oracle for every search algorithm.
    /// Scans in original-id order (via the layout's id mapping) so tie
    /// resolution matches the pre-layout oracle exactly.
    pub fn brute_force(&self, query: &[f32]) -> Answer {
        let mut best = f64::INFINITY;
        let mut best_id = None;
        for id in 0..self.num_series() {
            let d = crate::distance::euclidean_sq(query, self.layout.series_by_id(id as u32));
            if d < best {
                best = d;
                best_id = Some(id as u32);
            }
        }
        Answer {
            distance: best.sqrt(),
            distance_sq: best,
            series_id: best_id,
        }
    }
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
