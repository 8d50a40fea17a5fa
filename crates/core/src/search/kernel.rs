//! Query kernels: the distance- and lower-bound family a search runs
//! under.
//!
//! The exact-search engine is generic over this trait so that Euclidean
//! 1-NN/k-NN and the DTW extension (Section 4) share the RS-batch /
//! priority-queue machinery. A kernel must guarantee the *soundness
//! chain*:
//!
//! `node_lb_sq(word) <= series_lb_sq(sax(S)) <= distance_sq(S)` for every
//! series `S` summarized by `word` — that chain is exactly what makes
//! pruning exact. At the root level the batched bound sits inside it:
//! `node_lb_sq(root word) <= root_lb_block <= series_lb_sq(sax(S))` for
//! every `S` under the root.
//!
//! Both shipped kernels precompute a per-query
//! [`MindistTable`](crate::sax::MindistTable) at construction, so every
//! lower bound on the hot path is `w` table lookups plus adds instead of
//! breakpoint and segment-bound arithmetic, and blocks of candidates can
//! be bounded in one tight pass ([`QueryKernel::lb_block_sq`]).

use crate::layout::LeafLayout;
use crate::sax::{MindistTable, WordRef};
use crate::tree::{Forest, RootSoa};

/// The distance family of a query (see module docs for the contract).
pub trait QueryKernel: Sync {
    /// Lower bound (squared) from the query to any series in `word`'s
    /// region.
    fn node_lb_sq(&self, word: WordRef<'_>) -> f64;

    /// Lower bound (squared) from the query to a series with
    /// full-cardinality SAX word `sax`.
    fn series_lb_sq(&self, sax: &[u8]) -> f64;

    /// Lower bounds for a contiguous block of full-cardinality SAX words
    /// (`segments` bytes per candidate, `out.len()` candidates) — the
    /// batched pruning pass over a leaf's scan-contiguous summary block.
    /// Each `out[j]` must equal `series_lb_sq` of the `j`-th word; the
    /// default implementation delegates, table-backed kernels override
    /// with [`MindistTable::block_lb_sq`], whose SIMD kernel transposes
    /// the row-major words in registers.
    fn lb_block_sq(&self, sax_block: &[u8], segments: usize, out: &mut [f64]) {
        debug_assert_eq!(sax_block.len(), out.len() * segments);
        for (slot, word) in out.iter_mut().zip(sax_block.chunks_exact(segments)) {
            *slot = self.series_lb_sq(word);
        }
    }

    /// [`QueryKernel::lb_block_sq`] addressed by layout position: lower
    /// bounds for the contiguous scan-position `range` (one leaf),
    /// `out.len() == range.len()`, over the leaf's row-major SAX block.
    /// Every `out[j]` must stay bit-identical to `series_lb_sq` of
    /// position `range.start + j`.
    fn lb_block_at(&self, layout: &LeafLayout, range: std::ops::Range<usize>, out: &mut [f64]) {
        self.lb_block_sq(layout.sax_block(range), layout.segments(), out);
    }

    /// Node-level lower bounds for a contiguous range of forest roots
    /// (`out.len() == range.len()`). Each `out[k]` must lie between
    /// `node_lb_sq` of root `range.start + k`'s word and `series_lb_sq`
    /// of every series stored under that root — the root link of the
    /// soundness chain. The default delegates per root to the word
    /// bound (the loose end); table-backed kernels override with the
    /// batched sweep over the data-tight root planes ([`RootSoa`]), so
    /// the SIMD clamp-and-gather kernel applies and a root is bounded
    /// by its series' actual SAX envelope.
    fn root_lb_block(
        &self,
        forest: &Forest,
        _roots: &RootSoa,
        range: std::ops::Range<usize>,
        out: &mut [f64],
    ) {
        debug_assert_eq!(range.len(), out.len());
        for (slot, r) in out.iter_mut().zip(range) {
            *slot = self.node_lb_sq(forest.word(forest.root_node(r)));
        }
    }

    /// Real (squared) distance to `candidate`, early-abandoning past
    /// `threshold_sq` (return `None` when the candidate cannot win).
    fn distance_sq(&self, candidate: &[f32], threshold_sq: f64) -> Option<f64>;
}

/// The Euclidean-distance kernel (the paper's primary setting).
///
/// Construction folds the query PAA, the breakpoints, and the segment
/// weights into a [`MindistTable`]; `node_lb_sq` and `series_lb_sq` are
/// bit-identical to [`crate::sax::mindist_paa_isax_sq`] and
/// [`crate::sax::mindist_paa_sax_sq`] (asserted by property tests).
#[derive(Debug)]
pub struct EdKernel<'q> {
    query: &'q [f32],
    qpaa: Vec<f64>,
    table: MindistTable,
}

impl<'q> EdKernel<'q> {
    /// Builds the kernel for `query` under `segments` iSAX segments.
    pub fn new(query: &'q [f32], segments: usize) -> Self {
        let qpaa = crate::paa::paa(query, segments);
        let table = MindistTable::from_paa(&qpaa, query.len());
        EdKernel { query, qpaa, table }
    }

    /// The query's PAA (used by the approximate search).
    pub fn qpaa(&self) -> &[f64] {
        &self.qpaa
    }

    /// The raw query.
    pub fn query(&self) -> &[f32] {
        self.query
    }

    /// The per-query mindist table (shared with the approximate search
    /// so the seed lookup reuses the kernel's precomputation).
    pub fn table(&self) -> &MindistTable {
        &self.table
    }
}

impl QueryKernel for EdKernel<'_> {
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
        _forest: &Forest,
        roots: &RootSoa,
        range: std::ops::Range<usize>,
        out: &mut [f64],
    ) {
        self.table.root_lb_block(roots, range, out);
    }

    #[inline]
    fn distance_sq(&self, candidate: &[f32], threshold_sq: f64) -> Option<f64> {
        crate::distance::euclidean_sq_early_abandon(self.query, candidate, threshold_sq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sax::{mindist_paa_isax_sq, mindist_paa_sax_sq, sax_word_into, IsaxWord};
    use crate::series::znormalize;

    fn pseudo_series(seed: u64, len: usize) -> Vec<f32> {
        let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut out = Vec::with_capacity(len);
        let mut acc = 0.0f32;
        for _ in 0..len {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc += ((x % 2000) as f32 / 1000.0) - 1.0;
            out.push(acc);
        }
        znormalize(&mut out);
        out
    }

    #[test]
    fn ed_kernel_soundness_chain() {
        let len = 96;
        let segs = 8;
        let q = pseudo_series(11, len);
        let kernel = EdKernel::new(&q, segs);
        for seed in 0..10u64 {
            let s = pseudo_series(seed + 500, len);
            let spaa = crate::paa::paa(&s, segs);
            let mut sax = vec![0u8; segs];
            sax_word_into(&spaa, &mut sax);
            let real = kernel
                .distance_sq(&s, f64::INFINITY)
                .expect("no threshold");
            let series_lb = kernel.series_lb_sq(&sax);
            assert!(series_lb <= real + 1e-6);
            for bits in 1..=8u8 {
                let word = IsaxWord::from_sax(&sax, bits);
                let node_lb = kernel.node_lb_sq(word.view());
                assert!(node_lb <= series_lb + 1e-9, "bits={bits}");
            }
        }
    }

    #[test]
    fn ed_kernel_bit_identical_to_reference_mindist() {
        let len = 96;
        let segs = 8;
        let q = pseudo_series(41, len);
        let kernel = EdKernel::new(&q, segs);
        for seed in 0..10u64 {
            let s = pseudo_series(seed + 900, len);
            let mut sax = vec![0u8; segs];
            sax_word_into(&crate::paa::paa(&s, segs), &mut sax);
            let want = mindist_paa_sax_sq(kernel.qpaa(), &sax, len);
            assert_eq!(kernel.series_lb_sq(&sax).to_bits(), want.to_bits());
            for bits in 1..=8u8 {
                let word = IsaxWord::from_sax(&sax, bits);
                let want = mindist_paa_isax_sq(kernel.qpaa(), &word, len);
                assert_eq!(kernel.node_lb_sq(word.view()).to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn ed_kernel_block_bounds_match_scalar_path() {
        let len = 64;
        let segs = 8;
        let q = pseudo_series(7, len);
        let kernel = EdKernel::new(&q, segs);
        let mut block = Vec::new();
        let mut want = Vec::new();
        for seed in 0..16u64 {
            let s = pseudo_series(seed + 300, len);
            let mut sax = vec![0u8; segs];
            sax_word_into(&crate::paa::paa(&s, segs), &mut sax);
            want.push(kernel.series_lb_sq(&sax));
            block.extend_from_slice(&sax);
        }
        let mut got = vec![0.0f64; want.len()];
        kernel.lb_block_sq(&block, segs, &mut got);
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
    }

    #[test]
    fn ed_kernel_early_abandons() {
        let q = pseudo_series(1, 64);
        let far: Vec<f32> = q.iter().map(|v| v + 100.0).collect();
        let kernel = EdKernel::new(&q, 8);
        assert!(kernel.distance_sq(&far, 1.0).is_none());
        assert_eq!(kernel.distance_sq(&q, 1.0), Some(0.0));
    }
}
