//! k-NN exact search (Section 4, "k-NN Search").
//!
//! Per the paper, the only change relative to 1-NN is the best-so-far
//! bookkeeping: "instead of computing a single BSF value, we simply need
//! to keep track of the k smallest BSF values". The engine is shared; the
//! pruning threshold becomes the current k-th smallest distance
//! ([`SharedKnn`]).

use super::answer::KnnAnswer;
use super::bsf::{ResultSet, SharedKnn};
use super::kernel::EdKernel;
use crate::index::Index;
use crate::tree::Node;

/// Seeds a k-NN result set from the leaf the approximate search lands in
/// (the k-NN analogue of the initial-BSF computation).
pub fn seed_from_approx_leaf(index: &Index, query: &[f32], knn: &SharedKnn) {
    let qpaa = index.query_paa(query);
    if index.forest().is_empty() {
        return;
    }
    // Greedy descent, mirroring Index::approx_search_paa.
    let mut qsax = vec![0u8; index.config().segments];
    crate::sax::sax_word_into(&qpaa, &mut qsax);
    let qkey = crate::buffers::root_key_of_sax(&qsax);
    let forest = index.forest();
    let subtree = match forest.binary_search_by_key(&qkey, |t| t.key) {
        Ok(i) => &forest[i],
        Err(_) => &forest[0],
    };
    let mut node = &subtree.node;
    loop {
        match node {
            Node::Inner { children, .. } => {
                let d0 = crate::sax::mindist_paa_isax_sq(
                    &qpaa,
                    children[0].word(),
                    index.config().series_len,
                );
                let d1 = crate::sax::mindist_paa_isax_sq(
                    &qpaa,
                    children[1].word(),
                    index.config().series_len,
                );
                node = if d0 <= d1 { &children[0] } else { &children[1] };
            }
            Node::Leaf(leaf) => {
                let layout = index.layout();
                for p in leaf.slice.range() {
                    let d = crate::distance::euclidean_sq(query, layout.series(p));
                    knn.offer(d, layout.original_id(p));
                }
                return;
            }
        }
    }
}

/// Builds the Euclidean kernel and a [`SharedKnn`] seeded from the
/// approximate-search leaf — the k-NN analogue of
/// [`super::exact::seed_ed`], shared by the batch engine and the
/// approximate answer. The returned seed bound is the rooted k-th seed
/// distance: infinite when the seed leaf holds fewer than `k` series.
pub(crate) fn seed_knn<'q>(
    index: &Index,
    query: &'q [f32],
    k: usize,
) -> (EdKernel<'q>, SharedKnn, f64) {
    let knn = SharedKnn::new(k);
    seed_from_approx_leaf(index, query, &knn);
    let kernel = EdKernel::new(query, index.config().segments);
    let initial = knn.threshold_sq().sqrt();
    (kernel, knn, initial)
}

/// Brute-force k-NN oracle.
pub fn knn_brute_force(index: &Index, query: &[f32], k: usize) -> KnnAnswer {
    let mut all: Vec<(f64, u32)> = (0..index.num_series())
        .map(|id| {
            (
                crate::distance::euclidean_sq(query, index.series_by_id(id as u32)),
                id as u32,
            )
        })
        .collect();
    all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    all.truncate(k);
    KnnAnswer { neighbors: all }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexConfig;
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

    #[test]
    fn knn_matches_brute_force() {
        let data = walk_dataset(900, 64, 17);
        let idx = Arc::new(crate::index::Index::build(
            data,
            IndexConfig::new(64).with_segments(8).with_leaf_capacity(20),
            2,
        ));
        let q = walk_dataset(1, 64, 4242).series(0).to_vec();
        let engines = [1usize, 3].map(|threads| BatchEngine::new(Arc::clone(&idx), threads));
        for k in [1usize, 5, 10] {
            let want = knn_brute_force(&idx, &q, k);
            for engine in &engines {
                let threads = engine.n_threads();
                let (got, _) = engine.knn(&q, k, &SearchParams::new(threads).with_th(16));
                assert_eq!(got.neighbors.len(), k);
                // Distances must match exactly (ids may tie).
                for (g, w) in got.neighbors.iter().zip(&want.neighbors) {
                    assert!(
                        (g.0 - w.0).abs() < 1e-9,
                        "k={k} threads={threads}: {:?} vs {:?}",
                        got.neighbors,
                        want.neighbors
                    );
                }
            }
        }
    }

    #[test]
    fn k1_equals_exact_search() {
        let data = walk_dataset(600, 64, 55);
        let idx = Arc::new(crate::index::Index::build(
            data,
            IndexConfig::new(64).with_segments(8).with_leaf_capacity(16),
            2,
        ));
        let q = walk_dataset(1, 64, 99).series(0).to_vec();
        let engine = BatchEngine::new(idx, 2);
        let (knn, _) = engine.knn(&q, 1, &SearchParams::new(2));
        let one = engine.exact(&q, &SearchParams::new(2)).answer;
        assert!((knn.neighbors[0].0 - one.distance_sq).abs() < 1e-9);
    }

    #[test]
    fn knn_with_k_larger_than_collection() {
        let data = walk_dataset(5, 64, 3);
        let idx = Arc::new(crate::index::Index::build(
            data,
            IndexConfig::new(64).with_segments(8).with_leaf_capacity(4),
            1,
        ));
        let q = walk_dataset(1, 64, 8).series(0).to_vec();
        let (got, stats) = BatchEngine::new(idx, 1).knn(&q, 10, &SearchParams::new(1));
        assert_eq!(got.neighbors.len(), 5, "only 5 series exist");
        assert_eq!(stats.initial_bsf, f64::INFINITY, "a seed short of k bounds nothing");
    }
}
