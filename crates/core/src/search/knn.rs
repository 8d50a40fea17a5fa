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

/// Seeds a k-NN result set from the leaf the approximate search lands in
/// (`Index::seed_leaf` under the kernel's table — the k-NN analogue of
/// the initial-BSF computation). Each distance abandons once it exceeds
/// the current k-th (infinite until `k` series are held); a series that
/// ties it still completes and is offered, so the seed set is a full
/// scan's with the same kernel, ids included.
pub fn seed_from_approx_leaf(index: &Index, kernel: &EdKernel, knn: &SharedKnn) {
    let Some(leaf) = index.seed_leaf(kernel.table(), Some(kernel.qpaa())) else {
        return;
    };
    let layout = index.layout();
    for p in leaf.slice.range() {
        let bound = knn.threshold_sq();
        if let Some(d) =
            crate::distance::euclidean_sq_early_abandon(kernel.query(), layout.series(p), bound)
        {
            knn.offer(d, layout.original_id(p));
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
    let kernel = EdKernel::new(query, index.config().segments);
    let knn = SharedKnn::new(k);
    seed_from_approx_leaf(index, &kernel, &knn);
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
    fn knn_seed_leaf_is_the_approximate_search_leaf_when_the_home_root_is_absent() {
        let data = walk_dataset(400, 64, 21);
        let idx = crate::index::Index::build(
            data,
            IndexConfig::new(64).with_segments(8).with_leaf_capacity(8),
            2,
        );
        let layout = idx.layout();
        // The ids of the leaf storing `id`, and the root it hangs under.
        let leaf_of = |id: u32| {
            let p = layout.scan_pos(id);
            let mut found = None;
            for (r, t) in idx.forest().iter().enumerate() {
                t.node.for_each_leaf(&mut |leaf| {
                    if leaf.slice.range().contains(&p) {
                        let mut ids: Vec<u32> =
                            leaf.slice.range().map(|p| layout.original_id(p)).collect();
                        ids.sort_unstable();
                        found = Some((r, ids));
                    }
                });
            }
            found.expect("every series is in a leaf")
        };
        // A query whose root word names no subtree, and whose
        // minimum-bound root is not the first one (so falling back to
        // `forest[0]` would pick another leaf).
        let (q, approx, (root, want)) = (0..500u64)
            .map(|s| walk_dataset(1, 64, 7000 + s).series(0).to_vec())
            .find_map(|q| {
                let mut qsax = vec![0u8; 8];
                crate::sax::sax_word_into(&idx.query_paa(&q), &mut qsax);
                let key = crate::buffers::root_key_of_sax(&qsax);
                if idx.forest().binary_search_by_key(&key, |t| t.key).is_ok() {
                    return None;
                }
                let approx = idx.approx_search(&q);
                let leaf = leaf_of(approx.series_id?);
                (leaf.0 != 0).then_some((q, approx, leaf))
            })
            .expect("some query has no home root");
        assert!(root > 0);
        let (_, knn, _) = seed_knn(&idx, &q, 1000);
        let seeded = knn.snapshot().neighbors;
        assert_eq!(seeded.len(), approx.leaf_size);
        assert_eq!(seeded[0], (approx.distance_sq, approx.series_id.unwrap()));
        let mut got: Vec<u32> = seeded.iter().map(|&(_, id)| id).collect();
        got.sort_unstable();
        assert_eq!(got, want, "k-NN seeds from the approximate search's leaf");
    }

    /// Both seed scans abandon a distance only once it exceeds the
    /// bound, so they return the full scan's answer, ties included:
    /// planted duplicates tie at one distance, the lowest id among them
    /// wins the 1-NN seed, and the k-NN seed keeps the tied ids in id
    /// order when the tie straddles the k-th slot.
    #[test]
    fn seed_scans_match_the_full_scan_with_planted_duplicates() {
        let mut values = walk_dataset(600, 64, 91).raw().to_vec();
        let planted = [40usize, 170, 333, 512];
        let original = values[planted[0] * 64..(planted[0] + 1) * 64].to_vec();
        for &id in &planted[1..] {
            values[id * 64..(id + 1) * 64].copy_from_slice(&original);
        }
        let idx = crate::index::Index::build(
            DatasetBuffer::from_vec(values, 64),
            IndexConfig::new(64).with_segments(8).with_leaf_capacity(16),
            2,
        );
        let q: Vec<f32> = original
            .iter()
            .enumerate()
            .map(|(j, &v)| v + 0.01 * (j % 5) as f32)
            .collect();
        let kernel = EdKernel::new(&q, idx.config().segments);
        let leaf = idx
            .seed_leaf(kernel.table(), Some(kernel.qpaa()))
            .expect("a non-empty forest");
        // The full scan: every distance to completion, in scan order.
        let layout = idx.layout();
        let full: Vec<(f64, u32)> = leaf
            .slice
            .range()
            .map(|p| {
                let d = crate::distance::euclidean_sq_early_abandon(
                    &q,
                    layout.series(p),
                    f64::INFINITY,
                );
                (
                    d.expect("an infinite bound never abandons"),
                    layout.original_id(p),
                )
            })
            .collect();
        let mut sorted = full.clone();
        sorted.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let tied: Vec<u32> = sorted
            .iter()
            .take_while(|&&(d, _)| d == sorted[0].0)
            .map(|&(_, id)| id)
            .collect();
        assert_eq!(
            tied,
            planted.map(|id| id as u32),
            "the duplicates tie in the seed leaf"
        );

        let approx = idx.approx_search(&q);
        assert_eq!(approx.distance_sq.to_bits(), sorted[0].0.to_bits());
        assert_eq!(
            approx.series_id,
            Some(planted[0] as u32),
            "the lowest tied id wins"
        );
        for k in [1usize, 2, planted.len(), planted.len() + 3, full.len() + 1] {
            let (_, knn, _) = seed_knn(&idx, &q, k);
            let want: Vec<(f64, u32)> = sorted.iter().copied().take(k).collect();
            let got = knn.snapshot().neighbors;
            assert_eq!(got.len(), want.len(), "k={k}");
            for (g, w) in got.iter().zip(&want) {
                assert_eq!((g.0.to_bits(), g.1), (w.0.to_bits(), w.1), "k={k}");
            }
        }
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
