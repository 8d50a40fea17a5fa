//! Fast smoke test: the minimal single-node and two-node paths a user
//! hits first, pinned to the correctness invariant at the heart of the
//! paper — Odyssey is an *exact* search system, so every answer must
//! equal the brute-force scan's.

use odyssey::cluster::{ClusterConfig, OdysseyCluster};
use odyssey::core::distance::euclidean_sq;
use odyssey::core::index::{Index, IndexConfig};
use odyssey::core::search::engine::BatchEngine;
use odyssey::core::search::exact::SearchParams;
use odyssey::core::series::DatasetBuffer;
use odyssey::workloads::generator::random_walk;
use std::sync::Arc;

fn brute_force_sq(data: &DatasetBuffer, q: &[f32]) -> (f64, usize) {
    (0..data.num_series())
        .map(|i| (euclidean_sq(q, data.series(i)), i))
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .expect("non-empty dataset")
}

#[test]
fn single_node_exact_search_matches_brute_force() {
    let data = random_walk(600, 32, 0x51);
    let queries = random_walk(4, 32, 0x52);
    let index = Index::build(
        data.clone(),
        IndexConfig::new(32).with_segments(8).with_leaf_capacity(32),
        2,
    );
    let engine = BatchEngine::new(Arc::new(index), 2);
    for qi in 0..queries.num_series() {
        let q = queries.series(qi);
        let (want_sq, _) = brute_force_sq(&data, q);
        let got = engine.exact(q, &SearchParams::new(2));
        assert!(
            (got.answer.distance_sq - want_sq).abs() < 1e-9,
            "query {qi}: engine {} != brute force {}",
            got.answer.distance_sq,
            want_sq
        );
        // The reported id must realize the reported distance.
        let id = got.answer.series_id.expect("answer carries an id") as usize;
        let realized = euclidean_sq(q, data.series(id));
        assert!((realized - got.answer.distance_sq).abs() < 1e-9, "query {qi}: id mismatch");
    }
}

#[test]
fn two_node_cluster_batch_matches_brute_force() {
    let data = random_walk(600, 32, 0x53);
    let queries = random_walk(4, 32, 0x54);
    let cluster = OdysseyCluster::build(&data, ClusterConfig::new(2).with_threads_per_node(1));
    let report = cluster.answer_batch(&queries);
    assert_eq!(report.answers.len(), queries.num_series());
    for qi in 0..queries.num_series() {
        let (want_sq, _) = brute_force_sq(&data, queries.series(qi));
        let got = report.answers[qi];
        assert!(
            (got.distance_sq - want_sq).abs() < 1e-9,
            "query {qi}: cluster {} != brute force {}",
            got.distance_sq,
            want_sq
        );
    }
}
