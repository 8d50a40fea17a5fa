//! The reference a batch answer is checked against: every query asked
//! alone, on the engine's full pool, through the per-query entry points
//! (`exact`, `knn`, `dtw`). Shared by the batch and lane suites.

use odyssey::core::search::engine::{BatchAnswer, BatchEngine, BatchOutcome, BatchQuery, QueryKind};
use odyssey::core::search::exact::SearchParams;

/// Answers each query of `batch` one at a time on the full pool, with
/// the query's own params when it carries them.
pub fn per_query_reference(
    engine: &BatchEngine,
    batch: &[BatchQuery],
    params: &SearchParams,
) -> Vec<BatchAnswer> {
    batch
        .iter()
        .map(|q| {
            let p = q.params.unwrap_or(*params);
            match q.kind {
                QueryKind::Exact => BatchAnswer::Nn(engine.exact(q.data, &p).answer),
                QueryKind::Knn(k) => BatchAnswer::Knn(engine.knn(q.data, k, &p).0),
                QueryKind::Dtw(w) => BatchAnswer::Nn(engine.dtw(q.data, w, &p).0),
            }
        })
        .collect()
}

/// Asserts every item of `got` equals the reference bit for bit: the
/// same distances and the same ids, item by item in input order.
pub fn assert_bit_identical(want: &[BatchAnswer], got: &BatchOutcome, context: &str) {
    assert_eq!(want.len(), got.items.len(), "{context}: item count");
    for (qi, (w, g)) in want.iter().zip(&got.items).enumerate() {
        match (w, &g.answer) {
            (BatchAnswer::Nn(w), BatchAnswer::Nn(g)) => {
                assert_eq!(
                    g.distance.to_bits(),
                    w.distance.to_bits(),
                    "{context} item {qi}: 1-NN distance"
                );
                assert_eq!(g.series_id, w.series_id, "{context} item {qi}: 1-NN id");
            }
            (BatchAnswer::Knn(w), BatchAnswer::Knn(g)) => {
                assert_eq!(g.neighbors.len(), w.neighbors.len(), "{context} item {qi}");
                for (rank, (g, w)) in g.neighbors.iter().zip(&w.neighbors).enumerate() {
                    assert_eq!(
                        (g.0.to_bits(), g.1),
                        (w.0.to_bits(), w.1),
                        "{context} item {qi}: k-NN rank {rank}"
                    );
                }
            }
            (w, g) => panic!("{context} item {qi}: kind mismatch {w:?} vs {g:?}"),
        }
    }
}
