//! Quickstart: build an index over a data-series collection, start a
//! persistent `BatchEngine` on it, and answer exact 1-NN, k-NN, and DTW
//! queries on a single node — then run the same workload as one batch.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use odyssey::core::index::{Index, IndexConfig};
use odyssey::core::search::engine::{BatchEngine, BatchQuery, QueryKind};
use odyssey::core::search::exact::SearchParams;
use odyssey::workloads::generator::random_walk;
use odyssey::workloads::queries::{QueryWorkload, WorkloadKind};
use std::sync::Arc;

fn main() {
    // 10k random-walk series of length 128 (like the paper's Random).
    let data = random_walk(10_000, 128, 42);
    println!(
        "collection: {} series x {} points ({:.1} MB raw)",
        data.num_series(),
        data.series_len(),
        data.size_bytes() as f64 / 1048576.0
    );

    // Build the iSAX index: 16 segments, capacity-128 leaves, 2 threads.
    let cfg = IndexConfig::new(128).with_segments(16).with_leaf_capacity(128);
    let index = Index::build(data.clone(), cfg, 2);
    let t = index.build_times();
    println!(
        "index: {} root subtrees, {} leaves, built in {:?} (buffers {:?} + tree {:?})",
        index.forest().len(),
        index.leaf_count(),
        t.index_time(),
        t.buffer_time,
        t.tree_time
    );

    // A query batch: perturbed copies of indexed series plus random ones.
    let workload = QueryWorkload::generate(
        &data,
        5,
        WorkloadKind::Mixed {
            hard_fraction: 0.4,
            noise: 0.05,
        },
        7,
    );

    // A persistent 2-thread engine: the worker pool and scratch arenas
    // are provisioned once, not per query.
    let engine = BatchEngine::new(Arc::new(index), 2);
    let params = SearchParams::new(2);
    for qi in 0..workload.len() {
        let q = workload.query(qi);
        // Exact 1-NN under Euclidean distance.
        let out = engine.exact(q, &params);
        println!(
            "query {qi}: 1-NN id={:?} dist={:.4} (initial BSF {:.4}, {} real dists, {} queues)",
            out.answer.series_id,
            out.answer.distance,
            out.stats.initial_bsf,
            out.stats.real_distance_computations,
            out.stats.pq_count
        );
    }

    // k-NN: the 5 nearest series to the first query.
    let (knn, _) = engine.knn(workload.query(0), 5, &params);
    let ids: Vec<u32> = knn.neighbors.iter().map(|&(_, id)| id).collect();
    println!("query 0: 5-NN ids = {ids:?}");

    // DTW with a 5% warping window.
    let (dtw, _) = engine.dtw(workload.query(0), 128 * 5 / 100, &params);
    println!(
        "query 0: DTW 1-NN id={:?} dist={:.4} (<= Euclidean {:.4})",
        dtw.series_id,
        dtw.distance,
        engine.exact(workload.query(0), &params).answer.distance
    );

    // The same workload as one batch: queries run side by side on lanes.
    let batch: Vec<BatchQuery> = (0..workload.len())
        .map(|qi| BatchQuery::new(workload.query(qi), QueryKind::Exact))
        .collect();
    let order: Vec<usize> = (0..batch.len()).collect();
    let outcome = engine.run_batch(&batch, &order, &params);
    println!(
        "batch engine: {} queries in {:?} on {} threads",
        outcome.items.len(),
        outcome.wall,
        engine.n_threads()
    );
}
