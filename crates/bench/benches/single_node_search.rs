//! Single-node exact-search benchmarks: easy vs hard queries, 1-NN vs
//! k-NN vs DTW — the per-node cost Figure 4's predictor models.

use criterion::{criterion_group, criterion_main, Criterion};
use odyssey_core::index::{Index, IndexConfig};
use odyssey_core::search::engine::BatchEngine;
use odyssey_core::search::exact::SearchParams;
use odyssey_workloads::generator::random_walk;
use odyssey_workloads::queries::{QueryWorkload, WorkloadKind};
use std::sync::Arc;

fn bench_search(c: &mut Criterion) {
    let data = random_walk(8_000, 128, 11);
    let index = Arc::new(Index::build(
        data.clone(),
        IndexConfig::new(128).with_segments(16).with_leaf_capacity(128),
        2,
    ));
    let engine = BatchEngine::new(Arc::clone(&index), 2);
    let easy = QueryWorkload::generate(&data, 1, WorkloadKind::Easy { noise: 0.02 }, 5);
    let hard = QueryWorkload::generate(&data, 1, WorkloadKind::Hard, 5);
    let params = SearchParams::new(2);

    let mut group = c.benchmark_group("single_node_search");
    group.sample_size(20);
    group.bench_function("exact_easy", |b| {
        b.iter(|| engine.exact(easy.query(0), &params))
    });
    group.bench_function("exact_hard", |b| {
        b.iter(|| engine.exact(hard.query(0), &params))
    });
    group.bench_function("knn10_hard", |b| {
        b.iter(|| engine.knn(hard.query(0), 10, &params))
    });
    group.bench_function("dtw_5pct_easy", |b| {
        b.iter(|| engine.dtw(easy.query(0), 6, &params))
    });
    group.bench_function("approx_only", |b| {
        b.iter(|| index.approx_search(hard.query(0)))
    });
    group.finish();
}

criterion_group!(benches, bench_search);
criterion_main!(benches);
