//! Ablations of the design choices DESIGN.md §5 calls out:
//!
//! * `nsb_*` — RS-batch count (the paper: best when Nsb = #threads);
//! * `th_*` — bounded vs unbounded priority queues;
//! * `help_*` — traversal-phase helping on/off.

use criterion::{criterion_group, criterion_main, Criterion};
use odyssey_core::index::{Index, IndexConfig};
use odyssey_core::search::engine::BatchEngine;
use odyssey_core::search::exact::SearchParams;
use odyssey_workloads::generator::noisy_walk;
use odyssey_workloads::queries::{QueryWorkload, WorkloadKind};
use std::sync::Arc;

fn bench_ablations(c: &mut Criterion) {
    let data = noisy_walk(8_000, 128, 13);
    let index = Index::build(
        data.clone(),
        IndexConfig::new(128).with_segments(16).with_leaf_capacity(128),
        2,
    );
    let engine = BatchEngine::new(Arc::new(index), 2);
    let w = QueryWorkload::generate(&data, 1, WorkloadKind::Hard, 9);
    let q = w.query(0);

    let mut group = c.benchmark_group("ablations");
    group.sample_size(15);
    // RS-batch count sweep.
    for nsb in [1usize, 2, 8, 32] {
        group.bench_function(format!("nsb_{nsb}"), |b| {
            let params = SearchParams::new(2).with_nsb(nsb);
            b.iter(|| engine.exact(q, &params))
        });
    }
    // Queue-threshold sweep (bounded vs unbounded).
    for (label, th) in [("16", 16usize), ("256", 256), ("unbounded", usize::MAX - 1)] {
        group.bench_function(format!("th_{label}"), |b| {
            let params = SearchParams::new(2).with_th(th);
            b.iter(|| engine.exact(q, &params))
        });
    }
    // Helping on/off.
    for (label, help) in [("on", 2usize), ("off", 0)] {
        group.bench_function(format!("help_{label}"), |b| {
            let params = SearchParams::new(2).with_help_th(help);
            b.iter(|| engine.exact(q, &params))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
