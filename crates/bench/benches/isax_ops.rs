//! Micro-benchmarks of the summarization pipeline: PAA, SAX symbols,
//! and the mindist lower bounds.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use odyssey_core::paa::paa;
use odyssey_core::sax::{
    mindist_paa_isax_sq, mindist_paa_sax_sq, sax_word_into, IsaxWord, MindistTable,
};
use odyssey_workloads::generator::random_walk;

fn bench_isax(c: &mut Criterion) {
    let len = 256usize;
    let segs = 16usize;
    let data = random_walk(2, len, 7);
    let s = data.series(0);
    let q = data.series(1);
    let qpaa = paa(q, segs);
    let spaa = paa(s, segs);
    let mut sax = vec![0u8; segs];
    sax_word_into(&spaa, &mut sax);
    let word = IsaxWord::from_sax(&sax, 4);

    let mut group = c.benchmark_group("isax");
    group.bench_function("paa_256_16", |b| {
        b.iter(|| paa(black_box(s), black_box(segs)))
    });
    group.bench_function("sax_word_16", |b| {
        let mut out = vec![0u8; segs];
        b.iter(|| sax_word_into(black_box(&spaa), &mut out))
    });
    group.bench_function("mindist_paa_isax", |b| {
        b.iter(|| mindist_paa_isax_sq(black_box(&qpaa), black_box(&word), len))
    });
    group.bench_function("mindist_paa_sax", |b| {
        b.iter(|| mindist_paa_sax_sq(black_box(&qpaa), black_box(&sax), len))
    });
    // The per-query lookup table the kernels actually use on the hot
    // path: same bounds, bit-identical, but w lookups + adds instead of
    // breakpoint and segment-bound arithmetic per candidate.
    let table = MindistTable::from_paa(&qpaa, len);
    group.bench_function("table_build", |b| {
        b.iter(|| MindistTable::from_paa(black_box(&qpaa), black_box(len)))
    });
    group.bench_function("table_series_lb", |b| {
        b.iter(|| black_box(&table).series_lb_sq(black_box(&sax)))
    });
    group.bench_function("table_word_lb", |b| {
        b.iter(|| black_box(&table).word_lb_sq(black_box(word.view())))
    });
    // A leaf-sized contiguous SAX block (128 candidates), as drained by
    // the batched pruning pass.
    let n_block = 128usize;
    let block_data = random_walk(n_block, len, 11);
    let mut block = Vec::with_capacity(n_block * segs);
    for i in 0..n_block {
        let mut w = vec![0u8; segs];
        sax_word_into(&paa(block_data.series(i), segs), &mut w);
        block.extend_from_slice(&w);
    }
    let mut out = vec![0.0f64; n_block];
    group.bench_function("table_block_lb_128", |b| {
        b.iter(|| black_box(&table).block_lb_sq(black_box(&block), &mut out))
    });
    group.finish();
}

criterion_group!(benches, bench_isax);
criterion_main!(benches);
