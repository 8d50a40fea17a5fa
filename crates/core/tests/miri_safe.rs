//! The Miri tier's test subset (`cargo run -p xtask -- miri` runs this
//! file under the interpreter).
//!
//! Miri executes real Rust semantics with full allocation and borrow
//! tracking, so these tests check the crate's load-bearing unsafe for
//! UB the type system cannot see: the pool's job lifetime erasure
//! (`erase_job`) and the striped raw-pointer summary writes. Sizes are
//! tiny — Miri is orders of magnitude slower than native — but every
//! unsafe path is crossed with real threads (thread pinning is `cfg`'d
//! out under Miri).
//!
//! Gated behind the `miri-safe` feature so the plain test tier does not
//! run the same exercises twice.
#![cfg(feature = "miri-safe")]

use odyssey_core::buffers::Summaries;
use odyssey_core::index::{Index, IndexConfig};
use odyssey_core::search::engine::{BatchEngine, BatchQuery, QueryKind};
use odyssey_core::search::exact::{SearchParams, StealView};
use odyssey_core::series::DatasetBuffer;
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
        odyssey_core::series::znormalize(&mut s);
        data.extend_from_slice(&s);
    }
    DatasetBuffer::from_vec(data, len)
}

fn tiny_index(n: usize, threads: usize) -> Arc<Index> {
    Arc::new(Index::build(
        walk_dataset(n, 16, 9),
        IndexConfig::new(16).with_segments(4).with_leaf_capacity(8),
        threads,
    ))
}

/// The striped `SendPtr` writes of `Summaries::compute`: concurrent
/// disjoint raw-pointer writes must be UB-free and match the
/// single-thread result byte for byte.
#[test]
fn striped_summary_writes_match_sequential_at_small_sizes() {
    let data = walk_dataset(40, 16, 5);
    let par = Summaries::compute(&data, 4, 3);
    let seq = Summaries::compute(&data, 4, 1);
    for id in 0..40u32 {
        assert_eq!(par.sax(id), seq.sax(id), "id={id}");
    }
}

/// A whole multi-threaded `Index::build`: the striped summary writes,
/// then `build_forest`'s workers, whose `(buffer index, subtree)`
/// results are placed in buffer order after their scope joins (safe
/// code, but the build is the path every index takes, so it runs under
/// the interpreter too). Several threads must produce a well-formed
/// index.
#[test]
fn parallel_index_build_is_ub_free() {
    let idx = tiny_index(48, 3);
    assert_eq!(idx.num_series(), 48);
}

/// The pool's `erase_job` lifetime erasure, epoch hand-off, and debug
/// slot canary, round-tripped across several queries on a resident
/// engine (the erased borrow dies and is re-erased every query).
#[test]
fn pool_job_erasure_round_trips() {
    let idx = tiny_index(32, 1);
    let engine = BatchEngine::new(Arc::clone(&idx), 2);
    let inline = BatchEngine::new(Arc::clone(&idx), 1);
    let params = SearchParams::new(2);
    for seed in 0..3u64 {
        let q = walk_dataset(1, 16, 40 + seed).series(0).to_vec();
        let got = engine.exact(&q, &params);
        let want = inline.exact(&q, &params);
        assert_eq!(got.answer.distance.to_bits(), want.answer.distance.to_bits());
    }
}

/// The lane runtime's erased job slot, follower loop and group
/// barrier: one width-2 dispatch lane on a 2-thread pool answers two
/// queries, so each query's job is erased and published to the
/// follower (a width-1 lane would run inline and skip all three).
#[test]
fn lane_job_slots_round_trip() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::OnceLock;
    let idx = tiny_index(32, 1);
    let engine = BatchEngine::new(Arc::clone(&idx), 2);
    let qdata: Vec<Vec<f32>> = (0..2)
        .map(|i| walk_dataset(1, 16, 60 + i).series(0).to_vec())
        .collect();
    let queries: Vec<BatchQuery> = qdata
        .iter()
        .map(|q| BatchQuery::new(q, QueryKind::Exact))
        .collect();
    let params = SearchParams::new(1);
    let items: Vec<OnceLock<f64>> = (0..queries.len()).map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    engine.run_dispatch(&[2], &|ctx, _lane| {
        assert_eq!(ctx.width(), 2);
        loop {
            let qi = next.fetch_add(1, Ordering::Relaxed);
            let Some(q) = queries.get(qi) else { break };
            let item = ctx.execute(qi, q, &params);
            let _ = items[qi].set(item.answer.nn().distance);
        }
    });
    for (q, got) in qdata.iter().zip(&items) {
        assert_eq!(
            engine.exact(q, &params).answer.distance.to_bits(),
            got.get().expect("answered").to_bits()
        );
    }
}

/// The StealView protocol state machine on its public test surface:
/// init, publish, steal marking, and the claim-free re-init used by
/// the pre-stolen flow.
#[test]
fn steal_view_protocol_round_trip() {
    let view = StealView::new();
    assert!(view.try_steal(2).is_empty(), "nothing stealable before init");
    view.test_init(4);
    assert!(
        view.try_steal(2).is_empty(),
        "nothing stealable before processing"
    );
    view.test_publish(vec![0, 1, 2, 3]);
    let stolen = view.try_steal(2);
    assert_eq!(stolen, vec![3, 2], "steals from the tail");
    let again = view.try_steal(4);
    assert_eq!(again, vec![1, 0], "remaining queues, no double steal");
    assert!(view.try_steal(1).is_empty(), "everything already stolen");
}
