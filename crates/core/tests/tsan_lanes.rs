//! The ThreadSanitizer tier's target tests (`cargo run -p xtask --
//! tsan` builds exactly this file with `-Zsanitizer=thread`).
//!
//! These are ordinary bit-identity tests — they also run in the plain
//! test tier — but they are chosen so that every synchronization edge
//! of the concurrency machinery is crossed under load: the resident
//! pool's epoch hand-off, the dispatch lanes' group barriers, job slots
//! and shared claim sources, the steal registry's cooperative service
//! path, and the traversal phase's per-batch queue hand-ins under
//! helping, each at pool widths 2, 4, and 8.
//!
//! Everything here synchronizes through in-crate primitives
//! (`PhaseBarrier`, monomorphized `Mutex<T>`), so the happens-before
//! edges are visible to TSan without rebuilding std (`-Zbuild-std`
//! needs a network the CI cache setup avoids).

use odyssey_core::index::{Index, IndexConfig};
use odyssey_core::search::engine::{BatchAnswer, BatchEngine, BatchItem, BatchQuery, QueryKind};
use odyssey_core::search::exact::SearchParams;
use odyssey_core::search::multiq::uniform_widths;
use odyssey_core::series::DatasetBuffer;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

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

/// The reference every lane answer is checked against: each query
/// asked alone on a 2-thread engine through the per-query entry points.
fn per_query_reference(
    index: &Arc<Index>,
    queries: &[BatchQuery],
    params: &SearchParams,
) -> Vec<BatchAnswer> {
    let engine = BatchEngine::new(Arc::clone(index), 2);
    queries
        .iter()
        .map(|q| match q.kind {
            QueryKind::Exact => BatchAnswer::Nn(engine.exact(q.data, params).answer),
            QueryKind::Knn(k) => BatchAnswer::Knn(engine.knn(q.data, k, params).0),
            QueryKind::Dtw(w) => BatchAnswer::Nn(engine.dtw(q.data, w, params).0),
        })
        .collect()
}

/// Asserts `got` answers bit-identically to the reference: same
/// distances and ids.
fn assert_matches(want: &BatchAnswer, got: &BatchItem, context: &str) {
    match (want, &got.answer) {
        (BatchAnswer::Nn(x), BatchAnswer::Nn(y)) => {
            assert_eq!(x.distance.to_bits(), y.distance.to_bits(), "{context}");
            assert_eq!(x.series_id, y.series_id, "{context}");
        }
        (BatchAnswer::Knn(x), BatchAnswer::Knn(y)) => {
            assert_eq!(x.neighbors, y.neighbors, "{context}");
        }
        _ => panic!("{context}: answer kinds diverged"),
    }
}

fn build(n: usize) -> Arc<Index> {
    Arc::new(Index::build(
        walk_dataset(n, 64, 33),
        IndexConfig::new(64).with_segments(8).with_leaf_capacity(24),
        4,
    ))
}

/// Answers `queries` on dispatch lanes of the given `widths`, each lane
/// claiming the next query from a shared cursor as `run_batch` does.
/// Items come back in input order.
fn dispatch(
    engine: &BatchEngine,
    queries: &[BatchQuery],
    widths: &[usize],
    params: &SearchParams,
) -> Vec<BatchItem> {
    let items: Vec<OnceLock<BatchItem>> = (0..queries.len()).map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    engine.run_dispatch(widths, &|ctx, _lane| loop {
        let qi = next.fetch_add(1, Ordering::Relaxed);
        let Some(q) = queries.get(qi) else { break };
        let _ = items[qi].set(ctx.execute(qi, q, params));
    });
    items
        .into_iter()
        .map(|s| s.into_inner().expect("every query claimed"))
        .collect()
}

/// Dispatch lanes of every uniform width at each pool size, from one
/// full-pool lane down to single-worker lanes (with a wider remainder
/// lane where the width does not divide the pool): lanes run
/// simultaneously on disjoint worker groups, and every answer must be
/// bit-identical to the per-query reference.
#[test]
fn concurrent_lanes_bit_identical_at_2_4_8_threads() {
    let index = build(700);
    let qdata: Vec<Vec<f32>> = (0..8)
        .map(|i| walk_dataset(1, 64, 500 + i).series(0).to_vec())
        .collect();
    let queries: Vec<BatchQuery> = qdata
        .iter()
        .map(|q| BatchQuery::new(q, QueryKind::Exact))
        .collect();
    let params = SearchParams::new(1);
    let reference = per_query_reference(&index, &queries, &params);

    for pool in [2usize, 4, 8] {
        let engine = BatchEngine::new(Arc::clone(&index), pool);
        for width in 1..=pool {
            let conc = dispatch(&engine, &queries, &uniform_widths(pool, width), &params);
            for (qi, (a, b)) in reference.iter().zip(&conc).enumerate() {
                assert_matches(a, b, &format!("pool={pool} width={width} query={qi}"));
            }
        }
    }
}

/// The continuous-dispatch path (the serving loop's mechanism): lanes
/// claim queries from one shared source with **no barrier between
/// claims** — a lane that finishes immediately pulls the next query
/// while its siblings are still mid-search. TSan watches the shared
/// claim queue, each lane's publish/join barriers, and the result
/// slots; answers must stay bit-identical to the per-query reference
/// at every pool width (mixed ED / DTW / k-NN kinds). `run_batch`, which
/// is built on the same mechanism, is checked alongside.
#[test]
fn continuous_dispatch_bit_identical_at_2_4_8_threads() {
    use parking_lot::Mutex;
    use std::collections::VecDeque;

    let index = build(700);
    let qdata: Vec<Vec<f32>> = (0..9)
        .map(|i| walk_dataset(1, 64, 4200 + i).series(0).to_vec())
        .collect();
    let queries: Vec<BatchQuery> = qdata
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let kind = match i % 3 {
                0 => QueryKind::Exact,
                1 => QueryKind::Dtw(4),
                _ => QueryKind::Knn(3),
            };
            BatchQuery::new(q, kind)
        })
        .collect();
    let params = SearchParams::new(1);
    let order: Vec<usize> = (0..queries.len()).collect();
    let reference = per_query_reference(&index, &queries, &params);

    for pool in [2usize, 4, 8] {
        let engine = BatchEngine::new(Arc::clone(&index), pool);
        let batch = engine.run_batch(&queries, &order, &params);
        for (qi, (a, b)) in reference.iter().zip(&batch.items).enumerate() {
            assert_matches(a, b, &format!("pool={pool} query={qi}: run_batch"));
        }
        let source: Mutex<VecDeque<usize>> = Mutex::new((0..queries.len()).collect());
        let slots: Vec<Mutex<Option<BatchItem>>> =
            (0..queries.len()).map(|_| Mutex::new(None)).collect();
        // Several width-(pool/2) lanes claiming from the same queue.
        let widths = uniform_widths(pool, (pool / 2).max(1));
        engine.run_dispatch(&widths, &|ctx, _lane| loop {
            let Some(qi) = source.lock().pop_front() else { break };
            let item = ctx.execute(qi, &queries[qi], &params);
            *slots[qi].lock() = Some(item);
        });
        for (qi, (a, slot)) in reference.iter().zip(&slots).enumerate() {
            let b = slot.lock();
            let b = b.as_ref().expect("dispatch answered every query");
            assert_matches(a, b, &format!("pool={pool} query={qi}: continuous dispatch"));
        }
    }
}

/// The steal registry's cooperative service path under concurrent
/// lanes: workers serve steal requests between queue claims while
/// other lanes run. Exactness must survive at every pool width.
#[test]
fn steal_service_under_lanes_stays_exact_at_2_4_8_threads() {
    let index = build(600);
    let qdata: Vec<Vec<f32>> = (0..6)
        .map(|i| walk_dataset(1, 64, 900 + i).series(0).to_vec())
        .collect();
    let queries: Vec<BatchQuery> = qdata
        .iter()
        .map(|q| BatchQuery::new(q, QueryKind::Exact))
        .collect();
    let params = SearchParams::new(1).with_th(16);
    let reference = per_query_reference(&index, &queries, &params);

    for pool in [2usize, 4, 8] {
        let engine = BatchEngine::new(Arc::clone(&index), pool);
        // Exercise the registry's snapshot/serve surface concurrently
        // with the running lanes.
        engine.steal_registry().install_service(Arc::new(|reg| {
            let _ = reg.snapshot();
        }));
        let conc = dispatch(&engine, &queries, &uniform_widths(pool, 1), &params);
        for (qi, (a, b)) in reference.iter().zip(&conc).enumerate() {
            assert_matches(a, b, &format!("pool={pool} query={qi}: under steal service"));
        }
        assert_eq!(engine.steal_registry().in_flight(), 0);
    }
}

/// A worker killed mid-round — the failover tier's death model: the
/// cooperative service hook panics once inside a lane round, the
/// poisoned barrier unwinds every sibling worker, the engine resets
/// its pool and deregisters the steal grant, and the *same* engine
/// then re-runs the full batch bit-identically. TSan watches the
/// poison/reset edges that an unsynchronized teardown would miss.
#[test]
fn kill_mid_round_then_rerun_is_bit_identical_at_2_4_8_threads() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let index = build(600);
    let qdata: Vec<Vec<f32>> = (0..6)
        .map(|i| walk_dataset(1, 64, 1500 + i).series(0).to_vec())
        .collect();
    let queries: Vec<BatchQuery> = qdata
        .iter()
        .map(|q| BatchQuery::new(q, QueryKind::Exact))
        .collect();
    let params = SearchParams::new(1).with_th(16);
    let reference = per_query_reference(&index, &queries, &params);

    for pool in [2usize, 4, 8] {
        let engine = BatchEngine::new(Arc::clone(&index), pool);
        let armed = Arc::new(AtomicBool::new(true));
        let trigger = Arc::clone(&armed);
        engine.steal_registry().install_service(Arc::new(move |_| {
            if trigger.swap(false, Ordering::AcqRel) {
                panic!("injected worker death");
            }
        }));
        let widths = uniform_widths(pool, (pool / 2).max(1));
        let killed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            dispatch(&engine, &queries, &widths, &params)
        }));
        assert!(killed.is_err(), "pool={pool}: armed hook must kill the round");
        assert_eq!(
            engine.steal_registry().in_flight(),
            0,
            "pool={pool}: unwind must deregister the dying round's grants"
        );
        // The pool reset on unwind leaves the engine reusable: the
        // re-run (a failover re-execution) must match the reference.
        let conc = dispatch(&engine, &queries, &widths, &params);
        for (qi, (a, b)) in reference.iter().zip(&conc).enumerate() {
            assert_matches(a, b, &format!("pool={pool} query={qi}: re-run after kill"));
        }
    }
}

/// The resident pool's epoch protocol (publish, run, drain) crossed
/// many times in a row at each width — the pattern where a missed
/// happens-before edge between submitter and workers would surface.
#[test]
fn pool_reuse_across_queries_at_2_4_8_threads() {
    let index = build(500);
    let params = SearchParams::new(1);
    for pool in [2usize, 4, 8] {
        let engine = BatchEngine::new(Arc::clone(&index), pool);
        for qseed in 0..4u64 {
            let q = walk_dataset(1, 64, 2000 + qseed).series(0).to_vec();
            let single = odyssey_core::search::exact::exact_search(&index, &q, &params);
            let pooled = engine.exact(&q, &params);
            assert_eq!(
                pooled.answer.distance.to_bits(),
                single.answer.distance.to_bits(),
                "pool={pool} qseed={qseed}"
            );
        }
    }
}

/// The traversal phase under maximal helping: many RS-batches, no
/// `HelpTH` bound and a small `TH`, so owners and helpers traverse the
/// same batches at once and hand in their worker-local queues to the
/// same batch lists. TSan watches the claim cursors, the hand-in locks
/// and the phase-2 collection; answers must match one thread.
#[test]
fn helping_traversal_bit_identical_at_2_4_8_threads() {
    let index = build(900);
    for pool in [2usize, 4, 8] {
        let engine = BatchEngine::new(Arc::clone(&index), pool);
        let params = SearchParams::new(pool)
            .with_nsb(4 * pool)
            .with_th(8)
            .with_help_th(usize::MAX);
        for qseed in 0..4u64 {
            let q = walk_dataset(1, 64, 3100 + qseed).series(0).to_vec();
            let single =
                odyssey_core::search::exact::exact_search(&index, &q, &SearchParams::new(1));
            let pooled = engine.exact(&q, &params);
            assert_eq!(
                pooled.answer.distance.to_bits(),
                single.answer.distance.to_bits(),
                "pool={pool} qseed={qseed}"
            );
            assert_eq!(
                pooled.answer.series_id, single.answer.series_id,
                "pool={pool} qseed={qseed}"
            );
        }
    }
}
