//! Batch-engine equivalence: a mixed batch of easy/hard/k-NN/DTW
//! queries executed through **one** persistent [`BatchEngine`] must
//! return answers bit-identical to the per-query entry points (`exact`
//! / `knn` / `dtw`) of a 1-thread engine, which runs every query inline,
//! and agree with brute force, across thread counts and batch lengths —
//! `run_batch`'s lanes change *where* a query runs, never *what* is
//! computed.

mod common;

use common::{assert_bit_identical, per_query_reference};
use odyssey::core::distance::dtw_banded;
use odyssey::core::index::{Index, IndexConfig};
use odyssey::core::search::answer::{Answer, KnnAnswer};
use odyssey::core::search::bsf::{ResultSet, SharedBsf, SharedKnn};
use odyssey::core::search::dtw_search::{dtw_brute_force, DtwKernel};
use odyssey::core::search::engine::{BatchAnswer, BatchEngine, BatchQuery, QueryKind};
use odyssey::core::search::epsilon::EpsilonRelaxed;
use odyssey::core::search::exact::SearchParams;
use odyssey::core::search::kernel::EdKernel;
use odyssey::core::search::knn::knn_brute_force;
use odyssey::core::search::multiq::{uniform_widths, LaneCtx};
use odyssey::workloads::generator::random_walk;
use odyssey::workloads::queries::{QueryWorkload, WorkloadKind};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

fn setup() -> (Arc<Index>, QueryWorkload, QueryWorkload) {
    let data = random_walk(1500, 64, 0xBEEF);
    let index = Arc::new(Index::build(
        data.clone(),
        IndexConfig::new(64).with_segments(8).with_leaf_capacity(24),
        2,
    ));
    let easy = QueryWorkload::generate(&data, 3, WorkloadKind::Easy { noise: 0.02 }, 11);
    let hard = QueryWorkload::generate(&data, 3, WorkloadKind::Hard, 12);
    (index, easy, hard)
}

#[test]
fn mixed_batch_is_bit_identical_to_per_query_paths() {
    let (index, easy, hard) = setup();
    let window = 3usize;
    let k = 5usize;

    // Interleave easy/hard exact queries with k-NN and DTW items.
    let mut batch: Vec<BatchQuery> = Vec::new();
    for qi in 0..easy.len() {
        batch.push(BatchQuery::new(easy.query(qi), QueryKind::Exact));
        batch.push(BatchQuery::new(hard.query(qi), QueryKind::Exact));
    }
    batch.push(BatchQuery::new(hard.query(0), QueryKind::Knn(k)));
    batch.push(BatchQuery::new(easy.query(0), QueryKind::Dtw(window)));
    // A deliberately scrambled (reverse) dispatch order: results must
    // still come back in input positions.
    let order: Vec<usize> = (0..batch.len()).rev().collect();
    let inline = BatchEngine::new(Arc::clone(&index), 1);

    for threads in [1usize, 2, 4] {
        let params = SearchParams::new(threads).with_th(32);
        let engine = BatchEngine::new(Arc::clone(&index), threads);
        let out = engine.run_batch(&batch, &order, &params);
        assert_eq!(out.items.len(), batch.len());
        for (qi, item) in out.items.iter().enumerate() {
            let q = batch[qi].data;
            match (batch[qi].kind, &item.answer) {
                (QueryKind::Exact, BatchAnswer::Nn(got)) => {
                    let want = inline.exact(q, &params).answer;
                    assert!((got.distance - index.brute_force(q).distance).abs() < 1e-9);
                    assert_eq!(
                        got.distance.to_bits(),
                        want.distance.to_bits(),
                        "threads={threads} item={qi}: exact"
                    );
                }
                (QueryKind::Knn(kk), BatchAnswer::Knn(got)) => {
                    let (want, _) = inline.knn(q, kk, &params);
                    assert_eq!(got.neighbors.len(), want.neighbors.len());
                    let oracle = knn_brute_force(&index, q, kk);
                    for (g, b) in got.neighbors.iter().zip(&oracle.neighbors) {
                        assert!((g.0 - b.0).abs() < 1e-9, "item={qi}: knn vs brute force");
                    }
                    for (g, w) in got.neighbors.iter().zip(&want.neighbors) {
                        assert_eq!(
                            g.0.to_bits(),
                            w.0.to_bits(),
                            "threads={threads} item={qi}: knn distance"
                        );
                    }
                }
                (QueryKind::Dtw(ww), BatchAnswer::Nn(got)) => {
                    let (want, _) = inline.dtw(q, ww, &params);
                    assert!((got.distance - dtw_brute_force(&index, q, ww).distance).abs() < 1e-9);
                    assert_eq!(
                        got.distance.to_bits(),
                        want.distance.to_bits(),
                        "threads={threads} item={qi}: dtw"
                    );
                }
                (kind, ans) => panic!("item {qi}: kind {kind:?} produced {ans:?}"),
            }
        }
    }
}

#[test]
fn knn_reports_the_seed_kth_distance_as_initial_bsf() {
    // The observers training the cost and TH models read a k-NN query's
    // `initial_bsf` as its seed bound: the seed leaf's rooted k-th
    // distance (infinite below k series), on the pool and on lanes alike.
    let (index, easy, hard) = setup();
    let engine = BatchEngine::new(Arc::clone(&index), 2);
    let seen = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&seen);
    engine.steal_registry().install_observer(Arc::new(move |_, stats| {
        sink.lock().unwrap().push(stats.initial_bsf);
    }));
    let params = SearchParams::new(2);
    for k in [1usize, 5, 30] {
        let batch: Vec<BatchQuery> = [easy.query(0), hard.query(0), hard.query(1)]
            .into_iter()
            .map(|q| BatchQuery::new(q, QueryKind::Knn(k)))
            .collect();
        let seeds: Vec<f64> = batch
            .iter()
            .map(|q| match engine.approximate(q) {
                BatchAnswer::Knn(a) if a.neighbors.len() == k => a.neighbors[k - 1].0.sqrt(),
                _ => f64::INFINITY,
            })
            .collect();
        // Three queries on a 2-thread pool run on two width-1 lanes.
        let lanes = engine.run_batch(&batch, &[0, 1, 2], &params);
        for (qi, q) in batch.iter().enumerate() {
            let (_, pooled) = engine.knn(q.data, k, &params);
            assert_eq!(pooled.initial_bsf.to_bits(), seeds[qi].to_bits(), "k={k} q={qi} pool");
            let laned = lanes.items[qi].stats.initial_bsf;
            assert_eq!(laned.to_bits(), seeds[qi].to_bits(), "k={k} q={qi} lane");
        }
        let observed = std::mem::take(&mut *seen.lock().unwrap());
        assert_eq!(observed.len(), 2 * batch.len(), "k={k}: one observation per query");
        assert!(!observed.contains(&0.0) || seeds.contains(&0.0), "k={k}: {observed:?}");
    }
}

#[test]
fn engine_reuse_across_consecutive_batches_is_stable() {
    // Scratch arenas (heaps, stacks, lower-bound buffers) persist across
    // batches; two identical runs through the same engine must agree
    // bit-for-bit with each other and with a fresh engine.
    let (index, easy, hard) = setup();
    let batch: Vec<BatchQuery> = (0..easy.len())
        .flat_map(|qi| {
            [
                BatchQuery::new(easy.query(qi), QueryKind::Exact),
                BatchQuery::new(hard.query(qi), QueryKind::Exact),
            ]
        })
        .collect();
    let order: Vec<usize> = (0..batch.len()).collect();
    let params = SearchParams::new(2).with_th(16);

    let engine = BatchEngine::new(Arc::clone(&index), 2);
    let first = engine.run_batch(&batch, &order, &params);
    let second = engine.run_batch(&batch, &order, &params);
    let fresh = BatchEngine::new(Arc::clone(&index), 2).run_batch(&batch, &order, &params);
    for qi in 0..batch.len() {
        let a = first.items[qi].answer.nn().distance.to_bits();
        let b = second.items[qi].answer.nn().distance.to_bits();
        let c = fresh.items[qi].answer.nn().distance.to_bits();
        assert_eq!(a, b, "item {qi}: reused engine diverged");
        assert_eq!(a, c, "item {qi}: fresh engine diverged");
    }
}

/// `len` queries cycling through ED, k-NN and DTW over easy and hard
/// series; every DTW item and every fifth item carry their own `TH`.
fn cycled_batch<'a>(
    easy: &'a QueryWorkload,
    hard: &'a QueryWorkload,
    len: usize,
    params: &SearchParams,
) -> Vec<BatchQuery<'a>> {
    (0..len)
        .map(|i| {
            let w = if i % 2 == 0 { easy } else { hard };
            let data = w.query(i % w.len());
            let kind = match i % 3 {
                0 => QueryKind::Exact,
                1 => QueryKind::Knn(1 + i % 4),
                _ => QueryKind::Dtw(2 + i % 3),
            };
            let q = BatchQuery::new(data, kind);
            if i % 3 == 2 || i % 5 == 0 {
                q.with_params(params.with_th(1 + 5 * i))
            } else {
                q
            }
        })
        .collect()
}

#[test]
fn run_batch_matches_per_query_calls_across_pools_and_lengths() {
    let (index, easy, hard) = setup();
    for pool in [1usize, 2, 4, 8] {
        let engine = BatchEngine::new(Arc::clone(&index), pool);
        let params = SearchParams::new(pool).with_th(24);
        let mut lengths = vec![1, pool.saturating_sub(1), pool, 3 * pool];
        lengths.sort_unstable();
        lengths.dedup();
        for len in lengths {
            let batch = cycled_batch(&easy, &hard, len, &params);
            let want = per_query_reference(&engine, &batch, &params);
            // Reverse dispatch order: answers still land in input order.
            let order: Vec<usize> = (0..len).rev().collect();
            let got = engine.run_batch(&batch, &order, &params);
            assert_bit_identical(&want, &got, &format!("pool={pool} len={len}"));
        }
    }
}

#[test]
fn run_batch_lanes_follow_the_lane_count_rule() {
    // The steal registry sees each running query with its lane width;
    // the service hook samples it between queue claims.
    let (index, _easy, hard) = setup();
    for pool in [2usize, 4] {
        let engine = BatchEngine::new(Arc::clone(&index), pool);
        let seen: Arc<Mutex<HashSet<(usize, usize)>>> = Default::default();
        {
            let seen = Arc::clone(&seen);
            engine.steal_registry().install_service(Arc::new(move |reg| {
                let mut seen = seen.lock().unwrap();
                for q in reg.snapshot() {
                    seen.insert((q.query_id, q.width));
                }
            }));
        }
        let params = SearchParams::new(pool).with_th(16);
        for len in [1, pool - 1, pool, 3 * pool] {
            seen.lock().unwrap().clear();
            let batch: Vec<BatchQuery> = (0..len)
                .map(|i| BatchQuery::new(hard.query(i % hard.len()), QueryKind::Exact))
                .collect();
            let order: Vec<usize> = (0..len).collect();
            // One lane per query up to the pool: a single query keeps
            // the full pool, a batch of at least `pool` runs at width 1.
            let widths = engine.batch_widths(len);
            let _ = engine.run_batch(&batch, &order, &params);
            let seen = seen.lock().unwrap();
            assert!(!seen.is_empty(), "pool={pool} len={len}: hook never fired");
            for &(qi, width) in seen.iter() {
                assert!(qi < len);
                let allowed = match len {
                    1 => width == pool,
                    n if n >= pool => width == 1,
                    _ => widths.contains(&width),
                };
                assert!(
                    allowed,
                    "pool={pool} len={len}: query {qi} ran at width {width}, lanes {widths:?}"
                );
            }
        }
    }
}

#[test]
fn bad_dispatch_order_panics_before_any_query_runs() {
    let (index, easy, _hard) = setup();
    let engine = BatchEngine::new(Arc::clone(&index), 2);
    let answered = Arc::new(AtomicUsize::new(0));
    {
        let answered = Arc::clone(&answered);
        engine
            .steal_registry()
            .install_observer(Arc::new(move |_, _| {
                answered.fetch_add(1, Ordering::Relaxed);
            }));
    }
    let batch: Vec<BatchQuery> = (0..3)
        .map(|i| BatchQuery::new(easy.query(i), QueryKind::Exact))
        .collect();
    let params = SearchParams::new(2);
    for (order, why) in [
        (vec![0, 1, 3], "out of range"),
        (vec![0, 1, 1], "repeats query"),
        (vec![0, 1], "cover every query"),
    ] {
        let err = catch_unwind(AssertUnwindSafe(|| engine.run_batch(&batch, &order, &params)))
            .expect_err("a bad order must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(msg.contains(why), "order {order:?}: panic {msg:?}");
        assert_eq!(answered.load(Ordering::Relaxed), 0, "order {order:?} ran a query");
    }
    // The engine is untouched and answers the batch afterwards.
    let _ = engine.run_batch(&batch, &[2, 0, 1], &params);
    assert_eq!(answered.load(Ordering::Relaxed), 3);
}

/// Params that leave a query in exactly one phase-3 queue: one RS-batch,
/// no traversal helpers, and a `TH` no queue reaches. Every worker but
/// the queue's claimer can then contribute only through the help pass.
fn one_queue(n_threads: usize) -> SearchParams {
    SearchParams::new(n_threads)
        .with_nsb(1)
        .with_help_th(0)
        .with_th(usize::MAX - 1)
}

/// Runs `job(ctx, qi)` for every `qi < n` on dispatch lanes of `width`,
/// each lane claiming the next index from a shared cursor; results come
/// back in index order.
fn on_lanes<T: Send + Sync>(
    engine: &BatchEngine,
    width: usize,
    n: usize,
    job: &(dyn Fn(&mut LaneCtx, usize) -> T + Sync),
) -> Vec<T> {
    let slots: Vec<OnceLock<T>> = (0..n).map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    let widths = uniform_widths(engine.n_threads(), width);
    engine.run_dispatch(&widths, &|ctx, _lane| loop {
        let qi = next.fetch_add(1, Ordering::Relaxed);
        if qi >= n {
            break;
        }
        let _ = slots[qi].set(job(ctx, qi));
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("every index answered"))
        .collect()
}

/// Exact DTW k-NN by brute force: the `k` smallest banded DTW distances.
fn dtw_knn_brute_force(index: &Index, q: &[f32], window: usize, k: usize) -> Vec<f64> {
    let mut all: Vec<f64> = (0..index.num_series())
        .map(|id| {
            dtw_banded(q, index.series_by_id(id as u32), window, f64::INFINITY)
                .expect("an unbounded DTW never abandons")
        })
        .collect();
    all.sort_by(|a, b| a.total_cmp(b));
    all.truncate(k);
    all
}

/// Phase 3's help pass is the only way a second worker reaches a query
/// held in a single queue (`pq_count == 1`). On pools of 2/4/8 threads
/// and on lanes of width 2/4, for every search kind, answers must be
/// bit-identical to one thread and agree with brute force.
#[test]
fn one_queue_per_query_is_shared_by_the_help_pass() {
    let (index, easy, hard) = setup();
    let queries: Vec<&[f32]> = (0..hard.len())
        .map(|i| hard.query(i))
        .chain((0..easy.len()).map(|i| easy.query(i)))
        .collect();
    let (k, window, eps) = (4usize, 3usize, 0.5f64);
    let segments = index.config().segments;
    let inline = BatchEngine::new(Arc::clone(&index), 1);
    let p1 = one_queue(1);
    let exact_ref: Vec<_> = queries
        .iter()
        .map(|q| inline.exact(q, &p1).answer)
        .collect();
    let knn_ref: Vec<_> = queries.iter().map(|q| inline.knn(q, k, &p1).0).collect();
    let dtw_ref: Vec<_> = queries
        .iter()
        .map(|q| inline.dtw(q, window, &p1).0)
        .collect();
    let dtw_knn_ref: Vec<_> = queries
        .iter()
        .map(|q| inline.dtw_knn(q, window, k, &p1).0)
        .collect();
    for (qi, q) in queries.iter().enumerate() {
        let bf = index.brute_force(q);
        assert_eq!(
            exact_ref[qi].series_id, bf.series_id,
            "q={qi}: exact vs brute force"
        );
        assert!(
            (exact_ref[qi].distance - bf.distance).abs() < 1e-9,
            "q={qi}: exact"
        );
        let oracle = knn_brute_force(&index, q, k);
        assert_eq!(knn_ref[qi].neighbors.len(), k, "q={qi}: knn");
        for (g, b) in knn_ref[qi].neighbors.iter().zip(&oracle.neighbors) {
            assert!((g.0 - b.0).abs() < 1e-9, "q={qi}: knn vs brute force");
        }
        let dtw_bf = dtw_brute_force(&index, q, window).distance;
        assert!((dtw_ref[qi].distance - dtw_bf).abs() < 1e-9, "q={qi}: dtw");
        let dtw_knn_bf = dtw_knn_brute_force(&index, q, window, k);
        let got: Vec<f64> = dtw_knn_ref[qi].neighbors.iter().map(|n| n.0).collect();
        assert_eq!(got.len(), k, "q={qi}: dtw knn");
        for (g, b) in got.iter().zip(&dtw_knn_bf) {
            assert!((g - b).abs() < 1e-9, "q={qi}: dtw knn vs brute force");
        }
    }
    let same_nn = |a: &Answer, b: &Answer, ctx: &str| {
        assert_eq!(
            a.distance.to_bits(),
            b.distance.to_bits(),
            "{ctx}: distance"
        );
        assert_eq!(a.series_id, b.series_id, "{ctx}: id");
    };
    let same_knn = |a: &KnnAnswer, b: &KnnAnswer, ctx: &str| {
        let bits = |x: &KnnAnswer| -> Vec<(u64, u32)> {
            x.neighbors.iter().map(|n| (n.0.to_bits(), n.1)).collect()
        };
        assert_eq!(bits(a), bits(b), "{ctx}: neighbors");
    };

    // The full pool.
    for pool in [2usize, 4, 8] {
        let engine = BatchEngine::new(Arc::clone(&index), pool);
        let p = one_queue(pool);
        for (qi, q) in queries.iter().enumerate() {
            let ctx = format!("pool={pool} q={qi}");
            let out = engine.exact(q, &p);
            assert_eq!(out.stats.pq_count, 1, "{ctx}: exact queues");
            same_nn(&out.answer, &exact_ref[qi], &format!("{ctx} exact"));
            let (ans, stats) = engine.epsilon(q, 0.0, &p);
            assert_eq!(stats.pq_count, 1, "{ctx}: epsilon queues");
            same_nn(&ans, &exact_ref[qi], &format!("{ctx} epsilon 0"));
            let (ans, stats) = engine.epsilon(q, eps, &p);
            assert!(stats.pq_count <= 1, "{ctx}: relaxed epsilon queues");
            assert!(
                ans.distance <= (1.0 + eps) * exact_ref[qi].distance + 1e-9,
                "{ctx}: epsilon"
            );
            let (ans, stats) = engine.knn(q, k, &p);
            assert_eq!(stats.pq_count, 1, "{ctx}: knn queues");
            same_knn(&ans, &knn_ref[qi], &format!("{ctx} knn"));
            let (ans, stats) = engine.dtw(q, window, &p);
            assert_eq!(stats.pq_count, 1, "{ctx}: dtw queues");
            same_nn(&ans, &dtw_ref[qi], &format!("{ctx} dtw"));
            let (ans, stats) = engine.dtw_knn(q, window, k, &p);
            assert_eq!(stats.pq_count, 1, "{ctx}: dtw knn queues");
            same_knn(&ans, &dtw_knn_ref[qi], &format!("{ctx} dtw knn"));
        }
    }

    // Lanes of width 2 and 4 on an 8-thread pool. ED, k-NN and DTW go
    // through a mixed-kind `run_batch` (one lane per query, so 4 and 2
    // queries per round give widths 2 and 4); ε and DTW k-NN, which have
    // no batch kind, run unseeded through `LaneCtx::run_query`.
    let engine = BatchEngine::new(Arc::clone(&index), 8);
    for width in [2usize, 4] {
        let p = one_queue(width);
        let lanes = 8 / width;
        let kinds = [QueryKind::Exact, QueryKind::Knn(k), QueryKind::Dtw(window)];
        for round in queries.chunks(lanes) {
            for shift in 0..kinds.len() {
                let batch: Vec<BatchQuery> = round
                    .iter()
                    .enumerate()
                    .map(|(i, q)| BatchQuery::new(q, kinds[(i + shift) % kinds.len()]))
                    .collect();
                let order: Vec<usize> = (0..batch.len()).collect();
                let got = engine.run_batch(&batch, &order, &p);
                let ctx = format!("width={width} shift={shift} run_batch");
                assert_bit_identical(&per_query_reference(&inline, &batch, &p1), &got, &ctx);
                for item in &got.items {
                    assert_eq!(item.stats.pq_count, 1, "{ctx}: queues");
                }
            }
        }
        let eps0 = on_lanes(&engine, width, queries.len(), &|ctx, qi| {
            let kernel = EdKernel::new(queries[qi], segments);
            let bsf = Arc::new(SharedBsf::new(f64::INFINITY, None));
            let relaxed = EpsilonRelaxed::new(&*bsf, 0.0);
            let grant = ctx.admit(qi, Arc::clone(&bsf) as Arc<dyn ResultSet + Send + Sync>);
            let stats = ctx.run_query(&kernel, &p, &relaxed, None, &grant, &|_, _| {});
            (bsf.answer(), stats.pq_count)
        });
        let dtw_knn = on_lanes(&engine, width, queries.len(), &|ctx, qi| {
            let kernel = DtwKernel::new(queries[qi], window, segments);
            let set = Arc::new(SharedKnn::new(k));
            let grant = ctx.admit(qi, Arc::clone(&set) as Arc<dyn ResultSet + Send + Sync>);
            let stats = ctx.run_query(&kernel, &p, &*set, None, &grant, &|_, _| {});
            (set.snapshot(), stats.pq_count)
        });
        for qi in 0..queries.len() {
            let ctx = format!("width={width} q={qi}");
            assert_eq!(eps0[qi].1, 1, "{ctx}: epsilon queues");
            same_nn(&eps0[qi].0, &exact_ref[qi], &format!("{ctx} epsilon 0"));
            assert_eq!(dtw_knn[qi].1, 1, "{ctx}: dtw knn queues");
            same_knn(&dtw_knn[qi].0, &dtw_knn_ref[qi], &format!("{ctx} dtw knn"));
        }
    }
}
