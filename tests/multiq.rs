//! Inter-query concurrency equivalence and steal-registry invariants.
//!
//! A batch executed on continuous-dispatch lanes
//! ([`BatchEngine::run_dispatch`]) — several queries at once on
//! disjoint worker groups — must return answers bit-identical to each
//! query asked alone on the full pool (the per-query entry points
//! `exact` / `knn` / `dtw`), for every pool size and every group width,
//! and for the widths the admission planner picks from cost estimates:
//! the lanes change *where* a query runs, never *what* is computed.
//! Checked property-style: uniform and planned widths partition the
//! pool's workers and the lanes answer every query exactly once, and the
//! engine-resident steal registry never serves an RS-batch twice over
//! arbitrary interleavings.

#![recursion_limit = "1024"]

mod common;

use odyssey::cluster::{ClusterConfig, OdysseyCluster, Replication, SchedulerKind};
use odyssey::core::search::bsf::{ResultSet, SharedBsf};
use odyssey::core::index::{Index, IndexConfig};
use common::{assert_bit_identical, per_query_reference};
use odyssey::core::search::engine::{
    BatchEngine, BatchItem, BatchOutcome, BatchQuery, QueryKind, StealRegistry,
};
use odyssey::core::search::exact::SearchParams;
use odyssey::core::search::multiq::uniform_widths;
use odyssey::sched::admission::{plan_dispatch_widths, AdmissionConfig};
use odyssey::workloads::generator::random_walk;
use odyssey::workloads::queries::{QueryWorkload, WorkloadKind};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

fn setup() -> (Arc<Index>, QueryWorkload, QueryWorkload) {
    let data = random_walk(1500, 64, 0xC0FFEE);
    let index = Arc::new(Index::build(
        data.clone(),
        IndexConfig::new(64).with_segments(8).with_leaf_capacity(24),
        2,
    ));
    let easy = QueryWorkload::generate(&data, 4, WorkloadKind::Easy { noise: 0.02 }, 21);
    let hard = QueryWorkload::generate(&data, 4, WorkloadKind::Hard, 22);
    (index, easy, hard)
}

/// A mixed easy/hard/k-NN/DTW batch.
fn mixed_batch<'a>(easy: &'a QueryWorkload, hard: &'a QueryWorkload) -> Vec<BatchQuery<'a>> {
    let mut batch = Vec::new();
    for qi in 0..easy.len() {
        batch.push(BatchQuery::new(easy.query(qi), QueryKind::Exact));
        batch.push(BatchQuery::new(hard.query(qi), QueryKind::Exact));
    }
    batch.push(BatchQuery::new(hard.query(0), QueryKind::Knn(5)));
    batch.push(BatchQuery::new(easy.query(1), QueryKind::Knn(3)));
    batch.push(BatchQuery::new(easy.query(0), QueryKind::Dtw(3)));
    batch.push(BatchQuery::new(hard.query(1), QueryKind::Dtw(5)));
    batch
}

/// Answers `batch` on dispatch lanes of the given `widths`, each lane
/// claiming the next query from a shared cursor as `run_batch` does.
/// Items come back in input order; `wall` is left at zero.
fn dispatch(
    engine: &BatchEngine,
    batch: &[BatchQuery],
    widths: &[usize],
    params: &SearchParams,
) -> BatchOutcome {
    let items: Vec<OnceLock<BatchItem>> = (0..batch.len()).map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    engine.run_dispatch(widths, &|ctx, _lane| loop {
        let qi = next.fetch_add(1, Ordering::Relaxed);
        let Some(q) = batch.get(qi) else { break };
        let _ = items[qi].set(ctx.execute(qi, q, &q.params.unwrap_or(*params)));
    });
    BatchOutcome {
        items: items
            .into_iter()
            .map(|s| s.into_inner().expect("every query claimed"))
            .collect(),
        wall: Default::default(),
    }
}

#[test]
fn concurrent_mixed_batches_are_bit_identical_across_widths() {
    let (index, easy, hard) = setup();
    let batch = mixed_batch(&easy, &hard);
    for threads in [1usize, 2, 4, 8] {
        let engine = BatchEngine::new(Arc::clone(&index), threads);
        let params = SearchParams::new(threads).with_th(32);
        let want = per_query_reference(&engine, &batch, &params);
        for width in 1..=threads {
            let conc = dispatch(&engine, &batch, &uniform_widths(threads, width), &params);
            assert_bit_identical(&want, &conc, &format!("threads={threads} width={width}"));
        }
    }
}

#[test]
fn admission_planned_batches_are_bit_identical() {
    // The prediction-driven widths (a wide lane for the hard tier,
    // narrow lanes for the easy one) must agree with the per-query
    // reference too.
    let (index, easy, hard) = setup();
    let batch = mixed_batch(&easy, &hard);
    // Use each query's approximate-search distance as its estimate,
    // like the cluster runtime does.
    let estimates: Vec<f64> = batch
        .iter()
        .map(|q| index.approx_search(q.data).distance)
        .collect();
    for threads in [2usize, 4, 8] {
        let engine = BatchEngine::new(Arc::clone(&index), threads);
        let params = SearchParams::new(threads).with_th(32);
        let want = per_query_reference(&engine, &batch, &params);
        for easy_width in [1usize, 2, 3] {
            let cfg = AdmissionConfig::default().with_easy_width(easy_width);
            let dw = plan_dispatch_widths(&estimates, threads, &cfg);
            let conc = dispatch(&engine, &batch, &dw.widths, &params);
            assert_bit_identical(
                &want,
                &conc,
                &format!("threads={threads} easy_width={easy_width}"),
            );
        }
    }
}

#[test]
fn per_query_params_ride_through_concurrent_lanes() {
    let (index, easy, hard) = setup();
    let params = SearchParams::new(4);
    // Give every query its own TH, as the sigmoid model would.
    let batch: Vec<BatchQuery> = mixed_batch(&easy, &hard)
        .into_iter()
        .enumerate()
        .map(|(qi, q)| q.with_params(params.with_th(1 + qi * 7)))
        .collect();
    let engine = BatchEngine::new(Arc::clone(&index), 4);
    let want = per_query_reference(&engine, &batch, &params);
    let conc = dispatch(&engine, &batch, &uniform_widths(4, 2), &params);
    assert_bit_identical(&want, &conc, "per-query params");
}

#[test]
fn concurrent_engine_reuse_is_stable_across_batches() {
    // Lane scratch must not leak state between batches: running the
    // same concurrent batch twice on one engine, and interleaving with
    // a `run_batch`, stays bit-identical.
    let (index, easy, hard) = setup();
    let batch = mixed_batch(&easy, &hard);
    let order: Vec<usize> = (0..batch.len()).collect();
    let engine = BatchEngine::new(Arc::clone(&index), 4);
    let params = SearchParams::new(4).with_th(16);
    let want = per_query_reference(&engine, &batch, &params);
    let widths = uniform_widths(4, 1);
    let first = dispatch(&engine, &batch, &widths, &params);
    let interleaved = engine.run_batch(&batch, &order, &params);
    let second = dispatch(&engine, &batch, &widths, &params);
    assert_bit_identical(&want, &first, "first concurrent run");
    assert_bit_identical(&want, &interleaved, "interleaved run_batch");
    assert_bit_identical(&want, &second, "second concurrent run");
}

/// The headline composition of this refactor: inter-query lanes and
/// inter-node work-stealing running **together** on a replicated
/// cluster, answers bit-identical to the all-mechanisms-off sequential
/// pool path, at every pool size.
#[test]
fn cluster_lanes_with_stealing_match_sequential_pool() {
    let data = random_walk(1400, 64, 0xBEEF);
    let w = QueryWorkload::generate(
        &data,
        12,
        WorkloadKind::Mixed {
            hard_fraction: 0.4,
            noise: 0.04,
        },
        17,
    );
    let base = OdysseyCluster::build(
        &data,
        ClusterConfig::new(4)
            .with_replication(Replication::Partial(2))
            .with_scheduler(SchedulerKind::PredictDn)
            .with_work_stealing(true)
            .with_inter_query_lanes(true)
            .with_leaf_capacity(64),
    );
    for threads in [1usize, 2, 4, 8] {
        let laned = base
            .reconfigured(|c| c.with_threads_per_node(threads))
            .answer_batch(&w.queries);
        let sequential = base
            .reconfigured(|c| {
                c.with_threads_per_node(threads)
                    .with_work_stealing(false)
                    .with_inter_query_lanes(false)
            })
            .answer_batch(&w.queries);
        for qi in 0..w.len() {
            let q = w.query(qi);
            let mut want = f64::INFINITY;
            for i in 0..data.num_series() {
                want = want.min(odyssey::core::distance::euclidean_sq(q, data.series(i)));
            }
            assert!(
                (laned.answers[qi].distance_sq - want).abs() < 1e-9,
                "threads={threads} query {qi}: lanes+stealing vs brute force"
            );
            assert_eq!(
                laned.answers[qi].distance.to_bits(),
                sequential.answers[qi].distance.to_bits(),
                "threads={threads} query {qi}: lanes+stealing vs sequential pool"
            );
        }
    }
}

/// Pins the registry's dead-node contract (the failover path's
/// dependency): when a node is declared `Down`, its grants drop — via
/// the engine's unwind on a worker panic, or trivially when death
/// lands between queries — and from that point the registry must (a)
/// recycle the published views, (b) never serve the dead query's
/// batches again, and (c) answer further steal probes with `None`
/// rather than blocking.
#[test]
fn registry_down_node_recycles_views_and_never_double_serves() {
    let registry = Arc::new(StealRegistry::default());
    let bsf = Arc::new(SharedBsf::new(7.0, None));
    let grant = registry.register(0, 2, Arc::clone(&bsf) as Arc<dyn ResultSet + Send + Sync>);
    grant.view().test_init(6);
    grant.view().test_publish((0..6).collect());
    // A thief takes a slice while the query is live.
    let first = registry.serve_steal(2).expect("live victim");
    assert_eq!(first.query_id, 0);
    let mut seen: HashSet<usize> = first.batch_ids.into_iter().collect();
    // The node dies: its grant drops exactly like the engine's unwind
    // path drops it (InflightQuery::drop deregisters + recycles).
    drop(grant);
    assert_eq!(registry.in_flight(), 0, "death deregisters the query");
    // No probe after death may produce the dead query's work.
    for _ in 0..4 {
        assert!(
            registry.serve_steal(4).is_none(),
            "dead node's batches must not be served"
        );
    }
    // Re-registration after recycling (the replica re-executing the
    // query) starts a fresh view: batches served before the death do
    // not poison the new registration.
    let regrant =
        registry.register(0, 2, Arc::clone(&bsf) as Arc<dyn ResultSet + Send + Sync>);
    regrant.view().test_init(6);
    regrant.view().test_publish((0..6).collect());
    let again = registry.serve_steal(6).expect("fresh registration serves");
    assert_eq!(again.query_id, 0);
    assert!(!again.batch_ids.is_empty());
    // Within one registration nothing is double-served; across the
    // re-execution the same global batch ids may legitimately reappear.
    seen.clear();
    for b in again.batch_ids {
        assert!(seen.insert(b), "double-serve within one registration");
    }
}

/// A small index and 40 easy queries over it, shared by the partition
/// properties below.
fn partition_fixture() -> &'static (Arc<Index>, QueryWorkload) {
    static FIXTURE: OnceLock<(Arc<Index>, QueryWorkload)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let data = random_walk(300, 64, 0xD15C);
        let index = Arc::new(Index::build(
            data.clone(),
            IndexConfig::new(64).with_segments(8).with_leaf_capacity(24),
            2,
        ));
        let queries = QueryWorkload::generate(&data, 40, WorkloadKind::Easy { noise: 0.02 }, 31);
        (index, queries)
    })
}

/// Runs the first `n_queries` fixture queries on dispatch lanes of the
/// given `widths` and returns how often each query was answered and, per
/// lane, how often its driver ran and at which width.
fn claim_census(widths: &[usize], n_queries: usize) -> (Vec<usize>, Vec<(usize, usize)>) {
    let (index, workload) = partition_fixture();
    let pool = widths.iter().sum();
    let engine = BatchEngine::new(Arc::clone(index), pool);
    let batch: Vec<BatchQuery> = (0..n_queries)
        .map(|qi| BatchQuery::new(workload.query(qi), QueryKind::Exact))
        .collect();
    let params = SearchParams::new(pool);
    let answered: Vec<AtomicUsize> = (0..n_queries).map(|_| AtomicUsize::new(0)).collect();
    let lanes: Vec<(AtomicUsize, AtomicUsize)> = widths
        .iter()
        .map(|_| (AtomicUsize::new(0), AtomicUsize::new(0)))
        .collect();
    let next = AtomicUsize::new(0);
    engine.run_dispatch(widths, &|ctx, lane| {
        lanes[lane].0.fetch_add(1, Ordering::Relaxed);
        lanes[lane].1.store(ctx.width(), Ordering::Relaxed);
        loop {
            let qi = next.fetch_add(1, Ordering::Relaxed);
            let Some(q) = batch.get(qi) else { break };
            let _ = ctx.execute(qi, q, &params);
            answered[qi].fetch_add(1, Ordering::Relaxed);
        }
    });
    (
        answered.into_iter().map(AtomicUsize::into_inner).collect(),
        lanes
            .into_iter()
            .map(|(calls, width)| (calls.into_inner(), width.into_inner()))
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // The planner's widths partition the pool (every worker in exactly
    // one lane, each lane driven once at its planned width), and lanes
    // claiming from one cursor answer every query exactly once.
    #[test]
    fn admission_plans_partition_workers_and_queries(
        estimates in proptest::collection::vec(0.0f64..1000.0, 0..40),
        pool in 1usize..12,
        easy_width in 1usize..5,
        hard_ratio in 0.5f64..8.0,
        max_lanes in 1usize..6,
    ) {
        let cfg = AdmissionConfig::default()
            .with_easy_width(easy_width)
            .with_hard_ratio(hard_ratio)
            .with_max_lanes(max_lanes);
        let dw = plan_dispatch_widths(&estimates, pool, &cfg);
        prop_assert_eq!(dw.widths.iter().sum::<usize>(), pool);
        prop_assert!(dw.widths.iter().all(|&w| w >= 1));
        let (answered, lanes) = claim_census(&dw.widths, estimates.len());
        prop_assert!(answered.iter().all(|&n| n == 1), "{:?}", answered);
        for (&width, &(calls, ran_at)) in dw.widths.iter().zip(&lanes) {
            prop_assert_eq!((calls, ran_at), (1, width));
        }
    }

    #[test]
    fn uniform_plans_partition_workers_and_queries(
        n_queries in 0usize..40,
        pool in 1usize..12,
        width in 1usize..12,
    ) {
        let widths = uniform_widths(pool, width);
        prop_assert_eq!(widths.iter().sum::<usize>(), pool);
        let (answered, lanes) = claim_census(&widths, n_queries);
        prop_assert!(answered.iter().all(|&n| n == 1), "{:?}", answered);
        for (&width, &(calls, ran_at)) in widths.iter().zip(&lanes) {
            prop_assert_eq!((calls, ran_at), (1, width));
        }
    }

    // The engine-resident steal service never hands out the same
    // RS-batch of a query twice, never serves a query outside its
    // processing phase, and never serves one past completion
    // (deregistration) — for arbitrary interleavings of publishes,
    // queue claims, steals, and completions.
    #[test]
    fn steal_registry_never_double_serves(
        nsbs in proptest::collection::vec(1usize..8, 1..5),
        widths in proptest::collection::vec(1usize..5, 1..5),
        ops in proptest::collection::vec(0u32..1_000_000, 0..60),
    ) {
        let registry = Arc::new(StealRegistry::default());
        let nq = nsbs.len();
        let shapes: Vec<(usize, usize)> = (0..nq)
            .map(|q| (nsbs[q], widths[q % widths.len()]))
            .collect();
        let mut grants: Vec<Option<_>> = (0..nq)
            .map(|qid| {
                Some(registry.register(
                    qid,
                    shapes[qid].1,
                    Arc::new(SharedBsf::new(qid as f64, None))
                        as Arc<dyn ResultSet + Send + Sync>,
                ))
            })
            .collect();
        let mut published = vec![false; nq];
        let mut finished = vec![false; nq];
        let mut served: Vec<HashSet<usize>> = vec![HashSet::new(); nq];
        for &op in &ops {
            let kind = (op % 4) as u8;
            let q = (op as usize / 4) % nq;
            let nsend = 1 + (op as usize / 64) % 6;
            match kind {
                // Enter the processing phase.
                0 => {
                    if let Some(g) = &grants[q] {
                        if !published[q] {
                            let nsb = shapes[q].0;
                            g.view().test_init(nsb);
                            g.view().test_publish((0..nsb).collect());
                            published[q] = true;
                        }
                    }
                }
                // A worker claims one queue.
                1 => {
                    if let Some(g) = &grants[q] {
                        if published[q] {
                            g.view().test_claim();
                        }
                    }
                }
                // A thief asks the registry.
                2 => {
                    if let Some(w) = registry.serve_steal(nsend) {
                        prop_assert!(w.query_id < nq, "served id is live");
                        prop_assert!(
                            grants[w.query_id].is_some() && !finished[w.query_id],
                            "served query {} past completion",
                            w.query_id
                        );
                        prop_assert!(published[w.query_id], "only processing-phase victims");
                        prop_assert!(!w.batch_ids.is_empty());
                        prop_assert!(w.batch_ids.len() <= nsend);
                        prop_assert_eq!(w.bsf_sq, w.query_id as f64);
                        for b in w.batch_ids {
                            prop_assert!(b < shapes[w.query_id].0, "batch id in range");
                            prop_assert!(
                                served[w.query_id].insert(b),
                                "RS-batch {} of query {} served twice",
                                b,
                                w.query_id
                            );
                        }
                    }
                }
                // The query completes and deregisters.
                _ => {
                    if let Some(g) = grants[q].take() {
                        g.view().test_finish();
                        finished[q] = true;
                        drop(g);
                    }
                }
            }
        }
        // Drain: whatever is still live and published can be stolen at
        // most once per remaining batch, then the registry runs dry.
        while let Some(w) = registry.serve_steal(2) {
            prop_assert!(!finished[w.query_id]);
            for b in w.batch_ids {
                prop_assert!(served[w.query_id].insert(b));
            }
        }
        drop(grants);
        prop_assert_eq!(registry.in_flight(), 0);
        prop_assert!(registry.serve_steal(1).is_none());
    }
}
