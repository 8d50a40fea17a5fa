//! The serving path's contracts: streamed answers bit-identical to the
//! batch paths, deadline expiry degrading honestly (never dropping),
//! and suspect hedging un-sticking work from a stalled replica.

use odyssey_cluster::{
    ClusterConfig, Coverage, FaultPlan, OdysseyCluster, Replication, ServeOutcome, ServeQuery,
    ServedAnswer,
};
use odyssey_core::distance::{dtw_banded, euclidean_sq};
use odyssey_core::search::engine::{BatchAnswer, QueryKind};
use odyssey_core::series::DatasetBuffer;
use odyssey_workloads::generator::random_walk;
use odyssey_workloads::queries::{QueryWorkload, WorkloadKind};
use parking_lot::Mutex;
use std::time::Duration;

fn workload(data: &DatasetBuffer, n: usize, seed: u64) -> QueryWorkload {
    QueryWorkload::generate(
        data,
        n,
        WorkloadKind::Mixed {
            hard_fraction: 0.4,
            noise: 0.05,
        },
        seed,
    )
}

fn collect_serve(
    cluster: &OdysseyCluster,
    queries: Vec<ServeQuery>,
) -> (Vec<Option<ServedAnswer>>, odyssey_cluster::ServeStats) {
    let n = queries.len();
    let results: Vec<Mutex<Option<ServedAnswer>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let on_complete = |a: ServedAnswer| {
        let slot = a.qid as usize;
        *results[slot].lock() = Some(a);
    };
    let (ids, stats) = cluster.serve(
        |handle| queries.into_iter().map(|q| handle.submit(q)).collect::<Vec<u64>>(),
        &on_complete,
    );
    assert_eq!(ids, (0..n as u64).collect::<Vec<u64>>());
    (results.into_iter().map(|m| m.into_inner()).collect(), stats)
}

/// Streamed answers must be bit-identical to the batch paths for the
/// same mixed ED / DTW / k-NN query set, across thread counts and both
/// latency classes.
#[test]
fn streamed_answers_match_batch_bit_for_bit() {
    let data = random_walk(1400, 64, 301);
    let w = workload(&data, 12, 47);
    let k = 3;
    let window = 4;
    for tpn in [1usize, 2, 4, 8] {
        let cluster = OdysseyCluster::build(
            &data,
            ClusterConfig::new(4)
                .with_replication(Replication::Partial(2))
                .with_threads_per_node(tpn),
        );
        let ed = cluster.answer_batch(&w.queries);
        let dtw = cluster.answer_batch_dtw(&w.queries, window);
        let knn = cluster.answer_batch_knn(&w.queries, k);

        // One streamed query per (batch query, kind), classes mixed.
        let mut stream = Vec::new();
        for qi in 0..w.len() {
            for kind in [QueryKind::Exact, QueryKind::Dtw(window), QueryKind::Knn(k)] {
                let q = if qi % 2 == 0 {
                    ServeQuery::interactive(w.query(qi).to_vec())
                } else {
                    ServeQuery::batch(w.query(qi).to_vec())
                };
                stream.push(q.with_kind(kind));
            }
        }
        let (results, stats) = collect_serve(&cluster, stream);
        assert_eq!(stats.completed, 3 * w.len() as u64, "tpn={tpn}");
        assert_eq!(stats.degraded, 0);
        for qi in 0..w.len() {
            let got = |slot: usize| {
                results[3 * qi + slot]
                    .as_ref()
                    .unwrap_or_else(|| panic!("tpn={tpn} query {qi} slot {slot} unanswered"))
            };
            for slot in 0..3 {
                assert_eq!(got(slot).outcome, ServeOutcome::Exact);
                assert_eq!(got(slot).coverage, Coverage::Complete);
            }
            match (&got(0).answer, &got(1).answer) {
                (BatchAnswer::Nn(e), BatchAnswer::Nn(d)) => {
                    assert_eq!(
                        e.distance.to_bits(),
                        ed.answers[qi].distance.to_bits(),
                        "tpn={tpn} query {qi}: serve ED vs batch ED"
                    );
                    assert_eq!(e.series_id, ed.answers[qi].series_id);
                    assert_eq!(
                        d.distance.to_bits(),
                        dtw.answers[qi].distance.to_bits(),
                        "tpn={tpn} query {qi}: serve DTW vs batch DTW"
                    );
                }
                _ => panic!("1-NN kinds diverged"),
            }
            match &got(2).answer {
                BatchAnswer::Knn(a) => {
                    assert_eq!(
                        a.neighbors, knn.answers[qi].neighbors,
                        "tpn={tpn} query {qi}: serve k-NN vs batch k-NN"
                    );
                }
                _ => panic!("k-NN kind diverged"),
            }
        }
    }
}

/// An already-expired deadline must yield a degraded-but-present answer
/// naming every group — never a silent drop — while deadline-free
/// queries in the same stream stay exact.
#[test]
fn expired_deadline_degrades_honestly() {
    let data = random_walk(1000, 64, 88);
    let w = workload(&data, 6, 9);
    let cluster = OdysseyCluster::build(
        &data,
        ClusterConfig::new(2)
            .with_replication(Replication::Partial(2))
            .with_threads_per_node(2),
    );
    let exact = cluster.answer_batch(&w.queries);
    let stream: Vec<ServeQuery> = (0..w.len())
        .map(|qi| {
            let q = ServeQuery::interactive(w.query(qi).to_vec());
            if qi % 2 == 0 {
                q.with_deadline(Duration::ZERO)
            } else {
                q
            }
        })
        .collect();
    let (results, stats) = collect_serve(&cluster, stream);
    assert_eq!(stats.completed, w.len() as u64);
    assert_eq!(stats.degraded, w.len().div_ceil(2) as u64);
    for (qi, r) in results.iter().enumerate() {
        let r = r.as_ref().expect("no silent drops");
        let BatchAnswer::Nn(a) = &r.answer else {
            panic!("ED query answered with k-NN")
        };
        if qi % 2 == 0 {
            assert_eq!(r.outcome, ServeOutcome::Degraded, "query {qi}");
            // Every group answered from its approximate seed.
            assert_eq!(
                r.coverage.missing_groups(),
                &(0..cluster.topology().n_groups()).collect::<Vec<_>>()[..],
                "query {qi}"
            );
            // The seed is an upper bound on the exact distance, and it
            // is a real series, not a placeholder.
            assert!(a.series_id.is_some(), "query {qi}: degraded but identified");
            assert!(
                a.distance >= exact.answers[qi].distance - 1e-12,
                "query {qi}: seed must upper-bound the exact distance"
            );
        } else {
            assert_eq!(r.outcome, ServeOutcome::Exact, "query {qi}");
            assert_eq!(
                a.distance.to_bits(),
                exact.answers[qi].distance.to_bits(),
                "query {qi}: deadline-free stays exact"
            );
        }
    }
}

/// A delayed replica falls behind on heartbeats, turns `Suspect`, and
/// its stuck claim is hedged by the healthy group member within the
/// configured bound — the stream completes without waiting out the
/// slow node for every query.
#[test]
fn suspect_claims_are_hedged_by_healthy_peer() {
    let data = random_walk(900, 64, 55);
    let w = workload(&data, 24, 21);
    let cluster = OdysseyCluster::build(
        &data,
        ClusterConfig::new(2)
            .with_replication(Replication::Full)
            .with_threads_per_node(2)
            .with_lease_ticks(4)
            .with_suspect_hedge_after(2)
            .with_suspect_max_hedges(1)
            // Node 1 stalls 40ms per claim: node 0 out-ticks its lease
            // long before it finishes, so its claim ages into a hedge.
            .with_fault_plan(FaultPlan::new().delay(1, 40_000)),
    );
    let exact = cluster.answer_batch(&w.queries);
    let stream: Vec<ServeQuery> = (0..w.len())
        .map(|qi| ServeQuery::interactive(w.query(qi).to_vec()))
        .collect();
    let (results, stats) = collect_serve(&cluster, stream);
    assert_eq!(stats.completed, w.len() as u64, "no drops under a slow replica");
    assert!(
        stats.hedges >= 1,
        "the suspect's stuck claims must be hedged (got {})",
        stats.hedges
    );
    assert!(
        stats.final_epoch >= 1,
        "the slow node's health transition bumps the epoch"
    );
    for (qi, r) in results.iter().enumerate() {
        let r = r.as_ref().expect("answered");
        let BatchAnswer::Nn(a) = &r.answer else { panic!() };
        assert_eq!(
            a.distance.to_bits(),
            exact.answers[qi].distance.to_bits(),
            "query {qi}: hedged execution changes nothing about the answer"
        );
    }
    assert!(results.iter().flatten().any(|r| r.hedged), "some answer was hedged");
}

/// Submitting after close is a contract violation and must fail fast.
#[test]
fn submit_after_close_panics() {
    let data = random_walk(400, 64, 7);
    let cluster = OdysseyCluster::build(
        &data,
        ClusterConfig::new(2)
            .with_replication(Replication::Partial(2))
            .with_threads_per_node(1),
    );
    let on_complete = |_a: ServedAnswer| {};
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        cluster.serve(
            |handle| {
                handle.close();
                handle.submit(ServeQuery::batch(data.series(0).to_vec()));
            },
            &on_complete,
        )
    }));
    assert!(err.is_err(), "submit after close must panic");
}

/// Serving trains the cluster's online cost predictor: every exact
/// execution appends a sample, degraded (approximate) answers do not,
/// and the samples drive refits at the configured cadence — all without
/// perturbing the served answers (checked bit-for-bit above).
#[test]
fn serving_feeds_the_online_predictor() {
    let data = random_walk(900, 64, 61);
    let w = workload(&data, 10, 19);
    let cluster = OdysseyCluster::build(
        &data,
        ClusterConfig::new(2)
            .with_replication(Replication::Full)
            .with_threads_per_node(2)
            .with_feedback_refit_every(4),
    );
    assert_eq!(cluster.feedback().samples(), 0);
    let stream: Vec<ServeQuery> = (0..w.len())
        .map(|qi| ServeQuery::interactive(w.query(qi).to_vec()))
        .collect();
    let (results, stats) = collect_serve(&cluster, stream);
    assert_eq!(stats.completed, w.len() as u64);
    assert!(results.iter().all(|r| r.is_some()));
    // One sample per group-level exact execution, however the nodes
    // split the claims.
    let executions: u64 = stats.per_node_queries.iter().sum();
    assert_eq!(cluster.feedback().samples() as u64, executions);
    assert!(
        cluster.feedback().refits() > 0,
        "10 samples at refit_every=4 must have crossed a refit boundary"
    );
}

/// A wrong-length query panics the submitting session promptly instead
/// of being answered over a truncated overlap or wedging a node worker:
/// `serve` closes the stream, re-raises the panic, and delivers nothing.
#[test]
fn wrong_length_submit_panics_the_session() {
    let data = random_walk(600, 64, 63);
    let cluster = OdysseyCluster::build(&data, ClusterConfig::new(1));
    let delivered = Mutex::new(0usize);
    let on_complete = |_: ServedAnswer| *delivered.lock() += 1;
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        cluster.serve(
            |handle| handle.submit(ServeQuery::interactive(vec![0.5; 40])),
            &on_complete,
        )
    }));
    let err = run.expect_err("a 40-long query on a 64-long index must panic");
    let msg = err
        .downcast_ref::<String>()
        .expect("formatted panic message");
    assert!(
        msg.contains("query length 40") && msg.contains("series length 64"),
        "{msg}"
    );
    assert_eq!(*delivered.lock(), 0, "no answer may be delivered");
}

/// Brute-force neighbours of `q` over the whole collection, ascending
/// by `(squared distance, id)`.
fn brute_force(data: &DatasetBuffer, q: &[f32], kind: QueryKind) -> Vec<(f64, u32)> {
    let mut all: Vec<(f64, u32)> = (0..data.num_series())
        .map(|id| {
            let s = data.series(id);
            let d = match kind {
                QueryKind::Dtw(window) => dtw_banded(q, s, window, f64::INFINITY)
                    .expect("an unbounded DTW never abandons"),
                QueryKind::Exact | QueryKind::Knn(_) => euclidean_sq(q, s),
            };
            (d, id as u32)
        })
        .collect();
    all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    all
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// A worker panic while serving tears one execution, and the session
/// still answers every query exactly once and returns. Where the torn
/// node's group has no other member (1 node; 2-node PARTIAL-2) the
/// query is answered approximately and flagged degraded, and the node
/// re-arms its lanes; on 2-node FULL the node retires and its replica
/// re-executes the query, so every answer stays exact. Exact answers
/// are checked against brute force; degraded ones must name series
/// that lie at the reported distances.
#[test]
fn worker_panic_while_serving_answers_every_query_once() {
    let data = random_walk(1000, 64, 71);
    let w = workload(&data, 10, 83);
    let k = 3;
    let kinds = [QueryKind::Exact, QueryKind::Dtw(4), QueryKind::Knn(k)];
    let stream = || -> Vec<ServeQuery> {
        (0..w.len())
            .flat_map(|qi| {
                kinds.map(|kind| ServeQuery::interactive(w.query(qi).to_vec()).with_kind(kind))
            })
            .collect()
    };
    let truth: Vec<Vec<(f64, u32)>> = (0..w.len())
        .flat_map(|qi| kinds.map(|kind| brute_force(&data, w.query(qi), kind)))
        .collect();
    for (nodes, replication) in [
        (1usize, Replication::Full),
        (2, Replication::Partial(2)),
        (2, Replication::Full),
    ] {
        for lane_width in [1usize, 2] {
            let base = OdysseyCluster::build(
                &data,
                ClusterConfig::new(nodes)
                    .with_replication(replication)
                    .with_threads_per_node(2)
                    .with_service_lane_width(lane_width),
            );
            let has_replica = base.topology().replication_degree() > 1;
            for during in 0..3 {
                let label =
                    format!("{nodes} nodes {replication:?} lane {lane_width} panic@{during}");
                let cluster = base
                    .reconfigured(|c| c.with_fault_plan(FaultPlan::new().worker_panic(0, during)));
                let deliveries: Vec<Mutex<Vec<ServedAnswer>>> =
                    truth.iter().map(|_| Mutex::new(Vec::new())).collect();
                let on_complete = |a: ServedAnswer| deliveries[a.qid as usize].lock().push(a);
                let (_, stats) = cluster.serve(
                    |handle| {
                        for q in stream() {
                            handle.submit(q);
                        }
                    },
                    &on_complete,
                );
                assert_eq!(stats.completed, truth.len() as u64, "{label}");
                // One torn execution: degraded only without a replica.
                let expected_degraded = if has_replica { 0 } else { 1 };
                assert_eq!(stats.degraded, expected_degraded, "{label}");
                for (i, slot) in deliveries.iter().enumerate() {
                    let got = slot.lock();
                    assert_eq!(
                        got.len(),
                        1,
                        "{label}: query {i} answered {} times",
                        got.len()
                    );
                    let r = &got[0];
                    let neighbors = match &r.answer {
                        BatchAnswer::Nn(a) => vec![(a.distance_sq, a.series_id.expect("an id"))],
                        BatchAnswer::Knn(a) => a.neighbors.clone(),
                    };
                    let kind = kinds[i % kinds.len()];
                    let exact = &truth[i];
                    match r.outcome {
                        ServeOutcome::Exact => {
                            assert!(r.coverage.is_complete(), "{label}: query {i}");
                            let want = if let QueryKind::Knn(k) = kind { k } else { 1 };
                            assert_eq!(neighbors.len(), want, "{label}: query {i}");
                            for (rank, (&(d, _), &(bd, _))) in
                                neighbors.iter().zip(exact).enumerate()
                            {
                                assert!(
                                    close(d, bd),
                                    "{label}: query {i} rank {rank}: {d} vs {bd}"
                                );
                            }
                        }
                        ServeOutcome::Degraded => {
                            assert!(!has_replica, "{label}: a replica re-executes torn queries");
                            assert!(!r.coverage.is_complete(), "{label}: query {i}");
                            assert!(d_upper_bounds(&neighbors, exact), "{label}: query {i}");
                        }
                    }
                    // Every reported id lies at its reported distance.
                    for &(d, id) in &neighbors {
                        let real = exact.iter().find(|&&(_, j)| j == id).expect("a real id").0;
                        assert!(close(d, real), "{label}: query {i} id {id}: {d} vs {real}");
                    }
                }
            }
        }
    }
}

/// Whether each reported neighbour's distance is no better than the
/// exact neighbour of the same rank: an approximate answer can only
/// overstate.
fn d_upper_bounds(reported: &[(f64, u32)], exact: &[(f64, u32)]) -> bool {
    reported
        .iter()
        .zip(exact)
        .all(|(&(d, _), &(e, _))| d >= e || close(d, e))
}
