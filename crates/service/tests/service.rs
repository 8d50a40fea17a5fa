//! The service crate's contracts: streamed answers bit-identical to
//! the batch engine, bounded-queue backpressure, typed rejection of
//! malformed queries, and honest deadline-expiry degradation. A single
//! index is served as a 1-node cluster (`OdysseyCluster::from_index`).

use odyssey_cluster::{ClusterConfig, FaultPlan, OdysseyCluster, Replication};
use odyssey_core::distance::{dtw_banded, euclidean_sq};
use odyssey_core::index::{Index, IndexConfig};
use odyssey_core::search::engine::{BatchAnswer, BatchEngine, QueryKind};
use odyssey_core::search::exact::SearchParams;
use odyssey_core::series::DatasetBuffer;
use odyssey_service::{
    LatencyClass, QueryService, ServeOutcome, ServiceConfig, ServiceQuery, SubmitError,
};
use odyssey_workloads::generator::random_walk;
use odyssey_workloads::queries::{QueryWorkload, WorkloadKind};
use std::sync::Arc;
use std::time::Duration;

fn build_index(n: usize, seed: u64) -> (DatasetBuffer, Arc<Index>) {
    let data = random_walk(n, 64, seed);
    let index = Arc::new(Index::build(
        data.clone(),
        IndexConfig::new(64).with_segments(8).with_leaf_capacity(32),
        4,
    ));
    (data, index)
}

/// `index` served as a 1-node cluster with `threads` workers.
fn one_node(index: &Arc<Index>, threads: usize) -> OdysseyCluster {
    OdysseyCluster::from_index(
        Arc::clone(index),
        ClusterConfig::new(1).with_threads_per_node(threads),
    )
}

fn mixed_workload(data: &DatasetBuffer, n: usize, seed: u64) -> QueryWorkload {
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

/// Streamed service answers must be bit-identical to each query asked
/// alone on a batch engine (`exact` / `knn` / `dtw`) over the same mixed
/// ED / DTW / k-NN queries at every pool width, with both latency
/// classes interleaved.
#[test]
fn streamed_matches_batch_at_1_2_4_8_threads() {
    let (data, index) = build_index(1200, 17);
    let w = mixed_workload(&data, 12, 29);
    let kinds = |qi: usize| match qi % 3 {
        0 => QueryKind::Exact,
        1 => QueryKind::Dtw(4),
        _ => QueryKind::Knn(3),
    };
    for threads in [1usize, 2, 4, 8] {
        let params = SearchParams::new(threads);
        let engine = BatchEngine::new(Arc::clone(&index), threads.max(2));
        let reference: Vec<BatchAnswer> = (0..w.len())
            .map(|qi| match kinds(qi) {
                QueryKind::Exact => BatchAnswer::Nn(engine.exact(w.query(qi), &params).answer),
                QueryKind::Knn(k) => BatchAnswer::Knn(engine.knn(w.query(qi), k, &params).0),
                QueryKind::Dtw(win) => BatchAnswer::Nn(engine.dtw(w.query(qi), win, &params).0),
            })
            .collect();
        let service = QueryService::new(ServiceConfig::default().with_queue_capacity(64));
        let (ids, report) = service.serve_cluster(&one_node(&index, threads), |client| {
            (0..w.len())
                .map(|qi| {
                    let q = ServiceQuery {
                        data: w.query(qi).to_vec(),
                        kind: kinds(qi),
                        class: if qi % 2 == 0 {
                            LatencyClass::Interactive
                        } else {
                            LatencyClass::Batch
                        },
                        deadline: None,
                    };
                    let qid = client.submit(q).expect("under capacity");
                    client.wait(qid)
                })
                .collect::<Vec<_>>()
        });
        assert_eq!(report.admitted, w.len() as u64, "threads={threads}");
        assert_eq!(report.completed, w.len() as u64);
        assert_eq!(report.rejected, 0);
        assert_eq!(report.degraded, 0);
        assert_eq!(
            report.interactive.count + report.batch.count,
            w.len() as u64,
            "every completion lands in a class histogram"
        );
        for (qi, a) in ids.iter().enumerate() {
            assert_eq!(a.outcome, ServeOutcome::Exact);
            match (&a.answer, &reference[qi]) {
                (BatchAnswer::Nn(s), BatchAnswer::Nn(b)) => {
                    assert_eq!(
                        s.distance.to_bits(),
                        b.distance.to_bits(),
                        "threads={threads} query={qi}: service vs batch"
                    );
                    assert_eq!(s.series_id, b.series_id);
                }
                (BatchAnswer::Knn(s), BatchAnswer::Knn(b)) => {
                    assert_eq!(s.neighbors, b.neighbors, "threads={threads} query={qi}");
                }
                _ => panic!("threads={threads} query={qi}: kinds diverged"),
            }
        }
    }
}

/// A full queue must reject with `Busy` (carrying a retry hint), and
/// the accounting must hold: admitted + rejected = offered, everything
/// admitted completes.
#[test]
fn full_queue_rejects_with_busy() {
    let (data, index) = build_index(900, 5);
    let w = mixed_workload(&data, 40, 7);
    let capacity = 2;
    let service = QueryService::new(ServiceConfig::default().with_queue_capacity(capacity));
    let cluster = one_node(&index, 2);
    let ((admitted, rejected, max_retry), report) = service.serve_cluster(&cluster, |client| {
        let mut admitted = 0u64;
        let mut rejected = 0u64;
        let mut max_retry = Duration::ZERO;
        // A burst far past capacity, no waiting in between.
        for qi in 0..w.len() {
            match client.submit(ServiceQuery::batch(w.query(qi).to_vec())) {
                Ok(_) => admitted += 1,
                Err(SubmitError::Busy(busy)) => {
                    rejected += 1;
                    max_retry = max_retry.max(busy.retry_after);
                }
                Err(e) => panic!("well-formed query refused: {e:?}"),
            }
        }
        assert!(client.in_flight() <= capacity, "bounded queue");
        (admitted, rejected, max_retry)
    });
    assert_eq!(admitted + rejected, w.len() as u64);
    assert!(
        rejected > 0,
        "a {capacity}-slot queue cannot absorb a {}-query burst",
        w.len()
    );
    assert!(
        admitted >= capacity as u64,
        "the queue does fill before rejecting"
    );
    assert!(max_retry > Duration::ZERO, "Busy carries a retry hint");
    assert_eq!(report.admitted, admitted);
    assert_eq!(report.rejected, rejected);
    assert_eq!(report.completed, admitted, "everything admitted completes");
    assert!(report.max_in_flight <= capacity);
}

/// An expired deadline degrades the answer honestly: it still arrives,
/// flagged, with a real (upper-bound) answer — and the same query
/// without a deadline stays exact.
#[test]
fn deadline_expiry_degrades_not_drops() {
    let (data, index) = build_index(900, 3);
    let w = mixed_workload(&data, 8, 11);
    let service = QueryService::new(
        // Already expired at claim time, for every query.
        ServiceConfig::default().with_interactive_deadline(Duration::ZERO),
    );
    let cluster = one_node(&index, 2);
    let (exact, _) = QueryService::default().serve_cluster(&cluster, |client| {
        (0..w.len())
            .map(|qi| {
                let qid = client
                    .submit(ServiceQuery::interactive(w.query(qi).to_vec()))
                    .expect("under capacity");
                client.wait(qid)
            })
            .collect::<Vec<_>>()
    });
    let (answers, report) = service.serve_cluster(&cluster, |client| {
        let ids: Vec<u64> = (0..w.len())
            .map(|qi| {
                client
                    .submit(ServiceQuery::interactive(w.query(qi).to_vec()))
                    .expect("under capacity")
            })
            .collect();
        ids.into_iter()
            .map(|qid| client.wait(qid))
            .collect::<Vec<_>>()
    });
    assert_eq!(report.completed, w.len() as u64, "no silent drops");
    assert_eq!(report.degraded, w.len() as u64, "every expiry is flagged");
    for (qi, a) in answers.iter().enumerate() {
        assert_eq!(a.outcome, ServeOutcome::Degraded, "query {qi}");
        let (BatchAnswer::Nn(d), BatchAnswer::Nn(e)) = (&a.answer, &exact[qi].answer) else {
            panic!("kinds diverged")
        };
        assert!(
            d.series_id.is_some(),
            "query {qi}: degraded answers are real series"
        );
        assert!(
            d.distance >= e.distance - 1e-12,
            "query {qi}: the approximate seed upper-bounds the exact distance"
        );
    }
}

/// A multi-group cluster behind the same client API: answers match the
/// cluster batch path, and the admission/histogram accounting holds.
#[test]
fn cluster_backend_matches_cluster_batch() {
    let data = random_walk(1000, 64, 23);
    let w = mixed_workload(&data, 8, 31);
    let cluster = OdysseyCluster::build(
        &data,
        ClusterConfig::new(4)
            .with_replication(Replication::Partial(2))
            .with_threads_per_node(2),
    );
    let batch = cluster.answer_batch(&w.queries);
    let service = QueryService::new(ServiceConfig::default().with_queue_capacity(16));
    let (answers, report) = service.serve_cluster(&cluster, |client| {
        let ids: Vec<u64> = (0..w.len())
            .map(|qi| {
                client
                    .submit(ServiceQuery::interactive(w.query(qi).to_vec()))
                    .expect("under capacity")
            })
            .collect();
        ids.into_iter()
            .map(|qid| client.wait(qid))
            .collect::<Vec<_>>()
    });
    assert_eq!(report.admitted, w.len() as u64);
    assert_eq!(report.completed, w.len() as u64);
    assert_eq!(report.interactive.count, w.len() as u64);
    for (qi, a) in answers.iter().enumerate() {
        let BatchAnswer::Nn(s) = &a.answer else {
            panic!()
        };
        assert_eq!(
            s.distance.to_bits(),
            batch.answers[qi].distance.to_bits(),
            "query {qi}: service-over-cluster vs cluster batch"
        );
        assert_eq!(s.series_id, batch.answers[qi].series_id);
    }
}

/// Interactive admission outranks batch: when both classes are queued
/// behind one busy lane, the interactive query is claimed first even
/// though it was submitted last.
#[test]
fn interactive_class_claims_before_batch() {
    let (data, index) = build_index(900, 13);
    let w = mixed_workload(&data, 10, 19);
    let service = QueryService::new(ServiceConfig::default().with_queue_capacity(16));
    let (first_done, report) = service.serve_cluster(&one_node(&index, 1), |client| {
        // Enqueue a batch backlog, then one interactive query.
        let batch_ids: Vec<u64> = (0..w.len() - 1)
            .map(|qi| {
                client
                    .submit(ServiceQuery::batch(w.query(qi).to_vec()))
                    .expect("under capacity")
            })
            .collect();
        let vip = client
            .submit(ServiceQuery::interactive(w.query(w.len() - 1).to_vec()))
            .expect("under capacity");
        let vip_answer = client.wait(vip);
        // The backlog may still be running; the VIP's latency must not
        // include the whole backlog (claimed ahead of the remaining
        // batch queue). Collect the rest to drain cleanly.
        for qid in batch_ids {
            client.wait(qid);
        }
        vip_answer
    });
    assert_eq!(report.completed, w.len() as u64);
    assert_eq!(first_done.class, LatencyClass::Interactive);
    assert_eq!(report.interactive.count, 1);
    assert_eq!(report.batch.count, (w.len() - 1) as u64);
}

/// Serving trains the cluster's predictor on every exact execution, and
/// the report carries the session's sample/refit counts; degraded
/// answers contribute nothing.
#[test]
fn exact_executions_train_the_session_predictor() {
    let (data, index) = build_index(900, 41);
    let w = mixed_workload(&data, 10, 43);
    let cluster = OdysseyCluster::from_index(
        Arc::clone(&index),
        ClusterConfig::new(1)
            .with_threads_per_node(2)
            .with_feedback_refit_every(4),
    );
    let service = QueryService::default();
    let (_, report) = service.serve_cluster(&cluster, |client| {
        let ids: Vec<u64> = (0..w.len())
            .map(|qi| {
                client
                    .submit(ServiceQuery::batch(w.query(qi).to_vec()))
                    .expect("under capacity")
            })
            .collect();
        for qid in ids {
            client.wait(qid);
        }
    });
    assert_eq!(report.completed, w.len() as u64);
    assert_eq!(report.degraded, 0);
    assert_eq!(report.predictor_samples, w.len() as u64);
    assert!(
        report.predictor_refits > 0,
        "10 samples at refit_every=4 must refit"
    );

    // An all-expired stream answers approximately: nothing trains.
    let (_, degraded_report) = service.serve_cluster(&cluster, |client| {
        let qid = client
            .submit(ServiceQuery::batch(w.query(0).to_vec()).with_deadline(Duration::from_nanos(1)))
            .expect("under capacity");
        client.wait(qid);
    });
    assert_eq!(degraded_report.degraded, 1);
    assert_eq!(degraded_report.predictor_samples, 0);
}

/// A query of the wrong length or with a non-finite value gets a typed
/// error before admission — it neither panics a node worker nor comes
/// back as an answer over a truncated overlap — and the same session
/// then answers a well-formed query exactly.
#[test]
fn malformed_queries_get_typed_errors() {
    let (data, index) = build_index(900, 47);
    let w = mixed_workload(&data, 1, 53);
    let valid = w.query(0).to_vec();
    let mut nan = valid.clone();
    nan[7] = f32::NAN;
    let want = BatchEngine::new(Arc::clone(&index), 2)
        .exact(&valid, &SearchParams::new(2))
        .answer;
    let (answer, report) = QueryService::default().serve_cluster(&one_node(&index, 2), |client| {
        assert_eq!(
            client.submit(ServiceQuery::interactive(valid[..40].to_vec())),
            Err(SubmitError::WrongLength {
                expected: 64,
                got: 40
            })
        );
        assert_eq!(
            client.submit(ServiceQuery::interactive(vec![0.5; 100])),
            Err(SubmitError::WrongLength {
                expected: 64,
                got: 100
            })
        );
        assert_eq!(
            client.submit(ServiceQuery::batch(nan)),
            Err(SubmitError::NonFinite { position: 7 })
        );
        let qid = client
            .submit(ServiceQuery::interactive(valid.clone()))
            .expect("well-formed");
        client.wait(qid)
    });
    assert_eq!(answer.outcome, ServeOutcome::Exact);
    let BatchAnswer::Nn(got) = answer.answer else {
        panic!("1-NN query answered as k-NN")
    };
    assert_eq!(got.distance.to_bits(), want.distance.to_bits());
    assert_eq!(got.series_id, want.series_id);
    assert_eq!(
        report.admitted, 1,
        "malformed queries take no admission slot"
    );
    assert_eq!(report.rejected, 0, "malformed queries are not backpressure");
    assert_eq!(report.completed, 1);
}

/// A worker panic on the served node tears one execution; the session
/// still answers every admitted query exactly once and returns. The
/// node has no replica, so the torn query comes back flagged degraded
/// (an approximate answer naming a real series) and the node keeps
/// serving: every other answer is exact, checked against brute force.
#[test]
fn worker_panic_degrades_one_answer_and_keeps_serving() {
    let (data, index) = build_index(900, 41);
    let w = mixed_workload(&data, 12, 43);
    let kinds = |qi: usize| match qi % 3 {
        0 => QueryKind::Exact,
        1 => QueryKind::Dtw(4),
        _ => QueryKind::Knn(3),
    };
    // Brute-force `(squared distance, id)` pairs, ascending.
    let truth = |qi: usize| {
        let q = w.query(qi);
        let mut all: Vec<(f64, u32)> = (0..data.num_series())
            .map(|id| {
                let s = data.series(id);
                let d = match kinds(qi) {
                    QueryKind::Dtw(win) => dtw_banded(q, s, win, f64::INFINITY).expect("unbounded"),
                    _ => euclidean_sq(q, s),
                };
                (d, id as u32)
            })
            .collect();
        all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        all
    };
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0);
    for during in 0..3 {
        let cluster = OdysseyCluster::from_index(
            Arc::clone(&index),
            ClusterConfig::new(1)
                .with_threads_per_node(2)
                .with_fault_plan(FaultPlan::new().worker_panic(0, during)),
        );
        let service = QueryService::new(ServiceConfig::default().with_queue_capacity(64));
        let ((answers, leftovers), report) = service.serve_cluster(&cluster, |client| {
            let ids: Vec<u64> = (0..w.len())
                .map(|qi| {
                    client
                        .submit(ServiceQuery {
                            data: w.query(qi).to_vec(),
                            kind: kinds(qi),
                            class: LatencyClass::Interactive,
                            deadline: None,
                        })
                        .expect("under capacity")
                })
                .collect();
            let answers: Vec<_> = ids.into_iter().map(|qid| client.wait(qid)).collect();
            (answers, client.drain())
        });
        assert_eq!(report.admitted, w.len() as u64, "panic@{during}");
        assert_eq!(report.completed, w.len() as u64, "panic@{during}");
        assert!(
            leftovers.is_empty(),
            "panic@{during}: an answer was delivered twice"
        );
        assert_eq!(
            report.degraded, 1,
            "panic@{during}: exactly one execution is torn"
        );
        for (qi, a) in answers.iter().enumerate() {
            assert_eq!(a.qid, qi as u64);
            let exact = truth(qi);
            let got = match &a.answer {
                BatchAnswer::Nn(n) => vec![(n.distance_sq, n.series_id.expect("an id"))],
                BatchAnswer::Knn(k) => k.neighbors.clone(),
            };
            for &(d, id) in &got {
                let real = exact.iter().find(|&&(_, j)| j == id).expect("a real id").0;
                assert!(
                    close(d, real),
                    "panic@{during} query {qi}: id {id} is not at {d}"
                );
            }
            if a.outcome == ServeOutcome::Exact {
                for (&(d, _), &(e, _)) in got.iter().zip(&exact) {
                    assert!(
                        close(d, e),
                        "panic@{during} query {qi}: {d} is not exact ({e})"
                    );
                }
            }
        }
    }
}
