//! End-to-end pipeline tests: the pieces a user composes — predictor
//! training, threshold model, scheduling, cluster answering — work
//! together across crate boundaries.

use odyssey::cluster::{units, ClusterConfig, OdysseyCluster, Replication, SchedulerKind};
use odyssey::core::index::{Index, IndexConfig};
use odyssey::core::search::engine::BatchEngine;
use odyssey::core::search::exact::SearchParams;
use odyssey::sched::{QueryCostPredictor, ThresholdModel};
use odyssey::workloads::generator::noisy_walk;
use odyssey::workloads::queries::{QueryWorkload, WorkloadKind};
use std::sync::Arc;

#[test]
fn trained_predictor_feeds_the_scheduler() {
    let data = noisy_walk(2_000, 64, 0xBEEF);
    let index = Arc::new(Index::build(
        data.clone(),
        IndexConfig::new(64).with_segments(8).with_leaf_capacity(64),
        2,
    ));
    let engine = BatchEngine::new(Arc::clone(&index), 2);
    // Training pass: measure per-query work on a training workload.
    let train = QueryWorkload::generate(
        &data,
        24,
        WorkloadKind::Mixed {
            hard_fraction: 0.5,
            noise: 0.05,
        },
        1,
    );
    let params = SearchParams::new(2);
    let mut bsfs = Vec::new();
    let mut costs = Vec::new();
    for qi in 0..train.len() {
        let out = engine.exact(train.query(qi), &params);
        bsfs.push(out.stats.initial_bsf);
        costs.push(units::search_units(&out.stats, 64, 8) as f64);
    }
    let predictor = QueryCostPredictor::train(&bsfs, &costs);
    assert!(
        predictor.regression().correlation() > 0.2,
        "BSF/work correlation should be positive: {}",
        predictor.regression().correlation()
    );

    // Deployment pass: the trained model drives PREDICT-DN scheduling.
    let test = QueryWorkload::generate(
        &data,
        8,
        WorkloadKind::Mixed {
            hard_fraction: 0.5,
            noise: 0.05,
        },
        2,
    );
    let cfg = ClusterConfig::new(4)
        .with_replication(Replication::Full)
        .with_scheduler(SchedulerKind::PredictDn)
        .with_cost_model(Arc::new(predictor))
        .with_leaf_capacity(64);
    let cluster = OdysseyCluster::build(&data, cfg);
    let report = cluster.answer_batch(&test.queries);
    for qi in 0..test.len() {
        let want = index.brute_force(test.query(qi));
        assert!((report.answers[qi].distance - want.distance).abs() < 1e-9);
    }
}

#[test]
fn threshold_model_keeps_search_exact() {
    let data = noisy_walk(1_500, 64, 0xCAFE);
    let index = Arc::new(Index::build(
        data.clone(),
        IndexConfig::new(64).with_segments(8).with_leaf_capacity(64),
        2,
    ));
    let engine = BatchEngine::new(Arc::clone(&index), 2);
    // Collect (BSF, median queue size) under unbounded queues.
    let train = QueryWorkload::generate(
        &data,
        16,
        WorkloadKind::Mixed {
            hard_fraction: 0.5,
            noise: 0.05,
        },
        3,
    );
    let unbounded = SearchParams::new(2).with_th(usize::MAX - 1);
    let mut bsfs = Vec::new();
    let mut medians = Vec::new();
    for qi in 0..train.len() {
        let out = engine.exact(train.query(qi), &unbounded);
        bsfs.push(out.stats.initial_bsf);
        medians.push(out.stats.pq_size_median.max(1) as f64);
    }
    let model = ThresholdModel::train(&bsfs, &medians, 16.0);
    // The predicted threshold never breaks exactness.
    let test = QueryWorkload::generate(&data, 6, WorkloadKind::Hard, 4);
    for qi in 0..test.len() {
        let q = test.query(qi);
        let th = model.predict_th(index.approx_search(q).distance);
        let params = SearchParams::new(2).with_th(th);
        let got = engine.exact(q, &params);
        let want = index.brute_force(q);
        assert!(
            (got.answer.distance - want.distance).abs() < 1e-9,
            "query {qi} with predicted TH {th}"
        );
    }
}

#[test]
fn report_accounting_is_consistent() {
    let data = noisy_walk(1_200, 64, 0xF00D);
    let w = QueryWorkload::generate(
        &data,
        10,
        WorkloadKind::Mixed {
            hard_fraction: 0.3,
            noise: 0.05,
        },
        5,
    );
    let cfg = ClusterConfig::new(4)
        .with_replication(Replication::Partial(2))
        .with_leaf_capacity(64);
    let cluster = OdysseyCluster::build(&data, cfg);
    let report = cluster.answer_batch(&w.queries);
    // Every query answered by each group: total own-query executions =
    // n_queries * n_groups.
    let total_answered: usize = report.per_node_queries.iter().sum();
    assert_eq!(total_answered, w.len() * cluster.topology().n_groups());
    // Makespan <= total, >= total / n_nodes.
    let total = report.total_units();
    let makespan = report.makespan_units();
    assert!(makespan <= total);
    assert!(makespan * 4 >= total, "makespan can't beat perfect balance");
    // Per-query units sum to per-node units sum.
    let per_q: u64 = report.per_query_units.iter().sum();
    assert_eq!(per_q, total);
    // Initial BSFs recorded for predicting schedulers.
    assert!(report
        .per_query_initial_bsf
        .iter()
        .all(|b| b.is_finite() && *b >= 0.0));
}
