//! Integration tests for the features beyond the paper's evaluation
//! (its stated future work): ε-approximate search, subsequence search,
//! index persistence, streaming arrival, and approximate batches.

use odyssey::cluster::{ClusterConfig, OdysseyCluster, Replication};
use odyssey::core::index::{Index, IndexConfig};
use odyssey::core::persist;
use odyssey::core::search::engine::BatchEngine;
use odyssey::core::search::exact::SearchParams;
use odyssey::core::subsequence::SubsequenceIndex;
use odyssey::workloads::generator::{noisy_walk, random_walk};
use odyssey::workloads::io as wio;
use odyssey::workloads::queries::{QueryWorkload, WorkloadKind};
use std::sync::Arc;

#[test]
fn epsilon_search_guarantee_on_realistic_workload() {
    let data = noisy_walk(1_500, 64, 0xE91);
    let index = Index::build(
        data.clone(),
        IndexConfig::new(64).with_segments(8).with_leaf_capacity(64),
        2,
    );
    let w = QueryWorkload::generate(
        &data,
        10,
        WorkloadKind::Mixed {
            hard_fraction: 0.5,
            noise: 0.1,
        },
        0xE92,
    );
    let engine = BatchEngine::new(Arc::new(index), 2);
    for qi in 0..w.len() {
        let exact = engine.index().brute_force(w.query(qi));
        for eps in [0.1, 0.5] {
            let (got, _) = engine.epsilon(w.query(qi), eps, &SearchParams::new(2));
            assert!(got.distance <= (1.0 + eps) * exact.distance + 1e-9);
            assert!(got.distance >= exact.distance - 1e-9);
        }
    }
}

#[test]
fn persisted_index_answers_like_the_original_through_files() {
    let data = random_walk(700, 96, 0xAB);
    let index = Index::build(
        data.clone(),
        IndexConfig::new(96).with_segments(12).with_leaf_capacity(48),
        2,
    );
    let path = std::env::temp_dir().join(format!(
        "odyssey_integration_{}.idx",
        std::process::id()
    ));
    persist::save_index_file(&index, &path).expect("save");
    let loaded = persist::load_index_file(&path).expect("load");
    let w = QueryWorkload::generate(&data, 5, WorkloadKind::Hard, 0xCD);
    let fresh = BatchEngine::new(Arc::new(index), 2);
    let loaded = BatchEngine::new(Arc::new(loaded), 2);
    for qi in 0..w.len() {
        let a = fresh.exact(w.query(qi), &SearchParams::new(2)).answer;
        let b = loaded.exact(w.query(qi), &SearchParams::new(2)).answer;
        assert_eq!(a.distance, b.distance);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn persisted_layout_supports_stolen_batch_runs() {
    // The leaf-contiguous layout must survive persistence *including*
    // the work-stealing contract: an owner run with pre-stolen batches
    // plus a thief run on the loaded copy — two "nodes" of a
    // replication group, one built fresh, one loaded from disk — must
    // compose to the exact answer. This only works if the loaded index
    // has a bit-identical scan permutation and forest.
    use odyssey::core::search::bsf::{ResultSet, SharedBsf};
    use odyssey::core::search::kernel::EdKernel;

    let data = random_walk(1_400, 64, 0xBEEF);
    let index = Index::build(
        data.clone(),
        IndexConfig::new(64).with_segments(8).with_leaf_capacity(24),
        2,
    );
    let mut bytes = Vec::new();
    persist::save_index(&index, &mut bytes).expect("save");
    let loaded = persist::load_index(&mut bytes.as_slice()).expect("load");
    assert_eq!(
        index.layout().scan_to_id(),
        loaded.layout().scan_to_id(),
        "replication determinism: loaded scan permutation is identical"
    );

    let w = QueryWorkload::generate(&data, 4, WorkloadKind::Hard, 0xFEED);
    let fresh = BatchEngine::new(Arc::new(index), 2);
    let loaded = BatchEngine::new(Arc::new(loaded), 2);
    let index = fresh.index();
    for qi in 0..w.len() {
        let q = w.query(qi);
        let want = index.brute_force(q);
        // Plain answers agree between fresh and loaded copies.
        let a = fresh.exact(q, &SearchParams::new(2)).answer;
        let b = loaded.exact(q, &SearchParams::new(2)).answer;
        assert_eq!(a.distance, b.distance, "query {qi}");
        assert_eq!(a.series_id, b.series_id, "query {qi}");

        // Owner (fresh index) runs with two batches pre-stolen; the
        // thief completes them on the *loaded* index.
        let kernel = EdKernel::new(q, index.config().segments);
        let params = SearchParams::new(2).with_nsb(6);
        let approx = index.approx_search(q);
        let bsf = Arc::new(SharedBsf::new(approx.distance_sq, approx.series_id));
        let owner = fresh.admit(0, Arc::clone(&bsf) as Arc<dyn ResultSet + Send + Sync>);
        let view = owner.view();
        view.test_init(6);
        let stolen = view.try_steal(2);
        assert_eq!(stolen.len(), 0, "nothing stealable before processing");
        // Mark batches 4 and 5 stolen up front via the published state.
        view.test_publish(vec![0, 1, 2, 3, 4, 5]);
        let stolen = view.try_steal(2);
        assert_eq!(stolen, vec![5, 4]);
        fresh.run_query(&kernel, &params, &*bsf, None, &owner, &|_, _| {});
        drop(owner);
        let thief = loaded.admit(0, Arc::clone(&bsf) as Arc<dyn ResultSet + Send + Sync>);
        loaded.run_query(&kernel, &params, &*bsf, Some(&stolen), &thief, &|_, _| {});
        assert!(
            (bsf.answer().distance - want.distance).abs() < 1e-9,
            "query {qi}: stolen-batch composition across persistence"
        );
    }
}

#[test]
fn dataset_file_roundtrip_feeds_a_cluster() {
    let data = random_walk(600, 64, 0x10);
    let path = std::env::temp_dir().join(format!(
        "odyssey_integration_{}.bin",
        std::process::id()
    ));
    wio::write_bin(&data, &path).expect("write");
    let back = wio::read_bin(&path, 64).expect("read");
    let w = QueryWorkload::generate(&back, 4, WorkloadKind::Hard, 0x11);
    let cluster = OdysseyCluster::build(
        &back,
        ClusterConfig::new(2)
            .with_replication(Replication::EquallySplit)
            .with_leaf_capacity(64),
    );
    let report = cluster.answer_batch(&w.queries);
    for qi in 0..w.len() {
        let mut best = f64::INFINITY;
        for i in 0..data.num_series() {
            best = best.min(odyssey::core::distance::euclidean_sq(
                w.query(qi),
                data.series(i),
            ));
        }
        assert!((report.answers[qi].distance_sq - best).abs() < 1e-9);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn subsequence_search_over_generated_archives() {
    // Two "long recordings"; a known pattern planted in the second.
    let rec1: Vec<f32> = random_walk(1, 1500, 0x77).series(0).to_vec();
    let mut rec2: Vec<f32> = random_walk(1, 1200, 0x78).series(0).to_vec();
    let pattern: Vec<f32> = random_walk(1, 96, 0x79).series(0).to_vec();
    rec2[300..396].copy_from_slice(&pattern);
    let idx = SubsequenceIndex::build(&[rec1, rec2], 96, 1, 2);
    let (ans, at) = idx.best_match(&pattern, 2);
    assert_eq!(at.sequence, 1);
    assert_eq!(at.offset, 300);
    assert!(ans.distance < 1e-3);
}

#[test]
fn streaming_and_batch_agree() {
    let data = noisy_walk(900, 64, 0x21);
    let w = QueryWorkload::generate(
        &data,
        9,
        WorkloadKind::Mixed {
            hard_fraction: 0.3,
            noise: 0.05,
        },
        0x22,
    );
    let cluster = OdysseyCluster::build(
        &data,
        ClusterConfig::new(4).with_replication(Replication::Full),
    );
    let batch = cluster.answer_batch(&w.queries);
    let stream = cluster.answer_batch_stream(&w.queries, 2);
    for qi in 0..w.len() {
        assert!(
            (batch.answers[qi].distance - stream.answers[qi].distance).abs() < 1e-9,
            "query {qi}"
        );
    }
}

#[test]
fn straggler_with_stealing_beats_straggler_without() {
    let data = noisy_walk(4_000, 64, 0x31);
    let w = QueryWorkload::generate(
        &data,
        16,
        WorkloadKind::Mixed {
            hard_fraction: 0.4,
            noise: 0.1,
        },
        0x32,
    );
    let base = OdysseyCluster::build(
        &data,
        ClusterConfig::new(4)
            .with_replication(Replication::Full)
            .with_scheduler(odyssey::cluster::SchedulerKind::Dynamic)
            .with_node_speed(0, 0.25)
            .with_leaf_capacity(64),
    );
    let no_steal = base.reconfigured(|c| c.with_work_stealing(false));
    // Stealing must not make the makespan dramatically worse; on most
    // runs it improves it. The measurement depends on real thread
    // interleavings, so allow a few attempts before declaring failure —
    // exactness is asserted on every attempt, only the timing bound
    // retries.
    let mut last = (0, 0);
    let ok = (0..3).any(|_| {
        let without = no_steal.answer_batch(&w.queries);
        let with = base.answer_batch(&w.queries);
        for qi in 0..w.len() {
            assert!((with.answers[qi].distance - without.answers[qi].distance).abs() < 1e-9);
        }
        last = (with.makespan_units(), without.makespan_units());
        last.0 <= last.1 * 3 / 2
    });
    assert!(
        ok,
        "stealing makespan {} repeatedly exceeded 1.5x the no-stealing makespan {}",
        last.0, last.1
    );
}
