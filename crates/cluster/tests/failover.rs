//! Chaos suite for the failure-aware cluster: deterministic fault plans
//! and property-tested random ones, all checked against the two-sided
//! degraded-answer contract.
//!
//! * **Survivor exists** → the batch must be *bit-identical* to the
//!   fault-free run (`f64::to_bits` on the distances). Re-routing a dead
//!   node's queries to a replica re-executes them over the same chunk,
//!   and duplicated or re-ordered executions cannot change a min over
//!   true distances.
//! * **Whole group dead** → the batch must still terminate, the affected
//!   queries must carry `Coverage::Partial` naming the missing groups,
//!   and the answers must be honest: the reported id realizes the
//!   reported distance, and the distance is no worse than exact search
//!   over every chunk the coverage claims.
//!
//! Never hang, never silently wrong.

use odyssey_cluster::{
    BatchReport, ClusterConfig, Coverage, FaultPlan, OdysseyCluster, Replication, SchedulerKind,
};
use odyssey_core::distance::euclidean_sq;
use odyssey_core::series::DatasetBuffer;
use odyssey_workloads::generator::random_walk;
use odyssey_workloads::queries::{QueryWorkload, WorkloadKind};
use proptest::prelude::*;

fn workload(data: &DatasetBuffer, n: usize, seed: u64) -> QueryWorkload {
    QueryWorkload::generate(
        data,
        n,
        WorkloadKind::Mixed {
            hard_fraction: 0.5,
            noise: 0.05,
        },
        seed,
    )
}

/// Exact 1-NN distance over the chunks of `groups` only.
fn covered_min(
    cluster: &OdysseyCluster,
    data: &DatasetBuffer,
    q: &[f32],
    groups: impl Iterator<Item = usize>,
) -> f64 {
    let mut best = f64::INFINITY;
    for g in groups {
        for &gid in cluster.chunk_ids(g).iter() {
            best = best.min(euclidean_sq(q, data.series(gid as usize)));
        }
    }
    best
}

/// The degraded-answer contract, checked query by query:
/// complete coverage must match the clean run bit-for-bit; partial
/// coverage must name the lost groups and stay exact over the rest.
fn assert_contract(
    label: &str,
    cluster: &OdysseyCluster,
    data: &DatasetBuffer,
    w: &QueryWorkload,
    clean: &BatchReport,
    faulted: &BatchReport,
) {
    let n_groups = cluster.topology().n_groups();
    for qi in 0..w.len() {
        match &faulted.coverage[qi] {
            Coverage::Complete => {
                let got = faulted.answers[qi];
                assert_eq!(
                    got.distance.to_bits(),
                    clean.answers[qi].distance.to_bits(),
                    "{label}: query {qi} fully covered but not bit-identical"
                );
                // A complete answer names its series, and that series
                // lies at the reported distance.
                let id = got
                    .series_id
                    .unwrap_or_else(|| panic!("{label}: query {qi} complete but without an id"))
                    as usize;
                assert!(
                    (euclidean_sq(w.query(qi), data.series(id)) - got.distance_sq).abs() < 1e-9,
                    "{label}: query {qi} id does not realize its distance"
                );
            }
            Coverage::Partial { missing_groups } => {
                assert!(
                    !missing_groups.is_empty() && missing_groups.iter().all(|&g| g < n_groups),
                    "{label}: query {qi} partial with bogus groups {missing_groups:?}"
                );
                let got = faulted.answers[qi];
                // The id must realize the distance (the answer points at
                // a real series, not at torn state)...
                let id = got.series_id.expect("partial answer still carries an id") as usize;
                assert!(
                    (euclidean_sq(w.query(qi), data.series(id)) - got.distance_sq).abs() < 1e-9,
                    "{label}: query {qi} id does not realize its distance"
                );
                // ...and must be at least as good as exact search over
                // every chunk the coverage claims was answered.
                let want = covered_min(
                    cluster,
                    data,
                    w.query(qi),
                    (0..n_groups).filter(|g| !missing_groups.contains(g)),
                );
                assert!(
                    got.distance_sq <= want + 1e-9,
                    "{label}: query {qi} misses a series from a covered chunk \
                     (got {} want <= {want})",
                    got.distance_sq
                );
            }
        }
    }
}

#[test]
fn single_kill_is_bit_identical_across_topologies_and_kill_times() {
    let data = random_walk(1_200, 64, 71);
    let w = workload(&data, 10, 23);
    // PARTIAL-1 (FULL) and PARTIAL-2 at 4 nodes: every group keeps a
    // survivor under any single kill, so coverage must stay complete and
    // the answers bit-identical — whether the node dies before its first
    // query, mid-batch, or idle after its share (the Phase-B kill path).
    // The static scheduler pins per-node workloads, so whether a fault
    // point is reached is deterministic: every node owns at least two
    // queries here, and `after = 64` is past every workload, so that
    // fault never fires and the victim must *survive*.
    for rep in [Replication::Full, Replication::Partial(2)] {
        let base = OdysseyCluster::build(
            &data,
            ClusterConfig::new(4)
                .with_replication(rep)
                .with_scheduler(SchedulerKind::Static),
        );
        let clean = base.answer_batch(&w.queries);
        assert!(clean.fully_covered() && clean.dead_nodes.is_empty());
        for victim in 0..4 {
            for after in [0usize, 1, 2, 64] {
                let label = format!("{rep:?} kill({victim},{after})");
                let faulted = base
                    .reconfigured(|c| c.with_fault_plan(FaultPlan::new().kill(victim, after)))
                    .answer_batch(&w.queries);
                if after == 64 {
                    assert!(faulted.dead_nodes.is_empty(), "{label}: phantom death");
                } else {
                    assert_eq!(faulted.dead_nodes, vec![victim], "{label}");
                    assert!(faulted.final_epoch >= 1, "{label}");
                }
                assert!(faulted.fully_covered(), "{label}: lost coverage");
                assert_contract(&label, &base, &data, &w, &clean, &faulted);
            }
        }
    }
}

#[test]
fn whole_group_dead_is_partial_never_hung_never_wrong() {
    let data = random_walk(1_000, 64, 72);
    let w = workload(&data, 8, 29);
    // PARTIAL-N at 4 nodes: one node per group, so any kill loses a
    // whole group (each node runs every query over its own chunk).
    // Early and mid-batch kills must terminate with honest partial
    // answers; a kill point past the whole workload never fires.
    let base = OdysseyCluster::build(
        &data,
        ClusterConfig::new(4)
            .with_replication(Replication::EquallySplit)
            .with_scheduler(SchedulerKind::Static),
    );
    let clean = base.answer_batch(&w.queries);
    for (victim, after) in [(2usize, 0usize), (1, 1), (0, 4), (3, 64)] {
        let label = format!("EquallySplit kill({victim},{after})");
        let faulted = base
            .reconfigured(|c| c.with_fault_plan(FaultPlan::new().kill(victim, after)))
            .answer_batch(&w.queries);
        if after == 64 {
            assert!(faulted.dead_nodes.is_empty(), "{label}: phantom death");
            assert!(faulted.fully_covered(), "{label}");
        } else {
            assert_eq!(faulted.dead_nodes, vec![victim], "{label}");
            // The victim answered exactly `after` queries before dying;
            // the rest of the batch lost that group.
            let partial = faulted
                .coverage
                .iter()
                .filter(|c| !c.is_complete())
                .count();
            assert_eq!(partial, w.len() - after, "{label}");
            for c in &faulted.coverage {
                if let Coverage::Partial { missing_groups } = c {
                    assert_eq!(missing_groups, &vec![victim], "{label}");
                }
            }
        }
        assert_contract(&label, &base, &data, &w, &clean, &faulted);
    }
}

#[test]
fn worker_panic_with_survivor_is_bit_identical() {
    let data = random_walk(1_000, 64, 73);
    let w = workload(&data, 8, 31);
    let base = OdysseyCluster::build(
        &data,
        ClusterConfig::new(4)
            .with_replication(Replication::Partial(2))
            .with_scheduler(SchedulerKind::Static),
    );
    let clean = base.answer_batch(&w.queries);
    // Node 2 panics mid-query (torn execution → unwound engine →
    // re-route of the torn query); node 0 holds the same chunk.
    for during in [0usize, 1] {
        let label = format!("worker_panic(2,{during})");
        let faulted = base
            .reconfigured(|c| c.with_fault_plan(FaultPlan::new().worker_panic(2, during)))
            .answer_batch(&w.queries);
        assert_eq!(faulted.dead_nodes, vec![2], "{label}");
        assert!(faulted.fully_covered(), "{label}");
        assert!(faulted.reroutes >= 1, "{label}: torn query was not re-routed");
        assert_contract(&label, &base, &data, &w, &clean, &faulted);
    }
}

/// A torn query's re-route must find its answer itself. A worker panic
/// tears a query down after the dying node may already have published
/// its bound to the shared BSF board, without ever merging the series
/// behind it; a survivor seeded from that bound would prune the very
/// series at that distance and answer `Complete` without an id. Sweeps
/// datasets × victims × panic points on 4-node PARTIAL-2; every complete
/// answer must carry the id that realizes its distance.
#[test]
fn rerouted_answers_carry_the_id_they_report() {
    for seed in 0..8u64 {
        let data = random_walk(700, 64, 300 + seed);
        let w = workload(&data, 6, 900 + seed);
        let base = OdysseyCluster::build(
            &data,
            ClusterConfig::new(4)
                .with_replication(Replication::Partial(2))
                .with_scheduler(SchedulerKind::Static),
        );
        let clean = base.answer_batch(&w.queries);
        for victim in 0..4 {
            for during in 0..3 {
                let label = format!("seed={seed} worker_panic({victim},{during})");
                let faulted = base
                    .reconfigured(|c| {
                        c.with_fault_plan(FaultPlan::new().worker_panic(victim, during))
                    })
                    .answer_batch(&w.queries);
                assert!(faulted.fully_covered(), "{label}: a survivor exists");
                assert_contract(&label, &base, &data, &w, &clean, &faulted);
            }
        }
    }
}

#[test]
fn delay_fault_changes_nothing_but_time() {
    let data = random_walk(800, 64, 74);
    let w = workload(&data, 6, 37);
    let base = OdysseyCluster::build(
        &data,
        ClusterConfig::new(2).with_replication(Replication::Full),
    );
    let clean = base.answer_batch(&w.queries);
    let faulted = base
        .reconfigured(|c| c.with_fault_plan(FaultPlan::new().delay(1, 200)))
        .answer_batch(&w.queries);
    assert!(faulted.dead_nodes.is_empty(), "a delay is not a death");
    assert!(faulted.fully_covered());
    assert_contract("delay(1,200us)", &base, &data, &w, &clean, &faulted);
}

#[test]
fn kill_composes_with_work_stealing_and_lanes() {
    // The stealing manager and the inter-query lanes stay on for the
    // healthy nodes while node 1 dies; thieves must not wedge on the
    // dead victim and the answers must not change.
    let data = random_walk(1_200, 64, 75);
    let w = workload(&data, 10, 41);
    let base = OdysseyCluster::build(
        &data,
        ClusterConfig::new(4)
            .with_replication(Replication::Partial(2))
            .with_scheduler(SchedulerKind::Static)
            .with_work_stealing(true)
            .with_inter_query_lanes(true),
    );
    let clean = base.answer_batch(&w.queries);
    let faulted = base
        .reconfigured(|c| c.with_fault_plan(FaultPlan::new().kill(1, 1)))
        .answer_batch(&w.queries);
    assert_eq!(faulted.dead_nodes, vec![1]);
    assert!(faulted.fully_covered());
    assert_contract("steal+lanes kill(1,1)", &base, &data, &w, &clean, &faulted);
}

#[test]
fn knn_kill_with_survivor_keeps_exact_neighbors() {
    let data = random_walk(700, 64, 76);
    let w = workload(&data, 5, 43);
    let base = OdysseyCluster::build(
        &data,
        ClusterConfig::new(4)
            .with_replication(Replication::Partial(2))
            .with_scheduler(SchedulerKind::Static),
    );
    let k = 3;
    let report = base
        .reconfigured(|c| c.with_fault_plan(FaultPlan::new().kill(3, 1)))
        .answer_batch_knn(&w.queries, k);
    assert!(report.coverage.iter().all(|c| c.is_complete()));
    for qi in 0..w.len() {
        let q = w.query(qi);
        let mut all: Vec<f64> = (0..data.num_series())
            .map(|i| euclidean_sq(q, data.series(i)))
            .collect();
        all.sort_by(|a, b| a.total_cmp(b));
        for (j, got) in report.answers[qi].neighbors.iter().enumerate() {
            assert!(
                (got.0 - all[j]).abs() < 1e-9,
                "query {qi} neighbor {j} wrong after failover"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Random single-fault plans over every topology shape at 4 nodes:
    // the batch always terminates and the contract always holds —
    // bit-identity when the victim's group keeps a survivor, honest
    // partial coverage when it does not.
    #[test]
    fn random_fault_plans_never_hang_never_lie(
        victim in 0usize..4,
        after in 0usize..6,
        rep_idx in 0usize..3,
        panic_instead in any::<bool>(),
    ) {
        let rep = [
            Replication::Full,
            Replication::Partial(2),
            Replication::EquallySplit,
        ][rep_idx];
        let data = random_walk(500, 32, 77 + rep_idx as u64);
        let w = workload(&data, 6, 47);
        let base = OdysseyCluster::build(
            &data,
            ClusterConfig::new(4)
                .with_replication(rep)
                .with_scheduler(SchedulerKind::Static),
        );
        let clean = base.answer_batch(&w.queries);
        let plan = if panic_instead {
            FaultPlan::new().worker_panic(victim, after)
        } else {
            FaultPlan::new().kill(victim, after)
        };
        let label = format!("{rep:?} victim={victim} after={after} panic={panic_instead}");
        let faulted = base
            .reconfigured(|c| c.with_fault_plan(plan))
            .answer_batch(&w.queries);
        // The fault fires only if the victim's deterministic workload
        // reaches the trigger point; otherwise the node must survive
        // and the batch must be indistinguishable from the clean run.
        if faulted.dead_nodes.is_empty() {
            prop_assert!(faulted.fully_covered(), "{label}: unfired fault lost coverage");
            prop_assert_eq!(faulted.reroutes, 0);
        } else {
            prop_assert_eq!(&faulted.dead_nodes, &vec![victim]);
            prop_assert!(faulted.final_epoch >= 1, "{label}: epoch never advanced");
            let survivor_exists = base
                .topology()
                .nodes_in_group(base.topology().group_of(victim))
                .len()
                > 1;
            if survivor_exists {
                prop_assert!(faulted.fully_covered(), "{label}: survivor exists");
            }
        }
        assert_contract(&label, &base, &data, &w, &clean, &faulted);
    }
}
