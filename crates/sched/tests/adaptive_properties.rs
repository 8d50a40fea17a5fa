//! Property tests for the makespan solver and the online feedback
//! pipeline.
//!
//! Two contracts are load-bearing for correctness elsewhere in the
//! workspace and are checked here over randomized inputs rather than
//! hand-picked fixtures:
//!
//! 1. **Pool partition.** Whatever estimates the predictor produces,
//!    the adaptive planner's lane widths must sum to the worker pool —
//!    the batch engine trusts this blindly when it carves worker
//!    ranges — and never outnumber the queries, so no lane starts
//!    without work.
//! 2. **Replayable planning.** Planned widths are a pure function of
//!    (feedback stream, calibration samples). Two engines that observe
//!    the same history must plan the same widths, which is what makes
//!    the cluster's adaptive mode reproducible under a fixed seed.

use odyssey_sched::admission::{plan_dispatch_widths_adaptive, AdmissionConfig};
use odyssey_sched::{CostModel, OnlineCostModel, SpeedupCurve};
use proptest::prelude::*;

/// A handful of curve shapes spanning the Figure 8 families: linear
/// scaling, hard saturation past width 2, and gentle sub-linear decay.
fn curve_for(shape: u8) -> SpeedupCurve {
    match shape % 3 {
        0 => SpeedupCurve::linear(),
        1 => SpeedupCurve::from_times(&[(1, 8.0), (2, 4.4), (4, 4.0), (8, 3.9)]),
        _ => SpeedupCurve::from_times(&[(1, 8.0), (2, 4.2), (4, 2.6), (8, 2.2)]),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // The adaptive planner partitions the pool into at most one lane
    // per query (and at most `max_lanes`) for arbitrary estimate
    // vectors, pools, and knobs.
    #[test]
    fn adaptive_plan_always_double_partitions(
        est in proptest::collection::vec(0.0f64..50.0, 1usize..40),
        pool in 1usize..=16,
        easy in 1usize..=4,
        max_lanes in 1usize..=8,
        shape in any::<u8>(),
    ) {
        let curve = curve_for(shape);
        let cfg = AdmissionConfig::default()
            .with_easy_width(easy)
            .with_max_lanes(max_lanes);
        let dw = plan_dispatch_widths_adaptive(&est, pool, &cfg, &curve);
        prop_assert_eq!(dw.widths.iter().sum::<usize>(), pool);
        prop_assert!(dw.widths.iter().all(|&w| w >= 1));
        prop_assert!(dw.widths.len() <= est.len().min(max_lanes));
    }

    // The dispatch widths keep the pool partition and a coherent
    // wide/narrow split for arbitrary inputs, an empty sample included.
    #[test]
    fn dispatch_widths_always_partition_the_pool(
        est in proptest::collection::vec(0.0f64..50.0, 0usize..40),
        pool in 1usize..=16,
        easy in 1usize..=4,
        shape in any::<u8>(),
    ) {
        let curve = curve_for(shape);
        let cfg = AdmissionConfig::default().with_easy_width(easy);
        let dw = plan_dispatch_widths_adaptive(&est, pool, &cfg, &curve);
        prop_assert_eq!(dw.widths.iter().sum::<usize>(), pool);
        prop_assert!(dw.widths.iter().all(|&w| w >= 1));
        prop_assert!(dw.wide_lanes <= dw.widths.len());
        prop_assert!(dw.widths.is_empty() || dw.wide_lanes >= 1);
        // Widths are emitted widest-first and every "wide" lane is at
        // least as wide as every lane past the wide prefix.
        prop_assert!(dw.widths.windows(2).all(|w| w[0] >= w[1]));
    }
}

/// Same calibration samples + same feedback stream => identical refit
/// lines => identical planned widths. This is the reproducibility
/// contract the cluster's same-seed tests build on.
#[test]
fn same_history_plans_identical_widths() {
    let samples = [(1usize, 7.9), (2usize, 4.3), (4usize, 2.9), (8usize, 2.5)];
    let curve_a = SpeedupCurve::from_times(&samples);
    let curve_b = SpeedupCurve::from_times(&samples);
    for w in [1usize, 2, 4, 8] {
        assert_eq!(
            curve_a.speedup(w).to_bits(),
            curve_b.speedup(w).to_bits(),
            "curve fit must be a pure function of its samples"
        );
    }

    let model_a = OnlineCostModel::new(256, 8);
    let model_b = OnlineCostModel::new(256, 8);
    // A deterministic pseudo-stream of (initial-BSF, observed-seconds)
    // pairs; enough to cross several refit boundaries at refit_every=8.
    let stream: Vec<(f64, f64)> = (0..40)
        .map(|i| {
            let f = ((i * 37) % 19) as f64 + 1.0;
            (f, 0.2 * f + 0.05 * ((i % 5) as f64))
        })
        .collect();
    for &(f, t) in &stream {
        model_a.record(f, t);
        model_b.record(f, t);
    }
    assert!(model_a.refits() > 0, "stream must cross a refit boundary");
    assert_eq!(model_a.refits(), model_b.refits());
    let (la, lb) = (model_a.line(), model_b.line());
    assert_eq!(la.slope.to_bits(), lb.slope.to_bits());
    assert_eq!(la.intercept.to_bits(), lb.intercept.to_bits());

    let features: Vec<f64> = (0..13).map(|i| ((i * 11) % 7) as f64 + 0.5).collect();
    let est_a: Vec<f64> = features.iter().map(|&f| model_a.estimate(f)).collect();
    let est_b: Vec<f64> = features.iter().map(|&f| model_b.estimate(f)).collect();
    assert_eq!(
        est_a.iter().map(|e| e.to_bits()).collect::<Vec<_>>(),
        est_b.iter().map(|e| e.to_bits()).collect::<Vec<_>>()
    );

    let cfg = AdmissionConfig::default();
    for pool in [1usize, 2, 4, 8] {
        let dw_a = plan_dispatch_widths_adaptive(&est_a, pool, &cfg, &curve_a);
        let dw_b = plan_dispatch_widths_adaptive(&est_b, pool, &cfg, &curve_b);
        assert_eq!(dw_a, dw_b, "pool={pool}");
    }
}
