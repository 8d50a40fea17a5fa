//! Prediction-driven admission: partitioning a node's worker pool into
//! continuous-dispatch lanes.
//!
//! Odyssey exploits two axes of parallelism: *intra*-query (all of a
//! node's workers on one query) and *inter*-query (the cluster answers
//! many queries at once across nodes). The same trade-off exists inside
//! one node: an easy query's speedup saturates at one or two workers —
//! per-query setup and barrier synchronization dominate — while a hard
//! query profits from the whole pool. The planners here use the
//! existing cost predictors (the initial-BSF regression of Figure 4, or
//! the raw initial BSF itself, which is monotone in cost) to pick the
//! lane widths the batch engine's
//! [`run_dispatch`](odyssey_core::search::engine::BatchEngine::run_dispatch)
//! runs on:
//!
//! * [`plan_dispatch_widths`] classifies the estimates against a
//!   median-ratio cutoff ([`AdmissionConfig::hard_ratio`]): an all-easy
//!   sample gets narrow lanes of [`AdmissionConfig::easy_width`]
//!   workers, an all-hard one the full pool, a mixed one a wide lane
//!   (claiming hardest-first) beside narrow ones (claiming
//!   easiest-first);
//! * [`plan_dispatch_widths_adaptive`] instead solves for the width mix
//!   minimizing the [`predicted_makespan`] under the measured
//!   [`SpeedupCurve`].
//!
//! Widths change where a query runs, never its answer.

use crate::speedup::SpeedupCurve;

/// Tuning knobs of the lane-width planners.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Worker-group width for predicted-easy queries (the paper-ish
    /// sweet spot is 1–2: easy queries are setup-dominated).
    pub easy_width: usize,
    /// A query is **hard** when its estimate exceeds
    /// `hard_ratio × median(estimates)`. With every estimate equal
    /// (e.g. the unit estimates of non-predictive policies) nothing
    /// clears the ratio and the whole batch is admitted concurrently.
    pub hard_ratio: f64,
    /// Upper bound on concurrent lanes (`usize::MAX` = only limited by
    /// the pool).
    pub max_lanes: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            easy_width: 2,
            hard_ratio: 2.0,
            max_lanes: usize::MAX,
        }
    }
}

impl AdmissionConfig {
    /// Sets the easy-query group width.
    pub fn with_easy_width(mut self, w: usize) -> Self {
        assert!(w >= 1);
        self.easy_width = w;
        self
    }

    /// Sets the hard/easy median ratio.
    pub fn with_hard_ratio(mut self, r: f64) -> Self {
        assert!(r > 0.0);
        self.hard_ratio = r;
        self
    }

    /// Caps the number of concurrent lanes.
    pub fn with_max_lanes(mut self, n: usize) -> Self {
        assert!(n >= 1);
        self.max_lanes = n;
        self
    }

    /// The estimate value above which a query is considered hard.
    fn cutoff(&self, estimates: &[f64]) -> f64 {
        let mut sorted: Vec<f64> = estimates.to_vec();
        sorted.sort_by(f64::total_cmp);
        let median = sorted.get(sorted.len() / 2).copied().unwrap_or(0.0);
        self.hard_ratio * median
    }
}

/// A pool partition for the continuous-dispatch path (the serving
/// loop): lane widths plus how many of the leading lanes are **wide**
/// (full-pool-share lanes that should claim hardest-first, while the
/// narrow tail claims easiest-first from the other end of the queue).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DispatchWidths {
    /// Lane widths; always sums to the pool size, wide lanes first.
    pub widths: Vec<usize>,
    /// How many leading entries of `widths` are wide lanes.
    pub wide_lanes: usize,
}

/// Partitions a `pool`-thread engine into continuous-dispatch lanes
/// from a hardness classification of the estimates: a query is hard
/// when its estimate exceeds [`AdmissionConfig::hard_ratio`] times the
/// sample's median.
///
/// * No hard tier in the estimates → all-narrow lanes of
///   [`AdmissionConfig::easy_width`] (at most
///   [`AdmissionConfig::max_lanes`] of them), zero wide lanes.
/// * All hard → one full-pool lane.
/// * Mixed → one wide lane on half the pool (hardest-first claims) and
///   narrow `easy_width` lanes on the rest (easiest-first claims); if
///   half the pool can't fit even one narrow lane, the whole pool goes
///   wide.
///
/// The estimates are only a *tier sample* (e.g. the batch at hand, or
/// the last window of served queries); an empty sample behaves as
/// all-easy, since a stream with no history has no hard evidence.
pub fn plan_dispatch_widths(
    estimates: &[f64],
    pool: usize,
    config: &AdmissionConfig,
) -> DispatchWidths {
    let pool = pool.max(1);
    let cutoff = config.cutoff(estimates);
    let n_hard = estimates.iter().filter(|&&e| e > cutoff).count();
    let n_easy = estimates.len() - n_hard;

    let narrow = |budget: usize| -> Vec<usize> {
        let width = config.easy_width.clamp(1, budget);
        let n_lanes = (budget / width).min(config.max_lanes).max(1);
        let base = budget / n_lanes;
        let extra = budget % n_lanes;
        (0..n_lanes).map(|l| base + usize::from(l < extra)).collect()
    };

    if n_hard == 0 {
        // All-easy stream (or no evidence yet): narrow lanes maximize
        // inter-query concurrency.
        DispatchWidths {
            widths: narrow(pool),
            wide_lanes: 0,
        }
    } else if n_easy == 0 {
        DispatchWidths {
            widths: vec![pool],
            wide_lanes: 1,
        }
    } else {
        let narrow_budget = pool / 2;
        if narrow_budget < config.easy_width.clamp(1, pool) {
            // Pool too small to split: the wide lane serves both tiers.
            return DispatchWidths {
                widths: vec![pool],
                wide_lanes: 1,
            };
        }
        let tail = narrow(narrow_budget);
        let mut widths = vec![pool - tail.iter().sum::<usize>()];
        widths.extend(tail);
        DispatchWidths {
            widths,
            wide_lanes: 1,
        }
    }
}

/// Upper bound on the candidate partitions the makespan solver
/// enumerates — a determinism-preserving guard for absurdly wide
/// pools, far above anything the simulated nodes use (a 16-thread
/// pool has 36 power-of-two partitions).
const MAX_SOLVER_PARTITIONS: usize = 20_000;

/// Enumerates candidate width partitions of `pool` (descending parts
/// drawn from the powers of two plus `easy_width` and the pool itself,
/// at most `max_lanes` parts) and returns the one minimizing the LPT
/// makespan of `costs_desc` under the measured speedup `curve`.
fn solve_widths(
    costs_desc: &[f64],
    pool: usize,
    config: &AdmissionConfig,
    curve: &SpeedupCurve,
) -> Vec<usize> {
    let mut parts: Vec<usize> = std::iter::successors(Some(1usize), |&w| Some(w * 2))
        .take_while(|&w| w <= pool)
        .collect();
    for extra in [pool, config.easy_width.clamp(1, pool)] {
        if !parts.contains(&extra) {
            parts.push(extra);
        }
    }
    parts.sort_unstable_by(|a, b| b.cmp(a));
    let max_lanes = config.max_lanes.min(costs_desc.len().max(1));

    let mut best: Option<(f64, Vec<usize>)> = None;
    let mut stack = vec![(Vec::new(), pool, 0usize)];
    let mut visited = 0usize;
    while let Some((widths, left, from)) = stack.pop() {
        if left == 0 {
            visited += 1;
            let makespan = predicted_makespan(costs_desc, &widths, curve);
            // Strict `<` keeps the tie-break deterministic: the DFS
            // visits fewer-lane (wider-part) partitions first, so ties
            // resolve toward wider lanes.
            let better = best.as_ref().is_none_or(|(m, _)| makespan < *m);
            if better {
                best = Some((makespan, widths));
            }
            if visited >= MAX_SOLVER_PARTITIONS {
                break;
            }
            continue;
        }
        if widths.len() >= max_lanes {
            continue;
        }
        // Push in reverse so the widest usable part is explored first.
        for i in (from..parts.len()).rev() {
            let w = parts[i];
            if w <= left {
                let mut next = widths.clone();
                next.push(w);
                stack.push((next, left - w, i));
            }
        }
    }
    best.map(|(_, w)| w).unwrap_or_else(|| vec![pool])
}

/// The LPT makespan of `costs_desc` (descending estimates) over lanes
/// of the given widths: each query goes to the lane it would finish
/// earliest on, a lane of width `w` working through its queue at the
/// curve's `speedup(w)`.
pub fn predicted_makespan(costs_desc: &[f64], widths: &[usize], curve: &SpeedupCurve) -> f64 {
    let speedups: Vec<f64> = widths.iter().map(|&w| curve.speedup(w)).collect();
    let mut load = vec![0.0f64; widths.len()];
    for &c in costs_desc {
        let lane = (0..widths.len())
            .min_by(|&a, &b| {
                let fa = (load[a] + c) / speedups[a];
                let fb = (load[b] + c) / speedups[b];
                fa.total_cmp(&fb).then(a.cmp(&b))
            })
            .expect("at least one lane");
        load[lane] += c;
    }
    load.iter()
        .zip(&speedups)
        .map(|(&l, &s)| l / s)
        .fold(0.0, f64::max)
}

/// Curve-aware variant of [`plan_dispatch_widths`]: the solver picks
/// the makespan-optimal width mix for the observed estimate sample,
/// and every lane at the widest width claims hardest-first (dispatch
/// front) while strictly narrower lanes claim easiest-first. With a
/// uniform mix every lane claims hardest-first — the LPT order.
pub fn plan_dispatch_widths_adaptive(
    estimates: &[f64],
    pool: usize,
    config: &AdmissionConfig,
    curve: &SpeedupCurve,
) -> DispatchWidths {
    let pool = pool.max(1);
    if estimates.is_empty() {
        // No evidence yet: same cold-start shape as the static planner.
        return plan_dispatch_widths(estimates, pool, config);
    }
    let mut costs_desc: Vec<f64> = estimates.to_vec();
    costs_desc.sort_by(|a, b| b.total_cmp(a));
    let mut widths = solve_widths(&costs_desc, pool, config, curve);
    widths.sort_unstable_by(|a, b| b.cmp(a));
    let narrowest = *widths.last().expect("pool >= 1 gives a lane");
    let strictly_wide = widths.iter().filter(|&&w| w > narrowest).count();
    let wide_lanes = if strictly_wide == 0 {
        widths.len()
    } else {
        strictly_wide
    };
    DispatchWidths { widths, wide_lanes }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lpt_balances_easy_lanes() {
        // Eight queries with skewed costs on 4 single-width lanes: the
        // makespan model's greedy assignment keeps the max lane load at
        // the largest single cost, where a round-robin over the arrival
        // order [8, 1, 1, 1, 7, 1, 1, 6] puts 8 + 7 on lane 0.
        let desc = [8.0, 7.0, 6.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        let makespan = predicted_makespan(&desc, &[1, 1, 1, 1], &SpeedupCurve::linear());
        assert_eq!(makespan, 8.0, "LPT keeps lanes balanced");
    }

    #[test]
    fn uniform_estimates_admit_everything_concurrently() {
        // Equal estimates (the unit estimates of non-predictive
        // policies) have no hard tier: the pool splits into easy lanes.
        let est = vec![1.0; 12];
        let dw = plan_dispatch_widths(&est, 8, &AdmissionConfig::default());
        assert_eq!(dw, DispatchWidths { widths: vec![2, 2, 2, 2], wide_lanes: 0 }, "8 threads / width 2");
        let single = plan_dispatch_widths(&est, 8, &AdmissionConfig::default().with_easy_width(1));
        assert_eq!(single, DispatchWidths { widths: vec![1; 8], wide_lanes: 0 });
    }

    #[test]
    fn hard_tail_gets_the_full_pool_first() {
        // Ten easy queries and two 100x outliers: the wide lane leads.
        let mut est = vec![1.0; 10];
        est.push(100.0);
        est.push(120.0);
        let dw = plan_dispatch_widths(&est, 4, &AdmissionConfig::default());
        assert_eq!(dw.wide_lanes, 1);
        assert!(dw.widths.iter().all(|&w| w <= dw.widths[0]), "{:?}", dw.widths);
        // With no room for a narrow lane beside it, the wide lane is the
        // whole pool.
        let tiny = plan_dispatch_widths(&est, 2, &AdmissionConfig::default());
        assert_eq!(tiny, DispatchWidths { widths: vec![2], wide_lanes: 1 });
    }

    #[test]
    fn empty_batch_plans_empty() {
        // An empty sample has no hard tier: no wide lane, easy lanes only.
        let dw = plan_dispatch_widths(&[], 4, &AdmissionConfig::default());
        assert_eq!(dw, DispatchWidths { widths: vec![2, 2], wide_lanes: 0 });
    }

    #[test]
    fn dispatch_widths_partition_the_pool() {
        let samples: [&[f64]; 4] = [
            &[],
            &[1.0, 1.0, 1.0],
            &[1.0, 1.0, 50.0],
            &[50.0, 60.0, 70.0],
        ];
        for pool in 1..=9usize {
            for est in samples {
                for w in [1usize, 2, 3] {
                    let cfg = AdmissionConfig::default().with_easy_width(w);
                    let dw = plan_dispatch_widths(est, pool, &cfg);
                    assert_eq!(dw.widths.iter().sum::<usize>(), pool, "{est:?} pool={pool} w={w}");
                    assert!(dw.widths.iter().all(|&x| x >= 1));
                    assert!(dw.wide_lanes <= dw.widths.len());
                }
            }
        }
    }

    #[test]
    fn dispatch_all_easy_is_all_narrow() {
        let dw = plan_dispatch_widths(&[1.0; 6], 8, &AdmissionConfig::default());
        assert_eq!(dw, DispatchWidths { widths: vec![2, 2, 2, 2], wide_lanes: 0 });
        // No history behaves as all-easy.
        let cold = plan_dispatch_widths(&[], 8, &AdmissionConfig::default());
        assert_eq!(cold.wide_lanes, 0);
    }

    #[test]
    fn dispatch_mixed_splits_wide_head_narrow_tail() {
        let mut est = vec![1.0; 8];
        est.push(100.0);
        let dw = plan_dispatch_widths(&est, 8, &AdmissionConfig::default());
        assert_eq!(dw, DispatchWidths { widths: vec![4, 2, 2], wide_lanes: 1 });
        // A 2-thread pool can't split against easy_width 2: all wide.
        let tiny = plan_dispatch_widths(&est, 2, &AdmissionConfig::default());
        assert_eq!(tiny, DispatchWidths { widths: vec![2], wide_lanes: 1 });
    }

    #[test]
    fn dispatch_all_hard_is_one_full_pool_lane() {
        // Below-median ratio: every estimate clears the cutoff.
        let cfg = AdmissionConfig::default().with_hard_ratio(0.5);
        let dw = plan_dispatch_widths(&[2.0, 3.0, 4.0], 6, &cfg);
        assert_eq!(dw, DispatchWidths { widths: vec![6], wide_lanes: 1 });
    }

    #[test]
    fn solver_prefers_narrow_lanes_on_a_saturating_curve() {
        // Speedup saturates hard past width 2: splitting the pool into
        // narrow lanes beats one wide lane for a uniform batch.
        let curve = SpeedupCurve::from_times(&[(1, 8.0), (2, 4.4), (4, 4.0), (8, 3.9)]);
        let est = vec![1.0; 16];
        let dw =
            plan_dispatch_widths_adaptive(&est, 8, &AdmissionConfig::default(), &curve);
        assert_eq!(dw.widths.iter().sum::<usize>(), 8);
        assert!(
            dw.widths.iter().all(|&w| w <= 2),
            "saturating curve should split: {:?}",
            dw.widths
        );
    }

    #[test]
    fn solver_keeps_the_pool_together_on_a_linear_curve_single_query() {
        let curve = SpeedupCurve::linear();
        let dw = plan_dispatch_widths_adaptive(&[10.0], 8, &AdmissionConfig::default(), &curve);
        assert_eq!(dw, DispatchWidths { widths: vec![8], wide_lanes: 1 });
    }

    #[test]
    fn solver_mixes_widths_for_a_skewed_batch() {
        // One dominant query plus many small ones on a sub-linear curve:
        // the best mix keeps a wide lane for the outlier and narrow
        // lanes for the rest.
        let curve = SpeedupCurve::from_times(&[(1, 8.0), (2, 4.2), (4, 2.6), (8, 2.2)]);
        let mut est = vec![1.0; 12];
        est.push(8.0);
        let dw = plan_dispatch_widths_adaptive(&est, 8, &AdmissionConfig::default(), &curve);
        assert_eq!(dw.widths.iter().sum::<usize>(), 8);
        assert!(dw.widths.len() > 1, "skew should split: {:?}", dw.widths);
        assert!(dw.widths[0] > *dw.widths.last().unwrap(), "wide head");
        assert!(dw.wide_lanes >= 1 && dw.wide_lanes < dw.widths.len());
    }

    #[test]
    fn solver_makespan_never_worse_than_static_shapes() {
        let curve = SpeedupCurve::from_times(&[(1, 8.0), (2, 4.4), (4, 3.2), (8, 3.0)]);
        let cases: [&[f64]; 3] = [&[1.0; 10], &[5.0, 1.0, 1.0, 1.0, 1.0, 1.0], &[9.0, 8.0, 7.0]];
        for est in cases {
            let mut desc: Vec<f64> = est.to_vec();
            desc.sort_by(|a, b| b.total_cmp(a));
            let cfg = AdmissionConfig::default();
            let solved = plan_dispatch_widths_adaptive(est, 8, &cfg, &curve);
            let solved_ms = predicted_makespan(&desc, &solved.widths, &curve);
            let static_dw = plan_dispatch_widths(est, 8, &cfg);
            let static_ms = predicted_makespan(&desc, &static_dw.widths, &curve);
            assert!(
                solved_ms <= static_ms + 1e-9,
                "{est:?}: solved {solved_ms} vs static {static_ms}"
            );
        }
    }

    #[test]
    fn adaptive_plan_double_partitions() {
        // Workers: the widths partition the pool. Queries: every lane
        // has a query to claim.
        let curve = SpeedupCurve::from_times(&[(1, 8.0), (2, 4.4), (4, 3.2), (8, 3.0)]);
        let est: Vec<f64> = (0..23).map(|i| ((i * 7) % 13) as f64 + 0.5).collect();
        for pool in [1usize, 2, 3, 4, 8] {
            for n in [1usize, 2, est.len()] {
                let dw = plan_dispatch_widths_adaptive(&est[..n], pool, &AdmissionConfig::default(), &curve);
                assert_eq!(dw.widths.iter().sum::<usize>(), pool, "pool={pool} n={n}");
                assert!(dw.widths.iter().all(|&w| w >= 1));
                assert!(dw.widths.len() <= n, "pool={pool} n={n}: {:?}", dw.widths);
                assert!(dw.wide_lanes <= dw.widths.len());
            }
        }
    }

    #[test]
    fn adaptive_plan_is_deterministic() {
        let curve = SpeedupCurve::from_times(&[(1, 9.0), (2, 5.0), (4, 3.1), (8, 2.8)]);
        let est: Vec<f64> = (0..17).map(|i| ((i * 5) % 7) as f64 + 1.0).collect();
        let a = plan_dispatch_widths_adaptive(&est, 8, &AdmissionConfig::default(), &curve);
        let b = plan_dispatch_widths_adaptive(&est, 8, &AdmissionConfig::default(), &curve);
        assert_eq!(a, b);
    }

    #[test]
    fn adaptive_empty_and_tiny_batches() {
        let curve = SpeedupCurve::linear();
        let cfg = AdmissionConfig::default();
        // No evidence: the static planner's cold-start shape.
        let empty = plan_dispatch_widths_adaptive(&[], 4, &cfg, &curve);
        assert_eq!(empty, plan_dispatch_widths(&[], 4, &cfg));
        let one = plan_dispatch_widths_adaptive(&[3.0], 4, &cfg, &curve);
        assert_eq!(one, DispatchWidths { widths: vec![4], wide_lanes: 1 }, "lone query gets the pool");
    }

    #[test]
    fn lanes_never_outnumber_queries_or_cap() {
        // A saturating curve favours many narrow lanes; two queries
        // still get at most two lanes, and `max_lanes` caps the rest.
        let curve = SpeedupCurve::from_times(&[(1, 8.0), (2, 4.4), (4, 4.2), (8, 4.1)]);
        let cfg = AdmissionConfig::default().with_easy_width(1);
        let two = plan_dispatch_widths_adaptive(&[1.0, 1.0], 8, &cfg, &curve);
        assert!(two.widths.len() <= 2, "2 queries: {:?}", two.widths);
        let capped =
            plan_dispatch_widths_adaptive(&[1.0; 16], 8, &cfg.with_max_lanes(3), &curve);
        assert!(capped.widths.len() <= 3, "{:?}", capped.widths);
    }

    #[test]
    fn max_lanes_caps_the_solver() {
        let curve = SpeedupCurve::from_times(&[(1, 8.0), (2, 4.4), (4, 4.2), (8, 4.1)]);
        let cfg = AdmissionConfig::default().with_easy_width(1).with_max_lanes(2);
        let dw = plan_dispatch_widths_adaptive(&[1.0; 12], 8, &cfg, &curve);
        assert!(dw.widths.len() <= 2, "{:?}", dw.widths);
        assert_eq!(dw.widths.iter().sum::<usize>(), 8);
    }
}
