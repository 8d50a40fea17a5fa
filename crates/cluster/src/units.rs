//! The deterministic work-unit cost model.
//!
//! One *unit* ≈ one floating-point multiply-add. Per-node loads summed in
//! units are hardware- and interleaving-independent, so the max-over-nodes
//! makespan is reproducible — see the crate docs for why wall-clock
//! per-node times are unusable on a shared development machine.

use odyssey_core::search::exact::SearchStats;

/// Approximate seconds per work unit, for pretty-printing unit counts as
/// "simulated seconds" in harness output (2 ns/FLOP ≈ a modest core).
pub const SECONDS_PER_UNIT: f64 = 2.0e-9;

/// Work units of one search execution.
pub fn search_units(stats: &SearchStats, series_len: usize, segments: usize) -> u64 {
    stats.lb_node_computations * segments as u64
        + stats.lb_series_computations * segments as u64
        + stats.real_distance_computations * series_len as u64
        // Heap operations per collected leaf (small constant).
        + stats.leaves_collected * 8
}

/// Work units of the index-construction *buffer phase* for one chunk:
/// one pass over every value (PAA + symbol lookup).
pub fn buffer_units(n_series: usize, series_len: usize) -> u64 {
    (n_series * series_len) as u64 * 2
}

/// Work units of the *tree phase*: every series id is re-partitioned once
/// per tree level it passes through, so the cost is the sum over leaves of
/// `series × depth`.
pub fn tree_units(index: &odyssey_core::Index) -> u64 {
    let forest = index.forest();
    let mut total = 0u64;
    let mut depth = Vec::new();
    for root in forest {
        // One forward pass over the subtree's pre-order range: both
        // children of a node come after it.
        let nodes = root.node.nodes();
        let at = |node: u32| (node - nodes.start) as usize;
        depth.clear();
        depth.resize(nodes.len(), 1u64);
        for node in nodes.clone() {
            let d = depth[at(node)];
            match forest.children(node) {
                Some(children) => children.iter().for_each(|&c| depth[at(c)] = d + 1),
                None => {
                    let leaf = forest.leaf_id(node).expect("a leaf");
                    total += forest.leaf(leaf).len() as u64 * d;
                }
            }
        }
    }
    total
}

/// Converts units to simulated seconds given the node's thread count
/// (units are total work; `t` threads shorten the wall time).
pub fn units_to_seconds(units: u64, threads_per_node: usize) -> f64 {
    units as f64 * SECONDS_PER_UNIT / threads_per_node.max(1) as f64
}

/// Recovery latency of a faulted batch in simulated seconds: how much
/// *longer* the batch ran (max-over-nodes, in units) than its
/// fault-free baseline. Re-routed executions land on survivors, so the
/// faulted makespan is at least the baseline; the difference is the
/// price of the failover. Clamped at zero (a kill can also *shorten*
/// the makespan when the dead node was the straggler).
pub fn recovery_seconds(
    faulted_makespan_units: u64,
    baseline_makespan_units: u64,
    threads_per_node: usize,
) -> f64 {
    units_to_seconds(
        faulted_makespan_units.saturating_sub(baseline_makespan_units),
        threads_per_node,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn search_units_weighting() {
        let stats = SearchStats {
            lb_node_computations: 10,
            lb_series_computations: 100,
            real_distance_computations: 5,
            leaves_collected: 3,
            ..Default::default()
        };
        let u = search_units(&stats, 256, 16);
        assert_eq!(u, 10 * 16 + 100 * 16 + 5 * 256 + 3 * 8);
    }

    #[test]
    fn units_to_seconds_scales_with_threads() {
        let one = units_to_seconds(1_000_000, 1);
        let four = units_to_seconds(1_000_000, 4);
        assert!((one / four - 4.0).abs() < 1e-12);
    }

    #[test]
    fn buffer_units_proportional_to_volume() {
        assert_eq!(buffer_units(100, 64), 12_800);
        assert_eq!(buffer_units(200, 64), 25_600);
    }

    #[test]
    fn recovery_seconds_is_clamped_overhead() {
        let over = recovery_seconds(3_000_000, 1_000_000, 1);
        assert!((over - units_to_seconds(2_000_000, 1)).abs() < 1e-15);
        // A kill that removed the straggler: no recovery cost.
        assert_eq!(recovery_seconds(500, 1_000, 4), 0.0);
    }
}
