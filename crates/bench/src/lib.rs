//! # odyssey-bench
//!
//! Harnesses that regenerate every table and figure of the paper's
//! evaluation (Section 5). Each figure has a binary printing the same
//! rows/series the paper plots:
//!
//! ```text
//! cargo run --release -p odyssey-bench --bin table1
//! cargo run --release -p odyssey-bench --bin fig04_regression
//! cargo run --release -p odyssey-bench --bin fig06_threshold
//! cargo run --release -p odyssey-bench --bin fig10_scheduling
//! cargo run --release -p odyssey-bench --bin fig11_query_scalability
//! cargo run --release -p odyssey-bench --bin fig12_dataset_scalability
//! cargo run --release -p odyssey-bench --bin fig13_throughput
//! cargo run --release -p odyssey-bench --bin fig14_index_size
//! cargo run --release -p odyssey-bench --bin fig15_replication
//! cargo run --release -p odyssey-bench --bin fig16_replication_real
//! cargo run --release -p odyssey-bench --bin fig17_index_and_competitors
//! cargo run --release -p odyssey-bench --bin fig18_knn
//! cargo run --release -p odyssey-bench --bin fig19_dtw
//! ```
//!
//! Set `ODYSSEY_BENCH_SCALE` (default `1`) to multiply dataset and query
//! sizes. Reported times are **simulated seconds**: per-node work units
//! (see `odyssey_cluster::units`) scaled by a constant and the per-node
//! thread count — the max-over-nodes analogue of the paper's
//! measurements. Absolute values are not comparable to the paper's
//! cluster; shapes (who wins, scaling slopes, crossovers) are.
//!
//! Criterion micro-benchmarks (`cargo bench -p odyssey-bench`) cover the
//! kernels plus three ablations of DESIGN.md §5: RS-batch counts, the
//! queue-size threshold, and traversal helping.

#![forbid(unsafe_code)]

use odyssey_core::series::DatasetBuffer;
use odyssey_workloads::generator;
use odyssey_workloads::queries::{QueryWorkload, WorkloadKind};

/// Scale multiplier from `ODYSSEY_BENCH_SCALE`.
pub fn scale() -> usize {
    std::env::var("ODYSSEY_BENCH_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&s| s >= 1)
        .unwrap_or(1)
}

/// Default series length for the harnesses (kept moderate so every
/// figure regenerates in minutes on one machine).
pub const SERIES_LEN: usize = 128;

/// Base collection size before scaling.
pub const BASE_SERIES: usize = 6_000;

/// The seismic-like dataset at harness scale.
pub fn seismic_like(mult: usize) -> DatasetBuffer {
    generator::noisy_walk(BASE_SERIES * scale() * mult, SERIES_LEN, 0x5E15)
}

/// The random-walk dataset at harness scale.
pub fn random_like(mult: usize) -> DatasetBuffer {
    generator::random_walk(BASE_SERIES * scale() * mult, SERIES_LEN, 0x7A2D)
}

/// A clustered (embedding-like) dataset at harness scale.
pub fn clustered_like(mult: usize, n_clusters: usize, spread: f32, seed: u64) -> DatasetBuffer {
    generator::cluster_mixture(
        BASE_SERIES * scale() * mult,
        SERIES_LEN,
        n_clusters,
        spread,
        seed,
    )
}

/// The standard mixed-difficulty batch used by the scheduling and
/// replication harnesses.
pub fn mixed_queries(data: &DatasetBuffer, n: usize, seed: u64) -> QueryWorkload {
    QueryWorkload::generate(
        data,
        n,
        WorkloadKind::Mixed {
            hard_fraction: 0.3,
            noise: 0.05,
        },
        seed,
    )
}

/// A locality-preserving graded-difficulty batch (every query's true
/// neighborhood lives in one chunk; noise — and hence work — grows along
/// the batch). The replication and BSF-sharing figures use this: the
/// paper's corresponding results depend on real-data locality.
pub fn graded_queries(data: &DatasetBuffer, n: usize, seed: u64) -> QueryWorkload {
    QueryWorkload::generate(data, n, WorkloadKind::Graded { max_noise: 0.8 }, seed)
}

/// The scheduler variants compared in Figure 10, in the paper's legend
/// order: `(label, policy, work_stealing)`.
pub fn scheduler_variants() -> Vec<(&'static str, odyssey_cluster::SchedulerKind, bool)> {
    use odyssey_cluster::SchedulerKind as S;
    vec![
        ("static", S::Static, false),
        ("dynamic", S::Dynamic, false),
        ("predict-st-unsorted", S::PredictStUnsorted, false),
        ("predict-st", S::PredictSt, false),
        ("predict-dn", S::PredictDn, false),
        ("work-steal", S::Dynamic, true),
        ("work-steal-predict", S::PredictDn, true),
    ]
}

/// The replication strategies valid for `n_nodes`, in the paper's order
/// (EQUALLY-SPLIT, PARTIAL-4, PARTIAL-2, FULL), deduplicated when they
/// coincide (e.g. 1 node).
pub fn replication_options(n_nodes: usize) -> Vec<odyssey_cluster::Replication> {
    use odyssey_cluster::Replication as R;
    let mut out = Vec::new();
    let mut groups_seen = Vec::new();
    for r in [R::EquallySplit, R::Partial(4), R::Partial(2), R::Full] {
        let k = r.n_groups(n_nodes);
        if k >= 1 && k <= n_nodes && n_nodes.is_multiple_of(k) && !groups_seen.contains(&k) {
            groups_seen.push(k);
            out.push(r);
        }
    }
    out
}

/// Formats a simulated-seconds value, switching to ms/µs for small
/// magnitudes so scaled-down runs stay readable.
pub fn fmt_secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}")
    } else if s >= 1.0 {
        format!("{s:.2}")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else if s > 0.0 {
        format!("{:.1}us", s * 1e6)
    } else {
        "0".into()
    }
}

/// Prints a header row followed by a separator, padded to `widths`.
pub fn print_table_header(cols: &[&str], widths: &[usize]) {
    let row: Vec<String> = cols
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect();
    println!("{}", row.join("  "));
    println!("{}", "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
}

/// Prints one table row padded to `widths`.
pub fn print_table_row(cells: &[String], widths: &[usize]) {
    let row: Vec<String> = cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect();
    println!("{}", row.join("  "));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_defaults_to_one() {
        // (Cannot mutate the environment safely in tests; just check the
        // parse path with the default.)
        assert!(scale() >= 1);
    }

    #[test]
    fn generators_produce_requested_sizes() {
        let d = generator::random_walk(100, SERIES_LEN, 1);
        assert_eq!(d.num_series(), 100);
        let q = mixed_queries(&d, 7, 3);
        assert_eq!(q.len(), 7);
    }

    #[test]
    fn fmt_secs_ranges() {
        assert_eq!(fmt_secs(123.4), "123");
        assert_eq!(fmt_secs(1.234), "1.23");
        assert_eq!(fmt_secs(0.1234), "123.40ms");
    }
}
