//! Figure 4: linear regression between a query's initial BSF and its
//! execution time (Seismic).
//!
//! The paper's observation: queries with a high initial BSF tend to have
//! high execution times, well enough for a linear model to drive
//! scheduling. This harness runs a mixed-difficulty batch on the
//! seismic-like dataset, records per-query (initial BSF, work), fits the
//! regression, and reports the correlation — the paper's plot shows a
//! clearly positive slope with moderate spread.

use odyssey_bench::{fmt_secs, mixed_queries, print_table_header, print_table_row, seismic_like};
use odyssey_cluster::units;
use odyssey_core::index::{Index, IndexConfig};
use odyssey_core::search::engine::BatchEngine;
use odyssey_core::search::exact::SearchParams;
use odyssey_sched::LinearRegression;
use std::sync::Arc;

fn main() {
    let data = seismic_like(1);
    let n_queries = 64 * odyssey_bench::scale();
    let queries = mixed_queries(&data, n_queries, 0xF1904);
    let cfg = IndexConfig::new(data.series_len())
        .with_segments(16)
        .with_leaf_capacity(128);
    let index = Index::build(data.clone(), cfg, 2);
    let engine = BatchEngine::new(Arc::new(index), 2);
    let params = SearchParams::new(2);

    let mut xs = Vec::with_capacity(n_queries);
    let mut ys = Vec::with_capacity(n_queries);
    for qi in 0..n_queries {
        let out = engine.exact(queries.query(qi), &params);
        let secs = units::units_to_seconds(
            units::search_units(&out.stats, data.series_len(), 16),
            params.n_threads,
        );
        xs.push(out.stats.initial_bsf);
        ys.push(secs);
    }
    let reg = LinearRegression::fit(&xs, &ys);

    println!("Figure 4: initial BSF vs execution time (seismic-like, {n_queries} queries)\n");
    let widths = [12, 14];
    print_table_header(&["initial BSF", "exec time (s)"], &widths);
    // Print a subsample of points, sorted by BSF, like the scatter plot.
    let mut pts: Vec<(f64, f64)> = xs.iter().copied().zip(ys.iter().copied()).collect();
    pts.sort_by(|a, b| a.0.total_cmp(&b.0));
    let step = (pts.len() / 16).max(1);
    for p in pts.iter().step_by(step) {
        print_table_row(&[format!("{:.3}", p.0), fmt_secs(p.1)], &widths);
    }
    println!(
        "\nfit: time = {:.4e} * BSF + {:.4e}   R² = {:.3}   corr = {:.3}",
        reg.slope,
        reg.intercept,
        reg.r2,
        reg.correlation()
    );
    println!("paper shape: clearly positive correlation (regression usable for scheduling)");
    assert!(
        reg.correlation() > 0.3,
        "expected a positive BSF/time correlation"
    );
}
