//! Figure 6: configuring the single-node query-answering algorithm.
//!
//! (a) Sigmoid fit between a query's initial BSF and the median size of
//!     the priority queues produced while answering it.
//! (b) Performance under different threshold *division factors*: the
//!     per-query TH is the sigmoid's median estimate divided by the
//!     factor; the paper picks 16 for Seismic.

use odyssey_bench::{fmt_secs, mixed_queries, print_table_header, print_table_row, seismic_like};
use odyssey_cluster::units;
use odyssey_core::index::{Index, IndexConfig};
use odyssey_core::search::engine::BatchEngine;
use odyssey_core::search::exact::SearchParams;
use odyssey_sched::ThresholdModel;
use std::sync::Arc;

fn main() {
    let data = seismic_like(1);
    let n_queries = 48 * odyssey_bench::scale();
    let queries = mixed_queries(&data, n_queries, 0xF1906);
    let cfg = IndexConfig::new(data.series_len())
        .with_segments(16)
        .with_leaf_capacity(128);
    let index = Arc::new(Index::build(data.clone(), cfg, 2));
    let engine = BatchEngine::new(Arc::clone(&index), 2);

    // --- (a): natural queue sizes under an effectively unbounded TH ----
    let unbounded = SearchParams::new(2).with_th(usize::MAX - 1);
    let mut bsfs = Vec::new();
    let mut medians = Vec::new();
    for qi in 0..n_queries {
        let out = engine.exact(queries.query(qi), &unbounded);
        bsfs.push(out.stats.initial_bsf);
        medians.push(out.stats.pq_size_median as f64);
    }
    let model = ThresholdModel::train(&bsfs, &medians, 16.0);
    println!("Figure 6a: sigmoid fit, initial BSF -> median priority-queue size\n");
    let widths = [12, 14, 14];
    print_table_header(&["initial BSF", "median PQ", "sigmoid fit"], &widths);
    let mut pts: Vec<(f64, f64)> = bsfs.iter().copied().zip(medians.iter().copied()).collect();
    pts.sort_by(|a, b| a.0.total_cmp(&b.0));
    for p in pts.iter().step_by((pts.len() / 12).max(1)) {
        print_table_row(
            &[
                format!("{:.3}", p.0),
                format!("{:.0}", p.1),
                format!("{:.0}", model.sigmoid.eval(p.0)),
            ],
            &widths,
        );
    }
    println!(
        "\nsigmoid: m={:.1} M={:.1} b={:.2} c={:.3} d={:.2} (sse={:.1})",
        model.sigmoid.m,
        model.sigmoid.big_m,
        model.sigmoid.b,
        model.sigmoid.c,
        model.sigmoid.d,
        model.sigmoid.sse
    );

    // --- (b): sweep the division factor --------------------------------
    println!("\nFigure 6b: performance vs threshold division factor\n");
    let widths = [8, 16];
    print_table_header(&["factor", "avg query (s)"], &widths);
    for factor in [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0] {
        let model = ThresholdModel::new(model.sigmoid, factor);
        let mut total = 0.0f64;
        for qi in 0..n_queries {
            let th = model.predict_th(index.approx_search(queries.query(qi)).distance);
            let params = SearchParams::new(2).with_th(th);
            let out = engine.exact(queries.query(qi), &params);
            total += units::units_to_seconds(
                units::search_units(&out.stats, data.series_len(), 16),
                2,
            );
        }
        print_table_row(
            &[format!("{factor:.0}"), fmt_secs(total / n_queries as f64)],
            &widths,
        );
    }
    println!("\npaper shape: a shallow optimum at an intermediate factor (16 for Seismic)");
}
