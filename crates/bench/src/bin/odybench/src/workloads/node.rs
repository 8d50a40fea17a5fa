//! The two single-node workloads. They run the same loop over one
//! `BatchEngine` and differ in what the queries make the engine do:
//!
//! * `node_pruned` — 1 000 000 × 128 random walks, queries are indexed
//!   series plus graded noise. Lower bounds prune ~98 % of the series, so
//!   time sits in the root sweep, tree and queue handling and per-query
//!   engine overhead; the distance kernels do little.
//! * `node_scan` — 250 000 × 256, white-noise queries. Pruning collapses,
//!   the engine computes the real distance for nearly every series, and
//!   the kernels and the result set do the work.
//!
//! A gain in one layer should move one of them and leave the other flat.

use crate::gen::{fnv64, graded_queries, walk_collection, white_queries, Walk, FNV_OFFSET};
use crate::harness::{
    ask_engine, check_reference, put_common, record, repeat_setup, timed, trace_overhead, Ctx,
    Ledger, BENCH_THREADS, SETUP_REPEATS,
};
use crate::layers::{self, StatsSum};
use crate::machine::WORKER_THREADS;
use crate::report::{Metrics, Record};
use crate::rng::sub_seed;
use crate::stats::{median, median_of_query_medians, supports, Latencies};
use crate::trace::{worst_self_time_gap, NO_PARENT, NO_REQUEST};
use crate::verify::{Kind, Query, Reported};
use odyssey_core::index::{Index, IndexConfig};
use odyssey_core::search::engine::{BatchEngine, BatchQuery, QueryKind};
use odyssey_core::search::exact::SearchParams;
use odyssey_core::series::DatasetBuffer;
use std::sync::Arc;
use std::time::Instant;

/// How the queries of one kind are made.
#[derive(Debug, Clone, Copy)]
pub enum Noise {
    /// Indexed series plus noise graded over `[lo, hi]`.
    Graded(f32, f32),
    /// White noise.
    White,
}

/// Sizes and query mix of a single-node workload.
#[derive(Debug, Clone, Copy)]
pub struct NodeSpec {
    pub name: &'static str,
    pub series: usize,
    pub len: usize,
    /// Distinct queries per kind, and how they are made.
    pub ed: (usize, Noise),
    pub knn: (usize, Noise),
    pub dtw: (usize, Noise),
    pub k: usize,
    pub dtw_window: usize,
    /// One round of the one-at-a-time phase asks this many queries of
    /// each kind (ED, k-NN, DTW), cycling through the pools.
    pub round: (usize, usize, usize),
    /// Queries per `run_batch` pass of the throughput phase, which takes
    /// half the run; `None` takes the rate of each round's ED and k-NN
    /// queries instead (a DTW query costs 10 ms to 1 s depending on the
    /// series it perturbs, which would make the rate a property of the
    /// seed).
    pub batch_pass: Option<usize>,
    /// The share of series the index must spare the ED and k-NN queries
    /// from a real distance: at least this (`true`) or at most (`false`).
    pub prune_ratio: (bool, f64),
}

pub const PRUNED: NodeSpec = NodeSpec {
    name: "node_pruned",
    series: 1_000_000,
    len: 128,
    ed: (512, Noise::Graded(0.02, 0.8)),
    knn: (128, Noise::Graded(0.02, 0.8)),
    dtw: (4, Noise::Graded(0.1, 0.1)),
    k: 10,
    dtw_window: 12,
    round: (128, 24, 1),
    batch_pass: Some(128),
    prune_ratio: (true, 0.9),
};

pub const SCAN: NodeSpec = NodeSpec {
    name: "node_scan",
    series: 250_000,
    len: 256,
    ed: (16, Noise::White),
    knn: (8, Noise::White),
    dtw: (4, Noise::Graded(0.4, 0.4)),
    k: 10,
    dtw_window: 12,
    round: (16, 6, 1),
    batch_pass: None,
    prune_ratio: (false, 0.1),
};

fn make_queries(data: &DatasetBuffer, (n, noise): (usize, Noise), seed: u64) -> DatasetBuffer {
    match noise {
        Noise::Graded(lo, hi) => graded_queries(data, n, lo, hi, seed),
        Noise::White => white_queries(n, data.series_len(), seed),
    }
}

pub fn run(ctx: &mut Ctx, spec: &NodeSpec) -> Record {
    let mut ledger = Ledger::default();
    let mut metrics = Metrics::default();
    let params = SearchParams::new(WORKER_THREADS);

    // Inputs, all from the seed.
    let ((data, pools), gen_s) = timed(|| {
        let data = walk_collection(
            Walk::Random,
            spec.series,
            spec.len,
            sub_seed(ctx.seed, 1),
            BENCH_THREADS,
        );
        let pools = [
            make_queries(&data, spec.ed, sub_seed(ctx.seed, 2)),
            make_queries(&data, spec.knn, sub_seed(ctx.seed, 3)),
            make_queries(&data, spec.dtw, sub_seed(ctx.seed, 4)),
        ];
        (data, pools)
    });
    let input_fnv64 = pools
        .iter()
        .fold(fnv64(FNV_OFFSET, data.raw()), |h, p| fnv64(h, p.raw()));
    let kinds = [Kind::Ed, Kind::Knn(spec.k), Kind::Dtw(spec.dtw_window)];
    // Every distinct query, ED pool first; `starts[kind]` is where a
    // kind's pool begins.
    let queries: Vec<Query> = pools
        .iter()
        .zip(kinds)
        .flat_map(|(pool, kind)| {
            (0..pool.num_series()).map(move |i| Query {
                kind,
                data: pool.series(i),
            })
        })
        .collect();
    let starts = [0, spec.ed.0, spec.ed.0 + spec.knn.0];
    let counts = [spec.ed.0, spec.knn.0, spec.dtw.0];

    // Set-up: build, spin up the engine, and answer an eighth of each
    // pool so lazy allocation is done before anything is timed.
    let root = ctx.tracer.open("run", NO_PARENT, NO_REQUEST);
    let setup_span = ctx.tracer.open("setup", root, NO_REQUEST);
    let repeats = if ctx.traced() { 1 } else { SETUP_REPEATS };
    let ((index, engine), setup_s) = repeat_setup(repeats, || {
        let index = Arc::new(Index::build(
            data.clone(),
            IndexConfig::new(spec.len),
            WORKER_THREADS,
        ));
        let engine = BatchEngine::new(Arc::clone(&index), WORKER_THREADS);
        for kind in 0..3 {
            for q in &queries[starts[kind]..starts[kind] + counts[kind].div_ceil(8)] {
                ask_engine(&engine, &params, q);
            }
        }
        (index, engine)
    });
    ctx.tracer.close(setup_span);

    // Reference: every distinct query once, checked by the scalar scan.
    let mut reference: Vec<Reported> = queries
        .iter()
        .map(|q| ask_engine(&engine, &params, q).0)
        .collect();
    let reference_s = check_reference(ctx, &mut ledger, &data, &queries, &mut reference);

    // One-at-a-time phase: rounds of ED, k-NN and DTW queries until the
    // time is up, the first round always in full. When tracing, the
    // second half of the phase records spans and the first does not.
    let single_s = if spec.batch_pass.is_some() {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    // ED and k-NN latencies, and their statistics untraced and traced.
    let mut lat = [Latencies::default(), Latencies::default()];
    let mut sums = [StatsSum::default(), StatsSum::default()];
    let mut round_qps = Vec::new();
    let mut dtw_samples = Vec::new();
    let mut cursor = [0usize; 3];
    let per_round = [spec.round.0, spec.round.1, spec.round.2];
    let phase = Instant::now();
    let mut first_round = true;
    'rounds: loop {
        let (mut asked, mut busy_s) = (0usize, 0.0f64);
        for kind in 0..3 {
            for _ in 0..per_round[kind] {
                let elapsed = phase.elapsed().as_secs_f64();
                if !first_round && elapsed >= single_s {
                    break 'rounds;
                }
                let tracing = ctx.traced() && elapsed >= single_s / 2.0;
                let qi = starts[kind] + cursor[kind] % counts[kind];
                cursor[kind] += 1;
                let start_ns = ctx.tracer.now_ns();
                let (answer, stats, wall) = ask_engine(&engine, &params, &queries[qi]);
                ledger.answer(spec.name, qi, &answer, &reference[qi]);
                if kind == 2 {
                    dtw_samples.push((qi, wall * 1e3));
                } else {
                    lat[kind].push(wall * 1e3);
                    sums[tracing as usize].add(&stats, wall);
                    asked += 1;
                    busy_s += wall;
                }
                if tracing {
                    layers::record_query_spans(
                        &mut ctx.tracer,
                        root,
                        qi as u64,
                        start_ns,
                        wall,
                        &stats,
                    );
                }
            }
        }
        round_qps.push(asked as f64 / busy_s);
        first_round = false;
    }

    // Throughput phase: whole `run_batch` passes over slices of the ED pool.
    if let Some(pass) = spec.batch_pass.filter(|_| !ctx.traced()) {
        round_qps.clear();
        let order: Vec<usize> = (0..pass).collect();
        let phase = Instant::now();
        let mut at = 0;
        while round_qps.is_empty() || phase.elapsed().as_secs_f64() < ctx.seconds - single_s {
            let ids: Vec<usize> = (0..pass).map(|i| (at + i) % spec.ed.0).collect();
            at += pass;
            let batch: Vec<BatchQuery> = ids
                .iter()
                .map(|&i| BatchQuery::new(queries[i].data, QueryKind::Exact))
                .collect();
            let out = engine.run_batch(&batch, &order, &params);
            round_qps.push(pass as f64 / out.wall.as_secs_f64());
            for (&qi, item) in ids.iter().zip(&out.items) {
                ledger.answer(
                    spec.name,
                    qi,
                    &Reported::from_answer(&item.answer),
                    &reference[qi],
                );
            }
        }
    }

    // The workload must exercise what it is named for.
    let all = StatsSum::merged(&sums[0], &sums[1]);
    let prune = all.prune_ratio(spec.series);
    let (at_least, limit) = spec.prune_ratio;
    if (at_least && prune < limit) || (!at_least && prune > limit) {
        ledger.fail(format!(
            "shape: prune ratio {prune:.4} is on the wrong side of {limit}"
        ));
    }

    metrics.put(
        "dtw_lat_p50_ms",
        "ms",
        median_of_query_medians(&dtw_samples),
        dtw_samples.len(),
    );
    if ctx.traced() {
        let gap = worst_self_time_gap(ctx.tracer.spans(), "query");
        if gap > 0.05 {
            ledger.fail(format!(
                "trace: a query's self times miss its span by {:.1} %",
                gap * 100.0
            ));
        }
        all.put(&mut metrics, spec.series);
        let overhead = trace_overhead(sums[0].n_and_wall(), sums[1].n_and_wall());
        metrics.put("bench.trace_overhead_frac", "ratio", overhead, sums[1].n());
        layers::index_metrics(&mut metrics, &index);
        layers::probes(
            &mut metrics,
            &mut ctx.tracer,
            root,
            &data,
            &index,
            &pools[0],
            spec.dtw_window,
            true,
        );
    } else {
        metrics.put("qps", "queries/s", median(&round_qps), round_qps.len());
        for (kind, name) in ["lat_p50_ms", "knn_lat_p50_ms"].into_iter().enumerate() {
            metrics.put(
                name,
                "ms",
                lat[kind].p(50.0).expect("the first round asks every kind"),
                lat[kind].len(),
            );
        }
        let n = lat[0].len();
        if !supports(n, 90.0) {
            ledger.fail(format!("{n} ED latencies are too few for p90; run longer"));
        }
        metrics.put("lat_p90_ms", "ms", lat[0].nearest_rank(90.0), n);
        if let Some(v) = lat[0].p(99.0) {
            metrics.put("lat_p99_ms", "ms", v, n);
        }
        put_common(&mut metrics, &ledger, setup_s, index.size_bytes());
        metrics.put("core.index.prune_ratio", "ratio", prune, all.n());
    }
    ctx.tracer.close(root);
    record(
        ctx,
        spec.name,
        input_fnv64,
        ledger,
        metrics,
        gen_s,
        reference_s,
    )
}

#[cfg(test)]
pub const TINY_PRUNED: NodeSpec = NodeSpec {
    name: "node_pruned",
    series: 3000,
    len: 64,
    ed: (128, Noise::Graded(0.02, 0.8)),
    knn: (8, Noise::Graded(0.02, 0.8)),
    dtw: (2, Noise::Graded(0.1, 0.1)),
    k: 10,
    dtw_window: 6,
    round: (128, 4, 1),
    batch_pass: Some(32),
    prune_ratio: (true, 0.0),
};

#[cfg(test)]
pub const TINY_SCAN: NodeSpec = NodeSpec {
    name: "node_scan",
    series: 2000,
    len: 64,
    ed: (16, Noise::White),
    knn: (8, Noise::White),
    dtw: (2, Noise::Graded(0.4, 0.4)),
    k: 10,
    dtw_window: 6,
    round: (112, 4, 1),
    batch_pass: None,
    prune_ratio: (false, 1.0),
};
