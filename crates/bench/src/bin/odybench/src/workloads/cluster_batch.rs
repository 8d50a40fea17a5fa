//! `cluster_batch` — the paper's headline measure: the time a cluster
//! takes to answer a query batch. Two nodes of one thread each, the
//! library's default configuration (FULL replication, PREDICT-DN,
//! work-stealing, BSF sharing, lanes, adaptive widths), 500 000 × 128
//! noisy walks, 15-query batches of which 30 % of all queries are white
//! noise. Small skewed batches make the scheduling order, the steal
//! protocol and the cost predictor decide when the slower node ends;
//! what one query costs is what it costs in the node workloads.
//!
//! After the batches, a few k-NN and DTW requests go one at a time
//! through the service front-end over the same cluster, so those two
//! latencies are measured on a replicated cluster too.

use crate::gen::{fnv64, graded_queries, skewed_batches, walk_collection, Walk, FNV_OFFSET};
use crate::harness::{
    check_reference, one_at_a_time, put_common, record, repeat_setup, single_node_reference, timed,
    trace_overhead, Ctx, Ledger, BENCH_THREADS, SETUP_REPEATS,
};
use crate::layers;
use crate::machine::WORKER_THREADS;
use crate::report::{Metrics, Record};
use crate::rng::sub_seed;
use crate::stats::{median, median_of_query_medians, supports, Latencies};
use crate::trace::{NO_PARENT, NO_REQUEST};
use crate::verify::{Kind, Query, Reported};
use odyssey_cluster::{BatchReport, ClusterConfig, OdysseyCluster};
use odyssey_sched::admission::predicted_makespan;
use odyssey_sched::{mape, CostModel, SpeedupCurve};
use odyssey_service::{QueryService, ServiceConfig};
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct ClusterSpec {
    pub series: usize,
    pub len: usize,
    /// Distinct batches per pass, queries per batch, and the share of
    /// all queries of a pass that are white noise.
    pub batches: usize,
    pub batch_size: usize,
    pub hard_share: f64,
    /// Distinct k-NN and DTW queries of the closing one-at-a-time phase,
    /// which takes this share of the run.
    pub knn: usize,
    pub dtw: usize,
    pub side_share: f64,
}

pub const FULL: ClusterSpec = ClusterSpec {
    series: 500_000,
    len: 128,
    batches: 16,
    batch_size: 15,
    hard_share: 0.3,
    knn: 192,
    dtw: 4,
    side_share: 0.2,
};

const NODES: usize = 2;
const EASY_NOISE: f32 = 0.1;
const K: usize = 10;
const DTW_WINDOW: usize = 12;

/// Per-batch counters a traced run keeps.
#[derive(Debug, Default)]
struct BatchSums {
    batches: usize,
    queries: usize,
    steals_attempted: u64,
    steals_successful: u64,
    bsf_broadcasts: u64,
    reroutes: u64,
    final_epoch: u64,
    /// Work units of the first pass alone: the same batches on the same
    /// cluster, so unlike the other sums they do not depend on how many
    /// passes the run had time for.
    first_pass_makespan_units: u64,
    first_pass_total_units: u64,
    node_imbalance: f64,
    pred_err: f64,
}

impl BatchSums {
    fn add(&mut self, r: &BatchReport, first_pass: bool) {
        if first_pass {
            self.first_pass_makespan_units += r.makespan_units();
            self.first_pass_total_units += r.total_units();
        }
        self.batches += 1;
        self.queries += r.answers.len();
        self.steals_attempted += r.steals_attempted;
        self.steals_successful += r.steals_successful;
        self.bsf_broadcasts += r.bsf_broadcasts;
        self.reroutes += r.reroutes;
        self.final_epoch = self.final_epoch.max(r.final_epoch);
        let mean = r.total_units() as f64 / r.per_node_units.len() as f64;
        self.node_imbalance += r.makespan_units() as f64 / mean.max(1.0);
    }
}

pub fn run(ctx: &mut Ctx, spec: &ClusterSpec) -> Record {
    let mut ledger = Ledger::default();
    let mut metrics = Metrics::default();

    let ((data, batches, knn_pool, dtw_pool), gen_s) = timed(|| {
        let data = walk_collection(
            Walk::Noisy,
            spec.series,
            spec.len,
            sub_seed(ctx.seed, 1),
            BENCH_THREADS,
        );
        let batches = skewed_batches(
            &data,
            spec.batches,
            spec.batch_size,
            spec.hard_share,
            EASY_NOISE,
            sub_seed(ctx.seed, 2),
        );
        let knn = graded_queries(&data, spec.knn, 0.02, 0.6, sub_seed(ctx.seed, 3));
        let dtw = graded_queries(&data, spec.dtw, 0.1, 0.1, sub_seed(ctx.seed, 4));
        (data, batches, knn, dtw)
    });
    let mut input_fnv64 = batches
        .iter()
        .fold(fnv64(FNV_OFFSET, data.raw()), |h, b| fnv64(h, b.raw()));
    input_fnv64 = fnv64(fnv64(input_fnv64, knn_pool.raw()), dtw_pool.raw());
    // Every distinct query: the batches' in order, then k-NN, then DTW.
    let n_batch_queries = spec.batches * spec.batch_size;
    let mut queries: Vec<Query> = batches
        .iter()
        .flat_map(|b| {
            (0..b.num_series()).map(move |i| Query {
                kind: Kind::Ed,
                data: b.series(i),
            })
        })
        .collect();
    queries.extend((0..spec.knn).map(|i| Query {
        kind: Kind::Knn(K),
        data: knn_pool.series(i),
    }));
    queries.extend((0..spec.dtw).map(|i| Query {
        kind: Kind::Dtw(DTW_WINDOW),
        data: dtw_pool.series(i),
    }));
    let side = &queries[n_batch_queries..];

    // Set-up: partition, build both nodes, and one warm-up batch, which
    // also absorbs the lane-width calibration.
    let root = ctx.tracer.open("run", NO_PARENT, NO_REQUEST);
    let setup_span = ctx.tracer.open("setup", root, NO_REQUEST);
    let repeats = if ctx.traced() { 1 } else { SETUP_REPEATS };
    let (cluster, setup_s) = repeat_setup(repeats, || {
        let cluster = OdysseyCluster::build(
            &data,
            ClusterConfig::new(NODES).with_threads_per_node(WORKER_THREADS / NODES),
        );
        cluster.answer_batch(&batches[0]);
        cluster
    });
    ctx.tracer.close(setup_span);

    let mut reference = single_node_reference(&cluster, &queries);
    let reference_s = check_reference(ctx, &mut ledger, &data, &queries, &mut reference);

    // Batches, pass after pass until the time is up; the first pass
    // always in full. When tracing, the second half records spans.
    let batch_s = ctx.seconds * (1.0 - spec.side_share);
    let mut walls = Latencies::default();
    let mut pass_qps = Vec::new();
    let mut sums = BatchSums::default();
    let mut halves = [(0usize, 0.0f64); 2];
    let mut last_report = None;
    let phase = Instant::now();
    'passes: loop {
        let pass_start = Instant::now();
        for (b, batch) in batches.iter().enumerate() {
            let elapsed = phase.elapsed().as_secs_f64();
            if !pass_qps.is_empty() && elapsed >= batch_s {
                break 'passes;
            }
            let tracing = ctx.traced() && elapsed >= batch_s / 2.0;
            let span = if tracing {
                ctx.tracer.open("batch", root, b as u64)
            } else {
                NO_PARENT
            };
            let (report, wall) = timed(|| cluster.answer_batch(batch));
            ctx.tracer.close(span);
            walls.push(wall * 1e3);
            halves[tracing as usize].0 += spec.batch_size;
            halves[tracing as usize].1 += wall;
            for (i, answer) in report.answers.iter().enumerate() {
                let qi = b * spec.batch_size + i;
                let degraded = !report.coverage[i].is_complete();
                let got = Reported::from_nn(answer);
                ledger.served("cluster_batch query", qi, &got, degraded, &reference[qi]);
            }
            sums.add(&report, pass_qps.is_empty());
            if tracing {
                sums.pred_err += makespan_error(&cluster, &report, wall);
            }
            last_report = Some(report);
        }
        pass_qps.push(n_batch_queries as f64 / pass_start.elapsed().as_secs_f64());
    }
    if sums.steals_successful == 0 {
        ledger.fail(
            "shape: no steal request succeeded, so the batches never exercised work-stealing"
                .to_string(),
        );
    }

    // k-NN and DTW, one request at a time through the service front-end.
    let side_s = ctx.seconds * spec.side_share;
    let ((mut knn_lat, dtw_samples), _) = QueryService::new(ServiceConfig::default())
        .serve_cluster(&cluster, |client| {
            let what = "cluster_batch one-at-a-time query";
            one_at_a_time(
                client,
                &mut ledger,
                what,
                side,
                &reference[n_batch_queries..],
                side_s,
            )
        });
    metrics.put(
        "dtw_lat_p50_ms",
        "ms",
        median_of_query_medians(&dtw_samples),
        dtw_samples.len(),
    );

    let index_bytes = cluster.build_report().total_index_bytes();
    if ctx.traced() {
        let n = sums.batches.max(1) as f64;
        metrics.put(
            "cluster.stealing.attempted",
            "count",
            sums.steals_attempted as f64,
            sums.batches,
        );
        metrics.put(
            "cluster.stealing.successful",
            "count",
            sums.steals_successful as f64,
            sums.batches,
        );
        let hit = sums.steals_successful as f64 / sums.steals_attempted.max(1) as f64;
        metrics.put(
            "cluster.stealing.hit_ratio",
            "ratio",
            hit,
            sums.steals_attempted as usize,
        );
        let per_query = sums.bsf_broadcasts as f64 / sums.queries.max(1) as f64;
        metrics.put(
            "cluster.boards.bsf_broadcasts_per_query",
            "count",
            per_query,
            sums.queries,
        );
        metrics.put(
            "cluster.runtime.makespan_units",
            "count",
            sums.first_pass_makespan_units as f64,
            spec.batches,
        );
        metrics.put(
            "cluster.runtime.total_units",
            "count",
            sums.first_pass_total_units as f64,
            spec.batches,
        );
        metrics.put(
            "cluster.runtime.node_imbalance",
            "ratio",
            sums.node_imbalance / n,
            sums.batches,
        );
        metrics.put(
            "cluster.shard_map.reroutes",
            "count",
            sums.reroutes as f64,
            sums.batches,
        );
        metrics.put(
            "cluster.shard_map.final_epoch",
            "count",
            sums.final_epoch as f64,
            sums.batches,
        );
        metrics.put(
            "cluster.runtime.batch_p50_ms",
            "ms",
            walls.nearest_rank(50.0),
            walls.len(),
        );
        metrics.put(
            "cluster.runtime.batch_p90_ms",
            "ms",
            walls.nearest_rank(90.0),
            walls.len(),
        );
        metrics.put("cluster.runtime.build_s", "s", setup_s, 1);
        let (untraced, traced) = (halves[0], halves[1]);
        let overhead = trace_overhead(untraced, traced);
        metrics.put("bench.trace_overhead_frac", "ratio", overhead, traced.0);

        // What stealing buys: the same batches with it switched off.
        let span = ctx.tracer.open("probe.cluster.stealing", root, NO_REQUEST);
        let pass = |c: &OdysseyCluster| {
            timed(|| batches.iter().take(8).for_each(|b| drop(c.answer_batch(b)))).1
        };
        let without = cluster.reconfigured(|c| c.with_work_stealing(false));
        without.answer_batch(&batches[0]);
        let (off_s, on_s) = (pass(&without), pass(&cluster));
        metrics.put(
            "cluster.stealing.gain",
            "ratio",
            off_s / on_s,
            8 * spec.batch_size,
        );
        ctx.tracer.close(span);

        // The predictor the batches trained, and the planner on its output.
        let span = ctx.tracer.open("probe.sched", root, NO_REQUEST);
        let feedback = cluster.feedback();
        let samples = feedback.store().snapshot();
        metrics.put(
            "sched.cost_mape",
            "%",
            mape(&**feedback, &samples).unwrap_or(0.0) * 100.0,
            samples.len(),
        );
        metrics.put(
            "sched.refits",
            "count",
            feedback.refits() as f64,
            feedback.samples(),
        );
        let traced_batches = (traced.0 / spec.batch_size).max(1);
        metrics.put(
            "sched.makespan_pred_err",
            "ratio",
            sums.pred_err / traced_batches as f64,
            traced_batches,
        );
        let estimates = estimated_costs(&cluster, &last_report.expect("at least one pass ran"));
        let linear = SpeedupCurve::linear();
        let curve = cluster.calibrated_curve().unwrap_or(&linear);
        let plan_s = layers::plan_seconds(&estimates, WORKER_THREADS / NODES, curve);
        metrics.put("sched.plan_us", "us", plan_s * 1e6, estimates.len());
        ctx.tracer.close(span);

        let index = cluster.chunk_index(0);
        layers::index_metrics(&mut metrics, index);
        layers::engine_stats(&mut metrics, index, &batches[0]);
        layers::probes(
            &mut metrics,
            &mut ctx.tracer,
            root,
            &data,
            index,
            &batches[0],
            DTW_WINDOW,
            false,
        );
    } else {
        metrics.put("qps", "queries/s", median(&pass_qps), pass_qps.len());
        let n = walls.len();
        metrics.put("lat_p50_ms", "ms", walls.nearest_rank(50.0), n);
        if !supports(n, 90.0) {
            // A batch takes ~170 ms, so a 12 s run times ~60 of them.
            ledger.warn(format!(
                "lat_p90_ms rests on {n} batches, fewer than ten beyond it"
            ));
        }
        metrics.put("lat_p90_ms", "ms", walls.nearest_rank(90.0), n);
        metrics.put(
            "knn_lat_p50_ms",
            "ms",
            knn_lat.nearest_rank(50.0),
            knn_lat.len(),
        );
        put_common(&mut metrics, &ledger, setup_s, index_bytes);
        metrics.put(
            "cluster.stealing.successful",
            "count",
            sums.steals_successful as f64,
            sums.batches,
        );
    }
    ctx.tracer.close(root);
    record(
        ctx,
        "cluster_batch",
        input_fnv64,
        ledger,
        metrics,
        gen_s,
        reference_s,
    )
}

/// What the cluster's predictor expects each query of a batch to cost.
fn estimated_costs(cluster: &OdysseyCluster, report: &BatchReport) -> Vec<f64> {
    let feedback = cluster.feedback();
    report
        .per_query_initial_bsf
        .iter()
        .map(|&b| feedback.estimate(b))
        .collect()
}

/// How far the makespan the planner would predict for this batch (LPT of
/// the predictor's estimates over one lane per node) is from the wall
/// time the batch took, as a share of the wall time.
fn makespan_error(cluster: &OdysseyCluster, report: &BatchReport, wall_s: f64) -> f64 {
    let mut costs = estimated_costs(cluster, report);
    costs.sort_by(|a, b| b.total_cmp(a));
    let linear = SpeedupCurve::linear();
    let predicted = predicted_makespan(
        &costs,
        &[1; NODES],
        cluster.calibrated_curve().unwrap_or(&linear),
    );
    (predicted - wall_s).abs() / wall_s
}

#[cfg(test)]
pub const TINY: ClusterSpec = ClusterSpec {
    series: 4000,
    len: 64,
    batches: 4,
    batch_size: 15,
    hard_share: 0.3,
    knn: 4,
    dtw: 2,
    side_share: 0.2,
};
