//! Per-layer measurements of the traced run. This is the only module
//! that calls below the stable facade: it times public functions of
//! single layers over the workload's own index and reads the report
//! structs those calls return. Layer names are module names.

use crate::harness::timed;
use crate::machine::WORKER_THREADS;
use crate::report::Metrics;
use crate::stats::median;
use crate::trace::{Tracer, NO_REQUEST};
use odyssey_core::distance::{
    dtw_banded, euclidean_sq, euclidean_sq_early_abandon, keogh_envelope, lb_keogh_sq,
};
use odyssey_core::index::Index;
use odyssey_core::persist::{load_index, save_index};
use odyssey_core::search::engine::{BatchEngine, BatchQuery, QueryKind};
use odyssey_core::search::exact::{SearchParams, SearchStats};
use odyssey_core::search::kernel::{EdKernel, QueryKernel};
use odyssey_core::search::multiq::uniform_widths;
use odyssey_core::series::DatasetBuffer;
use odyssey_partition::PartitioningScheme;
use odyssey_sched::admission::{
    plan_dispatch_widths_adaptive, predicted_makespan, AdmissionConfig,
};
use odyssey_sched::scheduler::dynamic_order;
use odyssey_sched::{mape, CostModel, OnlineCostModel, SpeedupCurve};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Series a kernel probe visits, spread evenly over the scan layout.
const KERNEL_SAMPLE: usize = 4096;
/// Queries of the lower-bound tightness probe.
const TIGHTNESS_QUERIES: usize = 32;
/// Queries of the width-speedup and lane probes.
const WIDTH_QUERIES: usize = 64;
const LANE_QUERIES: usize = 128;

/// Sums of the statistics `BatchEngine` calls returned.
#[derive(Debug, Clone, Default)]
pub struct StatsSum {
    n: usize,
    real_dist: u64,
    lb_series: u64,
    lb_node: u64,
    leaves: u64,
    pq_count: u64,
    pq_medians: Vec<f64>,
    traversal_s: f64,
    processing_s: f64,
    wall_s: f64,
}

impl StatsSum {
    pub fn add(&mut self, s: &SearchStats, wall_s: f64) {
        self.n += 1;
        self.real_dist += s.real_distance_computations;
        self.lb_series += s.lb_series_computations;
        self.lb_node += s.lb_node_computations;
        self.leaves += s.leaves_collected;
        self.pq_count += s.pq_count as u64;
        self.pq_medians.push(s.pq_size_median as f64);
        self.traversal_s += s.traversal_time.as_secs_f64();
        self.processing_s += s.processing_time.as_secs_f64();
        self.wall_s += wall_s;
    }

    pub fn merged(a: &StatsSum, b: &StatsSum) -> StatsSum {
        let mut m = a.clone();
        m.n += b.n;
        m.real_dist += b.real_dist;
        m.lb_series += b.lb_series;
        m.lb_node += b.lb_node;
        m.leaves += b.leaves;
        m.pq_count += b.pq_count;
        m.pq_medians.extend_from_slice(&b.pq_medians);
        m.traversal_s += b.traversal_s;
        m.processing_s += b.processing_s;
        m.wall_s += b.wall_s;
        m
    }

    pub fn n(&self) -> usize {
        self.n
    }

    /// Queries and the wall seconds they took together.
    pub fn n_and_wall(&self) -> (usize, f64) {
        (self.n, self.wall_s)
    }

    /// Share of the collection spared a real distance, per query.
    pub fn prune_ratio(&self, n_series: usize) -> f64 {
        1.0 - self.real_dist as f64 / (self.n.max(1) * n_series) as f64
    }

    pub fn put(&self, m: &mut Metrics, n_series: usize) {
        let n = self.n.max(1) as f64;
        m.put(
            "core.distance.real_dist_per_query",
            "count",
            self.real_dist as f64 / n,
            self.n,
        );
        m.put(
            "core.sax.lb_series_per_query",
            "count",
            self.lb_series as f64 / n,
            self.n,
        );
        m.put(
            "core.index.lb_node_per_query",
            "count",
            self.lb_node as f64 / n,
            self.n,
        );
        m.put(
            "core.index.leaves_per_query",
            "count",
            self.leaves as f64 / n,
            self.n,
        );
        m.put(
            "core.index.prune_ratio",
            "ratio",
            self.prune_ratio(n_series),
            self.n,
        );
        m.put(
            "core.search.traversal_us",
            "us",
            self.traversal_s / n * 1e6,
            self.n,
        );
        m.put(
            "core.search.processing_us",
            "us",
            self.processing_s / n * 1e6,
            self.n,
        );
        let overhead = (self.wall_s - self.traversal_s - self.processing_s) / n;
        m.put("core.search.overhead_us", "us", overhead * 1e6, self.n);
        m.put(
            "core.search.pq_count",
            "count",
            self.pq_count as f64 / n,
            self.n,
        );
        m.put(
            "core.search.pq_size_median",
            "count",
            median(&self.pq_medians),
            self.n,
        );
    }
}

/// Records one query as a span with the two phases its statistics
/// reported laid end to end at the span's tail; the span's self time is
/// then the call's overhead (seeding, dispatch, synchronisation).
pub fn record_query_spans(
    tracer: &mut Tracer,
    parent: u32,
    request: u64,
    start_ns: u64,
    wall_s: f64,
    s: &SearchStats,
) {
    let end_ns = start_ns + (wall_s * 1e9) as u64;
    let trav = s.traversal_time.as_nanos() as u64;
    let proc = s.processing_time.as_nanos() as u64;
    let span = tracer.record("query", parent, request, start_ns, end_ns);
    let proc_start = end_ns.saturating_sub(proc).max(start_ns);
    let trav_start = proc_start.saturating_sub(trav).max(start_ns);
    tracer.record(
        "core.search.traversal",
        span,
        request,
        trav_start,
        proc_start,
    );
    tracer.record("core.search.processing", span, request, proc_start, end_ns);
}

/// Shape and cost of the built index.
pub fn index_metrics(m: &mut Metrics, index: &Index) {
    let n = index.num_series();
    let leaves = index.leaf_count();
    m.put("core.tree.roots", "count", index.forest().len() as f64, 1);
    m.put("core.tree.leaves", "count", leaves as f64, 1);
    let fill = n as f64 / leaves.max(1) as f64 / index.config().leaf_capacity as f64;
    m.put("core.tree.leaf_fill", "ratio", fill, leaves);
    let times = index.build_times();
    m.put(
        "core.index.build_buffer_s",
        "s",
        times.buffer_time.as_secs_f64(),
        1,
    );
    m.put(
        "core.index.build_tree_s",
        "s",
        times.tree_time.as_secs_f64(),
        1,
    );
    m.put(
        "core.index.bytes_per_series",
        "bytes",
        index.size_bytes() as f64 / n.max(1) as f64,
        n,
    );
}

/// Median over `repeats` timings of `f`, in seconds.
fn median_secs(repeats: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..repeats).map(|_| timed(&mut f).1).collect();
    median(&times)
}

/// Times the layers below the engine on `index`, with queries from
/// `pool`: distance kernels, SAX lower bounds, approximate search,
/// persistence, engine spin-up and calibration, width scaling, lanes,
/// the planner and the cost predictor, and the partitioner on `data`.
///
/// A workload whose own run trains the cluster's predictor reports
/// `sched.*` from that and passes `with_sched = false`.
#[allow(clippy::too_many_arguments)]
pub fn probes(
    m: &mut Metrics,
    tracer: &mut Tracer,
    parent: u32,
    data: &DatasetBuffer,
    index: &Arc<Index>,
    pool: &DatasetBuffer,
    dtw_window: usize,
    with_sched: bool,
) {
    let mut probe = |name: &'static str, tracer: &mut Tracer, f: &mut dyn FnMut(&mut Metrics)| {
        let span = tracer.open(name, parent, NO_REQUEST);
        f(m);
        tracer.close(span);
    };
    probe("probe.core.distance", tracer, &mut |m| {
        distance_probe(m, index, pool, dtw_window)
    });
    probe("probe.core.sax", tracer, &mut |m| sax_probe(m, index, pool));
    probe("probe.core.persist", tracer, &mut |m| {
        persist_probe(m, index)
    });
    probe("probe.core.search", tracer, &mut |m| {
        engine_probe(m, index, pool)
    });
    probe("probe.core.multiq", tracer, &mut |m| {
        lane_probe(m, index, pool, with_sched)
    });
    probe("probe.partition", tracer, &mut |m| {
        let (partition, secs) = timed(|| PartitioningScheme::EquallySplit.apply(data, 2));
        m.put("partition.split_s", "s", secs, 1);
        m.put(
            "partition.chunk_imbalance",
            "ratio",
            partition.imbalance(),
            2,
        );
    });
}

/// Positions spread evenly over the scan layout.
fn sample_positions(index: &Index) -> Vec<usize> {
    let n = index.num_series();
    let count = KERNEL_SAMPLE.min(n);
    (0..count).map(|i| i * n / count).collect()
}

/// A run of neighbouring positions from the middle of the layout: what a
/// kernel meets when it drains a leaf, and small enough to stay in cache
/// over the repeats, so the kernel is timed and not the memory.
fn block_positions(index: &Index) -> std::ops::Range<usize> {
    let n = index.num_series();
    let count = KERNEL_SAMPLE.min(n);
    (n - count) / 2..(n - count) / 2 + count
}

fn distance_probe(m: &mut Metrics, index: &Index, pool: &DatasetBuffer, dtw_window: usize) {
    let layout = index.layout();
    let positions = block_positions(index);
    let queries: Vec<&[f32]> = (0..pool.num_series().min(4))
        .map(|i| pool.series(i))
        .collect();
    let per = (queries.len() * positions.len()) as f64;
    let none = f64::INFINITY;
    let ed = median_secs(5, || {
        for q in &queries {
            for p in positions.clone() {
                black_box(euclidean_sq_early_abandon(
                    black_box(q),
                    layout.series(p),
                    none,
                ));
            }
        }
    });
    m.put(
        "core.distance.ed_ns_per_series",
        "ns",
        ed / per * 1e9,
        per as usize,
    );
    let envelopes: Vec<_> = queries
        .iter()
        .map(|q| keogh_envelope(q, dtw_window))
        .collect();
    let keogh = median_secs(5, || {
        for env in &envelopes {
            for p in positions.clone() {
                black_box(lb_keogh_sq(black_box(env), layout.series(p), none));
            }
        }
    });
    m.put(
        "core.distance.lb_keogh_ns_per_series",
        "ns",
        keogh / per * 1e9,
        per as usize,
    );
    let dtw = median_secs(3, || {
        for q in &queries {
            for p in positions.clone() {
                black_box(dtw_banded(black_box(q), layout.series(p), dtw_window, none));
            }
        }
    });
    m.put(
        "core.distance.dtw_ns_per_series",
        "ns",
        dtw / per * 1e9,
        per as usize,
    );
}

fn sax_probe(m: &mut Metrics, index: &Index, pool: &DatasetBuffer) {
    let layout = index.layout();
    let segments = index.config().segments;
    let n_q = pool.num_series().min(64);
    let builds: Vec<f64> = (0..n_q)
        .map(|i| timed(|| black_box(EdKernel::new(pool.series(i), segments))).1)
        .collect();
    m.put("core.sax.table_build_us", "us", median(&builds) * 1e6, n_q);

    // Lower bounds leaf by leaf, the way the queue-processing phase
    // sweeps them, over the first leaves holding ~64k series.
    let mut leaves = Vec::new();
    let mut covered = 0;
    for tree in index.forest() {
        tree.node.for_each_leaf(&mut |leaf| {
            if covered < 65_536 {
                covered += leaf.slice.len();
                leaves.push(leaf.slice.range());
            }
        });
        if covered >= 65_536 {
            break;
        }
    }
    let kernel = EdKernel::new(pool.series(0), segments);
    let mut out = vec![0.0f64; leaves.iter().map(|r| r.len()).max().unwrap_or(0)];
    let sweep = median_secs(5, || {
        for r in &leaves {
            kernel.lb_block_at(layout, r.clone(), &mut out[..r.len()]);
        }
        black_box(&out);
    });
    m.put(
        "core.sax.lb_series_ns",
        "ns",
        sweep / covered.max(1) as f64 * 1e9,
        covered,
    );

    let positions = sample_positions(index);
    let n_t = pool.num_series().min(TIGHTNESS_QUERIES);
    let mut sum = 0.0;
    for i in 0..n_t {
        let kernel = EdKernel::new(pool.series(i), segments);
        for &p in &positions {
            let truth = euclidean_sq(pool.series(i), layout.series(p));
            if truth > 0.0 {
                sum += (kernel.series_lb_sq(layout.sax(p)) / truth).sqrt();
            }
        }
    }
    m.put(
        "core.sax.lb_tightness",
        "ratio",
        sum / (n_t * positions.len()) as f64,
        n_t * positions.len(),
    );

    let approx: Vec<f64> = (0..n_q)
        .map(|i| timed(|| black_box(index.approx_search(pool.series(i)))).1)
        .collect();
    m.put("core.index.approx_us", "us", median(&approx) * 1e6, n_q);
}

fn persist_probe(m: &mut Metrics, index: &Index) {
    let mut file = Vec::new();
    let ((), save_s) = timed(|| save_index(index, &mut file).expect("write to memory"));
    let (loaded, load_s) =
        timed(|| load_index(&mut file.as_slice()).expect("read back what was written"));
    assert_eq!(loaded.num_series(), index.num_series());
    m.put("core.persist.save_s", "s", save_s, 1);
    m.put("core.persist.load_s", "s", load_s, 1);
    m.put(
        "core.persist.file_mib",
        "MiB",
        crate::harness::mib(file.len()),
        1,
    );
}

fn ed_wall(engine: &BatchEngine, pool: &DatasetBuffer, count: usize) -> f64 {
    let params = SearchParams::new(engine.n_threads());
    timed(|| {
        for i in 0..count {
            black_box(engine.exact(pool.series(i % pool.num_series()), &params));
        }
    })
    .1
}

fn engine_probe(m: &mut Metrics, index: &Arc<Index>, pool: &DatasetBuffer) {
    let spinups: Vec<f64> = (0..3)
        .map(|_| timed(|| BatchEngine::new(Arc::clone(index), WORKER_THREADS)).1)
        .collect();
    m.put(
        "core.search.engine_spinup_ms",
        "ms",
        median(&spinups) * 1e3,
        3,
    );
    let engine = BatchEngine::new(Arc::clone(index), WORKER_THREADS);
    let (_, calibrate_s) = timed(|| engine.calibrate().len());
    m.put("core.search.calibrate_ms", "ms", calibrate_s * 1e3, 1);
    let narrow = BatchEngine::new(Arc::clone(index), 1);
    ed_wall(&engine, pool, 8);
    ed_wall(&narrow, pool, 8);
    let wide_s = ed_wall(&engine, pool, WIDTH_QUERIES);
    let narrow_s = ed_wall(&narrow, pool, WIDTH_QUERIES);
    m.put(
        "core.search.width_speedup",
        "ratio",
        narrow_s / wide_s,
        WIDTH_QUERIES,
    );
}

/// The same queries as one `run_batch` (each on the whole pool) and as
/// width-1 lanes claiming from a shared cursor, plus the planner and
/// predictor fed with what those runs observed.
fn lane_probe(m: &mut Metrics, index: &Arc<Index>, pool: &DatasetBuffer, with_sched: bool) {
    let engine = BatchEngine::new(Arc::clone(index), WORKER_THREADS);
    let params = SearchParams::new(WORKER_THREADS);
    let count = LANE_QUERIES.min(pool.num_series());
    let batch: Vec<BatchQuery> = (0..count)
        .map(|i| BatchQuery::new(pool.series(i), QueryKind::Exact))
        .collect();
    let order: Vec<usize> = (0..count).collect();
    engine.run_batch(&batch[..count.min(16)], &order[..count.min(16)], &params);
    let out = engine.run_batch(&batch, &order, &params);
    let batch_s = out.wall.as_secs_f64();

    let widths = uniform_widths(WORKER_THREADS, 1);
    let next = AtomicUsize::new(0);
    let busy_ns = AtomicU64::new(0);
    let ((), lanes_s) = timed(|| {
        engine.run_dispatch(&widths, &|ctx, _lane| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= count {
                break;
            }
            let t = Instant::now();
            black_box(ctx.execute(i, &batch[i], &params));
            busy_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        })
    });
    m.put("core.multiq.lane_gain", "ratio", batch_s / lanes_s, count);
    let busy = busy_ns.load(Ordering::Relaxed) as f64 / 1e9 / (widths.len() as f64 * lanes_s);
    m.put("core.multiq.lane_busy_frac", "ratio", busy, count);

    if with_sched {
        // Planner and predictor, fed with (initial BSF, seconds) of the batch.
        let samples: Vec<(f64, f64)> = out
            .items
            .iter()
            .map(|it| (it.stats.initial_bsf, it.stats.elapsed.as_secs_f64()))
            .filter(|s| s.0.is_finite())
            .collect();
        sched_metrics(m, &samples, engine.calibrate(), lanes_s);
    }
}

/// The engine's own counters for the ED queries of `pool` on `index`:
/// what a cluster or service workload cannot read through its facade.
pub fn engine_stats(m: &mut Metrics, index: &Arc<Index>, pool: &DatasetBuffer) {
    let engine = BatchEngine::new(Arc::clone(index), WORKER_THREADS);
    let params = SearchParams::new(WORKER_THREADS);
    let mut sum = StatsSum::default();
    for i in 0..pool.num_series().min(WIDTH_QUERIES) {
        let (out, wall) = timed(|| engine.exact(pool.series(i), &params));
        sum.add(&out.stats, wall);
    }
    sum.put(m, index.num_series());
}

/// `sched.*` from `(initial BSF, seconds)` samples: trains the online
/// cost model on them, times the planner on its estimates, and compares
/// the makespan it predicts for two width-1 lanes with `observed_s`.
fn sched_metrics(
    m: &mut Metrics,
    samples: &[(f64, f64)],
    calibration: &[(usize, f64)],
    observed_s: f64,
) {
    let model = OnlineCostModel::new(1024, 64);
    for &(bsf, secs) in samples {
        model.record(bsf, secs);
    }
    let error = mape(&model, samples).unwrap_or(0.0);
    m.put("sched.cost_mape", "%", error * 100.0, samples.len());
    m.put(
        "sched.refits",
        "count",
        model.refits() as f64,
        samples.len(),
    );
    let estimates: Vec<f64> = samples.iter().map(|s| model.estimate(s.0)).collect();
    let curve = SpeedupCurve::from_times(calibration);
    let plan_s = plan_seconds(&estimates, WORKER_THREADS, &curve);
    m.put("sched.plan_us", "us", plan_s * 1e6, estimates.len());
    let mut desc = estimates;
    desc.sort_by(|a, b| b.total_cmp(a));
    let predicted = predicted_makespan(&desc, &uniform_widths(WORKER_THREADS, 1), &curve);
    m.put(
        "sched.makespan_pred_err",
        "ratio",
        (predicted - observed_s).abs() / observed_s,
        desc.len(),
    );
}

/// Median seconds to order `estimates` for dispatch and plan the lane
/// widths of a `pool`-thread engine for them.
pub fn plan_seconds(estimates: &[f64], pool: usize, curve: &SpeedupCurve) -> f64 {
    let config = AdmissionConfig::default();
    median_secs(9, || {
        black_box(dynamic_order(black_box(estimates), true));
        black_box(plan_dispatch_widths_adaptive(
            estimates, pool, &config, curve,
        ));
    })
}
