//! `service_open` — the only workload where queue wait, admission,
//! earliest-deadline-first ordering and the cross-group merge matter.
//! `QueryService::serve_cluster` fronts 2 nodes × 1 thread that split
//! 500 000 × 128 random walks equally (the data-scalability end of the
//! paper's replication trade-off), and requests arrive in an **open
//! loop**: a seeded Poisson schedule at four fixed rates, whether or not
//! the service keeps up. Each request's latency counts from the instant
//! it was due. Executing one query is the same code as in `node_pruned`,
//! so an engine gain should show here as less waiting, and a
//! service-layer gain should show here only.
//!
//! The rates and the latency limit are frozen numbers (see the README
//! for how they were measured); they are never derived at run time, so
//! a slower program meets the same load as a faster one.

use crate::gen::{fnv64, graded_queries, walk_collection, Walk, FNV_OFFSET};
use crate::harness::{
    ask_service, check_reference, one_at_a_time, put_common, query_kind, record, repeat_setup,
    single_node_reference, timed, Ctx, Ledger, BENCH_THREADS, SETUP_REPEATS,
};
use crate::layers;
use crate::machine::WORKER_THREADS;
use crate::report::{Metrics, Record};
use crate::rng::sub_seed;
use crate::schedule::{drive, latency_from_due_s, poisson, Arrival, WallClock};
use crate::stats::{median, median_of_query_medians, supports, windowed_percentile, Latencies};
use crate::trace::{NO_PARENT, NO_REQUEST};
use crate::verify::{Kind, Query, Reported};
use odyssey_cluster::{ClusterConfig, OdysseyCluster, Replication, ServeOutcome, ServeQuery};
use odyssey_core::series::DatasetBuffer;
use odyssey_service::{QueryService, ServiceAnswer, ServiceClient, ServiceConfig, ServiceQuery};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Requests per second of the four phases `r1..r4`: 0.3, 0.6, 0.85 and
/// 1.15 × the capacity C = 355 queries/s measured at the commit that
/// added the benchmark (`odybench --calibrate-service`).
pub const RATES_QPS: [f64; 4] = [106.0, 213.0, 302.0, 408.0];

/// The latency limit of the rate ladder, in ms: three times the
/// interactive p99 at `r1`, rounded up, measured at the same commit.
pub const LIMIT_MS: f64 = 45.0;

#[derive(Debug, Clone, Copy)]
pub struct ServiceSpec {
    pub series: usize,
    pub len: usize,
    /// Distinct queries of the open loop; every tenth is k-NN, the rest
    /// ED 1-NN.
    pub pool: usize,
    pub rates_qps: [f64; 4],
    /// Distinct k-NN and DTW queries of the closing one-at-a-time phase.
    pub knn: usize,
    pub dtw: usize,
}

pub const FULL: ServiceSpec = ServiceSpec {
    series: 500_000,
    len: 128,
    pool: 512,
    rates_qps: RATES_QPS,
    knn: 192,
    dtw: 4,
};

/// Shares of the run: the four open-loop phases, the flood that
/// measures throughput, and the one-at-a-time requests.
const OPEN_SHARE: f64 = 0.6;
const FLOOD_SHARE: f64 = 0.25;
const SINGLE_SHARE: f64 = 0.15;
/// Offered rate of the flood, about three times what the service can
/// complete at the commit that added the benchmark.
const FLOOD_QPS: f64 = 1000.0;
/// Latency percentiles of an open-loop phase are taken per window of
/// this many seconds and the median over windows is reported.
const WINDOW_S: f64 = 0.5;
/// An overload phase shorter than this cannot fill the admission queue,
/// so it is not required to shed or break the limit.
const OVERLOAD_MIN_S: f64 = 5.0;

/// Seconds of `r1..r4` in a 46 s run; shorter runs keep the proportions.
const PHASE_WEIGHTS: [f64; 4] = [8.0, 20.0, 10.0, 8.0];
const NODES: usize = 2;
const MAX_NOISE: f32 = 0.6;
const K: usize = 10;
const DTW_WINDOW: usize = 12;

/// What one open-loop phase observed.
#[derive(Debug, Default)]
pub struct Phase {
    pub rate_qps: f64,
    pub arrivals: usize,
    pub rejected: usize,
    /// Answers that were wrong or degraded.
    pub bad: usize,
    /// From-due latency in ms: interactive ED, batch-class ED, k-NN.
    pub interactive: Latencies,
    /// The interactive ED latencies again, each with its due time.
    pub interactive_at: Vec<(f64, f64)>,
    pub batch: Latencies,
    pub knn: Latencies,
    /// How late the generator sent each request, in seconds.
    pub late_s: Vec<f64>,
    pub submit_s: Vec<f64>,
    /// In-flight count seen at every arrival, and after the last one.
    pub in_flight: Vec<usize>,
    pub in_flight_end: usize,
    pub completed: usize,
    /// When the last answer arrived, in seconds after the phase began.
    pub last_done_s: f64,
}

impl Phase {
    /// Whether the phase met the limit: nothing failed or was shed, the
    /// interactive tail stayed within `limit_ms`, and the backlog at the
    /// end was not growing (at most twice its mid-phase median, with one
    /// request of slack so an idle median of zero does not fail it).
    pub fn ok(&mut self, limit_ms: f64) -> bool {
        let mid = &self.in_flight[self.in_flight.len() / 4..self.in_flight.len() * 3 / 4];
        let mid_median = if mid.is_empty() {
            0.0
        } else {
            median(&mid.iter().map(|&v| v as f64).collect::<Vec<_>>())
        };
        self.rejected == 0
            && self.bad == 0
            && !self.interactive.is_empty()
            && self.interactive.nearest_rank(99.0) <= limit_ms
            && self.in_flight_end as f64 <= 2.0 * mid_median + 1.0
    }
}

/// The highest rate of the ladder that met the limit with every lower
/// rate meeting it too; zero when even the first did not.
pub fn max_rate_ok(phases: &mut [Phase], limit_ms: f64) -> f64 {
    let mut best = 0.0;
    for p in phases {
        if !p.ok(limit_ms) {
            break;
        }
        best = p.rate_qps;
    }
    best
}

fn request(q: &Query, interactive: bool) -> ServiceQuery {
    let base = if interactive {
        ServiceQuery::interactive(q.data.to_vec())
    } else {
        ServiceQuery::batch(q.data.to_vec())
    };
    base.with_kind(query_kind(q.kind))
}

struct Sent {
    query: usize,
    interactive: bool,
    due_s: f64,
    sent_s: f64,
}

/// The service under load: its client, the queries a schedule indexes
/// and their reference answers.
struct Target<'a> {
    client: &'a ServiceClient<'a>,
    queries: &'a [Query<'a>],
    reference: &'a [Reported],
}

/// Runs one open-loop phase: sends `schedule` on time (or at once when
/// late), never retries a rejected request, and waits for the admitted
/// ones to finish before returning. Spans go under `parent`; a rejected
/// request fails the run only when `counts_as_failure`.
fn open_loop(
    ctx: &mut Ctx,
    ledger: &mut Ledger,
    target: &Target,
    parent: u32,
    schedule: &[Arrival],
    rate_qps: f64,
    counts_as_failure: bool,
) -> Phase {
    let Target {
        client,
        queries,
        reference,
    } = *target;
    let mut phase = Phase {
        rate_qps,
        arrivals: schedule.len(),
        ..Phase::default()
    };
    let mut pending: HashMap<u64, Sent> = HashMap::new();
    let clock = WallClock(Instant::now());
    let origin_ns = ctx.tracer.now_ns();
    let finish = |a: ServiceAnswer,
                  pending: &mut HashMap<u64, Sent>,
                  phase: &mut Phase,
                  ctx: &mut Ctx,
                  ledger: &mut Ledger| {
        let sent = pending
            .remove(&a.qid)
            .expect("an answer to a request of this phase");
        let total_s = latency_from_due_s(sent.due_s, sent.sent_s, a.latency.as_secs_f64());
        let q = &queries[sent.query];
        let wrong = a.outcome == ServeOutcome::Degraded
            || !Reported::from_answer(&a.answer).same_bits(&reference[sent.query]);
        phase.bad += wrong as usize;
        ledger.request(wrong.then(|| {
            format!(
                "service_open query {} at {rate_qps} qps: wrong or degraded answer",
                sent.query
            )
        }));
        match (q.kind, sent.interactive) {
            (Kind::Ed, true) => {
                phase.interactive.push(total_s * 1e3);
                phase.interactive_at.push((sent.due_s, total_s * 1e3));
            }
            (Kind::Ed, false) => phase.batch.push(total_s * 1e3),
            _ => phase.knn.push(total_s * 1e3),
        }
        phase.completed += 1;
        phase.last_done_s = phase.last_done_s.max(sent.sent_s + a.latency.as_secs_f64());
        let ns = |s: f64| origin_ns + (s * 1e9) as u64;
        let span = ctx.tracer.record(
            "request",
            parent,
            a.qid,
            ns(sent.due_s),
            ns(sent.due_s + total_s),
        );
        ctx.tracer.record(
            "service.latency",
            span,
            a.qid,
            ns(sent.sent_s),
            ns(sent.due_s + total_s),
        );
    };
    let late_s = drive(&clock, schedule, |i, sent_s| {
        let interactive = i % 2 == 0;
        let query = schedule[i].query;
        let t = Instant::now();
        let admitted = client.submit(request(&queries[query], interactive));
        phase.submit_s.push(t.elapsed().as_secs_f64());
        match admitted {
            Ok(qid) => {
                pending.insert(
                    qid,
                    Sent {
                        query,
                        interactive,
                        due_s: schedule[i].due_s,
                        sent_s,
                    },
                );
            }
            Err(_busy) => {
                // Open loop: a shed request is not retried.
                phase.rejected += 1;
                if counts_as_failure {
                    ledger.request(Some(format!(
                        "service_open query {query} at {rate_qps} qps: rejected"
                    )));
                }
            }
        }
        phase.in_flight.push(client.in_flight());
        for a in client.drain() {
            finish(a, &mut pending, &mut phase, ctx, ledger);
        }
    });
    phase.late_s = late_s;
    phase.in_flight_end = client.in_flight();
    while !pending.is_empty() {
        std::thread::sleep(Duration::from_micros(200));
        for a in client.drain() {
            finish(a, &mut pending, &mut phase, ctx, ledger);
        }
    }
    phase
}

fn build(data: &DatasetBuffer) -> OdysseyCluster {
    let config = ClusterConfig::new(NODES)
        .with_threads_per_node(WORKER_THREADS / NODES)
        .with_replication(Replication::EquallySplit);
    OdysseyCluster::build(data, config)
}

struct Inputs {
    data: DatasetBuffer,
    pool: DatasetBuffer,
    knn: DatasetBuffer,
    dtw: DatasetBuffer,
}

fn inputs(spec: &ServiceSpec, seed: u64) -> Inputs {
    let data = walk_collection(
        Walk::Random,
        spec.series,
        spec.len,
        sub_seed(seed, 1),
        BENCH_THREADS,
    );
    let pool = graded_queries(&data, spec.pool, 0.02, MAX_NOISE, sub_seed(seed, 2));
    let knn = graded_queries(&data, spec.knn, 0.02, MAX_NOISE, sub_seed(seed, 3));
    let dtw = graded_queries(&data, spec.dtw, 0.1, 0.1, sub_seed(seed, 4));
    Inputs {
        data,
        pool,
        knn,
        dtw,
    }
}

fn queries<'a>(spec: &ServiceSpec, inp: &'a Inputs) -> Vec<Query<'a>> {
    let mut q: Vec<Query> = (0..spec.pool)
        .map(|i| Query {
            kind: if i % 10 == 9 { Kind::Knn(K) } else { Kind::Ed },
            data: inp.pool.series(i),
        })
        .collect();
    q.extend((0..spec.knn).map(|i| Query {
        kind: Kind::Knn(K),
        data: inp.knn.series(i),
    }));
    q.extend((0..spec.dtw).map(|i| Query {
        kind: Kind::Dtw(DTW_WINDOW),
        data: inp.dtw.series(i),
    }));
    q
}

pub fn run(ctx: &mut Ctx, spec: &ServiceSpec) -> Record {
    let mut ledger = Ledger::default();
    let mut metrics = Metrics::default();
    let (inp, gen_s) = timed(|| inputs(spec, ctx.seed));
    let input_fnv64 = [&inp.data, &inp.pool, &inp.knn, &inp.dtw]
        .iter()
        .fold(FNV_OFFSET, |h, b| fnv64(h, b.raw()));
    let queries = queries(spec, &inp);
    let service = QueryService::new(ServiceConfig::default());

    // Set-up: partition, build both nodes, and a short warm-up session.
    let root = ctx.tracer.open("run", NO_PARENT, NO_REQUEST);
    let setup_span = ctx.tracer.open("setup", root, NO_REQUEST);
    let repeats = if ctx.traced() { 1 } else { SETUP_REPEATS };
    let (cluster, setup_s) = repeat_setup(repeats, || {
        let cluster = build(&inp.data);
        service.serve_cluster(&cluster, |client| {
            for q in queries.iter().take(64) {
                ask_service(client, q);
            }
        });
        cluster
    });
    ctx.tracer.close(setup_span);

    let mut reference = single_node_reference(&cluster, &queries);
    let reference_s = check_reference(ctx, &mut ledger, &inp.data, &queries, &mut reference);

    let open_s = ctx.seconds * OPEN_SHARE;
    let weight: f64 = PHASE_WEIGHTS.iter().sum();
    let seed = ctx.seed;
    let mut closed = [Latencies::default(), Latencies::default()];
    let mut knn_lat = Latencies::default();
    let mut dtw_samples = Vec::new();
    let mut flood_qps = (0usize, 0.0f64);
    let (mut phases, report) = service.serve_cluster(&cluster, |client| {
        let target = Target {
            client,
            queries: &queries,
            reference: &reference,
        };
        let mut phases = Vec::with_capacity(4);
        for (p, (&rate, w)) in spec.rates_qps.iter().zip(PHASE_WEIGHTS).enumerate() {
            let schedule = poisson(
                rate,
                open_s * w / weight,
                spec.pool,
                sub_seed(seed, 100 + p as u64),
            );
            let span = ctx.tracer.open("phase", root, p as u64);
            // Requests of r1 and r2 must all succeed; r3 and r4 may shed.
            phases.push(open_loop(
                ctx,
                &mut ledger,
                &target,
                span,
                &schedule,
                rate,
                p < 2,
            ));
            ctx.tracer.close(span);
        }
        // Saturation: offered far more than it can take, the service
        // sheds the excess at its bounded queue and completes what it can.
        // That rate is the workload's throughput.
        let span = ctx.tracer.open("phase.flood", root, NO_REQUEST);
        let schedule = poisson(
            FLOOD_QPS,
            ctx.seconds * FLOOD_SHARE,
            spec.pool,
            sub_seed(seed, 104),
        );
        let flood = open_loop(ctx, &mut ledger, &target, span, &schedule, FLOOD_QPS, false);
        flood_qps = (flood.completed, flood.completed as f64 / flood.last_done_s);
        ctx.tracer.close(span);

        // One request outstanding. A traced run first takes ED requests,
        // without spans and then with, for what a request costs with no
        // queue in front of it. Then whole rounds of the k-NN and DTW
        // queries, the first always in full.
        if ctx.traced() {
            for (half, lat) in closed.iter_mut().enumerate() {
                for (i, q) in queries
                    .iter()
                    .filter(|q| q.kind == Kind::Ed)
                    .take(64)
                    .enumerate()
                {
                    let span = if half == 1 {
                        ctx.tracer.open("request.closed", root, i as u64)
                    } else {
                        NO_PARENT
                    };
                    let (_, _, wall) = ask_service(client, q);
                    ctx.tracer.close(span);
                    lat.push(wall * 1e3);
                }
            }
        }
        (knn_lat, dtw_samples) = one_at_a_time(
            client,
            &mut ledger,
            "service_open one-at-a-time query",
            &queries[spec.pool..],
            &reference[spec.pool..],
            ctx.seconds * SINGLE_SHARE,
        );
        phases
    });

    // The overload phase must overload and the lightest must not.
    let r4 = &mut phases[3];
    let r4_s = open_s * PHASE_WEIGHTS[3] / weight;
    if r4_s >= OVERLOAD_MIN_S && r4.rejected == 0 && r4.interactive.nearest_rank(99.0) <= LIMIT_MS {
        ledger.fail(format!(
            "shape: {} qps neither shed a request nor broke the {LIMIT_MS} ms limit",
            r4.rate_qps
        ));
    }
    let r1_tail = phases[0].interactive.nearest_rank(99.0);
    if r1_tail > LIMIT_MS {
        ledger.warn(format!(
            "interactive p99 at r1 is {r1_tail:.1} ms, above the {LIMIT_MS} ms limit"
        ));
    }
    let late_us: Vec<f64> = phases[..3]
        .iter()
        .map(|p| {
            let mut l = Latencies::default();
            p.late_s.iter().for_each(|&s| l.push(s * 1e6));
            l.nearest_rank(99.0)
        })
        .collect();
    let late_p99_us = late_us.iter().cloned().fold(0.0, f64::max);
    if late_p99_us >= 1000.0 {
        ledger.warn(format!("the generator ran {late_p99_us:.0} us late at p99 in r1-r3; latencies include that wait"));
    }

    let ladder = max_rate_ok(&mut phases, LIMIT_MS);
    let index_bytes = cluster.build_report().total_index_bytes();
    let [r1, r2, r3, r4] = &mut phases[..] else {
        unreachable!("four phases")
    };
    metrics.put(
        "dtw_lat_p50_ms",
        "ms",
        median_of_query_medians(&dtw_samples),
        dtw_samples.len(),
    );
    metrics.put("service.max_rate_ok_qps", "queries/s", ladder, 4);
    let shed_r4 = r4.rejected as f64 / r4.arrivals.max(1) as f64;
    metrics.put("service.shed_frac.r4", "ratio", shed_r4, r4.arrivals);
    let open_arrivals = r1.arrivals + r2.arrivals + r3.arrivals;
    metrics.put("bench.gen_late_p99_us", "us", late_p99_us, open_arrivals);
    if ctx.traced() {
        let closed_p50 = closed[0].nearest_rank(50.0);
        for (name, p) in [("r2", &mut *r2), ("r3", &mut *r3)] {
            let share = 1.0 - closed_p50 / p.interactive.nearest_rank(50.0);
            metrics.put(
                &format!("service.wait_share.{name}"),
                "ratio",
                share,
                p.interactive.len(),
            );
        }
        metrics.put(
            "service.max_in_flight",
            "count",
            report.max_in_flight as f64,
            report.admitted as usize,
        );
        metrics.put(
            "service.rejected",
            "count",
            report.rejected as f64,
            report.admitted as usize,
        );
        metrics.put(
            "service.shed_frac.r3",
            "ratio",
            r3.rejected as f64 / r3.arrivals.max(1) as f64,
            r3.arrivals,
        );
        metrics.put("service.closed_p50_ms", "ms", closed_p50, closed[0].len());
        let submits: Vec<f64> = [&*r1, &*r2, &*r3]
            .iter()
            .flat_map(|p| p.submit_s.iter().map(|s| s * 1e6))
            .collect();
        metrics.put("service.submit_us", "us", median(&submits), submits.len());
        metrics.put(
            "service.r1_p50_ms",
            "ms",
            r1.interactive.nearest_rank(50.0),
            r1.interactive.len(),
        );
        metrics.put(
            "service.r3_p50_ms",
            "ms",
            r3.interactive.nearest_rank(50.0),
            r3.interactive.len(),
        );
        metrics.put(
            "service.r3_p99_ms",
            "ms",
            r3.interactive.nearest_rank(99.0),
            r3.interactive.len(),
        );
        metrics.put(
            "service.batch_p50_ms",
            "ms",
            r2.batch.nearest_rank(50.0),
            r2.batch.len(),
        );
        metrics.put(
            "service.batch_p99_ms",
            "ms",
            r2.batch.nearest_rank(99.0),
            r2.batch.len(),
        );
        metrics.put(
            "cluster.serve.hedges",
            "count",
            report.hedged as f64,
            report.completed as usize,
        );
        metrics.put(
            "cluster.serve.degraded",
            "count",
            report.degraded as f64,
            report.completed as usize,
        );
        let overhead = 1.0 - closed[0].nearest_rank(50.0) / closed[1].nearest_rank(50.0);
        metrics.put(
            "bench.trace_overhead_frac",
            "ratio",
            overhead,
            closed[1].len(),
        );

        // How evenly the groups' nodes shared the requests, and the
        // shard map's epoch, from a session on the cluster itself.
        let span = ctx.tracer.open("probe.cluster.serve", root, NO_REQUEST);
        let done = AtomicU64::new(0);
        let n = queries.len().min(128) as u64;
        let (_, stats) = cluster.serve(
            |handle| {
                for q in queries.iter().take(n as usize) {
                    handle.submit(
                        ServeQuery::interactive(q.data.to_vec()).with_kind(query_kind(q.kind)),
                    );
                }
                while done.load(Ordering::Acquire) < n {
                    std::thread::sleep(Duration::from_micros(200));
                }
            },
            &|_answer| {
                done.fetch_add(1, Ordering::AcqRel);
            },
        );
        let per_node: Vec<f64> = stats.per_node_queries.iter().map(|&q| q as f64).collect();
        let mean = per_node.iter().sum::<f64>() / per_node.len() as f64;
        let imbalance = per_node.iter().cloned().fold(0.0, f64::max) / mean.max(1.0);
        metrics.put(
            "cluster.serve.node_query_imbalance",
            "ratio",
            imbalance,
            n as usize,
        );
        metrics.put(
            "cluster.shard_map.final_epoch",
            "count",
            stats.final_epoch as f64,
            1,
        );
        ctx.tracer.close(span);

        // What BSF sharing buys when every query visits both groups.
        let span = ctx.tracer.open("probe.cluster.boards", root, NO_REQUEST);
        let ed: Vec<f32> = queries
            .iter()
            .filter(|q| q.kind == Kind::Ed)
            .take(64)
            .flat_map(|q| q.data.iter().copied())
            .collect();
        let batch = DatasetBuffer::from_vec(ed, spec.len);
        let without = cluster.reconfigured(|c| c.with_bsf_sharing(false));
        cluster.answer_batch(&batch);
        without.answer_batch(&batch);
        let (on, on_s) = timed(|| cluster.answer_batch(&batch));
        let (_, off_s) = timed(|| without.answer_batch(&batch));
        metrics.put(
            "cluster.boards.gain",
            "ratio",
            off_s / on_s,
            batch.num_series(),
        );
        let per_query = on.bsf_broadcasts as f64 / batch.num_series() as f64;
        metrics.put(
            "cluster.boards.bsf_broadcasts_per_query",
            "count",
            per_query,
            batch.num_series(),
        );
        metrics.put("cluster.shard_map.reroutes", "count", on.reroutes as f64, 1);
        ctx.tracer.close(span);

        let index = cluster.chunk_index(0);
        layers::index_metrics(&mut metrics, index);
        layers::engine_stats(&mut metrics, index, &inp.pool);
        layers::probes(
            &mut metrics,
            &mut ctx.tracer,
            root,
            &inp.data,
            index,
            &inp.pool,
            DTW_WINDOW,
            true,
        );
    } else {
        metrics.put("qps", "queries/s", flood_qps.1, flood_qps.0);
        let n = r2.interactive.len();
        metrics.put(
            "lat_p50_ms",
            "ms",
            windowed_percentile(&r2.interactive_at, WINDOW_S, 50.0),
            n,
        );
        if !supports(n, 90.0) {
            ledger.fail(format!(
                "{n} interactive latencies at r2 are too few for p90; run longer"
            ));
        }
        metrics.put(
            "lat_p90_ms",
            "ms",
            windowed_percentile(&r2.interactive_at, WINDOW_S, 90.0),
            n,
        );
        if let Some(v) = r2.interactive.p(99.0) {
            metrics.put("lat_p99_ms", "ms", v, n);
        }
        metrics.put(
            "knn_lat_p50_ms",
            "ms",
            knn_lat.nearest_rank(50.0),
            knn_lat.len(),
        );
        metrics.put(
            "service.r2_knn_p50_ms",
            "ms",
            r2.knn.nearest_rank(50.0),
            r2.knn.len(),
        );
        if [&*r1, &*r2, &*r3, &*r4]
            .iter()
            .all(|p| supports(p.interactive.len(), 99.0))
        {
            metrics.put("max_rate_ok_qps", "queries/s", ladder, 4);
        }
        put_common(&mut metrics, &ledger, setup_s, index_bytes);
    }
    ctx.tracer.close(root);
    record(
        ctx,
        "service_open",
        input_fnv64,
        ledger,
        metrics,
        gen_s,
        reference_s,
    )
}

/// Measures what [`RATES_QPS`] and [`LIMIT_MS`] were frozen from: the
/// requests per second the service completes when offered far more than
/// it can take (1 000 per second; the bounded queue sheds the excess),
/// then the interactive p99 of an open loop at 0.3 × that capacity.
pub fn calibrate(seed: u64, seconds: f64) {
    let spec = FULL;
    let inp = inputs(&spec, seed);
    let queries = queries(&spec, &inp);
    let cluster = build(&inp.data);
    let reference = single_node_reference(&cluster, &queries);
    let mut ctx = Ctx {
        seed,
        seconds,
        tracer: crate::trace::Tracer::new(false),
        inject_wrong: false,
    };
    let mut ledger = Ledger::default();
    let service = QueryService::new(ServiceConfig::default());
    let (capacity, _) = service.serve_cluster(&cluster, |client| {
        let flood = poisson(FLOOD_QPS, seconds, spec.pool, sub_seed(seed, 99));
        let target = Target {
            client,
            queries: &queries,
            reference: &reference,
        };
        let over = open_loop(
            &mut ctx,
            &mut ledger,
            &target,
            NO_PARENT,
            &flood,
            FLOOD_QPS,
            false,
        );
        let capacity = over.completed as f64 / over.last_done_s;
        println!(
            "capacity C = {capacity:.1} queries/s ({} of {} requests completed, the rest shed)",
            over.completed, over.arrivals
        );
        capacity
    });
    println!(
        "rates 0.3/0.6/0.85/1.15 x C = {:.0} / {:.0} / {:.0} / {:.0}",
        0.3 * capacity,
        0.6 * capacity,
        0.85 * capacity,
        1.15 * capacity
    );
    service.serve_cluster(&cluster, |client| {
        let schedule = poisson(0.3 * capacity, seconds, spec.pool, sub_seed(seed, 100));
        let target = Target { client, queries: &queries, reference: &reference };
        let mut r1 = open_loop(&mut ctx, &mut ledger, &target, NO_PARENT, &schedule, 0.3 * capacity, true);
        let p99 = r1.interactive.nearest_rank(99.0);
        println!("interactive p99 at 0.3 x C = {p99:.2} ms over {} requests; limit L = 3 x p99 = {:.0} ms", r1.interactive.len(), (3.0 * p99).ceil());
    });
}

#[cfg(test)]
pub const TINY: ServiceSpec = ServiceSpec {
    series: 4000,
    len: 64,
    pool: 64,
    rates_qps: [100.0, 400.0, 600.0, 800.0],
    knn: 8,
    dtw: 2,
};

#[cfg(test)]
mod tests {
    use super::*;

    /// A phase at `rate` whose interactive tail is `tail_ms`.
    fn phase(rate: f64, tail_ms: f64, rejected: usize, bad: usize, in_flight_end: usize) -> Phase {
        let mut p = Phase {
            rate_qps: rate,
            arrivals: 200,
            rejected,
            bad,
            in_flight_end,
            ..Phase::default()
        };
        for i in 0..200 {
            p.interactive.push(if i < 197 { 1.0 } else { tail_ms });
            p.in_flight.push(2);
        }
        p
    }

    #[test]
    fn the_ladder_stops_at_the_first_rate_that_misses_the_limit() {
        let limit = 45.0;
        let rates = [106.0, 213.0, 302.0, 408.0];
        let all_ok = || -> Vec<Phase> { rates.iter().map(|&r| phase(r, 20.0, 0, 0, 3)).collect() };
        assert_eq!(max_rate_ok(&mut all_ok(), limit), 408.0);
        // A tail over the limit at r3 caps the ladder at r2, even though
        // r4 alone would pass.
        let mut slow_r3 = all_ok();
        slow_r3[2] = phase(302.0, 46.0, 0, 0, 3);
        assert_eq!(max_rate_ok(&mut slow_r3, limit), 213.0);
        // A tail exactly on the limit still meets it.
        let mut on_limit = all_ok();
        on_limit[3] = phase(408.0, 45.0, 0, 0, 3);
        assert_eq!(max_rate_ok(&mut on_limit, limit), 408.0);
        // One shed request, or one wrong answer, fails a rate.
        let mut shed = all_ok();
        shed[3] = phase(408.0, 20.0, 1, 0, 3);
        assert_eq!(max_rate_ok(&mut shed, limit), 302.0);
        let mut wrong = all_ok();
        wrong[1] = phase(213.0, 20.0, 0, 1, 3);
        assert_eq!(max_rate_ok(&mut wrong, limit), 106.0);
        // A backlog at the end of more than twice the mid-phase median
        // (2, plus one of slack) is growing.
        let mut growing = all_ok();
        growing[2] = phase(302.0, 20.0, 0, 0, 6);
        assert_eq!(max_rate_ok(&mut growing, limit), 213.0);
        let mut steady = all_ok();
        steady[2] = phase(302.0, 20.0, 0, 0, 5);
        assert_eq!(max_rate_ok(&mut steady, limit), 408.0);
        // Nothing passes: zero.
        let mut none = all_ok();
        none[0] = phase(106.0, 90.0, 0, 0, 3);
        assert_eq!(max_rate_ok(&mut none, limit), 0.0);
    }
}
