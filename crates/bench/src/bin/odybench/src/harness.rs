//! What the four workloads share: the run context, timing helpers, the
//! repeated set-up, the reference check and the failure ledger.

use crate::machine::{Machine, WORKER_THREADS};
use crate::report::{Metrics, Record};
use crate::stats::Latencies;
use crate::trace::Tracer;
use crate::verify::{verify, Kind, Query, Reported};
use odyssey_cluster::{OdysseyCluster, ServeOutcome};
use odyssey_core::search::engine::{BatchEngine, QueryKind};
use odyssey_core::search::exact::{SearchParams, SearchStats};
use odyssey_core::series::DatasetBuffer;
use odyssey_service::{ServiceClient, ServiceQuery};
use std::sync::Arc;
use std::time::Instant;

/// Threads the benchmark's own generation and verification use (never
/// while anything is being timed).
pub const BENCH_THREADS: usize = 2;

/// Times the program is set up per untraced run; `setup_s` is the
/// fastest. On the 2-core virtual machine this was written on, first
/// touching a build's memory costs anything from nothing to twice the
/// build itself (five builds of one index: 5.1, 1.9, 3.8, 4.1, 2.1 s), so
/// the median of a few repeats mostly reports the host's page faults;
/// the fastest repeat reports the program and repeats within ~10 %.
pub const SETUP_REPEATS: usize = 5;

/// How one run was asked for.
#[derive(Debug)]
pub struct Ctx {
    pub seed: u64,
    /// Seconds of timed work.
    pub seconds: f64,
    pub tracer: Tracer,
    /// Corrupt one reference answer, to show the verifier fails the run.
    pub inject_wrong: bool,
}

impl Ctx {
    pub fn traced(&self) -> bool {
        self.tracer.enabled()
    }
}

/// Runs `f` and returns its value with the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed().as_secs_f64())
}

/// Sets the program up `repeats` times, dropping each instance before
/// building the next, and keeps the last. Returns it with the fastest
/// set-up time.
pub fn repeat_setup<T>(repeats: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut fastest = f64::INFINITY;
    let mut last = None;
    for _ in 0..repeats {
        drop(last.take());
        let (v, s) = timed(&mut setup);
        fastest = fastest.min(s);
        last = Some(v);
    }
    (last.expect("at least one set-up"), fastest)
}

/// Counts timed requests and the ones that failed, and keeps the reasons.
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Ledger {
    /// Records one timed request; `problem` says what failed, if anything.
    pub fn request(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            // The first few reasons are enough to act on.
            if self.notes.len() < 8 {
                self.notes.push(format!("FAIL {p}"));
            }
        }
    }

    /// Records a timed request whose answer must equal the reference bit
    /// for bit.
    pub fn answer(&mut self, what: &str, i: usize, got: &Reported, want: &Reported) {
        let problem = (!got.same_bits(want))
            .then(|| format!("{what} {i}: answer {got:?} differs from the reference {want:?}"));
        self.request(problem);
    }

    /// Records a timed request answered through the service: degraded
    /// answers fail, the others must equal the reference bit for bit.
    pub fn served(
        &mut self,
        what: &str,
        i: usize,
        got: &Reported,
        degraded: bool,
        want: &Reported,
    ) {
        if degraded {
            self.request(Some(format!("{what} {i}: degraded answer")));
        } else {
            self.answer(what, i, got, want);
        }
    }

    /// Fails the run for a reason that is not one request's.
    pub fn fail(&mut self, why: String) {
        self.notes.push(format!("FAIL {why}"));
    }

    /// Notes something the reader should know that does not fail the run.
    pub fn warn(&mut self, why: String) {
        self.notes.push(format!("WARN {why}"));
    }
}

/// Checks the reference answers with the scalar verifier; every answer
/// it rejects fails the run. Returns the seconds spent.
pub fn check_reference(
    ctx: &Ctx,
    ledger: &mut Ledger,
    data: &DatasetBuffer,
    queries: &[Query],
    reference: &mut [Reported],
) -> f64 {
    if ctx.inject_wrong {
        // A well-formed wrong answer: some other series, at the distance
        // the program reported for the right one.
        let first = &mut reference[0].neighbors[0];
        first.1 = (first.1 + 1) % data.num_series() as u32;
    }
    let (verdict, secs) = timed(|| verify(data, queries, reference, BENCH_THREADS));
    for (i, v) in verdict.into_iter().enumerate() {
        if let Some(why) = v {
            ledger.fail(format!(
                "reference answer {i} ({:?}): {why}",
                queries[i].kind
            ));
        }
    }
    secs
}

/// Asks one query of an engine the way a caller would and returns the
/// answer, the statistics the call reported and its wall time in seconds.
pub fn ask_engine(
    engine: &BatchEngine,
    params: &SearchParams,
    q: &Query,
) -> (Reported, SearchStats, f64) {
    let t = Instant::now();
    let (answer, stats) = match q.kind {
        Kind::Ed => {
            let out = engine.exact(q.data, params);
            (Reported::from_nn(&out.answer), out.stats)
        }
        Kind::Knn(k) => {
            let (a, s) = engine.knn(q.data, k, params);
            (
                Reported {
                    neighbors: a.neighbors,
                },
                s,
            )
        }
        Kind::Dtw(w) => {
            let (a, s) = engine.dtw(q.data, w, params);
            (Reported::from_nn(&a), s)
        }
    };
    (answer, stats, t.elapsed().as_secs_f64())
}

/// Single-node answers over a cluster's data: every query on one
/// `BatchEngine` per replication group's index, chunk-local ids mapped
/// back to collection ids and the groups' answers merged by distance.
/// What the cluster and the service return must equal this bit for bit.
pub fn single_node_reference(cluster: &OdysseyCluster, queries: &[Query]) -> Vec<Reported> {
    let params = SearchParams::new(WORKER_THREADS);
    let mut merged: Vec<Reported> = queries
        .iter()
        .map(|_| Reported {
            neighbors: Vec::new(),
        })
        .collect();
    for g in 0..cluster.topology().n_groups() {
        let engine = BatchEngine::new(Arc::clone(cluster.chunk_index(g)), WORKER_THREADS);
        let ids = cluster.chunk_ids(g);
        for (q, out) in queries.iter().zip(&mut merged) {
            let (local, _, _) = ask_engine(&engine, &params, q);
            out.neighbors.extend(
                local
                    .neighbors
                    .into_iter()
                    .map(|(d, id)| (d, ids[id as usize])),
            );
        }
    }
    for (q, out) in queries.iter().zip(&mut merged) {
        out.neighbors
            .sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        out.neighbors
            .truncate(if let Kind::Knn(k) = q.kind { k } else { 1 });
    }
    merged
}

/// The program's name for a kind of query.
pub fn query_kind(kind: Kind) -> QueryKind {
    match kind {
        Kind::Ed => QueryKind::Exact,
        Kind::Knn(k) => QueryKind::Knn(k),
        Kind::Dtw(w) => QueryKind::Dtw(w),
    }
}

/// Sends one request through the service front-end and waits for it,
/// as a caller with one request outstanding would. Returns the answer,
/// whether it was degraded, and the wall seconds from submit to answer.
pub fn ask_service(client: &ServiceClient, q: &Query) -> (Reported, bool, f64) {
    let t = Instant::now();
    let request = ServiceQuery::interactive(q.data.to_vec()).with_kind(query_kind(q.kind));
    let qid = client
        .submit(request)
        .expect("one outstanding request never fills the queue");
    let answer = client.wait(qid);
    let wall = t.elapsed().as_secs_f64();
    (
        Reported::from_answer(&answer.answer),
        answer.outcome == ServeOutcome::Degraded,
        wall,
    )
}

/// Whole rounds of `queries` (k-NN and DTW), one request at a time
/// through the service: the first round always, then more until
/// `budget_s` is spent. `reference` holds the answers of `queries`.
/// Returns the k-NN latencies in ms and `(query, ms)` of every DTW request.
pub fn one_at_a_time(
    client: &ServiceClient,
    ledger: &mut Ledger,
    what: &str,
    queries: &[Query],
    reference: &[Reported],
    budget_s: f64,
) -> (Latencies, Vec<(usize, f64)>) {
    let mut knn = Latencies::default();
    let mut dtw = Vec::new();
    let start = Instant::now();
    while dtw.is_empty() || start.elapsed().as_secs_f64() < budget_s {
        for (i, (q, want)) in queries.iter().zip(reference).enumerate() {
            let (answer, degraded, wall) = ask_service(client, q);
            ledger.served(what, i, &answer, degraded, want);
            match q.kind {
                Kind::Dtw(_) => dtw.push((i, wall * 1e3)),
                _ => knn.push(wall * 1e3),
            }
        }
    }
    (knn, dtw)
}

/// MiB of a byte count.
pub fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// The metrics every untraced run ends with.
pub fn put_common(metrics: &mut Metrics, ledger: &Ledger, setup_s: f64, index_bytes: usize) {
    metrics.put("setup_s", "s", setup_s, SETUP_REPEATS);
    metrics.put("index_mib", "MiB", mib(index_bytes), 1);
    let ok = 1.0 - ledger.failed as f64 / ledger.attempted.max(1) as f64;
    metrics.put("ok_frac", "fraction", ok, ledger.attempted as usize);
}

/// Adds what the benchmark itself spent and wraps the run up as a record.
pub fn record(
    ctx: &Ctx,
    workload: &'static str,
    input_fnv64: u64,
    ledger: Ledger,
    mut metrics: Metrics,
    gen_s: f64,
    reference_s: f64,
) -> Record {
    metrics.put("bench.gen_s", "s", gen_s, 1);
    metrics.put("bench.reference_s", "s", reference_s, 1);
    Record {
        workload,
        seed: ctx.seed,
        seconds: ctx.seconds,
        traced: ctx.traced(),
        machine: Machine::detect(),
        input_fnv64,
        attempted: ledger.attempted,
        failed: ledger.failed,
        notes: ledger.notes,
        metrics,
    }
}

/// Share of its rate a phase lost to tracing: one minus the traced
/// requests per second over the untraced ones.
pub fn trace_overhead(untraced: (usize, f64), traced: (usize, f64)) -> f64 {
    1.0 - (traced.0 as f64 / traced.1) / (untraced.0 as f64 / untraced.1)
}
