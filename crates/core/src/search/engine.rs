//! The persistent batch-query engine.
//!
//! Odyssey's headline results are about *batch* throughput: hundreds of
//! queries dispatched by a scheduling policy onto a fixed set of node
//! threads. Every query runs on a [`BatchEngine`], which pays thread
//! spawn, barrier construction and scratch allocation **once per index**
//! instead of once per query:
//!
//! * a pool of worker threads is created at engine construction and
//!   stays resident (pinned to cores, best-effort, on Linux) until the
//!   engine drops;
//! * each worker owns a scratch arena (lower-bound block buffers,
//!   priority-queue heap allocations, traversal stacks) that is cleared
//!   — not reallocated — between queries;
//! * a query runs on the whole pool or on a *lane* (a disjoint group of
//!   workers), preserving the paper's intra-query parallelism,
//!   RS-batch/HelpTH semantics and [`StealView`] work-stealing hooks
//!   unchanged. Both are a crate-private `WorkerGroup`, so the
//!   per-query body (seed, admit, run the three phases, observe) is
//!   written once and runs at the pool's or the lane's width.
//!
//! The submitting thread participates as worker 0, so a 1-thread engine
//! runs queries inline with zero synchronization, and an `n`-thread
//! engine keeps only `n - 1` resident workers.
//!
//! [`BatchEngine::run_batch`] is the entry point the scheduling layer
//! feeds: it takes a set of [`BatchQuery`]s plus a dispatch *order* (a
//! permutation, e.g. the descending-cost order of `odyssey-sched`'s
//! PREDICT-DN policy) and answers the batch on continuous-dispatch
//! lanes, several queries side by side.
//!
//! The engine also hosts the **steal service**: a [`StealRegistry`]
//! tracking every in-flight query — full-pool or lane — with its
//! [`StealView`], worker-group width, and progress. A node's
//! work-stealing manager inspects the registry (not a per-query side
//! channel) to pick a victim among everything the engine is running,
//! and the registry's installed service hook is invoked cooperatively
//! by the search workers themselves, so steal requests are served even
//! mid-round while several lane queries are in flight.

use super::answer::{Answer, KnnAnswer};
use super::bsf::{ResultSet, SharedBsf, SharedKnn};
use super::dtw_search::{seed_dtw, seed_dtw_knn};
use super::epsilon::EpsilonRelaxed;
use super::exact::{
    seed_ed, ExecShared, SearchOutcome, SearchParams, SearchStats, StealView,
};
use super::kernel::QueryKernel;
use super::knn::seed_knn;
use super::multiq::{validate_order, validate_widths, DispatchRuntime, LaneCtx, LaneState};
use super::scratch::WorkerScratch;
use crate::index::Index;
use crate::sync::PhaseBarrier;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// One query of a batch.
#[derive(Debug, Clone, Copy)]
pub struct BatchQuery<'a> {
    /// The (z-normalized) query series.
    pub data: &'a [f32],
    /// Which search to run.
    pub kind: QueryKind,
    /// Per-query tuning override (e.g. the sigmoid model's predicted
    /// `TH` for this query); `None` falls back to the batch-wide params.
    /// `n_threads` is always overridden by the executing pool or lane.
    pub params: Option<SearchParams>,
}

impl<'a> BatchQuery<'a> {
    /// A batch item using the batch-wide parameters.
    pub fn new(data: &'a [f32], kind: QueryKind) -> Self {
        BatchQuery {
            data,
            kind,
            params: None,
        }
    }

    /// Attaches per-query parameters (typically a predicted `TH`).
    pub fn with_params(mut self, params: SearchParams) -> Self {
        self.params = Some(params);
        self
    }
}

/// The search mode of a [`BatchQuery`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// Euclidean exact 1-NN.
    Exact,
    /// Euclidean exact k-NN.
    Knn(usize),
    /// DTW exact 1-NN with a Sakoe-Chiba band of the given half-width.
    Dtw(usize),
}

/// The answer of one batch item.
#[derive(Debug, Clone)]
pub enum BatchAnswer {
    /// 1-NN answer (Euclidean or DTW).
    Nn(Answer),
    /// k-NN answer.
    Knn(KnnAnswer),
}

impl BatchAnswer {
    /// The 1-NN answer, panicking on a k-NN item (test/CLI convenience).
    pub fn nn(&self) -> &Answer {
        match self {
            BatchAnswer::Nn(a) => a,
            BatchAnswer::Knn(_) => panic!("k-NN item has no 1-NN answer"),
        }
    }
}

/// Result of one query inside a batch.
#[derive(Debug, Clone)]
pub struct BatchItem {
    /// The answer.
    pub answer: BatchAnswer,
    /// Execution statistics of this query.
    pub stats: SearchStats,
}

/// Result of [`BatchEngine::run_batch`].
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// One item per input query, in **input order** (not dispatch order).
    pub items: Vec<BatchItem>,
    /// Wall-clock duration of the whole batch.
    pub wall: Duration,
}

/// A persistent worker-pool search engine bound to one index.
pub struct BatchEngine {
    index: Arc<Index>,
    pool: WorkerPool,
    registry: Arc<StealRegistry>,
    /// Warmup-calibration probe measurements, taken once per engine on
    /// first use (see [`BatchEngine::calibrate`]).
    calibration: OnceLock<Vec<(usize, f64)>>,
}

impl std::fmt::Debug for BatchEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchEngine")
            .field("n_threads", &self.pool.n_threads)
            .field("in_flight", &self.registry.in_flight())
            .finish_non_exhaustive()
    }
}

impl BatchEngine {
    /// Creates an engine with `n_threads` total execution threads (the
    /// submitting thread counts as one; `n_threads - 1` workers are
    /// spawned and stay resident until drop).
    pub fn new(index: Arc<Index>, n_threads: usize) -> Self {
        Self::with_registry(index, n_threads, Arc::new(StealRegistry::default()))
    }

    /// [`BatchEngine::new`] with an externally created [`StealRegistry`]
    /// — the distributed layer shares the registry with the node's
    /// work-stealing manager thread, which may outlive (or predate) the
    /// engine itself.
    pub fn with_registry(
        index: Arc<Index>,
        n_threads: usize,
        registry: Arc<StealRegistry>,
    ) -> Self {
        // Workers prefault their scratch arenas to the index's leaf
        // capacity on their own (pinned) threads, so the pages are
        // first-touched — and therefore allocated — on each lane
        // worker's local NUMA node rather than wherever the submitting
        // thread happens to run.
        let pool = WorkerPool::new(n_threads.max(1), index.config().leaf_capacity);
        BatchEngine {
            index,
            pool,
            registry,
            calibration: OnceLock::new(),
        }
    }

    /// The engine's index.
    pub fn index(&self) -> &Arc<Index> {
        &self.index
    }

    /// Total execution threads per query (pool workers + submitter).
    pub fn n_threads(&self) -> usize {
        self.pool.n_threads
    }

    /// The engine's steal service: every in-flight query (full-pool or
    /// lane) is visible here while it runs.
    pub fn steal_registry(&self) -> &Arc<StealRegistry> {
        &self.registry
    }

    /// Registers a full-pool query with the steal service and returns
    /// its execution grant (view allocation + registry entry). The grant
    /// is what [`BatchEngine::run_query`] executes under; dropping it
    /// deregisters the query and recycles its view.
    pub fn admit(
        &self,
        query_id: usize,
        results: Arc<dyn ResultSet + Send + Sync>,
    ) -> InflightQuery {
        self.registry
            .register(query_id, self.pool.n_threads, results)
    }

    /// [`BatchEngine::admit`] with a cost estimate attached: the steal
    /// service weights victims by estimated *remaining work* (estimate ×
    /// unclaimed fraction) when estimates are available.
    pub fn admit_estimated(
        &self,
        query_id: usize,
        results: Arc<dyn ResultSet + Send + Sync>,
        estimate: Option<f64>,
    ) -> InflightQuery {
        self.registry
            .register_estimated(query_id, self.pool.n_threads, results, estimate)
    }

    /// Warmup calibration (Figure 8): measures a small seeded probe set
    /// at widths `{1, 2, 4, …, pool}` and returns the raw `(width,
    /// wall-seconds)` samples, cached for the engine's lifetime (the
    /// first call measures, later calls return the cached samples).
    /// The scheduling layer fits its speedup-vs-width curve from these
    /// (`odyssey-sched`'s `SpeedupCurve::from_times`); the engine only
    /// *measures* — the dependency points from sched to core, never
    /// back.
    ///
    /// Probes are derived deterministically from the index's own series
    /// (spread positions, perturbed by a fixed xorshift stream and
    /// re-normalized), so the same index always probes the same queries
    /// in the same order at the same widths. Probe queries run through
    /// the normal lane machinery but are **not** reported to the
    /// installed [query observer](StealRegistry::install_observer):
    /// calibration measures the machine, it is not traffic.
    pub fn calibrate(&self) -> &[(usize, f64)] {
        self.calibration.get_or_init(|| self.run_calibration())
    }

    fn run_calibration(&self) -> Vec<(usize, f64)> {
        let pool = self.pool.n_threads;
        let probes = calibration_probes(&self.index, 3);
        let params = SearchParams::new(pool);
        // Probe widths: powers of two up to the pool, plus the pool.
        let mut widths = Vec::new();
        let mut w = 1usize;
        while w < pool {
            widths.push(w);
            w *= 2;
        }
        widths.push(pool);
        // No steal serving while probes are in flight: a thief must
        // never receive a probe's RS-batches under a real query id.
        self.registry.set_steal_paused(true);
        // One untimed warm pass: faults the tree and the scratch arenas
        // so the first timed probe is not charged for one-time warmup.
        let _ = self.probe_at(pool, &probes, &params);
        let samples = widths
            .into_iter()
            .map(|w| (w, self.probe_at(w, &probes, &params)))
            .collect();
        self.registry.set_steal_paused(false);
        samples
    }

    /// Times one pass of the probe set on a `width`-worker lane (the
    /// remaining workers idle in a filler lane), returning wall seconds.
    fn probe_at(&self, width: usize, probes: &[Vec<f32>], params: &SearchParams) -> f64 {
        let pool = self.pool.n_threads;
        let widths: Vec<usize> = if width >= pool {
            vec![pool]
        } else {
            vec![width, pool - width]
        };
        let t0 = std::time::Instant::now();
        self.run_dispatch(&widths, &|ctx, lane| {
            if lane != 0 {
                return;
            }
            for probe in probes {
                let (kernel, bsf, _initial) = seed_ed(ctx.index(), probe);
                let bsf = Arc::new(bsf);
                let grant = ctx.admit(0, Arc::clone(&bsf) as Arc<dyn ResultSet + Send + Sync>);
                let _ = ctx.run_query(&kernel, params, &*bsf, None, &grant, &|_, _| {});
            }
        });
        t0.elapsed().as_secs_f64().max(f64::MIN_POSITIVE)
    }

    /// The full pool as a worker group (the submitter runs tid 0).
    fn group(&self) -> WorkerGroup<'_> {
        WorkerGroup {
            index: &self.index,
            registry: &self.registry,
            width: self.pool.n_threads,
            barrier: &self.pool.inner.barrier,
            runner: GroupRunner::Pool(&self.pool),
        }
    }

    /// Runs one admitted query on the resident pool: the three phases
    /// over every RS-batch (`batch_subset = None`, the owner's run) or
    /// over the given global batch ids only (a thief's run), invoking
    /// `on_improve(distance_sq, id)` on every result improvement (the
    /// BSF-sharing hook). `params.n_threads` is overridden by the pool
    /// size, and the grant `query` carries the [`StealView`].
    ///
    /// # Panics
    /// A panic raised by a hook (or the engine body) on any participant
    /// propagates to the caller after all workers have finished the
    /// query. It *poisons* the pool's [`PhaseBarrier`], so the other
    /// workers abort the round instead of deadlocking; the pool resets
    /// the barrier afterwards and stays usable.
    pub fn run_query<K: QueryKernel + ?Sized, R: ResultSet + ?Sized>(
        &self,
        kernel: &K,
        params: &SearchParams,
        results: &R,
        batch_subset: Option<&[usize]>,
        query: &InflightQuery,
        on_improve: &(dyn Fn(f64, u32) + Sync),
    ) -> SearchStats {
        self.group()
            .run_query(kernel, params, results, batch_subset, query, on_improve)
    }

    /// Exact Euclidean 1-NN on the pool, seeded by the approximate
    /// search (Algorithm 1, line 5). Standalone calls register with the
    /// steal service as query 0.
    pub fn exact(&self, query: &[f32], params: &SearchParams) -> SearchOutcome {
        let query = BatchQuery::new(query, QueryKind::Exact);
        let item = self.group().execute(0, &query, params, None);
        SearchOutcome {
            answer: *item.answer.nn(),
            stats: item.stats,
        }
    }

    /// ε-approximate 1-NN on the pool: the returned distance is within
    /// `(1 + ε)` of the exact nearest-neighbor distance (see
    /// [`EpsilonRelaxed`]).
    pub fn epsilon(
        &self,
        query: &[f32],
        epsilon: f64,
        params: &SearchParams,
    ) -> (Answer, SearchStats) {
        let (kernel, bsf, initial) = seed_ed(&self.index, query);
        let bsf = Arc::new(bsf);
        let relaxed = EpsilonRelaxed::new(&*bsf, epsilon);
        let grant = self.admit(0, Arc::clone(&bsf) as Arc<dyn ResultSet + Send + Sync>);
        let mut stats = self.run_query(&kernel, params, &relaxed, None, &grant, &|_, _| {});
        drop(grant);
        stats.initial_bsf = initial;
        self.registry.observe(0, &stats);
        (bsf.answer(), stats)
    }

    /// Exact Euclidean k-NN on the pool, seeded from the approximate
    /// search's leaf.
    pub fn knn(
        &self,
        query: &[f32],
        k: usize,
        params: &SearchParams,
    ) -> (KnnAnswer, SearchStats) {
        let query = BatchQuery::new(query, QueryKind::Knn(k));
        let item = self.group().execute(0, &query, params, None);
        let BatchAnswer::Knn(answer) = item.answer else { unreachable!("k-NN item") };
        (answer, item.stats)
    }

    /// Exact DTW 1-NN on the pool with a Sakoe-Chiba band of `window`
    /// points.
    pub fn dtw(
        &self,
        query: &[f32],
        window: usize,
        params: &SearchParams,
    ) -> (Answer, SearchStats) {
        let query = BatchQuery::new(query, QueryKind::Dtw(window));
        let item = self.group().execute(0, &query, params, None);
        (*item.answer.nn(), item.stats)
    }

    /// Exact k-NN under DTW on the pool — the two Section-4 extensions
    /// composed: the result set keeps the `k` smallest DTW distances and
    /// pruning uses the current k-th one. Seeded from the DTW kernel's
    /// most promising leaf.
    pub fn dtw_knn(
        &self,
        query: &[f32],
        window: usize,
        k: usize,
        params: &SearchParams,
    ) -> (KnnAnswer, SearchStats) {
        let seeded = seed_dtw_knn(&self.index, query, window, k);
        let knn = |set: &SharedKnn| BatchAnswer::Knn(set.snapshot());
        let item = self.group().run_seeded(0, seeded, params, None, knn);
        let BatchAnswer::Knn(answer) = item.answer else { unreachable!("k-NN item") };
        (answer, item.stats)
    }

    /// The lane widths [`BatchEngine::run_batch`] runs a batch of
    /// `n_queries` on: `min(pool, n_queries)` lanes splitting the pool
    /// as evenly as possible, wider lanes first. A batch with at least
    /// as many queries as threads gets width-1 lanes; a single query
    /// keeps the full pool. Empty for an empty batch.
    pub fn batch_widths(&self, n_queries: usize) -> Vec<usize> {
        let pool = self.pool.n_threads;
        let lanes = pool.min(n_queries);
        (0..lanes)
            .map(|l| pool / lanes + usize::from(l < pool % lanes))
            .collect()
    }

    /// Answers a whole batch. `order` is the dispatch order, a
    /// permutation of `0..queries.len()` (e.g. the descending-estimate
    /// order of `odyssey-sched`'s PREDICT-DN policy).
    ///
    /// The batch runs as one continuous-dispatch round
    /// ([`BatchEngine::run_dispatch`]) on the lanes of
    /// [`BatchEngine::batch_widths`]: each lane claims the next entry of
    /// `order` from a shared cursor and answers it at the lane's width,
    /// so several queries run side by side and a lane that finishes
    /// claims the next query at once. Lanes of width 1 pay no barriers
    /// and no contention on a query's shared queues, which is where a
    /// query loses time when it is spread over the whole pool; a
    /// single-query batch keeps the full pool, so its latency is that of
    /// [`BatchEngine::exact`]. Answers are bit-identical to the
    /// per-query entry points (`exact`, `knn`, `dtw`), each item's own
    /// `params` override the batch-wide ones, every query is registered
    /// with the steal service under its input index and reported to the
    /// installed observer. Results come back in input order.
    ///
    /// # Panics
    /// Panics, before any query runs, if `order` is not a permutation of
    /// the query indices.
    pub fn run_batch(
        &self,
        queries: &[BatchQuery],
        order: &[usize],
        params: &SearchParams,
    ) -> BatchOutcome {
        validate_order(order, queries.len());
        let t0 = std::time::Instant::now();
        let items: Vec<OnceLock<BatchItem>> = (0..queries.len()).map(|_| OnceLock::new()).collect();
        let widths = self.batch_widths(queries.len());
        if !widths.is_empty() {
            let next = AtomicUsize::new(0);
            self.run_dispatch(&widths, &|ctx, _lane| {
                while let Some(&qi) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let q = &queries[qi];
                    let item = ctx.execute(qi, q, &q.params.unwrap_or(*params));
                    items[qi]
                        .set(item)
                        .unwrap_or_else(|_| unreachable!("validated order names each query once"));
                }
            });
        }
        BatchOutcome {
            items: items
                .into_iter()
                .map(|s| s.into_inner().expect("validated order is total"))
                .collect(),
            wall: t0.elapsed(),
        }
    }

    /// Executes one **continuous-dispatch** round: the pool is
    /// partitioned into lanes of the given `widths` and `driver(ctx,
    /// lane)` runs **once** on each lane's rank-0 worker. The driver is
    /// expected to loop — claim the next query from a shared source,
    /// answer it through [`LaneCtx::execute`] (or
    /// [`LaneCtx::run_query`]), publish the result, repeat — and return
    /// when the source closes.
    ///
    /// This is the building block of [`BatchEngine::run_batch`], the
    /// cluster node loops and the service. A lane that finishes a query
    /// immediately claims the next one, so lanes never idle while work
    /// is queued; the only synchronization point is the pool-level join
    /// once every driver has returned. Answers remain bit-identical to
    /// the sequential paths: each claimed query runs the same
    /// three-phase engine body at the lane's width.
    ///
    /// # Panics
    /// Panics if `widths` does not exactly partition the pool. A panic
    /// inside `driver` poisons that lane's [`PhaseBarrier`], aborting
    /// the lane instead of deadlocking it.
    pub fn run_dispatch<F>(&self, widths: &[usize], driver: &F)
    where
        F: Fn(&mut LaneCtx, usize) + Sync,
    {
        validate_widths(widths, self.pool.n_threads);
        let rt = DispatchRuntime::new(widths);
        self.pool.run(&|tid, scratch| {
            rt.participate(tid, scratch, &self.index, &self.registry, driver)
        });
    }

    /// The seed-only approximate answer for `query` — the same initial
    /// candidate every exact search starts from (approximate tree
    /// descent; for k-NN, the seed leaf's candidates). See
    /// [`approximate_answer`].
    pub fn approximate(&self, query: &BatchQuery) -> BatchAnswer {
        approximate_answer(&self.index, query)
    }
}

/// The **approximate** answer a query's exact search is seeded from:
/// the approximate tree descent's candidate for 1-NN (Euclidean or
/// DTW), the seed leaf's candidates for k-NN. Runs in microseconds —
/// one leaf visit, no queue processing.
///
/// This is the serving layer's honest degraded answer: when a query's
/// deadline has already expired at claim time, the service returns this
/// seed answer explicitly marked as degraded instead of silently
/// dropping the query or burning a full exact search past its
/// deadline. The returned distance is a true upper bound (it is the
/// real distance to a real series), never a fabricated "exact" claim.
pub fn approximate_answer(index: &Index, query: &BatchQuery) -> BatchAnswer {
    let q = query.data;
    match query.kind {
        QueryKind::Exact => BatchAnswer::Nn(seed_ed(index, q).1.answer()),
        QueryKind::Knn(k) => BatchAnswer::Knn(seed_knn(index, q, k).1.snapshot()),
        QueryKind::Dtw(window) => BatchAnswer::Nn(seed_dtw(index, q, window).1.answer()),
    }
}

/// Deterministic calibration probes: series drawn from spread positions
/// of the index itself, perturbed by a fixed xorshift stream and
/// re-normalized — realistic queries (near the data distribution, not
/// exact matches) without any RNG dependency or external query set.
fn calibration_probes(index: &Index, count: usize) -> Vec<Vec<f32>> {
    let n = index.num_series();
    if n == 0 {
        return Vec::new();
    }
    let count = count.min(n).max(1);
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    (0..count)
        .map(|i| {
            let id = (i * n / count + n / (2 * count)).min(n - 1) as u32;
            let mut q = index.series_by_id(id).to_vec();
            for v in &mut q {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *v += ((x % 2000) as f32 / 1000.0 - 1.0) * 0.05;
            }
            crate::series::znormalize(&mut q);
            q
        })
        .collect()
}

// ---------------------------------------------------------------------
// The worker group: one per-query body for the pool and for lanes
// ---------------------------------------------------------------------

/// How a [`WorkerGroup`] runs a job on every member: the resident pool
/// (the submitter runs tid 0), or a lane (its rank-0 worker runs rank 0
/// with its own scratch).
pub(super) enum GroupRunner<'g> {
    Pool(&'g WorkerPool),
    Lane(&'g LaneState, &'g mut WorkerScratch),
}

/// The workers one query runs on: the engine's full pool or one
/// dispatch lane. The two differ only in the width, the phase barrier
/// and the runner, so the per-query body is written once for both.
pub(super) struct WorkerGroup<'g> {
    pub(super) index: &'g Arc<Index>,
    pub(super) registry: &'g Arc<StealRegistry>,
    pub(super) width: usize,
    pub(super) barrier: &'g PhaseBarrier,
    pub(super) runner: GroupRunner<'g>,
}

impl WorkerGroup<'_> {
    /// Runs one admitted query's three phases on every member at the
    /// group's width (see [`BatchEngine::run_query`]).
    pub(super) fn run_query<K: QueryKernel + ?Sized, R: ResultSet + ?Sized>(
        &mut self,
        kernel: &K,
        params: &SearchParams,
        results: &R,
        batch_subset: Option<&[usize]>,
        query: &InflightQuery,
        on_improve: &(dyn Fn(f64, u32) + Sync),
    ) -> SearchStats {
        let mut eff = *params;
        eff.n_threads = self.width;
        let hook = self.registry.service_hook();
        let registry = &**self.registry;
        let service = move || {
            if let Some(h) = &hook {
                h(registry);
            }
        };
        let shared = ExecShared::new(
            self.index,
            kernel,
            &eff,
            results,
            batch_subset,
            query.view(),
            on_improve,
            &service,
        );
        if shared.has_work() {
            let barrier = self.barrier;
            let job = |tid, scratch: &mut WorkerScratch| shared.worker(tid, barrier, scratch);
            match &mut self.runner {
                GroupRunner::Pool(pool) => pool.run(&job),
                GroupRunner::Lane(lane, scratch) => lane.run(&job, scratch),
            }
        }
        shared.finish()
    }

    /// Answers one [`BatchQuery`]: seeds its kernel and result set from
    /// the approximate search, then [`WorkerGroup::run_seeded`].
    pub(super) fn execute(
        &mut self,
        query_id: usize,
        query: &BatchQuery,
        params: &SearchParams,
        estimate: Option<f64>,
    ) -> BatchItem {
        let (index, q) = (self.index, query.data);
        let nn = |bsf: &SharedBsf| BatchAnswer::Nn(bsf.answer());
        match query.kind {
            QueryKind::Exact => self.run_seeded(query_id, seed_ed(index, q), params, estimate, nn),
            QueryKind::Knn(k) => {
                let knn = |set: &SharedKnn| BatchAnswer::Knn(set.snapshot());
                self.run_seeded(query_id, seed_knn(index, q, k), params, estimate, knn)
            }
            QueryKind::Dtw(w) => {
                self.run_seeded(query_id, seed_dtw(index, q, w), params, estimate, nn)
            }
        }
    }

    /// Runs a seeded `(kernel, result set, seed bound)` query: admits
    /// it with the steal service under `query_id`, runs it over every
    /// RS-batch, records its seed bound, reports it to the observer and
    /// reads the `answer` off the result set.
    fn run_seeded<K: QueryKernel, S: ResultSet + Send + Sync + 'static>(
        &mut self,
        query_id: usize,
        (kernel, results, initial_bsf): (K, S, f64),
        params: &SearchParams,
        estimate: Option<f64>,
        answer: impl FnOnce(&S) -> BatchAnswer,
    ) -> BatchItem {
        let results = Arc::new(results);
        let shared = Arc::clone(&results) as Arc<dyn ResultSet + Send + Sync>;
        let grant = self.registry.register_estimated(query_id, self.width, shared, estimate);
        let mut stats = self.run_query(&kernel, params, &*results, None, &grant, &|_, _| {});
        drop(grant);
        stats.initial_bsf = initial_bsf;
        self.registry.observe(query_id, &stats);
        BatchItem {
            answer: answer(&results),
            stats,
        }
    }
}

// ---------------------------------------------------------------------
// The steal service
// ---------------------------------------------------------------------

/// The cooperative steal-service hook installed into a
/// [`StealRegistry`]: invoked by every search worker between queue
/// claims (and by a node's manager thread), with the registry to serve
/// from. The distributed layer installs a hook that drains its
/// steal-request channel and answers each request via
/// [`StealRegistry::serve_steal`].
pub type StealServiceHook = Arc<dyn Fn(&StealRegistry) + Send + Sync>;

/// The per-query feedback observer installed into a [`StealRegistry`]:
/// invoked with `(query_id, stats)` after **every** query the engine
/// answers — full-pool or lane — so the scheduling layer can append
/// `(initial BSF, observed time)` samples to its online predictors
/// without the core crate depending on them. Calibration probes are
/// not reported (they measure the machine, not the traffic).
pub type QueryObserver = Arc<dyn Fn(usize, &SearchStats) + Send + Sync>;

/// Work handed to a thief by [`StealRegistry::serve_steal`].
#[derive(Debug, Clone)]
pub struct StolenWork {
    /// The victim query's caller-assigned id (its batch index).
    pub query_id: usize,
    /// Global RS-batch ids the thief should process.
    pub batch_ids: Vec<usize>,
    /// The victim query's current pruning threshold (squared BSF).
    pub bsf_sq: f64,
}

/// Progress snapshot of one in-flight query (diagnostics).
#[derive(Debug, Clone)]
pub struct InflightInfo {
    /// Caller-assigned query id.
    pub query_id: usize,
    /// Worker-group width the query runs at.
    pub width: usize,
    /// Claimed queues of the processing phase.
    pub claimed: usize,
    /// Total queues of the processing phase.
    pub total: usize,
    /// Whether the query is in the (stealable) processing phase.
    pub processing: bool,
}

struct InflightEntry {
    token: u64,
    query_id: usize,
    width: usize,
    view: Arc<StealView>,
    results: Arc<dyn ResultSet + Send + Sync>,
    /// Predicted total cost of the query (scheduler estimate), if the
    /// admitting layer attached one; weights steal-victim selection.
    estimate: Option<f64>,
}

/// Cap on recycled [`StealView`] allocations parked in the registry.
const MAX_SPARE_VIEWS: usize = 32;

/// The engine-resident steal service: tracks every in-flight query of a
/// [`BatchEngine`] — full-pool or lane — with its [`StealView`], its
/// worker-group width, and (via the view) its processing progress.
///
/// The registry replaces the per-query "active slot" side channel: a
/// work-stealing manager serves a steal request by asking the registry,
/// which picks a victim among **all** in-flight queries — the one with
/// the widest remaining work (most unclaimed queues, ties broken by
/// wider lane) — so stealing composes with concurrent lanes instead of
/// requiring one active full-pool query per node.
///
/// Views are allocated and recycled here: registration hands out a
/// fresh (or reset) [`StealView`], and dropping the returned
/// [`InflightQuery`] grant returns the allocation for the next query.
#[derive(Default)]
pub struct StealRegistry {
    inflight: Mutex<Vec<InflightEntry>>,
    spare_views: Mutex<Vec<StealView>>,
    hook: RwLock<Option<StealServiceHook>>,
    observer: RwLock<Option<QueryObserver>>,
    next_token: AtomicU64,
    /// While set, [`StealRegistry::serve_steal`] serves nothing. The
    /// engine pauses serving during warmup calibration: probe queries
    /// register like any in-flight query (they run through the normal
    /// lane machinery), but handing their RS-batches to a thief would
    /// let the thief execute them under a *real* query's id — probes
    /// are measurement, not stealable work.
    paused: AtomicBool,
}

impl std::fmt::Debug for StealRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StealRegistry")
            .field("in_flight", &self.in_flight())
            .field("spare_views", &self.spare_view_count())
            .finish_non_exhaustive()
    }
}

impl StealRegistry {
    /// Registers one in-flight query: `query_id` is the caller's id for
    /// it (reported to thieves), `width` its worker-group width, and
    /// `results` the live result set whose threshold a steal response
    /// reports as the victim's current BSF. Returns the execution grant;
    /// the query stays visible to the service until the grant drops.
    pub fn register(
        self: &Arc<Self>,
        query_id: usize,
        width: usize,
        results: Arc<dyn ResultSet + Send + Sync>,
    ) -> InflightQuery {
        self.register_estimated(query_id, width, results, None)
    }

    /// [`StealRegistry::register`] with a scheduler cost estimate
    /// attached: [`StealRegistry::serve_steal`] weights victims by
    /// estimated remaining work (estimate × unclaimed queue fraction)
    /// when estimates are present, falling back to raw unclaimed-queue
    /// counts for queries admitted without one.
    pub fn register_estimated(
        self: &Arc<Self>,
        query_id: usize,
        width: usize,
        results: Arc<dyn ResultSet + Send + Sync>,
        estimate: Option<f64>,
    ) -> InflightQuery {
        let view = {
            let mut spares = lock_plain(&self.spare_views);
            spares.pop().unwrap_or_default()
        };
        let view = Arc::new(view);
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        lock_plain(&self.inflight).push(InflightEntry {
            token,
            query_id,
            width,
            view: Arc::clone(&view),
            results,
            estimate: estimate.filter(|e| e.is_finite() && *e > 0.0),
        });
        InflightQuery {
            registry: Arc::clone(self),
            view: Some(view),
            token,
            query_id,
        }
    }

    /// Number of currently registered queries.
    pub fn in_flight(&self) -> usize {
        lock_plain(&self.inflight).len()
    }

    /// Progress snapshot of every registered query (diagnostics).
    pub fn snapshot(&self) -> Vec<InflightInfo> {
        lock_plain(&self.inflight)
            .iter()
            .map(|e| {
                let (claimed, total) = e.view.queue_progress();
                InflightInfo {
                    query_id: e.query_id,
                    width: e.width,
                    claimed,
                    total,
                    processing: e.view.is_processing(),
                }
            })
            .collect()
    }

    /// Installs the cooperative service hook. Search workers invoke it
    /// between queue claims for **every** query the engine runs (pool or
    /// lane), so pending steal requests are served even while the
    /// serving node is itself mid-query.
    pub fn install_service(&self, hook: StealServiceHook) {
        *self.hook.write().unwrap_or_else(PoisonError::into_inner) = Some(hook);
    }

    /// Removes the installed service hook.
    pub fn clear_service(&self) {
        *self.hook.write().unwrap_or_else(PoisonError::into_inner) = None;
    }

    /// The installed hook, if any (cloned once per query execution).
    pub(crate) fn service_hook(&self) -> Option<StealServiceHook> {
        self.hook
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Invokes the installed service hook once (no-op without one).
    pub fn service(&self) {
        if let Some(h) = self.service_hook() {
            h(self);
        }
    }

    /// Pauses or resumes steal serving (see the `paused` field docs);
    /// while paused, [`StealRegistry::serve_steal`] returns `None`.
    pub fn set_steal_paused(&self, paused: bool) {
        self.paused.store(paused, Ordering::Release);
    }

    /// Installs the per-query feedback observer: invoked with
    /// `(query_id, stats)` after every query answered through the
    /// owning engine (pool entry points and lane execution alike).
    pub fn install_observer(&self, observer: QueryObserver) {
        *self
            .observer
            .write()
            .unwrap_or_else(PoisonError::into_inner) = Some(observer);
    }

    /// Removes the installed feedback observer.
    pub fn clear_observer(&self) {
        *self
            .observer
            .write()
            .unwrap_or_else(PoisonError::into_inner) = None;
    }

    /// Reports one finished query to the installed observer (no-op
    /// without one). Called by the engine after every answered query.
    pub fn observe(&self, query_id: usize, stats: &SearchStats) {
        let obs = self
            .observer
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        if let Some(o) = obs {
            o(query_id, stats);
        }
    }

    /// Serves one steal request against the registry: picks the victim
    /// with the **most estimated remaining work**. When the admitting
    /// layer attached a cost estimate, remaining work is the estimate
    /// scaled by the unclaimed queue fraction — a nearly-drained
    /// expensive query ranks below a barely-started cheap one, which raw
    /// queue counts get wrong. Estimated victims outrank unestimated
    /// ones; among unestimated victims (and as the tie-break everywhere)
    /// the original ordering applies — most unclaimed processing queues
    /// first, ties broken by wider worker group, then by registration
    /// order. Takes away up to `nsend` of the victim's RS-batches (the
    /// Take-Away property is enforced by [`StealView::try_steal`]),
    /// falls through to the next candidate when a race leaves the first
    /// with nothing stealable, and returns `None` when no in-flight
    /// query has stealable work.
    pub fn serve_steal(&self, nsend: usize) -> Option<StolenWork> {
        if self.paused.load(Ordering::Acquire) {
            return None;
        }
        struct Candidate {
            /// Estimated remaining work: cost estimate × unclaimed
            /// fraction, when an estimate was attached at admission.
            score: Option<f64>,
            remaining: usize,
            width: usize,
            token: u64,
            view: Arc<StealView>,
            query_id: usize,
            results: Arc<dyn ResultSet + Send + Sync>,
        }
        let mut candidates: Vec<Candidate> = {
            let inflight = lock_plain(&self.inflight);
            inflight
                .iter()
                .filter(|e| e.view.is_processing())
                .filter_map(|e| {
                    let (claimed, total) = e.view.queue_progress();
                    let remaining = total - claimed;
                    (remaining > 0).then(|| Candidate {
                        score: e
                            .estimate
                            .map(|est| est * remaining as f64 / total.max(1) as f64),
                        remaining,
                        width: e.width,
                        token: e.token,
                        view: Arc::clone(&e.view),
                        query_id: e.query_id,
                        results: Arc::clone(&e.results),
                    })
                })
                .collect()
        };
        candidates.sort_by(|a, b| {
            // Estimated remaining work first (higher is better; queries
            // without an estimate sort after every estimated one), then
            // the estimate-free ordering as the fallback and tie-break.
            let sa = a.score.unwrap_or(f64::NEG_INFINITY);
            let sb = b.score.unwrap_or(f64::NEG_INFINITY);
            sb.partial_cmp(&sa)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(b.remaining.cmp(&a.remaining))
                .then(b.width.cmp(&a.width))
                .then(a.token.cmp(&b.token))
        });
        for c in candidates {
            let batch_ids = c.view.try_steal(nsend);
            if !batch_ids.is_empty() {
                // Read the victim's bound *after* the successful steal:
                // the latest (tightest) value seeds the thief with the
                // most pruning power.
                return Some(StolenWork {
                    query_id: c.query_id,
                    batch_ids,
                    bsf_sq: c.results.threshold_sq(),
                });
            }
        }
        None
    }

    /// Test/diagnostic helper: recycled view allocations currently
    /// parked in the registry.
    #[doc(hidden)]
    pub fn spare_view_count(&self) -> usize {
        lock_plain(&self.spare_views).len()
    }

    fn deregister(&self, token: u64, view: Arc<StealView>) {
        {
            let mut inflight = lock_plain(&self.inflight);
            let before = inflight.len();
            inflight.retain(|e| e.token != token);
            // Contract check: every grant deregisters exactly the entry
            // it registered — a miss means a double drop or a token
            // collision, both protocol violations.
            debug_assert_eq!(
                before - inflight.len(),
                1,
                "InflightQuery deregistered a query the registry does not hold"
            );
        }
        // Recycle the view allocation if this was the last reference
        // (a manager holding a snapshot clone just forfeits the spare).
        if let Ok(mut view) = Arc::try_unwrap(view) {
            view.reset();
            let mut spares = lock_plain(&self.spare_views);
            if spares.len() < MAX_SPARE_VIEWS {
                spares.push(view);
            }
        }
    }
}

/// Recovers a guard from a (practically unreachable) poisoned registry
/// lock: the registry's critical sections are trivial state updates.
fn lock_plain<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The execution grant of one registered query: carries the
/// engine-allocated [`StealView`] the query runs under. Dropping the
/// grant deregisters the query from the [`StealRegistry`] (it can no
/// longer be chosen as a steal victim) and recycles the view.
pub struct InflightQuery {
    registry: Arc<StealRegistry>,
    view: Option<Arc<StealView>>,
    token: u64,
    query_id: usize,
}

impl std::fmt::Debug for InflightQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InflightQuery")
            .field("query_id", &self.query_id)
            .field("token", &self.token)
            .finish_non_exhaustive()
    }
}

impl InflightQuery {
    /// The steal view this query executes under.
    pub fn view(&self) -> &Arc<StealView> {
        self.view.as_ref().expect("view present until drop")
    }

    /// The caller-assigned query id.
    pub fn query_id(&self) -> usize {
        self.query_id
    }
}

impl Drop for InflightQuery {
    fn drop(&mut self) {
        if let Some(view) = self.view.take() {
            self.registry.deregister(self.token, view);
        }
    }
}

// ---------------------------------------------------------------------
// The persistent pool
// ---------------------------------------------------------------------

/// A borrowed job: the per-thread engine body of one query.
pub(crate) type JobRef<'f> = &'f (dyn Fn(usize, &mut WorkerScratch) + Sync + 'f);

/// The lifetime-erased job handle published to resident workers (and to
/// lane followers in the `multiq` runtime). The `'static` is a lie told
/// by [`erase_job`]; see its safety note.
#[derive(Clone, Copy)]
pub(crate) struct Job(pub(crate) &'static (dyn Fn(usize, &mut WorkerScratch) + Sync + 'static));

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Job(..)")
    }
}

/// Erases the borrow lifetime of a job closure.
///
/// # Safety contract
///
/// Upheld by [`WorkerPool::run`] and the lane runtime in `multiq`: the
/// returned `Job` must not be invoked after the publishing call
/// returns — both drivers block until every participant has finished
/// the job and clear the slot, so the erased borrow never outlives the
/// real one. In debug builds the drivers additionally overwrite the
/// cleared slot with [`poisoned_job`], so a protocol violation aborts
/// loudly instead of dereferencing a dead stack frame.
///
/// This is the **only** permitted `transmute` in the workspace
/// (enforced by `cargo run -p xtask -- lint`).
pub(crate) fn erase_job(f: JobRef<'_>) -> Job {
    // SAFETY: only extends the closure borrow's lifetime ('_ -> 'static,
    // same fat-pointer layout). The publishing driver guarantees the
    // erased reference is never dereferenced after the real borrow ends:
    // it blocks until every participant finished the job, then clears
    // (and in debug builds poisons) the published slot.
    Job(unsafe {
        std::mem::transmute::<JobRef<'_>, &'static (dyn Fn(usize, &mut WorkerScratch) + Sync)>(f)
    })
}

/// A canary job written into a cleared job slot by the drivers in debug
/// builds: any late pickup of a stale job — an epoch-protocol bug that
/// would otherwise silently dereference a dead stack frame through the
/// lifetime-erased pointer — invokes this instead and aborts loudly.
#[cfg(debug_assertions)]
pub(crate) fn poisoned_job() -> Job {
    Job(&|_tid, _scratch| {
        panic!(
            "job canary invoked: a worker picked up an erased job after its \
             round completed (pool/lane epoch protocol violated)"
        )
    })
}

struct PoolState {
    /// Bumped per job; workers detect new work by epoch change.
    epoch: u64,
    job: Option<Job>,
    /// Resident workers still executing the current job.
    remaining: usize,
    panicked: bool,
    shutdown: bool,
}

struct PoolInner {
    state: Mutex<PoolState>,
    /// Workers wait here for the next job.
    work_cv: Condvar,
    /// The submitter waits here for job completion.
    done_cv: Condvar,
    /// Phase barrier shared by all jobs (`n_threads` parties: the
    /// resident workers plus the submitting thread). Poisoned when a
    /// participant panics mid-job so the survivors abort the round
    /// instead of deadlocking; reset by the submitter after the pool
    /// drains.
    barrier: PhaseBarrier,
}

/// A fixed-size persistent thread pool executing one type-erased job at
/// a time on **all** threads (the submitter participates as tid 0).
pub(super) struct WorkerPool {
    inner: Arc<PoolInner>,
    /// Scratch of the submitting thread (tid 0). Locking it first also
    /// serializes concurrent `run` calls.
    caller_scratch: Mutex<WorkerScratch>,
    handles: Vec<JoinHandle<()>>,
    n_threads: usize,
}

impl WorkerPool {
    /// Creates the pool. `prefault` is the scratch-arena warmup size
    /// (the index's leaf capacity): every worker faults its arena pages
    /// on its own pinned thread right after pinning, so first-touch
    /// places them on the worker's local NUMA node — each lane's
    /// contiguous core block then works out of node-local scratch
    /// instead of pages owned by whichever thread built the engine.
    fn new(n_threads: usize, prefault: usize) -> Self {
        let inner = Arc::new(PoolInner {
            state: Mutex::new(PoolState {
                epoch: 0,
                job: None,
                remaining: 0,
                panicked: false,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            barrier: PhaseBarrier::new(n_threads),
        });
        // Reserve a contiguous block of target cores for this pool's
        // resident workers: lanes are contiguous tid ranges, so a
        // lane's workers land on adjacent cores (the pinning unit is
        // the lane, not a flat process-wide `tid % ncpu` round-robin) —
        // the first step toward a NUMA-aware layout where a lane stays
        // inside one domain. The submitter (tid 0) stays unpinned as
        // before — it is the caller's thread, not the engine's — so
        // only the `n_threads - 1` worker slots are reserved.
        let core_base = reserve_core_block(n_threads.saturating_sub(1));
        let handles = (1..n_threads)
            .map(|tid| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("odyssey-engine-{tid}"))
                    .spawn(move || worker_main(&inner, tid, core_base, prefault))
                    .expect("spawn batch-engine worker")
            })
            .collect();
        // The submitter's scratch is faulted here, on the (unpinned)
        // constructing thread — it is that thread's scratch.
        let mut caller_scratch = WorkerScratch::default();
        caller_scratch.prefault(prefault);
        WorkerPool {
            inner,
            caller_scratch: Mutex::new(caller_scratch),
            handles,
            n_threads,
        }
    }

    /// Runs `f(tid, scratch)` once on every pool thread (the caller
    /// executes tid 0 inline) and returns when all are done.
    pub(super) fn run(&self, f: JobRef<'_>) {
        // Taking the caller scratch first serializes submissions.
        let mut scratch = self
            .caller_scratch
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let resident = self.handles.len();
        if resident > 0 {
            let mut st = lock_plain(&self.inner.state);
            debug_assert!(st.remaining == 0, "one job at a time");
            st.epoch += 1;
            st.job = Some(erase_job(f));
            st.remaining = resident;
            drop(st);
            self.inner.work_cv.notify_all();
        }
        // The caller's unwind must NOT escape before every worker has
        // finished the job: the erased `Job` borrows `f`'s closure (and
        // everything it captures) from frames above this one, so an
        // early unwind would leave workers dereferencing a dead stack.
        // Catch, poison the phase barrier (workers may be blocked there
        // waiting for the caller — the pre-barrier-panic deadlock),
        // wait for the pool to drain, then resume.
        let caller_outcome = catch_unwind(AssertUnwindSafe(|| f(0, &mut scratch)));
        if caller_outcome.is_err() {
            self.inner.barrier.poison();
        }
        let mut worker_panicked = false;
        if resident > 0 {
            let mut st = lock_plain(&self.inner.state);
            while st.remaining > 0 {
                st = self
                    .inner
                    .done_cv
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            // Clear the slot; in debug builds replace the erased job
            // with a canary so any late pickup aborts loudly instead of
            // dereferencing this (now dead) stack frame.
            st.job = None;
            #[cfg(debug_assertions)]
            {
                st.job = Some(poisoned_job());
            }
            worker_panicked = std::mem::take(&mut st.panicked);
        }
        drop(scratch);
        // Every participant is out of the job (and out of the barrier),
        // so a poisoned barrier can be safely rearmed for the next job.
        if self.inner.barrier.is_poisoned() {
            self.inner.barrier.reset();
        }
        if let Err(payload) = caller_outcome {
            std::panic::resume_unwind(payload);
        }
        if worker_panicked {
            panic!("a batch-engine worker panicked while executing a query");
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = lock_plain(&self.inner.state);
            st.shutdown = true;
        }
        self.inner.work_cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Resident-worker main loop: pin, prefault scratch, then run jobs
/// until shutdown.
fn worker_main(inner: &PoolInner, tid: usize, core_base: usize, prefault: usize) {
    // Workers have tids 1..n; tid 0 (the unpinned submitter) owns no
    // reserved slot, so the block packs without holes.
    pin_to_core(core_base + tid - 1);
    // First-touch *after* pinning: the arena pages are faulted by this
    // worker on its own core, so they land on its local NUMA node.
    let mut scratch = WorkerScratch::default();
    scratch.prefault(prefault);
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut st = lock_plain(&inner.state);
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen_epoch {
                    seen_epoch = st.epoch;
                    break st.job.expect("job published with its epoch");
                }
                st = inner
                    .work_cv
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| (job.0)(tid, &mut scratch)));
        if outcome.is_err() {
            // Poison before reporting completion: siblings blocked at a
            // phase barrier must abort the round instead of waiting for
            // this worker's (never-coming) arrival.
            inner.barrier.poison();
        }
        let mut st = lock_plain(&inner.state);
        if outcome.is_err() {
            st.panicked = true;
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            inner.done_cv.notify_one();
        }
    }
}

/// Reserves a **contiguous** block of `n` target cores, process-wide,
/// so the many engines a cluster simulation creates (one per node) get
/// disjoint blocks instead of stacking every engine's worker `i` onto
/// the same core — and so each engine's workers (and therefore each
/// lane's contiguous tid range) occupy adjacent cores. Wraps modulo the
/// host core count in [`pin_to_core`].
fn reserve_core_block(n: usize) -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    NEXT.fetch_add(n, Ordering::Relaxed)
}

/// Best-effort thread pinning (Linux only; a failed or unsupported call
/// is silently ignored — pinning is an optimization, not a contract).
/// Compiled out under Miri, which cannot execute foreign calls.
#[cfg(all(target_os = "linux", not(miri)))]
fn pin_to_core(core: usize) {
    let ncpu = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let core = core % ncpu;
    // Mirrors glibc's `cpu_set_t` (1024 bits).
    #[repr(C)]
    struct CpuSet {
        bits: [u64; 16],
    }
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    }
    let core = core % 1024;
    let mut set = CpuSet { bits: [0; 16] };
    set.bits[core / 64] |= 1u64 << (core % 64);
    // SAFETY: passes a properly sized, initialized mask for the calling
    // thread (pid 0); the kernel copies it and keeps no reference.
    let _ = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
}

#[cfg(any(not(target_os = "linux"), miri))]
fn pin_to_core(_core: usize) {}

#[cfg(test)]
mod tests {
    use super::super::multiq::uniform_widths;
    use super::*;
    use crate::index::IndexConfig;
    use crate::series::DatasetBuffer;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn walk_dataset(n: usize, len: usize, seed: u64) -> DatasetBuffer {
        let mut x = seed | 1;
        let mut data = Vec::with_capacity(n * len);
        for _ in 0..n {
            let mut acc = 0.0f32;
            let mut s = Vec::with_capacity(len);
            for _ in 0..len {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                acc += ((x % 2000) as f32 / 1000.0) - 1.0;
                s.push(acc);
            }
            crate::series::znormalize(&mut s);
            data.extend_from_slice(&s);
        }
        DatasetBuffer::from_vec(data, len)
    }

    fn build(n: usize) -> Arc<Index> {
        Arc::new(Index::build(
            walk_dataset(n, 64, 33),
            IndexConfig::new(64).with_segments(8).with_leaf_capacity(24),
            2,
        ))
    }

    #[test]
    fn pool_runs_job_on_every_thread() {
        for n in [1usize, 2, 4] {
            let pool = WorkerPool::new(n, 64);
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            for _ in 0..3 {
                pool.run(&|tid, _scratch| {
                    hits[tid].fetch_add(1, Ordering::Relaxed);
                });
            }
            for (tid, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 3, "n={n} tid={tid}");
            }
        }
    }

    #[test]
    fn engine_exact_matches_per_query_path_and_brute_force() {
        let idx = build(1200);
        let engine = BatchEngine::new(Arc::clone(&idx), 2);
        let inline = BatchEngine::new(Arc::clone(&idx), 1);
        let params = SearchParams::new(2);
        for qseed in [7u64, 77, 777] {
            let q = walk_dataset(1, 64, qseed).series(0).to_vec();
            let want = idx.brute_force(&q);
            let single = inline.exact(&q, &params);
            let pooled = engine.exact(&q, &params);
            // Brute force sums in a different lane order than the
            // early-abandoning kernel: compare with tolerance there,
            // but bit-exact against the 1-thread (inline) engine.
            assert!(
                (pooled.answer.distance - want.distance).abs() < 1e-9,
                "qseed={qseed}: engine vs brute force"
            );
            assert_eq!(
                pooled.answer.distance.to_bits(),
                single.answer.distance.to_bits(),
                "qseed={qseed}: pool vs inline engine"
            );
        }
    }

    #[test]
    fn dtw_knn_matches_brute_force_top_k() {
        let idx = build(400);
        let q = walk_dataset(1, 64, 61).series(0).to_vec();
        let window = 3;
        let k = 5;
        // Oracle: all DTW distances, sorted.
        let mut all: Vec<f64> = (0..idx.num_series())
            .map(|i| {
                crate::distance::dtw_banded(&q, idx.series_by_id(i as u32), window, f64::INFINITY)
                    .expect("unbounded")
            })
            .collect();
        all.sort_by(f64::total_cmp);
        let engine = BatchEngine::new(Arc::clone(&idx), 2);
        let (got, stats) = engine.dtw_knn(&q, window, k, &SearchParams::new(2));
        assert_eq!(got.neighbors.len(), k);
        for (j, &want) in all.iter().take(k).enumerate() {
            assert!(
                (got.neighbors[j].0 - want).abs() < 1e-9,
                "rank {j}: {} vs {}",
                got.neighbors[j].0,
                want
            );
        }
        // The seed bound is a real k-th distance (infinite when the seed
        // leaf holds fewer than k series), never below the answer's.
        assert!(stats.initial_bsf * stats.initial_bsf >= got.neighbors[k - 1].0 - 1e-9);
    }

    #[test]
    fn engine_reuse_across_many_queries_stays_exact() {
        // Scratch arenas must not leak state between queries.
        let idx = build(900);
        let engine = BatchEngine::new(Arc::clone(&idx), 3);
        let params = SearchParams::new(3).with_th(16);
        for qseed in 0..12u64 {
            let q = walk_dataset(1, 64, 1000 + qseed).series(0).to_vec();
            let want = idx.brute_force(&q);
            let got = engine.exact(&q, &params);
            assert!(
                (got.answer.distance - want.distance).abs() < 1e-9,
                "qseed={qseed}"
            );
        }
    }

    #[test]
    fn run_batch_respects_order_and_returns_input_positions() {
        let idx = build(800);
        let engine = BatchEngine::new(Arc::clone(&idx), 2);
        let qdata: Vec<Vec<f32>> = (0..4)
            .map(|s| walk_dataset(1, 64, 500 + s).series(0).to_vec())
            .collect();
        let queries: Vec<BatchQuery> = qdata
            .iter()
            .map(|q| BatchQuery::new(q, QueryKind::Exact))
            .collect();
        let out = engine.run_batch(&queries, &[3, 1, 0, 2], &SearchParams::new(2));
        assert_eq!(out.items.len(), 4);
        for (qi, item) in out.items.iter().enumerate() {
            let want = idx.brute_force(&qdata[qi]);
            assert!((item.answer.nn().distance - want.distance).abs() < 1e-9, "qi={qi}");
        }
    }

    #[test]
    #[should_panic(expected = "repeats query")]
    fn run_batch_rejects_duplicate_order() {
        let idx = build(200);
        let engine = BatchEngine::new(idx, 1);
        let q = walk_dataset(1, 64, 9).series(0).to_vec();
        let queries = [
            BatchQuery::new(&q, QueryKind::Exact),
            BatchQuery::new(&q, QueryKind::Exact),
        ];
        let _ = engine.run_batch(&queries, &[0, 0], &SearchParams::new(1));
    }

    #[test]
    fn empty_batch_is_fine() {
        let idx = build(200);
        let engine = BatchEngine::new(idx, 2);
        let out = engine.run_batch(&[], &[], &SearchParams::new(2));
        assert!(out.items.is_empty());
    }

    #[test]
    #[should_panic(expected = "lane width must be at least 1")]
    fn run_dispatch_rejects_zero_width_lane() {
        let engine = BatchEngine::new(build(200), 2);
        engine.run_dispatch(&[2, 0], &|_, _| {});
    }

    #[test]
    #[should_panic(expected = "exactly partition the 4-thread pool")]
    fn run_dispatch_rejects_widths_not_summing_to_pool() {
        let engine = BatchEngine::new(build(200), 4);
        engine.run_dispatch(&[2, 1], &|_, _| {});
    }

    /// Answers `queries` on dispatch lanes of `uniform_widths(pool,
    /// width)`, each lane claiming the next query from a shared cursor
    /// as `run_batch` does. Items come back in input order.
    fn dispatch_uniform(
        engine: &BatchEngine,
        queries: &[BatchQuery],
        width: usize,
        params: &SearchParams,
    ) -> Vec<BatchItem> {
        let items: Vec<OnceLock<BatchItem>> = (0..queries.len()).map(|_| OnceLock::new()).collect();
        let next = AtomicUsize::new(0);
        engine.run_dispatch(&uniform_widths(engine.n_threads(), width), &|ctx, _lane| {
            loop {
                let qi = next.fetch_add(1, Ordering::Relaxed);
                let Some(q) = queries.get(qi) else { break };
                let _ = items[qi].set(ctx.execute(qi, q, params));
            }
        });
        items.into_iter().map(|s| s.into_inner().expect("every query claimed")).collect()
    }

    #[test]
    fn concurrent_lanes_match_sequential_batch() {
        let idx = build(1000);
        let qdata: Vec<Vec<f32>> = (0..6)
            .map(|s| walk_dataset(1, 64, 700 + s).series(0).to_vec())
            .collect();
        let queries: Vec<BatchQuery> = qdata
            .iter()
            .map(|q| BatchQuery::new(q, QueryKind::Exact))
            .collect();
        for threads in [1usize, 3, 4] {
            let engine = BatchEngine::new(Arc::clone(&idx), threads);
            let params = SearchParams::new(threads).with_th(16);
            // The reference: each query alone on the full pool.
            let want: Vec<u64> = qdata
                .iter()
                .map(|q| engine.exact(q, &params).answer.distance.to_bits())
                .collect();
            for width in 1..=threads {
                let conc = dispatch_uniform(&engine, &queries, width, &params);
                for (qi, w) in want.iter().enumerate() {
                    assert_eq!(
                        conc[qi].answer.nn().distance.to_bits(),
                        *w,
                        "threads={threads} width={width} qi={qi}"
                    );
                }
            }
        }
    }

    #[test]
    fn batch_widths_split_the_pool_evenly_one_lane_per_query() {
        let idx = build(200);
        for pool in 1..=8usize {
            let engine = BatchEngine::new(Arc::clone(&idx), pool);
            assert!(engine.batch_widths(0).is_empty(), "pool={pool}");
            assert_eq!(engine.batch_widths(1), vec![pool], "one query keeps the pool");
            for n in 1..=3 * pool {
                let w = engine.batch_widths(n);
                assert_eq!(w.len(), pool.min(n), "pool={pool} n={n}");
                assert_eq!(w.iter().sum::<usize>(), pool, "pool={pool} n={n}");
                assert!(w.windows(2).all(|p| p[0] >= p[1] && p[0] - p[1] <= 1));
            }
        }
        let engine = BatchEngine::new(idx, 8);
        assert_eq!(engine.batch_widths(3), vec![3, 3, 2]);
        assert_eq!(engine.batch_widths(7), vec![2, 1, 1, 1, 1, 1, 1]);
        assert_eq!(engine.batch_widths(20), vec![1; 8]);
    }

    #[test]
    fn per_query_params_override_batch_params() {
        // A tiny per-query TH must not change the (exact) answer, and
        // the override must actually be applied: with th=1 the engine
        // produces more, smaller queues than the batch-wide th.
        let idx = build(900);
        let engine = BatchEngine::new(Arc::clone(&idx), 2);
        let q = walk_dataset(1, 64, 4242).series(0).to_vec();
        let batch = [
            BatchQuery::new(&q, QueryKind::Exact),
            BatchQuery::new(&q, QueryKind::Exact).with_params(SearchParams::new(2).with_th(1)),
        ];
        let out = engine.run_batch(&batch, &[0, 1], &SearchParams::new(2).with_th(usize::MAX));
        assert_eq!(
            out.items[0].answer.nn().distance.to_bits(),
            out.items[1].answer.nn().distance.to_bits()
        );
        assert!(
            out.items[1].stats.pq_count > out.items[0].stats.pq_count,
            "th=1 must split queues: {} vs {}",
            out.items[1].stats.pq_count,
            out.items[0].stats.pq_count
        );
    }

    use super::super::bsf::SharedBsf;

    fn fake_inflight(
        registry: &Arc<StealRegistry>,
        query_id: usize,
        width: usize,
        bsf_sq: f64,
        queues: usize,
    ) -> InflightQuery {
        let grant = registry.register(
            query_id,
            width,
            Arc::new(SharedBsf::new(bsf_sq, None)) as Arc<dyn ResultSet + Send + Sync>,
        );
        grant.view().test_init(queues);
        grant.view().test_publish((0..queues).collect());
        grant
    }

    #[test]
    fn registry_serves_widest_remaining_victim_first() {
        let registry = Arc::new(StealRegistry::default());
        assert!(registry.serve_steal(4).is_none(), "empty registry");
        let small = fake_inflight(&registry, 1, 1, 10.0, 2);
        let big = fake_inflight(&registry, 2, 4, 20.0, 6);
        assert_eq!(registry.in_flight(), 2);
        let w = registry.serve_steal(2).expect("stealable work");
        assert_eq!(w.query_id, 2, "most remaining queues wins");
        assert_eq!(w.batch_ids, vec![5, 4], "rightmost batches, Nsend=2");
        assert_eq!(w.bsf_sq, 20.0);
        // After the big query finishes, the small one becomes the victim.
        big.view().test_finish();
        drop(big);
        let w = registry.serve_steal(8).expect("small query still live");
        assert_eq!(w.query_id, 1);
        assert_eq!(w.batch_ids, vec![1, 0]);
        // Everything stolen: nothing left to serve.
        assert!(registry.serve_steal(1).is_none());
        drop(small);
        assert_eq!(registry.in_flight(), 0);
    }

    fn fake_inflight_estimated(
        registry: &Arc<StealRegistry>,
        query_id: usize,
        width: usize,
        queues: usize,
        estimate: Option<f64>,
    ) -> InflightQuery {
        let grant = registry.register_estimated(
            query_id,
            width,
            Arc::new(SharedBsf::new(1.0, None)) as Arc<dyn ResultSet + Send + Sync>,
            estimate,
        );
        grant.view().test_init(queues);
        grant.view().test_publish((0..queues).collect());
        grant
    }

    #[test]
    fn paused_registry_serves_nothing_until_resumed() {
        let registry = Arc::new(StealRegistry::default());
        let _q = fake_inflight(&registry, 1, 2, 10.0, 4);
        registry.set_steal_paused(true);
        assert!(registry.serve_steal(2).is_none(), "paused: no victims");
        registry.set_steal_paused(false);
        assert!(registry.serve_steal(2).is_some(), "resumed: steals flow");
    }

    #[test]
    fn registry_weights_victims_by_estimated_remaining_work() {
        let registry = Arc::new(StealRegistry::default());
        // Cheap query with many queues vs expensive query with few: raw
        // queue counts would pick query 1, the cost-aware ranking picks
        // the expensive query 2 (100.0 × 1.0 > 1.0 × 1.0).
        let _cheap = fake_inflight_estimated(&registry, 1, 2, 6, Some(1.0));
        let _dear = fake_inflight_estimated(&registry, 2, 2, 2, Some(100.0));
        let w = registry.serve_steal(1).expect("stealable");
        assert_eq!(w.query_id, 2, "estimated remaining work wins");
    }

    #[test]
    fn registry_ranks_estimated_victims_above_unestimated() {
        let registry = Arc::new(StealRegistry::default());
        let _plain = fake_inflight_estimated(&registry, 1, 2, 8, None);
        let _est = fake_inflight_estimated(&registry, 2, 1, 2, Some(0.5));
        let w = registry.serve_steal(1).expect("stealable");
        assert_eq!(w.query_id, 2, "any estimate outranks no estimate");
    }

    #[test]
    fn registry_without_estimates_keeps_original_ordering() {
        let registry = Arc::new(StealRegistry::default());
        // Same shape as `registry_serves_widest_remaining_victim_first`,
        // admitted through the estimated path with `None` everywhere:
        // the ordering must be exactly the estimate-free one.
        let _small = fake_inflight_estimated(&registry, 1, 1, 2, None);
        let _big = fake_inflight_estimated(&registry, 2, 4, 6, None);
        let w = registry.serve_steal(2).expect("stealable work");
        assert_eq!(w.query_id, 2, "most remaining queues wins");
        assert_eq!(w.batch_ids, vec![5, 4]);
    }

    #[test]
    fn registry_ties_break_by_wider_lane() {
        let registry = Arc::new(StealRegistry::default());
        let _narrow = fake_inflight(&registry, 1, 1, 1.0, 4);
        let _wide = fake_inflight(&registry, 2, 3, 2.0, 4);
        let w = registry.serve_steal(1).expect("stealable");
        assert_eq!(w.query_id, 2, "equal remaining: wider lane wins");
    }

    #[test]
    fn registry_never_serves_finished_or_unpublished_queries() {
        let registry = Arc::new(StealRegistry::default());
        // Registered but still traversing: not stealable.
        let grant = registry.register(
            7,
            2,
            Arc::new(SharedBsf::new(1.0, None)) as Arc<dyn ResultSet + Send + Sync>,
        );
        grant.view().test_init(4);
        assert!(registry.serve_steal(4).is_none(), "traversal phase");
        grant.view().test_publish(vec![0, 1, 2, 3]);
        grant.view().test_finish();
        assert!(registry.serve_steal(4).is_none(), "done phase");
    }

    #[test]
    fn registry_recycles_views_across_registrations() {
        let registry = Arc::new(StealRegistry::default());
        let g = fake_inflight(&registry, 0, 1, 1.0, 3);
        assert_eq!(registry.spare_view_count(), 0);
        drop(g);
        assert_eq!(registry.spare_view_count(), 1, "view parked for reuse");
        // The recycled view comes back reset: a fresh registration can
        // re-init it at a different batch count and steal normally.
        let g = fake_inflight(&registry, 1, 1, 1.0, 5);
        assert_eq!(registry.spare_view_count(), 0, "spare taken");
        let w = registry.serve_steal(10).expect("recycled view serves");
        assert_eq!(w.batch_ids, vec![4, 3, 2, 1, 0]);
        drop(g);
    }

    #[test]
    fn installed_service_hook_fires_during_queries() {
        let idx = build(600);
        let engine = BatchEngine::new(Arc::clone(&idx), 2);
        let calls = Arc::new(AtomicUsize::new(0));
        {
            let calls = Arc::clone(&calls);
            engine.steal_registry().install_service(Arc::new(move |reg| {
                // The in-flight query is visible to the hook.
                assert!(reg.in_flight() >= 1);
                calls.fetch_add(1, Ordering::Relaxed);
            }));
        }
        let q = walk_dataset(1, 64, 99).series(0).to_vec();
        let out = engine.exact(&q, &SearchParams::new(2));
        assert!(
            (out.answer.distance - idx.brute_force(&q).distance).abs() < 1e-9,
            "hook must not disturb the answer"
        );
        assert!(
            calls.load(Ordering::Relaxed) > 0,
            "workers service the hook between queue claims"
        );
        engine.steal_registry().clear_service();
        let before = calls.load(Ordering::Relaxed);
        let _ = engine.exact(&q, &SearchParams::new(2));
        assert_eq!(calls.load(Ordering::Relaxed), before, "hook cleared");
        assert_eq!(engine.steal_registry().in_flight(), 0);
    }

    #[test]
    fn calibration_probes_expected_widths_and_caches() {
        let idx = build(600);
        let engine = BatchEngine::new(Arc::clone(&idx), 4);
        let samples = engine.calibrate().to_vec();
        let widths: Vec<usize> = samples.iter().map(|&(w, _)| w).collect();
        assert_eq!(widths, vec![1, 2, 4], "powers of two up to the pool");
        assert!(samples.iter().all(|&(_, t)| t > 0.0), "positive times");
        // Cached: a second call returns the same measurements.
        assert_eq!(engine.calibrate(), &samples[..]);
        // The probe machinery leaves the engine fully usable and exact.
        let q = walk_dataset(1, 64, 31).series(0).to_vec();
        let got = engine.exact(&q, &SearchParams::new(4));
        assert!((got.answer.distance - idx.brute_force(&q).distance).abs() < 1e-9);
        assert_eq!(engine.steal_registry().in_flight(), 0);
    }

    #[test]
    fn calibration_widths_include_non_power_of_two_pool() {
        let idx = build(300);
        let engine = BatchEngine::new(Arc::clone(&idx), 3);
        let widths: Vec<usize> = engine.calibrate().iter().map(|&(w, _)| w).collect();
        assert_eq!(widths, vec![1, 2, 3], "…plus the pool itself");
    }

    #[test]
    fn observer_fires_for_pool_and_lane_queries_without_probes() {
        let idx = build(700);
        let engine = BatchEngine::new(Arc::clone(&idx), 2);
        let seen: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
        {
            let seen = Arc::clone(&seen);
            engine
                .steal_registry()
                .install_observer(Arc::new(move |qid, stats| {
                    assert!(stats.elapsed > Duration::ZERO);
                    lock_plain(&seen).push(qid);
                }));
        }
        // Calibration probes must NOT be observed.
        let _ = engine.calibrate();
        assert!(lock_plain(&seen).is_empty(), "probes are not traffic");
        // Pool entry point observes under the caller-assigned id.
        let q = walk_dataset(1, 64, 17).series(0).to_vec();
        let _ = engine.exact(&q, &SearchParams::new(2));
        assert_eq!(lock_plain(&seen).as_slice(), &[0]);
        // Lane execution observes each batch query once.
        let qdata: Vec<Vec<f32>> = (0..3)
            .map(|s| walk_dataset(1, 64, 40 + s).series(0).to_vec())
            .collect();
        let queries: Vec<BatchQuery> = qdata
            .iter()
            .map(|q| BatchQuery::new(q, QueryKind::Exact))
            .collect();
        let _ = engine.run_batch(&queries, &[0, 1, 2], &SearchParams::new(2));
        let mut got = lock_plain(&seen).clone();
        got.sort_unstable();
        assert_eq!(got, vec![0, 0, 1, 2], "one observation per lane query");
        engine.steal_registry().clear_observer();
        let _ = engine.exact(&q, &SearchParams::new(2));
        assert_eq!(lock_plain(&seen).len(), 4, "observer cleared");
    }

    #[test]
    fn panicking_hook_deregisters_query_and_pool_survives() {
        use super::super::bsf::SharedBsf;
        let idx = build(900);
        let engine = BatchEngine::new(Arc::clone(&idx), 2);
        let params = SearchParams::new(2);
        let q = walk_dataset(1, 64, 4242).series(0).to_vec();

        // Seed the BSF at infinity so the very first candidate improves
        // it, guaranteeing the on_improve hook (and its panic) fires.
        let (kernel, _, _) = seed_ed(&idx, &q);
        let bsf = Arc::new(SharedBsf::new(f64::INFINITY, None));
        let grant = engine.admit(9, Arc::clone(&bsf) as Arc<dyn ResultSet + Send + Sync>);
        assert_eq!(engine.steal_registry().in_flight(), 1);

        let out = catch_unwind(AssertUnwindSafe(|| {
            engine.run_query(&kernel, &params, &*bsf, None, &grant, &|_, _| {
                panic!("on_improve hook panic (test)")
            })
        }));
        assert!(out.is_err(), "the hook panic must propagate to the caller");

        // The RAII grant deregisters the query even on the panic path.
        drop(grant);
        assert_eq!(
            engine.steal_registry().in_flight(),
            0,
            "a panicked query must not stay registered with the steal service"
        );

        // The pool's poisoned barrier was reset: the engine still
        // answers — and exactly (no worker deadlocked mid-phase).
        let want = idx.brute_force(&q);
        let got = engine.exact(&q, &params);
        assert!(
            (got.answer.distance - want.distance).abs() < 1e-9,
            "engine must stay usable after a mid-round panic"
        );
        assert_eq!(engine.steal_registry().in_flight(), 0);
    }
}
