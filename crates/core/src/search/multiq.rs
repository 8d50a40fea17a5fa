//! Inter-query concurrency: partitioned worker groups ("lanes").
//!
//! The per-query entry points of the
//! [`BatchEngine`](super::engine::BatchEngine) exploit only
//! *intra*-query parallelism: a query runs across all pool threads.
//! Odyssey's second axis is *inter*-query parallelism — the cluster
//! answers many queries at once across nodes, and a node whose
//! per-query speedup has saturated (easy queries, where setup and
//! synchronization dominate) should do the same across worker subsets.
//!
//! This module supplies the execution mechanism:
//!
//! * a [`ConcurrentPlan`] — *rounds* of *lanes*, where each lane is a
//!   disjoint worker group (its widths exactly partition the pool) that
//!   answers its assigned queries one at a time;
//! * a lane runtime giving every group its own [`PhaseBarrier`], its
//!   own job slot, and group-scoped ranks, so each in-flight query sees
//!   only its group's workers (and their [`WorkerScratch`] arenas);
//! * a [`LaneCtx`] handed to the per-lane driver on the group's rank-0
//!   worker, exposing [`LaneCtx::run_query`] — the exact same
//!   three-phase [`ExecShared`] body as the sequential paths, run at the
//!   lane's width. Answers are therefore bit-identical to the full-pool
//!   per-query entry points: exactness never depended on the thread
//!   count;
//! * **intra-round re-admission**: lane queues are shared, so a lane
//!   that drains early claims queries from the round's still-loaded
//!   lanes instead of idling at the round barrier
//!   ([`RoundSpec::readmission`]).
//!
//! Every lane query is registered with the engine's
//! [`StealRegistry`](super::engine::StealRegistry), so inter-node
//! work-stealing keeps operating while lanes are in flight: the lane
//! driver [`LaneCtx::admit`]s each query and workers serve pending
//! steal requests cooperatively mid-round.
//!
//! *Which* queries deserve which width is a policy question; the
//! `odyssey-sched` admission module builds plans from per-query cost
//! predictions (easy → narrow lane, hard → the full pool).

use super::bsf::ResultSet;
use super::engine::{
    erase_job, BatchAnswer, BatchItem, BatchQuery, InflightQuery, Job, JobRef, QueryKind,
    StealRegistry,
};
use super::exact::{seed_ed, ExecShared, SearchParams, SearchStats};
use super::kernel::QueryKernel;
use super::knn::seed_knn;
use super::scratch::WorkerScratch;
use crate::index::Index;
use crate::search::dtw_search::seed_dtw;
use crate::sync::PhaseBarrier;
#[cfg(debug_assertions)]
use super::engine::poisoned_job;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// One worker group of a [`RoundSpec`]: `width` pool threads answering
/// `queries` (engine-batch indices) one at a time, in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneSpec {
    /// Number of pool threads in this group (≥ 1).
    pub width: usize,
    /// Query indices this lane answers, in dispatch order.
    pub queries: Vec<usize>,
}

/// One execution round: lanes that run **concurrently** on disjoint
/// worker groups. Lane widths must exactly partition the engine pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundSpec {
    /// The round's lanes, assigned to pool threads in order: lane 0
    /// gets tids `0..w0`, lane 1 gets `w0..w0+w1`, and so on.
    pub lanes: Vec<LaneSpec>,
    /// Intra-round re-admission: a lane that drains its own queue early
    /// claims queued queries from the round's still-loaded lanes (most
    /// remaining first, taken from the victim's tail) instead of idling
    /// at the round barrier. Changes *where* a query runs, never its
    /// answer.
    pub readmission: bool,
}

impl RoundSpec {
    /// A round over the given lanes with re-admission enabled.
    pub fn new(lanes: Vec<LaneSpec>) -> Self {
        RoundSpec {
            lanes,
            readmission: true,
        }
    }

    /// Panics unless the lane widths exactly partition a `pool`-thread
    /// engine.
    pub fn validate_pool(&self, pool: usize) {
        let mut total = 0usize;
        for lane in &self.lanes {
            assert!(lane.width >= 1, "lane width must be at least 1");
            total += lane.width;
        }
        assert_eq!(
            total, pool,
            "lane widths must exactly partition the {pool}-thread pool"
        );
    }

    /// Debug-build re-validation at round start: the round's lanes must
    /// name pairwise-disjoint query sets — a duplicate would race two
    /// lanes on one result slot. [`ConcurrentPlan::validate`] checks
    /// this plan-wide, but the raw
    /// [`run_concurrent`](super::engine::BatchEngine::run_concurrent)
    /// surface accepts hand-built rounds, so the contract is re-checked
    /// where the unsafe lane machinery actually starts.
    #[cfg(debug_assertions)]
    pub(crate) fn debug_assert_disjoint_queries(&self) {
        let mut seen = std::collections::HashSet::new();
        for lane in &self.lanes {
            for &qi in &lane.queries {
                assert!(
                    seen.insert(qi),
                    "round names query {qi} in two lanes (double partition violated)"
                );
            }
        }
    }
}

/// A full concurrent-execution plan: rounds run one after another, the
/// lanes inside each round run simultaneously.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConcurrentPlan {
    /// The rounds, executed in order.
    pub rounds: Vec<RoundSpec>,
}

impl ConcurrentPlan {
    /// The degenerate plan: one round, one full-pool lane executing
    /// `order` one query at a time.
    pub fn sequential(order: &[usize], pool: usize) -> Self {
        if order.is_empty() {
            return ConcurrentPlan::default();
        }
        ConcurrentPlan {
            rounds: vec![RoundSpec::new(vec![LaneSpec {
                width: pool.max(1),
                queries: order.to_vec(),
            }])],
        }
    }

    /// A single round of uniform lanes of the given `width` (the last
    /// lane absorbs the `pool % width` remainder), with queries
    /// `0..n_queries` dealt round-robin across lanes.
    pub fn uniform(n_queries: usize, pool: usize, width: usize) -> Self {
        if n_queries == 0 {
            return ConcurrentPlan::default();
        }
        let pool = pool.max(1);
        let width = width.clamp(1, pool);
        let n_lanes = pool / width;
        let mut lanes: Vec<LaneSpec> = (0..n_lanes)
            .map(|l| LaneSpec {
                width: if l == n_lanes - 1 {
                    width + pool % width
                } else {
                    width
                },
                queries: Vec::new(),
            })
            .collect();
        for qi in 0..n_queries {
            lanes[qi % n_lanes].queries.push(qi);
        }
        lanes.retain(|l| !l.queries.is_empty());
        // Dropping empty lanes must not break the pool partition: fold
        // their workers into the last surviving lane.
        let assigned: usize = lanes.iter().map(|l| l.width).sum();
        if let Some(last) = lanes.last_mut() {
            last.width += pool - assigned;
        }
        ConcurrentPlan {
            rounds: vec![RoundSpec::new(lanes)],
        }
    }

    /// Total queries named by the plan.
    pub fn n_queries(&self) -> usize {
        self.rounds
            .iter()
            .flat_map(|r| &r.lanes)
            .map(|l| l.queries.len())
            .sum()
    }

    /// Panics unless every round's lane widths partition a `pool`-thread
    /// engine and the lanes together name every query in
    /// `0..n_queries` **exactly once**.
    pub fn validate(&self, pool: usize, n_queries: usize) {
        let mut seen = vec![false; n_queries];
        for round in &self.rounds {
            round.validate_pool(pool);
            for lane in &round.lanes {
                for &qi in &lane.queries {
                    assert!(
                        qi < n_queries,
                        "plan names query {qi} out of range ({n_queries} queries)"
                    );
                    assert!(!seen[qi], "plan names query {qi} twice");
                    seen[qi] = true;
                }
            }
        }
        if let Some(missing) = seen.iter().position(|&s| !s) {
            panic!("plan never names query {missing}");
        }
    }
}

// ---------------------------------------------------------------------
// Lane runtime
// ---------------------------------------------------------------------

/// Runtime state of one worker group while a round executes.
#[derive(Debug)]
pub(crate) struct LaneState {
    width: usize,
    /// The group's phase barrier (`width` parties) — serves both the
    /// lane job hand-off and the [`ExecShared`] phase barriers.
    barrier: PhaseBarrier,
    /// The published per-query job (lifetime-erased; see
    /// [`erase_job`]'s safety contract, upheld by [`LaneState::run`]).
    slot: Mutex<Option<Job>>,
    /// Followers currently *inside* the published job. Rank 0 must not
    /// let an unwind escape the job body's frame while this is nonzero:
    /// the erased job borrows that frame (and those above it), so a
    /// follower still executing it would dereference a dead stack.
    active: AtomicUsize,
}

impl LaneState {
    /// Runs `body(rank, scratch)` once on every member of the group
    /// (the caller executes rank 0 inline) and returns when all are
    /// done. Followers must be parked in [`LaneState::follow`].
    ///
    /// # Panics
    /// Re-raises a panic from `body` or from a follower-poisoned
    /// barrier — but only after poisoning the lane and draining every
    /// follower out of the erased job, so the unwind never frees a
    /// frame the job still borrows (the lane-level analogue of the
    /// worker pool's drain-before-resume discipline).
    fn run(&self, body: JobRef<'_>, scratch: &mut WorkerScratch) {
        if self.width == 1 {
            body(0, scratch);
            return;
        }
        *self.slot.lock() = Some(erase_job(body));
        self.barrier.wait(); // publish: followers pick the job up
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            body(0, scratch);
            self.barrier.wait(); // completion: no follower still runs it
        }));
        if let Err(payload) = outcome {
            // Either the body panicked (a worker died mid-query) or a
            // follower's panic poisoned the completion wait. Stop new
            // pickups, then wait for followers still inside the job —
            // poison wakes any of them blocked at a phase barrier.
            self.barrier.poison();
            while self.active.load(Ordering::SeqCst) > 0 {
                std::hint::spin_loop();
            }
            #[cfg(debug_assertions)]
            {
                *self.slot.lock() = Some(poisoned_job());
            }
            #[cfg(not(debug_assertions))]
            {
                *self.slot.lock() = None;
            }
            std::panic::resume_unwind(payload);
        }
        // The borrow erased by `erase_job` ends here; the slot must not
        // be executable past this point. Debug builds plant a canary
        // job that panics loudly if a stale pickup ever happens.
        #[cfg(debug_assertions)]
        {
            *self.slot.lock() = Some(poisoned_job());
        }
        #[cfg(not(debug_assertions))]
        {
            *self.slot.lock() = None;
        }
    }

    /// Releases the group's followers after the lane's last query.
    fn finish(&self) {
        if self.width == 1 {
            return;
        }
        *self.slot.lock() = None;
        self.barrier.wait(); // publish the "done" sentinel
    }

    /// Follower loop for ranks `1..width`: execute published jobs until
    /// the sentinel arrives.
    fn follow(&self, rank: usize, scratch: &mut WorkerScratch) {
        loop {
            self.barrier.wait();
            let job = *self.slot.lock();
            let Some(job) = job else { return };
            // Enter the job visibly *before* re-checking for poison:
            // rank 0 poisons first and drains `active` second, so every
            // interleaving either sees the poison here (and never calls
            // the job) or is seen by the drain (and holds rank 0's
            // frames alive until the job call returns).
            self.active.fetch_add(1, Ordering::SeqCst);
            if self.barrier.is_poisoned() {
                self.active.fetch_sub(1, Ordering::SeqCst);
                panic!("lane round aborted before this follower started its job");
            }
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                (job.0)(rank, scratch)
            }));
            self.active.fetch_sub(1, Ordering::SeqCst);
            if let Err(payload) = outcome {
                std::panic::resume_unwind(payload);
            }
            self.barrier.wait();
        }
    }
}

/// Maps pool tids onto lanes and drives one round.
#[derive(Debug)]
pub(crate) struct LaneRuntime {
    lanes: Vec<LaneState>,
    /// `tid -> (lane, rank within lane)`.
    membership: Vec<(usize, usize)>,
    /// Per-lane pending queries. Shared (not per-rank-0-local) so a
    /// drained lane can re-admit work from its siblings.
    queues: Vec<Mutex<VecDeque<usize>>>,
    readmission: bool,
}

impl LaneRuntime {
    pub(crate) fn new(round: &RoundSpec) -> Self {
        // Re-validate the double partition where the lane machinery
        // actually starts, not just at plan-build time.
        #[cfg(debug_assertions)]
        round.debug_assert_disjoint_queries();
        let mut membership = Vec::new();
        let mut queues = Vec::with_capacity(round.lanes.len());
        let lanes = round
            .lanes
            .iter()
            .enumerate()
            .map(|(l, spec)| {
                for rank in 0..spec.width {
                    membership.push((l, rank));
                }
                queues.push(Mutex::new(spec.queries.iter().copied().collect()));
                LaneState {
                    width: spec.width,
                    barrier: PhaseBarrier::new(spec.width),
                    slot: Mutex::new(None),
                    active: AtomicUsize::new(0),
                }
            })
            .collect();
        LaneRuntime {
            lanes,
            membership,
            queues,
            readmission: round.readmission,
        }
    }

    /// The next query for lane `l`: its own queue first; once that is
    /// drained (and re-admission is on), the tail of the round's most
    /// loaded sibling lane — intra-round re-admission, so no lane idles
    /// at the round barrier while another still has queries queued.
    fn next_query(&self, l: usize) -> Option<usize> {
        if let Some(qi) = self.queues[l].lock().pop_front() {
            return Some(qi);
        }
        if !self.readmission {
            return None;
        }
        loop {
            let victim = (0..self.queues.len())
                .filter(|&o| o != l)
                .map(|o| (self.queues[o].lock().len(), o))
                .filter(|&(n, _)| n > 0)
                // Most remaining queries first; ties to the lowest lane.
                .max_by_key(|&(n, o)| (n, usize::MAX - o))?;
            // Raced pops can empty the victim between the scan and the
            // claim; rescan (queues only shrink, so this terminates).
            if let Some(qi) = self.queues[victim.1].lock().pop_back() {
                return Some(qi);
            }
        }
    }

    /// The per-pool-thread body of one round: rank-0 members drive their
    /// lane's queries through `driver`, other ranks follow.
    ///
    /// # Panics
    /// A panic raised inside `driver` (or the engine body) on one lane
    /// member poisons the group's [`PhaseBarrier`], so the lane's other
    /// members abort the round with a clear panic instead of
    /// deadlocking on a party that will never arrive. The original
    /// panic is then resumed on this thread.
    pub(crate) fn participate<F>(
        &self,
        tid: usize,
        scratch: &mut WorkerScratch,
        index: &Arc<Index>,
        registry: &Arc<StealRegistry>,
        driver: &F,
    ) where
        F: Fn(&mut LaneCtx, usize) + Sync,
    {
        let (l, rank) = self.membership[tid];
        let lane = &self.lanes[l];
        let body = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if rank == 0 {
                {
                    let mut ctx = LaneCtx {
                        lane,
                        index,
                        registry,
                        scratch,
                    };
                    while let Some(qi) = self.next_query(l) {
                        driver(&mut ctx, qi);
                    }
                }
                lane.finish();
            } else {
                lane.follow(rank, scratch);
            }
        }));
        if let Err(payload) = body {
            lane.barrier.poison();
            std::panic::resume_unwind(payload);
        }
    }
}

/// Maps pool tids onto lanes for a **continuous-dispatch** round: the
/// pool is partitioned once and each lane's rank-0 worker runs a
/// caller-supplied driver that claims work from a shared source until
/// the source closes. Unlike [`LaneRuntime`] there are no per-lane
/// query queues and no admission windows — a lane never waits at a
/// round barrier while work is still queued anywhere. The only join is
/// the pool-level one when every driver has returned (the stream is
/// closed and drained).
#[derive(Debug)]
pub(crate) struct DispatchRuntime {
    lanes: Vec<LaneState>,
    /// `tid -> (lane, rank within lane)`.
    membership: Vec<(usize, usize)>,
}

impl DispatchRuntime {
    /// A runtime for lanes of the given widths (must partition the
    /// pool; validated by the engine entry point).
    pub(crate) fn new(widths: &[usize]) -> Self {
        let mut membership = Vec::new();
        let lanes = widths
            .iter()
            .enumerate()
            .map(|(l, &width)| {
                for rank in 0..width {
                    membership.push((l, rank));
                }
                LaneState {
                    width,
                    barrier: PhaseBarrier::new(width),
                    slot: Mutex::new(None),
                    active: AtomicUsize::new(0),
                }
            })
            .collect();
        DispatchRuntime { lanes, membership }
    }

    /// The per-pool-thread body of a dispatch round: each lane's rank-0
    /// member invokes `driver(ctx, lane)` **once** — the driver loops
    /// "claim from the shared source → [`LaneCtx::execute`] → publish"
    /// until the source closes — and the other ranks follow published
    /// jobs until the lane's sentinel.
    ///
    /// # Panics
    /// Same contract as [`LaneRuntime::participate`]: a panic on one
    /// lane member poisons the group's barrier so its siblings abort
    /// instead of deadlocking, then resumes on this thread.
    pub(crate) fn participate<F>(
        &self,
        tid: usize,
        scratch: &mut WorkerScratch,
        index: &Arc<Index>,
        registry: &Arc<StealRegistry>,
        driver: &F,
    ) where
        F: Fn(&mut LaneCtx, usize) + Sync,
    {
        let (l, rank) = self.membership[tid];
        let lane = &self.lanes[l];
        let body = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if rank == 0 {
                {
                    let mut ctx = LaneCtx {
                        lane,
                        index,
                        registry,
                        scratch,
                    };
                    driver(&mut ctx, l);
                }
                lane.finish();
            } else {
                lane.follow(rank, scratch);
            }
        }));
        if let Err(payload) = body {
            lane.barrier.poison();
            std::panic::resume_unwind(payload);
        }
    }
}

/// Uniform lane widths for a continuous-dispatch round: `pool / width`
/// lanes of `width` threads each, with the remainder folded into the
/// last lane so the widths always partition the pool exactly.
pub fn uniform_widths(pool: usize, width: usize) -> Vec<usize> {
    let pool = pool.max(1);
    let width = width.clamp(1, pool);
    let n_lanes = pool / width;
    let mut widths = vec![width; n_lanes];
    *widths.last_mut().expect("n_lanes >= 1") += pool % width;
    widths
}

/// The execution context a round driver receives on a lane's rank-0
/// worker: a group-scoped view of the engine, one query at a time.
pub struct LaneCtx<'e, 's> {
    lane: &'e LaneState,
    index: &'e Arc<Index>,
    registry: &'e Arc<StealRegistry>,
    scratch: &'s mut WorkerScratch,
}

impl std::fmt::Debug for LaneCtx<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LaneCtx")
            .field("width", &self.lane.width)
            .finish_non_exhaustive()
    }
}

impl LaneCtx<'_, '_> {
    /// The lane's worker-group width.
    pub fn width(&self) -> usize {
        self.lane.width
    }

    /// The engine's index.
    pub fn index(&self) -> &Arc<Index> {
        self.index
    }

    /// The engine's steal service (shared by all lanes and the pool).
    pub fn steal_registry(&self) -> &Arc<StealRegistry> {
        self.registry
    }

    /// Registers a lane query with the engine's steal service at this
    /// lane's width (see
    /// [`BatchEngine::admit`](super::engine::BatchEngine::admit)).
    pub fn admit(
        &self,
        query_id: usize,
        results: Arc<dyn ResultSet + Send + Sync>,
    ) -> InflightQuery {
        self.registry.register(query_id, self.lane.width, results)
    }

    /// [`LaneCtx::admit`] with a scheduler cost estimate attached, so
    /// the steal service can weight this query by estimated remaining
    /// work when choosing a victim.
    pub fn admit_estimated(
        &self,
        query_id: usize,
        results: Arc<dyn ResultSet + Send + Sync>,
        estimate: Option<f64>,
    ) -> InflightQuery {
        self.registry
            .register_estimated(query_id, self.lane.width, results, estimate)
    }

    /// Runs one admitted query on this lane's worker group. Mirrors
    /// [`BatchEngine::run_query`](super::engine::BatchEngine::run_query)
    /// — same three-phase engine, same hook surface, same
    /// engine-provided steal view and cooperative service — except
    /// `params.n_threads` is overridden by the **lane width**, so the
    /// query only ever touches this group's workers.
    pub fn run_query<K: QueryKernel + ?Sized, R: ResultSet + ?Sized>(
        &mut self,
        kernel: &K,
        params: &SearchParams,
        results: &R,
        batch_subset: Option<&[usize]>,
        query: &InflightQuery,
        on_improve: &(dyn Fn(f64, u32) + Sync),
    ) -> SearchStats {
        let lane = self.lane;
        let mut eff = *params;
        eff.n_threads = lane.width;
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
            lane.run(
                &|rank, scratch| shared.worker(rank, &lane.barrier, scratch),
                self.scratch,
            );
        }
        shared.finish()
    }

    /// Answers one [`BatchQuery`] on the lane — the lane analogue of the
    /// engine's `exact` / `knn` / `dtw` entry points — registered with
    /// the steal service under `query_id` (its batch index).
    pub fn execute(
        &mut self,
        query_id: usize,
        query: &BatchQuery,
        params: &SearchParams,
    ) -> BatchItem {
        self.execute_estimated(query_id, query, params, None)
    }

    /// [`LaneCtx::execute`] with a scheduler cost estimate attached for
    /// steal-victim weighting. Either way the finished query is
    /// reported to the registry's installed feedback observer.
    pub fn execute_estimated(
        &mut self,
        query_id: usize,
        query: &BatchQuery,
        params: &SearchParams,
        estimate: Option<f64>,
    ) -> BatchItem {
        let index = self.index;
        let item = match query.kind {
            QueryKind::Exact => {
                let (kernel, bsf, initial) = seed_ed(index, query.data);
                let bsf = Arc::new(bsf);
                let grant = self.admit_estimated(
                    query_id,
                    Arc::clone(&bsf) as Arc<dyn ResultSet + Send + Sync>,
                    estimate,
                );
                let mut stats = self.run_query(&kernel, params, &*bsf, None, &grant, &|_, _| {});
                stats.initial_bsf = initial;
                BatchItem {
                    answer: BatchAnswer::Nn(bsf.answer()),
                    stats,
                }
            }
            QueryKind::Knn(k) => {
                let (kernel, knn) = seed_knn(index, query.data, k);
                let knn = Arc::new(knn);
                let grant = self.admit_estimated(
                    query_id,
                    Arc::clone(&knn) as Arc<dyn ResultSet + Send + Sync>,
                    estimate,
                );
                let stats = self.run_query(&kernel, params, &*knn, None, &grant, &|_, _| {});
                BatchItem {
                    answer: BatchAnswer::Knn(knn.snapshot()),
                    stats,
                }
            }
            QueryKind::Dtw(window) => {
                let (kernel, bsf, initial) = seed_dtw(index, query.data, window);
                let bsf = Arc::new(bsf);
                let grant = self.admit_estimated(
                    query_id,
                    Arc::clone(&bsf) as Arc<dyn ResultSet + Send + Sync>,
                    estimate,
                );
                let mut stats = self.run_query(&kernel, params, &*bsf, None, &grant, &|_, _| {});
                stats.initial_bsf = initial;
                BatchItem {
                    answer: BatchAnswer::Nn(bsf.answer()),
                    stats,
                }
            }
        };
        self.registry.observe(query_id, &item.stats);
        item
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_plan_is_one_full_pool_lane() {
        let p = ConcurrentPlan::sequential(&[2, 0, 1], 4);
        p.validate(4, 3);
        assert_eq!(p.rounds.len(), 1);
        assert_eq!(p.rounds[0].lanes.len(), 1);
        assert_eq!(p.rounds[0].lanes[0].width, 4);
        assert_eq!(p.rounds[0].lanes[0].queries, vec![2, 0, 1]);
        assert!(ConcurrentPlan::sequential(&[], 4).rounds.is_empty());
    }

    #[test]
    fn uniform_plans_partition_for_all_widths() {
        for pool in 1..=8usize {
            for width in 1..=pool {
                for nq in [0usize, 1, 2, 7, 16] {
                    let p = ConcurrentPlan::uniform(nq, pool, width);
                    p.validate(pool, nq);
                }
            }
        }
    }

    #[test]
    fn uniform_with_few_queries_keeps_pool_covered() {
        // 1 query on an 8-thread pool at width 2: one lane, all 8 workers.
        let p = ConcurrentPlan::uniform(1, 8, 2);
        p.validate(8, 1);
        assert_eq!(p.rounds[0].lanes.len(), 1);
        assert_eq!(p.rounds[0].lanes[0].width, 8);
    }

    #[test]
    fn uniform_widths_partition_every_pool() {
        for pool in 1..=9usize {
            for width in 1..=pool + 2 {
                let w = uniform_widths(pool, width);
                assert_eq!(w.iter().sum::<usize>(), pool, "pool={pool} width={width}");
                assert!(w.iter().all(|&x| x >= 1));
            }
        }
        assert_eq!(uniform_widths(8, 2), vec![2, 2, 2, 2]);
        assert_eq!(uniform_widths(7, 2), vec![2, 2, 3]);
        assert_eq!(uniform_widths(2, 5), vec![2]);
    }

    #[test]
    #[should_panic(expected = "partition the 4-thread pool")]
    fn validate_rejects_underfull_round() {
        let p = ConcurrentPlan {
            rounds: vec![RoundSpec::new(vec![LaneSpec {
                width: 3,
                queries: vec![0],
            }])],
        };
        p.validate(4, 1);
    }

    #[test]
    #[should_panic(expected = "names query 0 twice")]
    fn validate_rejects_duplicate_query() {
        let p = ConcurrentPlan {
            rounds: vec![RoundSpec::new(vec![
                LaneSpec {
                    width: 1,
                    queries: vec![0],
                },
                LaneSpec {
                    width: 1,
                    queries: vec![0],
                },
            ])],
        };
        p.validate(2, 1);
    }

    #[test]
    #[should_panic(expected = "never names query 1")]
    fn validate_rejects_missing_query() {
        let p = ConcurrentPlan::sequential(&[0], 2);
        p.validate(2, 2);
    }
}
