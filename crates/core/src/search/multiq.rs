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
//! This module supplies the execution mechanism behind
//! [`BatchEngine::run_dispatch`](super::engine::BatchEngine::run_dispatch):
//!
//! * lane widths that exactly partition the pool ([`uniform_widths`]
//!   is the even split); each lane is a disjoint worker group;
//! * a lane runtime giving every group its own [`PhaseBarrier`], its
//!   own job slot, and group-scoped ranks, so each in-flight query sees
//!   only its group's workers (and their [`WorkerScratch`] arenas);
//! * a [`LaneCtx`] handed to the per-lane driver on the group's rank-0
//!   worker, exposing [`LaneCtx::execute`] and [`LaneCtx::run_query`] —
//!   the engine's one per-query body, at the lane's width. Answers are
//!   therefore bit-identical to the full-pool entry points, and every
//!   lane query is registered with the engine's [`StealRegistry`], so
//!   inter-node work-stealing keeps operating while lanes are in flight.
//!
//! The driver loops: claim the next query from a source shared by all
//! lanes, answer it, publish the result. A lane that finishes claims
//! the next query at once, so no lane idles while work is queued.
//! *Which* widths a round gets is policy: `run_batch` splits the pool
//! evenly, and the `odyssey-sched` admission module derives widths from
//! per-query cost predictions (easy → narrow lane, hard → a wide one).

use super::bsf::ResultSet;
use super::engine::{
    erase_job, BatchItem, BatchQuery, GroupRunner, InflightQuery, Job, JobRef, StealRegistry,
    WorkerGroup,
};
use super::exact::{SearchParams, SearchStats};
use super::kernel::QueryKernel;
use super::scratch::WorkerScratch;
use crate::index::Index;
use crate::sync::PhaseBarrier;
#[cfg(debug_assertions)]
use super::engine::poisoned_job;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

// ---------------------------------------------------------------------
// Lane runtime
// ---------------------------------------------------------------------

/// Runtime state of one worker group while a dispatch round executes.
#[derive(Debug)]
pub(crate) struct LaneState {
    width: usize,
    /// The group's phase barrier (`width` parties) — serves both the
    /// lane job hand-off and the three-phase body's phase barriers.
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
    pub(super) fn run(&self, body: JobRef<'_>, scratch: &mut WorkerScratch) {
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

/// Maps pool tids onto lanes for a **continuous-dispatch** round: the
/// pool is partitioned once and each lane's rank-0 worker runs a
/// caller-supplied driver that claims work from a shared source until
/// the source closes. There are no per-lane query queues — a lane never
/// waits while work is still queued anywhere. The only join is the
/// pool-level one when every driver has returned (the stream is closed
/// and drained).
#[derive(Debug)]
pub(crate) struct DispatchRuntime {
    lanes: Vec<LaneState>,
    /// `tid -> (lane, rank within lane)`.
    membership: Vec<(usize, usize)>,
}

impl DispatchRuntime {
    /// A runtime for lanes of the given widths (must partition the
    /// pool; see [`validate_widths`]).
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
    /// A panic raised inside `driver` (or the engine body) on one lane
    /// member poisons the group's [`PhaseBarrier`], so the lane's other
    /// members abort with a clear panic instead of deadlocking on a
    /// party that will never arrive. The original panic is then resumed
    /// on this thread.
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

/// Checks that dispatch lane `widths` exactly partition a `pool`-thread
/// pool: every lane has at least one worker and every worker is in a
/// lane.
pub(crate) fn validate_widths(widths: &[usize], pool: usize) {
    assert!(
        widths.iter().all(|&w| w >= 1),
        "dispatch lane width must be at least 1"
    );
    assert_eq!(
        widths.iter().sum::<usize>(),
        pool,
        "dispatch lane widths must exactly partition the {pool}-thread pool"
    );
}

/// Checks that a dispatch `order` is a permutation of `0..n_queries`, so
/// the lanes claiming from it answer every query exactly once.
pub(crate) fn validate_order(order: &[usize], n_queries: usize) {
    let mut seen = vec![false; n_queries];
    for &qi in order {
        let slot = seen
            .get_mut(qi)
            .unwrap_or_else(|| panic!("dispatch order names query {qi} out of range"));
        assert!(!*slot, "dispatch order repeats query {qi}");
        *slot = true;
    }
    if let Some(qi) = seen.iter().position(|&s| !s) {
        panic!("dispatch order must cover every query exactly once; it never names query {qi}");
    }
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

    /// This lane as a worker group (the caller runs rank 0).
    fn group(&mut self) -> WorkerGroup<'_> {
        WorkerGroup {
            index: self.index,
            registry: self.registry,
            width: self.lane.width,
            barrier: &self.lane.barrier,
            runner: GroupRunner::Lane(self.lane, self.scratch),
        }
    }

    /// Runs one admitted query on this lane's worker group: the same
    /// body as
    /// [`BatchEngine::run_query`](super::engine::BatchEngine::run_query),
    /// with `params.n_threads` overridden by the **lane width**, so the
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
        self.group()
            .run_query(kernel, params, results, batch_subset, query, on_improve)
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
        self.group().execute(query_id, query, params, estimate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// Every pool thread belongs to exactly one lane, and each lane's
    /// ranks run `0..width`.
    fn assert_membership_partitions(rt: &DispatchRuntime, widths: &[usize]) {
        assert_eq!(rt.lanes.len(), widths.len());
        assert_eq!(rt.membership.len(), widths.iter().sum::<usize>());
        for (l, &width) in widths.iter().enumerate() {
            assert_eq!(rt.lanes[l].width, width);
            let mut ranks: Vec<usize> = rt
                .membership
                .iter()
                .filter(|&&(lane, _)| lane == l)
                .map(|&(_, rank)| rank)
                .collect();
            ranks.sort_unstable();
            assert_eq!(ranks, (0..width).collect::<Vec<_>>(), "lane {l} of {widths:?}");
        }
    }

    #[test]
    fn sequential_plan_is_one_full_pool_lane() {
        // Width = pool: one lane holding every worker, as a query asked
        // alone on the engine.
        for pool in 1..=8usize {
            let widths = uniform_widths(pool, pool);
            assert_eq!(widths, vec![pool]);
            validate_widths(&widths, pool);
            assert_membership_partitions(&DispatchRuntime::new(&widths), &widths);
        }
    }

    #[test]
    fn uniform_plans_partition_for_all_widths() {
        for pool in 1..=8usize {
            for width in 1..=pool {
                let widths = uniform_widths(pool, width);
                validate_widths(&widths, pool);
                assert_membership_partitions(&DispatchRuntime::new(&widths), &widths);
            }
        }
    }

    #[test]
    #[should_panic(expected = "partition the 4-thread pool")]
    fn validate_rejects_underfull_round() {
        validate_widths(&[3], 4);
    }

    #[test]
    #[should_panic(expected = "repeats query 0")]
    fn validate_rejects_duplicate_query() {
        validate_order(&[0, 0], 2);
    }

    #[test]
    #[should_panic(expected = "never names query 1")]
    fn validate_rejects_missing_query() {
        validate_order(&[0], 2);
    }

    #[test]
    fn validate_accepts_every_permutation_of_a_small_batch() {
        validate_order(&[], 0);
        for order in [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]] {
            validate_order(&order, 3);
        }
    }
}
