//! The Odyssey exact-search engine (Algorithms 1–2, Figure 5).
//!
//! `ExecShared`'s per-thread body executes the three phases — tree
//! traversal over RS-batches (with helping), priority-queue
//! preprocessing, and priority-queue processing — generically over a
//! [`QueryKernel`](super::kernel::QueryKernel) and a
//! [`ResultSet`](super::bsf::ResultSet). Every query runs it on a
//! [`BatchEngine`](super::engine::BatchEngine) worker group: the
//! engine's full pool or one of its dispatch lanes.
//!
//! Phase 3 hands out work at two grains. Queues are *claimed* whole, in
//! ascending order of their minimum bound, through the steal view's
//! cursor — the order the Take-Away property and the `TH` model rely
//! on. Leaves are *popped* one per lock hold, so a worker whose claims
//! have run out helps drain the queues that are still live instead of
//! waiting at the barrier: a query's work sits mostly in its one or two
//! leading queues, and a whole-queue lock would leave every other
//! member of the group idle behind them.
//!
//! The engine publishes progress into a [`StealView`], the object a
//! node's work-stealing manager (Algorithm 3) inspects when a steal
//! request arrives: it hands out RS-batch **ids** satisfying the
//! *Take-Away property* (rightmost unstolen queues in the sorted order —
//! the queues least likely to have been processed) and marks them stolen
//! so local workers skip them. The thief re-runs this same engine on its
//! own identical index restricted to those batch ids (the `batch_subset`
//! of [`BatchEngine::run_query`](super::engine::BatchEngine::run_query))
//! — no series data ever crosses nodes.

use super::answer::Answer;
use super::batches::RsBatches;
use super::bsf::{ResultSet, SharedBsf};
use super::kernel::{EdKernel, QueryKernel};
use super::pqueue::{BoundedPqSet, LeafCandidate, LeafPq};
use super::scratch::{WorkerScratch, MAX_SPARE_HEAPS, MAX_SPARE_HEAP_CAP};
use crate::distance::simd::prefetch_series;
use crate::index::Index;
use crate::layout::LeafLayout;
use crate::sync::PhaseBarrier;
use crate::tree::{Node, RootSoa, RootSubtree};
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Number of RS-batches handed over per steal request; the paper found 4
/// to be the sweet spot (Section 3.2.2).
pub const DEFAULT_NSEND: usize = 4;

/// Default priority-queue size threshold when no per-query prediction is
/// available (the `odyssey-sched` sigmoid model of Figure 6 provides one
/// per query). `TH` sets how finely phase 3's sorted queue order ranks
/// the leaves and how many queues a thief can take by batch id. It does
/// not spread work over a group's workers: phase 3 shares every live
/// queue leaf by leaf once the claims run out.
pub const DEFAULT_TH: usize = 1024;

/// Default bound on how many threads may *help* on one RS-batch.
pub const DEFAULT_HELP_TH: usize = 2;

/// Tuning parameters of the single-node search.
#[derive(Debug, Clone, Copy)]
pub struct SearchParams {
    /// Worker threads (the paper's `NThreads`).
    pub n_threads: usize,
    /// RS-batch count `Nsb`; `None` = one per worker thread (the paper's
    /// best setting).
    pub nsb: Option<usize>,
    /// Priority-queue size threshold `TH` (`usize::MAX` = unbounded).
    pub th: usize,
    /// Helping bound `HelpTH`.
    pub help_th: usize,
}

impl SearchParams {
    /// Defaults per the paper: `Nsb = n_threads`, `HelpTH = 2`.
    pub fn new(n_threads: usize) -> Self {
        SearchParams {
            n_threads: n_threads.max(1),
            nsb: None,
            th: DEFAULT_TH,
            help_th: DEFAULT_HELP_TH,
        }
    }

    /// Overrides the RS-batch count.
    pub fn with_nsb(mut self, nsb: usize) -> Self {
        self.nsb = Some(nsb.max(1));
        self
    }

    /// Overrides the queue threshold.
    pub fn with_th(mut self, th: usize) -> Self {
        assert!(th > 0);
        self.th = th;
        self
    }

    /// Overrides the helping bound.
    pub fn with_help_th(mut self, help_th: usize) -> Self {
        self.help_th = help_th;
        self
    }
}

/// Work counters and timings of one search execution.
#[derive(Debug, Clone, Default)]
pub struct SearchStats {
    /// Rooted seed bound from the approximate search — the initial BSF
    /// for 1-NN, the k-th seed distance for k-NN (infinite when the seed
    /// leaf holds fewer than k series); the feature the scheduler's
    /// regression model predicts from (Figure 4).
    pub initial_bsf: f64,
    /// Node-level lower-bound computations during traversal.
    pub lb_node_computations: u64,
    /// Per-series lower-bound computations during queue processing.
    pub lb_series_computations: u64,
    /// Early-abandoning real-distance invocations.
    pub real_distance_computations: u64,
    /// Leaves pushed into priority queues.
    pub leaves_collected: u64,
    /// Number of priority queues produced.
    pub pq_count: usize,
    /// Median priority-queue size (the sigmoid model's target, Fig. 6a).
    pub pq_size_median: usize,
    /// Wall-clock duration of the engine run.
    pub elapsed: std::time::Duration,
    /// Wall-clock duration of the tree-traversal phase (incl. helping).
    pub traversal_time: std::time::Duration,
    /// Wall-clock duration of the queue preprocessing + processing
    /// phases. The paper's break-down shows this dominating query time,
    /// which is why work-stealing targets the queue-processing phase.
    pub processing_time: std::time::Duration,
}

/// Result of [`BatchEngine::exact`](super::engine::BatchEngine::exact).
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The 1-NN answer.
    pub answer: Answer,
    /// Execution statistics.
    pub stats: SearchStats,
}

/// Survivors whose raw series phase 3 prefetches ahead of the one it
/// is computing. A popped leaf's survivors are sparse (about one scan
/// slot in ten on pruned queries), so consecutive reads land pages
/// apart and the hardware prefetcher cannot follow them; a window this
/// wide covers a DRAM miss with the distances in between.
const AHEAD: usize = 8;

const PHASE_TRAVERSAL: u8 = 0;
const PHASE_PROCESSING: u8 = 1;
const PHASE_DONE: u8 = 2;

/// Shared progress of a running search, inspected by the work-stealing
/// manager. One `StealView` serves one query execution.
#[derive(Debug, Default)]
pub struct StealView {
    phase: AtomicU8,
    pq_cnt: AtomicUsize,
    stolen: OnceLock<Vec<AtomicBool>>,
    pq_batches: Mutex<Vec<usize>>,
}

impl StealView {
    /// A fresh view for one query.
    pub fn new() -> Self {
        Self::default()
    }

    fn init(&self, nsb: usize) {
        // Contract: a view may carry *pre-stolen* state into a run (the
        // `stolen` OnceLock survives re-init), but it must never be
        // re-initialized once a run has started claiming queues —
        // rewinding the claim cursor would hand queues out twice.
        debug_assert_eq!(
            self.pq_cnt.load(Ordering::Acquire),
            0,
            "StealView::init while a previous run's queue claims are live \
             (view recycled without reset?)"
        );
        let _ = self
            .stolen
            .set((0..nsb).map(|_| AtomicBool::new(false)).collect());
        self.phase.store(PHASE_TRAVERSAL, Ordering::Release);
    }

    fn publish_queues(&self, batch_ids: Vec<usize>) {
        // Contract: queues are published exactly once, after init, and
        // every published id names an initialized RS-batch slot.
        debug_assert!(
            !self.is_processing() && !self.is_done(),
            "StealView queues published twice (or after finish)"
        );
        if let Some(stolen) = self.stolen.get() {
            debug_assert!(
                batch_ids.iter().all(|&b| b < stolen.len()),
                "published queue names an RS-batch id beyond the initialized count"
            );
        } else {
            debug_assert!(
                batch_ids.is_empty(),
                "StealView queues published before init"
            );
        }
        *self.pq_batches.lock() = batch_ids;
        self.phase.store(PHASE_PROCESSING, Ordering::Release);
    }

    fn finish(&self) {
        self.phase.store(PHASE_DONE, Ordering::Release);
    }

    /// Returns the view to its pre-`init` state so its allocations can
    /// serve another query (the recycling path of the engine's
    /// [`StealRegistry`](super::engine::StealRegistry)).
    pub(crate) fn reset(&mut self) {
        *self.phase.get_mut() = PHASE_TRAVERSAL;
        *self.pq_cnt.get_mut() = 0;
        let _ = self.stolen.take();
        self.pq_batches.get_mut().clear();
    }

    #[inline]
    fn is_stolen(&self, batch_id: usize) -> bool {
        self.stolen
            .get()
            .map(|v| v[batch_id].load(Ordering::Acquire))
            .unwrap_or(false)
    }

    /// Whether the search is in the queue-processing phase (the only
    /// phase the paper steals from).
    pub fn is_processing(&self) -> bool {
        self.phase.load(Ordering::Acquire) == PHASE_PROCESSING
    }

    /// Whether the search has completed.
    pub fn is_done(&self) -> bool {
        self.phase.load(Ordering::Acquire) == PHASE_DONE
    }

    /// Diagnostic snapshot: `(claimed queues, total queues)` of the
    /// processing phase (both zero before preprocessing completes).
    pub fn queue_progress(&self) -> (usize, usize) {
        let len = self.pq_batches.lock().len();
        (self.pq_cnt.load(Ordering::Acquire).min(len), len)
    }

    /// Test/simulation helper: performs the engine's `init` step.
    #[doc(hidden)]
    pub fn test_init(&self, nsb: usize) {
        self.init(nsb);
    }

    /// Test/simulation helper: performs the engine's queue-publish step.
    #[doc(hidden)]
    pub fn test_publish(&self, batch_ids: Vec<usize>) {
        self.publish_queues(batch_ids);
    }

    /// Test/simulation helper: claims one queue, as a processing-phase
    /// worker would.
    #[doc(hidden)]
    pub fn test_claim(&self) {
        self.pq_cnt.fetch_add(1, Ordering::AcqRel);
    }

    /// Test/simulation helper: performs the engine's completion step.
    #[doc(hidden)]
    pub fn test_finish(&self) {
        self.finish();
    }

    /// Attempts to take away up to `nsend` RS-batches (Algorithm 3,
    /// lines 2–4). Selects batches satisfying the **Take-Away property**:
    /// not yet stolen, and whose first queue sits at the rightmost
    /// possible index of the sorted queue array (beyond the claiming
    /// cursor). Marks them stolen and returns their global batch ids.
    pub fn try_steal(&self, nsend: usize) -> Vec<usize> {
        if !self.is_processing() {
            return Vec::new();
        }
        let Some(stolen) = self.stolen.get() else {
            return Vec::new();
        };
        let pqb = self.pq_batches.lock();
        let claimed = self.pq_cnt.load(Ordering::Acquire).min(pqb.len());
        let mut out = Vec::new();
        for i in (claimed..pqb.len()).rev() {
            let b = pqb[i];
            if out.contains(&b) {
                continue;
            }
            if !stolen[b].swap(true, Ordering::AcqRel) {
                out.push(b);
                if out.len() == nsend {
                    break;
                }
            }
        }
        out
    }
}

/// Per-RS-batch traversal state: the claim cursor the owner and its
/// helpers share, and the queues they hand in.
///
/// Aligned to 128 bytes (a cache line plus its adjacent-line prefetch
/// partner) so the cursors and locks of neighbouring batches never
/// share a line: workers traversing different batches do not
/// false-share.
#[repr(align(128))]
struct BatchState<'a> {
    /// Next unclaimed subtree offset inside the batch range (`Fetch&Add`).
    next_subtree: AtomicUsize,
    /// All subtrees of this batch have been claimed and traversed.
    complete: AtomicBool,
    /// Number of helpers that joined this batch (bounded by `HelpTH`).
    helped: AtomicUsize,
    /// Queues of this batch only. Each worker that traverses the batch
    /// fills a local [`BoundedPqSet`] and appends its queues here once,
    /// when it leaves the batch — the only lock of the traversal phase.
    pqs: Mutex<Vec<LeafPq<'a>>>,
}

/// Builds the Euclidean kernel for `query` and seeds a [`SharedBsf`]
/// from the approximate search (Algorithm 1, line 5). Shared by the
/// engine's exact and ε-approximate searches and by the approximate
/// answer, so the per-query setup lives in exactly one place.
pub(crate) fn seed_ed<'q>(index: &Index, query: &'q [f32]) -> (EdKernel<'q>, SharedBsf, f64) {
    let kernel = EdKernel::new(query, index.config().segments);
    let approx = index.approx_search_with_table(query, kernel.qpaa(), kernel.table());
    let bsf = SharedBsf::new(approx.distance_sq, approx.series_id);
    (kernel, bsf, approx.distance)
}

/// The shared state of one query execution: everything the per-thread
/// engine body needs. Generic over the kernel and result set so the hot
/// loops stay monomorphized (and inlinable); the engine's worker group
/// type-erases only at its job-closure boundary. Workers call `service`
/// once per claimed queue, so they serve pending steal requests
/// themselves: in an oversubscribed simulation a manager thread alone
/// can be starved by the very workers whose queues it should hand out.
pub(crate) struct ExecShared<'e, K: ?Sized, R: ?Sized> {
    kernel: &'e K,
    results: &'e R,
    view: &'e StealView,
    on_improve: &'e (dyn Fn(f64, u32) + Sync),
    service: &'e (dyn Fn() + Sync),
    forest: &'e [RootSubtree],
    root_soa: &'e RootSoa,
    layout: &'e LeafLayout,
    help_th: usize,
    /// Queue sealing threshold `TH`.
    th: usize,
    /// Active (to-process) global batch ids.
    active: Vec<usize>,
    /// The index's cached partition for this query's batch count.
    batches: Arc<RsBatches>,
    bstates: Vec<BatchState<'e>>,
    /// Traversal-phase batch-claiming cursor (`Fetch&Add`).
    bcnt: AtomicUsize,
    /// (global batch id, queue) pairs in ascending-min order, filled by
    /// tid 0 between the barriers.
    sorted: RwLock<Vec<(usize, Mutex<LeafPq<'e>>)>>,
    // Work counters: workers accumulate in per-thread locals and flush
    // once, so the hot loops never touch shared cache lines.
    lb_node: AtomicU64,
    lb_series: AtomicU64,
    real_dist: AtomicU64,
    leaves: AtomicU64,
    pq_count: AtomicUsize,
    pq_median: AtomicUsize,
    /// Traversal-phase end in nanoseconds since `start` (written by tid 0).
    traversal_ns: AtomicU64,
    start: std::time::Instant,
}

impl<'e, K: QueryKernel + ?Sized, R: ResultSet + ?Sized> ExecShared<'e, K, R> {
    /// Builds the per-query shared state (per-batch claim state,
    /// counters) over the index's cached RS-batch partition and
    /// initializes the steal view.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        index: &'e Index,
        kernel: &'e K,
        params: &SearchParams,
        results: &'e R,
        batch_subset: Option<&[usize]>,
        view: &'e StealView,
        on_improve: &'e (dyn Fn(f64, u32) + Sync),
        service: &'e (dyn Fn() + Sync),
    ) -> Self {
        let start = std::time::Instant::now();
        let batches = index.rs_batches(params.nsb.unwrap_or(params.n_threads.max(1)));
        view.init(batches.len());
        let active: Vec<usize> = match batch_subset {
            Some(ids) => ids.iter().copied().filter(|&b| b < batches.len()).collect(),
            None => (0..batches.len()).collect(),
        };
        let bstates: Vec<BatchState> = active
            .iter()
            .map(|_| BatchState {
                next_subtree: AtomicUsize::new(0),
                complete: AtomicBool::new(false),
                helped: AtomicUsize::new(0),
                pqs: Mutex::new(Vec::new()),
            })
            .collect();
        ExecShared {
            kernel,
            results,
            view,
            on_improve,
            service,
            forest: index.forest(),
            root_soa: index.root_soa(),
            layout: index.layout(),
            help_th: params.help_th,
            th: params.th,
            active,
            batches,
            bstates,
            bcnt: AtomicUsize::new(0),
            sorted: RwLock::new(Vec::new()),
            lb_node: AtomicU64::new(0),
            lb_series: AtomicU64::new(0),
            real_dist: AtomicU64::new(0),
            leaves: AtomicU64::new(0),
            pq_count: AtomicUsize::new(0),
            pq_median: AtomicUsize::new(0),
            traversal_ns: AtomicU64::new(0),
            start,
        }
    }

    /// Whether there is anything to execute (false for an empty forest
    /// or an empty/out-of-range batch subset).
    pub(crate) fn has_work(&self) -> bool {
        !self.active.is_empty()
    }

    /// One worker's visit to an RS-batch — its own claim or a `HelpTH`
    /// help pass. Claims subtrees in chunks with `Fetch&Add`, bounds
    /// each claimed chunk's *roots* in one batched sweep over their
    /// data-tight SAX envelopes (the SIMD clamp-and-gather kernel under
    /// table-backed kernels — an iSAX forest over high-entropy data is
    /// wide and shallow, so the root level is where almost all node
    /// bounds happen), prunes against the shared threshold, and
    /// descends surviving inner roots through the reused stack.
    ///
    /// Surviving leaves go into a **worker-local** [`BoundedPqSet`]
    /// (sealed at `TH`, provisioned from the `heaps` scratch), so the
    /// traversal takes no lock per leaf and helpers never contend with
    /// the owner. On leaving the batch the worker appends the set's
    /// queues to the batch's list under one lock. A set serves one
    /// batch visit, so no queue mixes two RS-batches.
    fn traverse_batch(
        &self,
        bi: usize,
        stack: &mut Vec<&'e Node>,
        heaps: &mut Vec<super::pqueue::SpareHeap>,
        lb_node_local: &mut u64,
        leaves_local: &mut u64,
    ) {
        /// Subtrees claimed per `Fetch&Add` (also the root-sweep width):
        /// big enough to amortize the atomic and fill the 8-way kernel,
        /// small enough that batches still split fairly across helpers.
        const CLAIM_CHUNK: usize = 32;
        let range = self.batches.range(self.active[bi]);
        let mut root_lb = [0.0f64; CLAIM_CHUNK];
        let mut pqs = BoundedPqSet::deferred(self.th);
        loop {
            let off = self.bstates[bi]
                .next_subtree
                .fetch_add(CLAIM_CHUNK, Ordering::Relaxed);
            if off >= range.len() {
                break;
            }
            let end = (off + CLAIM_CHUNK).min(range.len());
            let chunk = (range.start + off)..(range.start + end);
            let root_lb = &mut root_lb[..chunk.len()];
            self.kernel
                .root_lb_block(self.forest, self.root_soa, chunk.clone(), root_lb);
            *lb_node_local += root_lb.len() as u64;
            // One threshold load per chunk: a stale (larger) value only
            // prunes less, never wrongly.
            let thr = self.results.threshold_sq();
            for (k, ti) in chunk.enumerate() {
                let lb = root_lb[k];
                if lb >= thr {
                    continue; // prune the whole subtree
                }
                match &self.forest[ti].node {
                    Node::Leaf(leaf) => {
                        pqs.push_with(lb, leaf, heaps);
                        *leaves_local += 1;
                    }
                    Node::Inner { children, .. } => {
                        // Iterative descent with an explicit (reused)
                        // stack; inner nodes are rare enough that their
                        // bounds stay per-word. The root's data-tight
                        // bound holds for every series below it, so a
                        // node's bound is the larger of the two.
                        let root_lb = lb;
                        stack.clear();
                        stack.push(&children[0]);
                        stack.push(&children[1]);
                        while let Some(node) = stack.pop() {
                            let lb = self.kernel.node_lb_sq(node.word()).max(root_lb);
                            *lb_node_local += 1;
                            if lb >= self.results.threshold_sq() {
                                continue;
                            }
                            match node {
                                Node::Inner { children, .. } => {
                                    stack.push(&children[0]);
                                    stack.push(&children[1]);
                                }
                                Node::Leaf(leaf) => {
                                    pqs.push_with(lb, leaf, heaps);
                                    *leaves_local += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        if !pqs.is_empty() {
            pqs.append_to(&mut self.bstates[bi].pqs.lock());
        }
    }

    /// Whether every leaf of `q` lies under a root subtree of global
    /// RS-batch `batch` — the one-batch-per-queue invariant that lets a
    /// thief take queues by batch id. A leaf's root is the subtree
    /// keyed by the top bit of each segment of the leaf's region.
    fn queue_in_batch(&self, q: &LeafPq, batch: usize) -> bool {
        let roots = &self.forest[self.batches.range(batch)];
        q.iter().all(|c| {
            let w = &c.leaf.word;
            let lo: Vec<u8> = (0..w.segments()).map(|s| w.full_range(s).0 as u8).collect();
            let key = crate::buffers::root_key_of_sax(&lo);
            roots.binary_search_by_key(&key, |t| t.key).is_ok()
        })
    }

    /// The three-phase per-thread engine body. All `n_threads`
    /// participants must call this exactly once per query with distinct
    /// `tid`s and a `barrier` of exactly `n_threads` parties.
    ///
    /// Phase 1 (traversal) claims RS-batches with `Fetch&Add`, then
    /// helps batches still incomplete (at most `HelpTH` helpers each);
    /// every visit fills worker-local queues (see
    /// [`ExecShared::traverse_batch`]), so the phase is lock-free up to
    /// one hand-in per visit. Phase 2 (tid 0) sorts every handed-in
    /// queue by its minimum lower bound and publishes the batch ids to
    /// the steal view. Phase 3 claims queues in that order through the
    /// steal view's cursor (calling the service hook once per claim);
    /// once its claims run out, a worker of a multi-member group makes
    /// one help pass over the sorted queues and pops from every queue
    /// that is not yet spent and whose batch was not stolen. Every pop
    /// holds the queue's lock for one leaf only (see
    /// [`ExecShared::pop_live`]), so the members drain the leading
    /// queues together and finish the phase at nearly the same time.
    pub(crate) fn worker(&self, tid: usize, barrier: &PhaseBarrier, scratch: &mut WorkerScratch) {
        let WorkerScratch {
            lb_block,
            survivors,
            stack: spare_stack,
            heaps,
        } = scratch;
        // --- Phase 1: tree traversal over RS-batches -------------------
        let mut lb_node_local = 0u64;
        let mut leaves_local = 0u64;
        let mut stack: Vec<&Node> = spare_stack.take();
        loop {
            let bi = self.bcnt.fetch_add(1, Ordering::Relaxed);
            if bi >= self.active.len() {
                break;
            }
            self.traverse_batch(bi, &mut stack, heaps, &mut lb_node_local, &mut leaves_local);
            self.bstates[bi].complete.store(true, Ordering::Release);
        }
        // Helping pass (Algorithm 2, lines 11–14): join batches that are
        // still incomplete, bounded by HelpTH helpers.
        for (bi, bstate) in self.bstates.iter().enumerate() {
            if !bstate.complete.load(Ordering::Acquire)
                && bstate.helped.fetch_add(1, Ordering::Relaxed) < self.help_th
            {
                self.traverse_batch(
                    bi,
                    &mut stack,
                    heaps,
                    &mut lb_node_local,
                    &mut leaves_local,
                );
                bstate.complete.store(true, Ordering::Release);
            }
        }
        spare_stack.put(stack);
        self.lb_node.fetch_add(lb_node_local, Ordering::Relaxed);
        self.leaves.fetch_add(leaves_local, Ordering::Relaxed);
        barrier.wait();

        // --- Phase 2: queue preprocessing (tid 0 only) -----------------
        if tid == 0 {
            self.traversal_ns
                .store(self.start.elapsed().as_nanos() as u64, Ordering::Relaxed);
            let mut all: Vec<(usize, LeafPq)> = Vec::new();
            for (bi, st) in self.bstates.iter().enumerate() {
                let batch = self.active[bi];
                for q in std::mem::take(&mut *st.pqs.lock()) {
                    debug_assert!(
                        self.queue_in_batch(&q, batch),
                        "a queue of RS-batch {batch} holds a leaf from another batch"
                    );
                    all.push((batch, q));
                }
            }
            all.sort_by(|a, b| {
                a.1.min_lb_sq()
                    .unwrap_or(f64::INFINITY)
                    .total_cmp(&b.1.min_lb_sq().unwrap_or(f64::INFINITY))
            });
            self.pq_count.store(all.len(), Ordering::Relaxed);
            let mut lens: Vec<usize> = all.iter().map(|(_, q)| q.len()).collect();
            lens.sort_unstable();
            self.pq_median.store(
                lens.get(lens.len() / 2).copied().unwrap_or(0),
                Ordering::Relaxed,
            );
            let ids: Vec<usize> = all.iter().map(|&(b, _)| b).collect();
            *self.sorted.write() = all.into_iter().map(|(b, q)| (b, Mutex::new(q))).collect();
            self.view.publish_queues(ids);
        }
        barrier.wait();

        // --- Phase 3: queue processing ---------------------------------
        // Claims first, then the help pass (see the method docs); a
        // one-member group has nobody to help and skips the pass.
        //
        // Each popped leaf is drained in two passes over its contiguous
        // scan slots: a tight lower-bound sweep over the dense SAX block
        // into a reusable scratch buffer, then real distances for the
        // survivors only. The shared threshold is loaded once per leaf
        // (a stale — i.e. larger — value only prunes less, never
        // wrongly), and work counters stay in per-thread locals.
        let mut lb_series_local = 0u64;
        let mut real_dist_local = 0u64;
        let sorted_guard = self.sorted.read();
        let n_queues = sorted_guard.len();
        // Contract: queue claims happen only inside the processing
        // phase (the claim counter doubles as the steal cursor, and
        // `try_steal` assumes it is monotone within this phase).
        debug_assert!(
            n_queues == 0 || self.view.is_processing(),
            "queue claim outside the processing phase"
        );
        let claims = std::iter::from_fn(|| {
            (self.service)();
            let i = self.view.pq_cnt.fetch_add(1, Ordering::AcqRel);
            (i < n_queues).then_some(i)
        });
        let help_pass = if barrier.parties() > 1 {
            0..n_queues
        } else {
            0..0
        };
        for i in claims.chain(help_pass) {
            let (bid, q) = &sorted_guard[i];
            if self.view.is_stolen(*bid) {
                continue; // a helper node took this batch
            }
            while let Some((cand, thr)) = self.pop_live(q, heaps) {
                let range = cand.leaf.slice.range();
                let n_cand = range.len();
                if n_cand == 0 {
                    continue;
                }
                // Pass 1: batched lower bounds over the leaf's
                // contiguous row-major SAX block. The scratch
                // buffer only grows — the sweep overwrites exactly the
                // prefix it uses, so no per-leaf re-zeroing.
                if lb_block.len() < n_cand {
                    lb_block.resize(n_cand, 0.0);
                }
                let lb = &mut lb_block[..n_cand];
                self.kernel.lb_block_at(self.layout, range.clone(), lb);
                lb_series_local += n_cand as u64;
                // Pass 2: real distances for survivors. The survivor
                // positions are gathered first (reusing one index
                // buffer across leaves), so the distance loop runs
                // branch-free over exactly the work it will do and
                // knows which raw series it reads next: it keeps the
                // series `AHEAD` survivors on in flight to the cache.
                survivors.clear();
                survivors.extend(
                    lb.iter()
                        .zip(range)
                        .filter(|(lb, _)| **lb < thr)
                        .map(|(_, p)| p),
                );
                real_dist_local += survivors.len() as u64;
                for &p in survivors.iter().take(AHEAD) {
                    prefetch_series(self.layout.series(p));
                }
                for (i, &p) in survivors.iter().enumerate() {
                    if let Some(&next) = survivors.get(i + AHEAD) {
                        prefetch_series(self.layout.series(next));
                    }
                    if let Some(d) = self.kernel.distance_sq(self.layout.series(p), thr) {
                        let id = self.layout.original_id(p);
                        if self.results.offer(d, id) {
                            (self.on_improve)(d, id);
                        }
                    }
                }
            }
        }
        self.lb_series.fetch_add(lb_series_local, Ordering::Relaxed);
        self.real_dist.fetch_add(real_dist_local, Ordering::Relaxed);
    }

    /// Pops the next leaf of queue `q` under one lock hold, with the
    /// threshold it was checked against; `None` once the queue is spent
    /// (empty, or its minimum can no longer win — the rest of a min-heap
    /// is prunable too). The first worker to find the queue spent takes
    /// its heap, so later visitors find it empty at once, and recycles
    /// the allocation into its scratch; the empty zero-capacity heap it
    /// leaves behind never enters a spare pool.
    fn pop_live(
        &self,
        q: &Mutex<LeafPq<'e>>,
        heaps: &mut Vec<super::pqueue::SpareHeap>,
    ) -> Option<(LeafCandidate<'e>, f64)> {
        let mut q = q.lock();
        let thr = self.results.threshold_sq();
        match q.pop() {
            Some(cand) if cand.lb_sq < thr => Some((cand, thr)),
            _ => {
                let spent = std::mem::take(&mut *q);
                drop(q);
                let cap = spent.capacity();
                if cap > 0 && cap <= MAX_SPARE_HEAP_CAP && heaps.len() < MAX_SPARE_HEAPS {
                    heaps.push(spent.into_spare());
                }
                None
            }
        }
    }

    /// Marks the search finished on the steal view and converts the
    /// accumulated counters into a [`SearchStats`].
    pub(crate) fn finish(self) -> SearchStats {
        self.view.finish();
        let elapsed = self.start.elapsed();
        let traversal_time = std::time::Duration::from_nanos(self.traversal_ns.into_inner());
        SearchStats {
            initial_bsf: 0.0,
            lb_node_computations: self.lb_node.into_inner(),
            lb_series_computations: self.lb_series.into_inner(),
            real_distance_computations: self.real_dist.into_inner(),
            leaves_collected: self.leaves.into_inner(),
            pq_count: self.pq_count.into_inner(),
            pq_size_median: self.pq_median.into_inner(),
            elapsed,
            traversal_time,
            processing_time: elapsed.saturating_sub(traversal_time),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{Index, IndexConfig};
    use crate::search::engine::BatchEngine;
    use crate::series::DatasetBuffer;

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

    fn query(seed: u64, len: usize) -> Vec<f32> {
        let d = walk_dataset(1, len, seed);
        d.series(0).to_vec()
    }

    fn build(n: usize, cap: usize) -> Arc<Index> {
        let data = walk_dataset(n, 64, 33);
        Arc::new(Index::build(
            data,
            IndexConfig::new(64).with_segments(8).with_leaf_capacity(cap),
            2,
        ))
    }

    /// Admits `bsf` under `query_id` and runs the engine over
    /// `batch_subset` (every RS-batch when `None`), first letting
    /// `prepare` act on the grant's steal view.
    fn run_admitted(
        engine: &BatchEngine,
        kernel: &EdKernel,
        params: &SearchParams,
        bsf: &Arc<SharedBsf>,
        batch_subset: Option<&[usize]>,
        query_id: usize,
        prepare: impl FnOnce(&StealView),
    ) -> SearchStats {
        let grant = engine.admit(query_id, Arc::clone(bsf) as Arc<dyn ResultSet + Send + Sync>);
        prepare(grant.view());
        engine.run_query(kernel, params, &**bsf, batch_subset, &grant, &|_, _| {})
    }

    #[test]
    fn exact_matches_brute_force_across_configs() {
        let idx = build(1200, 24);
        let engines = [1usize, 2, 4].map(|threads| BatchEngine::new(Arc::clone(&idx), threads));
        for qseed in [100u64, 200, 300] {
            let q = query(qseed, 64);
            let want = idx.brute_force(&q);
            for engine in &engines {
                let threads = engine.n_threads();
                for th in [4usize, 64, usize::MAX] {
                    for nsb in [1usize, 3, 8] {
                        for help_th in [0usize, 2, usize::MAX] {
                            let params = SearchParams::new(threads)
                                .with_th(th)
                                .with_nsb(nsb)
                                .with_help_th(help_th);
                            let got = engine.exact(&q, &params);
                            assert!(
                                (got.answer.distance - want.distance).abs() < 1e-9,
                                "qseed={qseed} threads={threads} th={th} nsb={nsb} \
                                 help_th={help_th}: {} vs {}",
                                got.answer.distance,
                                want.distance
                            );
                        }
                    }
                }
            }
        }
    }

    /// Phase 3's prefetch window at both ends: leaves whose survivors
    /// number fewer than, exactly and more than `AHEAD` answer ED, k-NN
    /// and DTW exactly at width 1 and 2. White noise is so far from the
    /// walks that the lower bounds sweep every leaf and prune (almost)
    /// no series: when each size class (below, at and above `AHEAD`) has
    /// more leaves than there are pruned series, some leaf of each class
    /// keeps all its series as survivors. Graded queries (a series plus
    /// noise) leave a few survivors per leaf.
    #[test]
    fn prefetch_window_edges_answer_exactly() {
        let idx = build(1500, 2 * AHEAD);
        let mut sizes = Vec::new();
        for t in idx.forest() {
            t.node
                .for_each_leaf(&mut |leaf| sizes.push(leaf.slice.len()));
        }
        let leaves_where = |f: &dyn Fn(usize) -> bool| sizes.iter().filter(|&&n| f(n)).count();
        let classes = [
            leaves_where(&|n| n > 0 && n < AHEAD),
            leaves_where(&|n| n == AHEAD),
            leaves_where(&|n| n > AHEAD),
        ];
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut noise = |n: usize| -> Vec<f32> {
            (0..n)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    (x % 2000) as f32 / 1000.0 - 1.0
                })
                .collect()
        };
        let mut queries: Vec<(Vec<f32>, bool)> = Vec::new();
        // Loud white noise (not z-normalised): every real distance is
        // about 64 × 10², while a segment mean averages the noise down,
        // so no lower bound comes near the best-so-far.
        for _ in 0..2 {
            let q: Vec<f32> = noise(64).into_iter().map(|v| 10.0 * v).collect();
            queries.push((q, true));
        }
        for (id, amp) in [(17u32, 0.05f32), (700, 0.3), (1200, 1.0)] {
            let mut q: Vec<f32> = idx.series_by_id(id).to_vec();
            for (v, n) in q.iter_mut().zip(noise(64)) {
                *v += amp * n;
            }
            crate::series::znormalize(&mut q);
            queries.push((q, false));
        }
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        for threads in [1usize, 2] {
            let engine = BatchEngine::new(Arc::clone(&idx), threads);
            let params = SearchParams::new(threads);
            for (qi, (q, white)) in queries.iter().enumerate() {
                let got = engine.exact(q, &params);
                let want = idx.brute_force(q);
                assert!(
                    close(got.answer.distance, want.distance),
                    "threads={threads} q={qi}"
                );
                assert_eq!(
                    got.answer.series_id, want.series_id,
                    "threads={threads} q={qi}"
                );
                if *white {
                    let n = idx.num_series() as u64;
                    assert_eq!(
                        got.stats.lb_series_computations, n,
                        "q={qi}: every leaf swept"
                    );
                    let pruned = (n - got.stats.real_distance_computations) as usize;
                    assert!(
                        classes.iter().all(|&c| c > pruned),
                        "threads={threads} q={qi}: {pruned} pruned, leaf classes {classes:?}"
                    );
                }
                let (knn, _) = engine.knn(q, 5, &params);
                let want = crate::search::knn::knn_brute_force(&idx, q, 5);
                for (g, w) in knn.neighbors.iter().zip(&want.neighbors) {
                    assert!(
                        close(g.0, w.0) && g.1 == w.1,
                        "threads={threads} q={qi} k-NN"
                    );
                }
                let (dtw, _) = engine.dtw(q, 4, &params);
                let want = crate::search::dtw_search::dtw_brute_force(&idx, q, 4);
                assert!(
                    close(dtw.distance, want.distance),
                    "threads={threads} q={qi} DTW"
                );
                assert_eq!(
                    dtw.series_id, want.series_id,
                    "threads={threads} q={qi} DTW"
                );
            }
        }
    }

    #[test]
    fn exact_finds_planted_identical_series() {
        let idx = build(800, 16);
        let q = idx.series_by_id(391).to_vec();
        let out = BatchEngine::new(idx, 2).exact(&q, &SearchParams::new(2));
        assert_eq!(out.answer.distance, 0.0);
        assert_eq!(out.answer.series_id, Some(391));
    }

    #[test]
    fn stats_are_populated() {
        let idx = build(600, 16);
        let q = query(9, 64);
        let out = BatchEngine::new(idx, 2).exact(&q, &SearchParams::new(2).with_th(8));
        assert!(out.stats.initial_bsf.is_finite());
        assert!(out.stats.lb_node_computations > 0);
        assert!(out.stats.pq_count >= 1);
        assert!(out.stats.elapsed.as_nanos() > 0);
    }

    #[test]
    fn subset_runs_compose_to_full_answer() {
        // Running the engine on complementary batch subsets with a shared
        // result set must equal the full answer — the core property behind
        // work-stealing correctness.
        let idx = build(1500, 16);
        let q = query(77, 64);
        let want = idx.brute_force(&q);
        let engine = BatchEngine::new(Arc::clone(&idx), 2);
        let kernel = EdKernel::new(&q, idx.config().segments);
        let params = SearchParams::new(2).with_nsb(6);
        let bsf = Arc::new(SharedBsf::new(f64::INFINITY, None));
        run_admitted(&engine, &kernel, &params, &bsf, Some(&[0, 2, 4]), 0, |_| {});
        run_admitted(&engine, &kernel, &params, &bsf, Some(&[1, 3, 5]), 1, |_| {});
        assert!((bsf.answer().distance - want.distance).abs() < 1e-9);
    }

    #[test]
    fn stolen_batches_completed_by_thief_yield_exact_answer() {
        // Owner runs with batches 4 and 5 pre-stolen; a "thief" (here the
        // same index, as in a replication group) completes them.
        let idx = build(1500, 16);
        let q = query(5151, 64);
        let want = idx.brute_force(&q);
        let engine = BatchEngine::new(Arc::clone(&idx), 2);
        let kernel = EdKernel::new(&q, idx.config().segments);
        let params = SearchParams::new(2).with_nsb(6);
        let approx = idx.approx_search(&q);
        let bsf = Arc::new(SharedBsf::new(approx.distance_sq, approx.series_id));
        // Pre-mark two batches as stolen before the owner starts.
        run_admitted(&engine, &kernel, &params, &bsf, None, 0, |view| {
            view.init(6);
            let stolen = view.stolen.get().expect("initialized");
            stolen[4].store(true, Ordering::Release);
            stolen[5].store(true, Ordering::Release);
        });
        // Thief completes the stolen batches against the shared BSF.
        run_admitted(&engine, &kernel, &params, &bsf, Some(&[4, 5]), 1, |_| {});
        assert!((bsf.answer().distance - want.distance).abs() < 1e-9);
    }

    #[test]
    fn try_steal_respects_nsend_and_marks_batches() {
        let view = StealView::new();
        view.init(8);
        view.publish_queues(vec![0, 1, 2, 3, 4, 5, 6, 7]);
        let s1 = view.try_steal(3);
        assert_eq!(s1, vec![7, 6, 5], "rightmost batches first");
        let s2 = view.try_steal(10);
        assert_eq!(s2, vec![4, 3, 2, 1, 0]);
        assert!(view.try_steal(1).is_empty(), "everything already stolen");
    }

    #[test]
    fn try_steal_skips_claimed_queues() {
        let view = StealView::new();
        view.init(4);
        view.publish_queues(vec![0, 1, 2, 3]);
        view.pq_cnt.store(3, Ordering::Release); // queues 0..3 claimed
        assert_eq!(view.try_steal(4), vec![3]);
    }

    #[test]
    fn try_steal_outside_processing_phase_returns_nothing() {
        let view = StealView::new();
        assert!(view.try_steal(4).is_empty());
        view.init(4);
        assert!(view.try_steal(4).is_empty(), "traversal phase");
        view.publish_queues(vec![0, 1, 2, 3]);
        view.finish();
        assert!(view.try_steal(4).is_empty(), "done phase");
    }

    #[test]
    fn on_improve_fires_and_is_monotone() {
        use std::sync::Mutex as StdMutex;
        let idx = build(900, 16);
        let q = query(31, 64);
        // A 1-thread engine runs inline: improvements arrive in order.
        let engine = BatchEngine::new(Arc::clone(&idx), 1);
        let kernel = EdKernel::new(&q, idx.config().segments);
        let bsf = Arc::new(SharedBsf::new(f64::INFINITY, None));
        let seen: StdMutex<Vec<f64>> = StdMutex::new(Vec::new());
        let grant = engine.admit(0, Arc::clone(&bsf) as Arc<dyn ResultSet + Send + Sync>);
        engine.run_query(
            &kernel,
            &SearchParams::new(1),
            &*bsf,
            None,
            &grant,
            &|d, _| seen.lock().unwrap().push(d),
        );
        let seen = seen.into_inner().unwrap();
        assert!(!seen.is_empty());
        // single-threaded: improvements strictly decrease
        for w in seen.windows(2) {
            assert!(w[1] < w[0]);
        }
        assert_eq!(seen.last().copied().unwrap(), bsf.get_sq());
    }
}
