//! Per-worker reusable scratch arenas for the search engine.
//!
//! The paper's workloads are *batches* of queries; re-provisioning
//! execution state per query (thread stacks, priority-queue heaps,
//! lower-bound buffers) is pure overhead once a
//! [`BatchEngine`](super::engine::BatchEngine) keeps worker threads
//! resident. A [`WorkerScratch`] lives as long as its worker thread and
//! is *cleared, not reallocated* between queries.
//!
//! Traversal stacks and queues hold plain `u32` node and leaf ids into
//! the index forest, not borrows of it, so every arena is an ordinary
//! `Vec` that outlives any single query.

use super::pqueue::LeafPq;

/// Per-worker scratch: every field keeps its allocation across queries.
#[derive(Default)]
pub(crate) struct WorkerScratch {
    /// Lower-bound block buffer for the two-pass leaf drain (phase 3).
    /// Grows to the largest leaf seen and is never shrunk or re-zeroed:
    /// the lower-bound sweep overwrites exactly the prefix it uses.
    pub(crate) lb_block: Vec<f64>,
    /// Surviving scan positions of the current leaf (phase 3); cleared —
    /// not reallocated — between leaves.
    pub(crate) survivors: Vec<usize>,
    /// Node ids of the iterative traversal below inner roots (phase 1).
    pub(crate) stack: Vec<u32>,
    /// Empty priority queues, drawn on queue rollover (phase 1) and
    /// refilled from drained queues (phase 3).
    pub(crate) heaps: Vec<LeafPq>,
}

impl WorkerScratch {
    /// First-touch NUMA warmup: grows and **touches** the hot arenas
    /// (the lower-bound block and survivor buffers, sized by the
    /// index's leaf capacity) on the *calling* thread. Invoked by every
    /// pool worker on its own pinned thread right after pinning, so the
    /// pages are physically allocated on the worker's local node — a
    /// lane's contiguous core block then scans leaves through
    /// node-local scratch. The buffers only ever grow (`lb_block` is
    /// overwritten prefix-wise, `survivors` is cleared per leaf), so
    /// faulting them early never changes behavior, only page placement.
    pub(crate) fn prefault(&mut self, leaf_capacity: usize) {
        if self.lb_block.len() < leaf_capacity {
            self.lb_block.resize(leaf_capacity, 0.0);
        }
        if self.survivors.capacity() < leaf_capacity {
            // `resize` + `clear` (not `reserve`): reserving leaves the
            // pages untouched, so they would still first-fault — and
            // first-touch — on whichever thread runs the first query.
            self.survivors.resize(leaf_capacity, 0);
            self.survivors.clear();
        }
    }
}

/// Cap on hoarded spare heaps per worker, and on the capacity of a heap
/// worth keeping (matches the `BoundedPqSet` preallocation cap, so an
/// unbounded-`TH` run never parks a giant allocation in the scratch).
pub(crate) const MAX_SPARE_HEAPS: usize = 64;
pub(crate) const MAX_SPARE_HEAP_CAP: usize = 1 << 16;
