//! Bounded leaf priority queues (Section 3.2.1, "Size of Priority
//! Queues").
//!
//! During the tree-traversal phase every worker visiting an RS-batch
//! fills one *active* priority queue; when its size reaches the
//! threshold `TH` the queue is sealed and a fresh one is started. This
//! (i) bounds each queue, so the processing phase's sorted order of
//! queue minima orders leaves more finely (the paper's Figure-6
//! trade-off), and (ii) guarantees a queue never mixes leaves of
//! different RS-batches, which is what makes *queue-level stealing by
//! batch id* possible. Spreading work over a group's threads does not
//! rest on queue sizes: the processing phase shares every live queue
//! leaf by leaf once a worker's own claims run out.

use std::collections::BinaryHeap;

/// A leaf candidate ordered by its lower-bound distance (min first).
#[derive(Debug, Clone, Copy)]
pub struct LeafCandidate {
    /// Squared `mindist` of the leaf's region to the query.
    pub lb_sq: f64,
    /// The leaf's id in the index forest ([`crate::tree::Forest::leaf`]).
    pub leaf: u32,
}

impl PartialEq for LeafCandidate {
    fn eq(&self, other: &Self) -> bool {
        self.lb_sq == other.lb_sq
    }
}
impl Eq for LeafCandidate {}
impl PartialOrd for LeafCandidate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for LeafCandidate {
    /// Inverted so that `BinaryHeap` (a max-heap) pops the **smallest**
    /// lower bound first.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.lb_sq.total_cmp(&self.lb_sq)
    }
}

/// A min-priority queue of leaf candidates.
#[derive(Debug, Default)]
pub struct LeafPq {
    heap: BinaryHeap<LeafCandidate>,
}

impl LeafPq {
    /// An empty queue.
    pub fn new() -> Self {
        LeafPq {
            heap: BinaryHeap::new(),
        }
    }

    /// An empty queue with `cap` slots preallocated (sealing-threshold
    /// sized queues never reallocate while filling).
    pub fn with_capacity(cap: usize) -> Self {
        LeafPq {
            heap: BinaryHeap::with_capacity(cap),
        }
    }

    /// Inserts a candidate.
    #[inline]
    pub fn push(&mut self, lb_sq: f64, leaf: u32) {
        self.heap.push(LeafCandidate { lb_sq, leaf });
    }

    /// Removes and returns the smallest-lower-bound candidate.
    #[inline]
    pub fn pop(&mut self) -> Option<LeafCandidate> {
        self.heap.pop()
    }

    /// The smallest lower bound currently queued.
    #[inline]
    pub fn min_lb_sq(&self) -> Option<f64> {
        self.heap.peek().map(|c| c.lb_sq)
    }

    /// Number of queued candidates.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Allocated heap slots.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.heap.capacity()
    }

    /// Whether the queue is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The queued candidates, in heap (not priority) order.
    pub fn iter(&self) -> impl Iterator<Item = &LeafCandidate> {
        self.heap.iter()
    }

    /// Empties the queue, keeping its allocation (the batch engine's
    /// scratch holds spent queues for reuse by later queries).
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

/// A set of bounded queues for one RS-batch: one active queue, sealed
/// when it reaches `th`. The engine keeps one per worker per batch
/// visit, so pushes take no lock.
#[derive(Debug)]
pub struct BoundedPqSet {
    th: usize,
    /// The queue being filled; one without an allocation yet (see
    /// [`BoundedPqSet::deferred`]) is provisioned on the next push.
    active: LeafPq,
    sealed: Vec<LeafPq>,
}

impl BoundedPqSet {
    /// Heap slots preallocated for a bounded queue: exactly `th` (a
    /// queue seals the moment it reaches `th` entries), capped so an
    /// unbounded or absurdly large threshold does not reserve memory up
    /// front.
    fn prealloc(th: usize) -> usize {
        if th == usize::MAX {
            0
        } else {
            th.min(1 << 16)
        }
    }

    /// A new set with threshold `th` (`usize::MAX` = unbounded, one queue).
    pub fn new(th: usize) -> Self {
        assert!(th > 0, "threshold must be positive");
        BoundedPqSet {
            th,
            active: LeafPq::with_capacity(Self::prealloc(th)),
            sealed: Vec::new(),
        }
    }

    /// Like [`BoundedPqSet::new`], but defers provisioning the first
    /// queue until the first [`BoundedPqSet::push_with`], which draws it
    /// from the pushing worker's spare queues.
    pub fn deferred(th: usize) -> Self {
        assert!(th > 0, "threshold must be positive");
        BoundedPqSet {
            th,
            active: LeafPq::new(),
            sealed: Vec::new(),
        }
    }

    /// Provisions a threshold-sized queue, recycling an (empty) spare
    /// when one is available.
    fn provision(th: usize, spares: &mut Vec<LeafPq>) -> LeafPq {
        match spares.pop() {
            Some(mut q) => {
                debug_assert!(q.is_empty(), "spare queues are empty");
                q.heap.reserve(Self::prealloc(th));
                q
            }
            None => LeafPq::with_capacity(Self::prealloc(th)),
        }
    }

    /// Pushes a leaf; seals the active queue when it reaches the
    /// threshold ("the thread gives up this priority queue and initiates
    /// a new one"). The replacement queue is preallocated at the
    /// threshold size, so rollover never grows heaps incrementally.
    pub fn push(&mut self, lb_sq: f64, leaf: u32) {
        self.push_with(lb_sq, leaf, &mut Vec::new());
    }

    /// [`BoundedPqSet::push`] drawing provisioned/rollover queues from
    /// `spares` (a worker's scratch arena) before allocating fresh ones.
    pub fn push_with(&mut self, lb_sq: f64, leaf: u32, spares: &mut Vec<LeafPq>) {
        if self.active.capacity() == 0 {
            self.active = Self::provision(self.th, spares);
        }
        self.active.push(lb_sq, leaf);
        if self.active.len() >= self.th {
            let full =
                std::mem::replace(&mut self.active, Self::provision(self.th, spares));
            self.sealed.push(full);
        }
    }

    /// Total candidates across all queues.
    pub fn total_len(&self) -> usize {
        self.active.len() + self.sealed.iter().map(|q| q.len()).sum::<usize>()
    }

    /// Whether nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.active.is_empty() && self.sealed.is_empty()
    }

    /// Consumes the set, appending every non-empty queue to `out`
    /// (sealed queues are full by construction).
    pub fn append_to(self, out: &mut Vec<LeafPq>) {
        out.extend(self.sealed);
        if !self.active.is_empty() {
            out.push(self.active);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queues(set: BoundedPqSet) -> Vec<LeafPq> {
        let mut out = Vec::new();
        set.append_to(&mut out);
        out
    }

    #[test]
    fn pq_pops_in_ascending_lb_order() {
        let mut pq = LeafPq::new();
        for lb in [5.0, 1.0, 3.0, 2.0, 4.0] {
            pq.push(lb, 7);
        }
        let mut got = Vec::new();
        while let Some(c) = pq.pop() {
            got.push(c.lb_sq);
        }
        assert_eq!(got, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn min_lb_tracks_peek() {
        let mut pq = LeafPq::new();
        assert_eq!(pq.min_lb_sq(), None);
        pq.push(4.0, 7);
        pq.push(2.0, 7);
        assert_eq!(pq.min_lb_sq(), Some(2.0));
    }

    #[test]
    fn bounded_set_seals_at_threshold() {
        let mut set = BoundedPqSet::new(3);
        for i in 0..8 {
            set.push(i as f64, 7);
        }
        assert_eq!(set.total_len(), 8);
        let queues = queues(set);
        // 8 pushes with TH=3: two sealed queues of 3 and one active of 2.
        assert_eq!(queues.len(), 3);
        let mut sizes: Vec<usize> = queues.iter().map(|q| q.len()).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![2, 3, 3]);
    }

    #[test]
    fn bounded_set_preallocates_threshold_capacity() {
        let mut set = BoundedPqSet::new(64);
        assert!(set.active.capacity() >= 64, "initial queue preallocated");
        for i in 0..64 {
            set.push(i as f64, 7);
        }
        assert_eq!(set.sealed.len(), 1);
        assert!(
            set.active.capacity() >= 64,
            "rollover queue preallocated, not grown from empty"
        );
    }

    #[test]
    fn unbounded_set_keeps_one_queue() {
        let mut set = BoundedPqSet::new(usize::MAX);
        for i in 0..100 {
            set.push(i as f64, 7);
        }
        let queues = queues(set);
        assert_eq!(queues.len(), 1);
        assert_eq!(queues[0].len(), 100);
    }

    #[test]
    fn empty_set_yields_no_queues() {
        let set = BoundedPqSet::new(4);
        assert!(queues(set).is_empty());
    }

    #[test]
    fn spare_heap_roundtrip_recycles_allocation() {
        let mut pq = LeafPq::with_capacity(128);
        for i in 0..100 {
            pq.push(i as f64, i);
        }
        pq.clear();
        assert!(pq.is_empty());
        let mut spares = vec![pq];
        let mut set = BoundedPqSet::deferred(4);
        set.push_with(1.0, 7, &mut spares);
        assert!(spares.is_empty(), "the cleared queue was reused");
        assert!(
            set.active.capacity() >= 128,
            "allocation survives the roundtrip"
        );
    }

    #[test]
    fn deferred_set_provisions_from_spares() {
        let mut spares = vec![LeafPq::with_capacity(512)];
        let mut set = BoundedPqSet::deferred(4);
        assert_eq!(set.active.capacity(), 0, "deferred: nothing provisioned");
        set.push_with(1.0, 7, &mut spares);
        assert!(spares.is_empty(), "first push consumed the spare");
        assert!(set.active.capacity() >= 4);
        for i in 0..7 {
            set.push_with(i as f64, 7, &mut spares);
        }
        assert_eq!(set.total_len(), 8);
        assert_eq!(queues(set).len(), 2);
    }
}
