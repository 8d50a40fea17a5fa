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

use crate::tree::Leaf;
use std::collections::BinaryHeap;

/// A leaf candidate ordered by its lower-bound distance (min first).
#[derive(Debug)]
pub struct LeafCandidate<'a> {
    /// Squared `mindist` of the leaf's region to the query.
    pub lb_sq: f64,
    /// The leaf (borrowed from the index; never moved between nodes).
    pub leaf: &'a Leaf,
}

impl PartialEq for LeafCandidate<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.lb_sq == other.lb_sq
    }
}
impl Eq for LeafCandidate<'_> {}
impl PartialOrd for LeafCandidate<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for LeafCandidate<'_> {
    /// Inverted so that `BinaryHeap` (a max-heap) pops the **smallest**
    /// lower bound first.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.lb_sq.total_cmp(&self.lb_sq)
    }
}

/// A min-priority queue of leaf candidates.
#[derive(Debug, Default)]
pub struct LeafPq<'a> {
    heap: BinaryHeap<LeafCandidate<'a>>,
}

impl<'a> LeafPq<'a> {
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
    pub fn push(&mut self, lb_sq: f64, leaf: &'a Leaf) {
        self.heap.push(LeafCandidate { lb_sq, leaf });
    }

    /// Removes and returns the smallest-lower-bound candidate.
    #[inline]
    pub fn pop(&mut self) -> Option<LeafCandidate<'a>> {
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
    pub fn iter(&self) -> impl Iterator<Item = &LeafCandidate<'a>> {
        self.heap.iter()
    }

    /// Ensures capacity for at least `cap` total candidates.
    #[inline]
    pub fn reserve(&mut self, cap: usize) {
        let len = self.heap.len();
        if cap > len {
            self.heap.reserve(cap - len);
        }
    }

    /// Clears the queue and surrenders its allocation for reuse by a
    /// later query (the batch engine's scratch arenas).
    pub fn into_spare(self) -> SpareHeap {
        let mut v = self.heap.into_vec();
        v.clear();
        SpareHeap(super::scratch::recycle_empty(v))
    }
}

/// An **empty**, lifetime-erased [`LeafPq`] allocation. The batch
/// engine's per-worker scratch holds these between queries so bounded
/// queues are provisioned from recycled heaps instead of fresh
/// allocations.
#[derive(Default)]
pub struct SpareHeap(Vec<LeafCandidate<'static>>);

impl std::fmt::Debug for SpareHeap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The vector is empty by invariant; only the capacity matters.
        f.debug_tuple("SpareHeap")
            .field(&format_args!("capacity: {}", self.0.capacity()))
            .finish()
    }
}

impl SpareHeap {
    /// Rebinds the allocation to the current query's lifetime (safe:
    /// the vector is empty and `'static` outlives `'a`).
    pub fn into_pq<'a>(self) -> LeafPq<'a> {
        let v: Vec<LeafCandidate<'a>> = self.0;
        LeafPq {
            heap: BinaryHeap::from(v),
        }
    }
}

/// A set of bounded queues for one RS-batch: one active queue, sealed
/// when it reaches `th`. The engine keeps one per worker per batch
/// visit, so pushes take no lock.
#[derive(Debug)]
pub struct BoundedPqSet<'a> {
    th: usize,
    /// Whether `active` has been provisioned (preallocated or drawn from
    /// a spare). [`BoundedPqSet::deferred`] sets this false so the first
    /// push can provision from the pushing worker's scratch.
    provisioned: bool,
    active: LeafPq<'a>,
    sealed: Vec<LeafPq<'a>>,
}

impl<'a> BoundedPqSet<'a> {
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
            provisioned: true,
            active: LeafPq::with_capacity(Self::prealloc(th)),
            sealed: Vec::new(),
        }
    }

    /// Like [`BoundedPqSet::new`], but defers provisioning the first
    /// queue until the first [`BoundedPqSet::push_with`], which draws it
    /// from the pushing worker's spare-heap scratch.
    pub fn deferred(th: usize) -> Self {
        assert!(th > 0, "threshold must be positive");
        BoundedPqSet {
            th,
            provisioned: false,
            active: LeafPq::new(),
            sealed: Vec::new(),
        }
    }

    /// Provisions a threshold-sized queue, recycling a spare allocation
    /// when one is available.
    fn provision(th: usize, spares: &mut Vec<SpareHeap>) -> LeafPq<'a> {
        match spares.pop() {
            Some(s) => {
                let mut q = s.into_pq();
                q.reserve(Self::prealloc(th));
                q
            }
            None => LeafPq::with_capacity(Self::prealloc(th)),
        }
    }

    /// Pushes a leaf; seals the active queue when it reaches the
    /// threshold ("the thread gives up this priority queue and initiates
    /// a new one"). The replacement queue is preallocated at the
    /// threshold size, so rollover never grows heaps incrementally.
    pub fn push(&mut self, lb_sq: f64, leaf: &'a Leaf) {
        self.push_with(lb_sq, leaf, &mut Vec::new());
    }

    /// [`BoundedPqSet::push`] drawing provisioned/rollover queues from
    /// `spares` (a worker's scratch arena) before allocating fresh ones.
    pub fn push_with(&mut self, lb_sq: f64, leaf: &'a Leaf, spares: &mut Vec<SpareHeap>) {
        if !self.provisioned {
            self.active = Self::provision(self.th, spares);
            self.provisioned = true;
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
    pub fn append_to(self, out: &mut Vec<LeafPq<'a>>) {
        out.extend(self.sealed);
        if !self.active.is_empty() {
            out.push(self.active);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sax::IsaxWord;

    fn queues(set: BoundedPqSet<'_>) -> Vec<LeafPq<'_>> {
        let mut out = Vec::new();
        set.append_to(&mut out);
        out
    }

    fn leaf() -> Leaf {
        Leaf {
            word: IsaxWord {
                symbols: vec![0; 4],
                card_bits: vec![1; 4],
            },
            slice: crate::tree::LeafSlice { offset: 0, len: 3 },
        }
    }

    #[test]
    fn pq_pops_in_ascending_lb_order() {
        let l = leaf();
        let mut pq = LeafPq::new();
        for lb in [5.0, 1.0, 3.0, 2.0, 4.0] {
            pq.push(lb, &l);
        }
        let mut got = Vec::new();
        while let Some(c) = pq.pop() {
            got.push(c.lb_sq);
        }
        assert_eq!(got, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn min_lb_tracks_peek() {
        let l = leaf();
        let mut pq = LeafPq::new();
        assert_eq!(pq.min_lb_sq(), None);
        pq.push(4.0, &l);
        pq.push(2.0, &l);
        assert_eq!(pq.min_lb_sq(), Some(2.0));
    }

    #[test]
    fn bounded_set_seals_at_threshold() {
        let l = leaf();
        let mut set = BoundedPqSet::new(3);
        for i in 0..8 {
            set.push(i as f64, &l);
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
        let l = leaf();
        let mut set = BoundedPqSet::new(64);
        assert!(set.active.capacity() >= 64, "initial queue preallocated");
        for i in 0..64 {
            set.push(i as f64, &l);
        }
        assert_eq!(set.sealed.len(), 1);
        assert!(
            set.active.capacity() >= 64,
            "rollover queue preallocated, not grown from empty"
        );
    }

    #[test]
    fn unbounded_set_keeps_one_queue() {
        let l = leaf();
        let mut set = BoundedPqSet::new(usize::MAX);
        for i in 0..100 {
            set.push(i as f64, &l);
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
        let l = leaf();
        let mut pq = LeafPq::with_capacity(128);
        for i in 0..100 {
            pq.push(i as f64, &l);
        }
        let spare = pq.into_spare();
        let pq2: LeafPq = spare.into_pq();
        assert!(pq2.is_empty(), "spares are always empty");
        assert!(pq2.capacity() >= 128, "allocation survives the roundtrip");
    }

    #[test]
    fn deferred_set_provisions_from_spares() {
        let l = leaf();
        let mut spares = vec![LeafPq::with_capacity(512).into_spare()];
        let mut set = BoundedPqSet::deferred(4);
        assert_eq!(set.active.capacity(), 0, "deferred: nothing provisioned");
        set.push_with(1.0, &l, &mut spares);
        assert!(spares.is_empty(), "first push consumed the spare");
        assert!(set.active.capacity() >= 4);
        for i in 0..7 {
            set.push_with(i as f64, &l, &mut spares);
        }
        assert_eq!(set.total_len(), 8);
        assert_eq!(queues(set).len(), 2);
    }
}
