//! The iSAX index tree (index-construction phase 2).
//!
//! Each summarization buffer becomes one **root subtree** (Figure 1d).
//! Inner nodes split by refining one segment's cardinality by one bit; the
//! two children cover the two halves of the parent's region. Leaves hold
//! no series data at all — only a [`LeafSlice`]: a contiguous slot range
//! in the index's *scan layout* (`crate::layout::LeafLayout`), where the
//! raw values and SAX words of every leaf are stored back to back. The
//! work-stealing protocol still never moves data across nodes: thieves
//! rebuild identical trees (construction is deterministic — split
//! choices and the leaf permutation depend only on the data), so slot
//! ranges mean the same thing on every node of a replication group.
//!
//! [`build_forest`] therefore returns the forest *plus* the scan
//! permutation (`scan position -> original series id`) that the layout
//! is materialized from.

use crate::buffers::{SummarizationBuffer, SummarizationBuffers, Summaries};
use crate::layout::LeafLayout;
use crate::sax::{IsaxWord, MAX_CARD_BITS};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A contiguous range of scan-layout slots (see
/// `crate::layout::LeafLayout`).
///
/// **Contract:** leaf slices of one index partition `[0, num_series)` —
/// pairwise disjoint, and every position covered by exactly one leaf.
/// Within a slice, positions are ordered by ascending original series
/// id (dataset order), which is what keeps construction — and hence the
/// replication/stealing protocol — deterministic. The mapping from
/// positions back to original ids lives in the index's layout
/// (`LeafLayout::original_id`); answers always report original ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeafSlice {
    /// First scan position of the leaf's series.
    pub offset: u32,
    /// Number of series stored in the leaf.
    pub len: u32,
}

impl LeafSlice {
    /// The covered scan positions as a `usize` range.
    #[inline]
    pub fn range(&self) -> std::ops::Range<usize> {
        let s = self.offset as usize;
        s..s + self.len as usize
    }

    /// Number of series in the leaf.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the leaf stores no series.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// A leaf node: an iSAX region plus the scan-layout slots of the series
/// whose summaries fall in that region.
#[derive(Debug)]
pub struct Leaf {
    /// The iSAX region this leaf covers.
    pub word: IsaxWord,
    /// The leaf's contiguous slot range in the scan layout.
    pub slice: LeafSlice,
}

/// A tree node.
#[derive(Debug)]
pub enum Node {
    /// Inner node refined on `split_seg`; `children[b]` covers the half
    /// whose next bit on that segment is `b`.
    Inner {
        /// Region covered by this node.
        word: IsaxWord,
        /// Segment whose cardinality the split refined.
        split_seg: usize,
        /// The two half-region children.
        children: [Box<Node>; 2],
    },
    /// Leaf node.
    Leaf(Leaf),
}

impl Node {
    /// The iSAX region of this node.
    pub fn word(&self) -> &IsaxWord {
        match self {
            Node::Inner { word, .. } => word,
            Node::Leaf(l) => &l.word,
        }
    }

    /// Number of leaves below (and including) this node.
    pub fn leaf_count(&self) -> usize {
        match self {
            Node::Inner { children, .. } => {
                children[0].leaf_count() + children[1].leaf_count()
            }
            Node::Leaf(_) => 1,
        }
    }

    /// Number of series stored below this node.
    pub fn series_count(&self) -> usize {
        match self {
            Node::Inner { children, .. } => {
                children[0].series_count() + children[1].series_count()
            }
            Node::Leaf(l) => l.slice.len(),
        }
    }

    /// Maximum depth below this node (a lone leaf has depth 1).
    pub fn depth(&self) -> usize {
        match self {
            Node::Inner { children, .. } => 1 + children[0].depth().max(children[1].depth()),
            Node::Leaf(_) => 1,
        }
    }

    /// Approximate heap size of the subtree in bytes (words + nodes);
    /// feeds the index-size experiment (Figure 14). Per-leaf id storage
    /// lives in the scan layout and is accounted there.
    pub fn size_bytes(&self) -> usize {
        let word_bytes = |w: &IsaxWord| w.symbols.len() * 2;
        match self {
            Node::Inner { word, children, .. } => {
                std::mem::size_of::<Node>()
                    + word_bytes(word)
                    + children[0].size_bytes()
                    + children[1].size_bytes()
            }
            Node::Leaf(l) => std::mem::size_of::<Node>() + word_bytes(&l.word),
        }
    }

    /// Calls `f` on every leaf below this node, in left-to-right order.
    pub fn for_each_leaf<'a>(&'a self, f: &mut impl FnMut(&'a Leaf)) {
        match self {
            Node::Inner { children, .. } => {
                children[0].for_each_leaf(f);
                children[1].for_each_leaf(f);
            }
            Node::Leaf(l) => f(l),
        }
    }
}

/// One root subtree: the tree grown from a single summarization buffer.
#[derive(Debug)]
pub struct RootSubtree {
    /// Root-word key of the originating buffer.
    pub key: u64,
    /// The subtree.
    pub node: Node,
    /// Number of series in the subtree.
    pub size: usize,
}

/// Segment-major (SoA) planes of the forest's **root bounds**: byte
/// `lo[i * len + r]` / `hi[i * len + r]` is the smallest / largest
/// full-cardinality segment-`i` symbol of any series stored under root
/// `r` — the subtree's actual SAX envelope, not the (much wider) range
/// its 1-bit-per-segment root word covers.
///
/// An iSAX forest over a high-entropy collection is wide and shallow —
/// most series land in distinct root words, most roots are lone leaves
/// of a few series — so the engine's node-level lower bound is evaluated
/// once per *root* per query, and that bound decides which leaves are
/// queued. This transpose is the shape the 8-way SIMD clamp-and-gather
/// kernel ([`crate::sax::MindistTable::root_lb_block`]) consumes: per
/// segment, eight roots' `lo`/`hi` bytes are two contiguous 8-byte
/// loads. The kernel accepts any symbol interval `lo <= hi`, and
/// clamping into an interval is a minimum over it, so for every series
/// `s` under a root:
///
/// `word_lb(root word) <= root_lb <= series_lb(sax(s))`
///
/// (the series' symbols lie in the data interval, which lies in the
/// word's range; IEEE addition is monotone, so summing smaller terms in
/// the same order never gives a larger bound).
///
/// Built once at index assembly (both the build and the ODY2 load path)
/// by folding each leaf's row-major SAX words into its root's min/max;
/// never persisted — it is a pure function of the forest and the layout.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RootSoa {
    /// Lower symbol bounds, segment-major, stride = root count.
    lo: Vec<u8>,
    /// Upper symbol bounds, segment-major, stride = root count.
    hi: Vec<u8>,
    /// Number of roots (the plane stride).
    len: usize,
    /// Segments per word (the plane count).
    segments: usize,
}

impl RootSoa {
    /// Builds the data-tight planes: per root and segment, the min / max
    /// symbol over the root's series in `layout` (a min/max over each of
    /// its leaves' scan ranges). A root that stores no series keeps its
    /// word's range.
    ///
    /// # Panics
    /// Panics if the root words disagree on segment count, or a leaf
    /// slice lies outside the layout.
    pub fn build(forest: &[RootSubtree], layout: &LeafLayout) -> Self {
        let mut soa = Self::from_words(forest.iter().map(|t| t.node.word()));
        let (len, segments) = (soa.len, soa.segments);
        let mut lo_w = vec![u8::MAX; segments];
        let mut hi_w = vec![u8::MIN; segments];
        for (r, tree) in forest.iter().enumerate() {
            lo_w.fill(u8::MAX);
            hi_w.fill(u8::MIN);
            let mut stored = false;
            tree.node.for_each_leaf(&mut |leaf| {
                stored |= !leaf.slice.is_empty();
                for word in layout.sax_block(leaf.slice.range()).chunks_exact(segments) {
                    for ((l, h), &s) in lo_w.iter_mut().zip(hi_w.iter_mut()).zip(word) {
                        (*l, *h) = ((*l).min(s), (*h).max(s));
                    }
                }
            });
            if stored {
                for i in 0..segments {
                    (soa.lo[i * len + r], soa.hi[i * len + r]) = (lo_w[i], hi_w[i]);
                }
            }
        }
        soa
    }

    /// Builds the planes from an explicit word sequence: each root's
    /// interval is its word's full range ([`IsaxWord::full_range`]).
    ///
    /// # Panics
    /// Panics if the words disagree on segment count.
    pub fn from_words<'a>(words: impl ExactSizeIterator<Item = &'a IsaxWord>) -> Self {
        let len = words.len();
        let mut segments = 0;
        let mut lo = Vec::new();
        let mut hi = Vec::new();
        for (r, word) in words.enumerate() {
            if r == 0 {
                segments = word.segments();
                lo = vec![0u8; segments * len];
                hi = vec![0u8; segments * len];
            }
            assert_eq!(word.segments(), segments, "ragged root word {r}");
            for i in 0..segments {
                let (l, h) = word.full_range(i);
                lo[i * len + r] = l as u8;
                hi[i * len + r] = h as u8;
            }
        }
        RootSoa {
            lo,
            hi,
            len,
            segments,
        }
    }

    /// Builds the planes from raw segment-major bytes (stride
    /// `lo.len() / segments`) — exposed so tests can drive the root
    /// sweep with arbitrary symbol intervals; [`RootSoa::build`] is the
    /// production path.
    ///
    /// # Panics
    /// Panics if the planes differ in length, their length is not a
    /// multiple of `segments`, or some `lo` byte exceeds its `hi` byte.
    pub fn from_planes(lo: Vec<u8>, hi: Vec<u8>, segments: usize) -> Self {
        assert_eq!(lo.len(), hi.len(), "ragged lo/hi planes");
        assert!(
            lo.len().is_multiple_of(segments),
            "planes are not {segments} segments deep"
        );
        assert!(
            lo.iter().zip(&hi).all(|(l, h)| l <= h),
            "inverted symbol interval"
        );
        let len = lo.len().checked_div(segments).unwrap_or(0);
        RootSoa {
            lo,
            hi,
            len,
            segments,
        }
    }

    /// Number of roots covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the planes cover no roots.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Segments per word (0 for an empty forest).
    #[inline]
    pub fn segments(&self) -> usize {
        self.segments
    }

    /// The lower-bound plane (segment-major, stride [`RootSoa::len`]).
    #[inline]
    pub(crate) fn lo_plane(&self) -> &[u8] {
        &self.lo
    }

    /// The upper-bound plane (segment-major, stride [`RootSoa::len`]).
    #[inline]
    pub(crate) fn hi_plane(&self) -> &[u8] {
        &self.hi
    }

    /// Heap bytes held by the planes.
    pub fn size_bytes(&self) -> usize {
        self.lo.len() + self.hi.len()
    }
}

/// Picks the segment to split: the lowest-cardinality segment whose
/// refinement actually separates the ids; among equal cardinalities the
/// most balanced split wins. Returns `None` when no segment can separate
/// (all remaining summaries identical, or all segments saturated).
fn choose_split(word: &IsaxWord, ids: &[u32], summaries: &Summaries) -> Option<usize> {
    let segs = word.segments();
    let min_bits = (0..segs)
        .filter(|&s| word.card_bits[s] < MAX_CARD_BITS)
        .map(|s| word.card_bits[s])
        .min()?;
    let mut best: Option<(usize, usize)> = None; // (imbalance, seg)
    for seg in 0..segs {
        if word.card_bits[seg] != min_bits {
            continue;
        }
        let shift = MAX_CARD_BITS - word.card_bits[seg] - 1;
        let ones = ids
            .iter()
            .filter(|&&id| (summaries.sax(id)[seg] >> shift) & 1 == 1)
            .count();
        if ones == 0 || ones == ids.len() {
            continue; // does not separate
        }
        let imbalance = ids.len().abs_diff(2 * ones);
        if best.is_none_or(|(bi, _)| imbalance < bi) {
            best = Some((imbalance, seg));
        }
    }
    match best {
        Some((_, seg)) => Some(seg),
        None => {
            // No minimum-cardinality segment separates: fall back to any
            // refinable segment that does.
            for seg in 0..segs {
                if word.card_bits[seg] >= MAX_CARD_BITS {
                    continue;
                }
                let shift = MAX_CARD_BITS - word.card_bits[seg] - 1;
                let ones = ids
                    .iter()
                    .filter(|&&id| (summaries.sax(id)[seg] >> shift) & 1 == 1)
                    .count();
                if ones > 0 && ones < ids.len() {
                    return Some(seg);
                }
            }
            None
        }
    }
}

/// Recursively builds a node for `word` covering `ids`, appending each
/// finished leaf's ids to `perm` (the subtree-local scan permutation)
/// and recording the covered range as the leaf's slice.
fn build_node(
    word: IsaxWord,
    ids: Vec<u32>,
    summaries: &Summaries,
    leaf_capacity: usize,
    perm: &mut Vec<u32>,
) -> Node {
    let make_leaf = |word: IsaxWord, ids: Vec<u32>, perm: &mut Vec<u32>| {
        let slice = LeafSlice {
            offset: perm.len() as u32,
            len: ids.len() as u32,
        };
        perm.extend_from_slice(&ids);
        Node::Leaf(Leaf { word, slice })
    };
    if ids.len() <= leaf_capacity {
        return make_leaf(word, ids, perm);
    }
    let Some(seg) = choose_split(&word, &ids, summaries) else {
        // Identical summaries beyond capacity: keep an oversized leaf.
        return make_leaf(word, ids, perm);
    };
    let shift = MAX_CARD_BITS - word.card_bits[seg] - 1;
    let (mut zeros, mut ones) = (Vec::new(), Vec::new());
    for id in ids {
        if (summaries.sax(id)[seg] >> shift) & 1 == 1 {
            ones.push(id);
        } else {
            zeros.push(id);
        }
    }
    let child0 = build_node(word.refine(seg, 0), zeros, summaries, leaf_capacity, perm);
    let child1 = build_node(word.refine(seg, 1), ones, summaries, leaf_capacity, perm);
    Node::Inner {
        word,
        split_seg: seg,
        children: [Box::new(child0), Box::new(child1)],
    }
}

/// Builds the root subtree of one summarization buffer, returning the
/// subtree (leaf slices local to this subtree, i.e. starting at 0) and
/// its scan permutation (local position -> original series id).
pub fn build_root_subtree(
    buffer: &SummarizationBuffer,
    summaries: &Summaries,
    leaf_capacity: usize,
) -> (RootSubtree, Vec<u32>) {
    let segs = summaries.segments();
    let mut symbols = vec![0u8; segs];
    for (i, sym) in symbols.iter_mut().enumerate() {
        *sym = ((buffer.key >> (segs - 1 - i)) & 1) as u8;
    }
    let word = IsaxWord {
        symbols,
        card_bits: vec![1; segs],
    };
    let mut perm = Vec::with_capacity(buffer.ids.len());
    let node = build_node(word, buffer.ids.clone(), summaries, leaf_capacity, &mut perm);
    (
        RootSubtree {
            key: buffer.key,
            node,
            size: buffer.ids.len(),
        },
        perm,
    )
}

/// Shifts every leaf slice below `node` by `base` scan positions
/// (relocating a subtree-local permutation into the global one).
fn shift_slices(node: &mut Node, base: u32) {
    match node {
        Node::Inner { children, .. } => {
            shift_slices(&mut children[0], base);
            shift_slices(&mut children[1], base);
        }
        Node::Leaf(l) => l.slice.offset += base,
    }
}

/// Builds all root subtrees in parallel: `n_threads` workers claim buffers
/// with `Fetch&Add` and grow them independently (the embarrassingly
/// parallel phase the paper inherits from MESSI). Output order matches
/// buffer order (ascending key), independent of thread interleaving.
///
/// Returns the forest plus the global scan permutation: subtree-local
/// permutations concatenated in buffer order, with every leaf slice
/// shifted to its global offset. `perm[p]` is the original id of the
/// series stored at scan position `p`.
pub fn build_forest(
    buffers: &SummarizationBuffers,
    summaries: &Summaries,
    leaf_capacity: usize,
    n_threads: usize,
) -> (Vec<RootSubtree>, Vec<u32>) {
    let nb = buffers.len();
    let mut slots: Vec<Option<(RootSubtree, Vec<u32>)>> = Vec::with_capacity(nb);
    slots.resize_with(nb, || None);
    let next = AtomicUsize::new(0);
    let n_threads = n_threads.max(1).min(nb.max(1));
    let slots_ptr = SlotsPtr::new(&mut slots);
    std::thread::scope(|scope| {
        for _ in 0..n_threads {
            let next = &next;
            let slots_ptr = &slots_ptr;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= nb {
                    break;
                }
                let st = build_root_subtree(&buffers.buffers[i], summaries, leaf_capacity);
                // SAFETY: `i < nb` (checked above) keeps the write in
                // bounds, and the `fetch_add` claim hands each index to
                // exactly one thread, so no slot is written twice or
                // concurrently; the scope joins all writers before the
                // vector is read.
                unsafe {
                    *slots_ptr.0.add(i) = Some(st);
                }
            });
        }
    });
    let mut forest = Vec::with_capacity(nb);
    let mut perm = Vec::with_capacity(summaries.num_series());
    for slot in slots {
        let (mut st, local) = slot.expect("every buffer index was claimed");
        shift_slices(&mut st.node, perm.len() as u32);
        perm.extend_from_slice(&local);
        forest.push(st);
    }
    (forest, perm)
}

/// One [`build_forest`] output slot: a built subtree plus its local
/// leaf-order permutation, `None` until its claiming thread writes it.
type SubtreeSlot = Option<(RootSubtree, Vec<u32>)>;

/// Pointer into the borrowed subtree-slot vector of [`build_forest`],
/// shared across its worker threads.
///
/// # Invariants
///
/// * The wrapper holds the `&'a mut` borrow it was built from (via
///   `PhantomData`), so the pointer cannot outlive — or alias a safe
///   re-borrow of — the slot vector while any thread still holds it.
/// * Writers only reach slots through [`build_forest`]'s `fetch_add`
///   index claiming, so each slot is written by exactly one thread.
#[derive(Debug)]
struct SlotsPtr<'a>(*mut SubtreeSlot, std::marker::PhantomData<&'a mut [SubtreeSlot]>);

impl<'a> SlotsPtr<'a> {
    fn new(target: &'a mut [SubtreeSlot]) -> Self {
        SlotsPtr(target.as_mut_ptr(), std::marker::PhantomData)
    }
}

// SAFETY: the wrapped pointer is derived from an exclusive borrow that
// the `PhantomData` keeps alive, and concurrent writes go to distinct
// claimed slots (see the type invariants), so moving the handle to —
// and sharing it with — other threads cannot race.
unsafe impl Send for SlotsPtr<'_> {}
// SAFETY: as above — `&SlotsPtr` only exposes writes to claimed slots.
unsafe impl Sync for SlotsPtr<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffers::{SummarizationBuffers, Summaries};
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

    fn forest_for(n: usize, cap: usize) -> (Vec<RootSubtree>, Vec<u32>, Summaries) {
        let data = walk_dataset(n, 64, 1234);
        let summaries = Summaries::compute(&data, 8, 2);
        let buffers = SummarizationBuffers::build(&summaries);
        let (forest, perm) = build_forest(&buffers, &summaries, cap, 3);
        (forest, perm, summaries)
    }

    #[test]
    fn forest_stores_every_series_once() {
        let (forest, perm, _) = forest_for(800, 16);
        let total: usize = forest.iter().map(|t| t.node.series_count()).sum();
        assert_eq!(total, 800);
        assert_eq!(perm.len(), 800);
        // Leaf slices partition the scan positions, and the permutation
        // covers every original id exactly once.
        let mut pos_seen = vec![false; 800];
        for t in &forest {
            t.node.for_each_leaf(&mut |leaf| {
                for p in leaf.slice.range() {
                    assert!(!pos_seen[p], "position {p} covered twice");
                    pos_seen[p] = true;
                }
            });
        }
        assert!(pos_seen.iter().all(|&b| b));
        let mut id_seen = vec![false; 800];
        for &id in &perm {
            assert!(!id_seen[id as usize], "id {id} appears twice");
            id_seen[id as usize] = true;
        }
        assert!(id_seen.iter().all(|&b| b));
    }

    #[test]
    fn leaves_respect_capacity_or_are_unsplittable() {
        let (forest, perm, summaries) = forest_for(1000, 8);
        for t in &forest {
            t.node.for_each_leaf(&mut |leaf| {
                if leaf.slice.len() > 8 {
                    // Oversized leaves are only allowed when summaries are
                    // identical on all refinable bits.
                    let ids = &perm[leaf.slice.range()];
                    let first = summaries.sax(ids[0]).to_vec();
                    for &id in ids {
                        assert_eq!(summaries.sax(id), &first[..]);
                    }
                }
            });
        }
    }

    #[test]
    fn leaf_ids_ascend_within_each_slice() {
        // The permutation stores each leaf's series in dataset order —
        // the determinism contract documented on `LeafSlice`.
        let (forest, perm, _) = forest_for(700, 10);
        for t in &forest {
            t.node.for_each_leaf(&mut |leaf| {
                let ids = &perm[leaf.slice.range()];
                for w in ids.windows(2) {
                    assert!(w[0] < w[1], "leaf ids must ascend");
                }
            });
        }
    }

    #[test]
    fn leaf_words_contain_their_series() {
        let (forest, perm, summaries) = forest_for(600, 12);
        for t in &forest {
            t.node.for_each_leaf(&mut |leaf| {
                for &id in &perm[leaf.slice.range()] {
                    assert!(
                        leaf.word.contains(summaries.sax(id)),
                        "leaf word must cover every stored series"
                    );
                }
            });
        }
    }

    #[test]
    fn children_partition_parent_region() {
        fn check(node: &Node) {
            if let Node::Inner {
                word,
                split_seg,
                children,
            } = node
            {
                for (b, child) in children.iter().enumerate() {
                    let cw = child.word();
                    assert_eq!(cw.card_bits[*split_seg], word.card_bits[*split_seg] + 1);
                    assert_eq!(cw.symbols[*split_seg] & 1, b as u8);
                    check(child);
                }
            }
        }
        let (forest, _, _) = forest_for(700, 10);
        for t in &forest {
            check(&t.node);
        }
    }

    #[test]
    fn root_planes_hold_each_subtree_sax_envelope() {
        // Split roots (capacity 6) and lone-leaf roots alike: each
        // plane byte is the min / max symbol over exactly the series the
        // root stores, read here from the dataset-ordered summaries.
        let data = walk_dataset(600, 64, 4321);
        let summaries = Summaries::compute(&data, 4, 2);
        let buffers = SummarizationBuffers::build(&summaries);
        let (forest, perm) = build_forest(&buffers, &summaries, 6, 2);
        assert!(forest.iter().any(|t| matches!(t.node, Node::Inner { .. })));
        let layout = LeafLayout::build(&data, &summaries, perm.clone());
        let soa = RootSoa::build(&forest, &layout);
        assert_eq!((soa.len(), soa.segments()), (forest.len(), 4));
        let mut base = 0;
        for (r, t) in forest.iter().enumerate() {
            let ids = &perm[base..base + t.size];
            base += t.size;
            for i in 0..4 {
                let syms = ids.iter().map(|&id| summaries.sax(id)[i]);
                let want = (syms.clone().min().unwrap(), syms.max().unwrap());
                let got = (
                    soa.lo_plane()[i * soa.len() + r],
                    soa.hi_plane()[i * soa.len() + r],
                );
                assert_eq!(got, want, "root {r} segment {i}");
                let (wl, wh) = t.node.word().full_range(i);
                assert!(
                    wl <= want.0 as usize && want.1 as usize <= wh,
                    "inside the word"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "inverted symbol interval")]
    fn from_planes_rejects_inverted_intervals() {
        RootSoa::from_planes(vec![3, 9], vec![4, 8], 1);
    }

    #[test]
    fn parallel_build_is_deterministic() {
        let data = walk_dataset(500, 64, 77);
        let summaries = Summaries::compute(&data, 8, 2);
        let buffers = SummarizationBuffers::build(&summaries);
        let (f1, p1) = build_forest(&buffers, &summaries, 10, 1);
        let (f4, p4) = build_forest(&buffers, &summaries, 10, 4);
        assert_eq!(f1.len(), f4.len());
        assert_eq!(p1, p4, "scan permutation must not depend on threads");
        for (a, b) in f1.iter().zip(&f4) {
            assert_eq!(a.key, b.key);
            assert_eq!(a.size, b.size);
            let mut la = Vec::new();
            let mut lb = Vec::new();
            a.node.for_each_leaf(&mut |l| la.push(l.slice));
            b.node.for_each_leaf(&mut |l| lb.push(l.slice));
            assert_eq!(la, lb);
        }
    }
}
