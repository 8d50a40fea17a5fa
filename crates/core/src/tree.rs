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
//! The forest is one flat pre-order arena ([`Forest`]) indexed by `u32`
//! ids. [`build_forest`] returns it *plus* the scan permutation (`scan
//! position -> original series id`) the layout is materialized from.

use crate::buffers::{SummarizationBuffer, SummarizationBuffers, Summaries};
use crate::layout::LeafLayout;
use crate::sax::{IsaxWord, WordRef, MAX_CARD_BITS};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A contiguous range of scan-layout slots (see
/// `crate::layout::LeafLayout`).
///
/// **Contract:** the leaf slices of one index tile `[0, num_series)` in
/// leaf order — every position covered by exactly one leaf.
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

/// Marks a leaf in [`Forest`]'s per-node split array (no segment has
/// this index: words have at most 64 segments).
const LEAF: u8 = u8::MAX;

/// The whole index forest in one arena, in **pre-order**: a node's left
/// child is the next node and its right child follows the left subtree.
/// Per root it holds a key (ascending), a series count and a node; per
/// node the split segment ([`LEAF`] for a leaf), the word (`segments`
/// symbol bytes, then `segments` cardinality bytes) and one `u32` link —
/// the right child's index, or a leaf's leaf index; per leaf its
/// [`LeafSlice`]. So every subtree's nodes and leaves form contiguous
/// ranges, and the slices tile the scan positions in leaf order (the
/// builder lays the permutation out that way; the loader checks it).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Forest {
    segments: usize,
    keys: Vec<u64>,
    sizes: Vec<u32>,
    root_nodes: Vec<u32>,
    splits: Vec<u8>,
    words: Vec<u8>,
    links: Vec<u32>,
    leaves: Vec<LeafSlice>,
}

impl Forest {
    /// An empty forest over words of `segments` segments.
    pub(crate) fn new(segments: usize) -> Self {
        Forest {
            segments,
            ..Forest::default()
        }
    }

    /// Number of root subtrees.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the forest has no roots.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The root keys, ascending (binary-searchable).
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// Root `r`.
    pub fn root(&self, r: usize) -> RootRef<'_> {
        RootRef {
            key: self.keys[r],
            size: self.sizes[r] as usize,
            node: self.node(self.root_nodes[r]),
        }
    }

    /// The roots in key order.
    pub fn iter(&self) -> Roots<'_> {
        let roots = std::iter::repeat_n(self, self.len()).zip(0..self.len());
        roots.map(|(forest, r)| forest.root(r))
    }

    /// Number of nodes, inner and leaf.
    pub fn node_count(&self) -> usize {
        self.splits.len()
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.leaves.len()
    }

    /// Node `node` as a navigable reference.
    pub fn node(&self, node: u32) -> NodeRef<'_> {
        NodeRef {
            forest: self,
            id: node,
        }
    }

    /// The node id of root `r`.
    #[inline]
    pub fn root_node(&self, r: usize) -> u32 {
        self.root_nodes[r]
    }

    /// The iSAX word of node `node`.
    #[inline]
    pub fn word(&self, node: u32) -> WordRef<'_> {
        let at = node as usize * 2 * self.segments;
        let (symbols, rest) = self.words[at..at + 2 * self.segments].split_at(self.segments);
        WordRef {
            symbols,
            card_bits: rest,
        }
    }

    /// The `[left, right]` children of node `node`, or `None` for a leaf.
    #[inline]
    pub fn children(&self, node: u32) -> Option<[u32; 2]> {
        (self.splits[node as usize] != LEAF).then(|| [node + 1, self.links[node as usize]])
    }

    /// The segment node `node` splits on, or `None` for a leaf.
    pub fn split_seg(&self, node: u32) -> Option<usize> {
        let s = self.splits[node as usize];
        (s != LEAF).then_some(s as usize)
    }

    /// The leaf id of node `node`, or `None` for an inner node.
    #[inline]
    pub fn leaf_id(&self, node: u32) -> Option<u32> {
        (self.splits[node as usize] == LEAF).then(|| self.links[node as usize])
    }

    /// The scan slots of leaf `leaf`.
    #[inline]
    pub fn leaf(&self, leaf: u32) -> LeafSlice {
        self.leaves[leaf as usize]
    }

    /// Heap bytes of the arena: exactly its array lengths.
    pub fn size_bytes(&self) -> usize {
        let u32s = self.sizes.len() + self.root_nodes.len() + self.links.len();
        let bytes = self.splits.len() + self.words.len();
        self.keys.len() * 8 + u32s * 4 + bytes + self.leaves.len() * 8
    }

    /// Starts root subtree `key`; the nodes pushed next are its pre-order.
    pub(crate) fn push_root(&mut self, key: u64) {
        self.keys.push(key);
        self.sizes.push(0);
        self.root_nodes.push(self.node_count() as u32);
    }

    /// Appends an inner node splitting on segment `seg`; returns its id.
    /// The right child of inner node `p` passes `right_of = Some(p)`.
    pub(crate) fn push_inner(&mut self, word: WordRef, right_of: Option<u32>, seg: usize) -> u32 {
        debug_assert!(seg < self.segments);
        self.push_node(word, right_of, seg as u8, 0)
    }

    /// Appends a leaf holding `slice` (`right_of` as in
    /// [`Forest::push_inner`]), adding its length to the root's size.
    pub(crate) fn push_leaf(&mut self, word: WordRef, right_of: Option<u32>, slice: LeafSlice) {
        let leaf = self.leaves.len() as u32;
        self.leaves.push(slice);
        *self.sizes.last_mut().expect("a leaf belongs to a root") += slice.len;
        self.push_node(word, right_of, LEAF, leaf);
    }

    fn push_node(&mut self, word: WordRef, right_of: Option<u32>, split: u8, link: u32) -> u32 {
        debug_assert_eq!(word.symbols.len(), self.segments);
        let id = self.node_count() as u32;
        if let Some(parent) = right_of {
            self.links[parent as usize] = id;
        }
        self.splits.push(split);
        self.words.extend_from_slice(word.symbols);
        self.words.extend_from_slice(word.card_bits);
        self.links.push(link);
        id
    }

    /// Appends every root of `other`, leaf slices shifted by `scan_base`.
    fn append(&mut self, other: &Forest, scan_base: u32) {
        let (node_base, leaf_base) = (self.node_count() as u32, self.leaf_count() as u32);
        self.keys.extend_from_slice(&other.keys);
        self.sizes.extend_from_slice(&other.sizes);
        self.root_nodes
            .extend(other.root_nodes.iter().map(|&n| n + node_base));
        self.splits.extend_from_slice(&other.splits);
        self.words.extend_from_slice(&other.words);
        for (&split, &link) in other.splits.iter().zip(&other.links) {
            let base = if split == LEAF { leaf_base } else { node_base };
            self.links.push(link + base);
        }
        self.leaves.extend(other.leaves.iter().map(|l| LeafSlice {
            offset: l.offset + scan_base,
            len: l.len,
        }));
    }

    /// Drops spare capacity, so [`Forest::size_bytes`] is what is held.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.keys.shrink_to_fit();
        self.sizes.shrink_to_fit();
        self.root_nodes.shrink_to_fit();
        self.splits.shrink_to_fit();
        self.words.shrink_to_fit();
        self.links.shrink_to_fit();
        self.leaves.shrink_to_fit();
    }
}

impl<'a> IntoIterator for &'a Forest {
    type Item = RootRef<'a>;
    type IntoIter = Roots<'a>;

    fn into_iter(self) -> Roots<'a> {
        self.iter()
    }
}

/// The roots of a [`Forest`], in key order.
pub type Roots<'a> = std::iter::Map<
    std::iter::Zip<std::iter::RepeatN<&'a Forest>, std::ops::Range<usize>>,
    fn((&'a Forest, usize)) -> RootRef<'a>,
>;

/// One root subtree of a [`Forest`].
#[derive(Debug, Clone, Copy)]
pub struct RootRef<'a> {
    /// Root-word key of the originating buffer.
    pub key: u64,
    /// Number of series in the subtree.
    pub size: usize,
    /// The subtree's root node.
    pub node: NodeRef<'a>,
}

/// A node of a [`Forest`].
#[derive(Clone, Copy)]
pub struct NodeRef<'a> {
    forest: &'a Forest,
    id: u32,
}

impl std::fmt::Debug for NodeRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeRef").field("id", &self.id).finish()
    }
}

impl<'a> NodeRef<'a> {
    /// The iSAX region of this node.
    pub fn word(&self) -> WordRef<'a> {
        self.forest.word(self.id)
    }

    /// The arena ids of this node's subtree: up to its right spine's leaf.
    pub fn nodes(&self) -> std::ops::Range<u32> {
        let mut last = self.id;
        while let Some([_, right]) = self.forest.children(last) {
            last = right;
        }
        self.id..last + 1
    }

    /// Calls `f` on every leaf below (and including) this node, in
    /// left-to-right order.
    pub fn for_each_leaf(&self, f: &mut impl FnMut(LeafRef<'a>)) {
        for node in self.nodes() {
            if let Some(leaf) = self.forest.leaf_id(node) {
                let slice = self.forest.leaf(leaf);
                f(LeafRef {
                    word: self.forest.word(node),
                    slice,
                });
            }
        }
    }

    /// The ids of the leaves below (and including) this node: leaves
    /// are numbered in pre-order, so they form one range.
    pub fn leaf_ids(&self) -> std::ops::Range<u32> {
        let nodes = self.nodes();
        let first = nodes.clone().find_map(|node| self.forest.leaf_id(node));
        let last = self.forest.leaf_id(nodes.end - 1);
        first.expect("a subtree has leaves")..last.expect("a subtree ends in a leaf") + 1
    }

    /// Number of series stored below this node.
    pub fn series_count(&self) -> usize {
        self.leaf_ids().map(|l| self.forest.leaf(l).len()).sum()
    }
}

/// A leaf of a [`Forest`]: an iSAX region plus the scan-layout slots of
/// the series whose summaries fall in that region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeafRef<'a> {
    /// The iSAX region this leaf covers.
    pub word: WordRef<'a>,
    /// The leaf's contiguous slot range in the scan layout.
    pub slice: LeafSlice,
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
/// by folding each root's row-major SAX words into its min/max;
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
    /// symbol over the root's series in `layout` (a min/max over the
    /// root's scan range: its leaves tile it, see [`Forest`]). A root
    /// that stores no series keeps its word's range.
    ///
    /// # Panics
    /// Panics if the forest's roots hold more series than the layout.
    pub fn build(forest: &Forest, layout: &LeafLayout) -> Self {
        let mut soa = Self::from_words(forest.iter().map(|t| t.node.word()));
        let (len, segments) = (soa.len, soa.segments);
        let mut lo_w = vec![u8::MAX; segments];
        let mut hi_w = vec![u8::MIN; segments];
        let mut start = 0;
        for (r, tree) in forest.iter().enumerate() {
            let range = start..start + tree.size;
            start = range.end;
            if range.is_empty() {
                continue;
            }
            lo_w.fill(u8::MAX);
            hi_w.fill(u8::MIN);
            for word in layout.sax_block(range).chunks_exact(segments) {
                for ((l, h), &s) in lo_w.iter_mut().zip(hi_w.iter_mut()).zip(word) {
                    (*l, *h) = ((*l).min(s), (*h).max(s));
                }
            }
            for i in 0..segments {
                (soa.lo[i * len + r], soa.hi[i * len + r]) = (lo_w[i], hi_w[i]);
            }
        }
        soa
    }

    /// Builds the planes from an explicit word sequence: each root's
    /// interval is its word's full range ([`WordRef::full_range`]).
    ///
    /// # Panics
    /// Panics if the words disagree on segment count.
    pub fn from_words<'a>(words: impl ExactSizeIterator<Item = WordRef<'a>>) -> Self {
        let len = words.len();
        let (mut lo, mut hi, mut segments) = (Vec::new(), Vec::new(), 0);
        for (r, word) in words.enumerate() {
            if r == 0 {
                segments = word.symbols.len();
                (lo, hi) = (vec![0u8; segments * len], vec![0u8; segments * len]);
            }
            assert_eq!(word.symbols.len(), segments, "ragged root word {r}");
            for i in 0..segments {
                let (l, h) = word.full_range(i);
                (lo[i * len + r], hi[i * len + r]) = (l as u8, h as u8);
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
/// most balanced split wins (the first on ties). If no such segment
/// separates, the first refinable segment that does. Returns `None` when
/// no segment can separate (all remaining summaries identical, or all
/// segments saturated).
fn choose_split(word: &IsaxWord, ids: &[u32], summaries: &Summaries) -> Option<usize> {
    let refinable = |seg: &usize| word.card_bits[*seg] < MAX_CARD_BITS;
    // The split's imbalance, or `None` when it leaves one half empty.
    let imbalance = |seg: usize| {
        let shift = MAX_CARD_BITS - word.card_bits[seg] - 1;
        let ones = ids
            .iter()
            .filter(|&&id| (summaries.sax(id)[seg] >> shift) & 1 == 1)
            .count();
        (ones > 0 && ones < ids.len()).then(|| ids.len().abs_diff(2 * ones))
    };
    let segs = 0..word.segments();
    let min_bits = segs
        .clone()
        .filter(refinable)
        .map(|s| word.card_bits[s])
        .min()?;
    segs.clone()
        .filter(|&s| word.card_bits[s] == min_bits)
        .filter_map(|s| Some((imbalance(s)?, s)))
        .min()
        .map(|(_, s)| s)
        .or_else(|| segs.filter(refinable).find(|&s| imbalance(s).is_some()))
}

/// Builds the root subtree of one summarization buffer: a one-root
/// forest (leaf slices starting at 0) and its scan permutation.
///
/// Nodes are emitted in pre-order from an explicit work list: a split
/// pushes the right half, then the left, so the left subtree is laid out
/// (and its series appended to the permutation) first.
pub fn build_root_subtree(
    buffer: &SummarizationBuffer,
    summaries: &Summaries,
    leaf_capacity: usize,
) -> (Forest, Vec<u32>) {
    let mut forest = Forest::new(summaries.segments());
    forest.push_root(buffer.key);
    let mut perm = Vec::with_capacity(buffer.ids.len());
    // (region, ids, the inner node whose right child this is)
    let root = IsaxWord::from_root_key(buffer.key, summaries.segments());
    let mut todo = vec![(root, buffer.ids.clone(), None)];
    while let Some((word, ids, right_of)) = todo.pop() {
        // Identical summaries beyond capacity keep an oversized leaf.
        let split = (ids.len() > leaf_capacity)
            .then(|| choose_split(&word, &ids, summaries))
            .flatten();
        let Some(seg) = split else {
            let slice = LeafSlice {
                offset: perm.len() as u32,
                len: ids.len() as u32,
            };
            perm.extend_from_slice(&ids);
            forest.push_leaf(word.view(), right_of, slice);
            continue;
        };
        let shift = MAX_CARD_BITS - word.card_bits[seg] - 1;
        let (ones, zeros): (Vec<u32>, Vec<u32>) = ids
            .into_iter()
            .partition(|&id| (summaries.sax(id)[seg] >> shift) & 1 == 1);
        let node = forest.push_inner(word.view(), right_of, seg);
        todo.push((word.refine(seg, 1), ones, Some(node)));
        todo.push((word.refine(seg, 0), zeros, None));
    }
    (forest, perm)
}

/// Builds all root subtrees in parallel: `n_threads` workers claim buffers
/// with `Fetch&Add` and grow them independently (the embarrassingly
/// parallel phase the paper inherits from MESSI). Each worker returns its
/// `(buffer index, subtree)` results when the scope joins; they are then
/// placed in buffer order (ascending key), so the output does not depend
/// on thread interleaving.
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
) -> (Forest, Vec<u32>) {
    let nb = buffers.len();
    let next = AtomicUsize::new(0);
    let n_threads = n_threads.max(1).min(nb.max(1));
    let mut slots: Vec<Option<(Forest, Vec<u32>)>> = (0..nb).map(|_| None).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..n_threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= nb {
                            break mine;
                        }
                        let st = build_root_subtree(&buffers.buffers[i], summaries, leaf_capacity);
                        mine.push((i, st));
                    }
                })
            })
            .collect();
        for worker in workers {
            let mine = worker
                .join()
                .unwrap_or_else(|e| std::panic::resume_unwind(e));
            for (i, st) in mine {
                slots[i] = Some(st);
            }
        }
    });
    let mut forest = Forest::new(summaries.segments());
    let mut perm = Vec::with_capacity(summaries.num_series());
    for slot in slots {
        let (st, local) = slot.expect("every buffer index was claimed");
        forest.append(&st, perm.len() as u32);
        perm.extend_from_slice(&local);
    }
    forest.shrink_to_fit();
    (forest, perm)
}

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

    fn forest_for(n: usize, cap: usize) -> (Forest, Vec<u32>, Summaries) {
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
        let (forest, _, _) = forest_for(700, 10);
        let mut inner = 0;
        for node in 0..forest.node_count() as u32 {
            let Some(children) = forest.children(node) else {
                continue;
            };
            inner += 1;
            let (word, seg) = (forest.word(node), forest.split_seg(node).expect("inner"));
            for (b, child) in children.into_iter().enumerate() {
                let cw = forest.word(child);
                assert_eq!(cw.card_bits[seg], word.card_bits[seg] + 1);
                assert_eq!(cw.symbols[seg] & 1, b as u8);
            }
        }
        assert!(inner > 0, "some root split");
    }

    #[test]
    fn arena_is_pre_order_and_leaves_tile_the_scan_space() {
        let (forest, _, _) = forest_for(900, 8);
        let mut next_leaf = 0u32;
        let mut next_slot = 0u32;
        for (r, t) in forest.iter().enumerate() {
            let nodes = t.node.nodes();
            let next_root = forest.root_nodes.get(r + 1).copied();
            assert_eq!(next_root.unwrap_or(forest.node_count() as u32), nodes.end);
            for node in nodes {
                if let Some([left, right]) = forest.children(node) {
                    assert_eq!(left, node + 1, "left child follows its parent");
                    assert_eq!(
                        forest.node(left).nodes().end,
                        right,
                        "right follows left subtree"
                    );
                } else {
                    let leaf = forest.leaf_id(node).expect("a leaf");
                    assert_eq!(leaf, next_leaf, "leaves in pre-order");
                    let slice = forest.leaf(leaf);
                    assert_eq!(slice.offset, next_slot, "slices tile the scan space");
                    next_leaf += 1;
                    next_slot += slice.len;
                }
            }
        }
        assert_eq!(next_leaf as usize, forest.leaf_count());
        assert_eq!(next_slot, 900);
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
        assert!(forest.iter().any(|t| t.node.leaf_ids().len() > 1));
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
        assert_eq!(p1, p4, "scan permutation must not depend on threads");
        assert!(f1 == f4, "forest must not depend on threads");
        assert_eq!(f1.size_bytes(), f4.size_bytes());
    }
}
