//! The common BSF-sharing channel and per-query book-keeping
//! (Section 3.4, Figure 7).
//!
//! "When a node is processing a query and finds an improved value for
//! BSF, it shares this value through a common BSF-Sharing channel. Every
//! node periodically checks this channel. [...] Each node holds an array
//! that stores the improvements received from the channel for the BSF of
//! each query, and before answering a query it checks the data held in
//! this array."
//!
//! [`BsfBoard`] is that book-keeping array: one monotonically-decreasing
//! atomic cell per query. Publishing an improvement is a `fetch_min`
//! (the broadcast); reading is a load (the periodic check).
//! [`BoardBsf`] wires a node's local per-query BSF to the board and is
//! handed to the search engine as its
//! `ResultSet` (see `odyssey_core::search::bsf`) — remote
//! improvements are injected every `CHECK_INTERVAL` threshold reads,
//! modelling the *periodic* (not instantaneous) channel check.

use crate::shard_map::Coverage;
use odyssey_core::search::answer::{Answer, KnnAnswer};
use odyssey_core::search::bsf::{ResultSet, SharedBsf, SharedKnn};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// How many threshold reads pass between channel checks.
const CHECK_INTERVAL: u64 = 64;

/// The shared BSF channel: one cell per query of the batch.
#[derive(Debug)]
pub struct BsfBoard {
    cells: Vec<AtomicU64>,
    broadcasts: AtomicU64,
}

impl BsfBoard {
    /// A board for `n_queries` queries, all starting at +∞.
    pub fn new(n_queries: usize) -> Self {
        BsfBoard {
            cells: (0..n_queries)
                .map(|_| AtomicU64::new(f64::INFINITY.to_bits()))
                .collect(),
            broadcasts: AtomicU64::new(0),
        }
    }

    /// Current globally-best squared distance for `query`.
    #[inline]
    pub fn get_sq(&self, query: usize) -> f64 {
        f64::from_bits(self.cells[query].load(Ordering::Relaxed))
    }

    /// Publishes an improvement (no-op when not an improvement).
    #[inline]
    pub fn publish(&self, query: usize, distance_sq: f64) {
        let prev = self.cells[query].fetch_min(distance_sq.to_bits(), Ordering::AcqRel);
        if distance_sq.to_bits() < prev {
            self.broadcasts.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Number of successful broadcasts so far.
    pub fn broadcasts(&self) -> u64 {
        self.broadcasts.load(Ordering::Relaxed)
    }
}

/// A node-local per-query BSF connected to the shared board.
///
/// The inner [`SharedBsf`] is `Arc`-shared so the node's work-stealing
/// manager can report "Q's current BSF" in steal responses while the
/// search is running.
pub struct BoardBsf<'b> {
    /// The node's local BSF (holds the local best id).
    pub local: Arc<SharedBsf>,
    board: Option<(&'b BsfBoard, usize)>,
    calls: AtomicU64,
}

impl<'b> BoardBsf<'b> {
    /// Creates the per-query BSF. When a board is attached, the initial
    /// value also consults the book-keeping array (the "before answering
    /// a query it checks the data held in this array" step).
    pub fn new(
        initial_sq: f64,
        initial_id: Option<u32>,
        board: Option<(&'b BsfBoard, usize)>,
    ) -> Self {
        let mut init = initial_sq;
        if let Some((b, q)) = board {
            init = init.min(b.get_sq(q));
        }
        // Keep the id only if the local candidate is at least as good.
        let id = if init == initial_sq { initial_id } else { None };
        BoardBsf {
            local: Arc::new(SharedBsf::new(init, id)),
            board,
            calls: AtomicU64::new(0),
        }
    }

    /// The node-local answer (only locally-found ids).
    pub fn local_answer(&self) -> Answer {
        self.local.answer()
    }
}

impl ResultSet for BoardBsf<'_> {
    #[inline]
    fn threshold_sq(&self) -> f64 {
        if let Some((board, q)) = self.board {
            let c = self.calls.fetch_add(1, Ordering::Relaxed);
            if c.is_multiple_of(CHECK_INTERVAL) {
                let remote = board.get_sq(q);
                if remote < self.local.get_sq() {
                    // Remote improvement: tighten the local bound (the id
                    // lives on the node that found it).
                    self.local.update(remote, None);
                }
            }
        }
        self.local.get_sq()
    }

    fn offer(&self, distance_sq: f64, id: u32) -> bool {
        let improved = self.local.offer(distance_sq, id);
        if improved {
            if let Some((board, q)) = self.board {
                board.publish(q, distance_sq);
            }
        }
        improved
    }
}

/// The per-query global answers, merged as nodes finish ("the coordinator
/// node collects the local answers from the group coordinators").
#[derive(Debug)]
pub struct AnswerBoard {
    answers: Vec<Mutex<Answer>>,
}

impl AnswerBoard {
    /// A board for `n_queries` queries.
    pub fn new(n_queries: usize) -> Self {
        AnswerBoard {
            answers: (0..n_queries).map(|_| Mutex::new(Answer::none())).collect(),
        }
    }

    /// Merges a node's local answer for `query` by [`Answer::min`]:
    /// answers carrying a series id win ties against id-less bounds of
    /// equal distance.
    pub fn merge(&self, query: usize, local: Answer) {
        let mut cur = self.answers[query].lock();
        *cur = cur.min(local);
    }

    /// Final answers, in query order.
    pub fn into_answers(self) -> Vec<Answer> {
        self.answers.into_iter().map(|m| m.into_inner()).collect()
    }
}

/// Tracks which replication *groups* have contributed a local answer to
/// each query. The globalization step needs every group — not every
/// node — to answer: replicas within a group hold the same chunk, so
/// one surviving member covers the whole group. A query whose groups
/// have all marked in is [`Coverage::Complete`]; anything less is an
/// explicit [`Coverage::Partial`] listing the missing groups.
#[derive(Debug)]
pub struct CoverageBoard {
    n_groups: usize,
    /// `answered[q * n_groups + g]` — group `g` answered query `q`.
    answered: Vec<AtomicBool>,
}

impl CoverageBoard {
    /// A board for `n_queries` queries over `n_groups` groups.
    pub fn new(n_queries: usize, n_groups: usize) -> Self {
        assert!(n_groups > 0, "coverage needs at least one group");
        CoverageBoard {
            n_groups,
            answered: (0..n_queries * n_groups)
                .map(|_| AtomicBool::new(false))
                .collect(),
        }
    }

    /// Records that `group` merged a local answer for `query`.
    /// Idempotent: replicas and re-routed executions may both mark.
    pub fn mark(&self, query: usize, group: usize) {
        self.answered[query * self.n_groups + group].store(true, Ordering::Release);
    }

    /// Whether `group` has answered `query`.
    pub fn group_answered(&self, query: usize, group: usize) -> bool {
        self.answered[query * self.n_groups + group].load(Ordering::Acquire)
    }

    /// The coverage verdict for `query` at this moment.
    pub fn coverage(&self, query: usize) -> Coverage {
        let missing: Vec<usize> = (0..self.n_groups)
            .filter(|&g| !self.group_answered(query, g))
            .collect();
        if missing.is_empty() {
            Coverage::Complete
        } else {
            Coverage::Partial {
                missing_groups: missing,
            }
        }
    }

    /// Final per-query coverages, in query order.
    pub fn into_coverages(self) -> Vec<Coverage> {
        let n = self.answered.len() / self.n_groups;
        (0..n).map(|q| self.coverage(q)).collect()
    }
}

/// k-NN analogue of the boards: a shared k-th-distance bound per query
/// plus a global merge of neighbor lists.
pub struct KnnBoard {
    k: usize,
    kth: Vec<AtomicU64>,
    merged: Vec<Mutex<KnnAnswer>>,
}

impl KnnBoard {
    /// A board for `n_queries` k-NN queries.
    pub fn new(n_queries: usize, k: usize) -> Self {
        KnnBoard {
            k,
            kth: (0..n_queries)
                .map(|_| AtomicU64::new(f64::INFINITY.to_bits()))
                .collect(),
            merged: (0..n_queries)
                .map(|_| {
                    Mutex::new(KnnAnswer {
                        neighbors: Vec::new(),
                    })
                })
                .collect(),
        }
    }

    /// Neighbor count.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Shared upper bound on the global k-th distance for `query`.
    pub fn kth_sq(&self, query: usize) -> f64 {
        f64::from_bits(self.kth[query].load(Ordering::Relaxed))
    }

    /// Publishes a node-local k-th distance (valid global bound: if one
    /// node already has k candidates within `d`, the global k-th is ≤ d).
    pub fn publish_kth(&self, query: usize, kth_sq: f64) {
        self.kth[query].fetch_min(kth_sq.to_bits(), Ordering::AcqRel);
    }

    /// Merges a node's local neighbor list into the global one.
    pub fn merge(&self, query: usize, local: KnnAnswer) {
        let mut cur = self.merged[query].lock();
        let merged = std::mem::replace(
            &mut *cur,
            KnnAnswer {
                neighbors: Vec::new(),
            },
        )
        .merge(local, self.k);
        *cur = merged;
    }

    /// Final merged answers.
    pub fn into_answers(self) -> Vec<KnnAnswer> {
        self.merged.into_iter().map(|m| m.into_inner()).collect()
    }
}

/// A node-local k-NN set connected to the shared k-th bound.
pub struct BoardKnn<'b> {
    /// The node's local k-NN set. `Arc`-shared (like [`BoardBsf`]'s
    /// BSF) so the steal registry can report the query's current k-th
    /// bound while the search is running.
    pub local: Arc<SharedKnn>,
    board: Option<(&'b KnnBoard, usize)>,
    calls: AtomicU64,
}

impl<'b> BoardKnn<'b> {
    /// Creates the per-query set.
    pub fn new(k: usize, board: Option<(&'b KnnBoard, usize)>) -> Self {
        BoardKnn {
            local: Arc::new(SharedKnn::new(k)),
            board,
            calls: AtomicU64::new(0),
        }
    }
}

impl ResultSet for BoardKnn<'_> {
    #[inline]
    fn threshold_sq(&self) -> f64 {
        let mut t = self.local.threshold_sq();
        if let Some((board, q)) = self.board {
            let c = self.calls.fetch_add(1, Ordering::Relaxed);
            if c.is_multiple_of(CHECK_INTERVAL) {
                // The global k-th bound prunes candidates that cannot be
                // in the global top-k, even if they would enter the local
                // list.
                t = t.min(board.kth_sq(q));
            }
        }
        t
    }

    fn offer(&self, distance_sq: f64, id: u32) -> bool {
        let improved = self.local.offer(distance_sq, id);
        if improved {
            if let Some((board, q)) = self.board {
                let kth = self.local.threshold_sq();
                if kth.is_finite() {
                    board.publish_kth(q, kth);
                }
            }
        }
        improved
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bsf_board_publish_and_read() {
        let b = BsfBoard::new(3);
        assert_eq!(b.get_sq(1), f64::INFINITY);
        b.publish(1, 5.0);
        b.publish(1, 9.0); // not an improvement
        b.publish(1, 2.0);
        assert_eq!(b.get_sq(1), 2.0);
        assert_eq!(b.get_sq(0), f64::INFINITY);
        assert_eq!(b.broadcasts(), 2);
    }

    #[test]
    fn board_bsf_seeds_from_book_keeping() {
        let b = BsfBoard::new(1);
        b.publish(0, 4.0);
        let bsf = BoardBsf::new(10.0, Some(7), Some((&b, 0)));
        assert_eq!(bsf.local.get_sq(), 4.0);
        assert_eq!(bsf.local.best().1, None, "remote bound carries no id");
        let bsf2 = BoardBsf::new(1.0, Some(9), Some((&b, 0)));
        assert_eq!(bsf2.local.best(), (1.0, Some(9)), "local better, id kept");
    }

    #[test]
    fn board_bsf_publishes_improvements() {
        let b = BsfBoard::new(1);
        let bsf = BoardBsf::new(f64::INFINITY, None, Some((&b, 0)));
        assert!(bsf.offer(3.0, 42));
        assert_eq!(b.get_sq(0), 3.0);
        assert!(!bsf.offer(5.0, 43));
        assert_eq!(b.get_sq(0), 3.0);
    }

    #[test]
    fn board_bsf_absorbs_remote_improvements() {
        let b = BsfBoard::new(1);
        let bsf = BoardBsf::new(100.0, Some(1), Some((&b, 0)));
        b.publish(0, 1.0); // remote node found something better
        // The first threshold call (calls % 64 == 0) checks the channel.
        assert_eq!(bsf.threshold_sq(), 1.0);
    }

    #[test]
    fn answer_board_merges_min_and_prefers_ids() {
        let board = AnswerBoard::new(2);
        board.merge(0, Answer::from_sq(9.0, Some(1)));
        board.merge(0, Answer::from_sq(4.0, None));
        board.merge(0, Answer::from_sq(4.0, Some(2)));
        board.merge(0, Answer::from_sq(8.0, Some(3)));
        let ans = board.into_answers();
        assert_eq!(ans[0].distance_sq, 4.0);
        assert_eq!(ans[0].series_id, Some(2));
        assert_eq!(ans[1].series_id, None);
    }

    #[test]
    fn coverage_board_tracks_groups_not_nodes() {
        let c = CoverageBoard::new(2, 3);
        c.mark(0, 0);
        c.mark(0, 1);
        c.mark(0, 1); // replica of the same group — idempotent
        assert!(matches!(
            c.coverage(0),
            Coverage::Partial { ref missing_groups } if missing_groups == &[2]
        ));
        c.mark(0, 2);
        assert_eq!(c.coverage(0), Coverage::Complete);
        let cov = c.into_coverages();
        assert_eq!(cov[0], Coverage::Complete);
        assert_eq!(
            cov[1],
            Coverage::Partial {
                missing_groups: vec![0, 1, 2]
            }
        );
    }

    #[test]
    fn knn_board_merges_and_bounds() {
        let board = KnnBoard::new(1, 2);
        board.merge(
            0,
            KnnAnswer {
                neighbors: vec![(3.0, 30), (5.0, 50)],
            },
        );
        board.merge(
            0,
            KnnAnswer {
                neighbors: vec![(1.0, 10), (4.0, 40)],
            },
        );
        board.publish_kth(0, 5.0);
        board.publish_kth(0, 3.0);
        assert_eq!(board.kth_sq(0), 3.0);
        let ans = board.into_answers();
        assert_eq!(ans[0].neighbors, vec![(1.0, 10), (3.0, 30)]);
    }

    #[test]
    fn board_knn_publishes_kth_once_full() {
        let board = KnnBoard::new(1, 2);
        let set = BoardKnn::new(2, Some((&board, 0)));
        set.offer(5.0, 1);
        assert_eq!(board.kth_sq(0), f64::INFINITY, "not full yet");
        set.offer(2.0, 2);
        assert_eq!(board.kth_sq(0), 5.0, "kth = max kept distance");
        set.offer(1.0, 3);
        assert_eq!(board.kth_sq(0), 2.0);
    }
}
