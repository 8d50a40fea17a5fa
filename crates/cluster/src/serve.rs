//! Online serving over a built cluster: queries stream in while node
//! loops claim them continuously (the [`crate::runtime`] batch paths'
//! continuous-dispatch lanes, turned into a long-running front-end).
//!
//! The batch paths answer a closed set with a known size; this module
//! answers an *open* stream under a session: callers submit
//! [`ServeQuery`]s through a [`ServeHandle`] while every node's worker
//! pool runs a claim loop — pop the node's replication-group queue
//! (interactive class first, earliest deadline first), execute on a
//! continuous-dispatch lane, merge into the query's entry, and deliver
//! the finished answer through the `on_complete` callback the moment
//! the last group contributes. There is no batch barrier anywhere: the
//! only join is at session close, when the queues drain.
//!
//! Three serving-specific behaviors ride the existing failure machinery:
//!
//! * **deadline honesty** — a query claimed after its deadline expired
//!   is answered from the index's approximate search (the same seed the
//!   exact search starts from) and flagged [`ServeOutcome::Degraded`]
//!   with a [`Coverage::Partial`]-style report naming the degraded
//!   groups, never silently dropped;
//! * **torn executions** — a worker panic mid-query (an injected
//!   [`crate::FaultPlan::worker_panic`] or a real fault) is caught on
//!   its lane: the node retires and a live group member re-executes the
//!   query, or, on the group's last member, the query is answered
//!   approximately (flagged degraded) and the node re-arms its lanes;
//! * **suspect hedging** — a healthy group member that runs out of
//!   queued work re-executes a query whose claim has been sitting with
//!   a [`NodeHealth::Suspect`] peer for
//!   [`ClusterConfig::suspect_hedge_after`] shard-map ticks, bounded by
//!   [`ClusterConfig::suspect_max_hedges`] per query. First exact
//!   answer wins; the late twin is discarded on arrival.

use crate::config::ClusterConfig;
use crate::faults::{service_tick, NodeFaults};
use crate::runtime::{record_feedback, OdysseyCluster};
use crate::shard_map::{Coverage, NodeHealth, ShardMap};
use odyssey_core::search::answer::{Answer, KnnAnswer};
use odyssey_core::search::engine::{
    BatchAnswer, BatchEngine, BatchQuery, QueryKind, StealRegistry,
};
use odyssey_core::search::exact::SearchParams;
use odyssey_core::search::multiq::uniform_widths;
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One streamed query.
#[derive(Debug, Clone)]
pub struct ServeQuery {
    /// The z-normalized query series (same length as the collection).
    pub data: Vec<f32>,
    /// Search kind (ED / DTW / k-NN), as in the batch paths.
    pub kind: QueryKind,
    /// Latency class: interactive queries are admitted before batch
    /// ones and ordered earliest-deadline-first among themselves.
    pub interactive: bool,
    /// Relative deadline from admission. A group that claims the query
    /// after this has elapsed answers approximately (degraded), keeping
    /// tail latency bounded instead of letting one overloaded node
    /// stall the stream.
    pub deadline: Option<Duration>,
}

impl ServeQuery {
    /// An interactive exact-ED query with no deadline.
    pub fn interactive(data: Vec<f32>) -> Self {
        ServeQuery {
            data,
            kind: QueryKind::Exact,
            interactive: true,
            deadline: None,
        }
    }

    /// A batch-class exact-ED query with no deadline.
    pub fn batch(data: Vec<f32>) -> Self {
        ServeQuery {
            data,
            kind: QueryKind::Exact,
            interactive: false,
            deadline: None,
        }
    }

    /// Sets the search kind.
    pub fn with_kind(mut self, kind: QueryKind) -> Self {
        self.kind = kind;
        self
    }

    /// Sets the relative deadline.
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }
}

/// How a served answer was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeOutcome {
    /// Every group ran the full exact search.
    Exact,
    /// At least one group answered from the approximate seed: the
    /// query's deadline had expired when the group claimed it, or a
    /// worker panic tore the group's execution on its last live member.
    Degraded,
}

/// A finished streamed query, delivered through `on_complete`.
#[derive(Debug, Clone)]
pub struct ServedAnswer {
    /// The id [`ServeHandle::submit`] returned.
    pub qid: u64,
    /// The merged answer (global series ids).
    pub answer: BatchAnswer,
    /// Exact everywhere, or degraded in the named groups.
    pub outcome: ServeOutcome,
    /// [`Coverage::Partial`] names the groups that answered
    /// approximately (`Complete` = exact everywhere).
    pub coverage: Coverage,
    /// Whether a suspect-hedge re-execution was spent on this query.
    pub hedged: bool,
    /// Submission-to-completion latency.
    pub latency: Duration,
    /// The query's latency class.
    pub interactive: bool,
}

/// Counters of one serving session.
#[derive(Debug, Clone)]
pub struct ServeStats {
    /// Queries submitted.
    pub submitted: u64,
    /// Queries completed (every submitted query completes by close).
    pub completed: u64,
    /// Completions with at least one degraded group.
    pub degraded: u64,
    /// Suspect-hedge re-executions performed.
    pub hedges: u64,
    /// Group-level executions per node (hedges included).
    pub per_node_queries: Vec<u64>,
    /// Shard-map epoch at close (bumps on health transitions).
    pub final_epoch: u64,
}

/// Per-query serving state, alive until every group contributed.
struct ServeEntry {
    data: Arc<[f32]>,
    kind: QueryKind,
    interactive: bool,
    expire_at: Option<Instant>,
    admitted: Instant,
    /// Groups still owed; the entry completes when this hits zero.
    remaining: usize,
    groups_done: Vec<bool>,
    /// Groups that answered approximately.
    degraded_groups: Vec<usize>,
    /// Outstanding claim per group: `(node, shard-map tick at claim)`.
    /// Read by the hedge scan to spot work stuck on a suspect peer.
    claims: Vec<Option<(usize, u64)>>,
    hedges: u32,
    hedged: bool,
    best_nn: Answer,
    best_knn: Option<KnnAnswer>,
}

/// The two class queues of one replication group. Interactive entries
/// carry their deadline so admission stays earliest-deadline-first
/// (deadline-free interactive queries rank after all deadlines).
struct GroupQueues {
    interactive: VecDeque<(Option<Instant>, u64)>,
    batch: VecDeque<u64>,
}

/// What a node's claim loop does next.
enum Claim {
    /// Execute `qid` (approximately when `degraded`).
    Run {
        qid: u64,
        data: Arc<[f32]>,
        kind: QueryKind,
        degraded: bool,
    },
    /// Nothing claimable right now; keep leases moving and re-poll.
    Idle,
    /// Stream closed and the group fully drained.
    Exit,
}

/// The streaming front-end of one serving session: submit queries,
/// watch the in-flight count, close the stream. Created by
/// [`OdysseyCluster::serve`] and handed to the session closure.
pub struct ServeHandle<'c> {
    cluster: &'c OdysseyCluster,
    shard_map: ShardMap,
    entries: Mutex<HashMap<u64, ServeEntry>>,
    queues: Vec<Mutex<GroupQueues>>,
    /// Outstanding claims per group — the group-exit condition. A
    /// claim is counted under its group's queue lock, and a torn claim
    /// goes back to the queue under that lock before it is uncounted,
    /// so a member that sees the queue empty and nothing in flight
    /// cannot miss a query.
    inflight: Vec<AtomicUsize>,
    /// Members per group that have not retired after a worker panic.
    live: Vec<AtomicUsize>,
    closed: AtomicBool,
    next_qid: AtomicU64,
    completed: AtomicU64,
    degraded: AtomicU64,
    hedges: AtomicU64,
    per_node_queries: Vec<AtomicU64>,
    on_complete: &'c (dyn Fn(ServedAnswer) + Sync),
}

impl<'c> ServeHandle<'c> {
    fn new(
        cluster: &'c OdysseyCluster,
        on_complete: &'c (dyn Fn(ServedAnswer) + Sync),
    ) -> Self {
        let topo = *cluster.topology();
        let n_groups = topo.n_groups();
        let n_nodes = topo.n_nodes();
        ServeHandle {
            cluster,
            shard_map: ShardMap::new(topo, cluster.config().lease_ticks),
            entries: Mutex::new(HashMap::new()),
            queues: (0..n_groups)
                .map(|_| {
                    Mutex::new(GroupQueues {
                        interactive: VecDeque::new(),
                        batch: VecDeque::new(),
                    })
                })
                .collect(),
            inflight: (0..n_groups).map(|_| AtomicUsize::new(0)).collect(),
            live: (0..n_groups)
                .map(|_| AtomicUsize::new(topo.replication_degree()))
                .collect(),
            closed: AtomicBool::new(false),
            next_qid: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            hedges: AtomicU64::new(0),
            per_node_queries: (0..n_nodes).map(|_| AtomicU64::new(0)).collect(),
            on_complete,
        }
    }

    /// Admits one query to every replication group and returns its id.
    /// The answer arrives through the session's `on_complete` callback.
    ///
    /// # Panics
    /// Panics when called after [`ServeHandle::close`] — the node loops
    /// may already have drained and exited — and when the query's length
    /// differs from the indexed series length (the message names both)
    /// or a value is not finite: such a query would be answered over a
    /// truncated overlap or panic a node worker. [`OdysseyCluster::serve`]
    /// then closes the stream and re-raises the panic.
    pub fn submit(&self, q: ServeQuery) -> u64 {
        assert!(
            !self.closed.load(Ordering::Acquire),
            "submit after close: the stream is drained"
        );
        let expected = self.cluster.series_len();
        assert!(
            q.data.len() == expected,
            "query length {} does not match the indexed series length {expected}",
            q.data.len()
        );
        assert!(
            q.data.iter().all(|v| v.is_finite()),
            "query holds a non-finite value"
        );
        let qid = self.next_qid.fetch_add(1, Ordering::Relaxed);
        let n_groups = self.queues.len();
        let expire_at = q.deadline.map(|d| Instant::now() + d);
        let entry = ServeEntry {
            data: Arc::from(q.data),
            kind: q.kind,
            interactive: q.interactive,
            expire_at,
            admitted: Instant::now(),
            remaining: n_groups,
            groups_done: vec![false; n_groups],
            degraded_groups: Vec::new(),
            claims: vec![None; n_groups],
            hedges: 0,
            hedged: false,
            best_nn: Answer::none(),
            best_knn: None,
        };
        self.entries.lock().insert(qid, entry);
        // EDF key: concrete deadlines first (earliest wins), ties and
        // deadline-free queries in submission order.
        let key = (expire_at.is_none(), expire_at);
        for queues in &self.queues {
            let mut gq = queues.lock();
            if q.interactive {
                let pos = gq
                    .interactive
                    .iter()
                    .position(|&(e, _)| key < (e.is_none(), e))
                    .unwrap_or(gq.interactive.len());
                gq.interactive.insert(pos, (expire_at, qid));
            } else {
                gq.batch.push_back(qid);
            }
        }
        qid
    }

    /// Queries submitted but not yet completed.
    pub fn in_flight(&self) -> usize {
        self.entries.lock().len()
    }

    /// Closes the stream: node loops drain their queues and exit.
    /// Every already-submitted query still completes.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
    }

    fn stats(&self) -> ServeStats {
        ServeStats {
            submitted: self.next_qid.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            hedges: self.hedges.load(Ordering::Relaxed),
            per_node_queries: self
                .per_node_queries
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            final_epoch: self.shard_map.epoch(),
        }
    }

    /// One claim decision for `node` (a member of group `g`).
    fn claim(&self, node: usize, g: usize) -> Claim {
        let cfg = self.cluster.config();
        // Own queue first: interactive (EDF) before batch.
        let popped = {
            let mut gq = self.queues[g].lock();
            let popped = gq
                .interactive
                .pop_front()
                .map(|(_, qid)| qid)
                .or_else(|| gq.batch.pop_front());
            if popped.is_some() {
                self.inflight[g].fetch_add(1, Ordering::AcqRel);
            }
            popped
        };
        if let Some(qid) = popped {
            let mut entries = self.entries.lock();
            let e = entries.get_mut(&qid).expect("queued query has an entry");
            e.claims[g] = Some((node, self.shard_map.now()));
            return Claim::Run {
                qid,
                data: Arc::clone(&e.data),
                kind: e.kind,
                degraded: e.expire_at.is_some_and(|t| Instant::now() > t),
            };
        }
        // Hedge scan: an idle healthy member re-claims work stuck with
        // a suspect peer (bounded per query).
        if cfg.suspect_max_hedges > 0 && self.shard_map.health(node) == NodeHealth::Up {
            let now = self.shard_map.now();
            let mut entries = self.entries.lock();
            let victim = entries.iter().find_map(|(&qid, e)| {
                if e.groups_done[g] || e.hedges >= cfg.suspect_max_hedges {
                    return None;
                }
                match e.claims[g] {
                    // Any unhealthy claimer qualifies: `Suspect` is the
                    // hedge's target, and a claim aged all the way into
                    // `Down` deserves it a fortiori.
                    Some((claimer, tick))
                        if claimer != node
                            && self.shard_map.health(claimer) != NodeHealth::Up
                            && now.saturating_sub(tick) >= cfg.suspect_hedge_after =>
                    {
                        Some(qid)
                    }
                    _ => None,
                }
            });
            if let Some(qid) = victim {
                let e = entries.get_mut(&qid).expect("victim entry exists");
                e.hedges += 1;
                e.hedged = true;
                e.claims[g] = Some((node, now));
                self.hedges.fetch_add(1, Ordering::Relaxed);
                self.inflight[g].fetch_add(1, Ordering::AcqRel);
                return Claim::Run {
                    qid,
                    data: Arc::clone(&e.data),
                    kind: e.kind,
                    degraded: e.expire_at.is_some_and(|t| Instant::now() > t),
                };
            }
        }
        let drained = {
            let gq = self.queues[g].lock();
            gq.interactive.is_empty()
                && gq.batch.is_empty()
                && self.inflight[g].load(Ordering::Acquire) == 0
        };
        if self.closed.load(Ordering::Acquire) && drained {
            Claim::Exit
        } else {
            Claim::Idle
        }
    }

    /// Settles group `g`'s share of `qid` after a worker panic tore its
    /// execution on `node`, so the query is still answered exactly
    /// once. While `g` has another live member, `node` retires (marked
    /// `Down`) and the query goes back to the head of its class queue
    /// for a replica to re-execute; the group's last member instead
    /// answers it from the approximate seed, flagged degraded, and
    /// keeps serving. Returns whether `node` retired.
    fn tear(
        &self,
        node: usize,
        g: usize,
        qid: u64,
        engine: &BatchEngine,
        query: &BatchQuery,
    ) -> bool {
        let retire = self.live[g]
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n > 1).then(|| n - 1)
            })
            .is_ok();
        if !retire {
            self.complete(node, g, qid, engine.approximate(query), true);
            return false;
        }
        self.shard_map.mark_down(node);
        let mut entries = self.entries.lock();
        let mut gq = self.queues[g].lock();
        // A hedge twin may already have answered the group's share.
        if let Some(e) = entries.get_mut(&qid).filter(|e| !e.groups_done[g]) {
            e.claims[g] = None;
            if e.interactive {
                gq.interactive.push_front((e.expire_at, qid));
            } else {
                gq.batch.push_front(qid);
            }
        }
        self.inflight[g].fetch_sub(1, Ordering::AcqRel);
        true
    }

    /// Merges group `g`'s answer for `qid`; delivers the completed
    /// query when this was the last group. A late hedge twin (its entry
    /// already completed, or its group already done) is discarded.
    fn complete(&self, node: usize, g: usize, qid: u64, answer: BatchAnswer, degraded: bool) {
        self.shard_map.tick();
        self.shard_map.heartbeat(node);
        self.shard_map.expire_leases();
        self.per_node_queries[node].fetch_add(1, Ordering::Relaxed);
        let finished = {
            let mut entries = self.entries.lock();
            let Some(e) = entries.get_mut(&qid) else {
                self.inflight[g].fetch_sub(1, Ordering::AcqRel);
                return;
            };
            if e.groups_done[g] {
                self.inflight[g].fetch_sub(1, Ordering::AcqRel);
                return;
            }
            e.groups_done[g] = true;
            e.claims[g] = None;
            e.remaining -= 1;
            if degraded {
                e.degraded_groups.push(g);
            }
            match answer {
                BatchAnswer::Nn(mut a) => {
                    if let Some(local) = a.series_id {
                        a.series_id = Some(self.cluster.chunk_ids(g)[local as usize]);
                    }
                    // The batch boards' merge rule.
                    e.best_nn = e.best_nn.min(a);
                }
                BatchAnswer::Knn(mut a) => {
                    let QueryKind::Knn(k) = e.kind else {
                        unreachable!("k-NN answer for a non-k-NN query")
                    };
                    for n in &mut a.neighbors {
                        n.1 = self.cluster.chunk_ids(g)[n.1 as usize];
                    }
                    e.best_knn = Some(match e.best_knn.take() {
                        None => a,
                        Some(prev) => prev.merge(a, k),
                    });
                }
            }
            let done = (e.remaining == 0).then(|| entries.remove(&qid).expect("entry present"));
            // Decrement under the entries lock: a sibling observing
            // `inflight == 0` must also observe this group done, so the
            // exit condition never fires with a merge still pending.
            self.inflight[g].fetch_sub(1, Ordering::AcqRel);
            done
        };
        if let Some(e) = finished {
            self.completed.fetch_add(1, Ordering::Relaxed);
            let coverage = if e.degraded_groups.is_empty() {
                Coverage::Complete
            } else {
                self.degraded.fetch_add(1, Ordering::Relaxed);
                let mut missing_groups = e.degraded_groups;
                missing_groups.sort_unstable();
                Coverage::Partial { missing_groups }
            };
            let outcome = if coverage.is_complete() {
                ServeOutcome::Exact
            } else {
                ServeOutcome::Degraded
            };
            (self.on_complete)(ServedAnswer {
                qid,
                answer: match e.best_knn {
                    Some(knn) => BatchAnswer::Knn(knn),
                    None => BatchAnswer::Nn(e.best_nn),
                },
                outcome,
                coverage,
                hedged: e.hedged,
                latency: e.admitted.elapsed(),
                interactive: e.interactive,
            });
        }
    }

    /// One node's serving loop: continuous-dispatch lanes over the
    /// node's engine, each claiming from the group queue until close.
    fn node_loop(&self, node: usize) {
        let cfg: &ClusterConfig = self.cluster.config();
        let g = self.cluster.topology().group_of(node);
        let engine = BatchEngine::new(
            Arc::clone(self.cluster.chunk_index(g)),
            cfg.threads_per_node,
        );
        // Online predictor feedback: every full execution on this node
        // trains the cluster's shared cost/TH models, so batch calls
        // issued after (or between) serving sessions plan from a
        // predictor already fitted to the live stream. Degraded
        // (approximate) answers never reach the observer — they skip
        // `ctx.execute` — and a k-NN seed bound that is still infinite
        // carries no usable feature, so it is skipped too.
        {
            let feedback = Arc::clone(self.cluster.feedback());
            let th = self.cluster.th_feedback().cloned();
            engine
                .steal_registry()
                .install_observer(Arc::new(move |_qid, stats| {
                    record_feedback(&feedback, th.as_deref(), stats)
                }));
        }
        let params = SearchParams::new(cfg.threads_per_node)
            .with_th(cfg.pq_threshold)
            .with_nsb(cfg.rs_batches);
        // Delay faults pace the node between claim and execution (a
        // slow replica whose peers out-tick its lease — the suspect the
        // hedge path exists for). A worker panic fires from the
        // engine's service hook, as in the batch paths, and tears one
        // execution (see `tear`). Kill faults stay a batch-path
        // concern: the serving loop models overload and torn
        // executions, not crash-failover.
        let faults = NodeFaults::new(cfg.fault_plan.as_deref(), node);
        let delay = faults.delay();
        if cfg
            .fault_plan
            .as_deref()
            .is_some_and(|p| p.dies_by_panic(node))
        {
            let panic_armed = faults.panic_flag();
            engine
                .steal_registry()
                .install_service(Arc::new(move |_: &StealRegistry| {
                    service_tick(&panic_armed, None)
                }));
        }
        let faults = Mutex::new(faults);
        let widths = uniform_widths(cfg.threads_per_node, cfg.service_lane_width);
        // Set once a lane tears an execution: every lane leaves the
        // round, whose pool join drains the panicked workers, and the
        // node re-arms its lanes in a fresh round unless it retired.
        let torn = AtomicBool::new(false);
        let retired = AtomicBool::new(false);
        loop {
            let round = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                engine.run_dispatch(&widths, &|ctx, _lane| {
                    while !torn.load(Ordering::Acquire) {
                        match self.claim(node, g) {
                            Claim::Run {
                                qid,
                                data,
                                kind,
                                degraded,
                            } => {
                                if let Some(d) = delay {
                                    std::thread::sleep(d);
                                }
                                let query = BatchQuery::new(&data, kind);
                                if degraded {
                                    self.complete(node, g, qid, engine.approximate(&query), true);
                                    continue;
                                }
                                {
                                    let mut nf = faults.lock();
                                    nf.panic_due();
                                    nf.record_execution();
                                }
                                let run =
                                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                        ctx.execute(qid as usize, &query, &params).answer
                                    }));
                                match run {
                                    Ok(answer) => self.complete(node, g, qid, answer, false),
                                    Err(_) => {
                                        if self.tear(node, g, qid, &engine, &query) {
                                            retired.store(true, Ordering::Release);
                                        }
                                        torn.store(true, Ordering::Release);
                                    }
                                }
                            }
                            Claim::Idle => {
                                self.shard_map.expire_leases();
                                std::thread::sleep(Duration::from_micros(50));
                            }
                            Claim::Exit => return,
                        }
                    }
                })
            }));
            if !torn.swap(false, Ordering::AcqRel) {
                if let Err(payload) = round {
                    std::panic::resume_unwind(payload);
                }
                return;
            }
            if retired.load(Ordering::Acquire) {
                return;
            }
        }
    }
}

impl OdysseyCluster {
    /// Runs one serving session: every node stands up its engine and
    /// claims streamed queries continuously while `session` drives a
    /// [`ServeHandle`] (submit / close) from the calling thread.
    /// Finished queries are delivered through `on_complete` (called
    /// from node threads, unordered). Returns the session's value and
    /// the session's counters once the stream is drained.
    ///
    /// Answers are bit-identical to [`OdysseyCluster::answer_batch`] /
    /// [`OdysseyCluster::answer_batch_knn`] over the same queries, as
    /// long as no deadline expires and no worker panics (both trade
    /// exactness for a bounded answer, honestly flagged per answer).
    pub fn serve<R, S>(
        &self,
        session: S,
        on_complete: &(dyn Fn(ServedAnswer) + Sync),
    ) -> (R, ServeStats)
    where
        S: FnOnce(&ServeHandle) -> R,
    {
        let handle = ServeHandle::new(self, on_complete);
        let mut out = None;
        let mut session_panic = None;
        std::thread::scope(|scope| {
            for node in 0..self.topology().n_nodes() {
                let h = &handle;
                scope.spawn(move || h.node_loop(node));
            }
            // The session runs on the calling thread; close() runs even
            // when it panics, so the node loops always terminate and
            // the scope join cannot deadlock on a dead submitter.
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| session(&handle)));
            handle.close();
            match r {
                Ok(v) => out = Some(v),
                Err(p) => session_panic = Some(p),
            }
        });
        if let Some(p) = session_panic {
            std::panic::resume_unwind(p);
        }
        (out.expect("session ran"), handle.stats())
    }
}
