//! The Odyssey cluster runtime (the five-stage flowchart of Figure 3).
//!
//! 1. The coordinator partitions the collection into one chunk per
//!    replication group ([`OdysseyCluster::build`]).
//! 2. Each node loads its chunk and builds its index — simulated by one
//!    build per *chunk* shared (`Arc`) by the group's nodes, since
//!    replication-group nodes build bit-identical trees anyway; build
//!    time is accounted once per node.
//! 3. Group coordinators estimate query costs and schedule the batch.
//! 4. Nodes answer their queries (per-node Odyssey search) with BSF
//!    sharing and work-stealing.
//! 5. Local answers merge into the final per-query results.

use crate::boards::{AnswerBoard, BoardBsf, BoardKnn, BsfBoard, CoverageBoard, KnnBoard};
use crate::config::{BatchMode, ClusterConfig};
use crate::faults::{self, NodeFaults};
use crate::shard_map::{Coverage, ShardMap};
use crate::stealing::{manager_loop, StealRequest};
use crate::topology::Topology;
use crate::units;
use crossbeam::channel::{bounded, unbounded, Sender};
use odyssey_core::index::{BuildTimes, Index, IndexConfig};
use odyssey_core::search::answer::{Answer, KnnAnswer};
use odyssey_core::search::dtw_search::{approx_dtw, DtwKernel};
use odyssey_core::search::bsf::ResultSet;
use odyssey_core::search::engine::{BatchEngine, InflightQuery, StealRegistry};
use odyssey_core::search::exact::{SearchParams, SearchStats};
use odyssey_core::search::kernel::{EdKernel, QueryKernel};
use odyssey_core::search::knn::seed_from_approx_leaf;
use odyssey_core::search::multiq::LaneCtx;
use odyssey_core::series::DatasetBuffer;
use odyssey_partition::Partition;
use odyssey_sched::admission::{
    plan_dispatch_widths, plan_dispatch_widths_adaptive, AdmissionConfig,
};
use odyssey_sched::scheduler::{dynamic_order, greedy_by_estimate, static_split};
use odyssey_sched::{CostModel, OnlineCostModel, OnlineThresholdModel, SchedulerKind, SpeedupCurve};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Index-construction report (the quantities of Figures 14 and 17).
#[derive(Debug, Clone)]
pub struct BuildReport {
    /// Wall-clock build times per chunk (= per replication group).
    pub per_chunk_times: Vec<BuildTimes>,
    /// Deterministic buffer-phase units per chunk.
    pub per_chunk_buffer_units: Vec<u64>,
    /// Deterministic tree-phase units per chunk.
    pub per_chunk_tree_units: Vec<u64>,
    /// Index overhead bytes per chunk.
    pub per_chunk_index_bytes: Vec<usize>,
    /// Per-node index size (each node stores its group's chunk index).
    pub per_node_index_bytes: Vec<usize>,
}

impl BuildReport {
    /// Max-over-nodes buffer units (every node builds its chunk's index,
    /// so the per-node cost is its chunk's cost).
    pub fn max_buffer_units(&self) -> u64 {
        self.per_chunk_buffer_units.iter().copied().max().unwrap_or(0)
    }

    /// Max-over-nodes tree units.
    pub fn max_tree_units(&self) -> u64 {
        self.per_chunk_tree_units.iter().copied().max().unwrap_or(0)
    }

    /// Max-over-nodes total index units.
    pub fn max_index_units(&self) -> u64 {
        self.per_chunk_buffer_units
            .iter()
            .zip(&self.per_chunk_tree_units)
            .map(|(b, t)| b + t)
            .max()
            .unwrap_or(0)
    }

    /// Total index bytes across all nodes (Figure 14's y-axis).
    pub fn total_index_bytes(&self) -> usize {
        self.per_node_index_bytes.iter().sum()
    }

    /// Max-over-chunks wall-clock index time.
    pub fn max_wall_index_time(&self) -> Duration {
        self.per_chunk_times
            .iter()
            .map(|t| t.index_time())
            .max()
            .unwrap_or_default()
    }
}

/// Result of answering a 1-NN (Euclidean or DTW) batch.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Final per-query answers (global minimum across all nodes).
    pub answers: Vec<Answer>,
    /// Wall-clock duration of the whole batch (host-dependent).
    pub wall: Duration,
    /// Work units spent per node (own queries + stolen work).
    pub per_node_units: Vec<u64>,
    /// Work units spent per query (across all nodes).
    pub per_query_units: Vec<u64>,
    /// Queries answered per node (own assignments, not steals).
    pub per_node_queries: Vec<usize>,
    /// Best initial BSF (rooted) observed per query across groups.
    pub per_query_initial_bsf: Vec<f64>,
    /// Steal requests sent by idle nodes.
    pub steals_attempted: u64,
    /// Steal requests that returned at least one RS-batch.
    pub steals_successful: u64,
    /// BSF-channel broadcasts.
    pub bsf_broadcasts: u64,
    /// Per-query answer coverage (the degraded-answer contract):
    /// `Complete` unless some replication group lost all replicas
    /// before contributing its chunk's answer.
    pub coverage: Vec<Coverage>,
    /// Query executions re-routed from a dead node to a surviving
    /// replica of the same group.
    pub reroutes: u64,
    /// Nodes declared `Down` during the batch, in id order.
    pub dead_nodes: Vec<usize>,
    /// The shard-map epoch after the batch (0 = no health transitions).
    pub final_epoch: u64,
}

impl BatchReport {
    /// The makespan in work units: max over nodes of their busy units —
    /// the simulated analogue of the paper's max-over-nodes time.
    pub fn makespan_units(&self) -> u64 {
        self.per_node_units.iter().copied().max().unwrap_or(0)
    }

    /// Makespan converted to simulated seconds.
    pub fn makespan_seconds(&self, threads_per_node: usize) -> f64 {
        units::units_to_seconds(self.makespan_units(), threads_per_node)
    }

    /// Total units across all nodes (the work the system performed).
    pub fn total_units(&self) -> u64 {
        self.per_node_units.iter().sum()
    }

    /// Whether every query's answer covers the whole collection.
    pub fn fully_covered(&self) -> bool {
        self.coverage.iter().all(|c| c.is_complete())
    }

    /// Queries per simulated second.
    pub fn throughput(&self, threads_per_node: usize) -> f64 {
        let secs = self.makespan_seconds(threads_per_node);
        if secs > 0.0 {
            self.answers.len() as f64 / secs
        } else {
            f64::INFINITY
        }
    }
}

/// Result of answering a k-NN batch.
#[derive(Debug, Clone)]
pub struct KnnBatchReport {
    /// Final merged k-NN answers.
    pub answers: Vec<KnnAnswer>,
    /// Wall-clock duration.
    pub wall: Duration,
    /// Work units per node.
    pub per_node_units: Vec<u64>,
    /// Per-query answer coverage (see [`BatchReport::coverage`]).
    pub coverage: Vec<Coverage>,
}

impl KnnBatchReport {
    /// Max-over-nodes work units.
    pub fn makespan_units(&self) -> u64 {
        self.per_node_units.iter().copied().max().unwrap_or(0)
    }
}

/// A built Odyssey cluster, ready to answer query batches.
pub struct OdysseyCluster {
    config: ClusterConfig,
    topology: Topology,
    /// One index per replication group (shared by the group's nodes).
    chunk_index: Vec<Arc<Index>>,
    /// Chunk-local → global series-id map, one per group.
    id_maps: Vec<Arc<[u32]>>,
    build: BuildReport,
    /// Online cost-predictor feedback: every finished (non-stolen)
    /// query execution appends its `(initial BSF, wall time)` pair, and
    /// the linear model refits at deterministic sample counts. When no
    /// trained [`ClusterConfig::cost_model`] is installed, this model
    /// *is* the PREDICT-* cost estimator — identity (raw initial BSF)
    /// until the first refit, then the fitted Figure-4 line.
    feedback: Arc<OnlineCostModel>,
    /// Online sigmoid refit for the per-query `TH` model; present only
    /// when [`ClusterConfig::threshold_model`] is set (seeded from it).
    th_feedback: Option<Arc<OnlineThresholdModel>>,
    /// Speedup-vs-width curve (Figure 8), calibrated once per cluster
    /// by the first node that plans lanes. The simulated nodes share
    /// the host's cores, so one curve serves every node engine.
    curve: Arc<OnceLock<SpeedupCurve>>,
}

impl OdysseyCluster {
    /// Stage 1 + 2 of Figure 3: partition the collection and build the
    /// per-node indexes.
    ///
    /// # Panics
    /// Panics when the replication setting is invalid for the node count.
    pub fn build(data: &DatasetBuffer, config: ClusterConfig) -> Self {
        let n_groups = config.replication.n_groups(config.n_nodes);
        let partition = config.partitioning.apply(data, n_groups);
        Self::build_with_partition(data, config, partition)
    }

    /// [`OdysseyCluster::build`] with an externally computed partition
    /// (used by the DPiSAX baseline, which has its own partitioner).
    pub fn build_with_partition(
        data: &DatasetBuffer,
        config: ClusterConfig,
        partition: Partition,
    ) -> Self {
        let n_groups = config.replication.n_groups(config.n_nodes);
        let topology = Topology::new(config.n_nodes, n_groups)
            .unwrap_or_else(|e| panic!("invalid topology: {e}"));
        assert_eq!(
            partition.num_chunks(),
            n_groups,
            "partition must have one chunk per replication group"
        );
        let mut chunk_index = Vec::with_capacity(n_groups);
        let mut per_chunk_times = Vec::with_capacity(n_groups);
        let mut per_chunk_buffer_units = Vec::with_capacity(n_groups);
        let mut per_chunk_tree_units = Vec::with_capacity(n_groups);
        let mut per_chunk_index_bytes = Vec::with_capacity(n_groups);
        for g in 0..n_groups {
            // Chunk ids are remapped to local ids inside the chunk index;
            // `id_map` restores global ids in answers.
            let chunk = partition.materialize(data, g);
            let icfg = IndexConfig::new(data.series_len())
                .with_segments(config.segments.min(data.series_len()))
                .with_leaf_capacity(config.leaf_capacity);
            let index = Index::build(chunk, icfg, config.threads_per_node);
            per_chunk_times.push(index.build_times());
            per_chunk_buffer_units.push(units::buffer_units(
                index.num_series(),
                data.series_len(),
            ));
            per_chunk_tree_units.push(units::tree_units(&index));
            per_chunk_index_bytes.push(index.size_bytes());
            chunk_index.push(Arc::new(index));
        }
        let per_node_index_bytes = (0..config.n_nodes)
            .map(|n| per_chunk_index_bytes[topology.group_of(n)])
            .collect();
        let build = BuildReport {
            per_chunk_times,
            per_chunk_buffer_units,
            per_chunk_tree_units,
            per_chunk_index_bytes,
            per_node_index_bytes,
        };
        let (feedback, th_feedback) = Self::make_feedback(&config);
        OdysseyCluster {
            config,
            topology,
            chunk_index,
            id_maps: partition.chunks.into_iter().map(Arc::from).collect(),
            build,
            feedback,
            th_feedback,
            curve: Arc::new(OnceLock::new()),
        }
    }

    /// Fresh online-feedback models for a configuration: an identity
    /// cost line (or the trained threshold sigmoid) that only moves
    /// once enough observations accumulate.
    fn make_feedback(
        config: &ClusterConfig,
    ) -> (Arc<OnlineCostModel>, Option<Arc<OnlineThresholdModel>>) {
        let cost = Arc::new(OnlineCostModel::new(
            config.feedback_capacity,
            config.feedback_refit_every,
        ));
        let th = config.threshold_model.map(|m| {
            Arc::new(OnlineThresholdModel::seeded(
                m,
                config.feedback_capacity,
                config.feedback_refit_every,
            ))
        });
        (cost, th)
    }

    /// Returns a cluster sharing this one's indexes (cheap `Arc` clones)
    /// under a modified configuration — for sweeping schedulers,
    /// stealing, or sharing toggles without re-partitioning or
    /// re-indexing.
    ///
    /// # Panics
    /// Panics if the new configuration changes the node count or the
    /// replication-group count (those determine the physical layout).
    pub fn reconfigured(
        &self,
        f: impl FnOnce(ClusterConfig) -> ClusterConfig,
    ) -> OdysseyCluster {
        let config = f(self.config.clone());
        assert_eq!(config.n_nodes, self.config.n_nodes, "node count is fixed");
        assert_eq!(
            config.replication.n_groups(config.n_nodes),
            self.topology.n_groups(),
            "replication-group count is fixed"
        );
        // Fresh feedback state: a reconfigured variant must not inherit
        // samples recorded under the old configuration (sweeps compare
        // variants from identical starting predictors). The calibrated
        // curve is a property of the host and the pool width, so it is
        // shared — unless the pool width changed.
        let (feedback, th_feedback) = Self::make_feedback(&config);
        let curve = if config.threads_per_node == self.config.threads_per_node {
            Arc::clone(&self.curve)
        } else {
            Arc::new(OnceLock::new())
        };
        OdysseyCluster {
            config,
            topology: self.topology,
            chunk_index: self.chunk_index.clone(),
            id_maps: self.id_maps.clone(),
            build: self.build.clone(),
            feedback,
            th_feedback,
            curve,
        }
    }

    /// The online cost-predictor feedback (sample counts, refit counts,
    /// the current line) — the benches report its before/after MAPE.
    pub fn feedback(&self) -> &Arc<OnlineCostModel> {
        &self.feedback
    }

    /// The online threshold-predictor feedback (present iff a trained
    /// sigmoid model was configured to seed it).
    pub(crate) fn th_feedback(&self) -> Option<&Arc<OnlineThresholdModel>> {
        self.th_feedback.as_ref()
    }

    /// The calibrated speedup-vs-width curve, if a lane plan has run.
    pub fn calibrated_curve(&self) -> Option<&SpeedupCurve> {
        self.curve.get()
    }

    /// The topology in use.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Index-construction report.
    pub fn build_report(&self) -> &BuildReport {
        &self.build
    }

    /// The index of replication group `g`.
    pub fn chunk_index(&self, g: usize) -> &Arc<Index> {
        &self.chunk_index[g]
    }

    /// The chunk-local → global series-id map of replication group `g`
    /// — the series a [`Coverage::Partial`] answer misses when `g` is
    /// among its missing groups.
    pub fn chunk_ids(&self, g: usize) -> &Arc<[u32]> {
        &self.id_maps[g]
    }

    /// Translates a chunk-local answer of group `g` to global series ids.
    fn globalize(&self, g: usize, mut a: Answer) -> Answer {
        if let Some(local) = a.series_id {
            a.series_id = Some(self.id_maps[g][local as usize]);
        }
        a
    }

    /// Answers a batch of Euclidean 1-NN queries (stage 3–5 of Figure 3).
    pub fn answer_batch(&self, queries: &DatasetBuffer) -> BatchReport {
        self.answer_batch_mode(queries, BatchMode::Euclidean)
    }

    /// Answers a dynamically arriving stream of Euclidean 1-NN queries.
    ///
    /// The paper notes its techniques "can easily be adjusted to work
    /// with queries that arrive in the system dynamically"; the
    /// consequence is that a dynamic scheduler can only sort *within*
    /// each arrival wave, never across the whole batch. This entry point
    /// models bursty arrival: queries become visible in waves of
    /// `wave_size`; the PREDICT-DN ordering applies per wave. Answers
    /// are identical to [`OdysseyCluster::answer_batch`] (exactness does
    /// not depend on scheduling); load balance degrades gracefully, which
    /// is exactly why the work-stealing mechanism exists.
    pub fn answer_batch_stream(&self, queries: &DatasetBuffer, wave_size: usize) -> BatchReport {
        assert!(wave_size >= 1);
        self.answer_batch_inner(queries, BatchMode::Euclidean, Some(wave_size))
    }

    /// Answers a batch *approximately*: each node returns the best real
    /// distance inside the single most-promising leaf of its index (the
    /// classic ng-approximate answer of the iSAX literature; DPiSAX's
    /// native batch mode). Orders of magnitude cheaper than exact search;
    /// the returned distances upper-bound the exact ones.
    pub fn answer_batch_approximate(&self, queries: &DatasetBuffer) -> BatchReport {
        let t0 = std::time::Instant::now();
        let nq = queries.num_series();
        let n_groups = self.topology.n_groups();
        let answer_board = AnswerBoard::new(nq);
        let per_node_units: Vec<AtomicU64> = (0..self.topology.n_nodes())
            .map(|_| AtomicU64::new(0))
            .collect();
        // One node per group answers (approximate answers are identical
        // across a replication group, so the extra nodes add nothing).
        std::thread::scope(|scope| {
            for g in 0..n_groups {
                let index = Arc::clone(&self.chunk_index[g]);
                let answer_board = &answer_board;
                let per_node_units = &per_node_units;
                let node = self.topology.group_coordinator(g);
                scope.spawn(move || {
                    for qid in 0..nq {
                        let r = index.approx_search(queries.series(qid));
                        let a = Answer {
                            distance: r.distance,
                            distance_sq: r.distance_sq,
                            series_id: r.series_id,
                        };
                        answer_board.merge(qid, self.globalize(g, a));
                        // Approx cost: one root-to-leaf walk plus a leaf
                        // scan — charge the leaf scan.
                        per_node_units[node].fetch_add(
                            (r.leaf_size * queries.series_len()) as u64,
                            Ordering::Relaxed,
                        );
                    }
                });
            }
        });
        BatchReport {
            answers: answer_board.into_answers(),
            wall: t0.elapsed(),
            per_node_units: per_node_units
                .iter()
                .map(|u| u.load(Ordering::Relaxed))
                .collect(),
            per_query_units: vec![0; nq],
            per_node_queries: vec![nq; 1],
            per_query_initial_bsf: Vec::new(),
            steals_attempted: 0,
            steals_successful: 0,
            bsf_broadcasts: 0,
            // The approximate path ignores fault plans (it is the cheap
            // estimation primitive, not the failure-tested exact path).
            coverage: vec![Coverage::Complete; nq],
            reroutes: 0,
            dead_nodes: Vec::new(),
            final_epoch: 0,
        }
    }

    /// Answers a batch of DTW 1-NN queries.
    pub fn answer_batch_dtw(&self, queries: &DatasetBuffer, window: usize) -> BatchReport {
        self.answer_batch_mode(queries, BatchMode::Dtw { window })
    }

    /// Answers a 1-NN batch in the given mode.
    ///
    /// # Panics
    /// Panics when called with [`BatchMode::Knn`]; use
    /// [`OdysseyCluster::answer_batch_knn`].
    pub fn answer_batch_mode(&self, queries: &DatasetBuffer, mode: BatchMode) -> BatchReport {
        self.answer_batch_inner(queries, mode, None)
    }

    fn answer_batch_inner(
        &self,
        queries: &DatasetBuffer,
        mode: BatchMode,
        wave_size: Option<usize>,
    ) -> BatchReport {
        assert!(
            !matches!(mode, BatchMode::Knn { .. }),
            "use answer_batch_knn for k-NN batches"
        );
        let t0 = std::time::Instant::now();
        let nq = queries.num_series();
        let topo = &self.topology;
        let n_nodes = topo.n_nodes();
        let n_groups = topo.n_groups();
        let group_size = topo.replication_degree();

        // --- Stage 3: per-group estimation + scheduling -----------------
        let mut dispatch: Vec<GroupDispatch> = Vec::with_capacity(n_groups);
        // Per-group cost estimates, kept for lane admission (empty for
        // the non-predictive policies, which also get no lanes).
        let mut group_costs: Vec<Vec<f64>> = Vec::with_capacity(n_groups);
        let initial_bsf_board: Vec<AtomicU64> = (0..nq)
            .map(|_| AtomicU64::new(f64::INFINITY.to_bits()))
            .collect();
        for g in 0..n_groups {
            let estimates = if self.config.scheduler.needs_predictions() {
                let index = &self.chunk_index[g];
                (0..nq)
                    .map(|q| {
                        let est_bsf = match mode {
                            BatchMode::Euclidean => index.approx_search(queries.series(q)).distance,
                            BatchMode::Dtw { window } => {
                                let kernel = DtwKernel::new(
                                    queries.series(q),
                                    window,
                                    index.config().segments,
                                );
                                approx_dtw(index, &kernel).0.sqrt()
                            }
                            BatchMode::Knn { .. } => unreachable!(),
                        };
                        initial_bsf_board[q].fetch_min(est_bsf.to_bits(), Ordering::Relaxed);
                        match &self.config.cost_model {
                            Some(m) => m.estimate(est_bsf),
                            // No trained model: the online predictor —
                            // identity until its first refit, then the
                            // line fitted on this cluster's own traffic.
                            None => self.feedback.estimate(est_bsf),
                        }
                    })
                    .collect::<Vec<f64>>()
            } else {
                vec![1.0; nq]
            };
            dispatch.push(GroupDispatch::build_waved(
                self.config.scheduler,
                &estimates,
                group_size,
                wave_size,
            ));
            group_costs.push(if self.config.scheduler.needs_predictions() {
                estimates
            } else {
                Vec::new()
            });
        }

        // --- Stage 4: node execution ------------------------------------
        let bsf_board = BsfBoard::new(nq);
        let answer_board = AnswerBoard::new(nq);
        let done: Vec<AtomicBool> = (0..n_nodes).map(|_| AtomicBool::new(false)).collect();
        let group_done: Vec<AtomicUsize> = (0..n_groups).map(|_| AtomicUsize::new(0)).collect();
        // One steal registry per node, shared between the node's engine
        // (which registers every in-flight pool or lane query) and its
        // work-stealing manager thread (which picks victims from it).
        let registries: Vec<Arc<StealRegistry>> = (0..n_nodes)
            .map(|_| Arc::new(StealRegistry::default()))
            .collect();
        let mut steal_tx: Vec<Sender<StealRequest>> = Vec::with_capacity(n_nodes);
        let mut steal_rx = Vec::with_capacity(n_nodes);
        let mut steal_rx_workers = Vec::with_capacity(n_nodes);
        for _ in 0..n_nodes {
            let (tx, rx) = unbounded();
            steal_tx.push(tx);
            // crossbeam channels are MPMC: the manager thread and the
            // search workers of the same node share the request stream.
            steal_rx_workers.push(rx.clone());
            steal_rx.push(Some(rx));
        }
        let per_node_units: Vec<AtomicU64> = (0..n_nodes).map(|_| AtomicU64::new(0)).collect();
        let per_query_units: Vec<AtomicU64> = (0..nq).map(|_| AtomicU64::new(0)).collect();
        let per_node_queries: Vec<AtomicUsize> =
            (0..n_nodes).map(|_| AtomicUsize::new(0)).collect();
        let steals_attempted = AtomicU64::new(0);
        let steals_successful = AtomicU64::new(0);
        // `Arc` (not a scoped borrow): the cooperative serving hook is
        // installed into each engine's steal registry, whose hooks are
        // `'static`.
        let steals_served = Arc::new(AtomicU64::new(0));

        let stealing_enabled = self.config.work_stealing && group_size > 1;
        // Inter-query lanes only need per-query predictions: the
        // engine-resident steal registry serves thieves from any
        // in-flight lane query, so stealing no longer disables lanes.
        let use_lanes =
            self.config.inter_query_lanes && self.config.scheduler.needs_predictions();
        let group_costs = &group_costs;

        // --- Failure-aware control plane --------------------------------
        let shard_map = ShardMap::new(*topo, self.config.lease_ticks);
        let coverage_board = CoverageBoard::new(nq, n_groups);
        let fault_plan = self.config.fault_plan.as_deref();
        // Work stranded by dead members, per group; survivors claim it
        // on their pool surface after draining their own dispatch.
        let reroute_queues: Vec<Mutex<RerouteQueue>> = (0..n_groups)
            .map(|_| Mutex::new(RerouteQueue::default()))
            .collect();
        // `drained[n]`: node n will produce no further stranded work —
        // it either died (its hand-off already ran) or finished its own
        // dispatch and is only claiming re-routes from here on.
        let drained: Vec<AtomicBool> = (0..n_nodes).map(|_| AtomicBool::new(false)).collect();
        let reroutes_total = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for node in 0..n_nodes {
                let g = topo.group_of(node);
                let member_idx = topo
                    .nodes_in_group(g)
                    .iter()
                    .position(|&m| m == node)
                    .expect("node belongs to its group");
                let dispatch = &dispatch;
                let bsf_board = &bsf_board;
                let answer_board = &answer_board;
                let done = &done;
                let group_done = &group_done;
                let registries = &registries;
                let steal_tx = &steal_tx;
                let steal_rx_workers = &steal_rx_workers;
                let steals_served = &steals_served;
                let per_node_units = &per_node_units;
                let per_query_units = &per_query_units;
                let per_node_queries = &per_node_queries;
                let steals_attempted = &steals_attempted;
                let steals_successful = &steals_successful;
                let shard_map = &shard_map;
                let coverage_board = &coverage_board;
                let reroute_queues = &reroute_queues;
                let drained = &drained;
                let reroutes_total = &reroutes_total;
                let topo2 = topo;
                let index = Arc::clone(&self.chunk_index[g]);
                // Node worker thread.
                let speed = self.config.node_speed(node);
                scope.spawn(move || {
                    // One persistent engine per node: thread-pool and
                    // scratch setup is paid once for the whole batch,
                    // not once per query (the node's "resident" cores).
                    let engine = BatchEngine::with_registry(
                        Arc::clone(&index),
                        self.config.threads_per_node,
                        Arc::clone(&registries[node]),
                    );
                    let mut nf = NodeFaults::new(fault_plan, node);
                    // One installed service hook covers the pool and
                    // every lane: straggler pacing, the fault clock
                    // (delay pacing + armed worker panics), plus
                    // cooperative steal serving (workers drain pending
                    // requests between queue claims — see
                    // `run_search_with_service` for why the manager
                    // thread alone is not enough on an oversubscribed
                    // host).
                    if stealing_enabled
                        || speed < 1.0
                        || fault_plan.is_some_and(|p| p.affects(node))
                    {
                        let rx = stealing_enabled.then(|| steal_rx_workers[node].clone());
                        let nsend = self.config.steal_nsend;
                        let served = Arc::clone(steals_served);
                        let panic_armed = nf.panic_flag();
                        let fault_delay = nf.delay();
                        engine.steal_registry().install_service(Arc::new(
                            move |reg: &StealRegistry| {
                                // Straggler pacing: stretch the
                                // processing phase so the protocol (and
                                // thieves) see the slow node.
                                if speed < 1.0 {
                                    let extra = (1.0 / speed - 1.0) * 20.0;
                                    std::thread::sleep(Duration::from_micros(extra as u64));
                                }
                                faults::service_tick(&panic_armed, fault_delay);
                                if let Some(rx) = &rx {
                                    while let Ok(req) = rx.try_recv() {
                                        crate::stealing::serve_request(req, reg, nsend, &served);
                                    }
                                }
                            },
                        ));
                    }
                    let account = |qid: usize, stats: &SearchStats| {
                        let u = (units::search_units(
                            stats,
                            queries.series_len(),
                            index.config().segments,
                        ) as f64
                            / speed) as u64;
                        per_node_units[node].fetch_add(u, Ordering::Relaxed);
                        per_query_units[qid].fetch_add(u, Ordering::Relaxed);
                        per_node_queries[node].fetch_add(1, Ordering::Relaxed);
                        // Liveness + coverage book-keeping: a finished
                        // execution renews the node's lease, advances
                        // the logical clock, and marks this query
                        // answered for the node's group.
                        shard_map.tick();
                        shard_map.heartbeat(node);
                        coverage_board.mark(qid, g);
                    };
                    // A dying node's hand-off (the crash notification):
                    // mark `Down` in the shard map, push the torn-down
                    // query and any stranded static assignment to the
                    // group's re-route queue, and retire from the
                    // protocol. Push-then-decrement under one lock keeps
                    // Phase B's exit condition sound: nobody observes an
                    // empty queue while work can still reappear.
                    let hand_off = |claimed: Option<(usize, usize)>, dec_inflight: bool| {
                        shard_map.mark_down(node);
                        let mut rq = reroute_queues[g].lock();
                        if let Some((qid, attempts)) = claimed {
                            if attempts < self.config.max_reroutes {
                                rq.queue.push_back((qid, attempts + 1));
                            }
                        }
                        if self.config.max_reroutes > 0 {
                            for qid in dispatch[g].drain_member(member_idx) {
                                rq.queue.push_back((qid, 1));
                            }
                        }
                        if dec_inflight {
                            rq.inflight -= 1;
                        }
                        drop(rq);
                        drained[node].store(true, Ordering::Release);
                        done[node].store(true, Ordering::Release);
                        group_done[g].fetch_add(1, Ordering::AcqRel);
                    };
                    if nf.has_fatal() {
                        // A fault-bearing node runs the sequential pool
                        // surface so its death has a well-defined point
                        // (lanes would smear one query's death across a
                        // whole concurrent round). Healthy group members
                        // keep their lanes.
                        loop {
                            if nf.kill_due() {
                                hand_off(None, false);
                                return;
                            }
                            let Some(qid) = dispatch[g].next(member_idx) else {
                                break;
                            };
                            let fatal_now = nf.panic_due();
                            let run = std::panic::catch_unwind(
                                std::panic::AssertUnwindSafe(|| {
                                    self.execute_query(
                                        &mut Runner::Pool(&engine),
                                        None,
                                        group_costs[g].get(qid).copied(),
                                        queries.series(qid),
                                        qid,
                                        mode,
                                        g,
                                        bsf_board,
                                        answer_board,
                                    )
                                }),
                            );
                            match run {
                                Ok(stats) => {
                                    account(qid, &stats);
                                    nf.record_execution();
                                    if fatal_now {
                                        // The armed panic crossed no
                                        // service tick; the node still
                                        // dies at this query — after
                                        // completing it, so nothing
                                        // needs re-routing.
                                        hand_off(None, false);
                                        return;
                                    }
                                }
                                Err(_) => {
                                    // The worker panic poisoned the
                                    // lane barrier, unwound through the
                                    // engine (pool reset, grant
                                    // deregistered), and lands here:
                                    // the torn-down query re-routes to
                                    // a surviving replica.
                                    hand_off(Some((qid, 0)), false);
                                    return;
                                }
                            }
                        }
                    } else if use_lanes {
                        // Continuous dispatch: partition the pool once,
                        // then every lane claims queries back-to-back.
                        // Every lane query registers with the steal
                        // registry, so thieves are served mid-claim.
                        //
                        // Once the member's queue runs dry, its *narrow*
                        // lanes moonlight as thieves: stolen RS-batch
                        // subsets execute at lane width while the wide
                        // lanes finish the node's own (predicted-hard)
                        // tail — the node never dedicates the full pool
                        // to stolen work before its own work is done.
                        let members = topo2.nodes_in_group(g);
                        let victim_rr = AtomicUsize::new(node);
                        let lane_steal = |ctx: &mut LaneCtx| -> bool {
                            let candidates: Vec<usize> = members
                                .iter()
                                .copied()
                                .filter(|&m| m != node && !done[m].load(Ordering::Acquire))
                                .collect();
                            if candidates.is_empty() {
                                return false;
                            }
                            let victim = candidates
                                [victim_rr.fetch_add(1, Ordering::Relaxed) % candidates.len()];
                            steals_attempted.fetch_add(1, Ordering::Relaxed);
                            let (rtx, rrx) = bounded(1);
                            if steal_tx[victim]
                                .send(StealRequest {
                                    from: node,
                                    reply: rtx,
                                })
                                .is_err()
                            {
                                return false;
                            }
                            // The victim's manager (or one of its
                            // cooperative workers) always replies while
                            // this node is unfinished — group_done
                            // cannot reach the group size before this
                            // node exits — so the request is never
                            // abandoned: block until the reply lands.
                            let resp = loop {
                                match rrx.recv_timeout(Duration::from_millis(1)) {
                                    Ok(resp) => break resp,
                                    Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                                        continue
                                    }
                                    Err(_) => return false,
                                }
                            };
                            if resp.batch_ids.is_empty() {
                                // Nothing stealable right now: brief
                                // back-off before bothering someone else.
                                std::thread::sleep(Duration::from_micros(100));
                                return true;
                            }
                            steals_successful.fetch_add(1, Ordering::Relaxed);
                            let qid = resp.query_id.expect("non-empty steal has query");
                            let stats = self.execute_query(
                                &mut Runner::Lane(ctx),
                                Some((&resp.batch_ids, resp.bsf_sq)),
                                None,
                                queries.series(qid),
                                qid,
                                mode,
                                g,
                                bsf_board,
                                answer_board,
                            );
                            let u = (units::search_units(
                                &stats,
                                queries.series_len(),
                                index.config().segments,
                            ) as f64
                                / speed) as u64;
                            per_node_units[node].fetch_add(u, Ordering::Relaxed);
                            per_query_units[qid].fetch_add(u, Ordering::Relaxed);
                            true
                        };
                        self.run_lane_dispatch(
                            &dispatch[g],
                            member_idx,
                            &group_costs[g],
                            &engine,
                            &|ctx, qid| {
                                let stats = self.execute_query(
                                    &mut Runner::Lane(ctx),
                                    None,
                                    group_costs[g].get(qid).copied(),
                                    queries.series(qid),
                                    qid,
                                    mode,
                                    g,
                                    bsf_board,
                                    answer_board,
                                );
                                account(qid, &stats);
                            },
                            stealing_enabled.then_some(
                                &lane_steal as &(dyn Fn(&mut LaneCtx) -> bool + Sync),
                            ),
                        );
                    } else {
                        while let Some(qid) = dispatch[g].next(member_idx) {
                            let stats = self.execute_query(
                                &mut Runner::Pool(&engine),
                                None,
                                group_costs[g].get(qid).copied(),
                                queries.series(qid),
                                qid,
                                mode,
                                g,
                                bsf_board,
                                answer_board,
                            );
                            account(qid, &stats);
                        }
                    }
                    // Phase B (fault plans only): before thieving, a
                    // survivor waits on its group's re-route queue so a
                    // dead member's stranded queries get a full
                    // re-execution on a replica holding the same chunk.
                    // Fault-free batches skip this entirely — their
                    // behavior is byte-for-byte the pre-failover one.
                    if fault_plan.is_some() {
                        drained[node].store(true, Ordering::Release);
                        let members = topo2.nodes_in_group(g);
                        let wait_deadline =
                            std::time::Instant::now() + self.config.query_deadline;
                        enum Step {
                            Claim(usize, usize),
                            Idle,
                            Exit,
                        }
                        loop {
                            if nf.kill_due() {
                                // A kill point past the node's own
                                // workload fires once it goes idle.
                                hand_off(None, false);
                                return;
                            }
                            let step = {
                                let mut rq = reroute_queues[g].lock();
                                match rq.queue.pop_front() {
                                    Some((qid, attempts)) => {
                                        rq.inflight += 1;
                                        Step::Claim(qid, attempts)
                                    }
                                    None if rq.inflight == 0
                                        && members.iter().all(|&m| {
                                            m == node || drained[m].load(Ordering::Acquire)
                                        }) =>
                                    {
                                        Step::Exit
                                    }
                                    None => Step::Idle,
                                }
                            };
                            match step {
                                Step::Exit => break,
                                Step::Idle => {
                                    // Waiting on members still in
                                    // Phase A: keep the lease machinery
                                    // moving and never out-wait the
                                    // per-query deadline.
                                    shard_map.heartbeat(node);
                                    shard_map.expire_leases();
                                    if std::time::Instant::now() > wait_deadline {
                                        break;
                                    }
                                    std::thread::sleep(Duration::from_micros(50));
                                }
                                Step::Claim(qid, attempts) => {
                                    reroutes_total.fetch_add(1, Ordering::Relaxed);
                                    let fatal_now = nf.panic_due();
                                    let run = std::panic::catch_unwind(
                                        std::panic::AssertUnwindSafe(|| {
                                            self.execute_query(
                                                &mut Runner::Pool(&engine),
                                                None,
                                                group_costs[g].get(qid).copied(),
                                                queries.series(qid),
                                                qid,
                                                mode,
                                                g,
                                                bsf_board,
                                                answer_board,
                                            )
                                        }),
                                    );
                                    match run {
                                        Ok(stats) => {
                                            account(qid, &stats);
                                            nf.record_execution();
                                            reroute_queues[g].lock().inflight -= 1;
                                            if fatal_now {
                                                hand_off(None, false);
                                                return;
                                            }
                                        }
                                        Err(_) => {
                                            // Died mid-re-route: put the
                                            // query back (bounded by
                                            // `max_reroutes`) and retire.
                                            hand_off(Some((qid, attempts)), true);
                                            return;
                                        }
                                    }
                                }
                            }
                        }
                    }
                    done[node].store(true, Ordering::Release);
                    group_done[g].fetch_add(1, Ordering::AcqRel);
                    // PerformWorkStealing (Algorithm 4). An outstanding
                    // request is never abandoned while its response could
                    // still arrive: a served (non-empty) response has
                    // already marked its batches stolen on the victim, so
                    // dropping it would lose that work forever.
                    if stealing_enabled {
                        let members = topo2.nodes_in_group(g);
                        let mut rng =
                            StdRng::seed_from_u64(self.config.seed ^ (node as u64) << 32);
                        let mut pending: Option<crossbeam::channel::Receiver<_>> = None;
                        let handle = |resp: crate::stealing::StealResponse| {
                            if resp.batch_ids.is_empty() {
                                return false;
                            }
                            steals_successful.fetch_add(1, Ordering::Relaxed);
                            let qid = resp.query_id.expect("non-empty steal has query");
                            let stats = self.execute_query(
                                &mut Runner::Pool(&engine),
                                Some((&resp.batch_ids, resp.bsf_sq)),
                                None,
                                queries.series(qid),
                                qid,
                                mode,
                                g,
                                bsf_board,
                                answer_board,
                            );
                            let u = (units::search_units(
                                &stats,
                                queries.series_len(),
                                index.config().segments,
                            ) as f64
                                / speed) as u64;
                            per_node_units[node].fetch_add(u, Ordering::Relaxed);
                            per_query_units[qid].fetch_add(u, Ordering::Relaxed);
                            true
                        };
                        loop {
                            let all_done =
                                group_done[g].load(Ordering::Acquire) >= members.len();
                            if let Some(rrx) = &pending {
                                match rrx.recv_timeout(Duration::from_millis(1)) {
                                    Ok(resp) => {
                                        pending = None;
                                        if !handle(resp) {
                                            // Empty reply: brief back-off
                                            // before bothering someone else.
                                            std::thread::sleep(Duration::from_micros(100));
                                        }
                                    }
                                    Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                                        if all_done {
                                            // All serving has completed
                                            // before group_done reached the
                                            // total; one final poll settles
                                            // the request's fate.
                                            if let Ok(resp) = rrx.try_recv() {
                                                handle(resp);
                                            }
                                            pending = None;
                                        }
                                    }
                                    Err(_) => pending = None,
                                }
                                continue;
                            }
                            if all_done {
                                break;
                            }
                            let candidates: Vec<usize> = members
                                .iter()
                                .copied()
                                .filter(|&m| m != node && !done[m].load(Ordering::Acquire))
                                .collect();
                            if candidates.is_empty() {
                                break;
                            }
                            let victim = candidates[rng.gen_range(0..candidates.len())];
                            steals_attempted.fetch_add(1, Ordering::Relaxed);
                            let (rtx, rrx) = bounded(1);
                            if steal_tx[victim]
                                .send(StealRequest {
                                    from: node,
                                    reply: rtx,
                                })
                                .is_err()
                            {
                                break;
                            }
                            pending = Some(rrx);
                        }
                    }
                });
                // Work-stealing manager thread (Algorithm 3): inspects
                // the node's steal registry, not a per-query slot.
                if stealing_enabled {
                    let rx = steal_rx[node].take().expect("receiver unused");
                    let registry = Arc::clone(&registries[node]);
                    let group_done = &group_done[g];
                    let nsend = self.config.steal_nsend;
                    let served = Arc::clone(steals_served);
                    scope.spawn(move || {
                        manager_loop(&rx, &registry, group_done, group_size, nsend, &served);
                    });
                }
            }
        });

        // --- Stage 5: merge ----------------------------------------------
        BatchReport {
            answers: answer_board.into_answers(),
            wall: t0.elapsed(),
            per_node_units: per_node_units
                .iter()
                .map(|u| u.load(Ordering::Relaxed))
                .collect(),
            per_query_units: per_query_units
                .iter()
                .map(|u| u.load(Ordering::Relaxed))
                .collect(),
            per_node_queries: per_node_queries
                .iter()
                .map(|u| u.load(Ordering::Relaxed))
                .collect(),
            per_query_initial_bsf: initial_bsf_board
                .iter()
                .map(|b| f64::from_bits(b.load(Ordering::Relaxed)))
                .collect(),
            steals_attempted: steals_attempted.into_inner(),
            steals_successful: steals_successful.into_inner(),
            bsf_broadcasts: bsf_board.broadcasts(),
            coverage: coverage_board.into_coverages(),
            reroutes: reroutes_total.into_inner(),
            dead_nodes: (0..n_nodes).filter(|&n| shard_map.is_down(n)).collect(),
            final_epoch: shard_map.epoch(),
        }
    }

    /// Executes one 1-NN query (or one stolen batch subset of it) on
    /// either execution surface — a node's resident pool or one of its
    /// lanes — merging the local answer into the boards. The query is
    /// registered with the node engine's steal registry for its whole
    /// run, so the work-stealing manager (and the workers' cooperative
    /// service hook) can hand out its RS-batches from either surface —
    /// lanes serve thieves mid-round just like the pool does.
    #[allow(clippy::too_many_arguments)]
    fn execute_query(
        &self,
        runner: &mut Runner<'_, '_, '_>,
        stolen: Option<(&[usize], f64)>,
        estimate: Option<f64>,
        query: &[f32],
        qid: usize,
        mode: BatchMode,
        group: usize,
        bsf_board: &BsfBoard,
        answer_board: &AnswerBoard,
    ) -> SearchStats {
        let index = Arc::clone(runner.index());
        let stolen_bsf = stolen.map(|(_, bsf_sq)| bsf_sq);
        let params = SearchParams::new(self.config.threads_per_node)
            .with_th(self.config.pq_threshold)
            .with_nsb(self.config.rs_batches);
        let board_opt = self.config.bsf_sharing.then_some((bsf_board, qid));
        let mut run = |kernel: &dyn QueryKernel, init_sq: f64, init_id: Option<u32>| {
            // Per-query TH (Figure 6): the sigmoid model predicts the
            // queue threshold from this query's initial BSF. The online
            // wrapper starts at the trained parameters and refits from
            // this cluster's own `(BSF, median queue size)` samples.
            let mut params = params;
            if let Some(th) = &self.th_feedback {
                params.th = th.predict_th(init_sq.sqrt());
            }
            let bsf = BoardBsf::new(init_sq, init_id, board_opt);
            let grant = runner.admit(
                qid,
                Arc::clone(&bsf.local) as Arc<dyn ResultSet + Send + Sync>,
                estimate,
            );
            let stats = runner.run_query(
                kernel,
                &params,
                &bsf,
                stolen.map(|(ids, _)| ids),
                &grant,
            );
            drop(grant);
            answer_board.merge(qid, self.globalize(group, bsf.local_answer()));
            // Close the prediction loop (full executions only: a stolen
            // subset's time says nothing about a whole query's cost).
            if stolen.is_none() {
                self.feedback
                    .record(init_sq.sqrt(), stats.elapsed.as_secs_f64());
                if let Some(th) = &self.th_feedback {
                    th.record(init_sq.sqrt(), stats.pq_size_median as f64);
                }
            }
            stats
        };
        match mode {
            BatchMode::Euclidean => {
                let kernel = EdKernel::new(query, index.config().segments);
                let (init_sq, init_id) = match stolen_bsf {
                    Some(bsf_sq) => (bsf_sq, None),
                    None => {
                        let a = index.approx_search_paa(query, kernel.qpaa());
                        (a.distance_sq, a.series_id)
                    }
                };
                run(&kernel, init_sq, init_id)
            }
            BatchMode::Dtw { window } => {
                let kernel = DtwKernel::new(query, window, index.config().segments);
                let (init_sq, init_id) = match stolen_bsf {
                    Some(bsf_sq) => (bsf_sq, None),
                    None => approx_dtw(&index, &kernel),
                };
                run(&kernel, init_sq, init_id)
            }
            BatchMode::Knn { .. } => unreachable!("guarded by answer_batch_mode"),
        }
    }

    /// Drains one group member's dispatch queue with **continuous**
    /// lane claiming: the pool is partitioned once (from the member's
    /// cost-estimate profile) into wide and narrow lanes, and each lane
    /// then claims queries one at a time until the queue is empty — no
    /// barrier between claims, so a lane that finishes an easy query
    /// immediately pulls the next one while a sibling lane is still
    /// mid-search on a hard one. Wide lanes claim from the front of the
    /// dispatch order (hardest-first under PREDICT-DN), narrow lanes
    /// from the back, so the tiers meet in the middle. Shared by the
    /// 1-NN and k-NN batch paths.
    fn run_lane_dispatch(
        &self,
        dispatch: &GroupDispatch,
        member_idx: usize,
        costs: &[f64],
        engine: &BatchEngine,
        per_query: &(dyn Fn(&mut LaneCtx, usize) + Sync),
        lane_steal: Option<&(dyn Fn(&mut LaneCtx) -> bool + Sync)>,
    ) {
        // Makespan-optimal widths (the adaptive default): the first
        // node to get here calibrates the engine's speedup-vs-width
        // curve (short seeded probes; answers are never affected) and
        // every node then solves for the width mix minimizing the
        // predicted makespan of its cost profile. The static
        // median-ratio cutoff remains as the opt-out and the fallback
        // for prediction-free batches.
        let dw = if self.config.adaptive_widths {
            let curve = self
                .curve
                .get_or_init(|| SpeedupCurve::from_times(engine.calibrate()));
            plan_dispatch_widths_adaptive(
                costs,
                engine.n_threads(),
                &AdmissionConfig::default(),
                curve,
            )
        } else {
            plan_dispatch_widths(costs, engine.n_threads(), &AdmissionConfig::default())
        };
        // Own queries currently executing on this node's lanes. Narrow
        // lanes may moonlight as thieves only while this is non-zero:
        // the node then keeps draining its own dispatch on the wide
        // lanes while stolen RS-batch subsets fill the narrow ones —
        // and lane stealing always terminates, because the node's own
        // work finishes regardless of what its thieving lanes do.
        let own_inflight = AtomicUsize::new(0);
        engine.run_dispatch(&dw.widths, &|ctx, lane| loop {
            let claim = if lane < dw.wide_lanes {
                dispatch.next(member_idx)
            } else {
                dispatch.next_back(member_idx)
            };
            match claim {
                Some(qid) => {
                    own_inflight.fetch_add(1, Ordering::AcqRel);
                    per_query(ctx, qid);
                    own_inflight.fetch_sub(1, Ordering::AcqRel);
                }
                None => {
                    let stole = lane >= dw.wide_lanes
                        && own_inflight.load(Ordering::Acquire) > 0
                        && lane_steal.is_some_and(|s| s(ctx));
                    if !stole {
                        break;
                    }
                }
            }
        });
    }

    /// Answers a k-NN batch (Section 4). Uses the same replication,
    /// scheduling and k-th-bound sharing machinery; inter-node
    /// work-stealing is not applied to k-NN batches (local result sets
    /// are merged at the coordinator instead).
    pub fn answer_batch_knn(&self, queries: &DatasetBuffer, k: usize) -> KnnBatchReport {
        let t0 = std::time::Instant::now();
        let nq = queries.num_series();
        let topo = &self.topology;
        let n_nodes = topo.n_nodes();
        let n_groups = topo.n_groups();
        let group_size = topo.replication_degree();

        let mut dispatch: Vec<GroupDispatch> = Vec::with_capacity(n_groups);
        let mut group_costs: Vec<Vec<f64>> = Vec::with_capacity(n_groups);
        for g in 0..n_groups {
            let estimates = if self.config.scheduler.needs_predictions() {
                let index = &self.chunk_index[g];
                (0..nq)
                    .map(|q| {
                        let est_bsf = index.approx_search(queries.series(q)).distance;
                        match &self.config.cost_model {
                            Some(m) => m.estimate(est_bsf),
                            None => self.feedback.estimate(est_bsf),
                        }
                    })
                    .collect::<Vec<f64>>()
            } else {
                vec![1.0; nq]
            };
            dispatch.push(GroupDispatch::build(
                self.config.scheduler,
                &estimates,
                group_size,
            ));
            group_costs.push(if self.config.scheduler.needs_predictions() {
                estimates
            } else {
                Vec::new()
            });
        }

        // The k-NN path has no inter-node stealing, so lanes only need
        // predictions to engage.
        let use_lanes =
            self.config.inter_query_lanes && self.config.scheduler.needs_predictions();
        let group_costs = &group_costs;
        let knn_board = KnnBoard::new(nq, k);
        let per_node_units: Vec<AtomicU64> = (0..n_nodes).map(|_| AtomicU64::new(0)).collect();
        // k-NN fault model: any fatal fault is a clean kill at its
        // trigger point (the worker-panic *path* is exercised by the
        // 1-NN batches; delays need the 1-NN service hook). Coverage
        // and re-routing follow the same group-level contract.
        let fault_plan = self.config.fault_plan.as_deref();
        let coverage_board = CoverageBoard::new(nq, n_groups);
        let reroute_queues: Vec<Mutex<RerouteQueue>> = (0..n_groups)
            .map(|_| Mutex::new(RerouteQueue::default()))
            .collect();
        let drained: Vec<AtomicBool> = (0..n_nodes).map(|_| AtomicBool::new(false)).collect();
        std::thread::scope(|scope| {
            for node in 0..n_nodes {
                let g = topo.group_of(node);
                let member_idx = topo
                    .nodes_in_group(g)
                    .iter()
                    .position(|&m| m == node)
                    .expect("node in group");
                let dispatch = &dispatch;
                let knn_board = &knn_board;
                let per_node_units = &per_node_units;
                let coverage_board = &coverage_board;
                let reroute_queues = &reroute_queues;
                let drained = &drained;
                let topo2 = topo;
                let index = Arc::clone(&self.chunk_index[g]);
                scope.spawn(move || {
                    let engine = BatchEngine::new(
                        Arc::clone(&index),
                        self.config.threads_per_node,
                    );
                    let params = SearchParams::new(self.config.threads_per_node)
                        .with_th(self.config.pq_threshold)
                        .with_nsb(self.config.rs_batches);
                    let fatal_at = fault_plan.and_then(|p| p.fatal_after(node));
                    let mut executed = 0usize;
                    let account = |qid: usize, stats: &SearchStats| {
                        per_node_units[node].fetch_add(
                            units::search_units(
                                stats,
                                queries.series_len(),
                                index.config().segments,
                            ),
                            Ordering::Relaxed,
                        );
                        coverage_board.mark(qid, g);
                    };
                    if use_lanes && fatal_at.is_none() {
                        // k-NN batches have no inter-node stealing, so
                        // lanes never moonlight as thieves here.
                        self.run_lane_dispatch(
                            &dispatch[g],
                            member_idx,
                            &group_costs[g],
                            &engine,
                            &|ctx, qid| {
                                let stats = self.execute_knn_query(
                                    &mut Runner::Lane(ctx),
                                    &index,
                                    queries.series(qid),
                                    qid,
                                    k,
                                    g,
                                    params,
                                    knn_board,
                                );
                                account(qid, &stats);
                            },
                            None,
                        );
                    } else {
                        loop {
                            if fatal_at == Some(executed) {
                                // Dies before its next claim: strand the
                                // static remainder for the survivors.
                                if self.config.max_reroutes > 0 {
                                    let mut rq = reroute_queues[g].lock();
                                    for qid in dispatch[g].drain_member(member_idx) {
                                        rq.queue.push_back((qid, 1));
                                    }
                                }
                                drained[node].store(true, Ordering::Release);
                                return;
                            }
                            let Some(qid) = dispatch[g].next(member_idx) else {
                                break;
                            };
                            let stats = self.execute_knn_query(
                                &mut Runner::Pool(&engine),
                                &index,
                                queries.series(qid),
                                qid,
                                k,
                                g,
                                params,
                                knn_board,
                            );
                            account(qid, &stats);
                            executed += 1;
                        }
                    }
                    // Re-route phase (fault plans only): survivors pick
                    // up a dead member's stranded queries. Kills only
                    // fire between queries here, so a claimed re-route
                    // always completes and `inflight` never strands.
                    if fault_plan.is_some() {
                        drained[node].store(true, Ordering::Release);
                        let members = topo2.nodes_in_group(g);
                        let wait_deadline =
                            std::time::Instant::now() + self.config.query_deadline;
                        loop {
                            if fatal_at == Some(executed) {
                                return; // dies idle; already drained
                            }
                            let claim = {
                                let mut rq = reroute_queues[g].lock();
                                match rq.queue.pop_front() {
                                    Some((qid, _)) => {
                                        rq.inflight += 1;
                                        Some(qid)
                                    }
                                    None if rq.inflight == 0
                                        && members.iter().all(|&m| {
                                            m == node
                                                || drained[m].load(Ordering::Acquire)
                                        }) =>
                                    {
                                        break;
                                    }
                                    None => None,
                                }
                            };
                            match claim {
                                Some(qid) => {
                                    let stats = self.execute_knn_query(
                                        &mut Runner::Pool(&engine),
                                        &index,
                                        queries.series(qid),
                                        qid,
                                        k,
                                        g,
                                        params,
                                        knn_board,
                                    );
                                    account(qid, &stats);
                                    executed += 1;
                                    reroute_queues[g].lock().inflight -= 1;
                                }
                                None => {
                                    if std::time::Instant::now() > wait_deadline {
                                        break;
                                    }
                                    std::thread::sleep(Duration::from_micros(50));
                                }
                            }
                        }
                    }
                });
            }
        });
        KnnBatchReport {
            answers: knn_board.into_answers(),
            wall: t0.elapsed(),
            per_node_units: per_node_units
                .iter()
                .map(|u| u.load(Ordering::Relaxed))
                .collect(),
            coverage: coverage_board.into_coverages(),
        }
    }
}

impl OdysseyCluster {
    /// One k-NN query on either execution surface (the node's full pool
    /// or one of its lanes): seed from the approximate leaf, run the
    /// engine with the k-th-bound board, translate ids, merge.
    #[allow(clippy::too_many_arguments)]
    fn execute_knn_query(
        &self,
        runner: &mut Runner<'_, '_, '_>,
        index: &Index,
        q: &[f32],
        qid: usize,
        k: usize,
        group: usize,
        params: SearchParams,
        knn_board: &KnnBoard,
    ) -> SearchStats {
        let board_opt = self.config.bsf_sharing.then_some((knn_board, qid));
        let set = BoardKnn::new(k, board_opt);
        seed_from_approx_leaf(index, q, &set.local);
        let kernel = EdKernel::new(q, index.config().segments);
        let mut params = params;
        // The k-NN analogue of the initial BSF: the k-th distance
        // after seeding (infinite when the seed leaf held < k).
        let seed_bound = set.local.threshold_sq();
        if let Some(th) = &self.th_feedback {
            if seed_bound.is_finite() {
                params.th = th.predict_th(seed_bound.sqrt());
            }
        }
        let grant = runner.admit(
            qid,
            Arc::clone(&set.local) as Arc<dyn ResultSet + Send + Sync>,
            None,
        );
        let stats = runner.run_query(&kernel, &params, &set, None, &grant);
        drop(grant);
        if seed_bound.is_finite() {
            if let Some(th) = &self.th_feedback {
                th.record(seed_bound.sqrt(), stats.pq_size_median as f64);
            }
        }
        let mut local = set.local.snapshot();
        // Translate chunk-local ids to global ids.
        for n in local.neighbors.iter_mut() {
            n.1 = self.id_maps[group][n.1 as usize];
        }
        knn_board.merge(qid, local);
        stats
    }
}

/// Where a query executes: a node's resident pool, or one lane of it
/// during a concurrent window. The steal machinery lives in the
/// engine's [`StealRegistry`] (registration grants + the installed
/// cooperative service hook), so both surfaces carry the identical —
/// and steal-capable — execution interface; the old per-surface
/// `active`/`service_rx` plumbing is gone.
enum Runner<'a, 'e, 's> {
    Pool(&'a BatchEngine),
    Lane(&'a mut LaneCtx<'e, 's>),
}

impl Runner<'_, '_, '_> {
    /// The engine index this surface searches.
    fn index(&self) -> &Arc<Index> {
        match self {
            Runner::Pool(engine) => engine.index(),
            Runner::Lane(ctx) => ctx.index(),
        }
    }

    /// Registers a query with the node's steal service at this
    /// surface's width (full pool or lane), carrying the scheduler's
    /// cost estimate so the steal manager can weight victims by
    /// predicted remaining work.
    fn admit(
        &self,
        qid: usize,
        results: Arc<dyn ResultSet + Send + Sync>,
        estimate: Option<f64>,
    ) -> InflightQuery {
        match self {
            Runner::Pool(engine) => engine.admit_estimated(qid, results, estimate),
            Runner::Lane(ctx) => ctx.admit_estimated(qid, results, estimate),
        }
    }

    /// Runs one admitted query on this surface.
    fn run_query<R: ResultSet + ?Sized>(
        &mut self,
        kernel: &dyn QueryKernel,
        params: &SearchParams,
        results: &R,
        batch_subset: Option<&[usize]>,
        query: &InflightQuery,
    ) -> SearchStats {
        match self {
            Runner::Pool(engine) => {
                engine.run_query(kernel, params, results, batch_subset, query, &|_, _| {})
            }
            Runner::Lane(ctx) => {
                ctx.run_query(kernel, params, results, batch_subset, query, &|_, _| {})
            }
        }
    }
}

/// Work stranded by dead group members, awaiting a surviving replica.
#[derive(Default)]
struct RerouteQueue {
    /// `(query id, hand-off count)` — a query is dropped once its count
    /// would exceed `ClusterConfig::max_reroutes` (it then surfaces as
    /// missing coverage rather than an unbounded retry loop).
    queue: VecDeque<(usize, usize)>,
    /// Claimed but unfinished re-routes. A claimer that dies re-pushes
    /// the query *before* decrementing this (under the same lock), so
    /// observers never see an empty queue while work can reappear.
    inflight: usize,
}

/// The per-group dispatch structure (stage 3's output).
enum GroupDispatch {
    /// Per-member fixed queues (STATIC / PREDICT-ST*).
    Static(Vec<Mutex<VecDeque<usize>>>),
    /// One shared coordinator queue (DYNAMIC / PREDICT-DN); group members
    /// "request" the next query, modelling the coordinator serving
    /// requests in arrival order.
    Dynamic(Mutex<VecDeque<usize>>),
}

impl GroupDispatch {
    fn build(kind: SchedulerKind, estimates: &[f64], group_size: usize) -> Self {
        Self::build_waved(kind, estimates, group_size, None)
    }

    /// Like [`GroupDispatch::build`], but when `wave_size` is set,
    /// dynamic orderings may only sort *within* consecutive waves of that
    /// size — modelling queries that arrive over time.
    fn build_waved(
        kind: SchedulerKind,
        estimates: &[f64],
        group_size: usize,
        wave_size: Option<usize>,
    ) -> Self {
        if let (Some(w), SchedulerKind::PredictDn) = (wave_size, kind) {
            let mut order = Vec::with_capacity(estimates.len());
            for wave_start in (0..estimates.len()).step_by(w) {
                let wave_end = (wave_start + w).min(estimates.len());
                let sub = dynamic_order(&estimates[wave_start..wave_end], true);
                order.extend(sub.into_iter().map(|i| i + wave_start));
            }
            return GroupDispatch::Dynamic(Mutex::new(order.into_iter().collect()));
        }
        let nq = estimates.len();
        match kind {
            SchedulerKind::Static => {
                let s = static_split(nq, group_size);
                GroupDispatch::Static(
                    s.per_node
                        .into_iter()
                        .map(|qs| Mutex::new(qs.into_iter().collect()))
                        .collect(),
                )
            }
            SchedulerKind::PredictStUnsorted | SchedulerKind::PredictSt => {
                let s = greedy_by_estimate(
                    estimates,
                    group_size,
                    kind == SchedulerKind::PredictSt,
                );
                GroupDispatch::Static(
                    s.per_node
                        .into_iter()
                        .map(|qs| Mutex::new(qs.into_iter().collect()))
                        .collect(),
                )
            }
            SchedulerKind::Dynamic => {
                GroupDispatch::Dynamic(Mutex::new((0..nq).collect()))
            }
            SchedulerKind::PredictDn => GroupDispatch::Dynamic(Mutex::new(
                dynamic_order(estimates, true).into_iter().collect(),
            )),
        }
    }

    /// The next query for group member `member_idx`, or `None` when the
    /// member's work is exhausted.
    fn next(&self, member_idx: usize) -> Option<usize> {
        match self {
            GroupDispatch::Static(queues) => queues[member_idx].lock().pop_front(),
            GroupDispatch::Dynamic(q) => q.lock().pop_front(),
        }
    }

    /// Like [`GroupDispatch::next`], but claims from the *back* of the
    /// member's queue — the easy end of a descending-cost order. Narrow
    /// dispatch lanes use this so the tiers meet in the middle.
    fn next_back(&self, member_idx: usize) -> Option<usize> {
        match self {
            GroupDispatch::Static(queues) => queues[member_idx].lock().pop_back(),
            GroupDispatch::Dynamic(q) => q.lock().pop_back(),
        }
    }

    /// Removes and returns member `member_idx`'s remaining fixed
    /// assignment (a dying node stranding its static queue). The
    /// dynamic queue is shared — surviving members keep pulling from it
    /// — so nothing is stranded there.
    fn drain_member(&self, member_idx: usize) -> Vec<usize> {
        match self {
            GroupDispatch::Static(queues) => {
                queues[member_idx].lock().drain(..).collect()
            }
            GroupDispatch::Dynamic(_) => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Replication;
    use crate::faults::FaultPlan;
    use odyssey_workloads::generator::random_walk;
    use odyssey_workloads::queries::{QueryWorkload, WorkloadKind};

    fn brute_force(data: &DatasetBuffer, q: &[f32]) -> Answer {
        let mut best = Answer::none();
        for i in 0..data.num_series() {
            let d = odyssey_core::distance::euclidean_sq(q, data.series(i));
            if d < best.distance_sq {
                best = Answer::from_sq(d, Some(i as u32));
            }
        }
        best
    }

    fn check_batch(cfg: ClusterConfig, n_series: usize, n_queries: usize) {
        let data = random_walk(n_series, 64, 11);
        let w = QueryWorkload::generate(
            &data,
            n_queries,
            WorkloadKind::Mixed {
                hard_fraction: 0.5,
                noise: 0.05,
            },
            23,
        );
        let tpn = cfg.threads_per_node;
        let cluster = OdysseyCluster::build(&data, cfg);
        let report = cluster.answer_batch(&w.queries);
        assert_eq!(report.answers.len(), n_queries);
        for qi in 0..n_queries {
            let want = brute_force(&data, w.query(qi));
            let got = report.answers[qi];
            assert!(
                (got.distance - want.distance).abs() < 1e-9,
                "query {qi}: got {} want {}",
                got.distance,
                want.distance
            );
        }
        assert!(report.makespan_units() > 0);
        assert!(report.makespan_seconds(tpn) > 0.0);
    }

    #[test]
    fn full_replication_exact_answers() {
        check_batch(
            ClusterConfig::new(4).with_replication(Replication::Full),
            1200,
            12,
        );
    }

    #[test]
    fn equally_split_exact_answers() {
        check_batch(
            ClusterConfig::new(4).with_replication(Replication::EquallySplit),
            1200,
            12,
        );
    }

    #[test]
    fn partial_2_exact_answers() {
        check_batch(
            ClusterConfig::new(4).with_replication(Replication::Partial(2)),
            1200,
            12,
        );
    }

    #[test]
    fn all_schedulers_exact_answers() {
        for kind in SchedulerKind::all() {
            check_batch(
                ClusterConfig::new(4)
                    .with_replication(Replication::Full)
                    .with_scheduler(kind),
                800,
                8,
            );
        }
    }

    #[test]
    fn stealing_and_sharing_toggles_preserve_exactness() {
        for (ws, bsf) in [(false, false), (true, false), (false, true), (true, true)] {
            check_batch(
                ClusterConfig::new(4)
                    .with_replication(Replication::Partial(2))
                    .with_work_stealing(ws)
                    .with_bsf_sharing(bsf),
                900,
                10,
            );
        }
    }

    #[test]
    fn knn_batch_matches_brute_force() {
        let data = random_walk(800, 64, 31);
        let w = QueryWorkload::generate(&data, 5, WorkloadKind::Hard, 7);
        let cluster = OdysseyCluster::build(
            &data,
            ClusterConfig::new(4).with_replication(Replication::Partial(2)),
        );
        let k = 5;
        let report = cluster.answer_batch_knn(&w.queries, k);
        for qi in 0..w.len() {
            let q = w.query(qi);
            let mut all: Vec<(f64, u32)> = (0..data.num_series())
                .map(|i| {
                    (
                        odyssey_core::distance::euclidean_sq(q, data.series(i)),
                        i as u32,
                    )
                })
                .collect();
            all.sort_by(|a, b| a.0.total_cmp(&b.0));
            for (j, got) in report.answers[qi].neighbors.iter().enumerate() {
                assert!(
                    (got.0 - all[j].0).abs() < 1e-9,
                    "query {qi} neighbor {j}: {} vs {}",
                    got.0,
                    all[j].0
                );
            }
        }
    }

    #[test]
    fn dtw_batch_matches_brute_force() {
        let data = random_walk(400, 64, 41);
        let w = QueryWorkload::generate(&data, 4, WorkloadKind::Hard, 9);
        let window = 3;
        let cluster = OdysseyCluster::build(
            &data,
            ClusterConfig::new(2).with_replication(Replication::EquallySplit),
        );
        let report = cluster.answer_batch_dtw(&w.queries, window);
        for qi in 0..w.len() {
            let q = w.query(qi);
            let mut best = f64::INFINITY;
            for i in 0..data.num_series() {
                if let Some(d) = odyssey_core::distance::dtw_banded(
                    q,
                    data.series(i),
                    window,
                    best,
                ) {
                    best = best.min(d);
                }
            }
            assert!(
                (report.answers[qi].distance_sq - best).abs() < 1e-9,
                "query {qi}: {} vs {best}",
                report.answers[qi].distance_sq
            );
        }
    }

    #[test]
    fn build_report_is_consistent() {
        let data = random_walk(600, 64, 5);
        let cluster = OdysseyCluster::build(
            &data,
            ClusterConfig::new(4).with_replication(Replication::Partial(2)),
        );
        let r = cluster.build_report();
        assert_eq!(r.per_chunk_times.len(), 2);
        assert_eq!(r.per_node_index_bytes.len(), 4);
        assert!(r.total_index_bytes() > 0);
        assert!(r.max_index_units() >= r.max_buffer_units());
        // FULL stores more total index bytes than EQUALLY-SPLIT.
        let full = OdysseyCluster::build(
            &data,
            ClusterConfig::new(4).with_replication(Replication::Full),
        );
        let split = OdysseyCluster::build(
            &data,
            ClusterConfig::new(4).with_replication(Replication::EquallySplit),
        );
        assert!(
            full.build_report().total_index_bytes()
                > split.build_report().total_index_bytes()
        );
    }

    #[test]
    fn reconfigured_shares_indexes_and_stays_exact() {
        let data = random_walk(800, 64, 47);
        let w = QueryWorkload::generate(&data, 6, WorkloadKind::Hard, 2);
        let base = OdysseyCluster::build(
            &data,
            ClusterConfig::new(4).with_replication(Replication::Partial(2)),
        );
        let variant = base.reconfigured(|c| {
            c.with_scheduler(SchedulerKind::Static)
                .with_work_stealing(false)
                .with_bsf_sharing(false)
        });
        let a = base.answer_batch(&w.queries);
        let b = variant.answer_batch(&w.queries);
        for qi in 0..w.len() {
            assert!((a.answers[qi].distance - b.answers[qi].distance).abs() < 1e-9);
        }
        // Index identity is shared, not copied.
        assert!(Arc::ptr_eq(base.chunk_index(0), variant.chunk_index(0)));
    }

    #[test]
    #[should_panic(expected = "replication-group count is fixed")]
    fn reconfigured_rejects_layout_changes() {
        let data = random_walk(200, 64, 48);
        let base = OdysseyCluster::build(
            &data,
            ClusterConfig::new(4).with_replication(Replication::Partial(2)),
        );
        let _ = base.reconfigured(|c| c.with_replication(Replication::Full));
    }

    #[test]
    fn streaming_batches_stay_exact() {
        let data = random_walk(1000, 64, 19);
        let w = QueryWorkload::generate(
            &data,
            12,
            WorkloadKind::Mixed {
                hard_fraction: 0.4,
                noise: 0.05,
            },
            3,
        );
        let cluster = OdysseyCluster::build(
            &data,
            ClusterConfig::new(4)
                .with_replication(Replication::Full)
                .with_scheduler(SchedulerKind::PredictDn),
        );
        for wave in [1usize, 3, 100] {
            let report = cluster.answer_batch_stream(&w.queries, wave);
            for qi in 0..w.len() {
                let want = brute_force(&data, w.query(qi));
                assert!(
                    (report.answers[qi].distance - want.distance).abs() < 1e-9,
                    "wave={wave} query {qi}"
                );
            }
        }
    }

    #[test]
    fn approximate_batch_upper_bounds_exact() {
        let data = random_walk(1200, 64, 29);
        let w = QueryWorkload::generate(&data, 10, WorkloadKind::Hard, 7);
        let cluster = OdysseyCluster::build(
            &data,
            ClusterConfig::new(4).with_replication(Replication::Partial(2)),
        );
        let approx = cluster.answer_batch_approximate(&w.queries);
        let exact = cluster.answer_batch(&w.queries);
        for qi in 0..w.len() {
            assert!(
                approx.answers[qi].distance >= exact.answers[qi].distance - 1e-9,
                "query {qi}: approx below exact"
            );
            // The approximate answer is a real series at that distance.
            let id = approx.answers[qi].series_id.expect("approx id") as usize;
            let d = odyssey_core::distance::euclidean_sq(w.query(qi), data.series(id));
            assert!((d - approx.answers[qi].distance_sq).abs() < 1e-9);
        }
        // Approximate search is much cheaper than exact.
        assert!(approx.makespan_units() < exact.makespan_units());
    }

    #[test]
    fn inter_query_lanes_stay_exact_and_match_sequential_nodes() {
        // A PREDICT policy engages the per-node lanes (stealing off
        // here isolates the lane mechanism; the lanes×stealing
        // composition is covered by `tests/multiq.rs`); answers must
        // equal brute force and the lanes-off run.
        let data = random_walk(1200, 64, 61);
        let w = QueryWorkload::generate(
            &data,
            14,
            WorkloadKind::Mixed {
                hard_fraction: 0.3,
                noise: 0.03,
            },
            5,
        );
        let base = OdysseyCluster::build(
            &data,
            ClusterConfig::new(4)
                .with_replication(Replication::Partial(2))
                .with_scheduler(SchedulerKind::PredictDn)
                .with_work_stealing(false)
                .with_threads_per_node(4),
        );
        let laned = base.answer_batch(&w.queries);
        let sequential = base
            .reconfigured(|c| c.with_inter_query_lanes(false))
            .answer_batch(&w.queries);
        for qi in 0..w.len() {
            let want = brute_force(&data, w.query(qi));
            assert!(
                (laned.answers[qi].distance - want.distance).abs() < 1e-9,
                "query {qi}: lanes vs brute force"
            );
            assert_eq!(
                laned.answers[qi].distance.to_bits(),
                sequential.answers[qi].distance.to_bits(),
                "query {qi}: lanes vs sequential nodes"
            );
        }
        assert_eq!(
            laned.per_node_queries.iter().sum::<usize>(),
            w.len() * base.topology().n_groups(),
            "every group answers every query exactly once"
        );
    }

    #[test]
    fn adaptive_plan_matches_static_plan_bit_identical() {
        // The tentpole contract: the makespan-optimal width solver (and
        // the calibration run feeding it) may change *scheduling* only —
        // answers must equal the static plan's bit for bit, at every
        // pool width, across ED, DTW and k-NN.
        let data = random_walk(700, 64, 83);
        let w = QueryWorkload::generate(
            &data,
            8,
            WorkloadKind::Mixed {
                hard_fraction: 0.4,
                noise: 0.05,
            },
            29,
        );
        for tpn in [1usize, 2, 4, 8] {
            let adaptive = OdysseyCluster::build(
                &data,
                ClusterConfig::new(2)
                    .with_replication(Replication::Full)
                    .with_threads_per_node(tpn),
            );
            assert!(adaptive.config().adaptive_widths);
            let fixed = adaptive.reconfigured(|c| c.with_adaptive_widths(false));
            let (a_ed, f_ed) = (adaptive.answer_batch(&w.queries), fixed.answer_batch(&w.queries));
            let (a_dtw, f_dtw) = (
                adaptive.answer_batch_dtw(&w.queries, 3),
                fixed.answer_batch_dtw(&w.queries, 3),
            );
            let (a_knn, f_knn) = (
                adaptive.answer_batch_knn(&w.queries, 3),
                fixed.answer_batch_knn(&w.queries, 3),
            );
            for qi in 0..w.len() {
                assert_eq!(
                    a_ed.answers[qi].distance.to_bits(),
                    f_ed.answers[qi].distance.to_bits(),
                    "tpn={tpn} query {qi}: ED adaptive vs static"
                );
                assert_eq!(
                    a_dtw.answers[qi].distance_sq.to_bits(),
                    f_dtw.answers[qi].distance_sq.to_bits(),
                    "tpn={tpn} query {qi}: DTW adaptive vs static"
                );
                for (j, (got, want)) in a_knn.answers[qi]
                    .neighbors
                    .iter()
                    .zip(&f_knn.answers[qi].neighbors)
                    .enumerate()
                {
                    assert_eq!(
                        got.0.to_bits(),
                        want.0.to_bits(),
                        "tpn={tpn} query {qi} neighbor {j}: k-NN adaptive vs static"
                    );
                }
            }
            if tpn > 1 {
                assert!(
                    adaptive.calibrated_curve().is_some(),
                    "tpn={tpn}: lane planning must have calibrated the curve"
                );
            }
        }
    }

    #[test]
    fn online_feedback_records_and_refits_without_changing_answers() {
        // Tiny refit cadence: the predictor refits *during* the sweep,
        // later batches are planned from refit estimates — answers must
        // stay exact throughout.
        let data = random_walk(800, 64, 84);
        let w = QueryWorkload::generate(
            &data,
            9,
            WorkloadKind::Mixed {
                hard_fraction: 0.4,
                noise: 0.05,
            },
            31,
        );
        let cluster = OdysseyCluster::build(
            &data,
            ClusterConfig::new(2)
                .with_replication(Replication::Full)
                .with_threads_per_node(2)
                .with_feedback_refit_every(4),
        );
        for round in 0..3 {
            let report = cluster.answer_batch(&w.queries);
            for qi in 0..w.len() {
                let want = brute_force(&data, w.query(qi));
                assert!(
                    (report.answers[qi].distance - want.distance).abs() < 1e-9,
                    "round {round} query {qi}"
                );
            }
        }
        let fb = cluster.feedback();
        assert_eq!(
            fb.samples(),
            3 * w.len(),
            "every finished non-stolen execution records one sample"
        );
        assert!(fb.refits() > 0, "cadence 4 must have refit by now");
    }

    #[test]
    fn threshold_model_per_query_th_stays_exact() {
        use odyssey_sched::{SigmoidFit, ThresholdModel};
        let data = random_walk(900, 64, 77);
        let w = QueryWorkload::generate(
            &data,
            8,
            WorkloadKind::Mixed {
                hard_fraction: 0.5,
                noise: 0.05,
            },
            13,
        );
        // A crude hand-rolled sigmoid: easy queries get tiny thresholds,
        // hard ones large — exactness must not depend on it.
        let model = ThresholdModel::new(
            SigmoidFit {
                m: 16.0,
                big_m: 4096.0,
                b: 1.0,
                c: 1.0,
                d: 4.0,
                sse: 0.0,
            },
            16.0,
        );
        for lanes in [false, true] {
            let cluster = OdysseyCluster::build(
                &data,
                ClusterConfig::new(2)
                    .with_replication(Replication::Full)
                    .with_work_stealing(false)
                    .with_inter_query_lanes(lanes)
                    .with_threshold_model(model),
            );
            let report = cluster.answer_batch(&w.queries);
            let knn = cluster.answer_batch_knn(&w.queries, 3);
            for qi in 0..w.len() {
                let want = brute_force(&data, w.query(qi));
                assert!(
                    (report.answers[qi].distance - want.distance).abs() < 1e-9,
                    "lanes={lanes} query {qi}"
                );
                assert!(
                    (knn.answers[qi].neighbors[0].0 - want.distance_sq).abs() < 1e-9,
                    "lanes={lanes} query {qi}: knn rank 0"
                );
            }
        }
    }

    #[test]
    fn kill_with_surviving_replica_stays_bit_identical() {
        let data = random_walk(1000, 64, 91);
        let w = QueryWorkload::generate(
            &data,
            10,
            WorkloadKind::Mixed {
                hard_fraction: 0.4,
                noise: 0.05,
            },
            17,
        );
        // Static scheduling pins per-node workloads, so the fault point
        // is deterministically reached (a dynamic queue could let the
        // siblings drain the batch before node 1's second claim).
        let base = OdysseyCluster::build(
            &data,
            ClusterConfig::new(4)
                .with_replication(Replication::Partial(2))
                .with_scheduler(SchedulerKind::Static),
        );
        let clean = base.answer_batch(&w.queries);
        // Node 1 dies before its third execution; node 3 holds the
        // same chunk and picks up the stranded work.
        let faulted = base
            .reconfigured(|c| c.with_fault_plan(FaultPlan::new().kill(1, 2)))
            .answer_batch(&w.queries);
        assert_eq!(faulted.dead_nodes, vec![1]);
        assert!(faulted.final_epoch >= 1);
        assert!(faulted.fully_covered());
        assert!(clean.fully_covered() && clean.dead_nodes.is_empty());
        for qi in 0..w.len() {
            assert_eq!(
                faulted.answers[qi].distance.to_bits(),
                clean.answers[qi].distance.to_bits(),
                "query {qi}: failover changed the answer"
            );
        }
    }

    #[test]
    fn whole_group_dead_yields_partial_coverage_not_lies() {
        let data = random_walk(900, 64, 92);
        let w = QueryWorkload::generate(&data, 8, WorkloadKind::Hard, 19);
        let cluster = OdysseyCluster::build(
            &data,
            ClusterConfig::new(2)
                .with_replication(Replication::EquallySplit)
                .with_fault_plan(FaultPlan::new().kill(1, 0)),
        );
        let report = cluster.answer_batch(&w.queries);
        assert_eq!(report.dead_nodes, vec![1]);
        // Group 1 died before answering anything: every query is
        // explicitly partial — and exact over the surviving chunk.
        let survivors = cluster.chunk_ids(0);
        for qi in 0..w.len() {
            assert_eq!(
                report.coverage[qi],
                Coverage::Partial {
                    missing_groups: vec![1]
                }
            );
            let mut best = f64::INFINITY;
            for &gid in survivors.iter() {
                best = best.min(odyssey_core::distance::euclidean_sq(
                    w.query(qi),
                    data.series(gid as usize),
                ));
            }
            assert!(
                (report.answers[qi].distance_sq - best).abs() < 1e-9,
                "query {qi}: partial answer must be exact over survivors"
            );
        }
    }

    #[test]
    fn knn_kill_with_survivor_matches_brute_force() {
        let data = random_walk(700, 64, 93);
        let w = QueryWorkload::generate(&data, 6, WorkloadKind::Hard, 21);
        let cluster = OdysseyCluster::build(
            &data,
            ClusterConfig::new(4)
                .with_replication(Replication::Partial(2))
                .with_scheduler(SchedulerKind::Static)
                .with_fault_plan(FaultPlan::new().kill(0, 1)),
        );
        let k = 3;
        let report = cluster.answer_batch_knn(&w.queries, k);
        assert!(report.coverage.iter().all(|c| c.is_complete()));
        for qi in 0..w.len() {
            let q = w.query(qi);
            let mut all: Vec<f64> = (0..data.num_series())
                .map(|i| odyssey_core::distance::euclidean_sq(q, data.series(i)))
                .collect();
            all.sort_by(|a, b| a.total_cmp(b));
            for (j, got) in report.answers[qi].neighbors.iter().enumerate() {
                assert!(
                    (got.0 - all[j]).abs() < 1e-9,
                    "query {qi} neighbor {j} after failover"
                );
            }
        }
    }

    #[test]
    fn work_stealing_reports_steals_on_skewed_batches() {
        // One very hard query at the end (the paper's motivating case):
        // with FULL replication + stealing, idle nodes should steal.
        let data = random_walk(3000, 64, 13);
        let mut qdata = Vec::new();
        // 3 easy queries then 1 hard one.
        let easy = QueryWorkload::generate(&data, 3, WorkloadKind::Easy { noise: 0.01 }, 3);
        qdata.extend_from_slice(easy.queries.raw());
        let hard = QueryWorkload::generate(&data, 1, WorkloadKind::Hard, 4);
        qdata.extend_from_slice(hard.queries.raw());
        let queries = DatasetBuffer::from_vec(qdata, 64);
        let cluster = OdysseyCluster::build(
            &data,
            ClusterConfig::new(4)
                .with_replication(Replication::Full)
                .with_scheduler(SchedulerKind::Dynamic)
                .with_pq_threshold(8),
        );
        let report = cluster.answer_batch(&queries);
        for qi in 0..4 {
            let want = brute_force(&data, queries.series(qi));
            assert!((report.answers[qi].distance - want.distance).abs() < 1e-9);
        }
        // Steal attempts occur (success depends on timing, attempts must).
        assert!(report.steals_attempted > 0, "idle nodes should try to steal");
    }
}
