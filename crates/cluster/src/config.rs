//! Cluster configuration.

use crate::faults::FaultPlan;
use odyssey_partition::PartitioningScheme;
use odyssey_sched::{CostModel, SchedulerKind, ThresholdModel};
use std::sync::Arc;
use std::time::Duration;

/// The replication strategies of Section 3.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Replication {
    /// PARTIAL-1: every node stores the full dataset.
    Full,
    /// PARTIAL-k: `k` replication groups.
    Partial(usize),
    /// PARTIAL-N: every node stores a disjoint chunk (no replication).
    EquallySplit,
}

impl Replication {
    /// The number of replication groups for `n_nodes` system nodes.
    pub fn n_groups(&self, n_nodes: usize) -> usize {
        match self {
            Replication::Full => 1,
            Replication::Partial(k) => *k,
            Replication::EquallySplit => n_nodes,
        }
    }

    /// The paper's label.
    pub fn label(&self) -> String {
        match self {
            Replication::Full => "FULL".into(),
            Replication::Partial(k) => format!("PARTIAL-{k}"),
            Replication::EquallySplit => "EQUALLY-SPLIT".into(),
        }
    }
}

/// What kind of queries a batch contains.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BatchMode {
    /// Euclidean 1-NN (the paper's primary setting).
    Euclidean,
    /// Euclidean k-NN (Section 4; Figure 18 uses k = 10).
    Knn {
        /// Neighbor count.
        k: usize,
    },
    /// DTW 1-NN with a Sakoe-Chiba band (Section 4; Figure 19 uses 5%).
    Dtw {
        /// Band half-width in points.
        window: usize,
    },
}

/// Full cluster configuration.
#[derive(Clone)]
pub struct ClusterConfig {
    /// Number of simulated system nodes.
    pub n_nodes: usize,
    /// Replication strategy (PARTIAL-k family).
    pub replication: Replication,
    /// Query-scheduling policy inside each replication group.
    pub scheduler: SchedulerKind,
    /// How the coordinator partitions data into chunks.
    pub partitioning: PartitioningScheme,
    /// Worker threads per node (the paper's nodes have 128 cores; the
    /// simulation defaults to 2 so protocols still exercise intra-node
    /// parallelism without oversubscribing the host).
    pub threads_per_node: usize,
    /// Enable the inter-node work-stealing mechanism (Section 3.2.2).
    pub work_stealing: bool,
    /// Enable the common BSF-sharing channel (Section 3.4).
    pub bsf_sharing: bool,
    /// RS-batches handed over per steal (`Nsend`; the paper fixes 4).
    pub steal_nsend: usize,
    /// iSAX segments for the per-node indexes.
    pub segments: usize,
    /// Leaf capacity for the per-node indexes.
    pub leaf_capacity: usize,
    /// Optional trained cost model; `None` uses the initial BSF itself
    /// as the (monotone) cost estimate for the PREDICT-* policies.
    pub cost_model: Option<Arc<dyn CostModel>>,
    /// Priority-queue threshold `TH` for the per-node searches.
    pub pq_threshold: usize,
    /// RS-batch count `Nsb` per search. The paper's best setting is one
    /// batch per worker thread on 128-core nodes; the simulation's nodes
    /// have few threads, so the default keeps 16 batches to preserve a
    /// meaningful stealing granularity.
    pub rs_batches: usize,
    /// Enable inter-query concurrency inside each node: a node with
    /// per-query cost predictions (a PREDICT-* scheduler) admits
    /// windows of queries onto disjoint worker groups (narrow lanes for
    /// predicted-easy queries, the full pool for predicted-hard ones)
    /// instead of running every query across all of its threads. Lanes
    /// compose with inter-node work-stealing: every in-flight lane
    /// query registers with the engine's steal registry, so the node's
    /// manager (and the workers' cooperative service hook) hand out
    /// RS-batches of whichever query has the widest remaining work,
    /// mid-round.
    pub inter_query_lanes: bool,
    /// Makespan-optimal lane planning: when a PREDICT-* scheduler
    /// provides per-query cost estimates, plan each node's lane widths
    /// with the calibrated speedup-vs-width curve (Figure 8) and the
    /// makespan solver instead of the static median-ratio cutoff. The
    /// first batch calibrates the curve once per cluster (a short
    /// seeded probe set at widths 1, 2, 4, .., pool); widths never
    /// change answers, only wall-clock.
    pub adaptive_widths: bool,
    /// Capacity of the online-feedback ring that collects observed
    /// `(initial BSF, execution time)` pairs (and, when a threshold
    /// model is installed, `(initial BSF, median PQ size)` pairs).
    pub feedback_capacity: usize,
    /// Refit the online cost/threshold predictors every this many
    /// recorded samples (deterministic in sample *count*, never
    /// wall-clock). Refits only sharpen estimates for later batches;
    /// answers stay bit-identical.
    pub feedback_refit_every: usize,
    /// Lane width for the online-serving path
    /// ([`crate::runtime::OdysseyCluster::serve`]): each node
    /// partitions its pool into groups of this many workers, and each
    /// group claims streamed queries continuously. `1` maximizes
    /// inter-query concurrency; `threads_per_node` dedicates the whole
    /// node to one query at a time.
    pub service_lane_width: usize,
    /// On the serving path, how many shard-map ticks a claim by a
    /// `Suspect` node may age before a healthy peer hedges the query
    /// (re-executes it on its own replica rather than waiting for the
    /// suspect to recover or be declared `Down`).
    pub suspect_hedge_after: u64,
    /// Upper bound on hedged re-executions per query on the serving
    /// path (bounded retry — a flapping suspect cannot trigger
    /// unbounded duplicate work).
    pub suspect_max_hedges: u32,
    /// Optional trained sigmoid threshold model (Figure 6): when set,
    /// every query runs with its own predicted priority-queue
    /// threshold `TH` instead of the batch-wide [`Self::pq_threshold`].
    pub threshold_model: Option<ThresholdModel>,
    /// RNG seed for victim selection and the random-shuffle partitioner.
    pub seed: u64,
    /// Relative node speeds (empty = all `1.0`). A speed of `0.25` makes
    /// a node four times slower: its work units are accounted at 4x and
    /// its query processing is paced accordingly, modelling heterogeneous
    /// or degraded hardware. The work-stealing ablation uses this to show
    /// the mechanism compensating for stragglers.
    pub node_speeds: Vec<f64>,
    /// Deterministic fault scenario for this cluster (kills, worker
    /// panics, delays — see [`crate::faults`]). `None` = fault-free;
    /// the failover machinery is then entirely inert and the batch
    /// paths behave exactly as before.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// How many times one query may be re-routed to another replica
    /// after node deaths before it is abandoned (its group then counts
    /// as missing in the query's [`crate::shard_map::Coverage`]).
    pub max_reroutes: usize,
    /// Upper bound on how long a drained node waits for possible
    /// re-routed work from group members that might still die. Purely
    /// defensive: the group-exit protocol terminates on its own; the
    /// deadline guarantees a `Coverage::Partial` answer is returned
    /// within it even if a member wedges.
    pub query_deadline: Duration,
    /// Lease length, in logical heartbeat ticks, for the shard map's
    /// liveness tracking (one tick per query execution). A node a full
    /// lease overdue turns `Suspect`; two leases overdue turns `Down`.
    pub lease_ticks: u64,
}

impl ClusterConfig {
    /// Odyssey defaults: FULL replication, PREDICT-DN scheduling,
    /// work-stealing and BSF sharing on — the paper's best configuration
    /// (WORK-STEAL-PREDICT).
    pub fn new(n_nodes: usize) -> Self {
        ClusterConfig {
            n_nodes,
            replication: Replication::Full,
            scheduler: SchedulerKind::PredictDn,
            partitioning: PartitioningScheme::EquallySplit,
            threads_per_node: 2,
            work_stealing: true,
            bsf_sharing: true,
            steal_nsend: odyssey_core::search::exact::DEFAULT_NSEND,
            segments: 16,
            leaf_capacity: 256,
            cost_model: None,
            pq_threshold: 8,
            rs_batches: 32,
            inter_query_lanes: true,
            adaptive_widths: true,
            feedback_capacity: 1024,
            feedback_refit_every: 64,
            service_lane_width: 1,
            suspect_hedge_after: 8,
            suspect_max_hedges: 1,
            threshold_model: None,
            seed: 0xD15EA5E,
            node_speeds: Vec::new(),
            fault_plan: None,
            max_reroutes: 3,
            query_deadline: Duration::from_secs(5),
            lease_ticks: 64,
        }
    }

    /// Sets the replication strategy.
    pub fn with_replication(mut self, r: Replication) -> Self {
        self.replication = r;
        self
    }

    /// Sets the scheduling policy.
    pub fn with_scheduler(mut self, s: SchedulerKind) -> Self {
        self.scheduler = s;
        self
    }

    /// Sets the partitioning scheme.
    pub fn with_partitioning(mut self, p: PartitioningScheme) -> Self {
        self.partitioning = p;
        self
    }

    /// Sets per-node worker threads.
    pub fn with_threads_per_node(mut self, t: usize) -> Self {
        assert!(t >= 1);
        self.threads_per_node = t;
        self
    }

    /// Toggles work-stealing.
    pub fn with_work_stealing(mut self, on: bool) -> Self {
        self.work_stealing = on;
        self
    }

    /// Toggles BSF sharing.
    pub fn with_bsf_sharing(mut self, on: bool) -> Self {
        self.bsf_sharing = on;
        self
    }

    /// Sets `Nsend`.
    pub fn with_steal_nsend(mut self, n: usize) -> Self {
        assert!(n >= 1);
        self.steal_nsend = n;
        self
    }

    /// Sets the iSAX segment count.
    pub fn with_segments(mut self, s: usize) -> Self {
        self.segments = s;
        self
    }

    /// Sets the index leaf capacity.
    pub fn with_leaf_capacity(mut self, c: usize) -> Self {
        self.leaf_capacity = c;
        self
    }

    /// Installs a trained cost model for the PREDICT-* policies.
    pub fn with_cost_model(mut self, m: Arc<dyn CostModel>) -> Self {
        self.cost_model = Some(m);
        self
    }

    /// Sets the priority-queue threshold.
    pub fn with_pq_threshold(mut self, th: usize) -> Self {
        assert!(th > 0);
        self.pq_threshold = th;
        self
    }

    /// Sets the per-search RS-batch count `Nsb`.
    pub fn with_rs_batches(mut self, nsb: usize) -> Self {
        assert!(nsb >= 1);
        self.rs_batches = nsb;
        self
    }

    /// Toggles per-node inter-query lanes.
    pub fn with_inter_query_lanes(mut self, on: bool) -> Self {
        self.inter_query_lanes = on;
        self
    }

    /// Toggles makespan-optimal adaptive lane planning.
    pub fn with_adaptive_widths(mut self, on: bool) -> Self {
        self.adaptive_widths = on;
        self
    }

    /// Sets the online-feedback ring capacity.
    pub fn with_feedback_capacity(mut self, cap: usize) -> Self {
        assert!(cap >= 1);
        self.feedback_capacity = cap;
        self
    }

    /// Sets the online predictor refit cadence (in samples).
    pub fn with_feedback_refit_every(mut self, every: usize) -> Self {
        assert!(every >= 1);
        self.feedback_refit_every = every;
        self
    }

    /// Sets the serving-path lane width.
    pub fn with_service_lane_width(mut self, w: usize) -> Self {
        assert!(w >= 1);
        self.service_lane_width = w;
        self
    }

    /// Sets the suspect-hedge age threshold (in shard-map ticks).
    pub fn with_suspect_hedge_after(mut self, ticks: u64) -> Self {
        self.suspect_hedge_after = ticks;
        self
    }

    /// Caps hedged re-executions per query on the serving path.
    pub fn with_suspect_max_hedges(mut self, n: u32) -> Self {
        self.suspect_max_hedges = n;
        self
    }

    /// Installs a trained per-query `TH` model.
    pub fn with_threshold_model(mut self, m: ThresholdModel) -> Self {
        self.threshold_model = Some(m);
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets one node's relative speed (see [`ClusterConfig::node_speeds`]).
    pub fn with_node_speed(mut self, node: usize, speed: f64) -> Self {
        assert!(node < self.n_nodes, "node id out of range");
        assert!(speed > 0.0, "speed must be positive");
        if self.node_speeds.is_empty() {
            self.node_speeds = vec![1.0; self.n_nodes];
        }
        self.node_speeds[node] = speed;
        self
    }

    /// The relative speed of `node` (`1.0` when unset).
    pub fn node_speed(&self, node: usize) -> f64 {
        self.node_speeds.get(node).copied().unwrap_or(1.0)
    }

    /// Installs a deterministic fault scenario.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(Arc::new(plan));
        self
    }

    /// Sets the per-query re-route budget.
    pub fn with_max_reroutes(mut self, n: usize) -> Self {
        self.max_reroutes = n;
        self
    }

    /// Sets the drained-node wait deadline.
    pub fn with_query_deadline(mut self, d: Duration) -> Self {
        assert!(d > Duration::ZERO, "deadline must be positive");
        self.query_deadline = d;
        self
    }

    /// Sets the shard-map lease length in heartbeat ticks.
    pub fn with_lease_ticks(mut self, t: u64) -> Self {
        assert!(t >= 1, "leases need a positive length");
        self.lease_ticks = t;
        self
    }
}

impl std::fmt::Debug for ClusterConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterConfig")
            .field("n_nodes", &self.n_nodes)
            .field("replication", &self.replication.label())
            .field("scheduler", &self.scheduler.label())
            .field("partitioning", &self.partitioning.label())
            .field("threads_per_node", &self.threads_per_node)
            .field("work_stealing", &self.work_stealing)
            .field("bsf_sharing", &self.bsf_sharing)
            .field("fault_plan", &self.fault_plan.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replication_group_counts() {
        assert_eq!(Replication::Full.n_groups(8), 1);
        assert_eq!(Replication::Partial(4).n_groups(8), 4);
        assert_eq!(Replication::EquallySplit.n_groups(8), 8);
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(Replication::Full.label(), "FULL");
        assert_eq!(Replication::Partial(2).label(), "PARTIAL-2");
        assert_eq!(Replication::EquallySplit.label(), "EQUALLY-SPLIT");
    }

    #[test]
    fn node_speeds() {
        let c = ClusterConfig::new(4).with_node_speed(2, 0.5);
        assert_eq!(c.node_speed(0), 1.0);
        assert_eq!(c.node_speed(2), 0.5);
        let d = ClusterConfig::new(4);
        assert_eq!(d.node_speed(3), 1.0);
    }

    #[test]
    fn failover_knobs() {
        let c = ClusterConfig::new(4)
            .with_fault_plan(FaultPlan::new().kill(1, 2))
            .with_max_reroutes(5)
            .with_query_deadline(Duration::from_millis(750))
            .with_lease_ticks(8);
        assert!(c.fault_plan.as_ref().is_some_and(|p| p.affects(1)));
        assert_eq!(c.max_reroutes, 5);
        assert_eq!(c.query_deadline, Duration::from_millis(750));
        assert_eq!(c.lease_ticks, 8);
        let d = ClusterConfig::new(4);
        assert!(d.fault_plan.is_none(), "fault-free by default");
    }

    #[test]
    fn adaptive_knobs() {
        let c = ClusterConfig::new(2);
        assert!(c.adaptive_widths, "adaptive planning is the default");
        assert_eq!(c.feedback_capacity, 1024);
        assert_eq!(c.feedback_refit_every, 64);
        let d = ClusterConfig::new(2)
            .with_adaptive_widths(false)
            .with_feedback_capacity(16)
            .with_feedback_refit_every(4);
        assert!(!d.adaptive_widths);
        assert_eq!(d.feedback_capacity, 16);
        assert_eq!(d.feedback_refit_every, 4);
    }

    #[test]
    fn builder_chain() {
        let c = ClusterConfig::new(4)
            .with_replication(Replication::Partial(2))
            .with_scheduler(SchedulerKind::Static)
            .with_threads_per_node(3)
            .with_work_stealing(false)
            .with_bsf_sharing(false)
            .with_steal_nsend(2)
            .with_seed(7);
        assert_eq!(c.n_nodes, 4);
        assert_eq!(c.replication, Replication::Partial(2));
        assert!(!c.work_stealing);
        assert_eq!(c.threads_per_node, 3);
    }
}
