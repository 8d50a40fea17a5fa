//! # odyssey-cluster
//!
//! The distributed half of Odyssey (Sections 3.1–3.4): replication
//! groups, query scheduling, BSF sharing, and data-free work-stealing —
//! over a **simulated multi-node system**.
//!
//! ## The simulation substitution
//!
//! The paper runs on a 16-node Infiniband cluster with MPI. Here each
//! *system node* is an OS thread owning (a) a private chunk of the data
//! and (b) its own [`odyssey_core::Index`] over that chunk. Nodes
//! interact **only** through the same messages the MPI implementation
//! exchanges: query dispatch, `DONE` notifications, steal
//! requests/responses carrying RS-batch *ids*, and BSF-improvement
//! broadcasts. No node ever reads another node's index or raw series.
//! The protocol logic — which node answers what, who steals what, which
//! improvement reaches whom — is therefore exactly the paper's.
//!
//! ## Time measurement
//!
//! The paper reports, per experiment, the *maximum over nodes* of each
//! node's busy time. On a single development machine, wall-clock per-node
//! times are distorted by the OS interleaving all node threads onto the
//! same cores, so this crate measures per-node load in deterministic
//! **work units** (a weighted count of the floating-point work each node
//! performed: lower-bound computations × segment count, real-distance
//! computations × series length, and index-construction operations).
//! The reported makespan is the max over nodes of those units — the
//! quantity the paper's wall-clock maxima estimate on real hardware.
//! Wall-clock durations are reported alongside for reference.
//!
//! ## Failure awareness
//!
//! The replication *degree* of a PARTIAL-k topology buys replication
//! *capability*: a [`shard_map::ShardMap`] tracks per-node health
//! (`Up`/`Suspect`/`Down`) with lease-style liveness and an epoch
//! counter; a deterministic [`faults::FaultPlan`] injects node kills,
//! mid-query worker panics, and delays; and the batch runtime
//! re-routes a dead node's unfinished queries to a surviving replica
//! of the same group. When a group loses all replicas, queries
//! terminate with an explicit [`shard_map::Coverage::Partial`] answer
//! (exact over the surviving chunks) instead of hanging or silently
//! passing a subset answer off as complete.

pub mod boards;
pub mod config;
pub mod faults;
pub mod runtime;
pub mod serve;
pub mod shard_map;
pub mod stealing;
pub mod topology;
pub mod units;

pub use config::{ClusterConfig, Replication};
pub use faults::{Fault, FaultPlan};
pub use odyssey_sched::SchedulerKind;
pub use runtime::{BatchReport, BuildReport, OdysseyCluster};
pub use serve::{ServeHandle, ServeOutcome, ServeQuery, ServeStats, ServedAnswer};
pub use shard_map::{Coverage, NodeHealth, ShardMap};
pub use topology::Topology;
