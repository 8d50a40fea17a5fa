//! Odyssey's single-node query answering (Section 3.2.1, Algorithms 1–2).
//!
//! The engine in [`exact`] implements the paper's three phases:
//!
//! 1. **Tree-traversal phase** — root subtrees are grouped into
//!    *RS-batches* ([`batches`]); worker threads claim batches with
//!    `Fetch&Add`, prune subtrees against the best-so-far ([`bsf`]), and
//!    push surviving leaves into per-batch *bounded* priority queues
//!    ([`pqueue`]); idle threads *help* unfinished batches (bounded by
//!    `HelpTH`).
//! 2. **Priority-queue preprocessing** — all queues are gathered and
//!    sorted by their minimum element, so the most promising leaves are
//!    drained first.
//! 3. **Priority-queue processing** — threads claim queues with
//!    `Fetch&Add`, verify candidates with per-series lower bounds and
//!    early-abandoning real distances, and publish BSF improvements.
//!
//! The engine is generic over a [`kernel::QueryKernel`] (Euclidean, DTW)
//! and a [`bsf::ResultSet`] (1-NN, k-NN), so the extensions of Section 4
//! reuse the same code path. It also publishes a [`exact::StealView`] that
//! the distributed layer's work-stealing manager uses to give away
//! RS-batches without moving any data.
//!
//! One driver executes that per-query body: the persistent worker-pool
//! [`engine::BatchEngine`], which amortizes thread and scratch setup
//! across whole query batches (the private `scratch` module holds the
//! per-worker reusable arenas). A query runs on the engine's full pool
//! or on one lane of the inter-query concurrency layer in [`multiq`],
//! which partitions the pool into disjoint worker groups so several
//! queries of a batch run simultaneously; both go through the same
//! per-query code. A 1-thread engine runs its queries inline.

pub mod answer;
pub mod batches;
pub mod bsf;
pub mod dtw_search;
pub mod engine;
pub mod epsilon;
pub mod exact;
pub mod kernel;
pub mod knn;
pub mod multiq;
pub mod pqueue;
pub(crate) mod scratch;
