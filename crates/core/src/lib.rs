//! # odyssey-core
//!
//! In-memory iSAX-based data-series index with the parallel exact
//! query-answering algorithm of *Odyssey* (PVLDB 2023).
//!
//! This crate implements the single-node half of the Odyssey framework:
//!
//! * data-series containers and z-normalization ([`series`]),
//! * distance kernels: Euclidean (with early abandoning) and DTW with the
//!   LB_Keogh lower bound ([`distance`]),
//! * PAA and iSAX summarizations with nested-cardinality lower bounds
//!   ([`paa`], [`sax`]),
//! * summarization buffers and the iSAX index tree ([`buffers`], [`tree`]),
//! * the [`Index`](index::Index) façade with parallel construction, and
//! * Odyssey's exact search: RS-batches, bounded priority queues, helping,
//!   and a shared atomic best-so-far ([`search`]).
//!
//! Every query runs on a [`search::engine::BatchEngine`], which keeps a
//! node's worker threads and scratch arenas resident across a whole
//! query batch. The distributed layer (replication, scheduling,
//! work-stealing) lives in the `odyssey-cluster` crate and is built on
//! top of the hooks the engine exposes: its
//! [`run_query`](search::engine::BatchEngine::run_query) can traverse an
//! explicit subset of RS-batches (the primitive that makes data-free
//! work-stealing possible).
//!
//! ## Quick start
//!
//! ```
//! use odyssey_core::index::{Index, IndexConfig};
//! use odyssey_core::search::engine::BatchEngine;
//! use odyssey_core::search::exact::SearchParams;
//! use odyssey_core::series::DatasetBuffer;
//! use std::sync::Arc;
//!
//! // 1000 series of length 64, flattened row-major.
//! let n = 1000usize;
//! let len = 64usize;
//! let mut data = vec![0.0f32; n * len];
//! let mut x = 7u64;
//! for v in data.iter_mut() {
//!     // cheap xorshift random walk filler
//!     x ^= x << 13; x ^= x >> 7; x ^= x << 17;
//!     *v = (x % 1000) as f32 / 1000.0 - 0.5;
//! }
//! let cfg = IndexConfig::new(len).with_segments(8).with_leaf_capacity(32);
//! let index = Index::build(DatasetBuffer::from_vec(data, len), cfg, 2);
//! // A resident 2-thread engine; build it once, query it many times.
//! let engine = BatchEngine::new(Arc::new(index), 2);
//! let query: Vec<f32> = (0..len).map(|i| (i as f32).sin()).collect();
//! let out = engine.exact(&query, &SearchParams::new(2));
//! assert!(out.answer.distance >= 0.0);
//! ```
//!
//! ## Unsafe policy
//!
//! This crate is one of the two workspace crates allowed to contain
//! `unsafe` (the other is `odyssey-cluster`, which contains none
//! today). Every `unsafe` block or impl must carry a `// SAFETY:`
//! comment, and `unsafe` may only appear in the modules whitelisted by
//! the repo lint (`cargo run -p xtask -- lint`): [`buffers`], [`tree`],
//! [`search::engine`], and [`search::scratch`].

#![deny(unsafe_op_in_unsafe_fn)]
#![deny(missing_debug_implementations)]

pub mod buffers;
pub mod distance;
pub mod index;
pub mod layout;
pub mod paa;
pub mod persist;
pub mod sax;
pub mod search;
pub mod series;
pub mod subsequence;
pub mod sync;
pub mod tree;

pub use index::{Index, IndexConfig};
pub use search::answer::{Answer, KnnAnswer};
pub use series::DatasetBuffer;
