//! The pruning ledger: per-kind sums of the search's work counters at
//! width 1, compared exactly against a committed file.
//!
//! At width 1 every count is deterministic (one worker, one RS-batch,
//! no stealing), so any change to how the index prunes or how the
//! engine walks it shows up as a changed line. A change that alters
//! pruning on purpose rewrites `tests/data/pruning_ledger.txt` in the
//! same diff; one that should not (a refactor of the tree, the queues
//! or the layout) must leave it byte for byte.
//!
//! Inputs: a seeded 64k × 128 random-walk index (16 segments; leaf
//! capacity 128, so a few hundred roots split and the descent below
//! inner roots is counted too), graded queries (indexed series plus noise from 0.02
//! to 0.5) for ED and k-NN, and the first of them for DTW.

use odyssey::core::index::{Index, IndexConfig};
use odyssey::core::search::engine::BatchEngine;
use odyssey::core::search::exact::{SearchParams, SearchStats};
use odyssey::workloads::generator::random_walk;
use odyssey::workloads::queries::{QueryWorkload, WorkloadKind};
use std::fmt::Write;
use std::sync::Arc;

const SERIES: usize = 65_536;
const LEN: usize = 128;
const LEAF_CAPACITY: usize = 128;
const ED_QUERIES: usize = 12;
const KNN_QUERIES: usize = 6;
const KNN_K: usize = 10;
const DTW_QUERIES: usize = 3;
const DTW_WINDOW: usize = 4;

/// Per-kind sums of the counters the ledger pins.
#[derive(Default)]
struct Sums {
    queries: usize,
    lb_node: u64,
    leaves: u64,
    pq_count: usize,
    lb_series: u64,
    real_dist: u64,
}

impl Sums {
    fn add(&mut self, s: &SearchStats) {
        self.queries += 1;
        self.lb_node += s.lb_node_computations;
        self.leaves += s.leaves_collected;
        self.pq_count += s.pq_count;
        self.lb_series += s.lb_series_computations;
        self.real_dist += s.real_distance_computations;
    }

    fn line(&self, kind: &str, out: &mut String) {
        writeln!(
            out,
            "{kind} queries={} lb_node={} leaves={} pq_count={} lb_series={} real_dist={}",
            self.queries, self.lb_node, self.leaves, self.pq_count, self.lb_series, self.real_dist
        )
        .expect("writing to a String");
    }
}

fn ledger() -> String {
    let data = random_walk(SERIES, LEN, 0x001E_D6E4);
    let graded = WorkloadKind::Graded { max_noise: 0.5 };
    let queries = QueryWorkload::generate(&data, ED_QUERIES, graded, 7);
    let config = IndexConfig::new(LEN).with_leaf_capacity(LEAF_CAPACITY);
    let index = Arc::new(Index::build(data, config, 2));
    let engine = BatchEngine::new(Arc::clone(&index), 1);
    let params = SearchParams::new(1);
    let (mut ed, mut knn, mut dtw) = (Sums::default(), Sums::default(), Sums::default());
    for qi in 0..ED_QUERIES {
        let q = queries.query(qi);
        ed.add(&engine.exact(q, &params).stats);
        if qi < KNN_QUERIES {
            knn.add(&engine.knn(q, KNN_K, &params).1);
        }
        if qi < DTW_QUERIES {
            dtw.add(&engine.dtw(q, DTW_WINDOW, &params).1);
        }
    }
    let mut out = String::new();
    writeln!(
        out,
        "index series={SERIES} len={LEN} roots={} leaves={}",
        index.forest().len(),
        index.leaf_count()
    )
    .expect("writing to a String");
    ed.line("ed", &mut out);
    knn.line(&format!("knn{KNN_K}"), &mut out);
    dtw.line(&format!("dtw{DTW_WINDOW}"), &mut out);
    out
}

#[test]
fn width_one_counts_match_the_committed_ledger() {
    let want = include_str!("data/pruning_ledger.txt");
    let got = ledger();
    assert!(
        got == want,
        "pruning ledger moved; if intended, replace tests/data/pruning_ledger.txt with:\n{got}"
    );
}
