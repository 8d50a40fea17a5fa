//! Property-based tests (proptest) over the core invariants that make
//! exact search exact:
//!
//! * `mindist(paa(Q), isax(S)) <= ED(Q, S)` at every cardinality;
//! * `LB_Keogh(Q, S) <= DTW(Q, S)` and the envelope-hull iSAX bound
//!   below it;
//! * the parallel engine equals brute force for arbitrary data and
//!   arbitrary engine parameters;
//! * the data-tight root bound sits between the root word's bound and
//!   every stored series' bound, and survives save and load;
//! * partitioning schemes produce true partitions;
//! * Gray-code bijectivity and the one-bit-step law;
//! * scheduler assignments are complete and the greedy bound holds;
//! * the blocked 4-accumulator early-abandon kernels agree with their
//!   scalar references.
#![recursion_limit = "512"]

use odyssey::core::distance::{
    dtw_banded, euclidean_sq, euclidean_sq_early_abandon, keogh_envelope, lb_keogh_sq,
};
use odyssey::core::index::{Index, IndexConfig};
use odyssey::core::paa::paa;
use odyssey::core::sax::{mindist_paa_isax_sq, mindist_paa_sax_sq, sax_word_into, IsaxWord};
use odyssey::core::search::dtw_search::DtwKernel;
use odyssey::core::search::engine::BatchEngine;
use odyssey::core::search::exact::SearchParams;
use odyssey::core::search::kernel::{EdKernel, QueryKernel};
use odyssey::core::series::{znormalized, DatasetBuffer};
use odyssey::partition::{gray, validate_partition, PartitioningScheme};
use proptest::prelude::*;
use std::sync::Arc;

/// An arbitrary z-normalized series of the given length.
fn series_strategy(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-5.0f32..5.0, len).prop_map(|v| znormalized(&v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mindist_is_a_lower_bound_at_every_cardinality(
        q in series_strategy(64),
        s in series_strategy(64),
        segs in 1usize..=16,
    ) {
        let qp = paa(&q, segs);
        let sp = paa(&s, segs);
        let mut sax = vec![0u8; segs];
        sax_word_into(&sp, &mut sax);
        let ed = euclidean_sq(&q, &s);
        for bits in 1..=8u8 {
            let w = IsaxWord::from_sax(&sax, bits);
            let md = mindist_paa_isax_sq(&qp, &w, 64);
            prop_assert!(md <= ed + 1e-6, "bits={bits}: {md} > {ed}");
        }
        prop_assert!(mindist_paa_sax_sq(&qp, &sax, 64) <= ed + 1e-6);
    }

    #[test]
    fn lb_keogh_bounds_dtw_and_isax_bounds_lb_keogh(
        q in series_strategy(48),
        s in series_strategy(48),
        window in 0usize..12,
    ) {
        let dtw = dtw_banded(&q, &s, window, f64::INFINITY).expect("unbounded");
        let env = keogh_envelope(&q, window);
        let lbk = lb_keogh_sq(&env, &s, f64::INFINITY).expect("unbounded");
        prop_assert!(lbk <= dtw + 1e-6, "LB_Keogh {lbk} > DTW {dtw}");
        // Envelope-hull iSAX bound (what the tree prunes with) is below
        // the raw LB_Keogh.
        let kernel = DtwKernel::new(&q, window, 8);
        let sp = paa(&s, 8);
        let mut sax = vec![0u8; 8];
        sax_word_into(&sp, &mut sax);
        prop_assert!(kernel.series_lb_sq(&sax) <= dtw + 1e-6);
    }

    #[test]
    fn dtw_never_exceeds_euclidean(
        a in series_strategy(32),
        b in series_strategy(32),
        window in 0usize..8,
    ) {
        let dtw = dtw_banded(&a, &b, window, f64::INFINITY).expect("unbounded");
        prop_assert!(dtw <= euclidean_sq(&a, &b) + 1e-6);
    }

    #[test]
    fn table_kernel_bit_identical_to_reference_mindist(
        q in series_strategy(64),
        sax in proptest::collection::vec(any::<u8>(), 8),
    ) {
        // The per-query lookup-table kernel must reproduce the reference
        // mindist implementations *bit for bit* — for arbitrary symbol
        // words, not just words of real series.
        let segs = sax.len();
        let kernel = EdKernel::new(&q, segs);
        let qp = paa(&q, segs);
        let want_series = mindist_paa_sax_sq(&qp, &sax, 64);
        prop_assert_eq!(kernel.series_lb_sq(&sax).to_bits(), want_series.to_bits());
        for bits in 1..=8u8 {
            let word = IsaxWord::from_sax(&sax, bits);
            let want_node = mindist_paa_isax_sq(&qp, &word, 64);
            prop_assert_eq!(kernel.node_lb_sq(&word).to_bits(), want_node.to_bits());
        }
        // The batched block pass must agree with the scalar path.
        let mut out = [0.0f64];
        kernel.lb_block_sq(&sax, segs, &mut out);
        prop_assert_eq!(out[0].to_bits(), want_series.to_bits());
    }

    #[test]
    fn gray_code_laws(v in 0u64..1_000_000) {
        prop_assert_eq!(gray::from_gray(gray::to_gray(v)), v);
        let step = gray::to_gray(v) ^ gray::to_gray(v + 1);
        prop_assert_eq!(step.count_ones(), 1);
    }

    #[test]
    fn partitions_are_valid(
        n in 1usize..400,
        k in 1usize..8,
        seed in any::<u64>(),
    ) {
        let es = PartitioningScheme::EquallySplit;
        let rs = PartitioningScheme::RandomShuffle { seed };
        let data = DatasetBuffer::from_vec(vec![0.5f32; n * 8], 8);
        prop_assert!(validate_partition(&es.apply(&data, k), n).is_ok());
        prop_assert!(validate_partition(&rs.apply(&data, k), n).is_ok());
    }
}

/// Scalar per-element early-abandoning Euclidean reference.
fn scalar_ed_abandon(a: &[f32], b: &[f32], thr: f64) -> Option<f64> {
    let mut sum = 0.0f64;
    for (&x, &y) in a.iter().zip(b) {
        let d = (x - y) as f64;
        sum += d * d;
        if sum > thr {
            return None;
        }
    }
    Some(sum)
}

/// Scalar per-element early-abandoning LB_Keogh reference.
fn scalar_lb_keogh(
    env: &odyssey::core::distance::LbKeoghEnvelope,
    c: &[f32],
    thr: f64,
) -> Option<f64> {
    let mut sum = 0.0f64;
    for (i, &v) in c.iter().enumerate() {
        let d = if v > env.upper[i] {
            (v - env.upper[i]) as f64
        } else if v < env.lower[i] {
            (env.lower[i] - v) as f64
        } else {
            0.0
        };
        sum += d * d;
        if sum > thr {
            return None;
        }
    }
    Some(sum)
}

/// Max generated length of the kernel-property series; each case draws
/// full-length vectors plus a cut point, exercising every tail length
/// around the 32-element abandon blocks.
const KERNEL_PROP_LEN: usize = 200;

/// A max-length series for the kernel properties; tests slice it to the
/// drawn length.
fn kernel_series() -> proptest::collection::VecStrategy<std::ops::Range<f32>> {
    proptest::collection::vec(-5.0f32..5.0, KERNEL_PROP_LEN)
}

proptest! {
    // Blocked-kernel equivalence properties (the 4-accumulator
    // early-abandoning kernels vs their scalar references).
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn blocked_ed_early_abandon_matches_scalar(
        raw_a in kernel_series(),
        raw_b in kernel_series(),
        len in 1usize..=KERNEL_PROP_LEN,
        factor in 0.05f64..3.0,
    ) {
        let (a, b) = (&raw_a[..len], &raw_b[..len]);
        let full = euclidean_sq(a, b);
        let thr = full * factor;
        // Skip the exact boundary, where summation order alone decides
        // the Some/None outcome.
        if (full - thr).abs() <= 1e-6 * (1.0 + full) {
            return Ok(());
        }
        match (euclidean_sq_early_abandon(a, b, thr), scalar_ed_abandon(a, b, thr)) {
            (None, None) => {}
            (Some(x), Some(y)) => prop_assert!(
                (x - y).abs() <= 1e-9 * (1.0 + y),
                "blocked {} vs scalar {}", x, y
            ),
            (got, want) => prop_assert!(false, "blocked {:?} vs scalar {:?}", got, want),
        }
        // Unbounded: the blocked kernel equals the plain kernel.
        let unbounded = euclidean_sq_early_abandon(a, b, f64::INFINITY).unwrap();
        prop_assert!((unbounded - full).abs() <= 1e-9 * (1.0 + full));
    }

    #[test]
    fn blocked_lb_keogh_matches_scalar(
        raw_q in kernel_series(),
        raw_c in kernel_series(),
        len in 1usize..=KERNEL_PROP_LEN,
        window in 0usize..12,
        factor in 0.05f64..3.0,
    ) {
        let (q, c) = (&raw_q[..len], &raw_c[..len]);
        let env = keogh_envelope(q, window);
        let full = scalar_lb_keogh(&env, c, f64::INFINITY).unwrap();
        let thr = full * factor;
        if (full - thr).abs() <= 1e-6 * (1.0 + full) {
            return Ok(());
        }
        match (lb_keogh_sq(&env, c, thr), scalar_lb_keogh(&env, c, thr)) {
            (None, None) => {}
            (Some(x), Some(y)) => prop_assert!(
                (x - y).abs() <= 1e-9 * (1.0 + y),
                "blocked {} vs scalar {}", x, y
            ),
            (got, want) => prop_assert!(false, "blocked {:?} vs scalar {:?}", got, want),
        }
    }
}

proptest! {
    // The engine-vs-brute-force property runs fewer cases: each case
    // builds an index.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn persist_roundtrip_for_arbitrary_collections(
        seed in any::<u64>(),
        n in 20usize..200,
        segs in 2usize..12,
        cap in 4usize..40,
    ) {
        let data = odyssey::workloads::generator::noisy_walk(n, 48, seed);
        let index = Index::build(
            data,
            IndexConfig::new(48).with_segments(segs).with_leaf_capacity(cap),
            1,
        );
        let mut bytes = Vec::new();
        odyssey::core::persist::save_index(&index, &mut bytes).expect("save");
        let loaded = odyssey::core::persist::load_index(&mut bytes.as_slice())
            .expect("load");
        prop_assert_eq!(loaded.num_series(), n);
        prop_assert_eq!(loaded.forest().len(), index.forest().len());
        let qb = odyssey::workloads::generator::random_walk(1, 48, seed ^ 0x5);
        let q = qb.series(0);
        let a = BatchEngine::new(Arc::new(index), 1).exact(q, &SearchParams::new(1));
        let b = BatchEngine::new(Arc::new(loaded), 1).exact(q, &SearchParams::new(1));
        prop_assert_eq!(a.answer.distance, b.answer.distance);
    }

    #[test]
    fn epsilon_guarantee_for_arbitrary_inputs(
        seed in any::<u64>(),
        eps in 0.0f64..3.0,
    ) {
        let data = odyssey::workloads::generator::random_walk(300, 32, seed);
        let index = Index::build(
            data.clone(),
            IndexConfig::new(32).with_segments(8).with_leaf_capacity(16),
            1,
        );
        let qb = odyssey::workloads::generator::random_walk(1, 32, seed ^ 0xE);
        let q = qb.series(0);
        let exact = index.brute_force(q);
        let (got, _) = BatchEngine::new(Arc::new(index), 1).epsilon(q, eps, &SearchParams::new(1));
        prop_assert!(got.distance <= (1.0 + eps) * exact.distance + 1e-9);
        prop_assert!(got.distance >= exact.distance - 1e-9);
    }

    #[test]
    fn engine_equals_brute_force_for_arbitrary_parameters(
        seed in any::<u64>(),
        n_threads in 1usize..4,
        nsb in 1usize..10,
        th in 1usize..64,
        leaf_cap in 4usize..64,
    ) {
        let data = odyssey::workloads::generator::random_walk(400, 32, seed);
        let index = Index::build(
            data.clone(),
            IndexConfig::new(32).with_segments(8).with_leaf_capacity(leaf_cap),
            2,
        );
        let q = odyssey::workloads::generator::random_walk(1, 32, seed ^ 0xFFFF);
        let q = q.series(0);
        let want = index.brute_force(q);
        let params = SearchParams::new(n_threads).with_nsb(nsb).with_th(th);
        let got = BatchEngine::new(Arc::new(index), n_threads).exact(q, &params);
        prop_assert!((got.answer.distance - want.distance).abs() < 1e-9);
    }

    #[test]
    fn root_bounds_are_data_tight_sound_and_survive_persistence(
        seed in any::<u64>(),
        segs in 2usize..6,
        cap in 2usize..16,
        window in 0usize..6,
    ) {
        // Few segments and small leaves force split roots. For every root
        // and both kernels: node_lb(root word) <= root_lb <= series_lb of
        // each series stored under the root — exactly, not within an
        // epsilon (the root bound sums per-segment minima in the same
        // order, and IEEE addition is monotone).
        let data = odyssey::workloads::generator::random_walk(300, 32, seed);
        let index = Index::build(
            data,
            IndexConfig::new(32).with_segments(segs).with_leaf_capacity(cap),
            2,
        );
        let forest = index.forest();
        prop_assert!(forest.iter().any(|t| t.node.leaf_count() > 1), "no split root");
        let qb = odyssey::workloads::generator::random_walk(1, 32, seed ^ 0x5EED);
        let q = qb.series(0);
        let ed = EdKernel::new(q, segs);
        let dtw = DtwKernel::new(q, window, segs);
        let kernels: [(&str, &dyn QueryKernel); 2] = [("ED", &ed), ("DTW", &dtw)];
        let layout = index.layout();
        for (name, kernel) in kernels {
            let mut root_lb = vec![0.0f64; forest.len()];
            kernel.root_lb_block(forest, index.root_soa(), 0..forest.len(), &mut root_lb);
            for (r, t) in forest.iter().enumerate() {
                let word_lb = kernel.node_lb_sq(t.node.word());
                prop_assert!(word_lb <= root_lb[r], "{name} root {r}: {word_lb} > {}", root_lb[r]);
                let mut min_series = f64::INFINITY;
                t.node.for_each_leaf(&mut |leaf| {
                    for p in leaf.slice.range() {
                        min_series = min_series.min(kernel.series_lb_sq(layout.sax(p)));
                    }
                });
                let lb = root_lb[r];
                prop_assert!(lb <= min_series, "{name} root {r}: {lb} > {min_series}");
            }
        }
        // Saved and loaded: the planes are rebuilt byte for byte, and the
        // answers match bit for bit.
        let mut file = Vec::new();
        odyssey::core::persist::save_index(&index, &mut file).expect("save to memory");
        let loaded = odyssey::core::persist::load_index(&mut file.as_slice()).expect("load");
        prop_assert!(loaded.root_soa() == index.root_soa(), "root planes differ after load");
        let params = SearchParams::new(2);
        let (a, b) = (BatchEngine::new(Arc::new(index), 2), BatchEngine::new(Arc::new(loaded), 2));
        let bits = |d: f64, id: Option<u32>| (d.to_bits(), id);
        let (ea, eb) = (a.exact(q, &params).answer, b.exact(q, &params).answer);
        prop_assert_eq!(bits(ea.distance_sq, ea.series_id), bits(eb.distance_sq, eb.series_id));
        let (da, db) = (a.dtw(q, window, &params).0, b.dtw(q, window, &params).0);
        prop_assert_eq!(bits(da.distance_sq, da.series_id), bits(db.distance_sq, db.series_id));
        prop_assert_eq!(a.knn(q, 5, &params).0.neighbors, b.knn(q, 5, &params).0.neighbors);
    }

    #[test]
    fn soundness_chain_holds_under_leaf_contiguous_layout(
        seed in any::<u64>(),
        segs in 2usize..12,
        cap in 4usize..32,
    ) {
        // For every leaf and every scan position inside it:
        // node_lb(leaf word) <= series_lb(scan sax) <= true distance —
        // the chain that makes pruning over the permuted layout exact.
        // Also pins the layout's position/id coherence.
        let data = odyssey::workloads::generator::noisy_walk(250, 48, seed);
        let index = Index::build(
            data,
            IndexConfig::new(48).with_segments(segs).with_leaf_capacity(cap),
            2,
        );
        let qb = odyssey::workloads::generator::random_walk(1, 48, seed ^ 0x99);
        let q = qb.series(0);
        let kernel = EdKernel::new(q, segs);
        let layout = index.layout();
        for st in index.forest() {
            let mut ok = Ok(());
            st.node.for_each_leaf(&mut |leaf| {
                if ok.is_err() {
                    return;
                }
                let node_lb = kernel.node_lb_sq(&leaf.word);
                for p in leaf.slice.range() {
                    let id = layout.original_id(p);
                    if layout.sax(p) != index.sax_by_id(id) {
                        ok = Err("scan sax diverges from summaries");
                        return;
                    }
                    if layout.series(p) != index.series_by_id(id) {
                        ok = Err("scan data diverges from id lookup");
                        return;
                    }
                    let series_lb = kernel.series_lb_sq(layout.sax(p));
                    let real = euclidean_sq(q, layout.series(p));
                    if node_lb > series_lb + 1e-9 {
                        ok = Err("node_lb exceeds series_lb");
                        return;
                    }
                    if series_lb > real + 1e-6 {
                        ok = Err("series_lb exceeds the true distance");
                        return;
                    }
                }
            });
            prop_assert!(ok.is_ok(), "{}", ok.unwrap_err());
        }
        // Sanity: the leaf view above saw a real partition of the data.
        let covered: usize = index
            .forest()
            .iter()
            .map(|st| st.node.series_count())
            .sum();
        prop_assert_eq!(covered, index.num_series());
    }

    #[test]
    fn knn_contains_the_1nn_answer(
        seed in any::<u64>(),
        k in 1usize..8,
    ) {
        let data = odyssey::workloads::generator::random_walk(300, 32, seed);
        let index = Index::build(
            data.clone(),
            IndexConfig::new(32).with_segments(8).with_leaf_capacity(16),
            1,
        );
        let qbuf = odyssey::workloads::generator::random_walk(1, 32, seed ^ 0xABCD);
        let q = qbuf.series(0);
        let index = Arc::new(index);
        let one = BatchEngine::new(Arc::clone(&index), 1).exact(q, &SearchParams::new(1)).answer;
        let (knn, _) = BatchEngine::new(index, 2).knn(q, k, &SearchParams::new(2));
        prop_assert!((knn.neighbors[0].0 - one.distance_sq).abs() < 1e-9);
        // Sorted ascending.
        for w in knn.neighbors.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
        }
    }
}
