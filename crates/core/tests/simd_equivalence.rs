//! SIMD ↔ scalar equivalence suite: the dispatched kernels must be
//! **bit-identical** to their scalar fallbacks on every input shape the
//! engine produces — that is the contract that lets the batch, lane,
//! and cluster bit-identity suites keep holding regardless of which CPU
//! (or `ODYSSEY_SIMD` setting) a node runs on.
//!
//! On an AVX2 machine with no scalar override, these tests compare the
//! AVX2 kernels against the scalar reference; under `ODYSSEY_SIMD=scalar`
//! (the `xtask scalar` tier) they degenerate to scalar-vs-scalar, which
//! keeps the suite runnable — the forced-scalar tier's purpose is the
//! *rest* of the test suite exercising the fallback end to end.
//!
//! The shapes stressed here, per the kernels' dispatch seams:
//! * lengths that are not multiples of the 4-lane width, the 8-wide
//!   gather, or the 32-element abandon block (tail handling);
//! * every segment count 1..=64 plus ragged starts and lengths 0..=40
//!   (row-major leaf sweep);
//! * arbitrary `lo <= hi` symbol intervals under point (ED) and
//!   envelope (DTW) tables (root sweep);
//! * early-abandon thresholds placed exactly at block-boundary partial
//!   sums (the inclusive/exclusive abandon edge), all NaN-free.

use odyssey_core::distance::{
    dtw_banded, dtw_banded_scalar, euclidean_sq_early_abandon, euclidean_sq_early_abandon_scalar,
    keogh_envelope, lb_keogh_sq, lb_keogh_sq_scalar,
};
use odyssey_core::distance::simd::dispatch_name;

/// Deterministic pseudo-random series (same xorshift walk the in-crate
/// tests use), NaN-free by construction.
fn pseudo_series(seed: u64, len: usize) -> Vec<f32> {
    let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut out = Vec::with_capacity(len);
    let mut acc = 0.0f32;
    for _ in 0..len {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc += ((x % 2000) as f32 / 1000.0) - 1.0;
        out.push(acc);
    }
    out
}

/// Lengths straddling every vector seam: the 4-lane chunk, the 8-wide
/// gather, and the 32-element abandon block.
const LENGTHS: &[usize] = &[
    0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 37, 63, 64, 65, 95, 96, 97, 127, 128, 129,
    255, 256, 257,
];

fn assert_opt_bits_eq(got: Option<f64>, want: Option<f64>, ctx: &str) {
    match (got, want) {
        (None, None) => {}
        (Some(g), Some(w)) => assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{ctx}: value mismatch ({g} vs {w}) under dispatch {}",
            dispatch_name()
        ),
        _ => panic!(
            "{ctx}: abandon decision mismatch ({got:?} vs {want:?}) under dispatch {}",
            dispatch_name()
        ),
    }
}

/// The scalar kernel's own partial sum after `k` elements — used to
/// place thresholds exactly on abandon-check boundaries.
fn ed_prefix_sum(a: &[f32], b: &[f32], k: usize) -> f64 {
    let mut acc = [0.0f64; 4];
    for (i, (x, y)) in a.iter().zip(b).take(k).enumerate() {
        let d = (x - y) as f64;
        acc[i % 4] += d * d;
    }
    acc[0] + acc[1] + acc[2] + acc[3]
}

#[test]
fn euclidean_early_abandon_matches_scalar_across_tail_lengths() {
    for &len in LENGTHS {
        let a = pseudo_series(len as u64 + 1, len);
        let b = pseudo_series(len as u64 + 1000, len);
        for thr in [f64::INFINITY, 1e9, 100.0, 1.0, 0.0] {
            let got = euclidean_sq_early_abandon(&a, &b, thr);
            let want = euclidean_sq_early_abandon_scalar(&a, &b, thr);
            assert_opt_bits_eq(got, want, &format!("ED len={len} thr={thr}"));
        }
    }
}

#[test]
fn euclidean_abandon_at_block_boundary_is_bit_exact() {
    // Thresholds equal to the kernel's own partial sum at each abandon
    // check (k = 32, 64, ...) and the full sum: the > comparison is
    // exclusive, so an exactly-equal threshold must NOT abandon there —
    // in both paths.
    for &len in &[32usize, 33, 64, 96, 100, 129, 256] {
        let a = pseudo_series(7, len);
        let b = pseudo_series(8, len);
        let mut boundaries: Vec<usize> = (1..=len / 32).map(|blk| blk * 32).collect();
        boundaries.push(len);
        for k in boundaries {
            let s = ed_prefix_sum(&a, &b, k);
            for thr in [s, f64_next_down(s), f64_next_up(s)] {
                let got = euclidean_sq_early_abandon(&a, &b, thr);
                let want = euclidean_sq_early_abandon_scalar(&a, &b, thr);
                assert_opt_bits_eq(got, want, &format!("ED boundary len={len} k={k} thr={thr}"));
            }
        }
    }
}

fn f64_next_up(v: f64) -> f64 {
    f64::from_bits(v.to_bits() + 1)
}

fn f64_next_down(v: f64) -> f64 {
    f64::from_bits(v.to_bits() - 1)
}

/// The scalar LB_Keogh partial sum after `k` elements.
fn keogh_prefix_sum(u: &[f32], l: &[f32], c: &[f32], k: usize) -> f64 {
    let mut acc = [0.0f64; 4];
    for i in 0..k {
        let d = (c[i] - u[i]).max(l[i] - c[i]).max(0.0) as f64;
        acc[i % 4] += d * d;
    }
    acc[0] + acc[1] + acc[2] + acc[3]
}

#[test]
fn lb_keogh_matches_scalar_across_tail_lengths_and_windows() {
    for &len in LENGTHS {
        let q = pseudo_series(len as u64 + 31, len);
        let c = pseudo_series(len as u64 + 77, len);
        for window in [0usize, 1, 3, 8] {
            let env = keogh_envelope(&q, window);
            for thr in [f64::INFINITY, 1e6, 10.0, 0.0] {
                let got = lb_keogh_sq(&env, &c, thr);
                let want = lb_keogh_sq_scalar(&env.upper, &env.lower, &c, thr);
                assert_opt_bits_eq(got, want, &format!("LBK len={len} w={window} thr={thr}"));
            }
        }
    }
}

#[test]
fn lb_keogh_abandon_at_block_boundary_is_bit_exact() {
    for &len in &[32usize, 64, 97, 128, 200] {
        let q = pseudo_series(3, len);
        let c = pseudo_series(5, len);
        let env = keogh_envelope(&q, 4);
        let mut boundaries: Vec<usize> = (1..=len / 32).map(|blk| blk * 32).collect();
        boundaries.push(len);
        for k in boundaries {
            let s = keogh_prefix_sum(&env.upper, &env.lower, &c, k);
            for thr in [s, f64_next_down(s.max(f64::MIN_POSITIVE)), f64_next_up(s)] {
                let got = lb_keogh_sq(&env, &c, thr);
                let want = lb_keogh_sq_scalar(&env.upper, &env.lower, &c, thr);
                assert_opt_bits_eq(got, want, &format!("LBK boundary len={len} k={k}"));
            }
        }
    }
}

#[test]
fn dtw_banded_matches_scalar_across_lengths_windows_thresholds() {
    for &len in &[1usize, 2, 3, 5, 7, 9, 16, 17, 33, 40, 64, 65, 100] {
        let a = pseudo_series(len as u64 + 11, len);
        let b = pseudo_series(len as u64 + 500, len);
        for window in [0usize, 1, 2, 3, 7, 15, len] {
            let full = dtw_banded_scalar(&a, &b, window, f64::INFINITY).expect("unbounded");
            for thr in [
                f64::INFINITY,
                full,
                f64_next_down(full.max(f64::MIN_POSITIVE)),
                full * 0.5,
                0.0,
            ] {
                let got = dtw_banded(&a, &b, window, thr);
                let want = dtw_banded_scalar(&a, &b, window, thr);
                assert_opt_bits_eq(got, want, &format!("DTW len={len} w={window} thr={thr}"));
            }
        }
    }
    assert_opt_bits_eq(dtw_banded(&[], &[], 3, 1.0), Some(0.0), "DTW empty");
}

#[test]
fn root_word_sweep_matches_word_lb_for_all_segment_counts() {
    use odyssey_core::paa::paa;
    use odyssey_core::sax::{sax_word_into, IsaxWord, MindistTable};
    use odyssey_core::tree::RootSoa;

    let series_len = 32;
    let n = 41; // odd: 8-wide body + tails
    for segments in 1..=16usize {
        let words: Vec<IsaxWord> = (0..n)
            .map(|r| {
                let s = pseudo_series(r as u64 + 6000, series_len);
                let mut sax = vec![0u8; segments];
                sax_word_into(&paa(&s, segments), &mut sax);
                // Mixed cardinalities 0..=8 across segments and roots.
                let card_bits: Vec<u8> = (0..segments).map(|i| ((r + i * 5) % 9) as u8).collect();
                let symbols: Vec<u8> = sax
                    .iter()
                    .zip(&card_bits)
                    .map(|(&sym, &bits)| if bits == 0 { 0 } else { sym >> (8 - bits) })
                    .collect();
                IsaxWord { symbols, card_bits }
            })
            .collect();
        let roots = RootSoa::from_words(words.iter().map(IsaxWord::view));
        let q = pseudo_series(4321, series_len);
        let table = MindistTable::from_paa(&paa(&q, segments), series_len);
        for range in [0..n, 0..8, 3..20, 5..6, 33..41, 40..41, 17..17] {
            let mut got = vec![0.0f64; range.len()];
            table.root_lb_block(&roots, range.clone(), &mut got);
            for (j, g) in got.iter().enumerate() {
                let want = table.word_lb_sq(words[range.start + j].view());
                assert_eq!(
                    g.to_bits(),
                    want.to_bits(),
                    "segments={segments} range={range:?} j={j} under dispatch {}",
                    dispatch_name()
                );
            }
        }
    }
}

#[test]
fn root_sweep_matches_scalar_on_arbitrary_intervals() {
    use odyssey_core::paa::paa;
    use odyssey_core::sax::{sax_word_into, MindistTable};
    use odyssey_core::tree::RootSoa;

    // The production root planes hold each subtree's data envelope, so
    // an interval need not be a power-of-two-aligned word range: any
    // `lo <= hi` byte pair, points and the whole symbol line included.
    let series_len = 32;
    let n = 41; // odd: 8-wide body + tails
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut byte = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x >> 24) as u8
    };
    for segments in 1..=16usize {
        let (mut lo, mut hi) = (vec![0u8; segments * n], vec![0u8; segments * n]);
        for k in 0..segments * n {
            let (a, b) = (byte(), byte());
            (lo[k], hi[k]) = match k % 7 {
                0 => (a, a),
                1 => (0, u8::MAX),
                _ => (a.min(b), a.max(b)),
            };
        }
        let roots = RootSoa::from_planes(lo.clone(), hi.clone(), segments);
        let qpaa = paa(&pseudo_series(segments as u64 + 77, series_len), segments);
        // A point table (ED) and an envelope table (DTW's segment hull);
        // each clamps the symbol of its envelope's lower end.
        let env_lo: Vec<f64> = qpaa
            .iter()
            .enumerate()
            .map(|(i, v)| v - 0.15 * (i % 4) as f64)
            .collect();
        let env_hi: Vec<f64> = qpaa
            .iter()
            .enumerate()
            .map(|(i, v)| v + 0.25 * (i % 3) as f64)
            .collect();
        let tables = [
            ("ED", MindistTable::from_paa(&qpaa, series_len), &qpaa),
            (
                "DTW",
                MindistTable::from_envelope(&env_lo, &env_hi, series_len),
                &env_lo,
            ),
        ];
        for (kind, table, lower_end) in &tables {
            let mut reference = vec![0u8; segments];
            sax_word_into(lower_end, &mut reference);
            for range in [0..n, 0..8, 3..20, 5..6, 33..41, 40..41, 17..17] {
                let mut got = vec![0.0f64; range.len()];
                table.root_lb_block(&roots, range.clone(), &mut got);
                for (j, g) in got.iter().enumerate() {
                    let r = range.start + j;
                    // The scalar reference: the series bound of the word
                    // whose every symbol is the clamped reference symbol.
                    let clamped: Vec<u8> = (0..segments)
                        .map(|i| reference[i].clamp(lo[i * n + r], hi[i * n + r]))
                        .collect();
                    let want = table.series_lb_sq(&clamped);
                    assert_eq!(
                        g.to_bits(),
                        want.to_bits(),
                        "{kind} segments={segments} range={range:?} j={j} under dispatch {}",
                        dispatch_name()
                    );
                    // And it bounds every word inside the interval.
                    let inside: Vec<u8> = (0..segments)
                        .map(|i| {
                            let (l, h) = (lo[i * n + r], hi[i * n + r]);
                            l + ((h - l) as u32 * (byte() as u32) / 255) as u8
                        })
                        .collect();
                    assert!(*g <= table.series_lb_sq(&inside), "{kind} root {r} unsound");
                }
            }
        }
    }
}

#[test]
fn row_major_block_sweep_matches_per_word_for_all_segment_counts() {
    use odyssey_core::buffers::Summaries;
    use odyssey_core::layout::LeafLayout;
    use odyssey_core::sax::MindistTable;
    use odyssey_core::search::kernel::{EdKernel, QueryKernel};
    use odyssey_core::series::DatasetBuffer;

    // 1..=64 segments: the kernel works in 16-byte chunks, so 17..=64
    // add chunk seams and every count not a multiple of 16 a ragged
    // last chunk. Ranges start off any multiple of 4 or 8 and run
    // 0..=40 words, so they end anywhere in a quad — including on the
    // layout's last word, where chunk loads must not leave the block.
    let series_len = 64;
    let n = 53;
    let mut raw = Vec::with_capacity(n * series_len);
    for s in 0..n as u64 {
        raw.extend_from_slice(&pseudo_series(s + 9000, series_len));
    }
    let data = DatasetBuffer::from_vec(raw, series_len);
    let q = pseudo_series(1234, series_len);
    for segments in 1..=64usize {
        let summaries = Summaries::compute(&data, segments, 1);
        // A non-identity permutation, so positions and ids differ.
        let perm: Vec<u32> = (0..n as u32).map(|p| (p * 7 + 3) % n as u32).collect();
        let layout = LeafLayout::build(&data, &summaries, perm);
        let kernel = EdKernel::new(&q, segments);
        let table = MindistTable::from_paa(&odyssey_core::paa::paa(&q, segments), series_len);
        for start in [0, 1, 3, 5, 8, 13] {
            for len in 0..=40.min(n - start) {
                let range = start..start + len;
                let mut got = vec![f64::NAN; len];
                table.block_lb_sq(layout.sax_block(range.clone()), &mut got);
                let mut via_kernel = vec![f64::NAN; len];
                kernel.lb_block_at(&layout, range.clone(), &mut via_kernel);
                for (j, (g, k)) in got.iter().zip(&via_kernel).enumerate() {
                    let want = table.series_lb_sq(layout.sax(start + j));
                    assert_eq!(
                        (g.to_bits(), k.to_bits()),
                        (want.to_bits(), want.to_bits()),
                        "segments={segments} range={range:?} j={j} under dispatch {}",
                        dispatch_name()
                    );
                }
            }
        }
        // The layout's tail: ranges ending on the last word.
        for start in n - 9..n {
            let mut got = vec![f64::NAN; n - start];
            table.block_lb_sq(layout.sax_block(start..n), &mut got);
            for (j, g) in got.iter().enumerate() {
                let want = table.series_lb_sq(layout.sax(start + j));
                assert_eq!(
                    g.to_bits(),
                    want.to_bits(),
                    "segments={segments} tail from {start}"
                );
            }
        }
    }
}
