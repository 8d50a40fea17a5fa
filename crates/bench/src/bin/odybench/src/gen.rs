//! Seeded inputs. Every series and query is a pure function of
//! `(seed, index)`, so generation can be split over threads and still
//! repeat bit for bit; [`fnv64`] of the result is printed by each
//! workload so two runs can show they saw identical inputs.

use crate::rng::{sub_seed, Rng};
use odyssey_core::series::DatasetBuffer;

/// The shape of the indexed collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Walk {
    /// Cumulative sums of unit-variance steps (the paper's *Random*).
    Random,
    /// Random walk with 0–3 bursts of 10× step variance (seismic-like:
    /// query difficulty varies widely over such a collection).
    Noisy,
}

/// Z-normalises in place, accumulating in `f64`. A constant series
/// becomes all zeros.
pub fn znormalize(s: &mut [f32]) {
    let n = s.len() as f64;
    let mean = s.iter().map(|&v| v as f64).sum::<f64>() / n;
    let var = s.iter().map(|&v| (v as f64 - mean).powi(2)).sum::<f64>() / n;
    let sd = var.sqrt();
    if sd < 1e-12 {
        s.fill(0.0);
        return;
    }
    for v in s.iter_mut() {
        *v = ((*v as f64 - mean) / sd) as f32;
    }
}

fn fill_walk(kind: Walk, out: &mut [f32], rng: &mut Rng) {
    let len = out.len();
    let mut bursts = [(0usize, 0usize); 3];
    let mut n_bursts = 0;
    if kind == Walk::Noisy {
        n_bursts = rng.below(4);
        for b in bursts.iter_mut().take(n_bursts) {
            let start = rng.below(len);
            let span = len / 16 + rng.below(len / 4 - len / 16 + 1);
            *b = (start, (start + span).min(len));
        }
    }
    let mut acc = 0.0f32;
    for (i, v) in out.iter_mut().enumerate() {
        let in_burst = bursts[..n_bursts].iter().any(|&(a, b)| i >= a && i < b);
        let sigma = if in_burst { 10.0 } else { 1.0 };
        acc += sigma * rng.gauss();
        *v = acc;
    }
    znormalize(out);
}

/// `n` z-normalised walks of length `len`, generated on `threads`
/// threads. Series `i` depends only on `(seed, i)`.
pub fn walk_collection(
    kind: Walk,
    n: usize,
    len: usize,
    seed: u64,
    threads: usize,
) -> DatasetBuffer {
    assert!(len >= 16, "bursts assume at least 16 points");
    let mut data = vec![0.0f32; n * len];
    let per = n.div_ceil(threads.max(1)).max(1);
    std::thread::scope(|scope| {
        for (c, chunk) in data.chunks_mut(per * len).enumerate() {
            scope.spawn(move || {
                for (j, s) in chunk.chunks_mut(len).enumerate() {
                    let i = (c * per + j) as u64;
                    fill_walk(kind, s, &mut Rng::new(sub_seed(seed, i)));
                }
            });
        }
    });
    DatasetBuffer::from_vec(data, len)
}

/// `n` queries, each an indexed series plus white noise of a relative
/// amplitude drawn without replacement from `n` levels spaced evenly
/// over `[lo, hi]`, z-normalised. Low noise means the approximate
/// search seeds a tight bound and the index prunes almost everything;
/// the levels are shuffled so difficulty does not ramp with the index.
pub fn graded_queries(
    data: &DatasetBuffer,
    n: usize,
    lo: f32,
    hi: f32,
    seed: u64,
) -> DatasetBuffer {
    let len = data.series_len();
    let mut rng = Rng::new(sub_seed(seed, 0x6AAD));
    let mut levels: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        levels.swap(i, rng.below(i + 1));
    }
    let mut out = Vec::with_capacity(n * len);
    for &level in &levels {
        let t = level as f32 / (n.max(2) - 1) as f32;
        let noise = lo + t * (hi - lo);
        let base = data.series(rng.below(data.num_series()));
        let start = out.len();
        out.extend(base.iter().map(|&v| v + noise * rng.gauss()));
        znormalize(&mut out[start..]);
    }
    DatasetBuffer::from_vec(out, len)
}

/// `n` z-normalised white-noise queries: their PAA is near zero on
/// every segment, so iSAX lower bounds are loose and pruning collapses.
pub fn white_queries(n: usize, len: usize, seed: u64) -> DatasetBuffer {
    let mut rng = Rng::new(sub_seed(seed, 0x3417E));
    let mut out = Vec::with_capacity(n * len);
    for _ in 0..n {
        let start = out.len();
        out.extend((0..len).map(|_| rng.gauss()));
        znormalize(&mut out[start..]);
    }
    DatasetBuffer::from_vec(out, len)
}

/// How many white-noise queries each of `batches` batches of `size`
/// holds when `hard_share` of all queries are white noise: the counts a
/// binomial draw would spread them into, taken at evenly spaced
/// quantiles, nudged to the exact total and shuffled. Every seed thus
/// meets the same mix of light and heavy batches (so medians and tails
/// over batches repeat) while which batch is heavy moves with the seed.
pub fn hard_counts(batches: usize, size: usize, hard_share: f64, rng: &mut Rng) -> Vec<usize> {
    // Binomial(size, hard_share) mass, by the usual recurrence.
    let mut pmf = vec![0.0f64; size + 1];
    pmf[0] = (1.0 - hard_share).powi(size as i32);
    for k in 1..=size {
        pmf[k] = pmf[k - 1] * (size - k + 1) as f64 / k as f64 * hard_share / (1.0 - hard_share);
    }
    let mut counts: Vec<usize> = (0..batches)
        .map(|i| {
            let q = (i as f64 + 0.5) / batches as f64;
            let mut cdf = 0.0;
            pmf.iter()
                .position(|&m| {
                    cdf += m;
                    cdf >= q
                })
                .unwrap_or(size)
        })
        .collect();
    let target = (hard_share * (batches * size) as f64).round() as usize;
    // Quantiles land within a few of the total; settle the difference on
    // the middle batches, one each.
    let mut i = batches / 2;
    while counts.iter().sum::<usize>() != target {
        if counts.iter().sum::<usize>() < target {
            counts[i % batches] = (counts[i % batches] + 1).min(size);
        } else {
            counts[i % batches] = counts[i % batches].saturating_sub(1);
        }
        i += 1;
    }
    for i in (1..batches).rev() {
        counts.swap(i, rng.below(i + 1));
    }
    counts
}

/// `batches` batches of `size` queries, batch `b` holding
/// `hard_counts(..)[b]` white-noise queries at random positions and
/// otherwise indexed series plus `noise`.
pub fn skewed_batches(
    data: &DatasetBuffer,
    batches: usize,
    size: usize,
    hard_share: f64,
    noise: f32,
    seed: u64,
) -> Vec<DatasetBuffer> {
    let len = data.series_len();
    let mut rng = Rng::new(sub_seed(seed, 0x313D));
    hard_counts(batches, size, hard_share, &mut rng)
        .into_iter()
        .map(|n_hard| {
            let mut slots: Vec<usize> = (0..size).collect();
            let mut hard = vec![false; size];
            for i in 0..n_hard {
                slots.swap(i, i + rng.below(size - i));
                hard[slots[i]] = true;
            }
            let mut out = Vec::with_capacity(size * len);
            for is_hard in hard {
                let start = out.len();
                if is_hard {
                    out.extend((0..len).map(|_| rng.gauss()));
                } else {
                    let base = data.series(rng.below(data.num_series()));
                    out.extend(base.iter().map(|&v| v + noise * rng.gauss()));
                }
                znormalize(&mut out[start..]);
            }
            DatasetBuffer::from_vec(out, len)
        })
        .collect()
}

/// FNV-1a over the bit patterns of `values`, two `f32` per step, folded
/// into `state`. Start from [`FNV_OFFSET`].
pub fn fnv64(mut state: u64, values: &[f32]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut pairs = values.chunks_exact(2);
    for p in &mut pairs {
        let word = (p[0].to_bits() as u64) | ((p[1].to_bits() as u64) << 32);
        state = (state ^ word).wrapping_mul(PRIME);
    }
    for v in pairs.remainder() {
        state = (state ^ v.to_bits() as u64).wrapping_mul(PRIME);
    }
    state
}

/// The FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collections_do_not_depend_on_the_thread_count() {
        for kind in [Walk::Random, Walk::Noisy] {
            let a = walk_collection(kind, 301, 64, 9, 1);
            let b = walk_collection(kind, 301, 64, 9, 3);
            assert_eq!(fnv64(FNV_OFFSET, a.raw()), fnv64(FNV_OFFSET, b.raw()));
            let c = walk_collection(kind, 301, 64, 10, 3);
            assert_ne!(fnv64(FNV_OFFSET, a.raw()), fnv64(FNV_OFFSET, c.raw()));
        }
    }

    #[test]
    fn series_and_queries_are_znormalised() {
        let data = walk_collection(Walk::Noisy, 40, 128, 1, 2);
        let sets = [
            data.clone(),
            graded_queries(&data, 16, 0.02, 0.8, 2),
            white_queries(16, 128, 3),
            skewed_batches(&data, 2, 8, 0.3, 0.1, 4).swap_remove(1),
        ];
        for set in &sets {
            for i in 0..set.num_series() {
                let s = set.series(i);
                let mean = s.iter().map(|&v| v as f64).sum::<f64>() / s.len() as f64;
                let var =
                    s.iter().map(|&v| (v as f64 - mean).powi(2)).sum::<f64>() / s.len() as f64;
                assert!(
                    mean.abs() < 1e-4 && (var - 1.0).abs() < 1e-3,
                    "mean {mean} var {var}"
                );
            }
        }
    }

    #[test]
    fn skewed_batches_hold_an_exact_share_of_hard_queries() {
        // A white-noise query is far from every walk; a perturbed copy is
        // close to its base. Count the far ones over all batches.
        let data = walk_collection(Walk::Random, 200, 64, 7, 1);
        let mut profiles = Vec::new();
        for seed in [1, 2, 3] {
            let batches = skewed_batches(&data, 8, 15, 0.3, 0.1, seed);
            assert_eq!(batches.len(), 8);
            let mut per_batch = Vec::new();
            for b in &batches {
                assert_eq!(b.num_series(), 15);
                let far = (0..15)
                    .filter(|&i| {
                        let nearest = (0..data.num_series())
                            .map(|j| {
                                b.series(i)
                                    .iter()
                                    .zip(data.series(j))
                                    .map(|(x, y)| ((x - y) as f64).powi(2))
                                    .sum::<f64>()
                            })
                            .fold(f64::INFINITY, f64::min);
                        nearest > 10.0
                    })
                    .count();
                per_batch.push(far);
            }
            assert_eq!(
                per_batch.iter().sum::<usize>(),
                36,
                "30 % of 120 queries: {per_batch:?}"
            );
            assert!(
                per_batch.iter().max() > per_batch.iter().min(),
                "batches must differ: {per_batch:?}"
            );
            let mut sorted = per_batch.clone();
            sorted.sort_unstable();
            profiles.push((sorted, per_batch));
        }
        // Every seed meets the same mix of batches, in a different order.
        assert!(
            profiles.windows(2).all(|w| w[0].0 == w[1].0),
            "{profiles:?}"
        );
        assert!(
            profiles.windows(2).any(|w| w[0].1 != w[1].1),
            "{profiles:?}"
        );
    }

    #[test]
    fn hard_counts_follow_the_binomial_shape() {
        let counts = {
            let mut c = hard_counts(16, 15, 0.3, &mut Rng::new(1));
            c.sort_unstable();
            c
        };
        assert_eq!(counts, [1, 2, 3, 3, 3, 4, 4, 4, 5, 5, 5, 6, 6, 6, 7, 8]);
        assert_eq!(counts.iter().sum::<usize>(), 72);
    }

    #[test]
    fn graded_queries_span_the_noise_range() {
        // The closest indexed series is the base at low noise and far
        // from it at high noise: distances to the base must spread.
        let data = walk_collection(Walk::Random, 64, 128, 5, 1);
        let q = graded_queries(&data, 32, 0.02, 0.8, 6);
        let nearest = |i: usize| {
            (0..data.num_series())
                .map(|j| {
                    q.series(i)
                        .iter()
                        .zip(data.series(j))
                        .map(|(a, b)| ((a - b) as f64).powi(2))
                        .sum::<f64>()
                })
                .fold(f64::INFINITY, f64::min)
        };
        let d: Vec<f64> = (0..32).map(nearest).collect();
        let lo = d.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = d.iter().cloned().fold(0.0, f64::max);
        assert!(hi > 20.0 * lo, "nearest distances {lo}..{hi}");
    }
}
