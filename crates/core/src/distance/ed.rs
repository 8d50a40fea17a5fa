//! Euclidean distance kernels.
//!
//! The hot path of query answering is `euclidean_sq_early_abandon`: it is
//! called once per non-pruned candidate series and abandons the scan as
//! soon as the running sum exceeds the current best-so-far. The plain
//! kernel is written over fixed-width chunks so the compiler can
//! auto-vectorize it — this plays the role of the hand-written SIMD (AVX)
//! kernels of the paper's C implementation.

/// Width of the manually unrolled accumulation lanes. Eight `f32` lanes
/// match one AVX register, which is what the paper's SIMD kernels use.
const LANES: usize = 8;

/// Squared Euclidean distance between two equal-length series.
///
/// Accumulates in `f64` per lane to keep precision on long series.
///
/// # Panics
/// Panics in debug builds if the lengths differ.
#[inline]
pub fn euclidean_sq(a: &[f32], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f64; LANES];
    let chunks = a.len() / LANES;
    for c in 0..chunks {
        let base = c * LANES;
        for l in 0..LANES {
            let d = (a[base + l] - b[base + l]) as f64;
            acc[l] += d * d;
        }
    }
    let mut sum: f64 = acc.iter().sum();
    for i in chunks * LANES..a.len() {
        let d = (a[i] - b[i]) as f64;
        sum += d * d;
    }
    sum
}

/// Euclidean distance (the rooted value the paper reports).
#[inline]
pub fn euclidean(a: &[f32], b: &[f32]) -> f64 {
    euclidean_sq(a, b).sqrt()
}

/// Number of independent accumulators of the early-abandoning kernels:
/// breaking the additive dependency chain lets the compiler keep four
/// FMA chains in flight (and vectorize the inner loop).
const ACCS: usize = 4;

/// Elements processed between two abandon checks. Checking per block —
/// instead of per element or per 8-lane chunk — keeps the branch out of
/// the vectorizable inner loop; the cost is at most one extra block of
/// arithmetic past the abandon point, which is far cheaper than a
/// serialized inner loop.
const ABANDON_BLOCK: usize = 32;

/// Early-abandoning squared Euclidean distance.
///
/// Returns `None` as soon as the partial sum exceeds `threshold_sq`
/// (the current best-so-far, squared); otherwise returns the full
/// squared distance. Accumulates into [`ACCS`] independent lanes and
/// checks the abandon condition once per [`ABANDON_BLOCK`] elements.
///
/// The returned value may differ from [`euclidean_sq`] in the last few
/// ulps (different summation order); the `Some`/`None` decision is
/// exact with respect to this kernel's own sum.
///
/// Dispatches to the AVX2 kernel when
/// [`crate::distance::simd::avx2_available`] says so; the result is
/// bit-identical to [`euclidean_sq_early_abandon_scalar`] either way.
///
/// # Panics
/// Panics if the lengths differ.
#[inline]
pub fn euclidean_sq_early_abandon(a: &[f32], b: &[f32], threshold_sq: f64) -> Option<f64> {
    crate::distance::simd::euclidean_sq_early_abandon(a, b, threshold_sq)
}

/// The scalar (auto-vectorizable) body of [`euclidean_sq_early_abandon`]:
/// the always-available fallback, and the rounding reference the SIMD
/// path must reproduce bit for bit.
#[inline]
pub fn euclidean_sq_early_abandon_scalar(a: &[f32], b: &[f32], threshold_sq: f64) -> Option<f64> {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f64; ACCS];
    let mut blocks_a = a.chunks_exact(ABANDON_BLOCK);
    let mut blocks_b = b.chunks_exact(ABANDON_BLOCK);
    for (ba, bb) in blocks_a.by_ref().zip(blocks_b.by_ref()) {
        for (qa, qb) in ba.chunks_exact(ACCS).zip(bb.chunks_exact(ACCS)) {
            for l in 0..ACCS {
                let d = (qa[l] - qb[l]) as f64;
                acc[l] += d * d;
            }
        }
        if acc[0] + acc[1] + acc[2] + acc[3] > threshold_sq {
            return None;
        }
    }
    let mut sum = acc[0] + acc[1] + acc[2] + acc[3];
    for (&x, &y) in blocks_a.remainder().iter().zip(blocks_b.remainder()) {
        let d = (x - y) as f64;
        sum += d * d;
    }
    if sum > threshold_sq {
        None
    } else {
        Some(sum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_sq(a: &[f32], b: &[f32]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| {
                let d = (x - y) as f64;
                d * d
            })
            .sum()
    }

    #[test]
    fn matches_naive_on_odd_lengths() {
        for len in [1usize, 7, 8, 9, 15, 16, 17, 100, 256] {
            let a: Vec<f32> = (0..len).map(|i| (i as f32 * 0.37).sin()).collect();
            let b: Vec<f32> = (0..len).map(|i| (i as f32 * 0.11).cos()).collect();
            let got = euclidean_sq(&a, &b);
            let want = naive_sq(&a, &b);
            assert!(
                (got - want).abs() < 1e-9 * want.max(1.0),
                "len={len}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn zero_distance_to_self() {
        let a: Vec<f32> = (0..64).map(|i| i as f32).collect();
        assert_eq!(euclidean_sq(&a, &a), 0.0);
        assert_eq!(euclidean(&a, &a), 0.0);
    }

    #[test]
    fn early_abandon_agrees_when_below_threshold() {
        let a: Vec<f32> = (0..128).map(|i| (i as f32 * 0.2).sin()).collect();
        let b: Vec<f32> = (0..128).map(|i| (i as f32 * 0.2).cos()).collect();
        let full = euclidean_sq(&a, &b);
        let got = euclidean_sq_early_abandon(&a, &b, full + 1.0).expect("below threshold");
        assert!((got - full).abs() < 1e-9);
    }

    #[test]
    fn early_abandon_rejects_when_above_threshold() {
        let a = vec![0.0f32; 64];
        let b = vec![10.0f32; 64];
        assert!(euclidean_sq_early_abandon(&a, &b, 1.0).is_none());
    }

    #[test]
    fn early_abandon_boundary_is_inclusive() {
        let a = vec![0.0f32; 8];
        let b = vec![1.0f32; 8];
        // distance² is exactly 8.0; an equal threshold must keep it
        assert_eq!(euclidean_sq_early_abandon(&a, &b, 8.0), Some(8.0));
        assert_eq!(euclidean_sq_early_abandon(&a, &b, 7.999), None);
    }
}
