//! Dynamic Time Warping with the LB_Keogh lower bound (Section 4).
//!
//! The index needs **no structural change** for DTW queries: the paper
//! computes the LB_Keogh envelope of the query, uses the distance between a
//! candidate and the envelope as the lower bound for pruning, and only runs
//! the full banded DTW on survivors. `lb_keogh_sq` is that envelope
//! distance; `dtw_banded` is a Sakoe-Chiba-band DTW with early abandoning.

/// Upper/lower envelope of a query under a warping window, as used by
/// LB_Keogh. `upper[i]`/`lower[i]` are the max/min of the query over
/// `[i - w, i + w]`.
#[derive(Debug, Clone)]
pub struct LbKeoghEnvelope {
    /// Pointwise upper envelope.
    pub upper: Vec<f32>,
    /// Pointwise lower envelope.
    pub lower: Vec<f32>,
    /// Warping window (band half-width) in points.
    pub window: usize,
}

/// Computes the LB_Keogh envelope of `query` for warping window `window`
/// (in points; the paper sweeps 1%–15% of the series length).
///
/// Uses the monotonic-deque (Lemire) algorithm, O(n).
pub fn keogh_envelope(query: &[f32], window: usize) -> LbKeoghEnvelope {
    keogh_envelope_reusing(query, window, Vec::new(), Vec::new())
}

/// [`keogh_envelope`] reusing caller-provided buffer allocations for the
/// upper/lower envelopes (their contents are discarded; every slot is
/// rewritten). Callers that construct envelopes back to back — kernel
/// construction in a batch — hand the previous envelope's vectors back
/// in so the allocations are *cleared, not reallocated*.
pub fn keogh_envelope_reusing(
    query: &[f32],
    window: usize,
    upper: Vec<f32>,
    lower: Vec<f32>,
) -> LbKeoghEnvelope {
    ENVELOPE_DEQUES.with(|cell| {
        let (max_dq, min_dq) = &mut *cell.borrow_mut();
        max_dq.clear();
        min_dq.clear();
        keogh_envelope_with(query, window, max_dq, min_dq, upper, lower)
    })
}

thread_local! {
    /// Reusable monotonic-deque allocations for [`keogh_envelope`]: a
    /// worker computing DTW-query envelopes back to back (the batch
    /// engine's workload) allocates them once per thread, not per query.
    static ENVELOPE_DEQUES: std::cell::RefCell<(
        std::collections::VecDeque<usize>,
        std::collections::VecDeque<usize>,
    )> = const {
        std::cell::RefCell::new((std::collections::VecDeque::new(), std::collections::VecDeque::new()))
    };
}

fn keogh_envelope_with(
    query: &[f32],
    window: usize,
    max_dq: &mut std::collections::VecDeque<usize>,
    min_dq: &mut std::collections::VecDeque<usize>,
    mut upper: Vec<f32>,
    mut lower: Vec<f32>,
) -> LbKeoghEnvelope {
    let n = query.len();
    let w = window.min(n.saturating_sub(1));
    // The loop below writes every slot of both envelopes, so resizing
    // (not zeroing) recycled buffers is enough.
    upper.clear();
    upper.resize(n, 0.0);
    lower.clear();
    lower.resize(n, 0.0);
    // Deques of indices; front is the extremum of the current window.
    for i in 0..n + w {
        if i < n {
            while let Some(&b) = max_dq.back() {
                if query[b] <= query[i] {
                    max_dq.pop_back();
                } else {
                    break;
                }
            }
            max_dq.push_back(i);
            while let Some(&b) = min_dq.back() {
                if query[b] >= query[i] {
                    min_dq.pop_back();
                } else {
                    break;
                }
            }
            min_dq.push_back(i);
        }
        // The window centered at `c = i - w` covers [c - w, c + w] = [i - 2w, i].
        if i >= w {
            let c = i - w;
            while let Some(&f) = max_dq.front() {
                if f + w < c {
                    max_dq.pop_front();
                } else {
                    break;
                }
            }
            while let Some(&f) = min_dq.front() {
                if f + w < c {
                    min_dq.pop_front();
                } else {
                    break;
                }
            }
            upper[c] = query[*max_dq.front().expect("window never empty")];
            lower[c] = query[*min_dq.front().expect("window never empty")];
        }
    }
    LbKeoghEnvelope {
        upper,
        lower,
        window: w,
    }
}

/// Independent accumulators / abandon-check block of the LB_Keogh
/// kernel (mirrors the early-abandoning Euclidean kernel).
const ACCS: usize = 4;
const ABANDON_BLOCK: usize = 32;

/// Squared pointwise envelope excess, written branchless so the blocked
/// inner loop vectorizes: `max(c - upper, lower - c, 0)²`.
#[inline(always)]
fn env_excess_sq(c: f32, upper: f32, lower: f32) -> f64 {
    let d = (c - upper).max(lower - c).max(0.0) as f64;
    d * d
}

/// Squared LB_Keogh lower bound of the DTW distance between the enveloped
/// query and `candidate`. Early-abandons past `threshold_sq`, returning
/// `None` (candidate prunable). Accumulates into [`ACCS`] independent
/// lanes with one abandon check per [`ABANDON_BLOCK`] elements, so the
/// inner loop stays branch-free and vectorizable.
///
/// Dispatches to the AVX2 kernel when
/// [`crate::distance::simd::avx2_available`] says so; the result is
/// bit-identical to [`lb_keogh_sq_scalar`] either way.
///
/// # Panics
/// Panics if the envelope and `candidate` differ in length.
#[inline]
pub fn lb_keogh_sq(env: &LbKeoghEnvelope, candidate: &[f32], threshold_sq: f64) -> Option<f64> {
    crate::distance::simd::lb_keogh_sq(&env.upper, &env.lower, candidate, threshold_sq)
}

/// The scalar (auto-vectorizable) body of [`lb_keogh_sq`], over the raw
/// envelope slices: the always-available fallback, and the rounding
/// reference the SIMD path must reproduce bit for bit.
#[inline]
pub fn lb_keogh_sq_scalar(
    upper: &[f32],
    lower: &[f32],
    candidate: &[f32],
    threshold_sq: f64,
) -> Option<f64> {
    debug_assert_eq!(upper.len(), candidate.len());
    debug_assert_eq!(lower.len(), candidate.len());
    let mut acc = [0.0f64; ACCS];
    let mut bc = candidate.chunks_exact(ABANDON_BLOCK);
    let mut bu = upper.chunks_exact(ABANDON_BLOCK);
    let mut bl = lower.chunks_exact(ABANDON_BLOCK);
    for ((cb, ub), lb) in bc.by_ref().zip(bu.by_ref()).zip(bl.by_ref()) {
        for ((cq, uq), lq) in cb
            .chunks_exact(ACCS)
            .zip(ub.chunks_exact(ACCS))
            .zip(lb.chunks_exact(ACCS))
        {
            for l in 0..ACCS {
                acc[l] += env_excess_sq(cq[l], uq[l], lq[l]);
            }
        }
        if acc[0] + acc[1] + acc[2] + acc[3] > threshold_sq {
            return None;
        }
    }
    let mut sum = acc[0] + acc[1] + acc[2] + acc[3];
    for ((&c, &u), &l) in bc
        .remainder()
        .iter()
        .zip(bu.remainder())
        .zip(bl.remainder())
    {
        sum += env_excess_sq(c, u, l);
    }
    if sum > threshold_sq {
        None
    } else {
        Some(sum)
    }
}

/// Squared DTW distance constrained to a Sakoe-Chiba band of half-width
/// `window`, with early abandoning: returns `None` once every cell of a row
/// exceeds `threshold_sq`.
///
/// Uses a two-row dynamic program, O(n·window) time and O(n) space. The
/// rows live in a per-thread scratch (the hottest allocation of the
/// DTW path: one set per *candidate*, not per query), cleared — not
/// reallocated — between calls.
///
/// When [`crate::distance::simd::avx2_available`] says so, each row
/// `i >= 1` is computed in two passes: a vectorized pass fills
/// `cost[j]` and `emin[j] = min(prev[j], prev[j-1]) + cost[j]`, then a
/// scalar carry folds in the sequential in-row predecessor,
/// `curr[j] = min(emin[j], curr[j-1] + cost[j])`. That split is
/// bit-identical to the fused three-way-min row ([`dtw_banded_scalar`]):
/// `min` rounds nothing, and rounding is monotone, so
/// `min(fl(x + c), fl(y + c)) == fl(min(x, y) + c)` for the NaN-free
/// values the band holds.
pub fn dtw_banded(a: &[f32], b: &[f32], window: usize, threshold_sq: f64) -> Option<f64> {
    DTW_ROWS.with(|cell| {
        let (prev, curr, cost, emin) = &mut *cell.borrow_mut();
        let simd = crate::distance::simd::avx2_available();
        dtw_banded_with(a, b, window, threshold_sq, prev, curr, cost, emin, simd)
    })
}

/// [`dtw_banded`] pinned to the scalar row kernel regardless of the
/// dispatch decision — the rounding reference for the equivalence
/// suite, and the body every non-AVX2 machine runs.
pub fn dtw_banded_scalar(a: &[f32], b: &[f32], window: usize, threshold_sq: f64) -> Option<f64> {
    DTW_ROWS.with(|cell| {
        let (prev, curr, cost, emin) = &mut *cell.borrow_mut();
        dtw_banded_with(a, b, window, threshold_sq, prev, curr, cost, emin, false)
    })
}

/// The `(prev, curr, cost, emin)` row quartet of the banded DP.
type DtwRows = (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>);

thread_local! {
    /// Reusable DP band rows for [`dtw_banded`]: `(prev, curr)` plus the
    /// `(cost, emin)` pair of the vectorized two-pass row.
    static DTW_ROWS: std::cell::RefCell<DtwRows> =
        const { std::cell::RefCell::new((Vec::new(), Vec::new(), Vec::new(), Vec::new())) };
}

#[allow(clippy::too_many_arguments)]
fn dtw_banded_with(
    a: &[f32],
    b: &[f32],
    window: usize,
    threshold_sq: f64,
    prev: &mut Vec<f64>,
    curr: &mut Vec<f64>,
    cost: &mut Vec<f64>,
    emin: &mut Vec<f64>,
    use_simd: bool,
) -> Option<f64> {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len();
    if n == 0 {
        return Some(0.0);
    }
    let w = window.min(n.saturating_sub(1));
    const INF: f64 = f64::INFINITY;
    prev.clear();
    prev.resize(n, INF);
    curr.clear();
    curr.resize(n, INF);
    if use_simd {
        // Every in-band slot is overwritten before being read, so the
        // fill value is irrelevant; resize just guarantees length.
        cost.clear();
        cost.resize(n, 0.0);
        emin.clear();
        emin.resize(n, 0.0);
    }
    for (i, &ai) in a.iter().enumerate() {
        let lo = i.saturating_sub(w);
        let hi = (i + w).min(n - 1);
        let mut row_min = INF;
        if use_simd && i > 0 {
            // Row 0 (with its j == 0 anchor) always runs scalar below.
            crate::distance::simd::dtw_row_costs(ai, b, prev, lo, hi, cost, emin);
            let mut j = lo;
            if j == 0 {
                // No in-row predecessor: emin already holds the answer.
                curr[0] = emin[0];
                row_min = curr[0];
                j = 1;
            }
            while j <= hi {
                let v = emin[j].min(curr[j - 1] + cost[j]);
                curr[j] = v;
                row_min = row_min.min(v);
                j += 1;
            }
        } else {
            for j in lo..=hi {
                let d = (ai - b[j]) as f64;
                let cost = d * d;
                let best_prev = if i == 0 && j == 0 {
                    0.0
                } else {
                    let mut m = INF;
                    if j > 0 {
                        m = m.min(curr[j - 1]); // insertion
                    }
                    if i > 0 {
                        m = m.min(prev[j]); // deletion
                        if j > 0 {
                            m = m.min(prev[j - 1]); // match
                        }
                    }
                    m
                };
                curr[j] = best_prev + cost;
                row_min = row_min.min(curr[j]);
            }
        }
        if row_min > threshold_sq {
            return None;
        }
        std::mem::swap(prev, curr);
        curr[lo..=hi].iter_mut().for_each(|v| *v = INF);
    }
    let result = prev[n - 1];
    if result > threshold_sq {
        None
    } else {
        Some(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::ed::euclidean_sq;

    fn naive_envelope(q: &[f32], w: usize) -> (Vec<f32>, Vec<f32>) {
        let n = q.len();
        let mut up = vec![0.0f32; n];
        let mut lo = vec![0.0f32; n];
        for i in 0..n {
            let s = i.saturating_sub(w);
            let e = (i + w).min(n - 1);
            up[i] = q[s..=e].iter().cloned().fold(f32::MIN, f32::max);
            lo[i] = q[s..=e].iter().cloned().fold(f32::MAX, f32::min);
        }
        (up, lo)
    }

    fn dtw_full(a: &[f32], b: &[f32], w: usize) -> f64 {
        dtw_banded(a, b, w, f64::INFINITY).expect("no threshold")
    }

    #[test]
    fn envelope_matches_naive() {
        let q: Vec<f32> = (0..57).map(|i| ((i * 31) % 17) as f32 - 8.0).collect();
        for w in [0usize, 1, 3, 8, 56, 100] {
            let env = keogh_envelope(&q, w);
            let (up, lo) = naive_envelope(&q, w.min(q.len() - 1));
            assert_eq!(env.upper, up, "upper w={w}");
            assert_eq!(env.lower, lo, "lower w={w}");
        }
    }

    #[test]
    fn envelope_contains_query() {
        let q: Vec<f32> = (0..100).map(|i| (i as f32 * 0.3).sin()).collect();
        let env = keogh_envelope(&q, 5);
        for (i, &v) in q.iter().enumerate() {
            assert!(env.lower[i] <= v && v <= env.upper[i]);
        }
    }

    #[test]
    fn dtw_zero_window_is_euclidean() {
        let a: Vec<f32> = (0..40).map(|i| (i as f32 * 0.2).sin()).collect();
        let b: Vec<f32> = (0..40).map(|i| (i as f32 * 0.25).cos()).collect();
        let dtw = dtw_full(&a, &b, 0);
        let ed = euclidean_sq(&a, &b);
        assert!((dtw - ed).abs() < 1e-9);
    }

    #[test]
    fn dtw_is_at_most_euclidean() {
        let a: Vec<f32> = (0..64).map(|i| (i as f32 * 0.2).sin()).collect();
        let b: Vec<f32> = (0..64).map(|i| ((i as f32 + 3.0) * 0.2).sin()).collect();
        for w in [1usize, 2, 5, 10] {
            assert!(dtw_full(&a, &b, w) <= euclidean_sq(&a, &b) + 1e-9);
        }
    }

    #[test]
    fn dtw_aligns_shifted_series() {
        // A shifted copy should have near-zero DTW with a wide enough band.
        let a: Vec<f32> = (0..64).map(|i| (i as f32 * 0.3).sin()).collect();
        let mut b = a.clone();
        b.rotate_right(3);
        let narrow = dtw_full(&a, &b, 1);
        let wide = dtw_full(&a, &b, 8);
        assert!(wide < narrow);
    }

    #[test]
    fn lb_keogh_lower_bounds_dtw() {
        let q: Vec<f32> = (0..48).map(|i| (i as f32 * 0.17).sin()).collect();
        for w in [1usize, 3, 7] {
            let env = keogh_envelope(&q, w);
            for seed in 0..5u32 {
                let c: Vec<f32> = (0..48)
                    .map(|i| ((i as f32 + seed as f32) * 0.23).cos())
                    .collect();
                let lb = lb_keogh_sq(&env, &c, f64::INFINITY).expect("no threshold");
                let d = dtw_full(&q, &c, w);
                assert!(lb <= d + 1e-9, "w={w} seed={seed}: lb={lb} dtw={d}");
            }
        }
    }

    #[test]
    fn dtw_early_abandon_consistency() {
        let a: Vec<f32> = (0..32).map(|i| i as f32).collect();
        let b: Vec<f32> = (0..32).map(|i| (i as f32) + 5.0).collect();
        let full = dtw_full(&a, &b, 3);
        assert_eq!(dtw_banded(&a, &b, 3, full + 1.0), Some(full));
        assert_eq!(dtw_banded(&a, &b, 3, full * 0.5), None);
    }

    #[test]
    fn dtw_empty_series() {
        assert_eq!(dtw_banded(&[], &[], 2, 1.0), Some(0.0));
    }
}
