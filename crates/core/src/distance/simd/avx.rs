//! Explicit AVX2 `core::arch` kernels for the three dominant hot-path
//! loops: early-abandoning Euclidean distance, early-abandoning
//! LB_Keogh, and the mindist-table sweep over a leaf's row-major SAX
//! words — plus the vectorizable half of the banded-DTW row recurrence.
//!
//! Every function here is **bit-identical** to its scalar counterpart
//! (`crates/core/tests/simd_equivalence.rs` pins this with exhaustive
//! tail/threshold property tests): the scalar kernels accumulate into
//! four independent `f64` lanes in a fixed order, and one `__m256d`
//! register *is* those four lanes, so the same subtractions, products,
//! and adds happen with the same roundings. No FMA is used anywhere —
//! fusing would change the rounding of `d * d + acc` and break the
//! batch/lane/cluster bit-identity contracts that the rest of the
//! system is built on.
//!
//! # Dispatch contract
//!
//! Everything in this module is `unsafe` and compiled with
//! `#[target_feature(enable = "avx2")]`: calling any of it on a CPU
//! without AVX2 is immediate undefined behavior (illegal instruction at
//! best). The **only** callers are the safe wrappers in
//! [`super`](crate::distance::simd), each of which asserts
//! [`super::avx2_available`] — i.e. a cached
//! `is_x86_feature_detected!("avx2")` — before entering. Do not call
//! these functions from anywhere else.

#![allow(unsafe_op_in_unsafe_fn)]

use core::arch::x86_64::*;

/// Lanes per `__m256d` accumulator — equals the scalar kernels' `ACCS`.
const ACCS: usize = 4;
/// Elements between early-abandon checks (scalar `ABANDON_BLOCK`).
const ABANDON_BLOCK: usize = 32;

/// Horizontal sum of the four accumulator lanes in the scalar kernels'
/// order: `((acc0 + acc1) + acc2) + acc3`. The obvious `hadd`-based
/// reductions associate differently and would break bit-identity.
///
/// # Safety
/// Requires AVX: callers are `target_feature(avx2)` kernels, themselves
/// gated by the runtime detection in [`super::avx2_available`]
/// (`is_x86_feature_detected!`).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn hsum_ordered(acc: __m256d) -> f64 {
    let lo = _mm256_castpd256_pd128(acc);
    let hi = _mm256_extractf128_pd::<1>(acc);
    let a0 = _mm_cvtsd_f64(lo);
    let a1 = _mm_cvtsd_f64(_mm_unpackhi_pd(lo, lo));
    let a2 = _mm_cvtsd_f64(hi);
    let a3 = _mm_cvtsd_f64(_mm_unpackhi_pd(hi, hi));
    ((a0 + a1) + a2) + a3
}

/// AVX2 early-abandoning squared Euclidean distance; bit-identical to
/// [`crate::distance::ed::euclidean_sq_early_abandon_scalar`].
///
/// The scalar kernel subtracts in `f32`, widens to `f64`, squares, and
/// accumulates element `4k + l` into lane `l`; this version performs
/// the identical per-lane operation chain four lanes at a time.
///
/// # Safety
/// The CPU must support AVX2; callers must be gated by the runtime
/// detection in [`super::avx2_available`] (`is_x86_feature_detected!`).
#[target_feature(enable = "avx2")]
pub(super) unsafe fn euclidean_sq_early_abandon(
    a: &[f32],
    b: &[f32],
    threshold_sq: f64,
) -> Option<f64> {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len();
    let blocks = n / ABANDON_BLOCK;
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    let mut acc = _mm256_setzero_pd();
    for blk in 0..blocks {
        let base = blk * ABANDON_BLOCK;
        // 8 sub-chunks of 4 elements, accumulated in scalar chunk order.
        for q in 0..ABANDON_BLOCK / ACCS {
            let off = base + q * ACCS;
            // SAFETY: off + 4 <= blocks * ABANDON_BLOCK <= n for both
            // equal-length slices.
            let av = _mm_loadu_ps(ap.add(off));
            let bv = _mm_loadu_ps(bp.add(off));
            let d32 = _mm_sub_ps(av, bv); // f32 subtraction, like scalar
            let d = _mm256_cvtps_pd(d32); // widen, like `as f64`
            acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d)); // no FMA
        }
        if hsum_ordered(acc) > threshold_sq {
            return None;
        }
    }
    let mut sum = hsum_ordered(acc);
    for i in blocks * ABANDON_BLOCK..n {
        // SAFETY: i < n == a.len() == b.len().
        let d = (*ap.add(i) - *bp.add(i)) as f64;
        sum += d * d;
    }
    if sum > threshold_sq {
        None
    } else {
        Some(sum)
    }
}

/// AVX2 early-abandoning squared LB_Keogh envelope distance;
/// bit-identical to [`crate::distance::dtw::lb_keogh_sq_scalar`].
///
/// Per element the scalar kernel computes
/// `max(c - upper, lower - c, 0)` in `f32`, widens, squares, and
/// accumulates into lane `l = idx % 4`; this is the same chain on four
/// lanes at once (`_mm_max_ps` matches `f32::max` for the NaN-free
/// inputs the kernels are specified over, and a `-0.0` excess squares
/// to the same `+0.0` either way).
///
/// # Safety
/// The CPU must support AVX2; callers must be gated by the runtime
/// detection in [`super::avx2_available`] (`is_x86_feature_detected!`).
#[target_feature(enable = "avx2")]
pub(super) unsafe fn lb_keogh_sq(
    upper: &[f32],
    lower: &[f32],
    candidate: &[f32],
    threshold_sq: f64,
) -> Option<f64> {
    debug_assert_eq!(upper.len(), candidate.len());
    debug_assert_eq!(lower.len(), candidate.len());
    let n = candidate.len();
    let blocks = n / ABANDON_BLOCK;
    let up = upper.as_ptr();
    let lp = lower.as_ptr();
    let cp = candidate.as_ptr();
    let zero = _mm_setzero_ps();
    let mut acc = _mm256_setzero_pd();
    for blk in 0..blocks {
        let base = blk * ABANDON_BLOCK;
        for q in 0..ABANDON_BLOCK / ACCS {
            let off = base + q * ACCS;
            // SAFETY: off + 4 <= blocks * ABANDON_BLOCK <= n for all
            // three equal-length slices.
            let cv = _mm_loadu_ps(cp.add(off));
            let uv = _mm_loadu_ps(up.add(off));
            let lv = _mm_loadu_ps(lp.add(off));
            let excess = _mm_max_ps(_mm_max_ps(_mm_sub_ps(cv, uv), _mm_sub_ps(lv, cv)), zero);
            let d = _mm256_cvtps_pd(excess);
            acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
        }
        if hsum_ordered(acc) > threshold_sq {
            return None;
        }
    }
    let mut sum = hsum_ordered(acc);
    for i in blocks * ABANDON_BLOCK..n {
        // SAFETY: i < n for all three equal-length slices.
        let c = *cp.add(i);
        let d = (c - *up.add(i)).max(*lp.add(i) - c).max(0.0) as f64;
        sum += d * d;
    }
    if sum > threshold_sq {
        None
    } else {
        Some(sum)
    }
}

/// Candidates per row-major sweep step: one per `f64` lane of a
/// `__m256d` accumulator.
const QUAD: usize = 4;

/// Lower bounds of four row-major SAX words, the `q`-th at
/// `rows + q * segments`. Per 16-segment chunk, an in-register
/// transpose (two 16-byte loads per 128-bit lane, then
/// `unpack{lo,hi}_epi64`) puts eight consecutive segments of word `q`
/// in 64-bit lane `q`; each segment's four symbols are then one mask
/// (and a shift to the next byte) away from the `vpgatherqpd` that
/// fetches their table entries. Lane `q` adds its entries in ascending
/// segment order, like [`crate::sax::MindistTable::series_lb_sq`].
///
/// # Safety
/// The CPU must support AVX2: the only caller is [`lb_block_sq`],
/// gated by [`super::avx2_available`] (`is_x86_feature_detected!`).
/// Also `segments * 256` table entries at `tp`, and `3 * segments + 16 * segments.div_ceil(16)` readable
/// bytes at `rows`: the last chunk's loads may run up to 15 bytes past
/// a word, and the bytes read there are never used.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn quad_lb_sq(tp: *const f64, rows: *const u8, segments: usize) -> __m256d {
    let byte = _mm256_set1_epi64x(0xFF);
    let mut acc = _mm256_setzero_pd();
    let mut base = 0;
    while base < segments {
        // SAFETY: 16 readable bytes from every row's chunk start (the
        // caller's precondition).
        let r0 = _mm_loadu_si128(rows.add(base).cast::<__m128i>());
        let r1 = _mm_loadu_si128(rows.add(segments + base).cast::<__m128i>());
        let r2 = _mm_loadu_si128(rows.add(2 * segments + base).cast::<__m128i>());
        let r3 = _mm_loadu_si128(rows.add(3 * segments + base).cast::<__m128i>());
        let a = _mm256_inserti128_si256::<1>(_mm256_castsi128_si256(r0), r2);
        let b = _mm256_inserti128_si256::<1>(_mm256_castsi128_si256(r1), r3);
        let end = segments.min(base + 16);
        let mut i = base;
        // Lane q of each half holds eight segments of word q, lowest
        // segment in the lowest byte. The fixed trip count lets the
        // compiler unroll; a ragged last chunk stops at `end`.
        'chunk: for mut half in [_mm256_unpacklo_epi64(a, b), _mm256_unpackhi_epi64(a, b)] {
            for _ in 0..8 {
                if i == end {
                    break 'chunk;
                }
                let sym = _mm256_and_si256(half, byte);
                half = _mm256_srli_epi64::<8>(half);
                // SAFETY: every index is a byte, so it stays inside
                // segment i's 256-entry row; scale 8 = size_of::<f64>().
                let g = _mm256_i64gather_pd::<8>(tp.add(i * crate::sax::MAX_CARD), sym);
                acc = _mm256_add_pd(acc, g);
                i += 1;
            }
        }
        base += 16;
    }
    acc
}

/// AVX2 mindist-table sweep over a row-major SAX block (`segments`
/// bytes per candidate): `out[j] = sum_i table[i * 256 + block[j *
/// segments + i]]`, four candidates per step via [`quad_lb_sq`], each
/// summing its segments in index order. Bit-identical to
/// [`crate::sax::MindistTable::series_lb_sq`] per candidate.
///
/// Fills only whole quads whose chunk loads stay inside `block` and
/// returns how many leading candidates it filled; the caller finishes
/// the rest (fewer than four, plus up to 15 more when a word is
/// shorter than a chunk) with the scalar loop.
///
/// # Safety
/// The CPU must support AVX2; callers must be gated by the runtime
/// detection in [`super::avx2_available`] (`is_x86_feature_detected!`).
/// Additionally `segments >= 1`, `table.len() >= segments * 256` and
/// `block.len() == segments * out.len()` must hold (asserted by the
/// safe wrapper).
#[target_feature(enable = "avx2")]
pub(super) unsafe fn lb_block_sq(
    table: &[f64],
    block: &[u8],
    segments: usize,
    out: &mut [f64],
) -> usize {
    debug_assert!(segments >= 1);
    debug_assert!(table.len() >= segments * crate::sax::MAX_CARD);
    let n = out.len();
    debug_assert_eq!(block.len(), n * segments);
    // Bytes the last chunk's load reads past a word's end, and so the
    // number of trailing words whose loads would leave the block.
    let over = 16 * segments.div_ceil(16) - segments;
    let direct = n.saturating_sub(over.div_ceil(segments));
    let mut c = 0;
    while c + QUAD <= direct {
        // SAFETY: word c + 3 < direct, so every chunk load of the quad
        // ends inside the block; c + 4 <= n == out.len().
        let acc = quad_lb_sq(table.as_ptr(), block.as_ptr().add(c * segments), segments);
        _mm256_storeu_pd(out.as_mut_ptr().add(c), acc);
        c += QUAD;
    }
    c
}

/// AVX2 8-way mindist-table sweep over segment-major **symbol
/// intervals** (the root-level bound): candidate `j`'s segment-`i` region
/// is the symbol interval `[lo[i * stride + offset + j],
/// hi[i * stride + offset + j]]`, and the realized table entry is the
/// query's per-segment reference symbol clamped into that interval —
/// `out[j] = sum_i table[i * 256 + clamp(ref_sym[i], lo_ij, hi_ij)]`,
/// accumulated in ascending segment order. The `u8` clamp
/// (`max` then `min`) is exact integer arithmetic, so every candidate's
/// sum is bit-identical to the scalar fallback in [`super`].
///
/// # Safety
/// The CPU must support AVX2; callers must be gated by the runtime
/// detection in [`super::avx2_available`] (`is_x86_feature_detected!`).
/// Additionally `table.len() >= segments * 256`,
/// `ref_sym.len() >= segments`, and
/// `(segments - 1) * stride + offset + out.len() <= lo.len() == hi.len()`
/// must hold (asserted by the safe wrapper).
#[target_feature(enable = "avx2")]
// The loops index `ref_sym`/`out` and the raw planes by the same
// counters; iterator forms would split the bound the SAFETY comments
// reason about.
#[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
pub(super) unsafe fn word_lb_sq_soa(
    table: &[f64],
    ref_sym: &[u8],
    lo: &[u8],
    hi: &[u8],
    stride: usize,
    offset: usize,
    segments: usize,
    out: &mut [f64],
) {
    const MAX_CARD: usize = crate::sax::MAX_CARD;
    debug_assert!(table.len() >= segments * MAX_CARD);
    debug_assert!(ref_sym.len() >= segments);
    let n = out.len();
    debug_assert!(segments == 0 || (segments - 1) * stride + offset + n <= lo.len());
    debug_assert_eq!(lo.len(), hi.len());
    let tp = table.as_ptr();
    let lp = lo.as_ptr();
    let hp = hi.as_ptr();
    let mut c = 0;
    while c + 8 <= n {
        let mut acc0 = _mm256_setzero_pd();
        let mut acc1 = _mm256_setzero_pd();
        for i in 0..segments {
            let row = i * stride + offset + c;
            // SAFETY: row + 8 <= (segments - 1) * stride + offset + n <=
            // lo.len() == hi.len() (wrapper precondition).
            let lov = _mm_loadl_epi64(lp.add(row).cast::<__m128i>());
            let hiv = _mm_loadl_epi64(hp.add(row).cast::<__m128i>());
            let refv = _mm_set1_epi8(ref_sym[i] as i8);
            // clamp(ref, lo, hi) on unsigned bytes; lo <= hi per the
            // `RootSoa` invariant, so max-then-min is the exact clamp.
            let sym = _mm_min_epu8(_mm_max_epu8(refv, lov), hiv);
            let idx = _mm256_cvtepu8_epi32(sym);
            let idx = _mm256_add_epi32(idx, _mm256_set1_epi32((i * MAX_CARD) as i32));
            // SAFETY: every index is i * 256 + byte < segments * 256 <=
            // table.len(); scale 8 = size_of::<f64>().
            let g0 = _mm256_i32gather_pd::<8>(tp, _mm256_castsi256_si128(idx));
            let g1 = _mm256_i32gather_pd::<8>(tp, _mm256_extracti128_si256::<1>(idx));
            acc0 = _mm256_add_pd(acc0, g0);
            acc1 = _mm256_add_pd(acc1, g1);
        }
        // SAFETY: c + 8 <= n == out.len().
        _mm256_storeu_pd(out.as_mut_ptr().add(c), acc0);
        _mm256_storeu_pd(out.as_mut_ptr().add(c + 4), acc1);
        c += 8;
    }
    // Tail candidates: scalar, same per-candidate segment order.
    for j in c..n {
        let mut sum = 0.0f64;
        for i in 0..segments {
            // SAFETY: same bound as the vector body with +1 <= +8.
            let row = i * stride + offset + j;
            let sym = (ref_sym[i].max(*lp.add(row))).min(*hp.add(row)) as usize;
            sum += *tp.add(i * MAX_CARD + sym);
        }
        out[j] = sum;
    }
}

/// AVX2 pass over one banded-DTW row: for `j` in `[lo, hi]` computes
/// `cost[j] = ((ai - b[j]) as f64)^2` and
/// `emin[j] = min(prev[j], prev[j-1]) + cost[j]` (with `prev[-1]`
/// treated as `+inf`). The sequential `curr[j-1]` carry stays scalar in
/// the caller ([`crate::distance::dtw`]'s two-pass row), which is where
/// the bit-identity argument lives: `min` is exact, so hoisting the
/// `prev` half of the 3-way min out of the carry loop reassociates
/// nothing that rounds.
///
/// # Safety
/// The CPU must support AVX2; callers must be gated by the runtime
/// detection in [`super::avx2_available`] (`is_x86_feature_detected!`).
/// Additionally `hi < b.len() == prev.len() == cost.len() == emin.len()`
/// and `lo <= hi` must hold (asserted by the safe wrapper).
#[target_feature(enable = "avx2")]
pub(super) unsafe fn dtw_row_costs(
    ai: f32,
    b: &[f32],
    prev: &[f64],
    lo: usize,
    hi: usize,
    cost: &mut [f64],
    emin: &mut [f64],
) {
    debug_assert!(lo <= hi && hi < b.len());
    debug_assert!(prev.len() == b.len() && cost.len() >= b.len() && emin.len() >= b.len());
    let bp = b.as_ptr();
    let pp = prev.as_ptr();
    let cp = cost.as_mut_ptr();
    let ep = emin.as_mut_ptr();
    let aiv = _mm_set1_ps(ai);
    let mut j = lo;
    if j == 0 {
        // prev[-1] is conceptually +inf: min(prev[0], inf) == prev[0].
        let d = (ai - *bp) as f64;
        let c = d * d;
        *cp = c;
        *ep = *pp + c;
        j = 1;
    }
    while j + ACCS <= hi + 1 {
        // SAFETY: j + 4 <= hi + 1 <= b.len(); j >= 1 so j - 1 is valid
        // for the shifted prev load.
        let bv = _mm_loadu_ps(bp.add(j));
        let d = _mm256_cvtps_pd(_mm_sub_ps(aiv, bv));
        let c = _mm256_mul_pd(d, d);
        let pv = _mm256_loadu_pd(pp.add(j));
        let pm1 = _mm256_loadu_pd(pp.add(j - 1));
        let e = _mm256_add_pd(_mm256_min_pd(pv, pm1), c);
        _mm256_storeu_pd(cp.add(j), c);
        _mm256_storeu_pd(ep.add(j), e);
        j += ACCS;
    }
    while j <= hi {
        // SAFETY: j <= hi < b.len(); j >= 1 here.
        let d = (ai - *bp.add(j)) as f64;
        let c = d * d;
        *cp.add(j) = c;
        *ep.add(j) = (*pp.add(j)).min(*pp.add(j - 1)) + c;
        j += 1;
    }
}
