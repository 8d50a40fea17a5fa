//! Runtime-dispatched SIMD kernels (explicit `core::arch` intrinsics).
//!
//! The engine's three dominant inner loops — the early-abandoning
//! Euclidean scan, the early-abandoning LB_Keogh envelope scan, and the
//! mindist-table sweep over a leaf's SAX block — plus the banded-DTW
//! row recurrence, each have an AVX2 implementation in [`avx`]. This
//! module is the **only** gate in front of them:
//!
//! * [`avx2_available`] answers "may the AVX2 kernels run?" exactly
//!   once per process (cached in an atomic): it requires both a
//!   successful `is_x86_feature_detected!("avx2")` probe *and* the
//!   absence of a scalar override. Setting the environment variable
//!   `ODYSSEY_SIMD` to `scalar`, `off`, or `0` forces every dispatch to
//!   the scalar fallback (the knob `xtask scalar` and the forced-scalar
//!   CI job turn).
//! * The safe wrappers below assert that gate before entering the
//!   `unsafe`, `#[target_feature]` kernels, and otherwise run the
//!   scalar fallback — which is the *same code* the public kernels in
//!   [`crate::distance::ed`] / [`crate::distance::dtw`] / [`crate::sax`]
//!   used before vectorization, so every non-x86_64 target and every
//!   pre-AVX2 x86 machine keeps working unchanged.
//!
//! Dispatch never changes answers: each AVX2 kernel reproduces its
//! scalar counterpart's operation-for-operation rounding (see the
//! bit-identity notes in [`avx`] and the equivalence suite in
//! `crates/core/tests/simd_equivalence.rs`), so the batch/lane/cluster
//! bit-identity contracts hold in both modes.

#[cfg(target_arch = "x86_64")]
mod avx;

use std::sync::atomic::{AtomicU8, Ordering};

const LEVEL_UNINIT: u8 = 0;
const LEVEL_SCALAR: u8 = 1;
const LEVEL_AVX2: u8 = 2;

/// Cached dispatch decision; written once by [`level`].
static LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNINIT);

/// Probes the environment override and the CPU. Called at most a
/// handful of times per process (until the cache settles).
fn detect() -> u8 {
    if let Ok(v) = std::env::var("ODYSSEY_SIMD") {
        let v = v.trim().to_ascii_lowercase();
        if v == "scalar" || v == "off" || v == "0" {
            return LEVEL_SCALAR;
        }
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return LEVEL_AVX2;
        }
    }
    LEVEL_SCALAR
}

/// The cached dispatch level. Racing first calls all compute the same
/// value (the probe is deterministic per process), so a relaxed
/// store-once is enough.
#[inline]
fn level() -> u8 {
    let l = LEVEL.load(Ordering::Relaxed);
    if l != LEVEL_UNINIT {
        return l;
    }
    let l = detect();
    LEVEL.store(l, Ordering::Relaxed);
    l
}

/// Whether the AVX2 kernels are allowed to run: the CPU supports AVX2
/// **and** `ODYSSEY_SIMD` does not force scalar. This is the runtime
/// guard every `unsafe` call into [`avx`] names in its SAFETY comment.
#[inline]
pub fn avx2_available() -> bool {
    level() == LEVEL_AVX2
}

/// The dispatch mode in effect, for bench/diagnostic output:
/// `"avx2"` or `"scalar"`.
pub fn dispatch_name() -> &'static str {
    if avx2_available() {
        "avx2"
    } else {
        "scalar"
    }
}

/// Dispatched early-abandoning squared Euclidean distance; bit-identical
/// to [`crate::distance::ed::euclidean_sq_early_abandon_scalar`] in both
/// modes.
///
/// # Panics
/// Panics if the slices differ in length.
#[inline]
pub(crate) fn euclidean_sq_early_abandon(a: &[f32], b: &[f32], threshold_sq: f64) -> Option<f64> {
    assert!(a.len() == b.len(), "equal lengths");
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: gated by `avx2_available()`, i.e. a cached
        // `is_x86_feature_detected!("avx2")` probe, so the AVX2
        // target-feature requirement of the callee is met; the
        // equal-length precondition is the assertion above.
        return unsafe { avx::euclidean_sq_early_abandon(a, b, threshold_sq) };
    }
    crate::distance::ed::euclidean_sq_early_abandon_scalar(a, b, threshold_sq)
}

/// Dispatched early-abandoning squared LB_Keogh envelope distance;
/// bit-identical to [`crate::distance::dtw::lb_keogh_sq_scalar`] in
/// both modes.
///
/// # Panics
/// Panics if the envelope and the candidate differ in length.
#[inline]
pub(crate) fn lb_keogh_sq(
    upper: &[f32],
    lower: &[f32],
    candidate: &[f32],
    threshold_sq: f64,
) -> Option<f64> {
    assert!(
        upper.len() == candidate.len() && lower.len() == candidate.len(),
        "equal lengths"
    );
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: gated by `avx2_available()`, i.e. a cached
        // `is_x86_feature_detected!("avx2")` probe, so the AVX2
        // target-feature requirement of the callee is met; the
        // equal-length precondition is the assertion above.
        return unsafe { avx::lb_keogh_sq(upper, lower, candidate, threshold_sq) };
    }
    crate::distance::dtw::lb_keogh_sq_scalar(upper, lower, candidate, threshold_sq)
}

/// Dispatched mindist-table sweep over a row-major SAX block
/// (`segments` bytes per candidate, `out.len()` candidates):
/// `out[j] = sum over segments i of table[i * MAX_CARD + block[j *
/// segments + i]]`, summed in ascending segment order — the exact
/// per-candidate arithmetic of
/// [`crate::sax::MindistTable::series_lb_sq`].
///
/// # Panics
/// Panics if the table is shorter than `segments * MAX_CARD` or
/// `block.len() != segments * out.len()`.
pub(crate) fn lb_block_sq(table: &[f64], block: &[u8], segments: usize, out: &mut [f64]) {
    assert!(
        table.len() >= segments * crate::sax::MAX_CARD,
        "short table"
    );
    assert_eq!(block.len(), segments * out.len(), "ragged SAX block");
    let mut done = 0;
    #[cfg(target_arch = "x86_64")]
    if avx2_available() && segments > 0 {
        // SAFETY: gated by `avx2_available()`, i.e. a cached
        // `is_x86_feature_detected!("avx2")` probe; the shape
        // preconditions of the callee are the checks right above.
        done = unsafe { avx::lb_block_sq(table, block, segments, out) };
    }
    // The scalar loop: the whole block, or the candidates the AVX2
    // kernel leaves (a partial quad, words near the block's end).
    for (j, slot) in out.iter_mut().enumerate().skip(done) {
        let mut sum = 0.0f64;
        for (i, &sym) in block[j * segments..(j + 1) * segments].iter().enumerate() {
            sum += table[i * crate::sax::MAX_CARD + sym as usize];
        }
        *slot = sum;
    }
}

/// Dispatched mindist-table sweep over segment-major **symbol
/// intervals** (the root-level node bound): `out[j] = sum over segments
/// i of table[i * MAX_CARD + clamp(ref_sym[i], lo_ij, hi_ij)]` where
/// `lo_ij = lo[i * stride + offset + j]` (likewise `hi`, with
/// `lo_ij <= hi_ij`), summed in ascending segment order — for a word's
/// full range, the exact per-word arithmetic of
/// [`crate::sax::MindistTable::word_lb_sq`].
///
/// # Panics
/// Panics if the table is shorter than `segments * MAX_CARD`,
/// `ref_sym` is shorter than `segments`, the `lo`/`hi` planes differ in
/// length, or they cannot hold `out.len()` candidates at the given
/// stride/offset.
#[allow(clippy::too_many_arguments)]
pub(crate) fn word_lb_sq_soa(
    table: &[f64],
    ref_sym: &[u8],
    lo: &[u8],
    hi: &[u8],
    stride: usize,
    offset: usize,
    segments: usize,
    out: &mut [f64],
) {
    assert!(table.len() >= segments * crate::sax::MAX_CARD, "short table");
    assert!(ref_sym.len() >= segments, "short reference-symbol vector");
    assert_eq!(lo.len(), hi.len(), "ragged lo/hi planes");
    assert!(
        segments == 0 || (segments - 1) * stride + offset + out.len() <= lo.len(),
        "SoA word block out of bounds"
    );
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: gated by `avx2_available()`, i.e. a cached
        // `is_x86_feature_detected!("avx2")` probe; the shape
        // preconditions of the callee are the assertions right above.
        unsafe { avx::word_lb_sq_soa(table, ref_sym, lo, hi, stride, offset, segments, out) };
        return;
    }
    for (j, slot) in out.iter_mut().enumerate() {
        let mut sum = 0.0f64;
        for i in 0..segments {
            let row = i * stride + offset + j;
            let sym = ref_sym[i].max(lo[row]).min(hi[row]) as usize;
            sum += table[i * crate::sax::MAX_CARD + sym];
        }
        *slot = sum;
    }
}

/// Asks the CPU to pull every 64-byte cache line of `series` into L1
/// ahead of a read: one `prefetcht0` per 16 values, plus one at the
/// last value for the line a misaligned series spills into. A hint
/// only — it changes no value, so it ignores `ODYSSEY_SIMD` — and a
/// no-op off x86_64 and under Miri.
#[inline]
pub(crate) fn prefetch_series(series: &[f32]) {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    for line in series
        .chunks(16)
        .chain(series.last().map(std::slice::from_ref))
    {
        // SAFETY: `_mm_prefetch` needs only SSE, which every x86_64
        // CPU has; the address is the start of a non-empty subslice of
        // `series`, and a prefetch never faults or writes.
        unsafe {
            std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(
                line.as_ptr().cast::<i8>(),
            )
        };
    }
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    let _ = series;
}

/// Dispatched vectorizable half of one banded-DTW row: fills
/// `cost[j] = ((ai - b[j]) as f64)^2` and
/// `emin[j] = min(prev[j], prev[j-1]) + cost[j]` for `j` in `[lo, hi]`
/// (`prev[-1]` treated as `+inf`). The caller keeps the sequential
/// `curr[j-1]` carry scalar; see [`crate::distance::dtw`] for why the
/// split is bit-identical to the fused three-way-min row.
///
/// # Panics
/// Panics if the band exceeds the row buffers.
pub(crate) fn dtw_row_costs(
    ai: f32,
    b: &[f32],
    prev: &[f64],
    lo: usize,
    hi: usize,
    cost: &mut [f64],
    emin: &mut [f64],
) {
    assert!(lo <= hi && hi < b.len(), "band outside the row");
    assert!(
        prev.len() == b.len() && cost.len() >= b.len() && emin.len() >= b.len(),
        "row buffers too short"
    );
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: gated by `avx2_available()`, i.e. a cached
        // `is_x86_feature_detected!("avx2")` probe; the shape
        // preconditions of the callee are the assertions right above.
        unsafe { avx::dtw_row_costs(ai, b, prev, lo, hi, cost, emin) };
        return;
    }
    for j in lo..=hi {
        let d = (ai - b[j]) as f64;
        let c = d * d;
        cost[j] = c;
        let pm1 = if j > 0 { prev[j - 1] } else { f64::INFINITY };
        emin[j] = prev[j].min(pm1) + c;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_name_is_consistent_with_availability() {
        let name = dispatch_name();
        if avx2_available() {
            assert_eq!(name, "avx2");
        } else {
            assert_eq!(name, "scalar");
        }
        // The cache must settle on one answer.
        assert_eq!(dispatch_name(), name);
        // A scalar override in the environment must win over detection.
        if matches!(
            std::env::var("ODYSSEY_SIMD").as_deref(),
            Ok("scalar") | Ok("off") | Ok("0")
        ) {
            assert_eq!(name, "scalar");
        }
    }

    // `prefetch_series` is a hint: every shape must run without reading
    // or writing past the slice, and leave the values as they were.
    fn prefetched_intact(buf: &[f32], series: &[f32]) {
        prefetch_series(series);
        assert!(buf.iter().enumerate().all(|(i, &v)| v == i as f32));
    }

    fn ramp(n: usize) -> Vec<f32> {
        (0..n).map(|i| i as f32).collect()
    }

    #[test]
    fn prefetch_series_of_an_empty_slice_is_a_no_op() {
        let buf = ramp(32);
        prefetched_intact(&buf, &buf[..0]);
        prefetched_intact(&buf, &buf[32..]);
    }

    #[test]
    fn prefetch_series_of_one_value() {
        let buf = ramp(32);
        prefetched_intact(&buf, &buf[..1]);
        prefetched_intact(&buf, &buf[17..18]);
    }

    #[test]
    fn prefetch_series_of_a_length_off_the_line_grid() {
        let buf = ramp(200);
        for len in [15, 17, 37, 100, 129] {
            prefetched_intact(&buf, &buf[3..3 + len]);
        }
    }

    #[test]
    fn prefetch_series_ending_at_the_buffer_end() {
        let buf = ramp(131);
        for start in [0, 3, 67, 115, 130] {
            prefetched_intact(&buf, &buf[start..]);
        }
    }

    // The AVX2 bodies index every slice up to one slice's length, so a
    // length mismatch must stop at the safe dispatcher in release
    // builds too, not only under `debug_assert!`.
    #[test]
    #[should_panic(expected = "equal lengths")]
    fn early_abandon_ed_rejects_unequal_lengths() {
        crate::distance::euclidean_sq_early_abandon(&[0.5; 100], &[0.25; 64], f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn lb_keogh_rejects_unequal_lengths() {
        let env = crate::distance::dtw::keogh_envelope(&[0.5; 64], 4);
        crate::distance::dtw::lb_keogh_sq(&env, &[0.25; 100], f64::INFINITY);
    }

    #[test]
    fn scalar_env_override_forces_scalar_in_child() {
        // `level()` caches per process, so the override is exercised in
        // a child process rather than by mutating this one's env.
        let exe = std::env::current_exe().expect("test exe");
        let out = std::process::Command::new(exe)
            .args(["--exact", "distance::simd::tests::dispatch_name_is_consistent_with_availability"])
            .env("ODYSSEY_SIMD", "scalar")
            .output()
            .expect("spawn child test");
        assert!(
            out.status.success(),
            "child run failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
