//! SAX / iSAX summarization (Shieh & Keogh 2008; Figure 1 of the paper).
//!
//! The y-axis is split into regions whose boundaries (*breakpoints*) are
//! quantiles of the standard normal distribution, so that z-normalized
//! series fall into all regions with equal probability. A symbol is a
//! region index; an **iSAX word** attaches a per-segment *cardinality*
//! (number of bits), which is what makes the hierarchical index tree
//! possible: splitting a node refines one segment by one bit.
//!
//! We fix the maximum cardinality at `2^8 = 256` regions (the standard
//! choice in the iSAX literature and the MESSI code base). Because the
//! quantiles for cardinality `2^b` are a subset of those for `2^8`, the
//! symbol at `b` bits is exactly the top `b` bits of the 8-bit symbol —
//! this *nesting* property is relied on throughout.

use std::sync::OnceLock;

/// Maximum per-segment cardinality in bits.
pub const MAX_CARD_BITS: u8 = 8;
/// Maximum number of regions per segment (`2^MAX_CARD_BITS`).
pub const MAX_CARD: usize = 1 << MAX_CARD_BITS;

/// Inverse CDF of the standard normal distribution
/// (Acklam's rational approximation, |relative error| < 1.15e-9).
fn inv_norm_cdf(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "p must be in (0,1), got {p}");
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    const P_HIGH: f64 = 1.0 - P_LOW;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= P_HIGH {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// The 255 breakpoints splitting the real line into 256 equiprobable
/// regions under N(0,1). `breakpoints()[j]` is the `(j+1)/256` quantile.
pub fn breakpoints() -> &'static [f64; MAX_CARD - 1] {
    static BP: OnceLock<[f64; MAX_CARD - 1]> = OnceLock::new();
    BP.get_or_init(|| {
        let mut bp = [0.0f64; MAX_CARD - 1];
        for (j, slot) in bp.iter_mut().enumerate() {
            *slot = inv_norm_cdf((j + 1) as f64 / MAX_CARD as f64);
        }
        bp
    })
}

/// SAX symbol of a PAA value at maximum cardinality (8 bits):
/// the number of breakpoints strictly below `v`, i.e. region index 0..=255.
#[inline]
pub fn sax_symbol(v: f64) -> u8 {
    let bp = breakpoints();
    // Binary search: first index where bp[idx] >= v; that index is the
    // count of breakpoints < v, hence the region.
    bp.partition_point(|&b| b < v) as u8
}

/// Computes the full-cardinality SAX word of a PAA vector into `out`.
pub fn sax_word_into(paa: &[f64], out: &mut [u8]) {
    debug_assert_eq!(paa.len(), out.len());
    for (slot, &v) in out.iter_mut().zip(paa) {
        *slot = sax_symbol(v);
    }
}

/// An iSAX word: per-segment symbols with per-segment cardinalities.
///
/// `symbols[i]` holds the *top* `card_bits[i]` bits of the full 8-bit
/// symbol, right-aligned (so a 1-bit symbol is `0` or `1`). A cardinality
/// of 0 denotes the whole real line (used only by a root placeholder).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IsaxWord {
    /// Right-aligned symbol prefixes, one per segment.
    pub symbols: Vec<u8>,
    /// Bits of cardinality per segment, each `<= MAX_CARD_BITS`.
    pub card_bits: Vec<u8>,
}

impl IsaxWord {
    /// The word of a full-cardinality SAX word truncated to `bits` bits on
    /// every segment.
    pub fn from_sax(sax: &[u8], bits: u8) -> Self {
        assert!(bits <= MAX_CARD_BITS);
        let symbols = sax.iter().map(|&s| s >> (MAX_CARD_BITS - bits)).collect();
        IsaxWord {
            symbols,
            card_bits: vec![bits; sax.len()],
        }
    }

    /// Number of segments.
    #[inline]
    pub fn segments(&self) -> usize {
        self.symbols.len()
    }

    /// Whether the full-cardinality SAX word `sax` falls inside the region
    /// this word describes (i.e. every segment's top bits match).
    pub fn contains(&self, sax: &[u8]) -> bool {
        debug_assert_eq!(sax.len(), self.symbols.len());
        self.symbols
            .iter()
            .zip(&self.card_bits)
            .zip(sax)
            .all(|((&sym, &bits), &full)| bits == 0 || (full >> (MAX_CARD_BITS - bits)) == sym)
    }

    /// Child word obtained by refining segment `seg` with next bit `bit`
    /// (the iSAX split operation).
    ///
    /// # Panics
    /// Panics if the segment is already at maximum cardinality.
    pub fn refine(&self, seg: usize, bit: u8) -> IsaxWord {
        assert!(bit <= 1);
        assert!(
            self.card_bits[seg] < MAX_CARD_BITS,
            "segment {seg} already at max cardinality"
        );
        let mut w = self.clone();
        w.symbols[seg] = (w.symbols[seg] << 1) | bit;
        w.card_bits[seg] += 1;
        w
    }

    /// The `[lo, hi]` symbol range (at full cardinality) covered by
    /// segment `seg` of this word.
    #[inline]
    pub fn full_range(&self, seg: usize) -> (usize, usize) {
        let bits = self.card_bits[seg];
        if bits == 0 {
            return (0, MAX_CARD - 1);
        }
        let shift = (MAX_CARD_BITS - bits) as usize;
        let lo = (self.symbols[seg] as usize) << shift;
        (lo, lo + (1usize << shift) - 1)
    }
}

/// Squared `mindist` lower bound between a query PAA vector and an iSAX
/// word describing a region of series space.
///
/// For each segment, if the PAA value lies outside the word's region
/// `[beta_lo, beta_hi]`, the gap (squared, weighted by the segment's point
/// count) is accrued. The result lower-bounds the squared Euclidean
/// distance between the query and *any* series summarized by the word —
/// the pruning test of the whole index.
///
/// `series_len` is the raw series length `n`; segment weights follow the
/// same uneven split as [`crate::paa::segment_bounds`].
pub fn mindist_paa_isax_sq(paa: &[f64], word: &IsaxWord, series_len: usize) -> f64 {
    debug_assert_eq!(paa.len(), word.segments());
    let bp = breakpoints();
    let w = paa.len();
    let mut sum = 0.0f64;
    for (i, &v) in paa.iter().enumerate() {
        let (lo_sym, hi_sym) = word.full_range(i);
        let lo = if lo_sym == 0 {
            f64::NEG_INFINITY
        } else {
            bp[lo_sym - 1]
        };
        let hi = if hi_sym == MAX_CARD - 1 {
            f64::INFINITY
        } else {
            bp[hi_sym]
        };
        let d = if v < lo {
            lo - v
        } else if v > hi {
            v - hi
        } else {
            0.0
        };
        let (s, e) = crate::paa::segment_bounds(series_len, w, i);
        sum += d * d * (e - s) as f64;
    }
    sum
}

/// Squared `mindist` between a query PAA and a *full-cardinality* SAX word
/// (the per-candidate-series lower bound used when draining priority
/// queues). Equivalent to [`mindist_paa_isax_sq`] at 8 bits but avoids
/// building an [`IsaxWord`].
pub fn mindist_paa_sax_sq(paa: &[f64], sax: &[u8], series_len: usize) -> f64 {
    debug_assert_eq!(paa.len(), sax.len());
    let bp = breakpoints();
    let w = paa.len();
    let mut sum = 0.0f64;
    for i in 0..w {
        let sym = sax[i] as usize;
        let lo = if sym == 0 {
            f64::NEG_INFINITY
        } else {
            bp[sym - 1]
        };
        let hi = if sym == MAX_CARD - 1 {
            f64::INFINITY
        } else {
            bp[sym]
        };
        let v = paa[i];
        let d = if v < lo {
            lo - v
        } else if v > hi {
            v - hi
        } else {
            0.0
        };
        let (s, e) = crate::paa::segment_bounds(series_len, w, i);
        sum += d * d * (e - s) as f64;
    }
    sum
}

/// Per-query `mindist` lookup table: the query-time hot path of the
/// engine.
///
/// [`mindist_paa_sax_sq`] recomputes breakpoints, segment bounds, and
/// gap arithmetic for *every candidate series*. A query, however, is
/// fixed for the whole search, so all of that folds into a
/// `segments × 256` table built once at kernel construction:
/// entry `(i, sym)` is the squared, length-weighted gap contribution of
/// segment `i` when the candidate's full-cardinality symbol is `sym`.
/// The per-series lower bound then becomes `w` table lookups plus adds
/// ([`MindistTable::series_lb_sq`]), and the node-level bound reuses the
/// same rows by clamping a per-segment *reference symbol* into the
/// word's covered symbol range ([`MindistTable::word_lb_sq`]).
///
/// The table is built from a per-segment query **envelope**
/// `[lo_i, hi_i]`: a degenerate point (`lo == hi ==` the query PAA) for
/// Euclidean queries, or the LB_Keogh envelope hull for DTW queries.
/// For any envelope the resulting bounds are **bit-identical** to the
/// reference implementations ([`mindist_paa_sax_sq`] /
/// [`mindist_paa_isax_sq`] for points, the DTW kernel's interval-gap
/// arithmetic for hulls): the same subtractions, products, and
/// summation order are performed, only hoisted out of the per-candidate
/// loop. Property tests in `crates/core` and `tests/property_tests.rs`
/// pin this equivalence down.
///
/// At 16 segments the table occupies 32 KiB — L1/L2-cache-resident for
/// the entire queue-drain phase.
#[derive(Debug, Clone)]
pub struct MindistTable {
    /// Segment-major gap contributions: entry `i * MAX_CARD + sym`.
    table: Vec<f64>,
    /// Per-segment region index of the envelope's lower end. Clamping it
    /// into a word's `[lo_sym, hi_sym]` range selects the table entry
    /// that realizes the envelope-to-region-interval distance (see
    /// `word_lb_sq` for the case analysis).
    ref_sym: Vec<u8>,
    segments: usize,
}

impl MindistTable {
    /// Table for a point query summary (the Euclidean case): the
    /// envelope of segment `i` is the single PAA value `paa[i]`.
    pub fn from_paa(paa: &[f64], series_len: usize) -> Self {
        Self::from_envelope(paa, paa, series_len)
    }

    /// Table for a per-segment envelope `[lo_i, hi_i]` (the DTW case:
    /// the LB_Keogh envelope hull of each segment).
    ///
    /// # Panics
    /// Panics if `lo` and `hi` differ in length or `lo[i] > hi[i]`.
    pub fn from_envelope(lo: &[f64], hi: &[f64], series_len: usize) -> Self {
        assert_eq!(lo.len(), hi.len(), "ragged envelope");
        let w = lo.len();
        let bp = breakpoints();
        let mut table = vec![0.0f64; w * MAX_CARD];
        let mut ref_sym = vec![0u8; w];
        for i in 0..w {
            assert!(lo[i] <= hi[i], "inverted envelope on segment {i}");
            let (s, e) = crate::paa::segment_bounds(series_len, w, i);
            let weight = (e - s) as f64;
            ref_sym[i] = sax_symbol(lo[i]);
            let row = &mut table[i * MAX_CARD..(i + 1) * MAX_CARD];
            for (sym, slot) in row.iter_mut().enumerate() {
                let region_lo = if sym == 0 {
                    f64::NEG_INFINITY
                } else {
                    bp[sym - 1]
                };
                let region_hi = if sym == MAX_CARD - 1 {
                    f64::INFINITY
                } else {
                    bp[sym]
                };
                // Distance between the envelope interval and the region
                // interval; identical arithmetic to the reference
                // mindist implementations, evaluated once per symbol.
                let d = if lo[i] > region_hi {
                    lo[i] - region_hi
                } else if region_lo > hi[i] {
                    region_lo - hi[i]
                } else {
                    0.0
                };
                *slot = d * d * weight;
            }
        }
        MindistTable {
            table,
            ref_sym,
            segments: w,
        }
    }

    /// Number of segments (table rows).
    #[inline]
    pub fn segments(&self) -> usize {
        self.segments
    }

    /// Per-series lower bound: `w` lookups + adds. Bit-identical to
    /// [`mindist_paa_sax_sq`] when built via [`MindistTable::from_paa`].
    #[inline]
    pub fn series_lb_sq(&self, sax: &[u8]) -> f64 {
        debug_assert_eq!(sax.len(), self.segments);
        let mut sum = 0.0f64;
        for (i, &sym) in sax.iter().enumerate() {
            sum += self.table[i * MAX_CARD + sym as usize];
        }
        sum
    }

    /// Node-level lower bound for an iSAX word, reusing the per-symbol
    /// rows. Bit-identical to [`mindist_paa_isax_sq`] for point
    /// envelopes.
    ///
    /// Per segment the word covers the contiguous symbol range
    /// `[lo_sym, hi_sym]`; the gap from the envelope to the union of
    /// those regions is realized by exactly one table entry:
    ///
    /// * envelope entirely above the range — entry `hi_sym` (gap to the
    ///   range's upper edge);
    /// * envelope entirely below the range — entry `lo_sym`;
    /// * overlap — any entry whose region meets the envelope, gap 0.
    ///
    /// All three cases collapse to clamping the envelope's reference
    /// symbol into `[lo_sym, hi_sym]`.
    pub fn word_lb_sq(&self, word: &IsaxWord) -> f64 {
        debug_assert_eq!(word.segments(), self.segments);
        let mut sum = 0.0f64;
        for i in 0..self.segments {
            let (lo_sym, hi_sym) = word.full_range(i);
            let idx = (self.ref_sym[i] as usize).clamp(lo_sym, hi_sym);
            sum += self.table[i * MAX_CARD + idx];
        }
        sum
    }

    /// Per-series lower bounds for a contiguous block of
    /// full-cardinality SAX words (`segments` bytes per candidate,
    /// `out.len()` candidates) — the batched pruning pass over a leaf's
    /// scan-contiguous summary block. Every `out[j]` is bit-identical to
    /// [`MindistTable::series_lb_sq`] of the `j`-th word: each candidate
    /// sums its table entries in ascending segment order. Dispatches to
    /// the AVX2 transpose-and-gather kernel when
    /// [`crate::distance::simd::avx2_available`] says so.
    ///
    /// # Panics
    /// Panics if `sax_block.len() != out.len() * segments`.
    pub fn block_lb_sq(&self, sax_block: &[u8], out: &mut [f64]) {
        crate::distance::simd::lb_block_sq(&self.table, sax_block, self.segments, out);
    }

    /// Node-level lower bounds for a contiguous range of forest roots,
    /// eight roots per iteration over the segment-major root planes
    /// ([`crate::tree::RootSoa`]): per segment, the table entry at the
    /// reference symbol clamped into the root's symbol interval
    /// `[lo, hi]` (any interval with `lo <= hi`; the production planes
    /// hold each subtree's data-tight SAX envelope), summed in ascending
    /// segment order. The clamp is exact integer arithmetic, so for an
    /// interval that is a word's full range `out[k]` is bit-identical to
    /// [`MindistTable::word_lb_sq`], and for a point interval to
    /// [`MindistTable::series_lb_sq`] of the clamped word. Dispatches to
    /// the AVX2 clamp-and-gather kernel when
    /// [`crate::distance::simd::avx2_available`] says so.
    ///
    /// # Panics
    /// Panics if the planes' segment count differs from the table's,
    /// `out.len() != range.len()`, or the range exceeds the root count.
    pub fn root_lb_block(
        &self,
        roots: &crate::tree::RootSoa,
        range: std::ops::Range<usize>,
        out: &mut [f64],
    ) {
        assert_eq!(roots.segments(), self.segments, "segment count mismatch");
        assert_eq!(range.len(), out.len(), "ragged root block");
        assert!(range.end <= roots.len(), "root range out of bounds");
        crate::distance::simd::word_lb_sq_soa(
            &self.table,
            &self.ref_sym,
            roots.lo_plane(),
            roots.hi_plane(),
            roots.len(),
            range.start,
            self.segments,
            out,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::euclidean_sq;
    use crate::paa::paa;

    #[test]
    fn inv_norm_cdf_known_values() {
        assert!(inv_norm_cdf(0.5).abs() < 1e-9);
        assert!((inv_norm_cdf(0.975) - 1.959964).abs() < 1e-5);
        assert!((inv_norm_cdf(0.025) + 1.959964).abs() < 1e-5);
        assert!((inv_norm_cdf(0.9986501) - 2.9999).abs() < 1e-3);
    }

    #[test]
    fn breakpoints_sorted_and_symmetric() {
        let bp = breakpoints();
        for w in bp.windows(2) {
            assert!(w[0] < w[1]);
        }
        // Symmetric around zero: bp[j] == -bp[254-j]
        for j in 0..bp.len() {
            assert!((bp[j] + bp[bp.len() - 1 - j]).abs() < 1e-9, "j={j}");
        }
        // Middle breakpoint is the median = 0
        assert!(bp[127].abs() < 1e-12);
    }

    #[test]
    fn sax_symbol_region_membership() {
        let bp = breakpoints();
        for &v in &[-5.0, -1.0, -0.001, 0.0, 0.001, 0.7, 5.0] {
            let s = sax_symbol(v) as usize;
            if s > 0 {
                assert!(bp[s - 1] <= v, "v={v} s={s}");
            }
            if s < MAX_CARD - 1 {
                assert!(v <= bp[s], "v={v} s={s}");
            }
        }
        assert_eq!(sax_symbol(f64::NEG_INFINITY), 0);
        assert_eq!(sax_symbol(f64::INFINITY), (MAX_CARD - 1) as u8);
    }

    #[test]
    fn symbol_nesting_property() {
        // The b-bit symbol is the top b bits of the 8-bit symbol: checking
        // against an explicitly computed low-cardinality region.
        for &v in &[-2.0f64, -0.3, 0.0, 0.4, 1.7] {
            let full = sax_symbol(v);
            for bits in 1..=8u8 {
                let sym = full >> (8 - bits);
                let word = IsaxWord {
                    symbols: vec![sym],
                    card_bits: vec![bits],
                };
                let (lo_sym, hi_sym) = word.full_range(0);
                assert!(lo_sym <= full as usize && full as usize <= hi_sym);
            }
        }
    }

    #[test]
    fn word_contains_and_refine() {
        let sax = [0b1011_0010u8, 0b0100_1111];
        let w1 = IsaxWord::from_sax(&sax, 1);
        assert_eq!(w1.symbols, vec![1, 0]);
        assert!(w1.contains(&sax));
        let w2 = w1.refine(0, 0); // sax[0] top bits are 10 -> matches
        assert!(w2.contains(&sax));
        let w2b = w1.refine(0, 1); // 11 -> does not match
        assert!(!w2b.contains(&sax));
        assert_eq!(w2.card_bits, vec![2, 1]);
    }

    #[test]
    fn full_range_widths() {
        let w = IsaxWord {
            symbols: vec![0b101, 0],
            card_bits: vec![3, 0],
        };
        assert_eq!(w.full_range(0), (0b101 << 5, (0b101 << 5) + 31));
        assert_eq!(w.full_range(1), (0, 255));
    }

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
        crate::series::znormalize(&mut out);
        out
    }

    #[test]
    fn mindist_lower_bounds_euclidean() {
        // Core soundness invariant: mindist(paa(Q), isax(S)) <= ED(Q, S)
        // for every cardinality.
        let len = 96;
        let segs = 8;
        for qa in 0..6u64 {
            let q = pseudo_series(qa + 100, len);
            let qp = paa(&q, segs);
            for sb in 0..6u64 {
                let s = pseudo_series(sb + 900, len);
                let sp = paa(&s, segs);
                let mut sax = vec![0u8; segs];
                sax_word_into(&sp, &mut sax);
                let ed = euclidean_sq(&q, &s);
                for bits in 1..=8u8 {
                    let w = IsaxWord::from_sax(&sax, bits);
                    let md = mindist_paa_isax_sq(&qp, &w, len);
                    assert!(
                        md <= ed + 1e-6,
                        "bits={bits} qa={qa} sb={sb}: mindist {md} > ed {ed}"
                    );
                }
                let md8 = mindist_paa_sax_sq(&qp, &sax, len);
                assert!(md8 <= ed + 1e-6);
            }
        }
    }

    #[test]
    fn mindist_monotone_in_cardinality() {
        // Refining a word can only tighten (increase) the lower bound.
        let len = 64;
        let segs = 8;
        let q = pseudo_series(3, len);
        let qp = paa(&q, segs);
        let s = pseudo_series(77, len);
        let sp = paa(&s, segs);
        let mut sax = vec![0u8; segs];
        sax_word_into(&sp, &mut sax);
        let mut prev = 0.0f64;
        for bits in 1..=8u8 {
            let w = IsaxWord::from_sax(&sax, bits);
            let md = mindist_paa_isax_sq(&qp, &w, len);
            assert!(md + 1e-12 >= prev, "bits={bits}: {md} < {prev}");
            prev = md;
        }
    }

    #[test]
    fn table_series_lb_bit_identical_to_reference() {
        let len = 96;
        let segs = 8;
        for qa in 0..8u64 {
            let q = pseudo_series(qa + 3, len);
            let qp = paa(&q, segs);
            let table = MindistTable::from_paa(&qp, len);
            for sb in 0..8u64 {
                let s = pseudo_series(sb + 400, len);
                let sp = paa(&s, segs);
                let mut sax = vec![0u8; segs];
                sax_word_into(&sp, &mut sax);
                let want = mindist_paa_sax_sq(&qp, &sax, len);
                let got = table.series_lb_sq(&sax);
                assert_eq!(got.to_bits(), want.to_bits(), "qa={qa} sb={sb}");
            }
        }
    }

    #[test]
    fn table_word_lb_bit_identical_to_reference() {
        let len = 64;
        let segs = 8;
        for qa in 0..6u64 {
            let q = pseudo_series(qa + 9, len);
            let qp = paa(&q, segs);
            let table = MindistTable::from_paa(&qp, len);
            for sb in 0..6u64 {
                let s = pseudo_series(sb + 800, len);
                let sp = paa(&s, segs);
                let mut sax = vec![0u8; segs];
                sax_word_into(&sp, &mut sax);
                for bits in 0..=8u8 {
                    let word = if bits == 0 {
                        IsaxWord {
                            symbols: vec![0; segs],
                            card_bits: vec![0; segs],
                        }
                    } else {
                        IsaxWord::from_sax(&sax, bits)
                    };
                    let want = mindist_paa_isax_sq(&qp, &word, len);
                    let got = table.word_lb_sq(&word);
                    assert_eq!(got.to_bits(), want.to_bits(), "qa={qa} sb={sb} bits={bits}");
                }
            }
        }
    }

    #[test]
    fn table_block_matches_per_word_lookups() {
        let len = 64;
        let segs = 8;
        let q = pseudo_series(17, len);
        let table = MindistTable::from_paa(&paa(&q, segs), len);
        let mut block = Vec::new();
        let mut want = Vec::new();
        for sb in 0..20u64 {
            let s = pseudo_series(sb + 100, len);
            let mut sax = vec![0u8; segs];
            sax_word_into(&paa(&s, segs), &mut sax);
            want.push(table.series_lb_sq(&sax));
            block.extend_from_slice(&sax);
        }
        let mut got = vec![0.0f64; want.len()];
        table.block_lb_sq(&block, &mut got);
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
    }

    #[test]
    fn root_sweep_matches_word_lb_bitwise() {
        // 43 roots with mixed per-segment cardinalities (including
        // 0-bit whole-line segments): the batched clamp-and-gather
        // sweep must reproduce `word_lb_sq` bit for bit, across the
        // 8-wide body, the tail, and arbitrary sub-ranges.
        let len = 64;
        let segs = 8;
        let n = 43usize;
        let q = pseudo_series(57, len);
        let table = MindistTable::from_paa(&paa(&q, segs), len);
        let words: Vec<IsaxWord> = (0..n)
            .map(|r| {
                let s = pseudo_series(r as u64 + 4000, len);
                let mut sax = vec![0u8; segs];
                sax_word_into(&paa(&s, segs), &mut sax);
                let card_bits: Vec<u8> = (0..segs).map(|i| ((r + i * 3) % 9) as u8).collect();
                let symbols: Vec<u8> = sax
                    .iter()
                    .zip(&card_bits)
                    .map(|(&sym, &bits)| if bits == 0 { 0 } else { sym >> (8 - bits) })
                    .collect();
                IsaxWord { symbols, card_bits }
            })
            .collect();
        let roots = crate::tree::RootSoa::from_words(words.iter());
        assert_eq!(roots.len(), n);
        assert_eq!(roots.segments(), segs);
        let want: Vec<f64> = words.iter().map(|w| table.word_lb_sq(w)).collect();
        for range in [0..n, 0..8, 3..20, 30..43, 42..43, 7..7] {
            let mut got = vec![0.0f64; range.len()];
            table.root_lb_block(&roots, range.clone(), &mut got);
            for (j, g) in got.iter().enumerate() {
                assert_eq!(
                    g.to_bits(),
                    want[range.start + j].to_bits(),
                    "range={range:?} j={j}"
                );
            }
        }
    }

    #[test]
    fn envelope_table_gap_matches_interval_arithmetic() {
        // Interval envelopes (the DTW hull case): the table entry for a
        // word range must equal the direct interval-to-interval gap.
        let len = 64;
        let segs = 8;
        let q = pseudo_series(23, len);
        let qp = paa(&q, segs);
        let lo: Vec<f64> = qp.iter().map(|v| v - 0.4).collect();
        let hi: Vec<f64> = qp.iter().map(|v| v + 0.3).collect();
        let table = MindistTable::from_envelope(&lo, &hi, len);
        let bp = breakpoints();
        for sb in 0..10u64 {
            let s = pseudo_series(sb + 50, len);
            let mut sax = vec![0u8; segs];
            sax_word_into(&paa(&s, segs), &mut sax);
            for bits in 1..=8u8 {
                let word = IsaxWord::from_sax(&sax, bits);
                let mut want = 0.0f64;
                for i in 0..segs {
                    let (a, b) = word.full_range(i);
                    let rlo = if a == 0 { f64::NEG_INFINITY } else { bp[a - 1] };
                    let rhi = if b == MAX_CARD - 1 {
                        f64::INFINITY
                    } else {
                        bp[b]
                    };
                    let d = if lo[i] > rhi {
                        lo[i] - rhi
                    } else if rlo > hi[i] {
                        rlo - hi[i]
                    } else {
                        0.0
                    };
                    let (s0, e0) = crate::paa::segment_bounds(len, segs, i);
                    want += d * d * (e0 - s0) as f64;
                }
                let got = table.word_lb_sq(&word);
                assert_eq!(got.to_bits(), want.to_bits(), "sb={sb} bits={bits}");
            }
        }
    }

    #[test]
    fn mindist_zero_for_matching_region() {
        let len = 32;
        let segs = 4;
        let s = pseudo_series(5, len);
        let sp = paa(&s, segs);
        let mut sax = vec![0u8; segs];
        sax_word_into(&sp, &mut sax);
        let w = IsaxWord::from_sax(&sax, 8);
        // The series' own PAA sits inside its own region: mindist must be 0.
        assert_eq!(mindist_paa_isax_sq(&sp, &w, len), 0.0);
    }
}
