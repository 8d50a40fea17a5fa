//! Percentiles, medians and the run-to-run spread. A tail percentile is
//! only reported when at least [`TAIL_FLOOR`] samples lie beyond it.

/// Samples that must lie beyond a percentile for it to be reported
/// (so p99 needs 1 000 samples and p90 needs 100).
pub const TAIL_FLOOR: usize = 10;

/// Whether `n` samples support reporting percentile `p` (0–100).
pub fn supports(n: usize, p: f64) -> bool {
    n as f64 * (100.0 - p) >= TAIL_FLOOR as f64 * 100.0
}

/// Nearest-rank percentile `p` (0–100) of ascending `sorted`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A set of latency samples in milliseconds.
#[derive(Debug, Clone, Default)]
pub struct Latencies {
    ms: Vec<f64>,
    sorted: bool,
}

impl Latencies {
    pub fn push(&mut self, ms: f64) {
        self.ms.push(ms);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.ms.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ms.is_empty()
    }

    /// Percentile `p`, however few samples lie beyond it; NaN of none (a
    /// run too short to time anything reports that and fails).
    pub fn nearest_rank(&mut self, p: f64) -> f64 {
        if self.ms.is_empty() {
            return f64::NAN;
        }
        if !self.sorted {
            self.ms.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        percentile(&self.ms, p)
    }

    /// Percentile `p`, or `None` when fewer than [`TAIL_FLOOR`] samples
    /// lie beyond it (the median needs only one sample).
    pub fn p(&mut self, p: f64) -> Option<f64> {
        if self.ms.is_empty() || (p > 50.0 && !supports(self.ms.len(), p)) {
            return None;
        }
        Some(self.nearest_rank(p))
    }
}

/// Median over distinct queries of each query's median latency. A run
/// times as many repeats of a small pool as fit, so pooling raw samples
/// would weigh whichever queries happened to get one repeat more; this
/// weighs every query once. Entries are `(query, milliseconds)`.
pub fn median_of_query_medians(samples: &[(usize, f64)]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut by_query: std::collections::BTreeMap<usize, Vec<f64>> =
        std::collections::BTreeMap::new();
    for &(q, ms) in samples {
        by_query.entry(q).or_default().push(ms);
    }
    let medians: Vec<f64> = by_query.values().map(|v| median(v)).collect();
    median(&medians)
}

/// Percentile `p` of each window of `window_s` seconds, then the median
/// over the windows: a stall that hits one window of an open-loop phase
/// moves that window's percentile, not the phase's. Entries are `(time
/// in seconds, milliseconds)`; windows with fewer than [`TAIL_FLOOR`]
/// samples are left out, and if all are, the percentile is taken over
/// everything (NaN of nothing).
pub fn windowed_percentile(samples: &[(f64, f64)], window_s: f64, p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut windows: std::collections::BTreeMap<u64, Vec<f64>> = std::collections::BTreeMap::new();
    for &(t, ms) in samples {
        windows.entry((t / window_s) as u64).or_default().push(ms);
    }
    let mut per_window = Vec::new();
    for v in windows.values_mut().filter(|v| v.len() >= TAIL_FLOOR) {
        v.sort_by(f64::total_cmp);
        per_window.push(percentile(v, p));
    }
    if per_window.is_empty() {
        let mut all: Vec<f64> = samples.iter().map(|s| s.1).collect();
        all.sort_by(f64::total_cmp);
        return percentile(&all, p);
    }
    median(&per_window)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the exclusive method), so the spread printed by
/// `--compare` is the one the accepting driver computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Distance between the quartiles as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_percentiles_need_ten_samples_beyond() {
        assert!(supports(1000, 99.0));
        assert!(!supports(999, 99.0));
        assert!(supports(100, 90.0));
        assert!(!supports(99, 90.0));
        let mut l = Latencies::default();
        for i in 0..999 {
            l.push(i as f64);
        }
        assert_eq!(l.p(50.0), Some(499.0));
        assert!(l.p(90.0).is_some());
        assert_eq!(
            l.p(99.0),
            None,
            "999 samples leave fewer than ten beyond p99"
        );
        l.push(999.0);
        assert_eq!(l.p(99.0), Some(989.0));
        assert_eq!(Latencies::default().p(50.0), None);
        assert!(Latencies::default().nearest_rank(50.0).is_nan());
    }

    #[test]
    fn query_medians_weigh_every_query_once() {
        // Query 0 is fast and got three repeats, query 1 is slow with one.
        let samples = [(0, 10.0), (1, 100.0), (0, 12.0), (0, 11.0)];
        assert_eq!(median_of_query_medians(&samples), 55.5);
        assert_eq!(median_of_query_medians(&[(7, 3.0)]), 3.0);
    }

    #[test]
    fn a_stall_in_one_window_does_not_move_the_windowed_percentile() {
        // Five windows of 20 samples at 1..20 ms; the third stalls.
        let mut samples = Vec::new();
        for w in 0..5 {
            for i in 0..20 {
                let ms = (i + 1) as f64 + if w == 2 { 300.0 } else { 0.0 };
                samples.push((w as f64 * 0.5 + i as f64 * 0.02, ms));
            }
        }
        assert_eq!(windowed_percentile(&samples, 0.5, 50.0), 10.0);
        assert_eq!(windowed_percentile(&samples, 0.5, 90.0), 18.0);
        // Pooled, the stalled fifth of the samples owns the tail.
        let mut pooled: Vec<f64> = samples.iter().map(|s| s.1).collect();
        pooled.sort_by(f64::total_cmp);
        assert!(percentile(&pooled, 90.0) > 300.0);
        // Too few samples for any window: the percentile of everything.
        assert_eq!(windowed_percentile(&samples[..5], 0.5, 50.0), 3.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }
}
