//! The scalar verifier: plain `f64` arithmetic, no index, no SIMD, no
//! code shared with the program. For every query it recomputes the
//! reported neighbours' distances, then scans the whole collection with
//! early exit at that bound and fails if any other series is closer.
//!
//! Two textbook lower bounds keep the scan affordable at a million
//! series: a series whose 8-segment PAA is already too far from the
//! query's (Euclidean), or whose points lie too far outside the query's
//! LB_Keogh envelope (DTW), is skipped without its full distance.

use odyssey_core::search::answer::Answer;
use odyssey_core::search::engine::BatchAnswer;
use odyssey_core::series::DatasetBuffer;

/// The search a query asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Euclidean 1-NN.
    Ed,
    /// Euclidean k-NN.
    Knn(usize),
    /// DTW 1-NN under a Sakoe-Chiba band of this half-width.
    Dtw(usize),
}

/// One query to verify.
#[derive(Debug, Clone, Copy)]
pub struct Query<'a> {
    pub kind: Kind,
    pub data: &'a [f32],
}

/// What the program answered: `(squared distance, series id)` pairs in
/// ascending distance order — one pair for 1-NN, `k` for k-NN.
#[derive(Debug, Clone, PartialEq)]
pub struct Reported {
    pub neighbors: Vec<(f64, u32)>,
}

impl Reported {
    pub fn from_nn(a: &Answer) -> Self {
        Reported {
            neighbors: a
                .series_id
                .map(|id| (a.distance_sq, id))
                .into_iter()
                .collect(),
        }
    }

    pub fn from_answer(a: &BatchAnswer) -> Self {
        match a {
            BatchAnswer::Nn(a) => Reported::from_nn(a),
            BatchAnswer::Knn(k) => Reported {
                neighbors: k.neighbors.clone(),
            },
        }
    }

    /// Equal ids and bit-identical distances.
    pub fn same_bits(&self, other: &Reported) -> bool {
        self.neighbors.len() == other.neighbors.len()
            && self
                .neighbors
                .iter()
                .zip(&other.neighbors)
                .all(|(a, b)| a.0.to_bits() == b.0.to_bits() && a.1 == b.1)
    }
}

/// The program subtracts in `f32` before widening; this verifier widens
/// first. Distances therefore agree to about 1e-7 relative, and a series
/// counts as closer only when it beats the bound by more than this.
const TOLERANCE: f64 = 1e-5;

/// Elements summed between early-exit checks.
const CHECK_EVERY: usize = 8;

fn ed_sq(a: &[f32], b: &[f32]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (x as f64 - y as f64).powi(2))
        .sum()
}

/// Squared Euclidean distance, or `None` once it reaches `limit`.
fn ed_sq_below(a: &[f32], b: &[f32], limit: f64) -> Option<f64> {
    let mut acc = 0.0f64;
    for (ca, cb) in a.chunks(CHECK_EVERY).zip(b.chunks(CHECK_EVERY)) {
        for (&x, &y) in ca.iter().zip(cb) {
            let d = x as f64 - y as f64;
            acc += d * d;
        }
        if acc >= limit {
            return None;
        }
    }
    Some(acc)
}

/// Segments of the PAA filter. Series lengths that are not a multiple
/// skip the filter (its bound is then zero).
const PAA_SEGMENTS: usize = 8;

/// Segment means of `s`.
fn paa(s: &[f32]) -> [f64; PAA_SEGMENTS] {
    let mut out = [0.0; PAA_SEGMENTS];
    if s.len().is_multiple_of(PAA_SEGMENTS) {
        let seg = s.len() / PAA_SEGMENTS;
        for (o, chunk) in out.iter_mut().zip(s.chunks(seg)) {
            *o = chunk.iter().map(|&v| v as f64).sum::<f64>() / seg as f64;
        }
    }
    out
}

/// `seg_len · Σ (ā − b̄)²` over segment means never exceeds the squared
/// Euclidean distance of the series themselves.
fn paa_lower_bound(a: &[f64; PAA_SEGMENTS], b: &[f64; PAA_SEGMENTS], seg_len: usize) -> f64 {
    seg_len as f64 * a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>()
}

/// Running min/max of `q` over `[i − w, i + w]` (the LB_Keogh envelope),
/// by direct scan: the verifier favours obviousness over speed.
fn envelope(q: &[f32], w: usize) -> (Vec<f64>, Vec<f64>) {
    let n = q.len();
    (0..n)
        .map(|i| {
            let win = &q[i.saturating_sub(w)..=(i + w).min(n - 1)];
            let lo = win.iter().fold(f64::INFINITY, |m, &v| m.min(v as f64));
            let hi = win.iter().fold(f64::NEG_INFINITY, |m, &v| m.max(v as f64));
            (lo, hi)
        })
        .unzip()
}

/// LB_Keogh of `c` against an envelope, or `None` once it reaches `limit`.
fn lb_keogh_below(lower: &[f64], upper: &[f64], c: &[f32], limit: f64) -> Option<f64> {
    let mut acc = 0.0f64;
    for (i, &v) in c.iter().enumerate() {
        let v = v as f64;
        let d = if v > upper[i] {
            v - upper[i]
        } else if v < lower[i] {
            lower[i] - v
        } else {
            0.0
        };
        acc += d * d;
        if acc >= limit {
            return None;
        }
    }
    Some(acc)
}

/// Squared DTW distance under a band of half-width `w`, or `None` once
/// every cell of a row reaches `limit`. `rows` is scratch.
fn dtw_sq_below(
    q: &[f32],
    c: &[f32],
    w: usize,
    limit: f64,
    rows: &mut (Vec<f64>, Vec<f64>),
) -> Option<f64> {
    let n = q.len();
    let w = w.min(n - 1);
    let (prev, cur) = rows;
    prev.clear();
    prev.resize(n, f64::INFINITY);
    cur.clear();
    cur.resize(n, f64::INFINITY);
    for (i, &qi) in q.iter().enumerate() {
        let (lo, hi) = (i.saturating_sub(w), (i + w).min(n - 1));
        let mut row_min = f64::INFINITY;
        for j in lo..=hi {
            let d = qi as f64 - c[j] as f64;
            let best = if i == 0 && j == 0 {
                0.0
            } else {
                let up = if i > 0 { prev[j] } else { f64::INFINITY };
                let left = if j > lo { cur[j - 1] } else { f64::INFINITY };
                let diag = if i > 0 && j > 0 {
                    prev[j - 1]
                } else {
                    f64::INFINITY
                };
                up.min(left).min(diag)
            };
            cur[j] = d * d + best;
            row_min = row_min.min(cur[j]);
        }
        if row_min >= limit {
            return None;
        }
        // The next row reads only cells this row wrote or cells right of
        // every band so far, which still hold infinity.
        std::mem::swap(prev, cur);
    }
    (prev[n - 1] < limit).then_some(prev[n - 1])
}

fn true_distance_sq(kind: Kind, q: &[f32], c: &[f32]) -> f64 {
    match kind {
        Kind::Ed | Kind::Knn(_) => ed_sq(q, c),
        Kind::Dtw(w) => {
            dtw_sq_below(q, c, w, f64::INFINITY, &mut (Vec::new(), Vec::new())).expect("no limit")
        }
    }
}

/// Checks the shape of one answer and returns the bound for the scan:
/// the largest recomputed distance among the reported neighbours.
fn check_reported(data: &DatasetBuffer, q: &Query, r: &Reported) -> Result<f64, String> {
    let want = match q.kind {
        Kind::Knn(k) => k.min(data.num_series()),
        _ => 1.min(data.num_series()),
    };
    if r.neighbors.len() != want {
        return Err(format!(
            "{} neighbours reported, {want} expected",
            r.neighbors.len()
        ));
    }
    let mut bound = 0.0f64;
    let mut last = 0.0f64;
    for (i, &(d_sq, id)) in r.neighbors.iter().enumerate() {
        if id as usize >= data.num_series() {
            return Err(format!("neighbour id {id} is out of range"));
        }
        if r.neighbors[..i].iter().any(|&(_, other)| other == id) {
            return Err(format!("neighbour id {id} is reported twice"));
        }
        if d_sq < last {
            return Err("neighbours are not in ascending distance order".to_string());
        }
        last = d_sq;
        let truth = true_distance_sq(q.kind, q.data, data.series(id as usize));
        if (d_sq - truth).abs() > TOLERANCE * truth.max(1e-9) {
            return Err(format!(
                "series {id} is reported at squared distance {d_sq}, recomputed {truth}"
            ));
        }
        bound = bound.max(truth);
    }
    Ok(bound)
}

/// Verifies every answer against a full scan of `data` on `threads`
/// threads. Entry `i` is `None` when query `i` is answered correctly and
/// otherwise says what is wrong.
pub fn verify(
    data: &DatasetBuffer,
    queries: &[Query],
    reported: &[Reported],
    threads: usize,
) -> Vec<Option<String>> {
    assert_eq!(queries.len(), reported.len());
    let mut verdict: Vec<Option<String>> = vec![None; queries.len()];
    let mut limits = vec![0.0f64; queries.len()];
    for (i, (q, r)) in queries.iter().zip(reported).enumerate() {
        match check_reported(data, q, r) {
            Ok(bound) => limits[i] = bound * (1.0 - TOLERANCE),
            Err(e) => verdict[i] = Some(e),
        }
    }
    let envelopes: Vec<Option<(Vec<f64>, Vec<f64>)>> = queries
        .iter()
        .map(|q| match q.kind {
            Kind::Dtw(w) => Some(envelope(q.data, w)),
            _ => None,
        })
        .collect();
    let paas: Vec<[f64; PAA_SEGMENTS]> = queries.iter().map(|q| paa(q.data)).collect();
    let seg_len = data.series_len() / PAA_SEGMENTS;
    let live: Vec<usize> = (0..queries.len())
        .filter(|&i| verdict[i].is_none())
        .collect();
    let n = data.num_series();
    let per = n.div_ceil(threads.max(1)).max(1);
    let closer: Vec<Vec<(usize, usize, f64)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .step_by(per)
            .map(|start| {
                let (live, limits, envelopes, paas) = (&live, &limits, &envelopes, &paas);
                scope.spawn(move || {
                    let mut found = Vec::new();
                    let mut rows = (Vec::new(), Vec::new());
                    // Series outermost: each is read once and meets every
                    // query while it is in cache.
                    for s in start..(start + per).min(n) {
                        let c = data.series(s);
                        let c_paa = paa(c);
                        for &qi in live {
                            let q = &queries[qi];
                            let d = match q.kind {
                                Kind::Ed | Kind::Knn(_) => {
                                    (paa_lower_bound(&paas[qi], &c_paa, seg_len) < limits[qi])
                                        .then(|| ed_sq_below(q.data, c, limits[qi]))
                                        .flatten()
                                }
                                Kind::Dtw(w) => {
                                    let (lo, hi) =
                                        envelopes[qi].as_ref().expect("envelope of a DTW query");
                                    lb_keogh_below(lo, hi, c, limits[qi]).and_then(|_| {
                                        dtw_sq_below(q.data, c, w, limits[qi], &mut rows)
                                    })
                                }
                            };
                            if let Some(d) = d {
                                if !reported[qi]
                                    .neighbors
                                    .iter()
                                    .any(|&(_, id)| id as usize == s)
                                {
                                    found.push((qi, s, d));
                                }
                            }
                        }
                    }
                    found
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("verifier thread panicked"))
            .collect()
    });
    for (qi, s, d) in closer.into_iter().flatten() {
        verdict[qi].get_or_insert_with(|| {
            format!("series {s} at squared distance {d} is closer than every reported neighbour")
        });
    }
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{graded_queries, walk_collection, white_queries, Walk};

    /// Every series by true distance, computed independently of `verify`.
    fn ranked(data: &DatasetBuffer, q: &Query) -> Vec<(f64, u32)> {
        let mut all: Vec<(f64, u32)> = (0..data.num_series())
            .map(|s| (true_distance_sq(q.kind, q.data, data.series(s)), s as u32))
            .collect();
        all.sort_by(|a, b| a.0.total_cmp(&b.0));
        all
    }

    fn k_of(kind: Kind) -> usize {
        if let Kind::Knn(k) = kind {
            k
        } else {
            1
        }
    }

    fn brute(data: &DatasetBuffer, q: &Query) -> Reported {
        let mut all = ranked(data, q);
        all.truncate(k_of(q.kind));
        Reported { neighbors: all }
    }

    fn fixture() -> (DatasetBuffer, DatasetBuffer) {
        let data = walk_collection(Walk::Random, 600, 64, 11, 2);
        let mut q = graded_queries(&data, 6, 0.05, 0.5, 12).raw().to_vec();
        q.extend_from_slice(white_queries(3, 64, 13).raw());
        (data, DatasetBuffer::from_vec(q, 64))
    }

    fn queries(q: &DatasetBuffer) -> Vec<Query<'_>> {
        let kinds = [Kind::Ed, Kind::Knn(5), Kind::Dtw(6)];
        (0..q.num_series())
            .map(|i| Query {
                kind: kinds[i % 3],
                data: q.series(i),
            })
            .collect()
    }

    #[test]
    fn correct_answers_pass() {
        let (data, q) = fixture();
        let qs = queries(&q);
        let reported: Vec<Reported> = qs.iter().map(|q| brute(&data, q)).collect();
        for threads in [1, 3] {
            let verdict = verify(&data, &qs, &reported, threads);
            assert!(verdict.iter().all(Option::is_none), "{verdict:?}");
        }
    }

    #[test]
    fn a_deliberately_wrong_answer_is_caught() {
        let (data, q) = fixture();
        let qs = queries(&q);
        let good: Vec<Reported> = qs.iter().map(|q| brute(&data, q)).collect();
        for (i, q) in qs.iter().enumerate() {
            // The next-nearest series, reported with its true distance, is
            // a well-formed answer that only the scan can reject.
            let runner_up = ranked(&data, q)[k_of(q.kind)];
            let mut bad = good.clone();
            *bad[i].neighbors.last_mut().unwrap() = runner_up;
            let verdict = verify(&data, &qs, &bad, 2);
            assert!(
                verdict[i].as_ref().is_some_and(|e| e.contains("is closer")),
                "query {i}: {verdict:?}"
            );
            assert!(verdict
                .iter()
                .enumerate()
                .all(|(j, v)| j == i || v.is_none()));
        }
    }

    #[test]
    fn malformed_answers_are_caught() {
        let (data, q) = fixture();
        let qs = queries(&q);
        let good: Vec<Reported> = qs.iter().map(|q| brute(&data, q)).collect();
        let mut wrong_distance = good.clone();
        wrong_distance[0].neighbors[0].0 *= 1.01;
        let mut missing = good.clone();
        missing[1].neighbors.pop();
        let mut twice = good.clone();
        twice[1].neighbors[1] = twice[1].neighbors[0];
        let mut out_of_range = good.clone();
        out_of_range[2].neighbors[0].1 = 600;
        let mut empty = good.clone();
        empty[0].neighbors.clear();
        for (bad, i) in [
            (wrong_distance, 0),
            (missing, 1),
            (twice, 1),
            (out_of_range, 2),
            (empty, 0),
        ] {
            let verdict = verify(&data, &qs, &bad, 2);
            assert!(verdict[i].is_some(), "query {i} must fail");
        }
    }

    #[test]
    fn bit_comparison_sees_the_last_bit() {
        let a = Reported {
            neighbors: vec![(1.5, 3)],
        };
        let mut b = a.clone();
        assert!(a.same_bits(&b));
        b.neighbors[0].0 = f64::from_bits(1.5f64.to_bits() + 1);
        assert!(!a.same_bits(&b));
        assert!(!a.same_bits(&Reported {
            neighbors: vec![(1.5, 4)]
        }));
    }
}
