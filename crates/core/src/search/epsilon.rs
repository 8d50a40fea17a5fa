//! ε-approximate exact search.
//!
//! The paper's conclusion lists approximate similarity search as future
//! work; the standard formulation in the data-series literature
//! (Echihabi et al., "Return of the Lernaean Hydra") is
//! **ng-approximate with an ε guarantee**: return an answer whose
//! distance is at most `(1 + ε)` times the true nearest-neighbor
//! distance. The index needs no change — pruning just compares lower
//! bounds against `BSF / (1 + ε)²` (squared space), discarding
//! candidates that could improve the answer by less than the guarantee.
//! `ε = 0` degenerates to exact search.
//!
//! [`EpsilonRelaxed`] wraps any [`ResultSet`], shrinking the *threshold*
//! it reports while keeping offers unmodified, so the engine, stealing
//! and BSF-sharing machinery all work unchanged.

use super::bsf::ResultSet;

/// A pruning-relaxed view of a result set: reports `threshold / (1+ε)²`,
/// so anything pruned could improve the answer by at most a factor
/// `(1+ε)`.
pub struct EpsilonRelaxed<'r, R: ResultSet> {
    inner: &'r R,
    /// Precomputed `1 / (1 + ε)²`.
    inv_sq: f64,
}

impl<R: ResultSet> std::fmt::Debug for EpsilonRelaxed<'_, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpsilonRelaxed")
            .field("inv_sq", &self.inv_sq)
            .finish_non_exhaustive()
    }
}

impl<'r, R: ResultSet> EpsilonRelaxed<'r, R> {
    /// Wraps `inner` with relaxation factor `epsilon >= 0`.
    pub fn new(inner: &'r R, epsilon: f64) -> Self {
        assert!(epsilon >= 0.0, "epsilon must be non-negative");
        let one_plus = 1.0 + epsilon;
        EpsilonRelaxed {
            inner,
            inv_sq: 1.0 / (one_plus * one_plus),
        }
    }
}

impl<R: ResultSet> ResultSet for EpsilonRelaxed<'_, R> {
    #[inline]
    fn threshold_sq(&self) -> f64 {
        self.inner.threshold_sq() * self.inv_sq
    }

    #[inline]
    fn offer(&self, distance_sq: f64, id: u32) -> bool {
        self.inner.offer(distance_sq, id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{Index, IndexConfig};
    use crate::search::bsf::SharedBsf;
    use crate::search::engine::BatchEngine;
    use crate::search::exact::SearchParams;
    use crate::series::DatasetBuffer;
    use std::sync::Arc;

    fn walk_dataset(n: usize, len: usize, seed: u64) -> DatasetBuffer {
        let mut x = seed | 1;
        let mut data = Vec::with_capacity(n * len);
        for _ in 0..n {
            let mut acc = 0.0f32;
            let mut s = Vec::with_capacity(len);
            for _ in 0..len {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                acc += ((x % 2000) as f32 / 1000.0) - 1.0;
                s.push(acc);
            }
            crate::series::znormalize(&mut s);
            data.extend_from_slice(&s);
        }
        DatasetBuffer::from_vec(data, len)
    }

    fn build(n: usize) -> Arc<Index> {
        Arc::new(Index::build(
            walk_dataset(n, 64, 3),
            IndexConfig::new(64).with_segments(8).with_leaf_capacity(16),
            2,
        ))
    }

    #[test]
    fn epsilon_zero_is_exact() {
        let idx = build(800);
        let q = walk_dataset(1, 64, 91).series(0).to_vec();
        let exact = idx.brute_force(&q);
        let (got, _) = BatchEngine::new(idx, 2).epsilon(&q, 0.0, &SearchParams::new(2));
        assert!((got.distance - exact.distance).abs() < 1e-9);
    }

    #[test]
    fn guarantee_holds_for_various_epsilons() {
        let idx = build(1000);
        let engine = BatchEngine::new(Arc::clone(&idx), 2);
        for qseed in [5u64, 17, 33] {
            let q = walk_dataset(1, 64, qseed).series(0).to_vec();
            let exact = idx.brute_force(&q);
            for eps in [0.05, 0.2, 1.0, 5.0] {
                let (got, _) = engine.epsilon(&q, eps, &SearchParams::new(2));
                assert!(
                    got.distance <= (1.0 + eps) * exact.distance + 1e-9,
                    "eps={eps} qseed={qseed}: {} > {}",
                    got.distance,
                    (1.0 + eps) * exact.distance
                );
                assert!(got.distance >= exact.distance - 1e-9, "never below exact");
            }
        }
    }

    #[test]
    fn larger_epsilon_does_less_work() {
        let idx = build(2000);
        // A hard (white-noise-like) query so there is work to skip.
        let q: Vec<f32> = {
            let mut x = 12345u64;
            let mut v: Vec<f32> = (0..64)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    ((x % 2000) as f32 / 1000.0) - 1.0
                })
                .collect();
            crate::series::znormalize(&mut v);
            v
        };
        let engine = BatchEngine::new(idx, 1);
        let (_, s0) = engine.epsilon(&q, 0.0, &SearchParams::new(1));
        let (_, s2) = engine.epsilon(&q, 2.0, &SearchParams::new(1));
        assert!(
            s2.real_distance_computations <= s0.real_distance_computations,
            "eps=2: {} vs eps=0: {}",
            s2.real_distance_computations,
            s0.real_distance_computations
        );
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_epsilon_rejected() {
        let bsf = SharedBsf::new(1.0, None);
        let _ = EpsilonRelaxed::new(&bsf, -0.5);
    }
}
