//! The benchmark's own random numbers: SplitMix64 for seeding and
//! xorshift64* for streams. Nothing here depends on `vendor/rand` or
//! `odyssey-workloads`, so a change to either cannot move the inputs.

/// One SplitMix64 step: a bijective mix of `x`, used to derive
/// independent sub-seeds from `(seed, stream index)` pairs.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Sub-seed of stream `index` under `seed`.
pub fn sub_seed(seed: u64, index: u64) -> u64 {
    splitmix64(seed ^ splitmix64(index.wrapping_add(0x5851_F42D_4C95_7F2D)))
}

/// xorshift64* generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose state is never zero.
    pub fn new(seed: u64) -> Self {
        Rng(splitmix64(seed) | 1)
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[0, n)`; `n` must be positive. The modulo
    /// bias is below 2⁻³² for every `n` the benchmark uses.
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        (self.next_u64() % n as u64) as usize
    }

    /// Approximately standard-normal sample: the sum of the four 16-bit
    /// fields of one draw (Irwin–Hall, n = 4), centred and scaled to
    /// unit variance. One multiply per sample keeps generating 128 M
    /// steps cheap; the tails stop at ±3.46σ, which a random walk and a
    /// white-noise query do not care about.
    #[inline]
    pub fn gauss(&mut self) -> f32 {
        let x = self.next_u64();
        let sum = (x & 0xFFFF) + ((x >> 16) & 0xFFFF) + ((x >> 32) & 0xFFFF) + (x >> 48);
        // Mean 2·65535, variance 4·(65536² − 1)/12.
        const MEAN: f32 = 131_070.0;
        const INV_SD: f32 = 1.0 / 37_837.227;
        (sum as f32 - MEAN) * INV_SD
    }

    /// Exponential sample with the given rate (events per unit).
    #[inline]
    pub fn exponential(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_and_differ() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::new(8);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(sub_seed(1, 0), sub_seed(1, 1));
        assert_ne!(sub_seed(1, 0), sub_seed(2, 0));
    }

    #[test]
    fn gauss_has_unit_variance() {
        let mut r = Rng::new(3);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| r.gauss() as f64).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "variance {var}");
    }

    #[test]
    fn exponential_has_the_requested_rate() {
        let mut r = Rng::new(5);
        let n = 100_000;
        let mean = (0..n).map(|_| r.exponential(250.0)).sum::<f64>() / n as f64;
        assert!((mean * 250.0 - 1.0).abs() < 0.02, "mean gap {mean}");
    }
}
