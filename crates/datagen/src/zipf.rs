//! Zipf-distributed key generation.
//!
//! Decision-support data is rarely uniform: customer, product, and region
//! keys follow heavy-tailed distributions. The paper's datasets use
//! uniform keys (Table 2), which makes repartitioning perfectly balanced;
//! this module provides the skewed alternative used by the repository's
//! skew-sensitivity extension experiment.

use simcore::SplitMix64;

/// A Zipf(θ) sampler over ranks `0..n` (rank 0 most popular), using the
/// classical inverse-CDF over precomputed cumulative weights.
///
/// # Example
///
/// ```
/// use datagen::zipf::Zipf;
/// use simcore::SplitMix64;
///
/// let zipf = Zipf::new(100, 1.0);
/// let mut rng = SplitMix64::new(7);
/// let x = zipf.sample(&mut rng);
/// assert!(x < 100);
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds a sampler over `n` ranks with exponent `theta`
    /// (`theta = 0` is uniform; ~1 is classic Zipf).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `theta` is negative/not finite.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "need at least one rank");
        assert!(
            theta.is_finite() && theta >= 0.0,
            "theta must be a non-negative finite number"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(theta);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.cdf.len()
    }

    /// Probability mass of `rank`.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    pub fn pmf(&self, rank: usize) -> f64 {
        let hi = self.cdf[rank];
        let lo = if rank == 0 { 0.0 } else { self.cdf[rank - 1] };
        hi - lo
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// The per-partition load weights induced by hashing Zipf keys onto
    /// `parts` partitions rank-major (rank r → partition r % parts) — the
    /// shape a skewed repartition produces.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is zero.
    pub fn partition_weights(&self, parts: usize) -> Vec<f64> {
        assert!(parts > 0, "need at least one partition");
        let mut weights = vec![0.0; parts];
        for rank in 0..self.ranks() {
            weights[rank % parts] += self.pmf(rank);
        }
        weights
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn theta_zero_is_uniform() {
        let z = Zipf::new(10, 0.0);
        for rank in 0..10 {
            assert!((z.pmf(rank) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn classic_zipf_head_dominates() {
        let z = Zipf::new(1_000, 1.0);
        assert!(z.pmf(0) > 0.1, "rank 0 mass {}", z.pmf(0));
        assert!(z.pmf(0) > 50.0 * z.pmf(999));
        // Monotone non-increasing.
        for r in 1..1_000 {
            assert!(z.pmf(r) <= z.pmf(r - 1) + 1e-15);
        }
    }

    #[test]
    fn samples_match_pmf() {
        let z = Zipf::new(50, 1.0);
        let mut rng = SplitMix64::new(3);
        let n = 200_000;
        let mut counts = vec![0u64; 50];
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        for rank in [0usize, 1, 5, 20] {
            let observed = counts[rank] as f64 / n as f64;
            let expected = z.pmf(rank);
            assert!(
                (observed - expected).abs() < 0.01,
                "rank {rank}: observed {observed:.4} vs pmf {expected:.4}"
            );
        }
    }

    #[test]
    fn partition_weights_sum_to_one_and_skew() {
        let z = Zipf::new(10_000, 1.0);
        let w = z.partition_weights(16);
        let total: f64 = w.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        let max = w.iter().cloned().fold(0.0, f64::max);
        assert!(max > 2.0 / 16.0, "hot partition weight {max}");
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        Zipf::new(0, 1.0);
    }

    proptest! {
        /// The CDF is a proper distribution for any theta.
        #[test]
        fn prop_cdf_valid(n in 1usize..500, theta in 0.0f64..2.5) {
            let z = Zipf::new(n, theta);
            let total: f64 = (0..n).map(|r| z.pmf(r)).sum();
            prop_assert!((total - 1.0).abs() < 1e-9);
            let mut rng = SplitMix64::new(1);
            for _ in 0..100 {
                prop_assert!(z.sample(&mut rng) < n);
            }
        }
    }
}
