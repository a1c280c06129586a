//! Log-bucketed latency histograms.
//!
//! Simulation studies care about distributions, not just means: a disk
//! serving most requests from prefetch but occasionally paying a full
//! seek has a bimodal service-time distribution that a mean hides. This
//! histogram uses power-of-two buckets over microseconds, giving ~60
//! buckets across nanoseconds-to-hours with constant-time insert.

use std::fmt;

use crate::time::Duration;

/// A power-of-two-bucketed histogram of durations.
///
/// # Example
///
/// ```
/// use simcore::{Duration, Histogram};
/// let mut h = Histogram::new();
/// h.record(Duration::from_micros(3));
/// h.record(Duration::from_micros(5));
/// h.record(Duration::from_millis(12));
/// assert_eq!(h.count(), 3);
/// assert!(h.quantile(0.5) <= Duration::from_micros(8));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// `buckets[i]` counts samples in `[2^(i-1), 2^i)` µs (bucket 0: < 1 µs).
    buckets: [u64; 64],
    count: u64,
    total: Duration,
    max: Duration,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: [0; 64],
            count: 0,
            total: Duration::ZERO,
            max: Duration::ZERO,
        }
    }

    /// Nominal upper bound of bucket `i`, saturating at the largest
    /// representable duration (the top buckets' power-of-two bounds
    /// exceed `u64` nanoseconds).
    fn bucket_bound(i: usize) -> Duration {
        let ns = (1u128 << i).saturating_mul(1_000);
        Duration::from_nanos(ns.min(u64::MAX as u128) as u64)
    }

    fn bucket_of(d: Duration) -> usize {
        let us = d.as_micros();
        if us == 0 {
            0
        } else {
            (64 - us.leading_zeros() as usize).min(63)
        }
    }

    /// Records a sample.
    pub fn record(&mut self, d: Duration) {
        self.buckets[Self::bucket_of(d)] += 1;
        self.count += 1;
        self.total += d;
        self.max = self.max.max(d);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean sample, or zero if empty.
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            Duration::ZERO
        } else {
            self.total / self.count
        }
    }

    /// Largest sample seen.
    pub fn max(&self) -> Duration {
        self.max
    }

    /// An upper bound of the bucket containing the `q`-quantile sample
    /// (`q` in `[0, 1]`); zero if empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not in `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Duration {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.count == 0 {
            return Duration::ZERO;
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_bound(i);
            }
        }
        self.max
    }

    /// Iterates `(bucket upper bound, count)` over non-empty buckets.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (Duration, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_bound(i), c))
    }

    /// The raw per-bucket counts (see the struct docs for the bucket
    /// bounds). With [`Histogram::total`] and [`Histogram::max`] this is
    /// the histogram's full state, for exact serialization.
    pub fn bucket_counts(&self) -> &[u64; 64] {
        &self.buckets
    }

    /// Sum of all recorded samples.
    pub fn total(&self) -> Duration {
        self.total
    }

    /// Reconstructs a histogram from its raw state (the inverse of
    /// reading [`Histogram::bucket_counts`], [`Histogram::total`], and
    /// [`Histogram::max`]); the sample count is the bucket sum. `None`
    /// when that sum overflows `u64`, which no recorded histogram reaches.
    pub fn from_raw(buckets: [u64; 64], total: Duration, max: Duration) -> Option<Self> {
        let count = buckets
            .iter()
            .try_fold(0u64, |sum, &b| sum.checked_add(b))?;
        Some(Histogram {
            buckets,
            count,
            total,
            max,
        })
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.total += other.total;
        self.max = self.max.max(other.max);
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={} p50<={} p99<={} max={}",
            self.count,
            self.mean(),
            self.quantile(0.5),
            self.quantile(0.99),
            self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_histogram_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), Duration::ZERO);
        assert_eq!(h.quantile(0.5), Duration::ZERO);
    }

    #[test]
    fn bucketing_is_power_of_two() {
        let mut h = Histogram::new();
        h.record(Duration::from_micros(1));
        h.record(Duration::from_micros(2));
        h.record(Duration::from_micros(3));
        let buckets: Vec<_> = h.nonzero_buckets().collect();
        // 1 µs → bucket [1,2); 2 and 3 µs → bucket [2,4).
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[0], (Duration::from_micros(2), 1));
        assert_eq!(buckets[1], (Duration::from_micros(4), 2));
    }

    #[test]
    fn quantiles_bound_the_distribution() {
        let mut h = Histogram::new();
        for us in 1..=1_000u64 {
            h.record(Duration::from_micros(us));
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!(p50 >= Duration::from_micros(500) / 2);
        assert!(p50 <= Duration::from_micros(1_024));
        assert!(p99 >= p50);
        assert_eq!(h.quantile(1.0), Duration::from_micros(1_024));
    }

    #[test]
    fn bimodal_distribution_is_visible() {
        // 90% prefetch hits (~100 µs), 10% full seeks (~9 ms): the p99
        // lands in the seek mode while the p50 stays in the hit mode.
        let mut h = Histogram::new();
        for _ in 0..900 {
            h.record(Duration::from_micros(100));
        }
        for _ in 0..100 {
            h.record(Duration::from_millis(9));
        }
        assert!(h.quantile(0.5) <= Duration::from_micros(256));
        assert!(h.quantile(0.95) >= Duration::from_millis(8));
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(Duration::from_micros(10));
        b.record(Duration::from_millis(10));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), Duration::from_millis(10));
        assert!(!format!("{a}").is_empty());
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn invalid_quantile_rejected() {
        Histogram::new().quantile(1.5);
    }

    #[test]
    fn empty_histogram_edge_cases() {
        let h = Histogram::new();
        assert_eq!(h.max(), Duration::ZERO);
        assert_eq!(h.quantile(0.0), Duration::ZERO);
        assert_eq!(h.quantile(1.0), Duration::ZERO);
        assert_eq!(h.nonzero_buckets().count(), 0);
        // Merging two empty histograms stays empty.
        let mut a = Histogram::new();
        a.merge(&h);
        assert_eq!(a.count(), 0);
    }

    #[test]
    fn single_sample_percentiles_all_hit_its_bucket() {
        let mut h = Histogram::new();
        h.record(Duration::from_micros(5));
        // Every quantile of a one-sample distribution lands in the sample's
        // bucket: 5 µs → [4, 8) µs, upper bound 8 µs.
        let bound = Duration::from_micros(8);
        assert_eq!(h.quantile(0.0), bound);
        assert_eq!(h.quantile(0.5), bound);
        assert_eq!(h.quantile(0.999), bound);
        assert_eq!(h.quantile(1.0), bound);
        assert!(h.quantile(1.0) >= h.max());
    }

    #[test]
    fn overflow_bucket_absorbs_huge_samples() {
        // The largest representable duration must land in a valid bucket
        // whose reported bound saturates instead of overflowing.
        let mut h = Histogram::new();
        let huge = Duration::from_nanos(u64::MAX);
        h.record(huge);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), huge);
        assert_eq!(h.mean(), huge);
        // The sample's nominal power-of-two bound exceeds u64
        // nanoseconds; quantile and the bucket iterator clamp it.
        assert_eq!(h.quantile(1.0), huge);
        let buckets: Vec<_> = h.nonzero_buckets().collect();
        assert_eq!(buckets, vec![(huge, 1)]);
    }

    #[test]
    fn zero_duration_lands_in_bucket_zero() {
        let mut h = Histogram::new();
        h.record(Duration::ZERO);
        h.record(Duration::from_nanos(999)); // still < 1 µs
        let buckets: Vec<_> = h.nonzero_buckets().collect();
        assert_eq!(buckets, vec![(Duration::from_micros(1), 2)]);
    }

    #[test]
    fn raw_round_trip_is_exact() {
        let mut h = Histogram::new();
        for us in [0u64, 1, 3, 900, 12_000, 5_000_000] {
            h.record(Duration::from_micros(us));
        }
        let back = Histogram::from_raw(*h.bucket_counts(), h.total(), h.max()).unwrap();
        assert_eq!(back, h);
        assert_eq!(back.count(), h.count());
        assert_eq!(back.mean(), h.mean());
        let mut full = [0u64; 64];
        full[0] = u64::MAX;
        full[1] = 1;
        assert!(Histogram::from_raw(full, Duration::ZERO, Duration::ZERO).is_none());
    }

    proptest! {
        /// Quantile bounds are monotone and bracket every sample.
        #[test]
        fn prop_quantile_monotone(samples in proptest::collection::vec(0u64..10_000_000, 1..200)) {
            let mut h = Histogram::new();
            for &s in &samples {
                h.record(Duration::from_micros(s));
            }
            let q25 = h.quantile(0.25);
            let q75 = h.quantile(0.75);
            prop_assert!(q25 <= q75);
            // Every sample fits under the 100% quantile bound.
            let top = h.quantile(1.0);
            prop_assert!(samples.iter().all(|&s| Duration::from_micros(s) <= top));
        }
    }
}
