//! Metrics primitives: gauge time-series sampled on simulated time, and
//! utilization samplers.
//!
//! The simulator's models are passive (they compute service times; they do
//! not own the event loop), so instrumentation follows the same
//! philosophy: these types accumulate *observations* handed to them by the
//! orchestration layer, and none of them reads wall-clock time. Every
//! series is keyed by [`SimTime`], which keeps metrics bit-for-bit
//! deterministic — two runs of the same configuration produce identical
//! series.
//!
//! Collection is opt-in. The executor's hot path pays only an `Option`
//! check when metrics are disabled; see `howsim::metrics` for the wiring.

use crate::time::{Duration, SimTime};

/// A bounded time-series of `(SimTime, f64)` gauge samples.
///
/// When the capacity is reached the series stops retaining samples but
/// keeps counting them, and reports itself as truncated — never a silent
/// cap.
///
/// # Example
///
/// ```
/// use simcore::metrics::GaugeSeries;
/// use simcore::SimTime;
///
/// let mut g = GaugeSeries::new(2);
/// g.record(SimTime::from_nanos(1), 0.5);
/// g.record(SimTime::from_nanos(2), 0.7);
/// g.record(SimTime::from_nanos(3), 0.9); // over capacity: counted, not kept
/// assert_eq!(g.samples().len(), 2);
/// assert!(g.truncated());
/// assert_eq!(g.dropped(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GaugeSeries {
    samples: Vec<(SimTime, f64)>,
    capacity: usize,
    dropped: u64,
}

impl GaugeSeries {
    /// Default sample capacity (comfortably covers an hour of simulated
    /// time at the executor's default sampling interval).
    pub const DEFAULT_CAPACITY: usize = 16_384;

    /// Creates a series retaining at most `capacity` samples.
    pub fn new(capacity: usize) -> Self {
        GaugeSeries {
            samples: Vec::new(),
            capacity,
            dropped: 0,
        }
    }

    /// Records a sample at simulated time `t`.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN.
    pub fn record(&mut self, t: SimTime, value: f64) {
        assert!(!value.is_nan(), "GaugeSeries::record: NaN sample");
        if self.samples.len() < self.capacity {
            self.samples.push((t, value));
        } else {
            self.dropped += 1;
        }
    }

    /// The retained samples, in recording order.
    pub fn samples(&self) -> &[(SimTime, f64)] {
        &self.samples
    }

    /// True when samples were dropped because the capacity was reached.
    pub fn truncated(&self) -> bool {
        self.dropped > 0
    }

    /// Number of samples counted but not retained.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Largest retained value, or 0 if empty.
    pub fn max(&self) -> f64 {
        self.samples.iter().map(|&(_, v)| v).fold(0.0, f64::max)
    }

    /// Mean of retained values, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|&(_, v)| v).sum::<f64>() / self.samples.len() as f64
    }
}

/// Converts a *cumulative* busy duration into a busy-fraction time-series.
///
/// Queueing servers report cumulative busy time ([`crate::FifoServer::busy_total`]);
/// what a bottleneck plot needs is the busy **fraction per interval**. The
/// sampler differences consecutive cumulative readings against the elapsed
/// simulated time (times the resource's lane count, for banked resources)
/// and records the fraction.
///
/// # Example
///
/// ```
/// use simcore::metrics::UtilizationSampler;
/// use simcore::{Duration, SimTime};
///
/// let mut u = UtilizationSampler::new(1, 64);
/// // After 10 µs the resource has been busy 5 µs: 50% utilized.
/// u.sample(SimTime::from_nanos(10_000), Duration::from_micros(5));
/// assert_eq!(u.series().samples(), &[(SimTime::from_nanos(10_000), 0.5)]);
/// ```
#[derive(Debug, Clone)]
pub struct UtilizationSampler {
    lanes: u32,
    last_t: SimTime,
    last_busy: Duration,
    series: GaugeSeries,
}

impl UtilizationSampler {
    /// Creates a sampler for a resource of `lanes` parallel lanes,
    /// retaining at most `capacity` samples.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn new(lanes: u32, capacity: usize) -> Self {
        assert!(lanes > 0, "a resource has at least one lane");
        UtilizationSampler {
            lanes,
            last_t: SimTime::ZERO,
            last_busy: Duration::ZERO,
            series: GaugeSeries::new(capacity),
        }
    }

    /// Records the busy fraction over the window since the previous
    /// sample, given the resource's cumulative busy time at `now`.
    ///
    /// A zero-length window is skipped (no sample). Scheduled-ahead busy
    /// time (a FIFO server booked past `now`) can push an interval over
    /// 100%; the fraction is clamped to 1.
    pub fn sample(&mut self, now: SimTime, cumulative_busy: Duration) {
        let window = now.saturating_since(self.last_t);
        if window.is_zero() {
            return;
        }
        let busy = cumulative_busy.saturating_sub(self.last_busy);
        let frac = (busy.as_secs_f64() / (window.as_secs_f64() * f64::from(self.lanes))).min(1.0);
        self.series.record(now, frac);
        self.last_t = now;
        self.last_busy = cumulative_busy;
    }

    /// The recorded busy-fraction series.
    pub fn series(&self) -> &GaugeSeries {
        &self.series
    }

    /// Number of lanes the fractions are normalized by.
    pub fn lanes(&self) -> u32 {
        self.lanes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauge_series_records_in_order() {
        let mut g = GaugeSeries::new(8);
        g.record(SimTime::from_nanos(5), 1.0);
        g.record(SimTime::from_nanos(9), 3.0);
        assert_eq!(g.samples().len(), 2);
        assert_eq!(g.max(), 3.0);
        assert_eq!(g.mean(), 2.0);
        assert!(!g.truncated());
    }

    #[test]
    fn gauge_series_truncates_loudly() {
        let mut g = GaugeSeries::new(1);
        g.record(SimTime::ZERO, 0.1);
        g.record(SimTime::from_nanos(1), 0.2);
        g.record(SimTime::from_nanos(2), 0.3);
        assert_eq!(g.samples().len(), 1);
        assert!(g.truncated());
        assert_eq!(g.dropped(), 2);
    }

    #[test]
    fn empty_gauge_series_stats_are_zero() {
        let g = GaugeSeries::new(4);
        assert_eq!(g.max(), 0.0);
        assert_eq!(g.mean(), 0.0);
        assert!(!g.truncated());
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn gauge_rejects_nan() {
        GaugeSeries::new(4).record(SimTime::ZERO, f64::NAN);
    }

    #[test]
    fn utilization_sampler_differences_cumulative_busy() {
        let mut u = UtilizationSampler::new(1, 16);
        u.sample(SimTime::from_nanos(1_000), Duration::from_nanos(500));
        u.sample(SimTime::from_nanos(2_000), Duration::from_nanos(1_500));
        let s = u.series().samples();
        assert_eq!(s.len(), 2);
        assert!((s[0].1 - 0.5).abs() < 1e-12);
        // Second window: 1000 ns busy over 1000 ns → clamped to 1.0.
        assert!((s[1].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn utilization_sampler_normalizes_by_lanes() {
        let mut u = UtilizationSampler::new(4, 16);
        u.sample(SimTime::from_nanos(1_000), Duration::from_nanos(2_000));
        assert!((u.series().samples()[0].1 - 0.5).abs() < 1e-12);
        assert_eq!(u.lanes(), 4);
    }

    #[test]
    fn utilization_sampler_skips_empty_window() {
        let mut u = UtilizationSampler::new(1, 16);
        u.sample(SimTime::ZERO, Duration::ZERO);
        assert!(u.series().samples().is_empty());
    }

    #[test]
    #[should_panic(expected = "lane")]
    fn zero_lanes_rejected() {
        UtilizationSampler::new(0, 4);
    }
}
