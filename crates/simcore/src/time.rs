//! Simulated time, durations, and bandwidth arithmetic.
//!
//! Time is kept in integer nanoseconds. Decision-support simulations in this
//! repository span seconds to tens of minutes of simulated time, so a `u64`
//! nanosecond clock gives ~584 years of headroom with no rounding drift.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulated clock, in nanoseconds since simulation start.
///
/// # Example
///
/// ```
/// use simcore::{SimTime, Duration};
/// let t = SimTime::ZERO + Duration::from_millis(3);
/// assert_eq!(t.as_micros(), 3_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
///
/// # Example
///
/// ```
/// use simcore::Duration;
/// let d = Duration::from_micros(10) * 3;
/// assert_eq!(d.as_nanos(), 30_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl SimTime {
    /// The start of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// Constructs a time from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Raw nanoseconds since simulation start.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds since simulation start.
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds since simulation start, as a float (for reporting).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The later of two instants.
    #[must_use]
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`; a simulation that computes
    /// a negative elapsed time has a logic error worth failing loudly on.
    #[must_use]
    #[inline]
    pub fn since(self, earlier: SimTime) -> Duration {
        assert!(
            earlier.0 <= self.0,
            "SimTime::since: earlier ({earlier}) is after self ({self})"
        );
        Duration(self.0 - earlier.0)
    }

    /// Duration elapsed since `earlier`, or zero if `earlier` is later.
    #[must_use]
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// The instant `d` after this one, or `None` past the end of the
    /// clock (`self + d` wraps there).
    #[must_use]
    #[inline]
    pub fn checked_add(self, d: Duration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl Duration {
    /// The zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// Constructs a duration from nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        Duration(ns)
    }

    /// Constructs a duration from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Duration(us * 1_000)
    }

    /// Constructs a duration from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms * 1_000_000)
    }

    /// Constructs a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Duration(s * 1_000_000_000)
    }

    /// Constructs a duration from fractional seconds, rounding to the
    /// nearest nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not a number, or if the rounded
    /// nanosecond count does not fit a `u64` (infinity included): a
    /// duration past the end of the clock is an error, never a
    /// saturated value.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        let ns = (secs * 1e9).round();
        // 2^64 is exact in f64; every f64 below it fits a u64.
        assert!(
            secs >= 0.0 && ns < u64::MAX as f64,
            "Duration::from_secs_f64: invalid seconds value {secs}"
        );
        Duration(ns as u64)
    }

    /// Raw nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Fractional seconds (for reporting).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// True if this duration is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The longer of two durations.
    #[must_use]
    #[inline]
    pub fn max(self, other: Duration) -> Duration {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The shorter of two durations.
    #[must_use]
    #[inline]
    pub fn min(self, other: Duration) -> Duration {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Saturating subtraction.
    #[must_use]
    #[inline]
    pub fn saturating_sub(self, other: Duration) -> Duration {
        Duration(self.0.saturating_sub(other.0))
    }

    /// Scales the duration by a non-negative float factor (used to scale
    /// traced CPU times by relative processor speed, as Howsim does).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    #[must_use]
    pub fn scale(self, factor: f64) -> Duration {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "Duration::scale: invalid factor {factor}"
        );
        Duration((self.0 as f64 * factor).round() as u64)
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: SimTime) -> Duration {
        self.since(rhs)
    }
}

impl Add for Duration {
    type Output = Duration;
    #[inline]
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Duration) -> Duration {
        assert!(rhs.0 <= self.0, "Duration subtraction underflow");
        Duration(self.0 - rhs.0)
    }
}

impl SubAssign for Duration {
    #[inline]
    fn sub_assign(&mut self, rhs: Duration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    #[inline]
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0 * rhs)
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    #[inline]
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        iter.fold(Duration::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

/// A transfer rate in bytes per second.
///
/// Storage and network vendors of the paper's era quote decimal units
/// (1 MB/s = 10^6 bytes/s); this type follows that convention.
///
/// # Example
///
/// ```
/// use simcore::Bandwidth;
/// let fc = Bandwidth::from_mb_per_sec(100.0);
/// // 1 MB at 100 MB/s takes 10 ms.
/// assert_eq!(fc.transfer_time(1_000_000).as_micros(), 10_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// Constructs a bandwidth from bytes per second.
    ///
    /// # Panics
    ///
    /// Panics if `bps` is not a positive, finite number.
    pub fn from_bytes_per_sec(bps: f64) -> Self {
        assert!(
            bps.is_finite() && bps > 0.0,
            "Bandwidth must be positive and finite, got {bps}"
        );
        Bandwidth(bps)
    }

    /// Constructs a bandwidth from decimal megabytes per second.
    pub fn from_mb_per_sec(mbps: f64) -> Self {
        Self::from_bytes_per_sec(mbps * 1e6)
    }

    /// Constructs a bandwidth from megabits per second (network links).
    pub fn from_mbit_per_sec(mbit: f64) -> Self {
        Self::from_bytes_per_sec(mbit * 1e6 / 8.0)
    }

    /// Bytes per second.
    pub fn bytes_per_sec(self) -> f64 {
        self.0
    }

    /// Decimal megabytes per second.
    pub fn mb_per_sec(self) -> f64 {
        self.0 / 1e6
    }

    /// Time to move `bytes` at this rate.
    #[inline]
    pub fn transfer_time(self, bytes: u64) -> Duration {
        Duration::from_secs_f64(bytes as f64 / self.0)
    }

    /// Scales the bandwidth by a positive factor (e.g. protocol efficiency).
    ///
    /// # Panics
    ///
    /// Panics if the product is not positive and finite.
    #[must_use]
    pub fn scale(self, factor: f64) -> Bandwidth {
        Self::from_bytes_per_sec(self.0 * factor)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} MB/s", self.mb_per_sec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simtime_arithmetic_roundtrips() {
        let t = SimTime::from_nanos(1_500);
        assert_eq!(t + Duration::from_nanos(500), SimTime::from_nanos(2_000));
        assert_eq!(
            (t + Duration::from_nanos(500)).since(t),
            Duration::from_nanos(500)
        );
    }

    #[test]
    fn checked_add_stops_at_the_end_of_the_clock() {
        let last = SimTime::from_nanos(u64::MAX);
        assert_eq!(
            SimTime::from_nanos(u64::MAX - 1).checked_add(Duration::from_nanos(1)),
            Some(last)
        );
        assert_eq!(last.checked_add(Duration::from_nanos(1)), None);
        assert_eq!(
            SimTime::from_nanos(1).checked_add(Duration::from_nanos(u64::MAX)),
            None
        );
    }

    #[test]
    fn simtime_max_picks_later() {
        let a = SimTime::from_nanos(10);
        let b = SimTime::from_nanos(20);
        assert_eq!(a.max(b), b);
        assert_eq!(b.max(a), b);
    }

    #[test]
    #[should_panic(expected = "earlier")]
    fn since_panics_on_negative_elapsed() {
        let _ = SimTime::from_nanos(5).since(SimTime::from_nanos(6));
    }

    #[test]
    fn saturating_since_clamps_to_zero() {
        let d = SimTime::from_nanos(5).saturating_since(SimTime::from_nanos(9));
        assert_eq!(d, Duration::ZERO);
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(Duration::from_secs(1), Duration::from_millis(1_000));
        assert_eq!(Duration::from_millis(1), Duration::from_micros(1_000));
        assert_eq!(Duration::from_micros(1), Duration::from_nanos(1_000));
        assert_eq!(Duration::from_secs_f64(0.5), Duration::from_millis(500));
    }

    #[test]
    fn duration_scaling_rounds() {
        let d = Duration::from_nanos(10);
        assert_eq!(d.scale(1.5), Duration::from_nanos(15));
        assert_eq!(d.scale(0.0), Duration::ZERO);
    }

    #[test]
    fn duration_sum_and_div() {
        let total: Duration = (1..=4).map(Duration::from_micros).sum();
        assert_eq!(total, Duration::from_micros(10));
        assert_eq!(total / 2, Duration::from_micros(5));
    }

    #[test]
    fn from_secs_f64_panics_past_the_end_of_the_clock() {
        // 2^64 ns is 18,446,744,073.709551616 s.
        let last = u64::MAX as f64 / 1e9;
        let near_end = Duration::from_secs_f64(18_446_744_073.0).as_nanos();
        // f64 spacing is 2,048 ns this close to 2^64.
        assert!(near_end.abs_diff(18_446_744_073_000_000_000) <= 2_048);
        assert_eq!(Duration::from_secs_f64(0.0), Duration::ZERO);
        assert_eq!(Duration::from_secs_f64(-0.0), Duration::ZERO);
        for bad in [last, 1e11, 1e300, f64::INFINITY, f64::NAN, -1e-12, -1.0] {
            let caught = std::panic::catch_unwind(|| Duration::from_secs_f64(bad));
            assert!(caught.is_err(), "{bad} s must panic");
        }
        // A rate so low that one byte takes longer than the clock lasts.
        let crawl = Bandwidth::from_bytes_per_sec(1e-12);
        assert!(std::panic::catch_unwind(|| crawl.transfer_time(1)).is_err());
    }

    #[test]
    fn bandwidth_transfer_time() {
        let bw = Bandwidth::from_mb_per_sec(200.0);
        // 16 GB at 200 MB/s = 80 s.
        let t = bw.transfer_time(16_000_000_000);
        assert!((t.as_secs_f64() - 80.0).abs() < 1e-9);
    }

    #[test]
    fn bandwidth_from_mbit() {
        let fast_ethernet = Bandwidth::from_mbit_per_sec(100.0);
        assert!((fast_ethernet.mb_per_sec() - 12.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn bandwidth_rejects_zero() {
        let _ = Bandwidth::from_bytes_per_sec(0.0);
    }

    #[test]
    fn display_formats_are_nonempty() {
        assert!(!format!("{}", SimTime::ZERO).is_empty());
        assert!(!format!("{}", Duration::ZERO).is_empty());
        assert!(!format!("{}", Bandwidth::from_mb_per_sec(1.0)).is_empty());
    }
}
