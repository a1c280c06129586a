//! Order statistics for the reported timings.

/// A tail percentile is reported only when at least this many samples lie
/// above its rank; with fewer, one slow sample would decide it.
pub const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of percentile `p` (0 < p <= 100) among `n`
/// samples: the smallest rank with at least `p`% of the samples at or
/// below it.
pub fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize
}

/// Whether percentile `p` of `n` samples may be reported: the median
/// needs one sample, a tail percentile (`p > 50`) needs [`MIN_BEYOND`]
/// samples above its rank.
pub fn reportable(n: usize, p: f64) -> bool {
    n > 0 && (p <= 50.0 || n - rank(n, p) >= MIN_BEYOND)
}

/// The nearest-rank percentile `p` of `samples`: a value that actually
/// occurred, with no interpolation. `None` when [`reportable`] says the
/// sample count cannot support it.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if !reportable(samples.len(), p) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// The nearest-rank median (`None` for no samples).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// The median as the mean of the two middle samples when their count is
/// even (`None` for no samples). For a handful of samples whose count
/// varies from run to run, the nearest-rank median would read low on even
/// counts only.
pub fn midpoint(samples: &[f64]) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_an_observed_sample() {
        let s = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&s), Some(3.0));
        // Even count: the lower middle, never an average.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn the_midpoint_averages_the_middle_pair() {
        assert_eq!(midpoint(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(midpoint(&[5.0, 1.0, 4.0]), Some(4.0));
        assert_eq!(midpoint(&[7.5]), Some(7.5));
        assert_eq!(midpoint(&[]), None);
    }

    #[test]
    fn ranks_follow_the_nearest_rank_definition() {
        assert_eq!(rank(100, 90.0), 90);
        assert_eq!(rank(101, 90.0), 91);
        assert_eq!(rank(10, 50.0), 5);
        assert_eq!(rank(1, 99.0), 1);
        assert_eq!(rank(3, 0.1), 1);
    }

    #[test]
    fn a_tail_percentile_needs_ten_samples_beyond_it() {
        // p90 of 100 samples has rank 90 and exactly 10 beyond: allowed.
        assert!(reportable(100, 90.0));
        // p90 of 99 samples has rank 90 and only 9 beyond: refused.
        assert!(!reportable(99, 90.0));
        assert!(reportable(110, 90.0));
        // p99 needs 1000 samples.
        assert!(!reportable(999, 99.0));
        assert!(reportable(1000, 99.0));
        // The median needs only one sample.
        assert!(reportable(1, 50.0));
        assert!(!reportable(0, 50.0));

        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 90.0), Some(90.0));
        assert_eq!(percentile(&samples[..99], 90.0), None);
    }
}
