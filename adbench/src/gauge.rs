//! A fixed piece of reference work that gauges how fast the host runs at
//! a given moment, so that op times can be scaled to a reference speed.
//!
//! The host is shared. A neighbour's load slows this process by up to a
//! half, changes from one op to the next, and its level drifts from minute
//! to minute; the thread's CPU time slows just as much as its wall time,
//! so CPU time does not help. The benchmark therefore times this gauge
//! right before and right after every op and reports the op at the speed
//! at which the gauge takes exactly [`NOMINAL_NS`].
//!
//! Load slows the simulator more than it slows the gauge: across the
//! host's load levels, the simulator's host time grew about as the
//! [`SENSITIVITY`]th power of the gauge's. Of ten runs of each workload
//! with the gauge reading a median 1.45 ms and ten more at 1.9 ms, plain
//! ratios left the second set's `wall_s` 5–19% slower, this power within
//! 8%. An op that took 80 ms while the gauge read 10% slow is reported as
//! `80 / 1.1^1.5` = 69.3 ms.
//!
//! The gauge is the benchmark's own code and never calls the simulator,
//! so a change to the simulator moves the op times and leaves the gauge
//! alone. Its work mimics the simulator's inner loop: a priority queue of
//! pending events, a random read-modify-write of a state table per event,
//! and a floating-point division.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Host nanoseconds one gauge sample takes at the reference speed (about
/// what it takes on a lightly loaded 2-vCPU Xeon host).
pub const NOMINAL_NS: f64 = 1_500_000.0;

/// How much more than the gauge the simulator slows under load: op times
/// scale with the gauge time to this power.
pub const SENSITIVITY: f64 = 1.5;

/// Events handled per sample.
const STEPS: u32 = 18_000;
/// Events pending at any time.
const PENDING: u64 = 512;
/// Entries of the state table (512 KiB).
const SLOTS: usize = 1 << 16;

/// The reference work and its most recent sample.
pub struct Gauge {
    state: Vec<u64>,
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    last_ns: Option<u64>,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge {
            state: vec![0; SLOTS],
            heap: BinaryHeap::with_capacity(PENDING as usize + 1),
            last_ns: None,
        }
    }
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Gauge {
    /// Runs the reference work once; the same work on every call. Returns
    /// its checksum.
    fn work(&mut self) -> u64 {
        self.state.fill(1);
        self.heap.clear();
        let mut x = 0x9E37_79B9_7F4A_7C15;
        for id in 0..PENDING {
            self.heap.push(Reverse((xorshift(&mut x) % 1_000_000, id)));
        }
        let mask = SLOTS as u64 - 1;
        let mut sum = 0u64;
        for _ in 0..STEPS {
            let Reverse((t, id)) = self.heap.pop().expect("events pending");
            let r = xorshift(&mut x);
            let slot = ((id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ r) & mask) as usize;
            let v = self.state[slot];
            let f = (v as f64 + 1.0) / (t as f64 + 3.0);
            self.state[slot] = v.wrapping_add(f.to_bits() ^ t);
            sum = sum.wrapping_add(self.state[slot]);
            self.heap.push(Reverse((t + 1 + r % 10_000, id)));
        }
        sum
    }

    /// Times one run of the reference work, in host nanoseconds.
    pub fn sample(&mut self) -> u64 {
        let start = Instant::now();
        black_box(self.work());
        let ns = (start.elapsed().as_nanos() as u64).max(1);
        self.last_ns = Some(ns);
        ns
    }

    /// The most recent sample, taking one if there is none yet.
    pub fn last_or_sample(&mut self) -> u64 {
        match self.last_ns {
            Some(ns) => ns,
            None => self.sample(),
        }
    }
}

/// `ns` host nanoseconds, measured while the gauge took `gauge_ns`, scaled
/// to the reference speed.
pub fn scale(ns: u64, gauge_ns: u64) -> f64 {
    ns as f64 * (NOMINAL_NS / gauge_ns as f64).powf(SENSITIVITY)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_sample_does_the_same_work() {
        let mut g = Gauge::default();
        let first = g.work();
        assert_eq!(g.work(), first);
        let ns = g.sample();
        assert!(ns > 0);
        assert_eq!(g.last_or_sample(), ns);
    }

    #[test]
    fn scaling_divides_out_the_host_speed() {
        let nominal = NOMINAL_NS as u64;
        assert_eq!(scale(80, nominal), 80.0);
        // The gauge ran at half speed: the op counts 2^-1.5 of its time.
        let slow = scale(80, 2 * nominal);
        assert!((slow - 80.0 / 2f64.powf(SENSITIVITY)).abs() < 1e-9);
        assert!((scale(80, nominal / 2) - 80.0 * 2f64.powf(SENSITIVITY)).abs() < 1e-9);
    }
}
