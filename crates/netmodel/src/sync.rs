//! Global synchronization: barriers and reduction latency.
//!
//! Netsim modelled "an efficient user-space message-passing and global
//! synchronization library with an MPI-like interface"; the SMP side has
//! spinlocks, remote queues and "global barriers". Every phase boundary in
//! a multi-phase task is a global barrier: no node may start merging until
//! every node has finished partitioning. This module prices that
//! synchronization: a dissemination barrier takes ⌈log₂ n⌉ rounds, each
//! costing one small-message latency plus software overhead. Remote
//! queues are not priced; [`SpinlockCosts`] records why the executor
//! leaves the SMP's lock serialization out.

use simcore::Duration;

/// Per-round software overhead of the barrier implementation (enqueue +
/// wakeup on each participant).
///
/// # Example
///
/// ```
/// use netmodel::BarrierCosts;
///
/// // 128 cluster nodes synchronize in ceil(log2 128) = 7 rounds.
/// let t = BarrierCosts::ethernet().barrier(128);
/// assert!(t.as_micros() < 1_000, "barriers are cheap: {t}");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarrierCosts {
    /// One small-message network latency (round trip not required in a
    /// dissemination barrier).
    pub hop_latency: Duration,
    /// Per-round CPU/software overhead.
    pub round_overhead: Duration,
}

impl BarrierCosts {
    /// Ethernet-class barrier (the cluster): ~50 µs hops through the
    /// switch plus messaging-library overhead.
    pub fn ethernet() -> Self {
        BarrierCosts {
            hop_latency: Duration::from_micros(60),
            round_overhead: Duration::from_micros(20),
        }
    }

    /// Fibre-Channel-class barrier (Active Disks): loop arbitration
    /// dominates the small-message hop.
    pub fn fibre_channel() -> Self {
        BarrierCosts {
            hop_latency: Duration::from_micros(20),
            round_overhead: Duration::from_micros(10),
        }
    }

    /// SMP barrier: 1 µs interconnect hops and hardware-assisted fetch-op
    /// synchronization (Origin-class).
    pub fn smp() -> Self {
        BarrierCosts {
            hop_latency: Duration::from_micros(1),
            round_overhead: Duration::from_micros(2),
        }
    }

    /// Time for all `n` participants to pass a dissemination barrier.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn barrier(&self, n: usize) -> Duration {
        assert!(n > 0, "a barrier needs participants");
        let rounds = usize::BITS - (n - 1).leading_zeros(); // ceil(log2 n), 0 for n=1
        (self.hop_latency + self.round_overhead) * u64::from(rounds)
    }
}

/// Spinlock costs for the shared block queues the paper's SMP sort uses
/// ("we maintained two shared queues (read/write) of fixed-size blocks...
/// When idle, each processor locks the queue and grabs the next block").
///
/// Under contention the lock serializes grabs: total time to hand out
/// `blocks` blocks is `blocks × critical_section`, independent of the
/// number of contending processors (they just wait).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpinlockCosts {
    /// Uncontended acquire + release + queue update.
    pub critical_section: Duration,
}

impl SpinlockCosts {
    /// Origin-class LL/SC spinlock protecting a queue head.
    pub fn origin() -> Self {
        SpinlockCosts {
            critical_section: Duration::from_micros(2),
        }
    }

    /// Total serialized queue-head time to distribute `blocks` blocks.
    pub fn distribute(&self, blocks: u64) -> Duration {
        self.critical_section * blocks
    }

    /// Whether lock serialization is negligible next to a phase of
    /// `phase_time` distributing `blocks` blocks (< 1%).
    pub fn negligible_for(&self, blocks: u64, phase_time: Duration) -> bool {
        self.distribute(blocks).as_nanos() * 100 < phase_time.as_nanos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn single_node_barrier_is_free() {
        assert_eq!(BarrierCosts::ethernet().barrier(1), Duration::ZERO);
    }

    #[test]
    fn rounds_grow_logarithmically() {
        let b = BarrierCosts::ethernet();
        let per_round = b.hop_latency + b.round_overhead;
        assert_eq!(b.barrier(2), per_round);
        assert_eq!(b.barrier(16), per_round * 4);
        assert_eq!(b.barrier(17), per_round * 5);
        assert_eq!(b.barrier(128), per_round * 7);
    }

    #[test]
    fn smp_barriers_are_cheapest() {
        let n = 64;
        let smp = BarrierCosts::smp().barrier(n);
        let fc = BarrierCosts::fibre_channel().barrier(n);
        let eth = BarrierCosts::ethernet().barrier(n);
        assert!(smp < fc && fc < eth);
    }

    #[test]
    fn barriers_are_microseconds_not_seconds() {
        // Sanity: phase-boundary cost is negligible next to phase times.
        assert!(BarrierCosts::ethernet().barrier(128) < Duration::from_millis(1));
    }

    #[test]
    fn shared_queue_locking_is_negligible_for_the_paper_workloads() {
        // The SMP sort distributes 16 GB / 256 KB = 65,536 blocks; lock
        // serialization is ~0.13 s against a phase of minutes — which is
        // why the executor does not model it explicitly.
        let lock = SpinlockCosts::origin();
        let blocks = 16_000_000_000u64 / (256 * 1024);
        assert!(lock.distribute(blocks) < Duration::from_millis(200));
        assert!(lock.negligible_for(blocks, Duration::from_secs(60)));
        assert!(!lock.negligible_for(blocks, Duration::from_millis(500)));
    }

    proptest! {
        /// Barrier time is monotone in participant count.
        #[test]
        fn prop_monotone(a in 1usize..1_000, b in 1usize..1_000) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let c = BarrierCosts::fibre_channel();
            prop_assert!(c.barrier(lo) <= c.barrier(hi));
        }
    }
}
