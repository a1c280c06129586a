//! External sort run counts.
//!
//! The Active Disk sort in the paper is a two-phase distributed sort in the
//! NOW-sort family: phase 1 range-partitions tuples to their destination
//! node, which sorts memory-sized runs and writes them; phase 2 merges the
//! runs. The number of runs — 40 runs of 25 MB at 32 MB of disk memory
//! versus 20 runs of 50 MB at 64 MB, in the paper's Section 4.3 — is what
//! [`run_count`] computes; the planner's merge phase is costed from it.

/// Number of runs each node forms: per-node data divided by the sort
/// buffer that fits in disk memory.
///
/// Paper anchor: 256 MB per disk with a 25 MB buffer (32 MB DRAM after
/// DiskOS and stream buffers) gives ~10 runs per merge set; the paper's
/// global figure is "40 runs of 25 MB each (used for 32 MB Active Disks)"
/// versus "20 runs of 50 MB each (used for 64 MB Active Disks)".
///
/// # Panics
///
/// Panics if `buffer_bytes` is zero.
pub fn run_count(node_bytes: u64, buffer_bytes: u64) -> u64 {
    assert!(buffer_bytes > 0, "buffer must be positive");
    node_bytes.div_ceil(buffer_bytes).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_run_counts() {
        // 32 MB disks: 25 MB sort buffer → 1 GB/node at 16 disks = 40 runs.
        assert_eq!(run_count(1_000 << 20, 25 << 20), 40);
        // 64 MB disks: 50 MB buffer → 20 runs.
        assert_eq!(run_count(1_000 << 20, 50 << 20), 20);
    }
}
