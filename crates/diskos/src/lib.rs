//! DiskOS: the restricted Active Disk runtime environment.
//!
//! The paper (Section 3): "Active Disks provide a restricted execution
//! environment to preserve data safety and ensure a small footprint for
//! system software... Disk-resident code (disklets) cannot initiate I/O
//! operations, cannot allocate (or free) memory, and is sandboxed within
//! the buffers from its input streams and a scratch space that is allocated
//! when the disklet is initialized. In addition, a disklet is not allowed
//! to change where its input streams come from or where its output streams
//! go to."
//!
//! The simulator models the two DiskOS parameters that change timing:
//!
//! * **Stream buffers** ([`Sandbox`]) — the OS buffers used for
//!   inter-device communication. Per the paper's memory-scaling
//!   experiments, a 64 MB disk doubles and a 128 MB disk quadruples the
//!   buffer count of the 32 MB baseline, letting larger configurations
//!   "tolerate longer communication and I/O latencies".
//! * The per-invocation dispatch overhead ([`DISPATCH_OVERHEAD`]).
//!
//! The restrictions themselves (no I/O, no allocation, fixed streams) hold
//! by construction: the executor issues every I/O and routes every stream.
//! Disklet admission and scratch-space accounting are not modelled.

#![warn(missing_docs)]

use hostos::MemoryBudget;
use simcore::Duration;

/// Baseline number of inter-device communication buffers on a 32 MB disk.
pub const BASE_COMM_BUFFERS: usize = 16;

/// Per-invocation disklet dispatch overhead (stream demultiplex + sandbox
/// entry); small by design of the DiskOS executive.
pub const DISPATCH_OVERHEAD: Duration = Duration::from_micros(5);

/// The DiskOS memory sandbox for one Active Disk: its communication
/// buffer pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sandbox {
    comm_buffers: usize,
}

impl Sandbox {
    /// Builds the sandbox for a disk with `dram_bytes` of memory.
    ///
    /// The communication buffer pool scales with memory exactly as the
    /// paper describes: ×1 at 32 MB, ×2 at 64 MB, ×4 at 128 MB (and
    /// proportionally in between, floor at one buffer).
    ///
    /// # Panics
    ///
    /// Panics if `dram_bytes` is not larger than the DiskOS footprint.
    pub fn for_disk_memory(dram_bytes: u64) -> Self {
        // Panics unless the DRAM exceeds the DiskOS footprint.
        MemoryBudget::active_disk(dram_bytes);
        let scale = dram_bytes as f64 / (32 << 20) as f64;
        let comm_buffers = ((BASE_COMM_BUFFERS as f64 * scale) as usize).max(1);
        Sandbox { comm_buffers }
    }

    /// Number of OS buffers available for inter-device communication.
    pub fn comm_buffers(&self) -> usize {
        self.comm_buffers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_scaling_matches_paper() {
        let s32 = Sandbox::for_disk_memory(32 << 20);
        let s64 = Sandbox::for_disk_memory(64 << 20);
        let s128 = Sandbox::for_disk_memory(128 << 20);
        assert_eq!(s32.comm_buffers(), BASE_COMM_BUFFERS);
        assert_eq!(s64.comm_buffers(), 2 * BASE_COMM_BUFFERS);
        assert_eq!(s128.comm_buffers(), 4 * BASE_COMM_BUFFERS);
    }

    #[test]
    fn dispatch_overhead_is_small() {
        assert!(DISPATCH_OVERHEAD < Duration::from_micros(50));
    }

    #[test]
    fn intermediate_memory_sizes_scale_proportionally() {
        // 48 MB sits between the paper's anchors: 1.5x the buffers.
        let s48 = Sandbox::for_disk_memory(48 << 20);
        assert_eq!(s48.comm_buffers(), BASE_COMM_BUFFERS * 3 / 2);
    }
}
