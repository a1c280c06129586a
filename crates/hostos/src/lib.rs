//! Host operating-system model for the Howsim simulator.
//!
//! "For modeling operating system behavior on hosts, Howsim uses parameters
//! that represent the time taken for individual operations of interest:
//! read/write system calls, context switch time, the time to queue an I/O
//! request in the device-driver and the time to service an I/O interrupt."
//! The constants here are the paper's own: 10 µs read/write calls and
//! 103 µs context switches (lmbench on a 300 MHz Pentium II running Linux),
//! and a fixed 16 µs to queue an I/O request in the device driver.
//!
//! The crate also provides:
//!
//! * [`MemoryBudget`] — usable memory after the resident kernel footprint
//!   (the paper assumes 24 MB of a 128 MB Solaris host is kernel-resident,
//!   leaving 104 MB for user processes).
//! * [`ASYNC_IO_DEPTH`] — the paper's asynchronous request-queue depth.
//!
//! SMP striping (64 KB chunks over the disks) is modelled by the machine
//! in `howsim`, not here.

#![warn(missing_docs)]

pub mod memory;
pub mod params;

pub use memory::MemoryBudget;
pub use params::OsCosts;

/// Asynchronous I/O requests a host task keeps in flight: the paper's
/// tasks "use large (256 KB) I/O requests and deep request queues (up to
/// four asynchronous requests)".
pub const ASYNC_IO_DEPTH: usize = 4;
