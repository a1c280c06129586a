//! Disk drive model for the Howsim Active Disk simulator.
//!
//! This crate is the reproduction's analog of **DiskSim** (Ganger et al.),
//! which the paper's Howsim simulator used "for modeling the behavior of
//! disk drives, controllers and device drivers". It models:
//!
//! * **Zoned recording** — outer zones hold more sectors per track, so the
//!   media rate varies across the surface (14.5–21.3 MB/s for the Seagate
//!   Cheetah 9LP used in every configuration of the paper).
//! * **Seek time** — a square-root + linear curve fitted to the published
//!   single-track, average, and full-stroke seek times (separately for
//!   reads and writes).
//! * **Rotational latency** — the arrival angle of the target sector given
//!   the absolute simulated time and spindle speed.
//! * **A segmented cache with sequential prefetch** — streams detected as
//!   sequential are served at media rate without re-paying seek+rotation,
//!   the dominant regime for decision-support scans.
//! * **Controller and bus overheads**.
//! * **FIFO queueing** — a request starts when the drive finishes the
//!   one before it; requests are never reordered.
//!
//! # Example
//!
//! ```
//! use diskmodel::{Disk, DiskSpec, Request};
//! use simcore::SimTime;
//!
//! let mut disk = Disk::new(DiskSpec::cheetah_9lp());
//! let first = disk.submit(SimTime::ZERO, Request::read(0, 256 * 1024));
//! // A second, sequential read streams from the prefetch buffer and is
//! // cheaper than the first (no seek / rotational latency).
//! let second = disk.submit(first.end, Request::read(256 * 1024, 256 * 1024));
//! assert!(second.service() < first.service());
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod defects;
pub mod disk;
pub mod geometry;
pub mod seek;
pub mod spec;
pub mod validation;

pub use defects::DefectMap;
pub use disk::{Completion, Disk, Request, RequestKind};
pub use geometry::{Geometry, Location};
pub use seek::SeekCurve;
pub use spec::DiskSpec;
pub use validation::{validate, ValidationReport};
