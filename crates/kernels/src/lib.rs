//! The two algorithm helpers the `tasks` planner builds its plans with.
//!
//! The paper acquired CPU/I/O traces by running each algorithm on a DEC
//! Alpha workstation. This reproduction replaces those traces with the
//! `tasks` crate's analytic work-unit counts; what it keeps of the
//! algorithms themselves is the two decisions that change a plan's shape:
//!
//! * [`cube::pack_first_fit`] — PipeHash's packing of datacube group-bys
//!   into memory-feasible scans, which sets the dcube pass count.
//! * [`sort::run_count`] — the number of runs each node's external sort
//!   forms, which sets the merge fan-in.

#![warn(missing_docs)]

pub mod cube;
pub mod sort;
