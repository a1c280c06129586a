//! `adbench`: the benchmark of record for the Howsim reproduction.
//!
//! Four seeded workloads drive the simulator's public API from outside,
//! time every call, and check every simulated output against golden
//! digests. A traced run adds per-layer metrics and a replay ledger of
//! the event loop. See `README.md` for the workloads, metrics and
//! commands.

pub mod digest;
pub mod gauge;
pub mod golden;
pub mod ledger;
pub mod record;
pub mod stats;
pub mod workloads;
