//! Interconnect and network models for the Howsim simulator.
//!
//! This crate is the reproduction's analog of **Netsim** (Uysal et al.),
//! which the paper's Howsim used "for modeling the behavior of networks,
//! message-passing libraries and global synchronization operations",
//! together with Howsim's own "simple queue-based model" for I/O
//! interconnects. It provides:
//!
//! * [`Link`] — a point-to-point, queue-based link: startup latency +
//!   size/bandwidth occupancy (the paper's interconnect model).
//! * [`FcLoop`] — a dual Fibre Channel Arbitrated Loop: two shared 100 MB/s
//!   media whose aggregate bisection bandwidth does **not** grow with the
//!   number of attached devices — the defining property the paper's
//!   interconnect experiments probe.
//! * [`ClusterFabric`] — the commodity-cluster network: full-duplex
//!   100BaseT NICs into 24-port edge switches with dual Gigabit Ethernet
//!   uplinks into a Gigabit core (modelled on the 3Com SuperStack II
//!   3900/9300 two-level structure), whose bisection bandwidth grows with
//!   cluster size but whose per-host injection rate is NIC-limited.
//! * [`SmpFabric`] — the SMP's memory-side interconnect: per-board
//!   block-transfer engines (521 MB/s sustained) over low-latency links,
//!   plus [`SmpIoSubsystem`] — the XIO-like I/O complex behind a dual FC
//!   loop that every byte of disk traffic must cross.
//! * [`MsgCosts`] — the per-message/per-byte host CPU costs of the
//!   user-space messaging library (BSPlib-like, as assumed in Section 3).
//! * [`FcSwitchFabric`] — the paper's recommended scaling path beyond 64
//!   disks: multiple FC loops joined by a FibreSwitch, giving a bisection
//!   bandwidth that grows with the number of loop segments.

#![warn(missing_docs)]

pub mod cluster;
pub mod fcloop;
pub mod fcswitch;
pub mod link;
pub mod msg;
pub mod smp;
pub mod sync;

pub use cluster::ClusterFabric;
pub use fcloop::FcLoop;
pub use fcswitch::FcSwitchFabric;
pub use link::Link;
pub use msg::MsgCosts;
pub use smp::{SmpFabric, SmpIoSubsystem};
pub use sync::{BarrierCosts, SpinlockCosts};
