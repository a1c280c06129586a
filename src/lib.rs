//! # activedisks — Active Disks for Decision Support, reproduced in Rust
//!
//! This umbrella crate re-exports the full API of the reproduction of
//! *"Evaluation of Active Disks for Decision Support Databases"*
//! (Uysal, Acharya, Saltz — HPCA 2000):
//!
//! * [`howsim`] — the simulator: run a workload task on an architecture.
//! * [`arch`] — architecture configurations (Active Disks, cluster, SMP)
//!   and the pricing model.
//! * [`tasks`] — the eight decision-support workload tasks.
//! * [`datagen`] — dataset definitions (Table 2) and the Zipf sampler.
//! * [`kernels`] — the planner's datacube-packing and sort run-count helpers.
//! * Substrate models: [`simcore`], [`diskmodel`], [`netmodel`],
//!   [`hostos`], [`diskos`].

/// # Example
///
/// ```
/// use activedisks::arch::Architecture;
/// use activedisks::howsim::Simulation;
/// use activedisks::tasks::TaskKind;
///
/// let report = Simulation::new(Architecture::active_disks(4)).run(TaskKind::Aggregate);
/// assert!(report.elapsed().as_secs_f64() > 0.0);
/// assert_eq!(report.architecture, "Active");
/// ```
pub mod readme_doctest {}

pub use arch;
pub use datagen;
pub use diskmodel;
pub use diskos;
pub use hostos;
pub use howsim;
pub use kernels;
pub use netmodel;
pub use simcore;
pub use tasks;
