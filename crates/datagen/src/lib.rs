//! Dataset definitions for the workload suite.
//!
//! [`DatasetSpec`] encodes Table 2 of the paper — the dataset each of the
//! eight decision-support tasks runs on. The simulator consumes only its
//! aggregate shape (bytes, tuples, cardinalities); no records are
//! generated. [`zipf::Zipf`] supplies the skewed partition weights of the
//! skew-sensitivity extension.

#![warn(missing_docs)]

pub mod spec;
pub mod zipf;

pub use spec::{DatasetSpec, TaskParams, GB};
