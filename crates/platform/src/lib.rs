//! # mshc-platform
//!
//! Heterogeneous-computing platform substrate for the `mshc` suite
//! (reproduction of Barada/Sait/Baig, IPPS 2001).
//!
//! The paper's HC model (§2): a set of `l` fully connected machines, each
//! with its own architecture; an `l × k` **execution-time matrix** `E`
//! giving the estimated run time of every subtask on every machine (from
//! code profiling / analytical benchmarking); and an `l(l-1)/2 × p`
//! **transfer-time matrix** `Tr` giving the time to move each data item
//! across each machine pair. Transfers between co-located tasks are free.
//!
//! * [`Machine`], [`MachineId`], [`ArchClass`] — machine descriptions;
//! * [`Matrix`] — flat row-major `f64` matrix (one allocation, cache-
//!   friendly row iteration);
//! * [`pair_index`]/[`pair_count`] — canonical indexing of unordered
//!   machine pairs, the row key of `Tr`;
//! * [`HcSystem`] — validated `machines + E + Tr` bundle;
//! * [`HcInstance`] — a task graph plus the system it runs on: the complete
//!   MSHC problem instance consumed by every scheduler in the suite;
//! * [`metrics`] — the paper's workload-characterization axes measured on
//!   an instance: heterogeneity and communication-to-cost ratio (CCR).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod instance;
pub mod machine;
pub mod matrix;
pub mod metrics;
pub mod pair;
pub mod system;

pub use error::PlatformError;
pub use instance::HcInstance;
pub use machine::{ArchClass, Machine, MachineId};
pub use matrix::Matrix;
pub use metrics::InstanceMetrics;
pub use pair::{pair_count, pair_index};

/// Reads field `name` of the map `v` that deserializes into `target`,
/// naming the field in any error.
fn field<T: serde::Deserialize>(
    v: &serde::Value,
    target: &str,
    name: &str,
) -> Result<T, serde::Error> {
    let value = v.get_field(name).ok_or_else(|| serde::Error::missing_field(target, name))?;
    T::deserialize(value).map_err(|e| serde::Error::custom(format!("{name}: {e}")))
}
pub use system::HcSystem;
