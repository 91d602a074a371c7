//! # mshc-stats
//!
//! Small statistics substrate for the `mshc` suite: batch summaries,
//! online (Welford) accumulators and least-squares trend fits. The
//! benchmark harness uses these to summarize repeated scheduler runs; no
//! external stats crate is pulled in.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fit;
pub mod online;
pub mod summary;

pub use fit::LinearFit;
pub use online::OnlineStats;
pub use summary::Summary;
