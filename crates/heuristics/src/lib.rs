//! # mshc-heuristics — classic static-mapping baselines
//!
//! The SE paper positions itself against the broader heterogeneous-
//! scheduling literature it cites: the Braun et al. comparison study of
//! static mapping heuristics \[4\] and the list-scheduling algorithms of
//! Topcuoglu et al. \[5\]. This crate implements that baseline suite on the
//! same [`mshc_platform::HcInstance`] / [`mshc_schedule::Solution`]
//! substrate, so every algorithm is directly comparable with SE and GA:
//!
//! * **one-shot constructive** ([`list`], [`heft`]):
//!   MET, MCT, OLB, min-min, max-min, HEFT, CPOP;
//! * **iterative metaheuristics** ([`search`]): random search, simulated
//!   annealing, tabu search (budget-driven anytime algorithms, like
//!   SE/GA).
//!
//! All implement [`mshc_schedule::Scheduler`]. Constructive heuristics
//! ignore the budget (they finish in one pass and report
//! `iterations == 1`).
//!
//! The HEFT implementation uses the *append* (non-insertion) EFT policy:
//! a task is placed at the end of the chosen machine's current order.
//! This matches the evaluation model of the whole suite (per-machine
//! orders read off the solution string) and keeps every heuristic's
//! internal times bit-identical to the shared evaluator's.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod heft;
pub mod list;
pub mod search;

pub use builder::ListScheduleBuilder;
pub use heft::{CpopScheduler, HeftScheduler};
pub use list::{ListPolicy, ListScheduler};
pub use search::{RandomSearch, SimulatedAnnealing, TabuSearch};
