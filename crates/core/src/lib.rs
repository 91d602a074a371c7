//! # mshc-core — Simulated Evolution for MSHC
//!
//! The primary contribution of *"Task Matching and Scheduling in
//! Heterogeneous Systems Using Simulated Evolution"* (Barada, Sait & Baig,
//! IPPS 2001): a simulated-evolution (SE) scheduler for matching and
//! scheduling coarse-grained task graphs onto a heterogeneous suite of
//! machines.
//!
//! SE (Kling & Banerjee's iterative heuristic) repeats three steps until a
//! stopping criterion fires (§3):
//!
//! 1. **Evaluation** — each individual (here: each subtask `s_i`) gets a
//!    goodness `g_i = O_i / C_i ∈ [0, 1]`, where `C_i` is its finish time
//!    in the current solution and `O_i` a precomputed estimate of its
//!    optimal finish time ([`goodness()`](goodness::goodness)).
//! 2. **Selection** — `s_i` joins the selection set when a uniform random
//!    number exceeds `g_i + B`; the bias `B` trades run time against
//!    search thoroughness (§4.4). Selected tasks are sorted by ascending
//!    DAG level.
//! 3. **Allocation** — each selected task is constructively re-placed: all
//!    valid string positions × its `Y` best-matching machines are tried
//!    and the combination with the best schedule length is committed
//!    (§4.5).
//!
//! The well-placed tasks (high goodness) are rarely selected, so the
//! number of selected tasks *decays* as the population converges — the
//! paper's effectiveness signature (Fig 3a), recorded here in the
//! per-iteration [`mshc_trace::Trace`].
//!
//! ## Quick start
//!
//! ```
//! use mshc_core::{SeConfig, SeScheduler};
//! use mshc_schedule::{RunBudget, Scheduler};
//! use mshc_platform::{HcInstance, HcSystem, Matrix};
//! use mshc_taskgraph::TaskGraphBuilder;
//!
//! // A 4-task diamond on 2 machines.
//! let mut b = TaskGraphBuilder::new(4);
//! for (s, d) in [(0, 1), (0, 2), (1, 3), (2, 3)] { b.add_edge(s, d).unwrap(); }
//! let graph = b.build().unwrap();
//! let sys = HcSystem::with_anonymous_machines(
//!     2,
//!     Matrix::from_rows(&[vec![4.0, 8.0, 2.0, 5.0], vec![7.0, 3.0, 6.0, 4.0]]),
//!     Matrix::from_rows(&[vec![1.0, 1.0, 1.0, 1.0]]),
//! ).unwrap();
//! let inst = HcInstance::new(graph, sys).unwrap();
//!
//! let mut se = SeScheduler::new(SeConfig { seed: 7, ..SeConfig::default() });
//! let result = se.run(&inst, &RunBudget::iterations(50), None);
//! assert!(result.makespan <= 20.0);
//! result.solution.check(inst.graph()).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithm;
pub mod config;
pub mod goodness;

pub use algorithm::{SePendingBias, SeScheduler};
pub use config::SeConfig;
pub use goodness::{goodness, optimal_costs};
