//! # mshc-ga — the genetic-algorithm baseline
//!
//! Reimplementation of the GA the SE paper compares against (§5.3):
//! L. Wang, H. J. Siegel, V. P. Roychowdhury & A. A. Maciejewski, *"Task
//! Matching and Scheduling in Heterogeneous Computing Environments Using
//! a Genetic-Algorithm-Based Approach"*, JPDC 47, 1997.
//!
//! Wang et al. keep two strings per individual — a **matching string**
//! (one machine per task) and a **scheduling string** (a topological
//! order giving the relative execution order on shared machines). Here
//! both live in the SE paper's combined string (§4.1), one
//! [`mshc_schedule::Solution`] per individual: its task order is the
//! scheduling string and its per-task machines the matching string.
//! Wang's operators act on that one string, in place
//! ([`operators`]):
//!
//! * **selection** — roulette wheel over linearly rescaled fitness, built
//!   once per generation, with elitism (the best individual always
//!   survives);
//! * **scheduling crossover** — cut both parents at a random point; the
//!   child keeps parent A's prefix and appends the missing tasks in the
//!   order they occur in parent B (a linear extension whenever both
//!   parents are);
//! * **matching crossover** — single-point crossover by task index:
//!   tasks below the cut keep parent A's machine, the rest take B's;
//! * **scheduling mutation** — move a random task to a random position
//!   inside its valid range (SE's §4.2 perturbation,
//!   [`mshc_schedule::perturb`]);
//! * **matching mutation** — reassign a random task to a random machine.
//!
//! One individual of the initial population is seeded with a fast
//! non-evolutionary heuristic (best-machine matching on a topological
//! order), following Wang et al.'s practice.
//!
//! Each generation is bred and scored in one overlapped pass
//! ([`mshc_schedule::BatchEvaluator::breed_population`]): the calling
//! thread breeds the children in order while a pool worker scores the
//! ones already bred. [`algorithm`] says why breeding stays serial and
//! why the overlap cannot change a bit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithm;
pub mod chromosome;
pub mod config;
pub mod operators;

pub use algorithm::GaScheduler;
pub use chromosome::Chromosome;
pub use config::GaConfig;
