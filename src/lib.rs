//! # mshc — Task Matching and Scheduling in Heterogeneous Systems Using Simulated Evolution
//!
//! A production-quality Rust reproduction of Barada, Sait & Baig (IPPS
//! 2001). This facade crate re-exports the whole suite:
//!
//! | crate | contents |
//! |---|---|
//! | [`taskgraph`] | DAG substrate: ids, adjacency, topological orders, levels, generators |
//! | [`platform`] | HC system: machines, execution matrix `E`, transfer matrix `Tr` |
//! | [`schedule`] | solution encoding, the three-tier objective-generic evaluation stack (scalar → batch → incremental), Gantt, DES replay, `Scheduler` trait |
//! | [`core`] | **the paper's contribution**: the simulated-evolution scheduler |
//! | [`ga`] | the Wang et al. genetic-algorithm baseline the paper compares against |
//! | [`heuristics`] | HEFT, CPOP, min-min family, random search, SA, tabu |
//! | [`workloads`] | §5 random workload generator (connectivity × heterogeneity × CCR) + scenario suites |
//! | [`portfolio`] | deterministic parallel tournament engine: race every scheduler across scenario grids |
//! | [`trace`] | per-iteration traces, CSV, ASCII plots |
//! | [`stats`] | summaries, online accumulators, trend fits |
//! | [`obs`] | determinism-safe observability: metrics registry, planes, spans, JSONL events |
//!
//! ## Thirty-second tour
//!
//! ```
//! use mshc::prelude::*;
//!
//! // A random paper-style workload: 40 tasks, 6 machines, high connectivity.
//! let spec = WorkloadSpec {
//!     tasks: 40,
//!     machines: 6,
//!     connectivity: Connectivity::High,
//!     heterogeneity: Heterogeneity::Medium,
//!     ccr: 0.5,
//!     seed: 7,
//! };
//! let inst = spec.generate();
//!
//! // Simulated evolution, 100 iterations.
//! let mut se = SeScheduler::new(SeConfig { seed: 7, ..SeConfig::default() });
//! let result = se.run(&inst, &RunBudget::iterations(100), None);
//!
//! // The solution is a valid combined matching+scheduling string...
//! result.solution.check(inst.graph()).unwrap();
//! // ...and beats the HEFT one-shot baseline on this seeded workload.
//! let heft = HeftScheduler::new().run(&inst, &RunBudget::default(), None);
//! assert!(result.makespan <= heft.makespan * 1.05);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mshc_core as core;
pub use mshc_ga as ga;
pub use mshc_heuristics as heuristics;
pub use mshc_obs as obs;
pub use mshc_platform as platform;
pub use mshc_portfolio as portfolio;
pub use mshc_schedule as schedule;
pub use mshc_stats as stats;
pub use mshc_taskgraph as taskgraph;
pub use mshc_trace as trace;
pub use mshc_workloads as workloads;

/// Everything a typical user needs, one import away.
pub mod prelude {
    pub use mshc_core::{SeConfig, SeScheduler};
    pub use mshc_ga::{GaConfig, GaScheduler};
    pub use mshc_heuristics::{
        CpopScheduler, HeftScheduler, ListPolicy, ListScheduler, RandomSearch, SaConfig,
        SimulatedAnnealing, TabuConfig, TabuSearch,
    };
    pub use mshc_platform::{
        ArchClass, HcInstance, HcSystem, InstanceMetrics, Machine, MachineId, Matrix,
    };
    pub use mshc_portfolio::{run_tournament, Leaderboard, TournamentSpec};
    pub use mshc_schedule::{
        replay, BatchEvaluator, CancelToken, CellFault, Disturbance, DisturbanceKind, EvalSnapshot,
        Evaluator, FaultPlan, Gantt, IncrementalEvaluator, Objective, ObjectiveKind,
        ObjectiveState, ReplanReport, Replanner, RunBudget, RunResult, Scheduler, SearchStep,
        Segment, Solution, StepVerdict, SteppableSearch, Termination,
    };
    pub use mshc_taskgraph::{DataId, TaskGraph, TaskGraphBuilder, TaskId};
    pub use mshc_trace::{AsciiPlot, Series, Trace, TraceRecord};
    pub use mshc_workloads::{
        figure1, Connectivity, DisturbanceTrace, DisturbanceTraceSpec, FigureWorkload,
        Heterogeneity, Scenario, WorkloadSpec,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_compose() {
        let inst = figure1();
        let mut se = SeScheduler::new(SeConfig { seed: 1, ..SeConfig::default() });
        let r = se.run(&inst, &RunBudget::iterations(20), None);
        r.solution.check(inst.graph()).unwrap();
        assert!(r.makespan > 0.0);
    }
}
