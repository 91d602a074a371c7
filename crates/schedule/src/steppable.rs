//! Cooperative, resumable search execution — the interface the
//! portfolio tournament engine drives.
//!
//! [`Scheduler::run`] is a black box: it owns its loop from the first
//! iteration to budget exhaustion. Racing several algorithms on one
//! instance with *incumbent exchange* (the best-known solution migrating
//! between searches at synchronized round barriers) needs the loop turned
//! inside out: initialize once, advance in bounded slices, expose the
//! incumbent between slices, accept a better one from outside.
//!
//! [`SteppableSearch`] is that interface. [`start`](SteppableSearch::start)
//! captures everything a run needs (instance snapshot, RNG, incumbent
//! tracking, budget accounting) into a [`SearchStep`] state machine;
//! [`step`](SearchStep::step) advances it by at most a given number of
//! iterations; [`inject`](SearchStep::inject) offers a migrant solution;
//! [`result`](SearchStep::result) finalizes into the same [`RunResult`]
//! a plain run produces.
//!
//! **Slicing is free of side effects on the trajectory**: the iterative
//! schedulers implement [`Scheduler::run`] *on top of* their stepped
//! state (one maximal slice), and per-slice evaluator rebuilds replay
//! identical float operations, so a run stepped in any slice sizes —
//! including the single `u64::MAX` slice — produces bit-identical
//! solutions, objective values and evaluation counts, at any thread
//! count. (Only [`inject`](SearchStep::inject) can change a trajectory,
//! and it is only ever called in portfolio mode.)
//!
//! One-shot constructive heuristics (HEFT, CPOP, the list policies) have
//! no loop to slice; [`OneShotStep`] adapts any [`Scheduler`] to the
//! interface by running it to completion on the first step.

use crate::encoding::Solution;
use crate::runner::{RunBudget, RunResult, Scheduler};
use mshc_platform::HcInstance;
use mshc_trace::Trace;

/// What a [`SearchStep::step`] call left behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepVerdict {
    /// The run budget still has room; further steps will make progress.
    Running,
    /// The run budget is exhausted; further steps are no-ops.
    Exhausted,
}

impl StepVerdict {
    /// Whether the budget is exhausted.
    #[inline]
    pub fn is_exhausted(self) -> bool {
        matches!(self, StepVerdict::Exhausted)
    }
}

/// Borrowed view of a search's best-known solution and its cost under
/// the run's objective (lower is better).
#[derive(Debug, Clone, Copy)]
pub struct Incumbent<'a> {
    /// The best solution found so far.
    pub solution: &'a Solution,
    /// Its value under the budget's [`crate::ObjectiveKind`].
    pub cost: f64,
}

/// A paused, resumable search run.
///
/// Produced by [`SteppableSearch::start`]; driven by repeated
/// [`step`](SearchStep::step) calls until [`StepVerdict::Exhausted`],
/// then finalized with [`result`](SearchStep::result).
pub trait SearchStep {
    /// The algorithm's stable identifier (same as [`Scheduler::name`]).
    fn name(&self) -> &str;

    /// Advances the run by at most `max_iterations` iterations
    /// (generations for GA), stopping early when the overall
    /// [`RunBudget`] given to [`SteppableSearch::start`] is exhausted.
    /// Per-iteration trace records append to `trace` exactly as in a
    /// plain [`Scheduler::run`].
    fn step(&mut self, max_iterations: u64, trace: Option<&mut Trace>) -> StepVerdict;

    /// The best-known solution, or `None` before the search has produced
    /// one (a one-shot heuristic that has not stepped yet).
    fn incumbent(&self) -> Option<Incumbent<'_>>;

    /// Offers a migrant solution with its cost under the run's
    /// objective. Implementations accept it only if it beats their
    /// current working solution, and must not consume RNG state doing
    /// so. Bookkeeping evaluations performed here are uncounted, like
    /// the batch evaluator's per-chunk primes, so the evaluation axis
    /// stays comparable with non-portfolio runs.
    fn inject(&mut self, migrant: &Solution, cost: f64);

    /// Finalizes into the same [`RunResult`] a plain run returns.
    /// Callable at any point (not just at exhaustion) and repeatedly.
    fn result(&mut self) -> RunResult;
}

/// A search algorithm that can run cooperatively in bounded slices.
///
/// Implemented by every iterative scheduler in the suite (SE, GA, SA,
/// tabu, random search). Implementors reimplement [`Scheduler::run`] as
/// [`run_stepped`], which guarantees stepped and plain runs are the same
/// code path — bit-identical results, objective values and evaluation
/// counts.
pub trait SteppableSearch: Scheduler {
    /// Captures a fresh run (from the configured seed) into a resumable
    /// state machine. The budget must be bounded
    /// ([`RunBudget::validate`]) or stepping with `u64::MAX` never
    /// exhausts.
    fn start<'a>(&mut self, inst: &'a HcInstance, budget: &RunBudget) -> Box<dyn SearchStep + 'a>;
}

/// Runs a steppable search to budget exhaustion in one maximal slice —
/// the shared implementation behind every steppable [`Scheduler::run`].
pub fn run_stepped(
    search: &mut dyn SteppableSearch,
    inst: &HcInstance,
    budget: &RunBudget,
    trace: Option<&mut Trace>,
) -> RunResult {
    let mut state = search.start(inst, budget);
    let _ = state.step(u64::MAX, trace);
    state.result()
}

/// Adapts a one-shot constructive [`Scheduler`] (HEFT, CPOP, the list
/// policies) to the stepped interface: the first [`step`](SearchStep::step)
/// runs it to completion, later steps are no-ops, and
/// [`inject`](SearchStep::inject) is ignored (there is no trajectory to
/// steer).
pub struct OneShotStep<'a> {
    scheduler: Box<dyn Scheduler>,
    inst: &'a HcInstance,
    budget: RunBudget,
    outcome: Option<RunResult>,
}

impl<'a> OneShotStep<'a> {
    /// Wraps `scheduler` for a run on `inst` under `budget`.
    pub fn new(
        scheduler: Box<dyn Scheduler>,
        inst: &'a HcInstance,
        budget: &RunBudget,
    ) -> OneShotStep<'a> {
        OneShotStep { scheduler, inst, budget: budget.clone(), outcome: None }
    }

    fn ensure_run(&mut self, trace: Option<&mut Trace>) {
        if self.outcome.is_none() {
            self.outcome = Some(self.scheduler.run(self.inst, &self.budget, trace));
        }
    }
}

impl SearchStep for OneShotStep<'_> {
    fn name(&self) -> &str {
        self.scheduler.name()
    }

    fn step(&mut self, max_iterations: u64, trace: Option<&mut Trace>) -> StepVerdict {
        if max_iterations > 0 {
            self.ensure_run(trace);
        }
        StepVerdict::Exhausted
    }

    fn incumbent(&self) -> Option<Incumbent<'_>> {
        self.outcome.as_ref().map(|r| Incumbent { solution: &r.solution, cost: r.objective_value })
    }

    fn inject(&mut self, _migrant: &Solution, _cost: f64) {}

    fn result(&mut self) -> RunResult {
        self.ensure_run(None);
        self.outcome.clone().expect("run performed above")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::ObjectiveKind;
    use mshc_platform::{HcSystem, Matrix};
    use mshc_taskgraph::TaskGraphBuilder;
    use std::time::Duration;

    fn tiny_instance() -> HcInstance {
        let mut b = TaskGraphBuilder::new(3);
        b.add_edge(0, 1).unwrap();
        b.add_edge(0, 2).unwrap();
        let g = b.build().unwrap();
        let sys = HcSystem::with_anonymous_machines(
            2,
            Matrix::from_rows(&[vec![4.0, 2.0, 6.0], vec![3.0, 5.0, 1.0]]),
            Matrix::from_rows(&[vec![1.0, 1.0]]),
        )
        .unwrap();
        HcInstance::new(g, sys).unwrap()
    }

    /// A deterministic stand-in one-shot scheduler for adapter tests.
    struct Fixed;
    impl Scheduler for Fixed {
        fn name(&self) -> &str {
            "fixed"
        }
        fn run(
            &mut self,
            inst: &HcInstance,
            budget: &RunBudget,
            _trace: Option<&mut Trace>,
        ) -> RunResult {
            let mut rng = <rand_chacha::ChaCha8Rng as rand::SeedableRng>::seed_from_u64(1);
            let solution = crate::init::random_solution(inst, &mut rng);
            let mut eval = crate::eval::Evaluator::new(inst);
            let objective_value = eval.objective_value(&solution, &budget.objective);
            let makespan = eval.makespan(&solution);
            RunResult {
                solution,
                makespan,
                objective_value,
                iterations: 1,
                evaluations: 1,
                elapsed: Duration::ZERO,
                scan: Default::default(),
                lower_bound: None,
                gap: None,
                termination: crate::runner::Termination::Completed,
            }
        }
    }

    #[test]
    fn one_shot_adapter_runs_once_and_exhausts() {
        let inst = tiny_instance();
        let budget = RunBudget::iterations(5).with_objective(ObjectiveKind::TotalFlowtime);
        let mut step = OneShotStep::new(Box::new(Fixed), &inst, &budget);
        assert_eq!(step.name(), "fixed");
        assert!(step.incumbent().is_none(), "no incumbent before the first step");
        assert!(step.step(3, None).is_exhausted());
        let inc = step.incumbent().expect("ran");
        let cost = inc.cost;
        assert!(cost > 0.0);
        // Steps after exhaustion are no-ops; inject is ignored.
        assert!(step.step(10, None).is_exhausted());
        let migrant = step.result().solution;
        step.inject(&migrant, 0.0);
        let r = step.result();
        assert_eq!(r.objective_value, cost);
        assert_eq!(r.iterations, 1);
        let again = step.result();
        assert_eq!(again.solution, r.solution, "result is repeatable");
    }

    #[test]
    fn one_shot_zero_slice_does_not_run() {
        let inst = tiny_instance();
        let mut step = OneShotStep::new(Box::new(Fixed), &inst, &RunBudget::iterations(1));
        assert!(step.step(0, None).is_exhausted());
        assert!(step.incumbent().is_none(), "a zero-iteration slice must not run the heuristic");
        // result() still forces the run so it is always well-formed.
        assert_eq!(step.result().iterations, 1);
    }

    #[test]
    fn verdict_helpers() {
        assert!(StepVerdict::Exhausted.is_exhausted());
        assert!(!StepVerdict::Running.is_exhausted());
    }
}
