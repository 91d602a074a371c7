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
//! captures everything a run needs (instance snapshot, RNG, a
//! [`RunLedger`]) into a [`SearchStep`] state machine;
//! [`step`](SearchStep::step) advances it by at most a given number of
//! iterations; [`inject`](SearchStep::inject) offers a migrant solution;
//! [`result`](SearchStep::result) finalizes into the same [`RunResult`]
//! a plain run produces.
//!
//! **One ledger per run.** Every iterative search (SE, GA, SA, tabu,
//! random search) keeps its run bookkeeping in a [`RunLedger`]: the
//! budget, the run clock, the iteration and evaluation counters, the
//! floor and cancel latches, the incumbent, the step verdict and the
//! [`RunResult`] assembly. A search calls it at the same points of its
//! loop:
//!
//! ```text
//! start:   RunLedger::new(inst, budget, clock, first incumbent, evaluations, scan)
//!                                            the start's charge and work record
//! step:    open_slice(max)                   latches the floor
//!          while proceed(pending) {          polls cancel, checks every limit
//!              ... one iteration ...
//!              record(best candidate, cost)  counts it; an improvement latches the floor
//!          }
//!          close_slice(evaluations, scan)    charges the slice, returns the verdict
//! inject:  offer(migrant, cost)              never latches the floor
//! result:  result(snapshot)
//! ```
//!
//! The ledger alone publishes these runs' work to the metrics registry
//! (`ScanStats::publish`): the start's record in `new`, each slice's
//! record and iterations in `close_slice`.
//!
//! The floor latches only at slice entry and after an improving
//! iteration, never inside `offer`: a floor-cost migrant injected into an
//! exhausted run leaves it reporting its limit until the next `step`,
//! which latches the floor and runs no iteration.
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
use crate::eval::Evaluator;
use crate::lower_bound::InstanceBound;
use crate::runner::{
    certified_gap, CancelToken, RunBudget, RunResult, ScanStats, Scheduler, Termination,
};
use crate::snapshot::EvalSnapshot;
use mshc_obs as obs;
use mshc_platform::HcInstance;
use mshc_trace::{Trace, TraceRecord};
use std::time::Instant;

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

/// The run bookkeeping every iterative search shares: the budget, the
/// run clock, the iteration and evaluation counters, the floor and
/// cancel latches, the incumbent, the step verdict and the
/// [`RunResult`] assembly. See the [module docs](self) for the points of
/// a search loop that call it.
///
/// A search keeps its own evaluation accounting: it charges what
/// [`new`](RunLedger::new) is handed, what each
/// [`close_slice`](RunLedger::close_slice) is handed, and nothing else,
/// and the same holds for its [`ScanStats`] record. Inside a slice,
/// [`proceed`](RunLedger::proceed) adds the slice's pending count to the
/// charged total before testing the limits.
#[derive(Debug)]
pub struct RunLedger {
    budget: RunBudget,
    clock: Instant,
    /// The certified instance floor (`Some` iff the objective is
    /// makespan).
    floor: Option<f64>,
    best: Solution,
    best_cost: f64,
    iterations: u64,
    /// Iterations already published to the metrics registry.
    iterations_published: u64,
    /// Evaluations charged by the start and by completed slices.
    evaluations: u64,
    /// The work records of the start and of completed slices, merged.
    scan: ScanStats,
    /// The iteration count at which the current slice ends.
    slice_end: u64,
    /// Set when the incumbent reached the floor with early stop on; the
    /// incumbent is then provably optimal.
    floor_hit: bool,
    /// Set the first time the budget's [`CancelToken`] is seen fired at
    /// an iteration boundary (never mid-evaluation, so counts stay
    /// exact).
    cancelled: bool,
}

impl RunLedger {
    /// Opens the ledger of a run on `inst` under `budget`, started at
    /// `clock`, with its first incumbent, the `evaluations` its start
    /// charged and the start's work record `scan`, which it publishes.
    /// Computes the certified floor once (makespan objective only); that
    /// consumes no RNG and counts no evaluations, so it cannot perturb a
    /// trajectory.
    pub fn new(
        inst: &HcInstance,
        budget: &RunBudget,
        clock: Instant,
        best: Solution,
        best_cost: f64,
        evaluations: u64,
        scan: ScanStats,
    ) -> RunLedger {
        scan.publish(0);
        RunLedger {
            floor: budget.objective.is_makespan().then(|| InstanceBound::compute(inst).floor()),
            budget: budget.clone(),
            clock,
            best,
            best_cost,
            iterations: 0,
            iterations_published: 0,
            evaluations,
            scan,
            slice_end: 0,
            floor_hit: false,
            cancelled: false,
        }
    }

    /// Opens a slice of at most `max_iterations` iterations. The
    /// incumbent (the first one, or an injected migrant) may already sit
    /// on the certified floor; then nothing is left to search and the
    /// floor latches here.
    pub fn open_slice(&mut self, max_iterations: u64) {
        self.slice_end = self.iterations.saturating_add(max_iterations);
        self.latch_floor();
    }

    /// The loop guard: whether another iteration may run, given the
    /// `pending` evaluations the open slice has performed but not yet
    /// charged. Polls the cancel token only once the floor and the slice
    /// allow an iteration.
    pub fn proceed(&mut self, pending: u64) -> bool {
        !self.floor_hit
            && self.iterations < self.slice_end
            && !self.observe_cancel()
            && self.limit_hit(self.evaluations + pending).is_none()
    }

    /// Ends an iteration whose best candidate is `candidate` at `cost`:
    /// a strict improvement becomes the incumbent and may latch the
    /// floor.
    pub fn record(&mut self, candidate: &Solution, cost: f64) {
        if cost < self.best_cost {
            self.best.clone_from(candidate);
            self.best_cost = cost;
            self.latch_floor();
        }
        self.count_iteration();
    }

    /// Counts an iteration that offers no candidate (random search's
    /// initial sample; the next closed slice publishes it).
    pub fn count_iteration(&mut self) {
        self.iterations += 1;
    }

    /// Closes the open slice: charges its `evaluations`, merges its work
    /// record `scan`, publishes that record with the iterations counted
    /// since the last close, and reports whether the run can go on.
    pub fn close_slice(&mut self, evaluations: u64, scan: ScanStats) -> StepVerdict {
        self.evaluations += evaluations;
        self.scan.merge(scan);
        scan.publish(self.iterations - self.iterations_published);
        self.iterations_published = self.iterations;
        if self.floor_hit || self.cancelled || self.limit_hit(self.evaluations).is_some() {
            StepVerdict::Exhausted
        } else {
            StepVerdict::Running
        }
    }

    /// Offers a migrant from outside the search: it becomes the
    /// incumbent when it beats it. The floor does not latch here; the
    /// next slice entry latches it.
    pub fn offer(&mut self, migrant: &Solution, cost: f64) {
        if cost < self.best_cost {
            self.best.clone_from(migrant);
            self.best_cost = cost;
        }
    }

    /// The trace record of the iteration just recorded, with
    /// `current_cost` as its current cost and `pending` uncharged
    /// evaluations of the open slice; algorithm-specific fields are
    /// `None`.
    pub fn trace_record(&self, pending: u64, current_cost: f64) -> TraceRecord {
        TraceRecord {
            iteration: self.iterations - 1,
            elapsed_secs: self.clock.elapsed().as_secs_f64(),
            evaluations: self.evaluations + pending,
            current_cost,
            best_cost: self.best_cost,
            selected: None,
            population_mean: None,
        }
    }

    /// The incumbent and its cost under the run's objective.
    pub fn incumbent(&self) -> Incumbent<'_> {
        Incumbent { solution: &self.best, cost: self.best_cost }
    }

    /// Iterations counted so far.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// The run's result: the incumbent, its certificate and why the run
    /// stopped. A non-makespan objective costs one reporting pass over
    /// `snapshot` for the makespan, deliberately uncounted: the record
    /// counts the work of the search.
    pub fn result(&self, snapshot: &EvalSnapshot) -> RunResult {
        let makespan = if self.budget.objective.is_makespan() {
            self.best_cost
        } else {
            Evaluator::with_snapshot(snapshot).makespan(&self.best)
        };
        RunResult {
            solution: self.best.clone(),
            makespan,
            objective_value: self.best_cost,
            iterations: self.iterations,
            evaluations: self.evaluations,
            elapsed: self.clock.elapsed(),
            scan: self.scan,
            lower_bound: self.floor,
            gap: certified_gap(self.floor, self.best_cost),
            termination: self.termination(),
        }
    }

    /// Why the run stopped, by the precedence
    /// `Floor > Cancelled > Deadline > Budget > Completed`.
    fn termination(&self) -> Termination {
        if self.floor_hit {
            Termination::Floor
        } else if self.cancelled {
            Termination::Cancelled
        } else {
            self.limit_hit(self.evaluations).unwrap_or(Termination::Completed)
        }
    }

    /// The termination a limit reached at `evaluations` reports, if any:
    /// the evaluation and wall limits report
    /// [`Termination::Deadline`] on a budget tagged as a deadline, and
    /// take precedence over the iteration limit.
    fn limit_hit(&self, evaluations: u64) -> Option<Termination> {
        let b = &self.budget;
        if b.max_evaluations.is_some_and(|m| evaluations >= m)
            || b.max_wall.is_some_and(|m| self.clock.elapsed() >= m)
        {
            Some(if b.deadline { Termination::Deadline } else { Termination::Budget })
        } else if b.max_iterations.is_some_and(|m| self.iterations >= m) {
            Some(Termination::Budget)
        } else {
            None
        }
    }

    /// Latches the floor stop when early stop is on and the incumbent
    /// sits on the certified floor; the registry's `EarlyStops` counter
    /// bumps once per run, on the latch.
    fn latch_floor(&mut self) {
        if !self.floor_hit
            && self.budget.early_stop
            && self.floor.is_some_and(|f| self.best_cost.is_finite() && self.best_cost <= f)
        {
            self.floor_hit = true;
            obs::add(obs::Counter::EarlyStops, 1);
        }
    }

    /// Polls the cancel token, latching a fired one; the registry's
    /// `Cancellations` counter bumps once per run, on the latch.
    fn observe_cancel(&mut self) -> bool {
        if !self.cancelled && self.budget.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            self.cancelled = true;
            obs::add(obs::Counter::Cancellations, 1);
        }
        self.cancelled
    }
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

    /// 4 independent tasks on 2 identical machines, every execution 6.0:
    /// the certified floor is 12, reached by any 2 + 2 split. Returns
    /// the instance, a 4 + 0 split (makespan 24) and a 2 + 2 split.
    fn balanced() -> (HcInstance, Solution, Solution) {
        let g = TaskGraphBuilder::new(4).build().unwrap();
        let sys = HcSystem::with_anonymous_machines(
            2,
            Matrix::filled(2, 4, 6.0),
            Matrix::filled(1, 0, 0.0),
        )
        .unwrap();
        let inst = HcInstance::new(g, sys).unwrap();
        let split = |machines: [usize; 4]| {
            let segments = (0..4)
                .map(|t| crate::encoding::Segment {
                    task: mshc_taskgraph::TaskId::from_usize(t),
                    machine: mshc_platform::MachineId::from_usize(machines[t]),
                })
                .collect();
            Solution::new(inst.graph(), 2, segments).unwrap()
        };
        let (lopsided, even) = (split([0; 4]), split([0, 1, 0, 1]));
        (inst, lopsided, even)
    }

    /// A ledger whose incumbent is the 4 + 0 split, started at `clock`
    /// with `evaluations` charged, and its slice open.
    fn opened(
        inst: &HcInstance,
        budget: &RunBudget,
        lopsided: &Solution,
        clock: Instant,
        evaluations: u64,
    ) -> RunLedger {
        let mut ledger = RunLedger::new(
            inst,
            budget,
            clock,
            lopsided.clone(),
            24.0,
            evaluations,
            ScanStats::default(),
        );
        ledger.open_slice(u64::MAX);
        ledger
    }

    fn termination(ledger: &RunLedger, inst: &HcInstance) -> Termination {
        ledger.result(&EvalSnapshot::new(inst)).termination
    }

    fn closed(ledger: &mut RunLedger, evaluations: u64) -> StepVerdict {
        ledger.close_slice(evaluations, ScanStats::default())
    }

    #[test]
    fn exhaustion_each_axis() {
        let (inst, lopsided, _) = balanced();
        let now = Instant::now();

        let mut l = opened(&inst, &RunBudget::iterations(3), &lopsided, now, 0);
        for _ in 0..3 {
            assert!(l.proceed(0));
            l.record(&lopsided, 24.0);
        }
        assert!(!l.proceed(0));
        assert!(closed(&mut l, 0).is_exhausted());
        assert_eq!(termination(&l, &inst), Termination::Budget);

        // Charged and pending evaluations both count.
        let mut l = opened(&inst, &RunBudget::evaluations(10), &lopsided, now, 4);
        assert!(l.proceed(5));
        assert!(!l.proceed(6));
        assert!(!closed(&mut l, 5).is_exhausted());
        assert!(closed(&mut l, 1).is_exhausted());
        assert_eq!(termination(&l, &inst), Termination::Budget);

        let second_ago = now.checked_sub(Duration::from_secs(1)).unwrap();
        let wall = RunBudget::wall(Duration::from_secs(1));
        let mut l = opened(&inst, &wall, &lopsided, second_ago, 0);
        assert!(!l.proceed(0));
        assert_eq!(termination(&l, &inst), Termination::Budget);
        let mut l = opened(&inst, &RunBudget::wall(Duration::from_secs(3600)), &lopsided, now, 0);
        assert!(l.proceed(0));

        // A slice ends at its own iteration count, not the run's.
        let mut l = RunLedger::new(
            &inst,
            &RunBudget::iterations(9),
            now,
            lopsided.clone(),
            24.0,
            0,
            ScanStats::default(),
        );
        l.open_slice(2);
        l.record(&lopsided, 24.0);
        assert!(l.proceed(0));
        l.record(&lopsided, 24.0);
        assert!(!l.proceed(0));
        assert!(!closed(&mut l, 0).is_exhausted());
        assert_eq!(termination(&l, &inst), Termination::Completed);
    }

    #[test]
    fn early_stop_knob_and_floor_test() {
        let (inst, lopsided, even) = balanced();
        let now = Instant::now();
        let budget = RunBudget::iterations(5);
        // An incumbent on the floor latches at slice entry: no iteration
        // runs and the run reports the floor.
        let mut l =
            RunLedger::new(&inst, &budget, now, even.clone(), 12.0, 1, ScanStats::default());
        l.open_slice(u64::MAX);
        assert!(!l.proceed(0));
        assert!(closed(&mut l, 0).is_exhausted());
        let r = l.result(&EvalSnapshot::new(&inst));
        assert_eq!(
            (r.termination, r.iterations, r.lower_bound),
            (Termination::Floor, 0, Some(12.0))
        );
        assert_eq!(r.gap, Some(1.0));
        // An improving iteration that reaches the floor latches it;
        // above the floor the run goes on.
        let mut l = opened(&inst, &budget, &lopsided, now, 0);
        l.record(&lopsided, 18.0);
        assert!(l.proceed(0));
        l.record(&even, 12.0);
        assert!(!l.proceed(0));
        assert_eq!(termination(&l, &inst), Termination::Floor);
        // The knob off disables the test entirely.
        let mut l = opened(&inst, &budget.clone().with_early_stop(false), &lopsided, now, 0);
        l.record(&even, 12.0);
        assert!(l.proceed(0));
        // Non-makespan objectives have no floor and never stop early.
        let flowtime = budget.clone().with_objective(ObjectiveKind::TotalFlowtime);
        let mut l =
            RunLedger::new(&inst, &flowtime, now, even.clone(), 0.0, 0, ScanStats::default());
        l.open_slice(u64::MAX);
        assert!(l.proceed(0));
        let r = l.result(&EvalSnapshot::new(&inst));
        assert_eq!((r.lower_bound, r.gap), (None, None));
        assert_eq!(r.makespan, 12.0, "the reporting pass scores the makespan");
        // Non-finite incumbents never claim optimality.
        let mut l = RunLedger::new(&inst, &budget, now, even, f64::NAN, 0, ScanStats::default());
        l.open_slice(u64::MAX);
        assert!(l.proceed(0));
    }

    #[test]
    fn offered_migrants_never_latch_the_floor() {
        let (inst, lopsided, even) = balanced();
        let mut l = opened(&inst, &RunBudget::iterations(1), &lopsided, Instant::now(), 0);
        l.record(&lopsided, 24.0);
        assert!(closed(&mut l, 0).is_exhausted());
        l.offer(&even, 12.0);
        assert_eq!(l.incumbent().cost, 12.0);
        assert_eq!(termination(&l, &inst), Termination::Budget, "no latch inside offer");
        // The next slice latches it and runs nothing.
        l.open_slice(5);
        assert!(!l.proceed(0));
        assert!(closed(&mut l, 0).is_exhausted());
        assert_eq!(termination(&l, &inst), Termination::Floor);
        assert_eq!(l.iterations(), 1);
        // A worse migrant is ignored.
        l.offer(&lopsided, 24.0);
        assert_eq!(l.incumbent().solution, &even);
    }

    #[test]
    fn unbounded_never_exhausts() {
        let (inst, lopsided, _) = balanced();
        let mut l = opened(&inst, &RunBudget::default(), &lopsided, Instant::now(), 0);
        for _ in 0..1000 {
            l.record(&lopsided, 24.0);
        }
        assert!(l.proceed(u64::MAX));
        assert!(!closed(&mut l, 1 << 40).is_exhausted());
    }

    #[test]
    fn deadline_hit_and_halted_each_axis() {
        let (inst, lopsided, _) = balanced();
        let now = Instant::now();
        let mut l = opened(&inst, &RunBudget::default().with_deadline_evals(10), &lopsided, now, 0);
        assert!(l.proceed(9));
        assert!(!l.proceed(10));
        assert!(closed(&mut l, 10).is_exhausted());
        assert_eq!(termination(&l, &inst), Termination::Deadline);
        // The same limit untagged is a budget.
        let mut l = opened(&inst, &RunBudget::evaluations(10), &lopsided, now, 10);
        assert!(!l.proceed(0));
        assert_eq!(termination(&l, &inst), Termination::Budget);

        let second_ago = now.checked_sub(Duration::from_secs(1)).unwrap();
        let wall = RunBudget::default().with_deadline_wall(Duration::from_millis(5));
        let mut l = opened(&inst, &wall, &lopsided, second_ago, 0);
        assert!(!l.proceed(0));
        assert_eq!(termination(&l, &inst), Termination::Deadline);

        // On a tagged budget the iteration limit still reports budget,
        // and each side halts the run on its own.
        let budget = RunBudget::iterations(3).with_deadline_evals(10);
        let mut l = opened(&inst, &budget, &lopsided, now, 0);
        for _ in 0..2 {
            l.record(&lopsided, 24.0);
        }
        assert!(l.proceed(9));
        l.record(&lopsided, 24.0);
        assert!(!l.proceed(0), "budget side");
        assert_eq!(termination(&l, &inst), Termination::Budget);
        let mut l = opened(&inst, &budget, &lopsided, now, 10);
        assert!(!l.proceed(0), "deadline side");
        assert_eq!(termination(&l, &inst), Termination::Deadline);
    }

    #[test]
    fn observe_cancel_latches_once() {
        let (inst, lopsided, _) = balanced();
        let token = CancelToken::new();
        let budget = RunBudget::iterations(5).with_cancel(token.clone());
        let mut l = opened(&inst, &budget, &lopsided, Instant::now(), 0);
        assert!(l.proceed(0));
        l.record(&lopsided, 24.0);
        token.cancel();
        assert!(!l.proceed(0));
        assert!(closed(&mut l, 0).is_exhausted(), "the latch outlives the slice");
        l.open_slice(5);
        assert!(!l.proceed(0));
        let r = l.result(&EvalSnapshot::new(&inst));
        assert_eq!((r.termination, r.iterations), (Termination::Cancelled, 1));
        // A budget without a token never cancels.
        let mut l = opened(&inst, &RunBudget::iterations(5), &lopsided, Instant::now(), 0);
        assert!(l.proceed(0));
    }

    #[test]
    fn termination_precedence() {
        let (inst, lopsided, even) = balanced();
        let now = Instant::now();
        let token = CancelToken::new();
        let budget = RunBudget::iterations(3).with_deadline_evals(10).with_cancel(token.clone());
        // Every limit hit, cancelled, and then an improvement reaches the
        // floor: the floor outranks everything.
        let mut l = opened(&inst, &budget, &lopsided, now, 10);
        for _ in 0..3 {
            l.record(&lopsided, 24.0);
        }
        token.cancel();
        assert!(!l.proceed(0));
        assert_eq!(termination(&l, &inst), Termination::Cancelled, "outranks deadline and budget");
        l.record(&even, 12.0);
        assert_eq!(termination(&l, &inst), Termination::Floor);
        // Deadline outranks budget.
        let budget = RunBudget::iterations(3).with_deadline_evals(10);
        let mut l = opened(&inst, &budget, &lopsided, now, 10);
        for _ in 0..3 {
            l.record(&lopsided, 24.0);
        }
        assert_eq!(termination(&l, &inst), Termination::Deadline);
        // Budget alone, then nothing hit.
        let mut l = opened(&inst, &budget, &lopsided, now, 9);
        for _ in 0..3 {
            l.record(&lopsided, 24.0);
        }
        assert_eq!(termination(&l, &inst), Termination::Budget);
        let l = opened(&inst, &budget, &lopsided, now, 9);
        assert_eq!(termination(&l, &inst), Termination::Completed);
        // Labels are stable.
        assert_eq!(Termination::Deadline.as_str(), "deadline");
        assert_eq!(Termination::Cancelled.to_string(), "cancelled");
    }

    #[test]
    fn results_carry_the_charged_counters() {
        let (inst, lopsided, even) = balanced();
        let start = ScanStats { full_passes: 1, ..ScanStats::default() };
        let budget = RunBudget::iterations(4);
        let mut l = RunLedger::new(&inst, &budget, Instant::now(), lopsided, 24.0, 3, start);
        l.open_slice(u64::MAX);
        l.record(&even, 12.0);
        let scan = ScanStats { full_passes: 2, scored: 7, ..ScanStats::default() };
        assert!(l.close_slice(5, scan).is_exhausted());
        let r = l.result(&EvalSnapshot::new(&inst));
        assert_eq!((r.evaluations, r.iterations), (8, 1));
        assert_eq!(r.scan, ScanStats { full_passes: 3, scored: 7, ..ScanStats::default() });
        assert_eq!((&r.solution, r.makespan, r.objective_value), (&even, 12.0, 12.0));
        assert_eq!(l.trace_record(2, 30.0).evaluations, 10);
        assert_eq!(l.trace_record(2, 30.0).iteration, 0);
    }
}
