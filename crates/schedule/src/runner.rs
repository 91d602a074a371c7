//! The common scheduler interface and run budgets.
//!
//! Every algorithm in the suite — simulated evolution (`mshc-core`), the
//! Wang et al. genetic algorithm (`mshc-ga`), and the constructive /
//! metaheuristic baselines (`mshc-heuristics`) — implements [`Scheduler`],
//! so the comparison harness (Figs 5–7), the CLI and the examples treat
//! them uniformly.
//!
//! [`RunBudget`] expresses the stopping criteria the paper uses:
//! iteration counts for Figs 3–4 and wall-clock time for the SE-vs-GA
//! races of Figs 5–7, plus an evaluation-count budget for deterministic
//! comparisons, one limit per axis. A `deadline` tag marks the
//! evaluation and wall limits as an external deadline, which changes
//! only how a stop is reported ([`Termination::Deadline`]). The budget
//! also carries the
//! [`ObjectiveKind`] to optimize, so the CLI and the harnesses select
//! objectives without touching the `Scheduler` trait.
//!
//! The budget is data only. The iterative searches apply it through
//! [`crate::RunLedger`], the one place that decides when a run stops and
//! assembles its [`RunResult`].

use crate::encoding::Solution;
use crate::error::ScheduleError;
use crate::objective::ObjectiveKind;
use mshc_obs as obs;
use mshc_platform::HcInstance;
use mshc_trace::Trace;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shared, one-shot cooperative cancellation flag.
///
/// Clone the token, hand one copy to the budget
/// ([`RunBudget::with_cancel`]) and keep the other; calling
/// [`cancel`](CancelToken::cancel) from any thread asks the run to stop
/// at the next slice boundary. Cancellation is *cooperative*: searches
/// poll the token between [`step`](crate::SearchStep::step) slices —
/// never inside an evaluation — so evaluation counts stay exact and the
/// incumbent returned is always a complete, valid schedule.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    fired: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, unfired token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Fires the token; every clone observes the cancellation. One-shot:
    /// there is deliberately no way to un-fire.
    pub fn cancel(&self) {
        self.fired.store(true, Ordering::Release);
    }

    /// Whether the token has fired.
    pub fn is_cancelled(&self) -> bool {
        self.fired.load(Ordering::Acquire)
    }
}

impl PartialEq for CancelToken {
    /// Identity equality: two tokens are equal iff they share the flag
    /// (a clone equals its original; two fresh tokens never compare
    /// equal even though both are unfired).
    fn eq(&self, other: &CancelToken) -> bool {
        Arc::ptr_eq(&self.fired, &other.fired)
    }
}

/// Why a run stopped. Ordered by reporting precedence: a run that hit
/// the certified floor reports [`Floor`](Termination::Floor) even if a
/// deadline expired the same slice, a cancellation outranks deadlines,
/// and deadlines outrank ordinary budget exhaustion. Whatever the
/// variant, the result always carries the best incumbent and its
/// certificate gap — degraded termination is graceful, never an error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Termination {
    /// The run finished its work with no limit hit: one-shot heuristics,
    /// or a steppable search drained by its driver without exhausting
    /// the budget.
    Completed,
    /// A budget limit (`max_iterations`, `max_evaluations`, `max_wall`)
    /// stopped the run.
    Budget,
    /// The evaluation or wall limit of a budget tagged as a deadline
    /// ([`RunBudget::deadline`]) stopped the run.
    Deadline,
    /// A [`CancelToken`] fired and the run stopped at the next slice
    /// boundary.
    Cancelled,
    /// The incumbent reached the instance's certified lower bound — the
    /// solution is provably optimal.
    Floor,
}

impl Termination {
    /// Stable lowercase identifier used in reports, leaderboards and
    /// CSV cells.
    pub fn as_str(&self) -> &'static str {
        match self {
            Termination::Completed => "completed",
            Termination::Budget => "budget",
            Termination::Deadline => "deadline",
            Termination::Cancelled => "cancelled",
            Termination::Floor => "floor",
        }
    }
}

impl std::fmt::Display for Termination {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Stopping criteria plus the objective to optimize; a run stops as soon
/// as *any* set limit is reached. A fully `None` budget never stops —
/// constructive heuristics ignore budgets, iterative schedulers require
/// at least one limit ([`validate`](RunBudget::validate) enforces this).
/// Each axis has one limit; the [`deadline`](RunBudget::deadline) tag
/// only changes how a stop on the evaluation or wall limit is reported.
#[derive(Debug, Clone, PartialEq)]
pub struct RunBudget {
    /// Maximum iterations (SE) / generations (GA).
    pub max_iterations: Option<u64>,
    /// Maximum charged evaluations ([`RunResult::evaluations`]).
    pub max_evaluations: Option<u64>,
    /// Maximum wall-clock time.
    pub max_wall: Option<Duration>,
    /// The objective iterative schedulers minimize (default: makespan,
    /// the paper's objective). One-shot constructive heuristics always
    /// build makespan-oriented schedules but report this objective's
    /// value alongside.
    pub objective: ObjectiveKind,
    /// Whether iterative searches may terminate as soon as the incumbent
    /// reaches the instance's certified lower bound
    /// ([`crate::InstanceBound`]) — the incumbent is then provably
    /// optimal, so further iterations cannot change it (default `true`;
    /// the CLI's `--no-early-stop` escape hatch turns it off). Early
    /// stop is observable only as *fewer* iterations/evaluations, never
    /// a different solution or objective value; runs that never reach
    /// the floor are bit-identical either way.
    pub early_stop: bool,
    /// Whether `max_evaluations` and `max_wall` are an external
    /// deadline rather than a budget. Both stop the run identically; the
    /// tag only changes how the stop is classified. An evaluation
    /// deadline is bit-reproducible — the testable deadline surface; a
    /// wall deadline is anytime mode, so which iteration it stops at
    /// varies run to run and it never gates byte-compared artifacts.
    pub deadline: bool,
    /// Cooperative cancellation token, polled at slice boundaries
    /// (never inside an evaluation). `None` means not cancellable.
    pub cancel: Option<CancelToken>,
}

impl Default for RunBudget {
    fn default() -> RunBudget {
        RunBudget {
            max_iterations: None,
            max_evaluations: None,
            max_wall: None,
            objective: ObjectiveKind::default(),
            early_stop: true,
            deadline: false,
            cancel: None,
        }
    }
}

impl RunBudget {
    /// Budget limited by iteration count only.
    pub fn iterations(n: u64) -> RunBudget {
        RunBudget { max_iterations: Some(n), ..Default::default() }
    }

    /// Budget limited by evaluation count only.
    pub fn evaluations(n: u64) -> RunBudget {
        RunBudget { max_evaluations: Some(n), ..Default::default() }
    }

    /// Budget limited by wall-clock time only.
    pub fn wall(d: Duration) -> RunBudget {
        RunBudget { max_wall: Some(d), ..Default::default() }
    }

    /// Sets the objective to optimize.
    pub fn with_objective(mut self, objective: ObjectiveKind) -> RunBudget {
        self.objective = objective;
        self
    }

    /// Enables/disables early termination at the certified lower bound
    /// (default: on).
    pub fn with_early_stop(mut self, early_stop: bool) -> RunBudget {
        self.early_stop = early_stop;
        self
    }

    /// Sets the evaluation limit to `n` and tags the budget as a
    /// deadline ([`Termination::Deadline`] once `n` evaluations are
    /// done).
    pub fn with_deadline_evals(mut self, n: u64) -> RunBudget {
        self.max_evaluations = Some(n);
        self.deadline = true;
        self
    }

    /// Sets the wall limit to `d` and tags the budget as a deadline
    /// ([`Termination::Deadline`] once `d` has elapsed). Anytime mode:
    /// not bit-reproducible.
    pub fn with_deadline_wall(mut self, d: Duration) -> RunBudget {
        self.max_wall = Some(d);
        self.deadline = true;
        self
    }

    /// Attaches a cooperative cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> RunBudget {
        self.cancel = Some(token);
        self
    }

    /// Whether any limit is set (a cancel token does not bound a budget
    /// — cancellation may never come).
    pub fn is_bounded(&self) -> bool {
        self.max_iterations.is_some() || self.max_evaluations.is_some() || self.max_wall.is_some()
    }

    /// Validates the budget for an iterative (anytime) scheduler: an
    /// all-`None` budget never stops, so at least one limit must be set;
    /// zero deadlines would fire before the first incumbent exists; and
    /// an already-fired cancel token is a reused one-shot token. The
    /// iterative schedulers and the CLI call this instead of silently
    /// running forever; one-shot constructive heuristics ignore budgets
    /// and need not validate.
    pub fn validate(&self) -> Result<(), ScheduleError> {
        if self.deadline && self.max_evaluations == Some(0) {
            return Err(ScheduleError::InvalidDeadline { axis: "deadline_evals" });
        }
        if self.deadline && self.max_wall == Some(Duration::ZERO) {
            return Err(ScheduleError::InvalidDeadline { axis: "deadline_wall" });
        }
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            return Err(ScheduleError::CancelledBeforeStart);
        }
        if self.is_bounded() {
            Ok(())
        } else {
            Err(ScheduleError::UnboundedBudget)
        }
    }
}

/// The one record of a run's work, carried in [`RunResult::scan`]; the
/// metrics registry's run counters are sums of these records. Every
/// axis is a pure function of the candidates a run considers, so each
/// reads the same at any thread count. Three counts measure work:
///
/// * A **full pass** walks a whole solution at tier 1
///   ([`crate::Evaluator`]). Only the passes a run makes to search
///   count: GA generation 0 and children that are not clones, SE's
///   reports, tabu's first pass, random-search samples, HEFT-with-
///   insertion's export pass, a one-shot heuristic's non-makespan score.
///   Passes made only to report (the ledger's makespan under another
///   objective, SE's pass over a migrant, the replanner's freeze, the
///   CLI's `--report`) and priming walks do not.
/// * A **scoring** replays one candidate at tier 3
///   ([`crate::IncrementalEvaluator`]).
/// * A **charged evaluation** ([`RunResult::evaluations`]) is one
///   candidate a run considered, whatever it cost: the budget axis. A
///   GA clone is charged without a pass; SE charges every cell of a
///   relocation grid, which may replay fewer, plus two per allocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Full passes.
    pub full_passes: u64,
    /// Scorings.
    pub scored: u64,
    /// Population children served by their parent's known cost (exact
    /// clones; the GA axis).
    pub clones: u64,
    /// String positions of those clones (clones × string length),
    /// served without a pass.
    pub clone_positions: u64,
    /// String positions of every population child scored (children ×
    /// string length).
    pub population_positions: u64,
}

impl ScanStats {
    /// The record of `n` full passes and no other work.
    pub fn passes(n: u64) -> ScanStats {
        ScanStats { full_passes: n, ..ScanStats::default() }
    }

    /// Accumulates another record into this one.
    pub fn merge(&mut self, other: ScanStats) {
        self.full_passes += other.full_passes;
        self.scored += other.scored;
        self.clones += other.clones;
        self.clone_positions += other.clone_positions;
        self.population_positions += other.population_positions;
    }

    /// Adds this record and `iterations` to the metrics registry's run
    /// counters. Called where a run closes a piece of its work:
    /// [`crate::RunLedger`] per slice and a one-shot heuristic per run
    /// ([`RunResult::one_shot`]), so the registry holds the sum of the
    /// records of the runs it saw.
    pub(crate) fn publish(&self, iterations: u64) {
        obs::add(obs::Counter::Iterations, iterations);
        obs::add(obs::Counter::Evaluations, self.full_passes);
        obs::add(obs::Counter::ScanScored, self.scored);
        obs::add(obs::Counter::ScanClones, self.clones);
        obs::add(obs::Counter::ScanClonePositions, self.clone_positions);
        obs::add(obs::Counter::ScanPopulationPositions, self.population_positions);
    }

    /// Always 0: tier 3 scores every candidate to the end of the string.
    /// Kept only because the benchmark under `perfbench/` reports it;
    /// delete it with that use at the next change to the benchmark.
    pub fn pruned_fraction(&self) -> f64 {
        0.0
    }

    /// Always 0, like [`Self::pruned_fraction`]. Kept only because the
    /// benchmark under `perfbench/` reports it; delete it with that use
    /// at the next change to the benchmark.
    pub fn spliced_fraction(&self) -> f64 {
        0.0
    }

    /// `clone_positions / population_positions`: the share of population
    /// string positions served by exact clones instead of a full pass (0
    /// when no population was scored). Deterministic at any thread count.
    /// The name is that of the deleted prefix-splicing path, kept only
    /// because the benchmark under `perfbench/` reports it; rename it to
    /// `clone_fraction` with that use at the next change to the
    /// benchmark.
    pub fn prefix_reuse_fraction(&self) -> f64 {
        if self.population_positions == 0 {
            0.0
        } else {
            self.clone_positions as f64 / self.population_positions as f64
        }
    }
}

/// Outcome of one scheduler run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// The best solution found.
    pub solution: Solution,
    /// Its makespan (always reported, whatever the objective).
    pub makespan: f64,
    /// Its value under the budget's objective; equals `makespan` for the
    /// default makespan objective.
    pub objective_value: f64,
    /// Iterations (or generations) executed; 1 for one-shot heuristics.
    pub iterations: u64,
    /// Charged evaluations: one per candidate schedule the run
    /// considered, the axis [`RunBudget::max_evaluations`] limits (see
    /// [`ScanStats`] for how it relates to full passes and scorings).
    pub evaluations: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// The run's full passes, scorings and GA population counters.
    /// Every axis is identical at any thread count; the counters are
    /// still kept out of the serialized tournament outcome, whose layout
    /// they would change.
    pub scan: ScanStats,
    /// The instance's certified makespan floor ([`crate::InstanceBound`]),
    /// `Some` only when the run optimized plain makespan (other
    /// objectives have no certificate). Identical across algorithms,
    /// budgets and thread counts — a property of the instance.
    pub lower_bound: Option<f64>,
    /// Optimality gap `objective_value / lower_bound` (`>= 1.0` by the
    /// certificate contract); `None` whenever `lower_bound` is.
    pub gap: Option<f64>,
    /// Why the run stopped (see [`Termination`] for the precedence).
    /// Always accompanied by the best incumbent — degraded termination
    /// is graceful, never an error. [`Termination::Floor`] means the
    /// incumbent reached the certified floor and is provably optimal.
    pub termination: Termination,
}

impl RunResult {
    /// The result of a one-shot constructive heuristic started at
    /// `start`: `solution` with its `makespan`, one iteration, the
    /// `evaluations` it charged and the `full_passes` it made, scored
    /// under the budget's objective and certified, with
    /// [`Termination::Completed`]. The heuristics build makespan-oriented
    /// schedules; a non-makespan objective costs one more full pass.
    /// Publishes the run's record to the metrics registry.
    pub fn one_shot(
        inst: &HcInstance,
        budget: &RunBudget,
        solution: Solution,
        makespan: f64,
        evaluations: u64,
        full_passes: u64,
        start: Instant,
    ) -> RunResult {
        let (objective_value, full_passes) = if budget.objective.is_makespan() {
            (makespan, full_passes)
        } else {
            let value = crate::Evaluator::new(inst).objective_value(&solution, &budget.objective);
            (value, full_passes + 1)
        };
        let scan = ScanStats::passes(full_passes);
        scan.publish(1);
        RunResult {
            solution,
            makespan,
            objective_value,
            iterations: 1,
            evaluations,
            elapsed: start.elapsed(),
            scan,
            lower_bound: None,
            gap: None,
            termination: Termination::Completed,
        }
        .with_certificate(inst, budget.objective)
    }

    /// Attaches the certificate fields to a result: the instance floor
    /// and gap when `objective` is plain makespan (the only certified
    /// objective), clearing them otherwise. One-shot heuristics and
    /// search `result()` assemblers share this so every construction
    /// site reports certificates identically.
    pub fn with_certificate(mut self, inst: &HcInstance, objective: ObjectiveKind) -> RunResult {
        self.lower_bound =
            objective.is_makespan().then(|| crate::InstanceBound::compute(inst).floor());
        self.gap = certified_gap(self.lower_bound, self.objective_value);
        self
    }
}

/// Gap of an objective value against an optional certified floor:
/// `Some(value / floor)` when a positive floor exists and the value is
/// finite, `None` otherwise. The single gap formula every reporting
/// site shares, so leaderboards, CSV rows and `RunResult`s agree bit
/// for bit.
#[inline]
pub fn certified_gap(lower_bound: Option<f64>, value: f64) -> Option<f64> {
    match lower_bound {
        Some(floor) if floor > 0.0 && value.is_finite() => Some(value / floor),
        _ => None,
    }
}

/// A task matching-and-scheduling algorithm.
pub trait Scheduler {
    /// Short stable identifier used in figures, CSV columns and the CLI
    /// (e.g. `"se"`, `"ga"`, `"heft"`).
    fn name(&self) -> &str;

    /// Runs on `inst` under `budget`, optionally recording a per-iteration
    /// trace. Implementations must return a precedence-valid solution.
    fn run(
        &mut self,
        inst: &HcInstance,
        budget: &RunBudget,
        trace: Option<&mut Trace>,
    ) -> RunResult;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_stats_merge_every_axis() {
        let mut a = ScanStats { full_passes: 2, scored: 10, ..Default::default() };
        a.merge(ScanStats { full_passes: 1, scored: 10, ..Default::default() });
        assert_eq!(a, ScanStats { full_passes: 3, scored: 20, ..Default::default() });
        // The benchmark-pinned fractions read 0.
        assert_eq!(a.pruned_fraction(), 0.0);
        assert_eq!(a.spliced_fraction(), 0.0);
        // The population axes merge and ratio independently.
        a.merge(ScanStats {
            clones: 3,
            clone_positions: 30,
            population_positions: 120,
            ..Default::default()
        });
        a.merge(ScanStats {
            clones: 1,
            clone_positions: 30,
            population_positions: 40,
            ..Default::default()
        });
        assert_eq!(a.clones, 4);
        assert_eq!(a.prefix_reuse_fraction(), 60.0 / 160.0);
        assert_eq!(ScanStats::default().prefix_reuse_fraction(), 0.0);
    }

    #[test]
    fn constructors() {
        let b = RunBudget::iterations(5);
        assert_eq!(b.max_iterations, Some(5));
        assert!(b.is_bounded());
        let b = RunBudget::evaluations(100);
        assert_eq!(b.max_evaluations, Some(100));
        assert!(!b.deadline, "an evaluation budget is not a deadline");
        let b = RunBudget::wall(Duration::from_millis(50));
        assert_eq!(b.max_wall, Some(Duration::from_millis(50)));
        assert!(!RunBudget::default().is_bounded());
        assert!(RunBudget::default().objective.is_makespan());
        let b = RunBudget::iterations(5).with_objective(ObjectiveKind::LoadBalance);
        assert_eq!(b.objective, ObjectiveKind::LoadBalance);
        assert!(b.is_bounded());
        assert!(b.early_stop, "early stop defaults on");
        assert!(!b.with_early_stop(false).early_stop);
    }

    #[test]
    fn validate_rejects_unbounded_budgets() {
        use crate::error::ScheduleError;
        assert_eq!(RunBudget::default().validate(), Err(ScheduleError::UnboundedBudget));
        assert!(RunBudget::iterations(1).validate().is_ok());
        assert!(RunBudget::evaluations(1).validate().is_ok());
        assert!(RunBudget::wall(Duration::from_millis(1)).validate().is_ok());
        // Setting only the objective does not bound a budget.
        let b = RunBudget::default().with_objective(ObjectiveKind::TotalFlowtime);
        assert!(b.validate().is_err());
    }

    #[test]
    fn cancel_token_fires_once_and_shares_state() {
        let token = CancelToken::new();
        let peer = token.clone();
        assert!(!token.is_cancelled());
        assert!(!peer.is_cancelled());
        peer.cancel();
        assert!(token.is_cancelled(), "clones share the flag");
        // Identity equality: clone == original, fresh != fresh.
        assert_eq!(token, peer);
        assert_ne!(CancelToken::new(), CancelToken::new());
    }

    #[test]
    fn deadlines_bound_and_validate() {
        // A deadline sets its axis's one limit and the tag.
        let b = RunBudget::iterations(3).with_deadline_evals(10);
        assert_eq!((b.max_iterations, b.max_evaluations, b.deadline), (Some(3), Some(10), true));
        let b = RunBudget::default().with_deadline_wall(Duration::from_millis(5));
        assert_eq!((b.max_wall, b.deadline), (Some(Duration::from_millis(5)), true));
        // Deadlines alone bound a budget.
        assert!(b.is_bounded());
        assert!(b.validate().is_ok());
        let b = RunBudget::default().with_deadline_evals(10);
        assert!(b.is_bounded());
        assert!(b.validate().is_ok());
        // Zero deadlines are rejected with the axis named; an untagged
        // zero limit is an ordinary (immediately exhausted) budget.
        assert_eq!(
            RunBudget::default().with_deadline_evals(0).validate(),
            Err(ScheduleError::InvalidDeadline { axis: "deadline_evals" })
        );
        assert_eq!(
            RunBudget::default().with_deadline_wall(Duration::ZERO).validate(),
            Err(ScheduleError::InvalidDeadline { axis: "deadline_wall" })
        );
        assert!(RunBudget::evaluations(0).validate().is_ok());
        // A pre-fired token is misuse even on an otherwise valid budget.
        let fired = CancelToken::new();
        fired.cancel();
        assert_eq!(
            RunBudget::iterations(5).with_cancel(fired).validate(),
            Err(ScheduleError::CancelledBeforeStart)
        );
        // An unfired token on a bounded budget is fine; a token alone
        // does not bound a budget.
        let token = CancelToken::new();
        assert!(RunBudget::iterations(5).with_cancel(token.clone()).validate().is_ok());
        assert_eq!(
            RunBudget::default().with_cancel(token).validate(),
            Err(ScheduleError::UnboundedBudget)
        );
    }
}
