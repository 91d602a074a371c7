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
//! comparisons and a stall window ("no improvement for N iterations").
//! It also carries the [`ObjectiveKind`] to optimize, so the CLI and the
//! harnesses select objectives without touching the `Scheduler` trait.

use crate::encoding::Solution;
use crate::error::ScheduleError;
use crate::incremental::ScanStats;
use crate::objective::ObjectiveKind;
use mshc_platform::HcInstance;
use mshc_trace::Trace;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

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
    /// A classic budget limit (`max_iterations`, `max_evaluations`,
    /// `max_wall`, `max_stall`) stopped the run.
    Budget,
    /// A deadline (`deadline_evals` or `deadline_wall`) stopped the run.
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
#[derive(Debug, Clone, PartialEq)]
pub struct RunBudget {
    /// Maximum iterations (SE) / generations (GA).
    pub max_iterations: Option<u64>,
    /// Maximum number of full schedule evaluations.
    pub max_evaluations: Option<u64>,
    /// Maximum wall-clock time.
    pub max_wall: Option<Duration>,
    /// Stop after this many consecutive iterations without improving the
    /// best objective value.
    pub max_stall: Option<u64>,
    /// The objective iterative schedulers minimize (default: makespan,
    /// the paper's objective). One-shot constructive heuristics always
    /// build makespan-oriented schedules but report this objective's
    /// value alongside.
    pub objective: ObjectiveKind,
    /// Checkpoint stride for the incremental (suffix-replay) move
    /// evaluators the schedulers use. `None` (the default) selects the
    /// auto stride `⌈√k⌉`. A pure cost knob: results are bit-identical
    /// at every stride.
    pub checkpoint_stride: Option<usize>,
    /// Whether the move-scan fast path may bound-prune and splice
    /// (default `true`; the CLI's `--no-prune` escape hatch turns it
    /// off). It governs tabu's bounded neighborhood argmin, SA's
    /// incremental scorings and SE's first-improvement allocation; SE's
    /// best-fit allocation scans on machine lanes, which never prune or
    /// splice. Another pure cost knob: solutions, objective values and
    /// evaluation counts are bit-identical either way.
    pub prune: bool,
    /// Whether iterative searches may terminate as soon as the incumbent
    /// reaches the instance's certified lower bound
    /// ([`crate::InstanceBound`]) — the incumbent is then provably
    /// optimal, so further iterations cannot change it (default `true`;
    /// the CLI's `--no-early-stop` escape hatch turns it off). Early
    /// stop is observable only as *fewer* iterations/evaluations, never
    /// a different solution or objective value; runs that never reach
    /// the floor are bit-identical either way.
    pub early_stop: bool,
    /// Forces the GA back onto full tier-1 population evaluation instead
    /// of parent-primed prefix splicing (default `false`; the CLI's
    /// `--ga-full-eval` escape hatch turns it on). Another pure cost
    /// knob: splicing replays the exact fold a full pass would, so
    /// solutions, fitness values and evaluation counts are bit-identical
    /// either way.
    pub ga_full_eval: bool,
    /// *Deterministic* deadline: stop once this many full evaluations
    /// have been performed, reporting [`Termination::Deadline`]. Unlike
    /// `max_evaluations` (a budget), a deadline models an external
    /// request limit; both stop the run identically, the difference is
    /// how the termination is classified. Bit-reproducible — the
    /// testable deadline surface.
    pub deadline_evals: Option<u64>,
    /// *Wall-clock* deadline: stop once this much time has elapsed,
    /// reporting [`Termination::Deadline`]. Anytime mode — the result
    /// still carries the best incumbent and its certificate gap, but
    /// which iteration it stops at varies run-to-run, so wall deadlines
    /// never gate byte-compared artifacts.
    pub deadline_wall: Option<Duration>,
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
            max_stall: None,
            objective: ObjectiveKind::default(),
            checkpoint_stride: None,
            prune: true,
            early_stop: true,
            ga_full_eval: false,
            deadline_evals: None,
            deadline_wall: None,
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

    /// Adds a stall window to an existing budget.
    pub fn with_stall(mut self, n: u64) -> RunBudget {
        self.max_stall = Some(n);
        self
    }

    /// Sets the objective to optimize.
    pub fn with_objective(mut self, objective: ObjectiveKind) -> RunBudget {
        self.objective = objective;
        self
    }

    /// Sets the checkpoint stride for incremental move evaluation
    /// (`None` = auto `⌈√k⌉`).
    pub fn with_checkpoint_stride(mut self, stride: Option<usize>) -> RunBudget {
        self.checkpoint_stride = stride;
        self
    }

    /// Enables/disables the bounded+spliced move-scan fast path
    /// (default: on).
    pub fn with_prune(mut self, prune: bool) -> RunBudget {
        self.prune = prune;
        self
    }

    /// Enables/disables early termination at the certified lower bound
    /// (default: on).
    pub fn with_early_stop(mut self, early_stop: bool) -> RunBudget {
        self.early_stop = early_stop;
        self
    }

    /// Forces full tier-1 GA population evaluation (default: off, i.e.
    /// parent-primed prefix splicing on).
    pub fn with_ga_full_eval(mut self, ga_full_eval: bool) -> RunBudget {
        self.ga_full_eval = ga_full_eval;
        self
    }

    /// Sets the deterministic evaluation-count deadline
    /// ([`Termination::Deadline`] once `n` evaluations are done).
    pub fn with_deadline_evals(mut self, n: u64) -> RunBudget {
        self.deadline_evals = Some(n);
        self
    }

    /// Sets the wall-clock deadline ([`Termination::Deadline`] once `d`
    /// has elapsed). Anytime mode: not bit-reproducible.
    pub fn with_deadline_wall(mut self, d: Duration) -> RunBudget {
        self.deadline_wall = Some(d);
        self
    }

    /// Attaches a cooperative cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> RunBudget {
        self.cancel = Some(token);
        self
    }

    /// Whether a search may stop now because its incumbent has reached
    /// the instance's certified floor: requires the knob on, a floor
    /// (searches only certify the makespan objective), and the floor
    /// actually reached. The shared early-termination test of every
    /// iterative scheduler in the suite.
    #[inline]
    pub fn floor_reached(&self, lower_bound: Option<f64>, incumbent: f64) -> bool {
        let hit = self.early_stop
            && lower_bound.is_some_and(|floor| incumbent.is_finite() && incumbent <= floor);
        if hit {
            // Every scheduler latches `early_stopped` on the first hit
            // and short-circuits later checks, so this registry bump
            // fires at most once per run.
            mshc_obs::add(mshc_obs::Counter::EarlyStops, 1);
        }
        hit
    }

    /// Whether any limit is set (budget limits or deadlines; a fired
    /// cancel token does not bound a budget — cancellation may never
    /// come).
    pub fn is_bounded(&self) -> bool {
        self.max_iterations.is_some()
            || self.max_evaluations.is_some()
            || self.max_wall.is_some()
            || self.max_stall.is_some()
            || self.deadline_evals.is_some()
            || self.deadline_wall.is_some()
    }

    /// Validates the budget for an iterative (anytime) scheduler: an
    /// all-`None` budget never stops, so at least one limit must be set;
    /// zero deadlines would fire before the first incumbent exists; and
    /// an already-fired cancel token is a reused one-shot token. The
    /// iterative schedulers and the CLI call this instead of silently
    /// running forever; one-shot constructive heuristics ignore budgets
    /// and need not validate.
    pub fn validate(&self) -> Result<(), ScheduleError> {
        if self.deadline_evals == Some(0) {
            return Err(ScheduleError::InvalidDeadline { axis: "deadline_evals" });
        }
        if self.deadline_wall == Some(Duration::ZERO) {
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

    /// True once any classic budget limit is hit (not deadlines — see
    /// [`halted`](RunBudget::halted) for the combined stopping test).
    pub fn exhausted(
        &self,
        iterations: u64,
        evaluations: u64,
        elapsed: Duration,
        stall: u64,
    ) -> bool {
        self.max_iterations.is_some_and(|m| iterations >= m)
            || self.max_evaluations.is_some_and(|m| evaluations >= m)
            || self.max_wall.is_some_and(|m| elapsed >= m)
            || self.max_stall.is_some_and(|m| stall >= m)
    }

    /// True once a deadline (evaluation-count or wall-clock) is hit.
    pub fn deadline_hit(&self, evaluations: u64, elapsed: Duration) -> bool {
        self.deadline_evals.is_some_and(|m| evaluations >= m)
            || self.deadline_wall.is_some_and(|m| elapsed >= m)
    }

    /// The combined stopping test every steppable loop uses: any budget
    /// limit or deadline hit.
    pub fn halted(&self, iterations: u64, evaluations: u64, elapsed: Duration, stall: u64) -> bool {
        self.exhausted(iterations, evaluations, elapsed, stall)
            || self.deadline_hit(evaluations, elapsed)
    }

    /// Polls the cancel token at a slice boundary, latching the result
    /// into the caller-held flag. The registry's `Cancellations` counter
    /// bumps exactly once per run — on the first observation — mirroring
    /// the `floor_reached`/`EarlyStops` latch pattern. Returns the
    /// latched state.
    pub fn observe_cancel(&self, latched: &mut bool) -> bool {
        if !*latched && self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            *latched = true;
            mshc_obs::add(mshc_obs::Counter::Cancellations, 1);
        }
        *latched
    }

    /// Classifies why a finished run stopped, applying the reporting
    /// precedence `Floor > Cancelled > Deadline > Budget > Completed`.
    /// Called once by each search's `result()` assembler with its final
    /// counters and latches.
    pub fn termination(
        &self,
        iterations: u64,
        evaluations: u64,
        elapsed: Duration,
        stall: u64,
        early_stopped: bool,
        cancelled: bool,
    ) -> Termination {
        if early_stopped {
            Termination::Floor
        } else if cancelled {
            Termination::Cancelled
        } else if self.deadline_hit(evaluations, elapsed) {
            Termination::Deadline
        } else if self.exhausted(iterations, evaluations, elapsed, stall) {
            Termination::Budget
        } else {
            Termination::Completed
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
    /// Full schedule evaluations performed.
    pub evaluations: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Move-scan fast-path counters (all zero for schedulers that never
    /// scan moves incrementally). Every axis, pruned and spliced
    /// included, is identical at any thread count; the counters are
    /// still kept out of the serialized tournament outcome, whose
    /// layout they would change.
    pub scan: ScanStats,
    /// The instance's certified makespan floor ([`crate::InstanceBound`]),
    /// `Some` only when the run optimized plain makespan (other
    /// objectives have no certificate). Identical across algorithms,
    /// budgets and thread counts — a property of the instance.
    pub lower_bound: Option<f64>,
    /// Optimality gap `objective_value / lower_bound` (`>= 1.0` by the
    /// certificate contract); `None` whenever `lower_bound` is.
    pub gap: Option<f64>,
    /// Whether the run terminated early because the incumbent reached
    /// the certified floor (implies the solution is provably optimal).
    pub early_stopped: bool,
    /// Why the run stopped (see [`Termination`] for the precedence).
    /// Always accompanied by the best incumbent — degraded termination
    /// is graceful, never an error.
    pub termination: Termination,
}

impl RunResult {
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

/// Scores `solution` under `objective` for reporting, reusing the known
/// `makespan` when the objective is plain makespan (no extra pass). Used
/// by one-shot constructive heuristics, which always build makespan-
/// oriented schedules but report the budget's objective alongside.
pub fn report_objective_value(
    inst: &HcInstance,
    solution: &Solution,
    makespan: f64,
    objective: ObjectiveKind,
) -> f64 {
    if objective.is_makespan() {
        makespan
    } else {
        crate::Evaluator::new(inst).objective_value(solution, &objective)
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
    fn constructors() {
        let b = RunBudget::iterations(5);
        assert_eq!(b.max_iterations, Some(5));
        assert!(b.is_bounded());
        let b = RunBudget::evaluations(100).with_stall(10);
        assert_eq!(b.max_evaluations, Some(100));
        assert_eq!(b.max_stall, Some(10));
        let b = RunBudget::wall(Duration::from_millis(50));
        assert_eq!(b.max_wall, Some(Duration::from_millis(50)));
        assert!(!RunBudget::default().is_bounded());
        assert!(RunBudget::default().objective.is_makespan());
        let b = RunBudget::iterations(5).with_objective(ObjectiveKind::LoadBalance);
        assert_eq!(b.objective, ObjectiveKind::LoadBalance);
        assert!(b.is_bounded());
        let b = RunBudget::iterations(5).with_checkpoint_stride(Some(7));
        assert_eq!(b.checkpoint_stride, Some(7));
        assert_eq!(RunBudget::default().checkpoint_stride, None);
        assert!(!RunBudget::default().ga_full_eval, "splicing is the default");
        assert!(RunBudget::iterations(5).with_ga_full_eval(true).ga_full_eval);
    }

    #[test]
    fn validate_rejects_unbounded_budgets() {
        use crate::error::ScheduleError;
        assert_eq!(RunBudget::default().validate(), Err(ScheduleError::UnboundedBudget));
        assert!(RunBudget::iterations(1).validate().is_ok());
        assert!(RunBudget::evaluations(1).validate().is_ok());
        assert!(RunBudget::wall(Duration::from_millis(1)).validate().is_ok());
        assert!(RunBudget::default().with_stall(3).validate().is_ok());
        // Setting only the objective or stride does not bound a budget.
        let b = RunBudget::default()
            .with_objective(ObjectiveKind::TotalFlowtime)
            .with_checkpoint_stride(Some(4));
        assert!(b.validate().is_err());
    }

    #[test]
    fn exhaustion_each_axis() {
        let b = RunBudget::iterations(3);
        assert!(!b.exhausted(2, 0, Duration::ZERO, 0));
        assert!(b.exhausted(3, 0, Duration::ZERO, 0));

        let b = RunBudget::evaluations(10);
        assert!(!b.exhausted(99, 9, Duration::ZERO, 0));
        assert!(b.exhausted(0, 10, Duration::ZERO, 0));

        let b = RunBudget::wall(Duration::from_secs(1));
        assert!(!b.exhausted(0, 0, Duration::from_millis(999), 0));
        assert!(b.exhausted(0, 0, Duration::from_secs(1), 0));

        let b = RunBudget::default().with_stall(4);
        assert!(!b.exhausted(100, 100, Duration::from_secs(100), 3));
        assert!(b.exhausted(0, 0, Duration::ZERO, 4));
    }

    #[test]
    fn early_stop_knob_and_floor_test() {
        let b = RunBudget::iterations(5);
        assert!(b.early_stop, "early stop defaults on");
        assert!(!b.clone().with_early_stop(false).early_stop);
        // No floor (non-makespan objectives) never stops early.
        assert!(!b.floor_reached(None, 0.0));
        // Floor reached stops; above the floor keeps running.
        assert!(b.floor_reached(Some(10.0), 10.0));
        assert!(b.floor_reached(Some(10.0), 9.5));
        assert!(!b.floor_reached(Some(10.0), 10.5));
        // Knob off disables the test entirely.
        assert!(!b.clone().with_early_stop(false).floor_reached(Some(10.0), 10.0));
        // Non-finite incumbents never claim optimality.
        assert!(!b.floor_reached(Some(10.0), f64::NAN));
    }

    #[test]
    fn unbounded_never_exhausts() {
        let b = RunBudget::default();
        assert!(!b.exhausted(u64::MAX, u64::MAX, Duration::from_secs(1 << 40), u64::MAX));
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
        // Deadlines alone bound a budget.
        let b = RunBudget::default().with_deadline_evals(10);
        assert!(b.is_bounded());
        assert!(b.validate().is_ok());
        let b = RunBudget::default().with_deadline_wall(Duration::from_millis(5));
        assert!(b.is_bounded());
        assert!(b.validate().is_ok());
        // Zero deadlines are rejected with the axis named.
        assert_eq!(
            RunBudget::default().with_deadline_evals(0).validate(),
            Err(ScheduleError::InvalidDeadline { axis: "deadline_evals" })
        );
        assert_eq!(
            RunBudget::default().with_deadline_wall(Duration::ZERO).validate(),
            Err(ScheduleError::InvalidDeadline { axis: "deadline_wall" })
        );
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

    #[test]
    fn deadline_hit_and_halted_each_axis() {
        let b = RunBudget::default().with_deadline_evals(10);
        assert!(!b.deadline_hit(9, Duration::ZERO));
        assert!(b.deadline_hit(10, Duration::ZERO));
        assert!(!b.exhausted(0, 10, Duration::ZERO, 0), "deadline is not a budget limit");
        assert!(b.halted(0, 10, Duration::ZERO, 0));
        let b = RunBudget::default().with_deadline_wall(Duration::from_millis(5));
        assert!(!b.deadline_hit(u64::MAX, Duration::from_millis(4)));
        assert!(b.deadline_hit(0, Duration::from_millis(5)));
        // halted() is the union of both stopping families.
        let b = RunBudget::iterations(3).with_deadline_evals(10);
        assert!(b.halted(3, 0, Duration::ZERO, 0), "budget side");
        assert!(b.halted(0, 10, Duration::ZERO, 0), "deadline side");
        assert!(!b.halted(2, 9, Duration::ZERO, 0));
    }

    #[test]
    fn observe_cancel_latches_once() {
        let token = CancelToken::new();
        let b = RunBudget::iterations(5).with_cancel(token.clone());
        let mut latched = false;
        assert!(!b.observe_cancel(&mut latched));
        token.cancel();
        assert!(b.observe_cancel(&mut latched));
        assert!(latched);
        // Latched stays true on subsequent polls.
        assert!(b.observe_cancel(&mut latched));
        // A budget without a token never cancels.
        let mut latched = false;
        assert!(!RunBudget::iterations(5).observe_cancel(&mut latched));
    }

    #[test]
    fn termination_precedence() {
        let b = RunBudget::iterations(3).with_deadline_evals(10);
        let t = Duration::ZERO;
        // Floor outranks everything.
        assert_eq!(b.termination(3, 10, t, 0, true, true), Termination::Floor);
        // Cancelled outranks deadlines and budget.
        assert_eq!(b.termination(3, 10, t, 0, false, true), Termination::Cancelled);
        // Deadline outranks budget.
        assert_eq!(b.termination(3, 10, t, 0, false, false), Termination::Deadline);
        // Budget alone.
        assert_eq!(b.termination(3, 9, t, 0, false, false), Termination::Budget);
        // Nothing hit: completed.
        assert_eq!(b.termination(2, 9, t, 0, false, false), Termination::Completed);
        // Labels are stable.
        assert_eq!(Termination::Deadline.as_str(), "deadline");
        assert_eq!(Termination::Cancelled.to_string(), "cancelled");
    }
}
