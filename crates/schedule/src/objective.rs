//! Pluggable scoring objectives over an evaluated schedule.
//!
//! The paper minimizes the schedule length (makespan) only. Production
//! scheduling cares about more: mean job turnaround (flowtime), how
//! evenly the machine suite is loaded, and blends of all three. An
//! [`Objective`] maps the timing arrays a single evaluator pass produces
//! — per-task start/finish plus per-machine busy time — to one scalar
//! where **lower is always better**, so every search algorithm in the
//! suite (SE, GA, SA, tabu, random) optimizes any objective through the
//! same argmin machinery.
//!
//! [`ObjectiveKind`] is the plumbing-friendly, `Copy` enumeration of the
//! built-in objectives; it is what [`crate::RunBudget`] carries from the
//! CLI down into every scheduler. Custom objectives only need the trait.

use crate::eval::ScheduleReport;
use mshc_platform::MachineId;
use serde::{Deserialize, Serialize};

/// Borrowed view of one evaluated schedule: everything an objective may
/// score, produced by a single evaluator pass (or assembled from a
/// [`ScheduleReport`], e.g. the discrete-event replay oracle).
#[derive(Debug, Clone, Copy)]
pub struct EvalView<'a> {
    /// Start time per task, indexed by task.
    pub start: &'a [f64],
    /// Finish time per task, indexed by task.
    pub finish: &'a [f64],
    /// Total execution (busy) time per machine, indexed by machine.
    pub machine_busy: &'a [f64],
}

/// Running accumulator for incremental (suffix-replay) objective scoring.
///
/// One completed task is folded at a time, in **string order** — the
/// order the single left-to-right evaluator pass completes tasks in. The
/// state is everything the built-in objectives need: the running
/// finish-time maximum (makespan), the running finish-time sum
/// (flowtime), the folded task count, and the per-machine busy times
/// (load balance).
///
/// Both the scalar [`crate::Evaluator`]'s full pass and the
/// checkpoint-resumed suffix replay of [`crate::IncrementalEvaluator`]
/// fold tasks in the same order over the same values, so
/// [`Objective::finalize`] produces **bit-identical** scores on every
/// route (max is order-independent for non-negative times; the sums fold
/// identical values in identical order).
#[derive(Debug, Default, PartialEq)]
pub struct ObjectiveState {
    max_finish: f64,
    finish_sum: f64,
    tasks: usize,
    machine_busy: Vec<f64>,
}

/// Written by hand because the derived `clone_from` replaces the busy
/// vector; this one copies into it, so the incremental evaluator's
/// per-prime state copies keep their allocation.
impl Clone for ObjectiveState {
    fn clone(&self) -> ObjectiveState {
        ObjectiveState {
            max_finish: self.max_finish,
            finish_sum: self.finish_sum,
            tasks: self.tasks,
            machine_busy: self.machine_busy.clone(),
        }
    }

    fn clone_from(&mut self, source: &ObjectiveState) {
        self.max_finish = source.max_finish;
        self.finish_sum = source.finish_sum;
        self.tasks = source.tasks;
        self.machine_busy.clone_from(&source.machine_busy);
    }
}

impl ObjectiveState {
    /// An empty fold over `machines` machines.
    pub fn new(machines: usize) -> ObjectiveState {
        ObjectiveState {
            max_finish: 0.0,
            finish_sum: 0.0,
            tasks: 0,
            machine_busy: vec![0.0; machines],
        }
    }

    /// Resets to the empty fold over `machines` machines, reusing the
    /// busy-vector allocation.
    pub fn reset(&mut self, machines: usize) {
        self.max_finish = 0.0;
        self.finish_sum = 0.0;
        self.tasks = 0;
        self.machine_busy.clear();
        self.machine_busy.resize(machines, 0.0);
    }

    /// Folds one completed task: it finished at `finish` on `machine`,
    /// occupying it for `exec` time units.
    #[inline]
    pub fn fold(&mut self, machine: MachineId, finish: f64, exec: f64) {
        self.max_finish = self.max_finish.max(finish);
        self.finish_sum += finish;
        self.machine_busy[machine.index()] += exec;
        self.tasks += 1;
    }

    /// Restores a checkpointed fold (the scalar part plus a copy of the
    /// busy vector) — how [`crate::IncrementalEvaluator`] resumes from
    /// the nearest checkpoint instead of refolding the whole prefix.
    pub fn load(&mut self, max_finish: f64, finish_sum: f64, tasks: usize, machine_busy: &[f64]) {
        self.max_finish = max_finish;
        self.finish_sum = finish_sum;
        self.tasks = tasks;
        self.machine_busy.clear();
        self.machine_busy.extend_from_slice(machine_busy);
    }

    /// Running maximum of folded finish times.
    #[inline]
    pub fn max_finish(&self) -> f64 {
        self.max_finish
    }

    /// Running sum of folded finish times (string order).
    #[inline]
    pub fn finish_sum(&self) -> f64 {
        self.finish_sum
    }

    /// Number of tasks folded so far.
    #[inline]
    pub fn tasks(&self) -> usize {
        self.tasks
    }

    /// Busy (execution) time per machine, indexed by machine.
    #[inline]
    pub fn machine_busy(&self) -> &[f64] {
        &self.machine_busy
    }
}

/// A scalar schedule-quality measure; **lower is better**.
///
/// Implementations must be pure functions of the view — they are invoked
/// concurrently from [`crate::BatchEvaluator`] worker threads (hence the
/// `Sync` supertrait).
///
/// Objectives that can be computed from the [`ObjectiveState`]
/// accumulators alone (all five built-in kinds) additionally implement
/// [`supports_incremental`](Objective::supports_incremental) /
/// [`finalize`](Objective::finalize), which is what lets
/// [`crate::IncrementalEvaluator`] score a single-task move by replaying
/// only the suffix of the string the move disturbs.
pub trait Objective: Sync {
    /// Short stable identifier (CSV columns, CLI, reports).
    fn name(&self) -> &str;

    /// Scores one evaluated schedule.
    fn value(&self, view: &EvalView<'_>) -> f64;

    /// Whether [`finalize`](Objective::finalize) is implemented — i.e.
    /// whether this objective is a pure function of the
    /// [`ObjectiveState`] accumulators and therefore eligible for
    /// incremental suffix-replay scoring. Defaults to `false`; custom
    /// objectives that need the full timing arrays simply keep the
    /// default and every evaluator falls back to full passes.
    fn supports_incremental(&self) -> bool {
        false
    }

    /// Scores a completed accumulator fold. Only called when
    /// [`supports_incremental`](Objective::supports_incremental) is
    /// true; the default panics.
    fn finalize(&self, state: &ObjectiveState) -> f64 {
        let _ = state;
        panic!("objective {:?} does not support incremental scoring", self.name())
    }
}

/// The schedule length the paper minimizes: the latest finish time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Makespan;

impl Objective for Makespan {
    fn name(&self) -> &str {
        "makespan"
    }

    #[inline]
    fn value(&self, view: &EvalView<'_>) -> f64 {
        view.finish.iter().copied().fold(0.0, f64::max)
    }

    fn supports_incremental(&self) -> bool {
        true
    }

    #[inline]
    fn finalize(&self, state: &ObjectiveState) -> f64 {
        state.max_finish()
    }
}

/// Sum of all task finish times (total flowtime / total completion time).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TotalFlowtime;

impl Objective for TotalFlowtime {
    fn name(&self) -> &str {
        "total-flowtime"
    }

    #[inline]
    fn value(&self, view: &EvalView<'_>) -> f64 {
        view.finish.iter().sum()
    }

    fn supports_incremental(&self) -> bool {
        true
    }

    #[inline]
    fn finalize(&self, state: &ObjectiveState) -> f64 {
        state.finish_sum()
    }
}

/// Mean task finish time — total flowtime normalized by task count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MeanFlowtime;

impl Objective for MeanFlowtime {
    fn name(&self) -> &str {
        "mean-flowtime"
    }

    #[inline]
    fn value(&self, view: &EvalView<'_>) -> f64 {
        if view.finish.is_empty() {
            0.0
        } else {
            view.finish.iter().sum::<f64>() / view.finish.len() as f64
        }
    }

    fn supports_incremental(&self) -> bool {
        true
    }

    #[inline]
    fn finalize(&self, state: &ObjectiveState) -> f64 {
        if state.tasks() == 0 {
            0.0
        } else {
            state.finish_sum() / state.tasks() as f64
        }
    }
}

/// Machine load imbalance: the busiest machine's excess over the mean
/// busy time. Zero means perfectly balanced load.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadBalance;

impl Objective for LoadBalance {
    fn name(&self) -> &str {
        "load-balance"
    }

    #[inline]
    fn value(&self, view: &EvalView<'_>) -> f64 {
        if view.machine_busy.is_empty() {
            return 0.0;
        }
        let max = view.machine_busy.iter().copied().fold(0.0, f64::max);
        let mean = view.machine_busy.iter().sum::<f64>() / view.machine_busy.len() as f64;
        max - mean
    }

    fn supports_incremental(&self) -> bool {
        true
    }

    #[inline]
    fn finalize(&self, state: &ObjectiveState) -> f64 {
        // Same fold as `value`, over the accumulated busy vector — the
        // two routes are bit-identical by construction.
        if state.machine_busy().is_empty() {
            return 0.0;
        }
        let max = state.machine_busy().iter().copied().fold(0.0, f64::max);
        let mean = state.machine_busy().iter().sum::<f64>() / state.machine_busy().len() as f64;
        max - mean
    }
}

/// Weighted blend `w_mk·makespan + w_ft·mean_flowtime + w_lb·imbalance`.
///
/// Mean flowtime (not total) keeps the three components on comparable
/// scales, so unit weights are a sensible starting point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weighted {
    /// Weight on the makespan component.
    pub makespan: f64,
    /// Weight on the mean-flowtime component.
    pub flowtime: f64,
    /// Weight on the load-imbalance component.
    pub balance: f64,
}

impl Objective for Weighted {
    fn name(&self) -> &str {
        "weighted"
    }

    #[inline]
    fn value(&self, view: &EvalView<'_>) -> f64 {
        self.makespan * Makespan.value(view)
            + self.flowtime * MeanFlowtime.value(view)
            + self.balance * LoadBalance.value(view)
    }

    fn supports_incremental(&self) -> bool {
        true
    }

    #[inline]
    fn finalize(&self, state: &ObjectiveState) -> f64 {
        self.makespan * Makespan.finalize(state)
            + self.flowtime * MeanFlowtime.finalize(state)
            + self.balance * LoadBalance.finalize(state)
    }
}

/// The built-in objectives as plumbable configuration.
///
/// `Copy + PartialEq` so [`crate::RunBudget`] stays a plain value type;
/// dispatches to the unit objectives above through its own [`Objective`]
/// impl. (Not serde-derived: the run budget is never persisted; the CLI
/// round-trips through [`parse`](ObjectiveKind::parse)/
/// [`label`](ObjectiveKind::label) instead.)
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum ObjectiveKind {
    /// Minimize the schedule length (the paper's objective; the default).
    #[default]
    Makespan,
    /// Minimize the sum of task finish times.
    TotalFlowtime,
    /// Minimize the mean task finish time.
    MeanFlowtime,
    /// Minimize the machine load imbalance.
    LoadBalance,
    /// Minimize a weighted blend of the three components.
    Weighted {
        /// Weight on the makespan component.
        makespan: f64,
        /// Weight on the mean-flowtime component.
        flowtime: f64,
        /// Weight on the load-imbalance component.
        balance: f64,
    },
}

impl ObjectiveKind {
    /// Every non-parameterized kind, for sweeps and tests.
    pub const BASIC: [ObjectiveKind; 4] = [
        ObjectiveKind::Makespan,
        ObjectiveKind::TotalFlowtime,
        ObjectiveKind::MeanFlowtime,
        ObjectiveKind::LoadBalance,
    ];

    /// Parses a CLI spelling: `makespan`, `total-flowtime`,
    /// `mean-flowtime`, `load-balance`, or `weighted:MK,FT,LB` (three
    /// comma-separated weights). Returns `None` on any malformed input;
    /// the [`FromStr`](std::str::FromStr) impl reports *why* instead.
    pub fn parse(s: &str) -> Option<ObjectiveKind> {
        s.parse().ok()
    }

    /// Parses the weight list of a `weighted:MK,FT,LB` spelling with
    /// descriptive errors for each way the input can be malformed.
    fn parse_weights(weights: &str) -> Result<ObjectiveKind, String> {
        const COMPONENTS: [&str; 3] = ["makespan (MK)", "flowtime (FT)", "balance (LB)"];
        let parts: Vec<&str> = weights.split(',').collect();
        if parts.len() != 3 {
            return Err(format!(
                "weighted objective needs exactly 3 comma-separated weights (MK,FT,LB), got {} \
                 in {weights:?}",
                parts.len()
            ));
        }
        let mut w = [0.0f64; 3];
        for (i, part) in parts.iter().enumerate() {
            let trimmed = part.trim();
            if trimmed.is_empty() {
                return Err(format!("weighted objective: missing {} weight", COMPONENTS[i]));
            }
            let v: f64 = trimmed.parse().map_err(|_| {
                format!("weighted objective: {} weight {trimmed:?} is not a number", COMPONENTS[i])
            })?;
            if !v.is_finite() {
                return Err(format!(
                    "weighted objective: {} weight {trimmed:?} must be finite",
                    COMPONENTS[i]
                ));
            }
            if v < 0.0 {
                return Err(format!(
                    "weighted objective: {} weight {v} must be >= 0 (objectives are minimized; \
                     negative weights would reward worse schedules)",
                    COMPONENTS[i]
                ));
            }
            w[i] = v;
        }
        Ok(ObjectiveKind::Weighted { makespan: w[0], flowtime: w[1], balance: w[2] })
    }

    /// The CLI spelling; `parse(kind.label())` round-trips.
    pub fn label(&self) -> String {
        match *self {
            ObjectiveKind::Makespan => "makespan".to_string(),
            ObjectiveKind::TotalFlowtime => "total-flowtime".to_string(),
            ObjectiveKind::MeanFlowtime => "mean-flowtime".to_string(),
            ObjectiveKind::LoadBalance => "load-balance".to_string(),
            ObjectiveKind::Weighted { makespan, flowtime, balance } => {
                format!("weighted:{makespan},{flowtime},{balance}")
            }
        }
    }

    /// Whether this is the plain makespan objective (lets reporting
    /// paths reuse an already-known makespan instead of re-evaluating).
    #[inline]
    pub fn is_makespan(&self) -> bool {
        matches!(self, ObjectiveKind::Makespan)
    }
}

impl std::str::FromStr for ObjectiveKind {
    type Err = String;

    /// Like [`ObjectiveKind::parse`], but malformed input yields a
    /// descriptive error: unknown names list the valid spellings, and
    /// `weighted:` inputs report exactly which component is missing,
    /// non-numeric, non-finite or negative.
    fn from_str(s: &str) -> Result<ObjectiveKind, String> {
        match s {
            "makespan" => Ok(ObjectiveKind::Makespan),
            "total-flowtime" => Ok(ObjectiveKind::TotalFlowtime),
            "mean-flowtime" => Ok(ObjectiveKind::MeanFlowtime),
            "load-balance" => Ok(ObjectiveKind::LoadBalance),
            other => match other.strip_prefix("weighted:") {
                Some(weights) => ObjectiveKind::parse_weights(weights),
                None => Err(format!(
                    "unknown objective {other:?} (expected makespan, total-flowtime, \
                     mean-flowtime, load-balance or weighted:MK,FT,LB)"
                )),
            },
        }
    }
}

impl Objective for ObjectiveKind {
    fn name(&self) -> &str {
        match self {
            ObjectiveKind::Makespan => "makespan",
            ObjectiveKind::TotalFlowtime => "total-flowtime",
            ObjectiveKind::MeanFlowtime => "mean-flowtime",
            ObjectiveKind::LoadBalance => "load-balance",
            ObjectiveKind::Weighted { .. } => "weighted",
        }
    }

    #[inline]
    fn value(&self, view: &EvalView<'_>) -> f64 {
        match *self {
            ObjectiveKind::Makespan => Makespan.value(view),
            ObjectiveKind::TotalFlowtime => TotalFlowtime.value(view),
            ObjectiveKind::MeanFlowtime => MeanFlowtime.value(view),
            ObjectiveKind::LoadBalance => LoadBalance.value(view),
            ObjectiveKind::Weighted { makespan, flowtime, balance } => {
                Weighted { makespan, flowtime, balance }.value(view)
            }
        }
    }

    fn supports_incremental(&self) -> bool {
        true
    }

    #[inline]
    fn finalize(&self, state: &ObjectiveState) -> f64 {
        match *self {
            ObjectiveKind::Makespan => Makespan.finalize(state),
            ObjectiveKind::TotalFlowtime => TotalFlowtime.finalize(state),
            ObjectiveKind::MeanFlowtime => MeanFlowtime.finalize(state),
            ObjectiveKind::LoadBalance => LoadBalance.finalize(state),
            ObjectiveKind::Weighted { makespan, flowtime, balance } => {
                Weighted { makespan, flowtime, balance }.finalize(state)
            }
        }
    }
}

/// The per-objective summary attached to a [`ScheduleReport`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ObjectiveValues {
    /// Latest finish time.
    pub makespan: f64,
    /// Sum of finish times.
    pub total_flowtime: f64,
    /// Mean finish time.
    pub mean_flowtime: f64,
    /// Busiest machine's excess over mean busy time.
    pub load_imbalance: f64,
}

impl ObjectiveValues {
    /// Computes all built-in objective values from one view.
    pub fn from_view(view: &EvalView<'_>) -> ObjectiveValues {
        ObjectiveValues {
            makespan: Makespan.value(view),
            total_flowtime: TotalFlowtime.value(view),
            mean_flowtime: MeanFlowtime.value(view),
            load_imbalance: LoadBalance.value(view),
        }
    }
}

/// Scores a finished [`ScheduleReport`] under `obj` — the bridge that
/// lets the discrete-event replay (`sim.rs`) act as an oracle for every
/// objective, not just makespan.
pub fn objective_from_report(obj: &dyn Objective, report: &ScheduleReport) -> f64 {
    obj.value(&report.view())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view<'a>(start: &'a [f64], finish: &'a [f64], busy: &'a [f64]) -> EvalView<'a> {
        EvalView { start, finish, machine_busy: busy }
    }

    #[test]
    fn clone_from_reuses_the_busy_buffer() {
        let mut src = ObjectiveState::new(3);
        src.fold(MachineId::new(1), 7.0, 4.0);
        src.fold(MachineId::new(2), 9.5, 2.5);
        let mut dst = ObjectiveState::new(3);
        let busy = dst.machine_busy.as_ptr();
        dst.clone_from(&src);
        assert_eq!(dst, src);
        assert_eq!(dst.machine_busy.as_ptr(), busy, "busy buffer reused");
    }

    #[test]
    fn makespan_is_max_finish() {
        let v = view(&[0.0, 1.0], &[4.0, 9.0], &[4.0, 8.0]);
        assert_eq!(Makespan.value(&v), 9.0);
        assert_eq!(Makespan.name(), "makespan");
    }

    #[test]
    fn flowtimes() {
        let v = view(&[0.0, 0.0, 0.0], &[2.0, 4.0, 6.0], &[12.0]);
        assert_eq!(TotalFlowtime.value(&v), 12.0);
        assert_eq!(MeanFlowtime.value(&v), 4.0);
    }

    #[test]
    fn load_balance_zero_when_even() {
        let v = view(&[], &[], &[5.0, 5.0, 5.0]);
        assert_eq!(LoadBalance.value(&v), 0.0);
        let v = view(&[], &[], &[9.0, 3.0]);
        assert_eq!(LoadBalance.value(&v), 3.0);
    }

    #[test]
    fn weighted_blends_components() {
        let v = view(&[0.0, 0.0], &[2.0, 6.0], &[8.0, 0.0]);
        // makespan 6, mean flowtime 4, imbalance 4.
        let w = Weighted { makespan: 1.0, flowtime: 0.5, balance: 0.25 };
        assert_eq!(w.value(&v), 6.0 + 2.0 + 1.0);
    }

    #[test]
    fn kind_dispatch_matches_units() {
        let v = view(&[0.0, 0.0], &[3.0, 5.0], &[3.0, 5.0]);
        assert_eq!(ObjectiveKind::Makespan.value(&v), Makespan.value(&v));
        assert_eq!(ObjectiveKind::TotalFlowtime.value(&v), TotalFlowtime.value(&v));
        assert_eq!(ObjectiveKind::MeanFlowtime.value(&v), MeanFlowtime.value(&v));
        assert_eq!(ObjectiveKind::LoadBalance.value(&v), LoadBalance.value(&v));
        let k = ObjectiveKind::Weighted { makespan: 2.0, flowtime: 1.0, balance: 0.0 };
        let u = Weighted { makespan: 2.0, flowtime: 1.0, balance: 0.0 };
        assert_eq!(k.value(&v), u.value(&v));
    }

    #[test]
    fn finalize_matches_value_on_a_hand_fold() {
        // Fold three tasks on two machines and check every built-in
        // objective finalizes to the same number `value` computes from
        // the equivalent arrays.
        let mut state = ObjectiveState::new(2);
        for (m, finish, exec) in [(0u32, 4.0, 4.0), (1, 7.0, 7.0), (0, 9.0, 5.0)] {
            state.fold(MachineId::new(m), finish, exec);
        }
        assert_eq!(state.tasks(), 3);
        assert_eq!(state.max_finish(), 9.0);
        assert_eq!(state.finish_sum(), 20.0);
        assert_eq!(state.machine_busy(), &[9.0, 7.0]);
        let start = [0.0, 0.0, 4.0];
        let finish = [4.0, 7.0, 9.0];
        let busy = [9.0, 7.0];
        let v = view(&start, &finish, &busy);
        let weighted = Weighted { makespan: 1.0, flowtime: 0.5, balance: 0.25 };
        assert_eq!(Makespan.finalize(&state), Makespan.value(&v));
        assert_eq!(TotalFlowtime.finalize(&state), TotalFlowtime.value(&v));
        assert_eq!(MeanFlowtime.finalize(&state), MeanFlowtime.value(&v));
        assert_eq!(LoadBalance.finalize(&state), LoadBalance.value(&v));
        assert_eq!(weighted.finalize(&state), weighted.value(&v));
        for kind in ObjectiveKind::BASIC {
            assert!(kind.supports_incremental());
            assert_eq!(kind.finalize(&state), kind.value(&v), "{}", kind.label());
        }
    }

    #[test]
    fn state_load_restores_a_checkpoint() {
        let mut state = ObjectiveState::new(2);
        state.fold(MachineId::new(0), 3.0, 3.0);
        let (max, sum, tasks) = (state.max_finish(), state.finish_sum(), state.tasks());
        let busy = state.machine_busy().to_vec();
        state.fold(MachineId::new(1), 8.0, 5.0);
        let mut restored = ObjectiveState::default();
        restored.load(max, sum, tasks, &busy);
        state.reset(2);
        state.fold(MachineId::new(0), 3.0, 3.0);
        assert_eq!(restored, state);
        assert_eq!(MeanFlowtime.finalize(&ObjectiveState::new(3)), 0.0, "empty fold");
    }

    #[test]
    #[should_panic(expected = "does not support incremental")]
    fn finalize_default_panics() {
        struct StartSum;
        impl Objective for StartSum {
            fn name(&self) -> &str {
                "start-sum"
            }
            fn value(&self, view: &EvalView<'_>) -> f64 {
                view.start.iter().sum()
            }
        }
        assert!(!StartSum.supports_incremental());
        let _ = StartSum.finalize(&ObjectiveState::new(1));
    }

    #[test]
    fn parse_and_label_roundtrip() {
        for kind in ObjectiveKind::BASIC {
            assert_eq!(ObjectiveKind::parse(&kind.label()), Some(kind));
        }
        let w = ObjectiveKind::Weighted { makespan: 1.0, flowtime: 0.5, balance: 2.0 };
        assert_eq!(ObjectiveKind::parse(&w.label()), Some(w));
        assert_eq!(ObjectiveKind::parse("weighted:1,0.5,2"), Some(w));
        assert!(ObjectiveKind::parse("bogus").is_none());
        assert!(ObjectiveKind::parse("weighted:1,2").is_none());
        assert!(ObjectiveKind::parse("weighted:1,2,x").is_none());
        assert!(ObjectiveKind::default().is_makespan());
        assert!(!ObjectiveKind::LoadBalance.is_makespan());
    }

    #[test]
    fn from_str_errors_are_descriptive() {
        let err = |s: &str| s.parse::<ObjectiveKind>().unwrap_err();
        assert!(err("bogus").contains("unknown objective"));
        assert!(err("bogus").contains("weighted:MK,FT,LB"), "error lists valid spellings");
        // Wrong arity.
        assert!(err("weighted:1,2").contains("exactly 3"));
        assert!(err("weighted:1,2,3,4").contains("exactly 3"));
        // Missing component.
        assert!(err("weighted:1,,3").contains("missing flowtime"));
        assert!(err("weighted:").contains("exactly 3"), "empty weight list has arity 1");
        // Non-numeric component names the component and the input.
        let e = err("weighted:1,2,x");
        assert!(e.contains("balance") && e.contains("\"x\"") && e.contains("not a number"));
        // Non-finite and negative components are rejected loudly instead
        // of silently steering the search the wrong way.
        assert!(err("weighted:nan,1,1").contains("finite"));
        assert!(err("weighted:inf,1,1").contains("finite"));
        assert!(err("weighted:1,-0.5,1").contains(">= 0"));
        // Happy paths still parse, with whitespace tolerated.
        assert_eq!(
            "weighted: 1 ,0.5, 2".parse::<ObjectiveKind>(),
            Ok(ObjectiveKind::Weighted { makespan: 1.0, flowtime: 0.5, balance: 2.0 })
        );
        assert_eq!("load-balance".parse::<ObjectiveKind>(), Ok(ObjectiveKind::LoadBalance));
        // parse() is exactly from_str().ok().
        assert_eq!(ObjectiveKind::parse("weighted:1,-1,1"), None);
    }
}
