//! Pluggable scoring objectives over an evaluated schedule.
//!
//! The paper minimizes the schedule length (makespan) only. Production
//! scheduling cares about more: mean job turnaround (flowtime), how
//! evenly the machine suite is loaded, and blends of all three. An
//! [`Objective`] maps the fold one evaluation builds — an
//! [`ObjectiveState`] that adds each finished task in string order — to
//! one scalar where **lower is always better**, so every search
//! algorithm in the suite (SE, GA, SA, tabu, random) optimizes any
//! objective through the same argmin machinery.
//!
//! This module is the only place that decides how a schedule is scored.
//! Every evaluator (a full pass, a suffix replay, a cell lane) builds
//! the same fold and hands it to [`Objective::finalize`];
//! [`objective_from_report`] applies the same formulas to a
//! [`ScheduleReport`], which is how the discrete-event replay serves as
//! an independent oracle.
//!
//! [`ObjectiveKind`] is the plumbing-friendly, `Copy` enumeration of the
//! built-in objectives; it is what [`crate::RunBudget`] carries from the
//! CLI down into every scheduler.

use crate::eval::ScheduleReport;
use crate::snapshot::later;
use mshc_platform::MachineId;
use serde::{Deserialize, Serialize};

/// The fold every objective scores.
///
/// One completed task is folded at a time, in **string order** — the
/// order the single left-to-right evaluator pass completes tasks in. The
/// state is everything the built-in objectives need: the running
/// finish-time maximum (makespan), the running finish-time sum
/// (flowtime), the folded task count, and the per-machine busy times
/// (load balance).
///
/// The scalar [`crate::Evaluator`]'s full pass, the checkpoint-resumed
/// suffix replay of [`crate::IncrementalEvaluator`] and each of its
/// cell lanes fold tasks in the same order over the same values, so
/// [`Objective::finalize`] produces **bit-identical** scores on every
/// route (the maximum is the kernel's one compare-select, order-free
/// over its positive times; the sums fold identical values in identical
/// order).
///
/// A scoring kernel folds the latest finish and the task count always,
/// and the finish-time sum and the busy times only when the objective
/// [reads](Objective::reads) them; a component it skips keeps whatever
/// the state last held. Reports and primes fold everything.
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
    /// occupying it for `exec` time units. The running maximum becomes
    /// the scheduling kernel's `later(max, finish)`, which equals
    /// `max.max(finish)` bit for bit on the kernel's times.
    #[inline]
    pub fn fold(&mut self, machine: MachineId, finish: f64, exec: f64) {
        self.fold_reads::<true, true>(machine, finish, exec);
    }

    /// [`fold`](Self::fold) of the components a kernel specialized by
    /// [`specialize!`] folds: the latest finish and the task count, plus
    /// the finish-time sum if `SUM` and the busy time if `BUSY`.
    #[inline(always)]
    pub(crate) fn fold_reads<const SUM: bool, const BUSY: bool>(
        &mut self,
        machine: MachineId,
        finish: f64,
        exec: f64,
    ) {
        self.max_finish = later(self.max_finish, finish);
        if SUM {
            self.finish_sum += finish;
        }
        if BUSY {
            self.machine_busy[machine.index()] += exec;
        }
        self.tasks += 1;
    }

    /// Restores a checkpointed fold (the scalar part plus a copy of the
    /// busy vector) — how [`crate::IncrementalEvaluator`] resumes from
    /// the nearest checkpoint instead of refolding the whole prefix.
    pub fn load(&mut self, max_finish: f64, finish_sum: f64, tasks: usize, machine_busy: &[f64]) {
        self.load_reads::<true, true>(max_finish, finish_sum, tasks, machine_busy);
    }

    /// [`load`](Self::load) of the components a specialized kernel
    /// folds; the others keep their values.
    #[inline(always)]
    pub(crate) fn load_reads<const SUM: bool, const BUSY: bool>(
        &mut self,
        max_finish: f64,
        finish_sum: f64,
        tasks: usize,
        machine_busy: &[f64],
    ) {
        self.max_finish = max_finish;
        self.tasks = tasks;
        if SUM {
            self.finish_sum = finish_sum;
        }
        if BUSY {
            self.machine_busy.clear();
            self.machine_busy.extend_from_slice(machine_busy);
        }
    }

    /// Running maximum of folded finish times, taken in fold order by
    /// the kernel's compare-select `later` (`0.0` before any fold).
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

/// The fold components an [`Objective::finalize`] reads beyond the
/// latest finish and the task count, which every kernel folds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FoldReads {
    /// The string-order finish-time sum.
    pub finish_sum: bool,
    /// The per-machine busy times.
    pub machine_busy: bool,
}

impl FoldReads {
    /// Both components: what an objective that declares nothing reads.
    pub const ALL: FoldReads = FoldReads { finish_sum: true, machine_busy: true };
}

/// A scalar schedule-quality measure; **lower is better**.
///
/// Implementations must be pure functions of the fold — they are
/// invoked concurrently from [`crate::BatchEvaluator`] worker threads
/// (hence the `Sync` supertrait).
pub trait Objective: Sync {
    /// Scores a completed fold.
    fn finalize(&self, state: &ObjectiveState) -> f64;

    /// The fold components [`finalize`](Self::finalize) reads. Every
    /// scoring kernel (the tier-1 pass behind
    /// [`crate::Evaluator::objective_value`], tier 3's
    /// [`score_move`](crate::IncrementalEvaluator::score_move) and
    /// [`score_cells`](crate::IncrementalEvaluator::score_cells)) folds
    /// only these, so `finalize` must not depend on a component left
    /// out: it sees a stale value there.
    ///
    /// The latest finish, the task count and each machine's busy time
    /// depend only on the task sequence each machine runs, never on how
    /// the string interleaves machines. So two strings with the same
    /// per-machine sequences differ at most in the finish-time sum, and
    /// [`crate::BatchEvaluator::best_relocation`] replays one candidate
    /// per run of such strings. Only under an objective that reads the
    /// sum does it re-add each other candidate's sum from the replayed
    /// finish times. [`FoldReads::ALL`], the default, is always safe.
    fn reads(&self) -> FoldReads {
        FoldReads::ALL
    }

    /// Whether the score never falls when a task joins the schedule:
    /// `finalize` never decreases (under `total_cmp`) when one more task
    /// is folded and no folded finish time falls.
    ///
    /// The scheduling kernel steps with `later` and `+` over validated
    /// non-negative costs, both monotone under round-to-nearest, so
    /// inserting a task into a string can only delay the others. Under an
    /// objective that declares this, no relocation of a task `t` scores
    /// below the string without `t`, and, unless the objective
    /// [reads](Self::reads) the finish-time sum,
    /// [`crate::BatchEvaluator::best_relocation`] stops its walk at the
    /// first minimum that meets that floor. `false`, the default, is
    /// always safe: it keeps the walk over every replayed cell.
    fn never_falls_on_insertion(&self) -> bool {
        false
    }
}

/// Evaluates `$body` with the consts `$sum` and `$busy` bound to the
/// flags of the [`FoldReads`] `$reads`, in one of four arms: a kernel
/// generic over both flags is compiled once per component set and
/// chosen once per call.
macro_rules! specialize {
    ($reads:expr, |$sum:ident, $busy:ident| $body:expr) => {{
        let reads: $crate::objective::FoldReads = $reads;
        match (reads.finish_sum, reads.machine_busy) {
            (false, false) => {
                const $sum: bool = false;
                const $busy: bool = false;
                $body
            }
            (true, false) => {
                const $sum: bool = true;
                const $busy: bool = false;
                $body
            }
            (false, true) => {
                const $sum: bool = false;
                const $busy: bool = true;
                $body
            }
            (true, true) => {
                const $sum: bool = true;
                const $busy: bool = true;
                $body
            }
        }
    }};
}
pub(crate) use specialize;

/// The built-in objectives as plumbable configuration.
///
/// `Copy + PartialEq` so [`crate::RunBudget`] stays a plain value type;
/// its [`Objective`] impl holds the five formulas. (Not serde-derived:
/// the run budget is never persisted; the CLI round-trips through
/// [`parse`](ObjectiveKind::parse)/[`label`](ObjectiveKind::label)
/// instead.)
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum ObjectiveKind {
    /// Minimize the schedule length (the paper's objective; the default).
    #[default]
    Makespan,
    /// Minimize the sum of task finish times (total completion time).
    TotalFlowtime,
    /// Minimize the mean task finish time (total flowtime over the task
    /// count).
    MeanFlowtime,
    /// Minimize the machine load imbalance: the busiest machine's excess
    /// over the mean busy time (zero means perfectly balanced).
    LoadBalance,
    /// Minimize a weighted blend `w_mk·makespan + w_ft·mean_flowtime +
    /// w_lb·imbalance`. Mean flowtime (not total) keeps the three
    /// components on comparable scales, so unit weights are a sensible
    /// starting point.
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

    /// The five formulas, over the fold's components: the latest finish,
    /// the finish-time sum, the task count and the busy time per machine.
    ///
    /// A weighted blend leaves out a term whose weight is zero, so it
    /// never reads that term's component. On a finite fold the term
    /// would be a zero, and the partial sum it would join is
    /// nonnegative, so leaving it out keeps every bit. (Only when the
    /// component has overflowed to `+inf` does it show: `0 × inf` made
    /// the blend NaN, and now the blend scores its other terms.)
    fn score(&self, max_finish: f64, finish_sum: f64, tasks: usize, machine_busy: &[f64]) -> f64 {
        let mean_flowtime = || if tasks == 0 { 0.0 } else { finish_sum / tasks as f64 };
        let imbalance = || {
            if machine_busy.is_empty() {
                return 0.0;
            }
            let max = machine_busy.iter().copied().fold(0.0, f64::max);
            max - machine_busy.iter().sum::<f64>() / machine_busy.len() as f64
        };
        fn term(weight: f64, component: impl FnOnce() -> f64) -> f64 {
            if weight == 0.0 {
                0.0
            } else {
                weight * component()
            }
        }
        match *self {
            ObjectiveKind::Makespan => max_finish,
            ObjectiveKind::TotalFlowtime => finish_sum,
            ObjectiveKind::MeanFlowtime => mean_flowtime(),
            ObjectiveKind::LoadBalance => imbalance(),
            ObjectiveKind::Weighted { makespan, flowtime, balance } => {
                term(makespan, || max_finish)
                    + term(flowtime, mean_flowtime)
                    + term(balance, imbalance)
            }
        }
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
    #[inline]
    fn finalize(&self, state: &ObjectiveState) -> f64 {
        self.score(state.max_finish(), state.finish_sum(), state.tasks(), state.machine_busy())
    }

    /// Makespan reads neither component, total and mean flowtime the
    /// sum, load balance the busy times, and a weighted blend the
    /// components of its nonzero weights.
    fn reads(&self) -> FoldReads {
        let (finish_sum, machine_busy) = match *self {
            ObjectiveKind::Makespan => (false, false),
            ObjectiveKind::TotalFlowtime | ObjectiveKind::MeanFlowtime => (true, false),
            ObjectiveKind::LoadBalance => (false, true),
            ObjectiveKind::Weighted { flowtime, balance, .. } => (flowtime != 0.0, balance != 0.0),
        };
        FoldReads { finish_sum, machine_busy }
    }

    /// Makespan, and a weighted blend that reads the makespan alone at a
    /// finite weight of at least 0: a nonnegative multiple of the latest
    /// finish, which a joining task never lowers. (An infinite weight
    /// would score an empty fold `inf × 0`, NaN.) The mean flowtime can
    /// fall, since it divides by one more task, and so can the imbalance.
    /// The total flowtime cannot, but the joining task adds its own
    /// finish to the sum, so no cell would meet the floor and the walk
    /// would only pay for the floor lane.
    fn never_falls_on_insertion(&self) -> bool {
        match *self {
            ObjectiveKind::Makespan => true,
            ObjectiveKind::Weighted { makespan, flowtime, balance } => {
                flowtime == 0.0 && balance == 0.0 && makespan.is_finite() && makespan >= 0.0
            }
            _ => false,
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

/// Scores a finished [`ScheduleReport`] under `kind` with the formulas
/// [`Objective::finalize`] applies to a fold, read from the report's
/// makespan, total flowtime, task count and busy vector. An evaluator's
/// report holds its own fold, so this equals
/// [`crate::Evaluator::objective_value`] bit for bit; over the
/// discrete-event replay's report (`sim.rs`), whose times come from its
/// own event simulation, it is an independent oracle for every
/// objective.
pub fn objective_from_report(kind: &ObjectiveKind, report: &ScheduleReport) -> f64 {
    kind.score(report.makespan, report.total_flowtime, report.finish.len(), &report.machine_busy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::{Segment, Solution};
    use mshc_taskgraph::TaskId;

    /// Three tasks on two machines, in string order: latest finish 9,
    /// finish sum 20, busy times 9 and 7 (mean 8).
    const TASKS: [(u32, f64, f64); 3] = [(0, 4.0, 4.0), (1, 7.0, 7.0), (0, 9.0, 5.0)];

    fn hand_fold() -> ObjectiveState {
        let mut state = ObjectiveState::new(2);
        for (m, finish, exec) in TASKS {
            state.fold(MachineId::new(m), finish, exec);
        }
        state
    }

    /// Every built-in kind, plus blends that leave out the flowtime
    /// term, the makespan and balance terms, and nothing.
    fn kinds() -> [ObjectiveKind; 7] {
        let [a, b, c, d] = ObjectiveKind::BASIC;
        let w =
            |makespan, flowtime, balance| ObjectiveKind::Weighted { makespan, flowtime, balance };
        [a, b, c, d, w(1.0, 0.0, 1.0), w(0.0, 1.0, 0.0), w(1.0, 0.5, 0.25)]
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
    fn every_kind_scores_a_hand_built_fold() {
        let state = hand_fold();
        assert_eq!((state.tasks(), state.max_finish(), state.finish_sum()), (3, 9.0, 20.0));
        assert_eq!(state.machine_busy(), &[9.0, 7.0]);
        let mean = 20.0 / 3.0;
        let want = [9.0, 20.0, mean, 1.0, 9.0 + 1.0, mean, 9.0 + 0.5 * mean + 0.25 * 1.0];
        for (kind, want) in kinds().into_iter().zip(want) {
            assert_eq!(kind.finalize(&state), want, "{}", kind.label());
            assert_eq!(kind.finalize(&ObjectiveState::new(0)), 0.0, "{}: empty fold", kind.label());
        }
        let mut even = ObjectiveState::new(3);
        for m in 0..3 {
            even.fold(MachineId::new(m), 5.0, 5.0);
        }
        assert_eq!(ObjectiveKind::LoadBalance.finalize(&even), 0.0, "even load");
    }

    #[test]
    fn finalize_reads_exactly_the_declared_components() {
        let reads = |finish_sum, machine_busy| FoldReads { finish_sum, machine_busy };
        let declared = [
            reads(false, false),
            reads(true, false),
            reads(true, false),
            reads(false, true),
            reads(false, true),
            reads(true, false),
            reads(true, true),
        ];
        assert_eq!(kinds().map(|kind| kind.reads()), declared);
        let state = hand_fold();
        let (max, sum, tasks) = (state.max_finish(), state.finish_sum(), state.tasks());
        let busy = state.machine_busy().to_vec();
        let fold = |sum: f64, busy: &[f64]| {
            let mut other = ObjectiveState::default();
            other.load(max, sum, tasks, busy);
            other
        };
        for kind in kinds() {
            let (label, reads) = (kind.label(), kind.reads());
            let want = kind.finalize(&state).to_bits();
            for v in [1234.5, f64::INFINITY, f64::NAN] {
                let other_sum = kind.finalize(&fold(v, &busy)).to_bits();
                let other_busy = kind.finalize(&fold(sum, &[v, v])).to_bits();
                assert!(reads.finish_sum || other_sum == want, "{label}: sum {v}");
                assert!(reads.machine_busy || other_busy == want, "{label}: busy {v}");
            }
            // A declared component is read: NaN there makes the score NaN.
            assert_eq!(kind.finalize(&fold(f64::NAN, &busy)).is_nan(), reads.finish_sum, "{label}");
            let nan_busy = kind.finalize(&fold(sum, &[f64::NAN; 2])).is_nan();
            assert_eq!(nan_busy, reads.machine_busy, "{label}");
        }
    }

    #[test]
    fn declared_floors_never_fall_when_a_task_joins() {
        use rand::{Rng, SeedableRng};
        let w = |makespan| ObjectiveKind::Weighted { makespan, flowtime: 0.0, balance: 0.0 };
        let floors = [true, false, false, false, false, false, false];
        assert_eq!(kinds().map(|kind| kind.never_falls_on_insertion()), floors);
        for (makespan, floor) in [(1.0, true), (0.0, true), (-1.0, false), (f64::INFINITY, false)] {
            assert_eq!(w(makespan).never_falls_on_insertion(), floor, "{makespan}");
        }
        // A fold, and the same fold with every finish delayed by a
        // nonnegative amount and one more task joined anywhere.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(26);
        let declared = [ObjectiveKind::Makespan, w(1.0), w(0.0), w(2.5)];
        for round in 0..2000 {
            let tasks: Vec<(u32, f64, f64)> = (0..rng.gen_range(0..12))
                .map(|_| (rng.gen_range(0..3), rng.gen_range(1.0..1e3), rng.gen_range(1.0..50.0)))
                .collect();
            let joined = rng.gen_range(0..=tasks.len());
            let (mut without, mut with) = (ObjectiveState::new(3), ObjectiveState::new(3));
            for (i, &(m, finish, exec)) in tasks.iter().enumerate() {
                if i == joined {
                    with.fold(MachineId::new(rng.gen_range(0..3)), rng.gen_range(1.0..1e3), 5.0);
                }
                without.fold(MachineId::new(m), finish, exec);
                let delay = if rng.gen_bool(0.5) { 0.0 } else { rng.gen_range(0.0..10.0) };
                with.fold(MachineId::new(m), finish + delay, exec);
            }
            if joined == tasks.len() {
                with.fold(MachineId::new(0), rng.gen_range(1.0..1e3), 5.0);
            }
            for kind in &declared {
                let (floor, cell) = (kind.finalize(&without), kind.finalize(&with));
                assert!(floor.total_cmp(&cell).is_le(), "round {round}: {}", kind.label());
            }
        }
    }

    #[test]
    fn leaving_out_zero_weight_terms_keeps_every_bit() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(25);
        let weights = [0.0, 0.25, 1.0, 3.5];
        for round in 0..4000 {
            let machines = rng.gen_range(1..6usize);
            let tasks = rng.gen_range(0..60usize);
            // Idle machines, equal loads (whose mean can round above
            // their maximum) and spread loads.
            let level = rng.gen_range(0.0..1e4);
            let busy: Vec<f64> = (0..machines)
                .map(|_| match rng.gen_range(0..3) {
                    0 => 0.0,
                    1 => level,
                    _ => rng.gen_range(0.0..1e4),
                })
                .collect();
            let (max, sum) = if tasks == 0 {
                (0.0, 0.0)
            } else {
                (rng.gen_range(1.0..1e4), rng.gen_range(1.0..1e6))
            };
            let mut state = ObjectiveState::default();
            state.load(max, sum, tasks, &busy);
            let [mk, ft, lb] = [(); 3].map(|_| weights[rng.gen_range(0..weights.len())]);
            let kind = ObjectiveKind::Weighted { makespan: mk, flowtime: ft, balance: lb };
            // The blend with every term, zero-weight ones included.
            let mean = if tasks == 0 { 0.0 } else { sum / tasks as f64 };
            let top = busy.iter().copied().fold(0.0, f64::max);
            let imbalance = top - busy.iter().sum::<f64>() / machines as f64;
            let every_term = mk * max + ft * mean + lb * imbalance;
            let got = kind.finalize(&state);
            assert_eq!(got.to_bits(), every_term.to_bits(), "round {round}: {}", kind.label());
        }
    }

    #[test]
    fn report_scores_equal_the_fold() {
        // The replay's shape: times by task, busy time from the string.
        let solution = Solution::new_unchecked(
            2,
            TASKS
                .iter()
                .enumerate()
                .map(|(t, &(m, ..))| Segment {
                    task: TaskId::from_usize(t),
                    machine: MachineId::new(m),
                })
                .collect(),
        );
        let finish: Vec<f64> = TASKS.iter().map(|&(_, finish, _)| finish).collect();
        let start: Vec<f64> = TASKS.iter().map(|&(_, finish, exec)| finish - exec).collect();
        let report = ScheduleReport::from_times(start, finish, &solution);
        let state = hand_fold();
        for kind in kinds() {
            let got = objective_from_report(&kind, &report);
            assert_eq!(got.to_bits(), kind.finalize(&state).to_bits(), "{}", kind.label());
        }
        let values = report.objectives();
        assert_eq!(values.makespan, 9.0);
        assert_eq!(values.total_flowtime, 20.0);
        assert_eq!(values.mean_flowtime, 20.0 / 3.0);
        assert_eq!(values.load_imbalance, 1.0);
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
