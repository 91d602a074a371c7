//! Analytic schedule evaluation.
//!
//! Because a [`Solution`] string is a linear extension of the DAG, start
//! and finish times follow from a single left-to-right pass (§4.1 makes
//! per-machine order = string order; precedence arrivals come from
//! already-finished tasks). Cost: O(k + p) per evaluation with zero
//! allocations after the first call — the evaluator owns reusable buffers
//! because the SE allocation step evaluates thousands of candidate strings
//! per iteration (§4.5).
//!
//! The evaluator walks an [`EvalSnapshot`] — a flattened copy of the
//! instance's adjacency and cost matrices — rather than the pointer-rich
//! [`HcInstance`] representation. Snapshots are shareable across threads,
//! which is how [`crate::BatchEvaluator`] runs many evaluators over one
//! instance concurrently.
//!
//! The pass folds an [`crate::ObjectiveState`] accumulator (running
//! makespan / flowtime / per-machine busy) **in string order** as tasks
//! complete, and [`Evaluator::objective_value`] scores that fold; a
//! report carries the same fold's makespan, flowtime and busy times.
//! [`crate::IncrementalEvaluator`] replays exactly the same fold from a
//! checkpoint, which is what makes its move scores bit-identical to a
//! full pass here.

use crate::encoding::Solution;
use crate::objective::{
    objective_from_report, Objective, ObjectiveKind, ObjectiveState, ObjectiveValues,
};
use crate::snapshot::EvalSnapshot;
use mshc_platform::HcInstance;
use mshc_taskgraph::TaskId;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// Start/finish times and objective values of one evaluated solution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleReport {
    /// Start time of each task, indexed by task.
    pub start: Vec<f64>,
    /// Finish time of each task, indexed by task. The paper's `C_i`
    /// (actual cost of individual `e_i`, §4.3) is exactly `finish[i]`.
    pub finish: Vec<f64>,
    /// Busy (execution) time per machine, indexed by machine.
    pub machine_busy: Vec<f64>,
    /// Latest finish time — the schedule length the paper minimizes.
    pub makespan: f64,
    /// Sum of all task finish times (total flowtime), added in string
    /// order — the fold's sum, which every objective scores.
    pub total_flowtime: f64,
    /// Certified instance lower bound on the makespan, stamped by
    /// [`attach_certificate`](Self::attach_certificate) (`None` until
    /// then — the evaluator scores one schedule and does not know the
    /// instance-wide floor).
    #[serde(default)]
    pub lower_bound: Option<f64>,
    /// Certified optimality gap `makespan / lower_bound` (≥ 1 by
    /// construction), stamped alongside [`lower_bound`](Self::lower_bound).
    #[serde(default)]
    pub gap: Option<f64>,
}

impl ScheduleReport {
    /// Assembles a report from raw per-task times plus the solution's
    /// machine assignment (used by the discrete-event replay, whose
    /// simulation loop produces only `start`/`finish`).
    ///
    /// `machine_busy` is always sized by the solution's **declared**
    /// machine count, not the highest machine actually used: machines
    /// that sit idle for the whole schedule appear as explicit `0.0`
    /// entries, so per-machine consumers (load-balance objectives, Gantt
    /// lanes) index without drift. Unvalidated solutions whose segments
    /// reference machines beyond the declared count grow the vector
    /// instead of panicking.
    pub fn from_times(start: Vec<f64>, finish: Vec<f64>, solution: &Solution) -> ScheduleReport {
        debug_assert_eq!(start.len(), solution.len(), "start times / solution length mismatch");
        debug_assert_eq!(finish.len(), solution.len(), "finish times / solution length mismatch");
        let mut machine_busy = vec![0.0; solution.machine_count()];
        let mut total_flowtime = 0.0;
        for seg in solution.segments() {
            let i = seg.task.index();
            let m = seg.machine.index();
            if m >= machine_busy.len() {
                machine_busy.resize(m + 1, 0.0);
            }
            machine_busy[m] += finish[i] - start[i];
            total_flowtime += finish[i];
        }
        let makespan = finish.iter().copied().fold(0.0, f64::max);
        ScheduleReport {
            start,
            finish,
            machine_busy,
            makespan,
            total_flowtime,
            lower_bound: None,
            gap: None,
        }
    }

    /// Stamps the certified instance floor and this schedule's
    /// optimality gap onto the report (see [`crate::InstanceBound`]).
    /// The gap is `None` exactly when the floor cannot certify the
    /// makespan (non-finite makespan — a validated instance always has
    /// a positive floor).
    pub fn attach_certificate(&mut self, inst: &HcInstance) {
        let bound = crate::InstanceBound::compute(inst);
        self.lower_bound = Some(bound.floor());
        self.gap = bound.gap(self.makespan);
    }

    /// Finish time of `t` (the paper's `C_i`).
    #[inline]
    pub fn finish_of(&self, t: TaskId) -> f64 {
        self.finish[t.index()]
    }

    /// Start time of `t`.
    #[inline]
    pub fn start_of(&self, t: TaskId) -> f64 {
        self.start[t.index()]
    }

    /// All built-in objective values of this schedule, by
    /// [`crate::objective_from_report`].
    pub fn objectives(&self) -> ObjectiveValues {
        let value = |kind| objective_from_report(&kind, self);
        ObjectiveValues {
            makespan: value(ObjectiveKind::Makespan),
            total_flowtime: value(ObjectiveKind::TotalFlowtime),
            mean_flowtime: value(ObjectiveKind::MeanFlowtime),
            load_imbalance: value(ObjectiveKind::LoadBalance),
        }
    }
}

/// Reusable schedule evaluator for one instance.
///
/// ```
/// use mshc_platform::{HcInstance, HcSystem, Matrix, MachineId};
/// use mshc_schedule::{Evaluator, Solution, Segment};
/// use mshc_taskgraph::{TaskGraphBuilder, TaskId};
///
/// let mut b = TaskGraphBuilder::new(2);
/// b.add_edge(0, 1).unwrap();
/// let g = b.build().unwrap();
/// let sys = HcSystem::with_anonymous_machines(
///     2,
///     Matrix::from_rows(&[vec![3.0, 4.0], vec![5.0, 2.0]]),
///     Matrix::from_rows(&[vec![6.0]]),
/// ).unwrap();
/// let inst = HcInstance::new(g, sys).unwrap();
/// let mut eval = Evaluator::new(&inst);
///
/// // Both on m0: 3 + 4 = 7, no communication.
/// let s = Solution::from_order(
///     inst.graph(), 2,
///     &[TaskId::new(0), TaskId::new(1)],
///     &[MachineId::new(0), MachineId::new(0)],
/// ).unwrap();
/// assert_eq!(eval.makespan(&s), 7.0);
///
/// // Split: 3 + 6 (transfer) + 2 = 11.
/// let s = Solution::from_order(
///     inst.graph(), 2,
///     &[TaskId::new(0), TaskId::new(1)],
///     &[MachineId::new(0), MachineId::new(1)],
/// ).unwrap();
/// assert_eq!(eval.makespan(&s), 11.0);
/// ```
#[derive(Debug)]
pub struct Evaluator<'a> {
    /// Owned when built straight from an instance; borrowed when many
    /// evaluators share one snapshot (the batch path).
    snap: Cow<'a, EvalSnapshot>,
    // Scratch buffers, reused across evaluations.
    finish: Vec<f64>,
    start: Vec<f64>,
    machine_avail: Vec<f64>,
    /// Machine of each task already walked by the current pass.
    machine: Vec<u32>,
    /// Objective accumulators folded during the pass, in string order
    /// (also carries the per-machine busy times a report copies).
    state: ObjectiveState,
    /// Full passes performed.
    evaluations: u64,
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator for one instance, flattening it into an owned
    /// [`EvalSnapshot`].
    pub fn new(inst: &HcInstance) -> Evaluator<'static> {
        Evaluator::from_snap(Cow::Owned(EvalSnapshot::new(inst)))
    }

    /// Creates an evaluator borrowing a shared snapshot — the cheap
    /// constructor worker threads use.
    pub fn with_snapshot(snap: &'a EvalSnapshot) -> Evaluator<'a> {
        Evaluator::from_snap(Cow::Borrowed(snap))
    }

    fn from_snap(snap: Cow<'a, EvalSnapshot>) -> Evaluator<'a> {
        let k = snap.task_count();
        let l = snap.machine_count();
        Evaluator {
            snap,
            finish: vec![0.0; k],
            start: vec![0.0; k],
            machine_avail: vec![0.0; l],
            machine: vec![0; k],
            state: ObjectiveState::new(l),
            evaluations: 0,
        }
    }

    /// The snapshot this evaluator walks.
    #[inline]
    pub fn snapshot(&self) -> &EvalSnapshot {
        &self.snap
    }

    /// Full passes this evaluator has run, one per
    /// [`makespan`](Self::makespan), [`objective_value`](Self::objective_value)
    /// or report call (see [`crate::ScanStats`] for which passes a run
    /// counts).
    #[inline]
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// Evaluates `solution`, returning only the makespan (hot path).
    ///
    /// # Panics
    /// Debug-asserts that the solution matches the instance dimensions.
    pub fn makespan(&mut self, solution: &Solution) -> f64 {
        self.pass(solution);
        self.state.max_finish()
    }

    /// Evaluates `solution` and scores it under `obj` (lower is better).
    /// For [`crate::ObjectiveKind::Makespan`] this equals
    /// [`makespan`](Self::makespan) exactly.
    ///
    /// The score is finalized from the string-order fold, so it is
    /// bit-identical to what [`crate::IncrementalEvaluator`] computes for
    /// the same solution via suffix replay.
    pub fn objective_value(&mut self, solution: &Solution, obj: &dyn Objective) -> f64 {
        self.pass(solution);
        obj.finalize(&self.state)
    }

    /// Evaluates `solution`, returning the full per-task report.
    ///
    /// Allocates three fresh vectors per call; call sites that rebuild a
    /// report every iteration (the SE main loop feeding selection and
    /// traces, leaderboard refreshes) should hold one report and use
    /// [`report_into`](Self::report_into) instead.
    pub fn report(&mut self, solution: &Solution) -> ScheduleReport {
        let mut out = ScheduleReport {
            start: Vec::new(),
            finish: Vec::new(),
            machine_busy: Vec::new(),
            makespan: 0.0,
            total_flowtime: 0.0,
            lower_bound: None,
            gap: None,
        };
        self.report_into(solution, &mut out);
        out
    }

    /// Like [`report`](Self::report), but reuses `out`'s buffers —
    /// steady-state reporting performs no allocations. `out`'s previous
    /// contents are fully overwritten.
    pub fn report_into(&mut self, solution: &Solution, out: &mut ScheduleReport) {
        self.pass(solution);
        out.start.clear();
        out.start.extend_from_slice(&self.start);
        out.finish.clear();
        out.finish.extend_from_slice(&self.finish);
        out.machine_busy.clear();
        out.machine_busy.extend_from_slice(self.state.machine_busy());
        out.makespan = self.state.max_finish();
        out.total_flowtime = self.state.finish_sum();
        // A refreshed report describes a new schedule; any previously
        // stamped certificate no longer applies.
        out.lower_bound = None;
        out.gap = None;
    }

    /// The single left-to-right pass computing start/finish times into the
    /// scratch buffers and folding the objective accumulators in string
    /// order.
    ///
    /// Each task's machine is recorded in a task-indexed array as the
    /// walk places it, and producers' machines are read back from there:
    /// the string is a linear extension, so every producer has been
    /// placed before any consumer reads it.
    fn pass(&mut self, solution: &Solution) {
        let snap = self.snap.as_ref();
        debug_assert_eq!(solution.len(), snap.task_count(), "solution/instance mismatch");
        debug_assert_eq!(
            solution.machine_count(),
            snap.machine_count(),
            "solution/instance machine mismatch"
        );
        self.machine_avail.fill(0.0);
        self.state.reset(self.machine_avail.len());
        self.evaluations += 1;
        crate::faults::eval_tick();
        for seg in solution.segments() {
            let t = seg.task;
            let m = seg.machine;
            let exec = snap.exec_time(m, t);
            let rows = snap.pair_rows(m);
            let (start, finish) = snap.schedule_step(
                t,
                m,
                exec,
                |e, src| snap.edge_transfer(e, rows[self.machine[src] as usize]),
                &self.finish,
                &self.machine_avail,
            );
            self.start[t.index()] = start;
            self.finish[t.index()] = finish;
            self.machine[t.index()] = m.raw();
            self.machine_avail[m.index()] = finish;
            self.state.fold(m, finish, exec);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::Segment;
    use mshc_platform::{HcSystem, MachineId, Matrix};
    use mshc_taskgraph::{TaskGraph, TaskGraphBuilder};

    fn seg(t: u32, m: u32) -> Segment {
        Segment { task: TaskId::new(t), machine: MachineId::new(m) }
    }

    /// Figure-1-style instance: 7 tasks, 6 data items, 2 machines, with
    /// matrices chosen by us (the paper's are OCR-garbled — see DESIGN.md).
    fn figure1_instance() -> HcInstance {
        let mut b = TaskGraphBuilder::new(7);
        for (s, d) in [(0, 2), (0, 3), (1, 4), (2, 5), (3, 5), (4, 6)] {
            b.add_edge(s, d).unwrap();
        }
        let g = b.build().unwrap();
        let exec = Matrix::from_rows(&[
            vec![400.0, 700.0, 500.0, 300.0, 800.0, 600.0, 200.0],
            vec![600.0, 500.0, 400.0, 900.0, 435.0, 450.0, 350.0],
        ]);
        let transfer = Matrix::from_rows(&[vec![120.0, 80.0, 200.0, 60.0, 90.0, 150.0]]);
        let sys = HcSystem::with_anonymous_machines(2, exec, transfer).unwrap();
        HcInstance::new(g, sys).unwrap()
    }

    fn figure2_solution(g: &TaskGraph) -> Solution {
        Solution::new(
            g,
            2,
            vec![seg(0, 0), seg(1, 1), seg(2, 1), seg(3, 0), seg(4, 0), seg(5, 1), seg(6, 1)],
        )
        .unwrap()
    }

    #[test]
    fn hand_computed_times() {
        let inst = figure1_instance();
        let mut eval = Evaluator::new(&inst);
        let s = figure2_solution(inst.graph());
        let r = eval.report(&s);
        // m0 order: s0 s3 s4; m1 order: s1 s2 s5 s6.
        // s0 on m0: [0, 400]
        assert_eq!(r.start_of(TaskId::new(0)), 0.0);
        assert_eq!(r.finish_of(TaskId::new(0)), 400.0);
        // s1 on m1: [0, 500]
        assert_eq!(r.finish_of(TaskId::new(1)), 500.0);
        // s2 on m1 needs d0 from s0@m0: arrives 400+120=520; m1 free at 500
        // => start 520, finish 920.
        assert_eq!(r.start_of(TaskId::new(2)), 520.0);
        assert_eq!(r.finish_of(TaskId::new(2)), 920.0);
        // s3 on m0 needs d1 from s0@m0 (co-located, 0): start at max(400, 400)
        // => finish 700.
        assert_eq!(r.finish_of(TaskId::new(3)), 700.0);
        // s4 on m0 needs d2 from s1@m1: arrives 500+200=700; m0 free at 700
        // => start 700, finish 1500.
        assert_eq!(r.start_of(TaskId::new(4)), 700.0);
        assert_eq!(r.finish_of(TaskId::new(4)), 1500.0);
        // s5 on m1 needs d3 from s2@m1 (920) and d4 from s3@m0 (700+90=790);
        // m1 free at 920 => start 920, finish 1370.
        assert_eq!(r.finish_of(TaskId::new(5)), 1370.0);
        // s6 on m1 needs d5 from s4@m0: arrives 1500+150=1650; m1 free 1370
        // => finish 1650+350=2000.
        assert_eq!(r.finish_of(TaskId::new(6)), 2000.0);
        assert_eq!(r.makespan, 2000.0);
        let mk = eval.makespan(&s);
        assert_eq!(mk, 2000.0);
        assert_eq!(eval.evaluations(), 2);
    }

    #[test]
    fn makespan_is_max_finish() {
        let inst = figure1_instance();
        let mut eval = Evaluator::new(&inst);
        let s = figure2_solution(inst.graph());
        let r = eval.report(&s);
        let max = r.finish.iter().copied().fold(0.0, f64::max);
        assert_eq!(r.makespan, max);
    }

    #[test]
    fn report_objective_values_are_consistent() {
        let inst = figure1_instance();
        let mut eval = Evaluator::new(&inst);
        let s = figure2_solution(inst.graph());
        let r = eval.report(&s);
        // Busy time per machine = sum of exec times of its tasks.
        // m0: 400 + 300 + 800 = 1500; m1: 500 + 400 + 450 + 350 = 1700.
        assert_eq!(r.machine_busy, vec![1500.0, 1700.0]);
        assert_eq!(r.total_flowtime, 400.0 + 500.0 + 920.0 + 700.0 + 1500.0 + 1370.0 + 2000.0);
        let o = r.objectives();
        assert_eq!(o.makespan, r.makespan);
        assert_eq!(o.total_flowtime, r.total_flowtime);
        assert_eq!(o.mean_flowtime, r.total_flowtime / 7.0);
        assert_eq!(o.load_imbalance, 1700.0 - 1600.0);
        // from_times reconstructs the same aggregates from raw arrays.
        let rebuilt = ScheduleReport::from_times(r.start.clone(), r.finish.clone(), &s);
        assert_eq!(rebuilt.makespan, r.makespan);
        assert_eq!(rebuilt.total_flowtime, r.total_flowtime);
        for (a, b) in rebuilt.machine_busy.iter().zip(&r.machine_busy) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn objective_value_matches_makespan_for_makespan_objective() {
        use crate::objective::ObjectiveKind;
        let inst = figure1_instance();
        let mut eval = Evaluator::new(&inst);
        let s = figure2_solution(inst.graph());
        let mk = eval.makespan(&s);
        assert_eq!(eval.objective_value(&s, &ObjectiveKind::Makespan), mk);
        assert_eq!(eval.evaluations(), 2, "objective passes count as evaluations");
    }

    #[test]
    fn shared_snapshot_evaluator_matches_owned() {
        let inst = figure1_instance();
        let snap = EvalSnapshot::new(&inst);
        let s = figure2_solution(inst.graph());
        let owned = Evaluator::new(&inst).makespan(&s);
        let borrowed = Evaluator::with_snapshot(&snap).makespan(&s);
        assert_eq!(owned, borrowed);
        assert_eq!(Evaluator::new(&inst).snapshot(), &snap);
    }

    #[test]
    fn single_machine_serializes_everything() {
        let inst = figure1_instance();
        let g = inst.graph();
        // All on m0: makespan = sum of m0 execution times (no comms, no idle
        // gaps because the string is a linear extension).
        let order: Vec<TaskId> = (0..7).map(TaskId::new).collect();
        let s = Solution::from_order(g, 2, &order, &[MachineId::new(0); 7]).unwrap();
        let mut eval = Evaluator::new(&inst);
        let total: f64 =
            (0..7).map(|t| inst.system().exec_time(MachineId::new(0), TaskId::new(t))).sum();
        assert_eq!(eval.makespan(&s), total);
    }

    #[test]
    fn independent_tasks_run_in_parallel() {
        let g = TaskGraphBuilder::new(2).build().unwrap();
        let sys = HcSystem::with_anonymous_machines(
            2,
            Matrix::from_rows(&[vec![10.0, 10.0], vec![10.0, 10.0]]),
            Matrix::filled(1, 0, 0.0),
        )
        .unwrap();
        let inst = HcInstance::new(g, sys).unwrap();
        let s = Solution::new(inst.graph(), 2, vec![seg(0, 0), seg(1, 1)]).unwrap();
        let mut eval = Evaluator::new(&inst);
        assert_eq!(eval.makespan(&s), 10.0, "parallel");
        let s = Solution::new(inst.graph(), 2, vec![seg(0, 0), seg(1, 0)]).unwrap();
        assert_eq!(eval.makespan(&s), 20.0, "serialized");
    }

    #[test]
    fn string_order_affects_makespan() {
        // Two independent tasks a (long) and b (short) plus a consumer of b.
        // Putting a before b on the shared machine delays the consumer.
        let mut b = TaskGraphBuilder::new(3);
        b.add_edge(1, 2).unwrap(); // b -> c
        let g = b.build().unwrap();
        let sys = HcSystem::with_anonymous_machines(
            2,
            Matrix::from_rows(&[vec![100.0, 10.0, 10.0], vec![100.0, 10.0, 10.0]]),
            Matrix::from_rows(&[vec![0.0]]),
        )
        .unwrap();
        let inst = HcInstance::new(g, sys).unwrap();
        let mut eval = Evaluator::new(&inst);
        // a then b on m0, c on m1: c starts at 110 => 120. makespan 120.
        let s1 = Solution::new(inst.graph(), 2, vec![seg(0, 0), seg(1, 0), seg(2, 1)]).unwrap();
        // b then a on m0: b finishes 10, c on m1 finishes 20, a finishes 110.
        let s2 = Solution::new(inst.graph(), 2, vec![seg(1, 0), seg(0, 0), seg(2, 1)]).unwrap();
        assert_eq!(eval.makespan(&s1), 120.0);
        assert_eq!(eval.makespan(&s2), 110.0);
    }

    #[test]
    fn evaluations_counter_increments() {
        let inst = figure1_instance();
        let mut eval = Evaluator::new(&inst);
        let s = figure2_solution(inst.graph());
        for _ in 0..5 {
            eval.makespan(&s);
        }
        assert_eq!(eval.evaluations(), 5);
    }

    #[test]
    fn from_times_covers_idle_machines() {
        // Regression: a solution dimensioned for more machines than it
        // actually uses must still produce a busy vector with one entry
        // per declared machine — idle machines as explicit zeros, no
        // index drift for per-machine consumers.
        let inst = figure1_instance();
        let g = inst.graph();
        let order: Vec<TaskId> = (0..7).map(TaskId::new).collect();
        // Dimension for 5 machines but run everything on machine 1.
        let s = Solution::from_order(g, 5, &order, &[MachineId::new(1); 7]).unwrap();
        let start: Vec<f64> = (0..7).map(|i| i as f64 * 10.0).collect();
        let finish: Vec<f64> = start.iter().map(|s| s + 10.0).collect();
        let r = ScheduleReport::from_times(start, finish, &s);
        assert_eq!(r.machine_busy.len(), 5, "one busy entry per declared machine");
        assert_eq!(r.machine_busy[1], 70.0);
        for m in [0usize, 2, 3, 4] {
            assert_eq!(r.machine_busy[m], 0.0, "idle machine {m} must read 0.0");
        }
        // Load balance over the report sees the idle machines.
        assert_eq!(r.objectives().load_imbalance, 70.0 - 70.0 / 5.0);
        // An unvalidated string referencing a machine beyond the declared
        // count grows the vector instead of panicking.
        let rogue = Solution::new_unchecked(
            2,
            vec![seg(0, 0), seg(1, 3), seg(2, 0), seg(3, 0), seg(4, 0), seg(5, 0), seg(6, 0)],
        );
        let start: Vec<f64> = vec![0.0; 7];
        let finish: Vec<f64> = vec![2.0; 7];
        let r = ScheduleReport::from_times(start, finish, &rogue);
        assert_eq!(r.machine_busy.len(), 4);
        assert_eq!(r.machine_busy[3], 2.0);
    }

    #[test]
    fn attach_certificate_stamps_floor_and_gap() {
        let inst = figure1_instance();
        let mut eval = Evaluator::new(&inst);
        let s = figure2_solution(inst.graph());
        let mut r = eval.report(&s);
        assert_eq!(r.lower_bound, None, "reports start uncertified");
        r.attach_certificate(&inst);
        // floor = max(CP over min execs = 1250, ceil(2685 / 2) = 1343).
        assert_eq!(r.lower_bound, Some(1343.0));
        assert_eq!(r.gap, Some(2000.0 / 1343.0));
        // A refreshed report describes a new schedule: the stale
        // certificate must not survive the rewrite.
        eval.report_into(&s, &mut r);
        assert_eq!(r.lower_bound, None);
        assert_eq!(r.gap, None);
    }

    #[test]
    fn report_times_are_consistent() {
        let inst = figure1_instance();
        let mut eval = Evaluator::new(&inst);
        let s = figure2_solution(inst.graph());
        let r = eval.report(&s);
        let sys = inst.system();
        for t in inst.graph().tasks() {
            let m = s.machine_of(t);
            assert!(
                (r.finish_of(t) - r.start_of(t) - sys.exec_time(m, t)).abs() < 1e-9,
                "finish - start == exec time for {t}"
            );
        }
    }
}
