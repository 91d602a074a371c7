//! HEFT and CPOP (Topcuoglu, Hariri & Wu — the paper's reference \[5\]).

use crate::builder::ListScheduleBuilder;
use mshc_platform::{HcInstance, MachineId};
use mshc_schedule::{RunBudget, RunResult, Scheduler};
use mshc_taskgraph::{TaskId, TopoOrder};
use mshc_trace::Trace;
use std::time::Instant;

/// Upward rank of every task: `rank_u(t) = w̄(t) + max over succ s of
/// (c̄(t,s) + rank_u(s))`, with mean execution times as task weights and
/// mean transfer times as edge weights.
pub fn upward_ranks(inst: &HcInstance) -> Vec<f64> {
    let g = inst.graph();
    let sys = inst.system();
    let order = TopoOrder::kahn(g);
    let mut rank = vec![0.0f64; g.task_count()];
    for &t in order.as_slice().iter().rev() {
        let mut tail = 0.0f64;
        for e in g.out_edges(t) {
            tail = tail.max(sys.mean_transfer_time(e.id) + rank[e.dst.index()]);
        }
        rank[t.index()] = sys.mean_exec_time(t) + tail;
    }
    rank
}

/// Downward rank: `rank_d(t) = max over pred p of (rank_d(p) + w̄(p) +
/// c̄(p,t))`; used by CPOP (`rank_u + rank_d` is constant along a
/// critical path).
pub fn downward_ranks(inst: &HcInstance) -> Vec<f64> {
    let g = inst.graph();
    let sys = inst.system();
    let order = TopoOrder::kahn(g);
    let mut rank = vec![0.0f64; g.task_count()];
    for &t in order.as_slice() {
        let mut best = 0.0f64;
        for e in g.in_edges(t) {
            best = best.max(
                rank[e.src.index()] + sys.mean_exec_time(e.src) + sys.mean_transfer_time(e.id),
            );
        }
        rank[t.index()] = best;
    }
    rank
}

/// *Heterogeneous Earliest Finish Time*: schedule tasks by decreasing
/// upward rank, each on the machine minimizing its earliest finish time.
///
/// Two placement policies:
///
/// * **append** (default) — a task goes to the end of the chosen
///   machine's current order. Matches the shared evaluation model
///   bit-for-bit (see the crate docs).
/// * **insertion** ([`HeftScheduler::with_insertion`]) — the original
///   Topcuoglu et al. policy: a task may claim an idle gap between two
///   already-placed tasks if it fits. The resulting per-machine orders
///   are exported as a solution string by sorting tasks on start time
///   (strictly positive execution times make that a linear extension),
///   and the reported makespan is the shared evaluator's, which can only
///   be ≤ the internal insertion times.
#[derive(Debug, Clone, Default)]
pub struct HeftScheduler {
    insertion: bool,
}

impl HeftScheduler {
    /// Creates the append-policy scheduler.
    pub fn new() -> HeftScheduler {
        HeftScheduler { insertion: false }
    }

    /// Creates the insertion-policy scheduler (classic HEFT).
    pub fn with_insertion() -> HeftScheduler {
        HeftScheduler { insertion: true }
    }

    /// Tasks in scheduling priority order (decreasing upward rank, ties
    /// by id) — a linear extension because `rank_u` strictly decreases
    /// along every edge.
    fn priority_order(inst: &HcInstance) -> Vec<TaskId> {
        let ranks = upward_ranks(inst);
        let mut order: Vec<TaskId> = inst.graph().tasks().collect();
        order.sort_by(|&a, &b| {
            ranks[b.index()].total_cmp(&ranks[a.index()]).then(a.raw().cmp(&b.raw()))
        });
        order
    }

    fn run_append(&self, inst: &HcInstance) -> (mshc_schedule::Solution, f64, u64) {
        let mut b = ListScheduleBuilder::new(inst);
        let mut evaluations = 0u64;
        for t in Self::priority_order(inst) {
            let (m, _) = b.best_eft(t);
            evaluations += inst.machine_count() as u64;
            b.schedule(t, m);
        }
        let makespan = b.makespan();
        (b.into_solution(), makespan, evaluations)
    }

    fn run_insertion(&self, inst: &HcInstance) -> (mshc_schedule::Solution, f64, u64) {
        let g = inst.graph();
        let sys = inst.system();
        let k = g.task_count();
        // Per machine: placed (start, finish, task), kept sorted by start.
        let mut lanes: Vec<Vec<(f64, f64, TaskId)>> = vec![Vec::new(); inst.machine_count()];
        let mut finish = vec![0.0f64; k];
        let mut assignment = vec![MachineId::new(0); k];
        let mut evaluations = 0u64;
        for t in Self::priority_order(inst) {
            let mut best: Option<(f64, f64, MachineId)> = None; // (finish, start, machine)
            for m in sys.machine_ids() {
                evaluations += 1;
                // Latest data arrival on m.
                let mut ready = 0.0f64;
                for e in g.in_edges(t) {
                    let arr = finish[e.src.index()]
                        + sys.transfer_time(e.id, assignment[e.src.index()], m);
                    ready = ready.max(arr);
                }
                let exec = sys.exec_time(m, t);
                // Earliest slot of length `exec` at or after `ready`:
                // consider the gap before each placed task and the tail.
                let lane = &lanes[m.index()];
                let mut est = ready;
                let mut placed = false;
                let mut prev_end = 0.0f64;
                for &(s, f, _) in lane {
                    let gap_start = prev_end.max(ready);
                    if gap_start + exec <= s {
                        est = gap_start;
                        placed = true;
                        break;
                    }
                    prev_end = f;
                }
                if !placed {
                    est = prev_end.max(ready);
                }
                let eft = est + exec;
                let better = match best {
                    None => true,
                    Some((bf, _, bm)) => eft < bf - 1e-12 || ((eft - bf).abs() <= 1e-12 && m < bm),
                };
                if better {
                    best = Some((eft, est, m));
                }
            }
            let (eft, est, m) = best.expect("at least one machine");
            finish[t.index()] = eft;
            assignment[t.index()] = m;
            let lane = &mut lanes[m.index()];
            let pos = lane.partition_point(|&(s, _, _)| s < est);
            lane.insert(pos, (est, eft, t));
        }
        // Export: global order by (start, id) — a linear extension because
        // every predecessor *finishes* before its successor starts and
        // execution times are strictly positive.
        let mut order: Vec<TaskId> = g.tasks().collect();
        let start_of = |t: TaskId| finish[t.index()] - sys.exec_time(assignment[t.index()], t);
        order.sort_by(|&a, &b| start_of(a).total_cmp(&start_of(b)).then(a.raw().cmp(&b.raw())));
        let solution =
            mshc_schedule::Solution::from_order(g, inst.machine_count(), &order, &assignment)
                .expect("start-time order is a linear extension");
        let makespan = mshc_schedule::Evaluator::new(inst).makespan(&solution);
        evaluations += 1;
        debug_assert!(
            makespan <= finish.iter().copied().fold(0.0, f64::max) + 1e-9,
            "shared evaluation can only tighten insertion times"
        );
        (solution, makespan, evaluations)
    }
}

impl Scheduler for HeftScheduler {
    fn name(&self) -> &str {
        if self.insertion {
            "heft-ins"
        } else {
            "heft"
        }
    }

    fn run(
        &mut self,
        inst: &HcInstance,
        budget: &RunBudget,
        _trace: Option<&mut Trace>,
    ) -> RunResult {
        let start = Instant::now();
        let (solution, makespan, evaluations) =
            if self.insertion { self.run_insertion(inst) } else { self.run_append(inst) };
        // The insertion policy's export pass is its one full pass.
        let full_passes = u64::from(self.insertion);
        RunResult::one_shot(inst, budget, solution, makespan, evaluations, full_passes, start)
    }
}

/// *Critical Path on a Processor*: tasks on the (mean-cost) critical path
/// are pinned to the single machine minimizing the path's total execution
/// time; the rest are scheduled by priority (`rank_u + rank_d`) with EFT.
#[derive(Debug, Clone, Default)]
pub struct CpopScheduler;

impl CpopScheduler {
    /// Creates the scheduler.
    pub fn new() -> CpopScheduler {
        CpopScheduler
    }
}

impl Scheduler for CpopScheduler {
    fn name(&self) -> &str {
        "cpop"
    }

    fn run(
        &mut self,
        inst: &HcInstance,
        budget: &RunBudget,
        _trace: Option<&mut Trace>,
    ) -> RunResult {
        let start = Instant::now();
        let g = inst.graph();
        let sys = inst.system();
        let up = upward_ranks(inst);
        let down = downward_ranks(inst);
        let k = g.task_count();
        let priority: Vec<f64> = (0..k).map(|i| up[i] + down[i]).collect();
        // Critical path: tasks whose priority equals the maximum entry
        // priority (within epsilon).
        let cp_len = g.entry_tasks().iter().map(|t| priority[t.index()]).fold(0.0f64, f64::max);
        let on_cp: Vec<bool> =
            (0..k).map(|i| (priority[i] - cp_len).abs() < 1e-9 * cp_len.max(1.0)).collect();
        // Pin CP tasks to the machine minimizing their total execution.
        let cp_machine: MachineId = sys
            .machine_ids()
            .min_by(|&a, &b| {
                let ca: f64 = (0..k)
                    .filter(|&i| on_cp[i])
                    .map(|i| sys.exec_time(a, TaskId::from_usize(i)))
                    .sum();
                let cb: f64 = (0..k)
                    .filter(|&i| on_cp[i])
                    .map(|i| sys.exec_time(b, TaskId::from_usize(i)))
                    .sum();
                ca.total_cmp(&cb).then(a.cmp(&b))
            })
            .expect("machines");

        let mut builder = ListScheduleBuilder::new(inst);
        let mut evaluations = 0u64;
        while !builder.is_complete() {
            // Highest-priority ready task.
            let t = builder
                .ready_tasks()
                .into_iter()
                .max_by(|&a, &b| {
                    priority[a.index()].total_cmp(&priority[b.index()]).then(b.raw().cmp(&a.raw()))
                })
                .expect("ready set non-empty");
            let m = if on_cp[t.index()] {
                cp_machine
            } else {
                evaluations += inst.machine_count() as u64;
                builder.best_eft(t).0
            };
            builder.schedule(t, m);
        }
        let makespan = builder.makespan();
        let solution = builder.into_solution();
        RunResult::one_shot(inst, budget, solution, makespan, evaluations.max(1), 0, start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mshc_platform::{HcSystem, Matrix};
    use mshc_schedule::{replay, Evaluator};
    use mshc_taskgraph::TaskGraphBuilder;

    fn instance() -> HcInstance {
        let mut b = TaskGraphBuilder::new(6);
        for (s, d) in [(0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 5)] {
            b.add_edge(s, d).unwrap();
        }
        let g = b.build().unwrap();
        let exec = Matrix::from_rows(&[
            vec![6.0, 3.0, 9.0, 4.0, 8.0, 5.0],
            vec![4.0, 7.0, 2.0, 6.0, 3.0, 7.0],
            vec![8.0, 5.0, 5.0, 3.0, 6.0, 4.0],
        ]);
        let transfer = Matrix::from_fn(3, 6, |r, c| 1.0 + (r + c) as f64 % 3.0);
        let sys = HcSystem::with_anonymous_machines(3, exec, transfer).unwrap();
        HcInstance::new(g, sys).unwrap()
    }

    #[test]
    fn upward_ranks_decrease_along_edges() {
        let inst = instance();
        let r = upward_ranks(&inst);
        for e in inst.graph().edges() {
            assert!(
                r[e.src.index()] > r[e.dst.index()],
                "rank({}) must exceed rank({})",
                e.src,
                e.dst
            );
        }
    }

    #[test]
    fn downward_ranks_increase_along_edges() {
        let inst = instance();
        let r = downward_ranks(&inst);
        for e in inst.graph().edges() {
            assert!(r[e.src.index()] < r[e.dst.index()]);
        }
        for t in inst.graph().entry_tasks() {
            assert_eq!(r[t.index()], 0.0);
        }
    }

    #[test]
    fn heft_valid_and_consistent() {
        let inst = instance();
        let r = HeftScheduler::new().run(&inst, &RunBudget::default(), None);
        r.solution.check(inst.graph()).unwrap();
        let mk = Evaluator::new(&inst).makespan(&r.solution);
        assert!((mk - r.makespan).abs() < 1e-9);
        let sim = replay(&inst, &r.solution).unwrap();
        assert!((sim.makespan - r.makespan).abs() < 1e-9);
    }

    #[test]
    fn cpop_valid_and_consistent() {
        let inst = instance();
        let r = CpopScheduler::new().run(&inst, &RunBudget::default(), None);
        r.solution.check(inst.graph()).unwrap();
        let mk = Evaluator::new(&inst).makespan(&r.solution);
        assert!((mk - r.makespan).abs() < 1e-9);
    }

    #[test]
    fn cpop_pins_critical_path_to_one_machine() {
        let inst = instance();
        let up = upward_ranks(&inst);
        let down = downward_ranks(&inst);
        let prio: Vec<f64> = (0..6).map(|i| up[i] + down[i]).collect();
        let cp_len = prio.iter().copied().fold(0.0, f64::max);
        let r = CpopScheduler::new().run(&inst, &RunBudget::default(), None);
        let cp_tasks: Vec<TaskId> = inst
            .graph()
            .tasks()
            .filter(|t| (prio[t.index()] - cp_len).abs() < 1e-9 * cp_len)
            .collect();
        assert!(cp_tasks.len() >= 2, "a chain graph has a multi-task CP");
        let m0 = r.solution.machine_of(cp_tasks[0]);
        for &t in &cp_tasks {
            assert_eq!(r.solution.machine_of(t), m0, "CP task {t} off the pinned machine");
        }
    }

    #[test]
    fn insertion_heft_valid_and_no_worse_than_append() {
        let inst = instance();
        let append = HeftScheduler::new().run(&inst, &RunBudget::default(), None);
        let ins = HeftScheduler::with_insertion().run(&inst, &RunBudget::default(), None);
        ins.solution.check(inst.graph()).unwrap();
        let mk = Evaluator::new(&inst).makespan(&ins.solution);
        assert!((mk - ins.makespan).abs() < 1e-9);
        let sim = replay(&inst, &ins.solution).unwrap();
        assert!((sim.makespan - ins.makespan).abs() < 1e-9);
        // Insertion has strictly more placement freedom; on any single
        // instance it is not guaranteed better, but must stay sane.
        assert!(ins.makespan <= append.makespan * 1.5);
        assert_eq!(HeftScheduler::with_insertion().name(), "heft-ins");
    }

    #[test]
    fn insertion_heft_uses_gaps() {
        // Machine m0 is fast for everything; the wide fork forces long
        // idle gaps that insertion should exploit. Build: source -> a, b;
        // a is long, b is short; c depends on b only. Append schedules in
        // rank order; insertion may slot c into m0's gap.
        use mshc_taskgraph::TaskGraphBuilder;
        let mut bld = TaskGraphBuilder::new(4);
        bld.add_edge(0, 1).unwrap(); // src -> long
        bld.add_edge(0, 2).unwrap(); // src -> short
        bld.add_edge(2, 3).unwrap(); // short -> dependent
        let g = bld.build().unwrap();
        let exec = Matrix::from_rows(&[vec![1.0, 50.0, 1.0, 1.0], vec![2.0, 60.0, 2.0, 2.0]]);
        let transfer = Matrix::from_rows(&[vec![100.0, 100.0, 100.0]]);
        let sys = HcSystem::with_anonymous_machines(2, exec, transfer).unwrap();
        let inst = HcInstance::new(g, sys).unwrap();
        let r = HeftScheduler::with_insertion().run(&inst, &RunBudget::default(), None);
        r.solution.check(inst.graph()).unwrap();
        // Everything lands on m0 (comm is prohibitive), and the short
        // chain must not wait for the 50-unit task: makespan stays 53
        // (1 + 50 + serialized 1+1 inside the window).
        assert!(r.makespan <= 53.0 + 1e-9, "got {}", r.makespan);
    }

    #[test]
    fn heft_beats_worst_single_machine() {
        let inst = instance();
        let r = HeftScheduler::new().run(&inst, &RunBudget::default(), None);
        let worst_serial: f64 = inst
            .system()
            .machine_ids()
            .map(|m| inst.graph().tasks().map(|t| inst.system().exec_time(m, t)).sum::<f64>())
            .fold(0.0, f64::max);
        assert!(r.makespan < worst_serial);
    }

    #[test]
    fn names() {
        assert_eq!(HeftScheduler::new().name(), "heft");
        assert_eq!(CpopScheduler::new().name(), "cpop");
    }
}
