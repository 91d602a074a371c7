//! Machine-dropout replanning: freeze the committed prefix of a running
//! schedule at a disturbance, rebuild the residual problem on the
//! surviving machines, re-prime the incremental machinery from the
//! disturbed frontier, and re-run a search on what is left.
//!
//! ## The disturbance model
//!
//! A [`Disturbance`] hits the virtual timeline of an executing schedule
//! at time *t* (schedule time, not wall clock):
//!
//! * **machine failure** — the machine vanishes; every unfinished task
//!   must be replanned onto the survivors;
//! * **machine slowdown** — the machine's execution times scale by
//!   `factor` for all remaining work;
//! * **task duration inflation** — every remaining task's execution
//!   time scales by `factor` (a global misestimation correction).
//!
//! ## Checkpoint/restart semantics
//!
//! The committed prefix is the set of tasks whose *finish* time is at
//! or before *t*: their outputs are treated as persisted and globally
//! available, so dropped edges from committed producers cost nothing in
//! the residual problem. Tasks started but unfinished at *t* are
//! aborted and rescheduled from scratch (partial work is lost), and
//! every survivor machine is free at *t*. Because a task's
//! predecessors all finish before it starts, the committed set is
//! automatically closed under precedence — the residual task set is a
//! well-formed sub-DAG.
//!
//! The disturbed makespan therefore composes additively: `t` plus the
//! residual schedule's makespan, and the certified floor composes the
//! same way (`t` plus the residual instance's
//! [`InstanceBound`](crate::InstanceBound) floor), so every replanned
//! run still reports a certificate gap `>= 1`.
//!
//! ## Re-priming from the disturbed frontier
//!
//! The *carryover* solution keeps the residual tasks in the original
//! string order (a linear extension of the original DAG restricted to a
//! sub-DAG is still a linear extension) with their original machine
//! assignments, remapping tasks stranded on a failed machine to their
//! best surviving machine. [`Replanner::apply`] primes an
//! [`IncrementalEvaluator`] with it — the PR 3/5/8 prefix-checkpoint
//! machinery, now primed from the disturbed frontier — scores it
//! exactly, injects it as the search's starting incumbent, and lets the
//! search improve from there. The search can only return something at
//! least as good as the carryover.
//!
//! Everything here is deterministic: no RNG is consumed outside the
//! search's own seeded stream, and no wall-clock value flows into any
//! returned or serialized field, so a replanned run is byte-identical
//! at any thread count (the `mshc replan` determinism gate).

use crate::encoding::{Segment, Solution};
use crate::error::ScheduleError;
use crate::eval::Evaluator;
use crate::incremental::IncrementalEvaluator;
use crate::runner::{certified_gap, RunBudget};
use crate::steppable::SteppableSearch;
use mshc_platform::{pair::pair_from_index, pair_count, HcInstance, HcSystem, MachineId, Matrix};
use mshc_taskgraph::{TaskGraphBuilder, TaskId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// What kind of disturbance hit the platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DisturbanceKind {
    /// The machine vanishes at time `t`; unfinished work is replanned
    /// onto the survivors. `factor` is ignored.
    MachineFailure,
    /// The machine's execution times scale by `factor` from `t` on.
    MachineSlowdown,
    /// Every remaining task's execution time scales by `factor`.
    /// `machine` is ignored.
    TaskInflation,
}

impl DisturbanceKind {
    /// Stable lowercase identifier for reports and the CLI.
    pub fn as_str(&self) -> &'static str {
        match self {
            DisturbanceKind::MachineFailure => "machine-failure",
            DisturbanceKind::MachineSlowdown => "machine-slowdown",
            DisturbanceKind::TaskInflation => "task-inflation",
        }
    }
}

impl fmt::Display for DisturbanceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

fn default_factor() -> f64 {
    1.0
}

/// One disturbance event on the virtual timeline. A flat struct (like
/// the workload `Scenario`) so it serializes through the vendored serde
/// shim; `machine` always names an **original** machine id, even for
/// disturbances applied after earlier failures shrank the platform.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Disturbance {
    /// What happened.
    pub kind: DisturbanceKind,
    /// Absolute virtual (schedule) time of the event; must be strictly
    /// after any earlier disturbance's time.
    pub time: f64,
    /// The affected machine (original id); ignored for
    /// [`TaskInflation`](DisturbanceKind::TaskInflation).
    #[serde(default)]
    pub machine: u32,
    /// Slowdown/inflation multiplier (> 0, finite); ignored for
    /// [`MachineFailure`](DisturbanceKind::MachineFailure).
    #[serde(default = "default_factor")]
    pub factor: f64,
}

/// Why a disturbance could not be applied. Unlike budget/deadline
/// degradation (which is graceful), these are caller errors: a
/// malformed disturbance has no meaningful recovery.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplanError {
    /// The disturbance time is not a finite number.
    InvalidTime {
        /// The offending time.
        time: f64,
    },
    /// The disturbance is at or before the previous replan's time —
    /// traces must be strictly ascending.
    OutOfOrder {
        /// The offending time.
        time: f64,
        /// The time of the previous disturbance.
        base: f64,
    },
    /// A slowdown/inflation factor that is not finite and positive.
    InvalidFactor {
        /// The offending factor.
        factor: f64,
    },
    /// The disturbance names a machine the original platform never had.
    MachineOutOfRange {
        /// The offending machine id.
        machine: u32,
        /// Machines in the original platform.
        machine_count: usize,
    },
    /// The disturbance names a machine that already failed earlier in
    /// the trace.
    MachineAlreadyFailed {
        /// The machine (original id).
        machine: u32,
    },
    /// Failing this machine would leave no survivors to replan onto.
    NoSurvivors {
        /// The machine whose failure was rejected (original id).
        machine: u32,
    },
    /// The replan budget failed [`RunBudget::validate`].
    Budget(ScheduleError),
}

impl fmt::Display for ReplanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplanError::InvalidTime { time } => {
                write!(f, "disturbance time {time} must be finite")
            }
            ReplanError::OutOfOrder { time, base } => write!(
                f,
                "disturbance at time {time} is not after the previous replan at {base}: \
                 traces must be strictly ascending in time"
            ),
            ReplanError::InvalidFactor { factor } => {
                write!(f, "disturbance factor {factor} must be finite and positive")
            }
            ReplanError::MachineOutOfRange { machine, machine_count } => {
                write!(f, "machine {machine} out of range (platform has {machine_count})")
            }
            ReplanError::MachineAlreadyFailed { machine } => {
                write!(f, "machine {machine} already failed earlier in the trace")
            }
            ReplanError::NoSurvivors { machine } => {
                write!(f, "failing machine {machine} would leave no survivors to replan onto")
            }
            ReplanError::Budget(e) => write!(f, "replan budget invalid: {e}"),
        }
    }
}

impl std::error::Error for ReplanError {}

/// The deterministic record of one applied disturbance. All fields are
/// schedule-time or count valued — no wall-clock data — so serialized
/// records are byte-identical at any thread count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DisturbanceRecord {
    /// The disturbance kind.
    pub kind: DisturbanceKind,
    /// Absolute virtual time of the event.
    pub time: f64,
    /// Affected machine (original id; 0 for task inflation).
    pub machine: u32,
    /// Slowdown/inflation factor (1.0 for failures).
    pub factor: f64,
    /// Tasks frozen (finished at or before the event).
    pub committed: u64,
    /// Tasks replanned (0 means the schedule had already finished and
    /// no replan ran).
    pub residual: u64,
    /// Machines available to the residual problem.
    pub survivors: u64,
    /// The carryover (frontier) solution's residual objective value.
    pub carryover_cost: f64,
    /// The best residual objective value after the replan search.
    pub replanned_cost: f64,
    /// Absolute disturbed makespan: `time` + the residual makespan.
    pub makespan: f64,
    /// Absolute certified floor: `time` + the residual instance floor
    /// (makespan objective only).
    pub lower_bound: Option<f64>,
    /// `makespan / lower_bound` (`>= 1` by the certificate contract).
    pub gap: Option<f64>,
    /// Evaluations the replan search performed.
    pub evaluations: u64,
    /// Iterations the replan search performed.
    pub iterations: u64,
    /// The replan search's [`Termination`](crate::Termination) label.
    pub termination: String,
}

/// The deterministic end-to-end report of a disturbed run — the payload
/// of `mshc replan` and the artifact the determinism gate byte-compares
/// across thread counts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplanReport {
    /// The undisturbed baseline schedule's makespan.
    pub baseline_makespan: f64,
    /// One record per disturbance, in application order.
    pub records: Vec<DisturbanceRecord>,
    /// Disturbances that actually triggered a replan pass.
    pub replans: u64,
    /// Final absolute makespan after all disturbances.
    pub final_makespan: f64,
    /// Final absolute certified floor (from the last replan), if any.
    pub lower_bound: Option<f64>,
    /// `final_makespan / lower_bound`.
    pub gap: Option<f64>,
    /// Total evaluations across all replan searches.
    pub evaluations: u64,
}

impl ReplanReport {
    /// Serializes to the `mshc replan` JSON wire format.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("replan report serialization is infallible")
    }

    /// Parses the `mshc replan` JSON wire format.
    pub fn from_json(s: &str) -> Result<ReplanReport, serde_json::Error> {
        serde_json::from_str(s)
    }
}

/// Replanning driver: owns the evolving (instance, solution, time)
/// state of a disturbed run and applies disturbances one at a time.
pub struct Replanner<'a> {
    orig: &'a HcInstance,
    /// The current residual instance after earlier replans (`None`
    /// while still on the original).
    cur: Option<HcInstance>,
    cur_sol: Solution,
    base_time: f64,
    /// Current machine index → original machine id.
    machine_map: Vec<MachineId>,
    baseline_makespan: f64,
    records: Vec<DisturbanceRecord>,
    replans: u64,
    evaluations: u64,
}

impl<'a> Replanner<'a> {
    /// Starts a disturbed run from a baseline schedule on `inst`.
    pub fn new(inst: &'a HcInstance, baseline: Solution) -> Replanner<'a> {
        let baseline_makespan = Evaluator::new(inst).makespan(&baseline);
        Replanner {
            orig: inst,
            cur: None,
            cur_sol: baseline,
            base_time: 0.0,
            machine_map: (0..inst.machine_count()).map(MachineId::from_usize).collect(),
            baseline_makespan,
            records: Vec::new(),
            replans: 0,
            evaluations: 0,
        }
    }

    fn current(&self) -> &HcInstance {
        self.cur.as_ref().unwrap_or(self.orig)
    }

    /// The best-known schedule for the *current* residual problem (the
    /// baseline before any disturbance applies).
    pub fn current_solution(&self) -> &Solution {
        &self.cur_sol
    }

    /// Applies one disturbance: freezes the committed prefix at the
    /// event time, rebuilds the residual problem on the survivors,
    /// primes the incremental evaluator with the carryover frontier,
    /// runs `search` on the residual under `budget` (carryover injected
    /// as the starting incumbent), and advances the run state. Returns
    /// the deterministic record of what happened.
    pub fn apply(
        &mut self,
        d: &Disturbance,
        search: &mut dyn SteppableSearch,
        budget: &RunBudget,
    ) -> Result<DisturbanceRecord, ReplanError> {
        budget.validate().map_err(ReplanError::Budget)?;
        if !d.time.is_finite() {
            return Err(ReplanError::InvalidTime { time: d.time });
        }
        if d.time <= self.base_time {
            return Err(ReplanError::OutOfOrder { time: d.time, base: self.base_time });
        }
        let t_rel = d.time - self.base_time;
        if matches!(d.kind, DisturbanceKind::MachineSlowdown | DisturbanceKind::TaskInflation)
            && !(d.factor.is_finite() && d.factor > 0.0)
        {
            return Err(ReplanError::InvalidFactor { factor: d.factor });
        }
        // Map the (original-id) target machine into current coordinates.
        let target = match d.kind {
            DisturbanceKind::TaskInflation => None,
            _ => {
                if d.machine as usize >= self.orig.machine_count() {
                    return Err(ReplanError::MachineOutOfRange {
                        machine: d.machine,
                        machine_count: self.orig.machine_count(),
                    });
                }
                let cur = self
                    .machine_map
                    .iter()
                    .position(|m| m.index() == d.machine as usize)
                    .ok_or(ReplanError::MachineAlreadyFailed { machine: d.machine })?;
                Some(cur)
            }
        };

        // Freeze: committed = finished at or before the event.
        let inst = self.current();
        let report = Evaluator::new(inst).report(&self.cur_sol);
        let residual_order: Vec<Segment> = self
            .cur_sol
            .segments()
            .iter()
            .copied()
            .filter(|seg| report.finish_of(seg.task) > t_rel)
            .collect();
        let committed = (inst.task_count() - residual_order.len()) as u64;

        if residual_order.is_empty() {
            // The schedule had already finished: nothing to replan. The
            // run state is untouched (later disturbances are no-ops for
            // the same reason).
            let record = DisturbanceRecord {
                kind: d.kind,
                time: d.time,
                machine: d.machine,
                factor: d.factor,
                committed,
                residual: 0,
                survivors: self.machine_map.len() as u64,
                carryover_cost: 0.0,
                replanned_cost: 0.0,
                makespan: self.base_time + report.makespan,
                lower_bound: None,
                gap: None,
                evaluations: 0,
                iterations: 0,
                termination: "completed".to_string(),
            };
            self.records.push(record.clone());
            return Ok(record);
        }

        // Survivor machines, in current-coordinate order.
        let survivors: Vec<usize> = match d.kind {
            DisturbanceKind::MachineFailure => {
                let failed = target.expect("failure always has a target");
                if self.machine_map.len() == 1 {
                    return Err(ReplanError::NoSurvivors { machine: d.machine });
                }
                (0..self.machine_map.len()).filter(|&m| m != failed).collect()
            }
            _ => (0..self.machine_map.len()).collect(),
        };
        let l_res = survivors.len();

        mshc_obs::add(mshc_obs::Counter::Replans, 1);
        let _replan_timer = mshc_obs::timer(mshc_obs::Hist::ReplanUs);

        // Residual task ids: dense, ordered by current task id.
        let mut keep: Vec<TaskId> = residual_order.iter().map(|s| s.task).collect();
        keep.sort_by_key(|t| t.index());
        let mut new_id = vec![u32::MAX; inst.task_count()];
        for (i, t) in keep.iter().enumerate() {
            new_id[t.index()] = i as u32;
        }

        // Residual sub-DAG: edges with both endpoints unfinished, in the
        // original data-item order. Edges from committed producers drop
        // out — their outputs are persisted at the freeze time.
        let mut builder = TaskGraphBuilder::new(keep.len());
        let mut kept_data = Vec::new();
        for e in inst.graph().edges() {
            let (src, dst) = (new_id[e.src.index()], new_id[e.dst.index()]);
            if src != u32::MAX && dst != u32::MAX {
                builder.add_edge(src, dst).expect("sub-DAG edges are in range and acyclic");
                kept_data.push(e.id);
            }
        }
        let graph = builder.build().expect("at least one residual task");

        // Residual platform: exec sliced from the current system with the
        // disturbance folded in; transfers sliced for survivor pairs.
        let sys = inst.system();
        let exec = Matrix::from_fn(l_res, keep.len(), |r, c| {
            let m = MachineId::from_usize(survivors[r]);
            let mut v = sys.exec_time(m, keep[c]);
            match d.kind {
                DisturbanceKind::MachineSlowdown if Some(survivors[r]) == target => {
                    v *= d.factor;
                }
                DisturbanceKind::TaskInflation => v *= d.factor,
                _ => {}
            }
            v
        });
        let transfer = Matrix::from_fn(pair_count(l_res), kept_data.len(), |row, col| {
            let (a, b) = pair_from_index(l_res, row);
            sys.transfer_time(
                kept_data[col],
                MachineId::from_usize(survivors[a.index()]),
                MachineId::from_usize(survivors[b.index()]),
            )
        });
        let system = HcSystem::with_anonymous_machines(l_res, exec, transfer)
            .expect("residual matrices inherit validity from the original system");
        let res_inst = HcInstance::new(graph, system)
            .expect("residual graph and system are dimensioned together");

        // Carryover: residual tasks in original string order (a linear
        // extension of the sub-DAG), original machines where they
        // survived, best surviving machine otherwise.
        let mut survivor_index = vec![usize::MAX; self.machine_map.len()];
        for (i, &m) in survivors.iter().enumerate() {
            survivor_index[m] = i;
        }
        let segments: Vec<Segment> = residual_order
            .iter()
            .map(|seg| {
                let t = TaskId::new(new_id[seg.task.index()]);
                let mapped = survivor_index[seg.machine.index()];
                let machine = if mapped != usize::MAX {
                    MachineId::from_usize(mapped)
                } else {
                    res_inst.system().best_machine(t)
                };
                Segment { task: t, machine }
            })
            .collect();
        let carryover = Solution::new(res_inst.graph(), l_res, segments)
            .expect("carryover order is a linear extension of the sub-DAG");

        // Re-prime the incremental evaluator from the disturbed frontier
        // and read the carryover's exact score off the primed walk
        // (primes are uncounted).
        let mut inc = IncrementalEvaluator::new(&res_inst);
        inc.prime(&carryover);
        let carryover_cost = inc.base_score(&budget.objective);
        drop(inc);

        // Run the search on the residual, seeded with the carryover.
        let result = {
            let mut state = search.start(&res_inst, budget);
            state.inject(&carryover, carryover_cost);
            let _ = state.step(u64::MAX, None);
            state.result()
        };
        let makespan = d.time + result.makespan;
        let lower_bound = result.lower_bound.map(|floor| d.time + floor);
        let record = DisturbanceRecord {
            kind: d.kind,
            time: d.time,
            machine: d.machine,
            factor: d.factor,
            committed,
            residual: keep.len() as u64,
            survivors: l_res as u64,
            carryover_cost,
            replanned_cost: result.objective_value,
            makespan,
            lower_bound,
            gap: certified_gap(lower_bound, makespan),
            evaluations: result.evaluations,
            iterations: result.iterations,
            termination: result.termination.as_str().to_string(),
        };

        // Advance the run state onto the residual problem.
        self.machine_map = survivors.iter().map(|&m| self.machine_map[m]).collect();
        self.cur = Some(res_inst);
        self.cur_sol = result.solution;
        self.base_time = d.time;
        self.replans += 1;
        self.evaluations += result.evaluations;
        self.records.push(record.clone());
        Ok(record)
    }

    /// Assembles the deterministic end-to-end report.
    pub fn report(&self) -> ReplanReport {
        let (final_makespan, lower_bound, gap) = match self.records.last() {
            Some(r) if r.residual > 0 => (r.makespan, r.lower_bound, r.gap),
            Some(r) => (r.makespan, None, None),
            None => (self.baseline_makespan, None, None),
        };
        ReplanReport {
            baseline_makespan: self.baseline_makespan,
            records: self.records.clone(),
            replans: self.replans,
            final_makespan,
            lower_bound,
            gap,
            evaluations: self.evaluations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{RunResult, Scheduler, Termination};
    use crate::steppable::{Incumbent, SearchStep, StepVerdict};
    use mshc_trace::Trace;
    use std::time::Duration;

    /// A 4-task diamond on 2 machines for freeze/residual tests.
    fn diamond() -> HcInstance {
        let mut b = TaskGraphBuilder::new(4);
        b.add_edge(0, 1).unwrap();
        b.add_edge(0, 2).unwrap();
        b.add_edge(1, 3).unwrap();
        b.add_edge(2, 3).unwrap();
        let g = b.build().unwrap();
        let sys = HcSystem::with_anonymous_machines(
            2,
            Matrix::from_rows(&[vec![2.0, 4.0, 3.0, 2.0], vec![3.0, 2.0, 5.0, 4.0]]),
            Matrix::from_rows(&[vec![1.0, 1.0, 1.0, 1.0]]),
        )
        .unwrap();
        HcInstance::new(g, sys).unwrap()
    }

    fn diamond_solution(inst: &HcInstance) -> Solution {
        let segs = vec![
            Segment { task: TaskId::new(0), machine: MachineId::new(0) },
            Segment { task: TaskId::new(1), machine: MachineId::new(1) },
            Segment { task: TaskId::new(2), machine: MachineId::new(0) },
            Segment { task: TaskId::new(3), machine: MachineId::new(0) },
        ];
        Solution::new(inst.graph(), 2, segs).unwrap()
    }

    /// A trivial steppable search that never improves on the injected
    /// incumbent: `result()` returns whatever was injected (or a fresh
    /// random solution before any injection). Lets the replanner tests
    /// exercise the full carryover → inject → result plumbing without
    /// depending on the search crates.
    struct Echo;
    struct EchoState<'i> {
        inst: &'i HcInstance,
        budget: RunBudget,
        best: Option<(Solution, f64)>,
        evaluations: u64,
    }
    impl Scheduler for Echo {
        fn name(&self) -> &str {
            "echo"
        }
        fn run(
            &mut self,
            inst: &HcInstance,
            budget: &RunBudget,
            trace: Option<&mut Trace>,
        ) -> RunResult {
            crate::steppable::run_stepped(self, inst, budget, trace)
        }
    }
    impl SteppableSearch for Echo {
        fn start<'i>(
            &mut self,
            inst: &'i HcInstance,
            budget: &RunBudget,
        ) -> Box<dyn SearchStep + 'i> {
            Box::new(EchoState { inst, budget: budget.clone(), best: None, evaluations: 0 })
        }
    }
    impl SearchStep for EchoState<'_> {
        fn name(&self) -> &str {
            "echo"
        }
        fn step(&mut self, max_iterations: u64, _trace: Option<&mut Trace>) -> StepVerdict {
            if max_iterations > 0 && self.best.is_none() {
                let mut rng = <rand_chacha::ChaCha8Rng as rand::SeedableRng>::seed_from_u64(9);
                let sol = crate::init::random_solution(self.inst, &mut rng);
                let mut eval = Evaluator::new(self.inst);
                let cost = eval.objective_value(&sol, &self.budget.objective);
                self.evaluations += 1;
                self.best = Some((sol, cost));
            }
            StepVerdict::Exhausted
        }
        fn incumbent(&self) -> Option<Incumbent<'_>> {
            self.best.as_ref().map(|(s, c)| Incumbent { solution: s, cost: *c })
        }
        fn inject(&mut self, migrant: &Solution, cost: f64) {
            if self.best.as_ref().is_none_or(|(_, c)| cost < *c) {
                self.best = Some((migrant.clone(), cost));
            }
        }
        fn result(&mut self) -> RunResult {
            let (sol, cost) = self.best.clone().expect("stepped or injected");
            let makespan = Evaluator::new(self.inst).makespan(&sol);
            RunResult {
                solution: sol,
                makespan,
                objective_value: cost,
                iterations: 1,
                evaluations: self.evaluations,
                elapsed: Duration::ZERO,
                scan: Default::default(),
                lower_bound: None,
                gap: None,
                termination: Termination::Completed,
            }
            .with_certificate(self.inst, self.budget.objective)
        }
    }

    fn fail(machine: u32, time: f64) -> Disturbance {
        Disturbance { kind: DisturbanceKind::MachineFailure, time, machine, factor: 1.0 }
    }

    #[test]
    fn machine_failure_freezes_and_replans() {
        let inst = diamond();
        let sol = diamond_solution(&inst);
        // Schedule: t0 on m0 [0,2), t1 on m1 [3,5) (transfer 1), t2 on
        // m0 [2,5), t3 on m0 [6,8) (waits for t1's transfer).
        let mut rp = Replanner::new(&inst, sol);
        assert!(rp.report().replans == 0);
        let rec = rp.apply(&fail(1, 4.0), &mut Echo, &RunBudget::iterations(1)).unwrap();
        // At t=4: finished = {t0 (2.0)}; t1 (5.0), t2 (5.0), t3 unfinished.
        assert_eq!(rec.committed, 1);
        assert_eq!(rec.residual, 3);
        assert_eq!(rec.survivors, 1);
        assert!(rec.makespan >= 4.0, "disturbed makespan includes the freeze time");
        assert!(rec.gap.expect("makespan objective certifies") >= 1.0);
        assert_eq!(rec.termination, "completed");
        // Carryover cost bounds the replanned cost from above.
        assert!(rec.replanned_cost <= rec.carryover_cost);
        let report = rp.report();
        assert_eq!(report.replans, 1);
        assert_eq!(report.final_makespan, rec.makespan);
        // The surviving machine is m0: every residual task must now be
        // there, and the current solution is on the 1-machine platform.
        assert_eq!(rp.current_solution().machine_count(), 1);
        assert_eq!(rp.current_solution().len(), 3);
    }

    #[test]
    fn slowdown_and_inflation_scale_exec_times() {
        let inst = diamond();
        let sol = diamond_solution(&inst);
        let mut rp = Replanner::new(&inst, sol.clone());
        let d = Disturbance {
            kind: DisturbanceKind::MachineSlowdown,
            time: 1.0,
            machine: 0,
            factor: 2.0,
        };
        let rec = rp.apply(&d, &mut Echo, &RunBudget::iterations(1)).unwrap();
        assert_eq!(rec.survivors, 2, "slowdown keeps every machine");
        assert_eq!(rec.committed, 0, "nothing finished by t=1");
        assert_eq!(rec.residual, 4);

        let mut rp2 = Replanner::new(&inst, sol);
        let d = Disturbance {
            kind: DisturbanceKind::TaskInflation,
            time: 1.0,
            machine: 0,
            factor: 3.0,
        };
        let rec2 = rp2.apply(&d, &mut Echo, &RunBudget::iterations(1)).unwrap();
        assert_eq!(rec2.survivors, 2);
        // Inflating everything 3× dominates slowing one machine 2×.
        assert!(rec2.makespan > rec.makespan);
    }

    #[test]
    fn disturbance_after_completion_is_a_noop() {
        let inst = diamond();
        let sol = diamond_solution(&inst);
        let baseline = Evaluator::new(&inst).makespan(&sol);
        let mut rp = Replanner::new(&inst, sol);
        let rec = rp.apply(&fail(1, 100.0), &mut Echo, &RunBudget::iterations(1)).unwrap();
        assert_eq!(rec.residual, 0);
        assert_eq!(rec.committed, 4);
        assert_eq!(rec.makespan, baseline);
        let report = rp.report();
        assert_eq!(report.replans, 0);
        assert_eq!(report.final_makespan, baseline);
        assert_eq!(report.baseline_makespan, baseline);
    }

    #[test]
    fn sequential_disturbances_compose() {
        // 3 machines so we can fail two of them in sequence.
        let mut b = TaskGraphBuilder::new(3);
        b.add_edge(0, 2).unwrap();
        let g = b.build().unwrap();
        let sys = HcSystem::with_anonymous_machines(
            3,
            Matrix::from_rows(&[vec![2.0, 2.0, 2.0], vec![3.0, 3.0, 3.0], vec![4.0, 4.0, 4.0]]),
            Matrix::from_rows(&[vec![1.0], vec![1.0], vec![1.0]]),
        )
        .unwrap();
        let inst = HcInstance::new(g, sys).unwrap();
        let segs = vec![
            Segment { task: TaskId::new(0), machine: MachineId::new(0) },
            Segment { task: TaskId::new(1), machine: MachineId::new(1) },
            Segment { task: TaskId::new(2), machine: MachineId::new(2) },
        ];
        let sol = Solution::new(inst.graph(), 3, segs).unwrap();
        let mut rp = Replanner::new(&inst, sol);
        let budget = RunBudget::iterations(1);
        let r1 = rp.apply(&fail(2, 0.5), &mut Echo, &budget).unwrap();
        assert_eq!(r1.survivors, 2);
        // Second failure names an original id; the replanner maps it
        // through the shrunken platform.
        let r2 = rp.apply(&fail(0, 1.0), &mut Echo, &budget).unwrap();
        assert_eq!(r2.survivors, 1);
        assert!(r2.makespan >= r1.makespan - 1e-9 || r2.residual < r1.residual);
        let report = rp.report();
        assert_eq!(report.replans, 2);
        assert_eq!(report.records.len(), 2);
        // Failing the last machine is rejected.
        assert_eq!(
            rp.apply(&fail(1, 2.0), &mut Echo, &budget),
            Err(ReplanError::NoSurvivors { machine: 1 })
        );
        // Re-failing a dead machine is rejected.
        assert_eq!(
            rp.apply(&fail(0, 2.0), &mut Echo, &budget),
            Err(ReplanError::MachineAlreadyFailed { machine: 0 })
        );
    }

    #[test]
    fn malformed_disturbances_are_rejected() {
        let inst = diamond();
        let mut rp = Replanner::new(&inst, diamond_solution(&inst));
        let budget = RunBudget::iterations(1);
        assert_eq!(
            rp.apply(&fail(9, 1.0), &mut Echo, &budget),
            Err(ReplanError::MachineOutOfRange { machine: 9, machine_count: 2 })
        );
        assert!(matches!(
            rp.apply(&fail(0, f64::NAN), &mut Echo, &budget),
            Err(ReplanError::InvalidTime { time }) if time.is_nan()
        ));
        assert_eq!(
            rp.apply(&fail(0, -1.0), &mut Echo, &budget),
            Err(ReplanError::OutOfOrder { time: -1.0, base: 0.0 })
        );
        let d = Disturbance {
            kind: DisturbanceKind::MachineSlowdown,
            time: 1.0,
            machine: 0,
            factor: 0.0,
        };
        assert_eq!(
            rp.apply(&d, &mut Echo, &budget),
            Err(ReplanError::InvalidFactor { factor: 0.0 })
        );
        // An unbounded replan budget is rejected up front.
        assert_eq!(
            rp.apply(&fail(0, 1.0), &mut Echo, &RunBudget::default()),
            Err(ReplanError::Budget(ScheduleError::UnboundedBudget))
        );
    }

    #[test]
    fn reports_are_deterministic_and_round_trip() {
        let inst = diamond();
        let run = || {
            let mut rp = Replanner::new(&inst, diamond_solution(&inst));
            rp.apply(&fail(1, 4.0), &mut Echo, &RunBudget::iterations(1)).unwrap();
            rp.report()
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json(), "byte-identical serialized reports");
        let back = ReplanReport::from_json(&a.to_json()).expect("round trip");
        assert_eq!(back, a);
    }
}
