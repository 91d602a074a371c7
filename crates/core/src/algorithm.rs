//! The SE main loop: evaluation → selection → allocation (§3–4).

use crate::config::SeConfig;
use crate::goodness::{goodness, optimal_costs};
use mshc_platform::{HcInstance, MachineId};
use mshc_schedule::{
    objective_from_report, run_stepped, BatchEvaluator, EvalSnapshot, Evaluator, Incumbent,
    ObjectiveKind, RunBudget, RunLedger, RunResult, ScanStats, ScheduleReport, Scheduler,
    SearchStep, Solution, StepVerdict, SteppableSearch,
};
use mshc_taskgraph::{Levels, TaskGraph, TaskId};
use mshc_trace::{Trace, TraceRecord};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// The simulated-evolution scheduler.
///
/// Construct with an [`SeConfig`] and drive through the
/// [`Scheduler`] trait. A scheduler value is reusable: each
/// [`run`](Scheduler::run) starts fresh from the configured seed.
#[derive(Debug, Clone)]
pub struct SeScheduler {
    config: SeConfig,
}

impl SeScheduler {
    /// Creates a scheduler with the given configuration.
    ///
    /// # Panics
    /// If the configuration means nothing ([`SeConfig::validate`]).
    pub fn new(config: SeConfig) -> SeScheduler {
        config.validate();
        SeScheduler { config }
    }

    /// [`SeConfig::default()`] with `seed`: the fixed bias `B = 0` and
    /// every machine allowed. [`SePendingBias`] sets the bias from the
    /// instance size at run time instead.
    pub fn with_seed(seed: u64) -> SeScheduler {
        SeScheduler::new(SeConfig { seed, ..SeConfig::default() })
    }

    /// The configuration.
    pub fn config(&self) -> &SeConfig {
        &self.config
    }
}

impl Scheduler for SeScheduler {
    fn name(&self) -> &str {
        "se"
    }

    fn run(
        &mut self,
        inst: &HcInstance,
        budget: &RunBudget,
        trace: Option<&mut Trace>,
    ) -> RunResult {
        budget.validate().expect("SE is an anytime algorithm");
        // One maximal slice of the stepped state machine — plain and
        // stepped runs share every line of search code, so they are
        // bit-identical (solutions, objective values *and* evaluation
        // counts) by construction.
        run_stepped(self, inst, budget, trace)
    }
}

impl SteppableSearch for SeScheduler {
    fn start<'a>(&mut self, inst: &'a HcInstance, budget: &RunBudget) -> Box<dyn SearchStep + 'a> {
        let clock = Instant::now();
        let g = inst.graph();
        let cfg = self.config;
        let objective = budget.objective;
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);

        // ---- one-time precomputation (§4.3: O_i never changes) ----
        let optimal = optimal_costs(inst);
        let levels = Levels::compute(g);
        let y = cfg.y_limit.unwrap_or(inst.machine_count()).clamp(1, inst.machine_count());
        let allowed: Vec<Vec<MachineId>> = g
            .tasks()
            .map(|t| {
                let mut ranking = inst.system().machine_ranking(t);
                ranking.truncate(y);
                ranking
            })
            .collect();

        // One flattened snapshot serves the scalar evaluator and the
        // batch workers for the whole run (the per-slice evaluator views
        // in `step` all borrow it, so rebuilding them never changes a
        // score).
        let snapshot = EvalSnapshot::new(inst);

        // ---- initial solution (§4.2) ----
        let current = mshc_schedule::random_solution(inst, &mut rng);
        let mut eval = Evaluator::with_snapshot(&snapshot);
        // The report's fold is the one the allocation scans rank
        // candidates by, so its score is theirs.
        let report = eval.report(&current);
        let score = objective_from_report(&objective, &report);
        let passes = eval.evaluations();
        let start = ScanStats::passes(passes);
        let ledger = RunLedger::new(inst, budget, clock, current.clone(), score, passes, start);

        Box::new(SeState {
            inst,
            cfg,
            objective,
            rng,
            optimal,
            levels,
            allowed,
            snapshot,
            current,
            report,
            score,
            selected: Vec::with_capacity(inst.task_count()),
            ledger,
        })
    }
}

/// A paused SE run: everything the evaluation → selection → allocation
/// loop carries between iterations, plus its run ledger.
struct SeState<'a> {
    inst: &'a HcInstance,
    cfg: SeConfig,
    objective: ObjectiveKind,
    rng: ChaCha8Rng,
    optimal: Vec<f64>,
    levels: Levels,
    allowed: Vec<Vec<MachineId>>,
    snapshot: EvalSnapshot,
    current: Solution,
    report: ScheduleReport,
    score: f64,
    selected: Vec<TaskId>,
    ledger: RunLedger,
}

impl SearchStep for SeState<'_> {
    fn name(&self) -> &str {
        "se"
    }

    fn step(&mut self, max_iterations: u64, mut trace: Option<&mut Trace>) -> StepVerdict {
        let g = self.inst.graph();
        let mut eval = Evaluator::with_snapshot(&self.snapshot);
        let mut batch = BatchEvaluator::new(&self.snapshot);
        // The slice's allocation charges, on top of its full passes.
        let mut allocations = 0;
        self.ledger.open_slice(max_iterations);
        while self.ledger.proceed(eval.evaluations() + allocations) {
            // ---- evaluation + selection (§4.4) ----
            // Goodness stays the paper's finish-time ratio for every
            // objective: it measures how well an individual task sits,
            // which is what drives selection pressure; the objective
            // decides which *whole schedules* win.
            self.selected.clear();
            for t in g.tasks() {
                let gi = goodness(self.optimal[t.index()], self.report.finish_of(t));
                if self.rng.gen::<f64>() > gi + self.cfg.selection_bias {
                    self.selected.push(t);
                }
            }
            let selected_count = self.selected.len() as u32;
            self.levels.sort_by_level(&mut self.selected);

            // ---- allocation (§4.5) ----
            for &t in &self.selected {
                allocations += allocate(
                    &mut self.current,
                    g,
                    &mut batch,
                    t,
                    &self.allowed[t.index()],
                    &self.objective,
                );
            }

            eval.report_into(&self.current, &mut self.report);
            self.score = objective_from_report(&self.objective, &self.report);
            self.ledger.record(&self.current, self.score);
            if let Some(tr) = trace.as_deref_mut() {
                tr.push(TraceRecord {
                    selected: Some(selected_count),
                    ..self.ledger.trace_record(eval.evaluations() + allocations, self.score)
                });
            }
        }
        let passes = eval.evaluations();
        let work = ScanStats { full_passes: passes, ..batch.scan_stats() };
        self.ledger.close_slice(passes + allocations, work)
    }

    fn incumbent(&self) -> Option<Incumbent<'_>> {
        Some(self.ledger.incumbent())
    }

    fn inject(&mut self, migrant: &Solution, cost: f64) {
        if cost < self.score {
            self.current.clone_from(migrant);
            self.score = cost;
            // Selection needs the migrant's per-task finish times; this
            // bookkeeping pass is uncounted, like the batch evaluator's
            // per-chunk primes, so portfolio and solo runs share the
            // same evaluation axis and the record counts no pass for it.
            Evaluator::with_snapshot(&self.snapshot).report_into(&self.current, &mut self.report);
            self.ledger.offer(migrant, cost);
        }
    }

    fn result(&mut self) -> RunResult {
        self.ledger.result(&self.snapshot)
    }
}

/// SE wrapper that resolves a NaN selection bias to the paper-recommended
/// value for the instance size at run time — the size is unknown until
/// the instance arrives, so the CLI (and the tournament engine) configure
/// the bias lazily through this type instead of baking in a guess.
#[derive(Debug, Clone)]
pub struct SePendingBias(SeConfig);

impl SePendingBias {
    /// Wraps a configuration whose `selection_bias` may be NaN
    /// ("resolve from the instance size at run time").
    ///
    /// # Panics
    /// If the configuration means nothing ([`SeConfig::validate`]), a
    /// NaN bias aside.
    pub fn new(config: SeConfig) -> SePendingBias {
        // Whatever size the bias resolves for, it is finite.
        SePendingBias(config).resolved(0).validate();
        SePendingBias(config)
    }

    /// The configuration with the bias resolved for a `k`-task instance.
    fn resolved(&self, task_count: usize) -> SeConfig {
        let mut cfg = self.0;
        if cfg.selection_bias.is_nan() {
            cfg.selection_bias = SeConfig::recommended_bias(task_count);
        }
        cfg
    }
}

impl Scheduler for SePendingBias {
    fn name(&self) -> &str {
        "se"
    }

    fn run(
        &mut self,
        inst: &HcInstance,
        budget: &RunBudget,
        trace: Option<&mut Trace>,
    ) -> RunResult {
        SeScheduler::new(self.resolved(inst.task_count())).run(inst, budget, trace)
    }
}

impl SteppableSearch for SePendingBias {
    fn start<'a>(&mut self, inst: &'a HcInstance, budget: &RunBudget) -> Box<dyn SearchStep + 'a> {
        SeScheduler::new(self.resolved(inst.task_count())).start(inst, budget)
    }
}

/// Constructively re-places `t`: try every valid string position × every
/// allowed machine and commit the best (§4.5: "it always chooses the
/// best location"). The solution is left at the committed placement.
///
/// The allocation step *relocates* selected individuals (§4.5): the
/// task's exact current `(position, machine)` pair is excluded from the
/// candidate grid, so a selected task always moves. This is what keeps SE
/// from being a pure monotone descent — a forced move can be uphill, and
/// §3 explicitly wants allocation to improve "without being too greedy".
/// (The best solution seen is tracked by the main loop, so uphill steps
/// never lose the incumbent.) The sole exception is a task with no
/// alternative placement (valid range of one position and a single
/// allowed machine), which stays put.
///
/// The grid is handed to [`BatchEvaluator::best_relocation`], which
/// never mutates the solution and runs inline on the calling thread. Its
/// arena primes the base by resuming from the string the previous
/// relocation left there, and the walk advances that prime to the
/// winner this function commits, so the next relocation's prime finds
/// its string unchanged. The scheduling kernel never inserts a task into
/// an idle gap, so sliding `t` past a task on another machine changes no
/// machine's task sequence and no finish time. The candidates of one
/// machine that differ only by such steps therefore share every finish
/// time, and the scan replays one per run of them, as lanes of lockstep
/// replays of the string without `t`, each lane inserting `t` at its own
/// position on its own machine. Only their string-order finish-time sums
/// can differ: under the flowtime objectives (and blends with flowtime)
/// the scan re-adds each other cell's sum from its run's lane. Every
/// cell is charged as an evaluation. Inserting `t` can only delay the
/// other tasks, so under makespan (or a blend of makespan alone) no
/// cell scores below the string without `t`: that walk starts with four
/// cells and one lane replaying that string, doubles each pass, and
/// stops at the first pass whose minimum meets it. Ties break to the
/// earliest candidate in `(position, machine)` grid order, so every walk
/// commits the winner of scoring the whole grid.
///
/// Returns the evaluations the scan charges: one per candidate plus 2,
/// one for the current-cost read and one for the priming pass, exactly
/// what it has always charged, so evaluation budgets and reported counts
/// are stable across releases (the per-worker primes themselves are
/// uncounted). A task with nowhere else to go charges nothing.
fn allocate(
    sol: &mut Solution,
    g: &TaskGraph,
    batch: &mut BatchEvaluator<'_>,
    t: TaskId,
    machines: &[MachineId],
    objective: &ObjectiveKind,
) -> u64 {
    let (lo, hi) = sol.valid_range(g, t);
    debug_assert!(!machines.is_empty());
    if hi == lo && machines.len() == 1 && machines[0] == sol.machine_of(t) {
        return 0; // nowhere else to go
    }
    let before = batch.evaluations();
    let best = batch
        .best_relocation(sol, t, lo..=hi, machines, objective)
        .expect("non-empty candidate grid");
    sol.move_task(g, t, best.pos, best.machine).expect("committing the best candidate");
    2 + batch.evaluations() - before
}

#[cfg(test)]
mod tests {
    use super::*;
    use mshc_platform::{HcSystem, Matrix};
    use mshc_schedule::{replay, Termination};
    use mshc_taskgraph::gen::{layered, LayeredConfig};
    use mshc_taskgraph::TaskGraphBuilder;

    /// Deterministic random instance: layered DAG + uniform random
    /// matrices, all seeded.
    fn random_instance(tasks: usize, machines: usize, seed: u64) -> HcInstance {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let cfg = LayeredConfig { tasks, mean_width: 4, edge_prob: 0.5, skip_prob: 0.05 };
        let graph = layered(&cfg, &mut rng).unwrap();
        let exec = Matrix::from_fn(machines, tasks, |_, _| rng.gen_range(10.0..100.0));
        let pairs = machines * (machines - 1) / 2;
        let transfer = Matrix::from_fn(pairs, graph.data_count(), |_, _| rng.gen_range(1.0..30.0));
        let sys = HcSystem::with_anonymous_machines(machines, exec, transfer).unwrap();
        HcInstance::new(graph, sys).unwrap()
    }

    #[test]
    fn se_improves_over_initial_solution() {
        let inst = random_instance(30, 4, 1);
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let mut eval = Evaluator::new(&inst);
        // Mean makespan of random solutions as the "no search" baseline.
        let baseline: f64 = (0..20)
            .map(|_| eval.makespan(&mshc_schedule::random_solution(&inst, &mut rng)))
            .sum::<f64>()
            / 20.0;
        let mut se =
            SeScheduler::new(SeConfig { seed: 5, selection_bias: -0.1, ..Default::default() });
        let result = se.run(&inst, &RunBudget::iterations(60), None);
        assert!(
            result.makespan < baseline * 0.85,
            "SE ({}) should beat random baseline ({baseline}) clearly",
            result.makespan
        );
    }

    #[test]
    fn se_result_is_valid_and_matches_des_replay() {
        let inst = random_instance(25, 3, 2);
        let mut se = SeScheduler::with_seed(3);
        let result = se.run(&inst, &RunBudget::iterations(40), None);
        result.solution.check(inst.graph()).unwrap();
        let sim = replay(&inst, &result.solution).unwrap();
        assert!((sim.makespan - result.makespan).abs() < 1e-9);
        let analytic = Evaluator::new(&inst).makespan(&result.solution);
        assert!((analytic - result.makespan).abs() < 1e-9);
    }

    #[test]
    fn se_is_deterministic_under_seed() {
        let inst = random_instance(20, 3, 4);
        let run = |seed| SeScheduler::with_seed(seed).run(&inst, &RunBudget::iterations(25), None);
        let a = run(11);
        let b = run(11);
        assert_eq!(a.solution, b.solution);
        assert_eq!(a.makespan, b.makespan);
        let c = run(12);
        assert!(c.solution != a.solution || c.makespan == a.makespan);
    }

    #[test]
    fn multi_pass_allocation_is_thread_count_invariant() {
        // The determinism guard for long allocation walks: on a sparse
        // DAG over many machines most walks hold more lanes than one
        // pass of `⌈16,384 / k⌉`, so they replay pass after pass on one
        // arena, and the whole run (solution, makespan, evaluation count
        // and every scan counter) must be bit-identical at 1, 2 and 8
        // worker threads. A walk replays one cell per run of identical
        // schedules, so it takes a couple of hundred tasks to span two
        // passes; under total flowtime each pass also refolds the other
        // cells of its runs. Makespan walks have a floor and stop at the
        // first pass that meets it, whatever their length.
        for (tasks, objective, iterations) in [
            (200, ObjectiveKind::LoadBalance, 2),
            (200, ObjectiveKind::TotalFlowtime, 2),
            (200, ObjectiveKind::Makespan, 2),
        ] {
            let machines = 16;
            let mut rng = ChaCha8Rng::seed_from_u64(6);
            let cfg =
                LayeredConfig { tasks, mean_width: tasks / 2, edge_prob: 0.1, skip_prob: 0.0 };
            let graph = layered(&cfg, &mut rng).unwrap();
            let exec = Matrix::from_fn(machines, tasks, |_, _| rng.gen_range(10.0..100.0));
            let pairs = machines * (machines - 1) / 2;
            let transfer =
                Matrix::from_fn(pairs, graph.data_count(), |_, _| rng.gen_range(1.0..30.0));
            let sys = HcSystem::with_anonymous_machines(machines, exec, transfer).unwrap();
            let inst = HcInstance::new(graph, sys).unwrap();
            let run = |threads: usize| {
                let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
                let cfg = SeConfig { seed: 21, selection_bias: -0.1, ..Default::default() };
                let budget = RunBudget::iterations(iterations).with_objective(objective);
                pool.install(|| SeScheduler::new(cfg).run(&inst, &budget, None))
            };
            let baseline = run(1);
            // More than half the walks over the final solution's grids
            // start more runs than one pass holds. With every machine
            // allowed, a walk replays all lanes of its first position
            // and, at each later position, the lane of the machine its
            // step passes — less the base's own cell if that is one of
            // them.
            let g = inst.graph();
            let mut lanes: Vec<usize> = g
                .tasks()
                .map(|t| {
                    let (lo, hi) = baseline.solution.valid_range(g, t);
                    machines + (hi - lo) - 1
                })
                .collect();
            lanes.sort_unstable();
            let median = lanes[tasks / 2];
            let label = objective.label();
            let pass = 16_384usize.div_ceil(tasks);
            assert!(median > pass, "{label}: median walk of {median} lanes, passes of {pass}");
            assert!(baseline.scan.scored > 0, "the scans must score");
            for threads in [2usize, 8] {
                let r = run(threads);
                assert_eq!(r.solution, baseline.solution, "{label}, {threads} threads");
                let bits = |r: &RunResult| (r.objective_value.to_bits(), r.makespan.to_bits());
                assert_eq!(bits(&r), bits(&baseline), "{label}, {threads} threads");
                assert_eq!(r.evaluations, baseline.evaluations, "{label}, {threads} threads");
                assert_eq!(r.scan, baseline.scan, "{label}, {threads} threads");
            }
        }
    }

    #[test]
    fn objective_generic_se_optimizes_each_objective() {
        use mshc_schedule::{objective_from_report, replay};
        let inst = random_instance(24, 4, 16);
        for kind in [
            ObjectiveKind::TotalFlowtime,
            ObjectiveKind::MeanFlowtime,
            ObjectiveKind::Weighted { makespan: 1.0, flowtime: 0.5, balance: 0.5 },
        ] {
            let budget = RunBudget::iterations(30).with_objective(kind);
            let r = SeScheduler::with_seed(9).run(&inst, &budget, None);
            r.solution.check(inst.graph()).unwrap();
            // Reported objective value matches the DES replay oracle.
            let sim = replay(&inst, &r.solution).unwrap();
            let oracle = objective_from_report(&kind, &sim);
            assert!(
                (r.objective_value - oracle).abs() < 1e-9,
                "{}: {} vs oracle {oracle}",
                kind.label(),
                r.objective_value
            );
            // Makespan is still reported truthfully alongside.
            assert!((r.makespan - sim.makespan).abs() < 1e-9);
        }
    }

    #[test]
    fn flowtime_objective_changes_the_search_target() {
        // On a seeded instance, optimizing total flowtime must reach a
        // flowtime at least as good as what the makespan run stumbles
        // into, and the makespan run must win on makespan — i.e. the
        // objective genuinely steers the search.
        let inst = random_instance(30, 4, 17);
        let mk_run = SeScheduler::with_seed(3).run(&inst, &RunBudget::iterations(80), None);
        let ft_budget = RunBudget::iterations(80).with_objective(ObjectiveKind::TotalFlowtime);
        let ft_run = SeScheduler::with_seed(3).run(&inst, &ft_budget, None);
        let mut eval = Evaluator::new(&inst);
        let mk_run_ft = eval.objective_value(&mk_run.solution, &ObjectiveKind::TotalFlowtime);
        assert!(
            ft_run.objective_value <= mk_run_ft + 1e-9,
            "flowtime run ({}) must beat/match the makespan run's flowtime ({mk_run_ft})",
            ft_run.objective_value
        );
        assert!(
            mk_run.makespan <= ft_run.makespan + 1e-9,
            "makespan run ({}) must beat/match the flowtime run's makespan ({})",
            mk_run.makespan,
            ft_run.makespan
        );
    }

    #[test]
    fn makespan_objective_value_equals_makespan() {
        let inst = random_instance(15, 3, 19);
        let r = SeScheduler::with_seed(2).run(&inst, &RunBudget::iterations(20), None);
        assert_eq!(r.makespan, r.objective_value);
    }

    #[test]
    fn budget_limits_iterations() {
        let inst = random_instance(15, 3, 7);
        let mut se = SeScheduler::with_seed(1);
        let r = se.run(&inst, &RunBudget::iterations(8), None);
        assert_eq!(r.iterations, 8);
    }

    #[test]
    fn evaluation_budget_respected_approximately() {
        let inst = random_instance(15, 3, 8);
        let mut se = SeScheduler::with_seed(2);
        let r = se.run(&inst, &RunBudget::evaluations(2_000), None);
        // The loop checks between iterations, so the overshoot is at most
        // one iteration's worth of allocations.
        assert!(r.evaluations >= 2_000);
        assert!(r.evaluations < 2_000 + 15 * 15 * 3 + 20);
    }

    #[test]
    fn trace_records_selected_counts_and_costs() {
        let inst = random_instance(20, 3, 9);
        let mut se =
            SeScheduler::new(SeConfig { seed: 4, selection_bias: -0.2, ..Default::default() });
        let mut trace = Trace::new();
        let r = se.run(&inst, &RunBudget::iterations(30), Some(&mut trace));
        assert_eq!(trace.len(), 30);
        for (i, rec) in trace.records().iter().enumerate() {
            assert_eq!(rec.iteration, i as u64);
            assert!(rec.selected.is_some());
            assert!(rec.best_cost <= rec.current_cost + 1e-9);
            assert!(rec.best_cost > 0.0);
        }
        assert_eq!(trace.last().unwrap().best_cost, r.makespan);
        // best_cost is non-increasing
        for w in trace.records().windows(2) {
            assert!(w[1].best_cost <= w[0].best_cost + 1e-12);
        }
    }

    #[test]
    fn selection_pressure_decays() {
        // Fig 3a shape: the mean selected count over the last quarter of a
        // run should be well below the first iteration's.
        let inst = random_instance(40, 5, 10);
        let mut se =
            SeScheduler::new(SeConfig { seed: 6, selection_bias: 0.0, ..Default::default() });
        let mut trace = Trace::new();
        se.run(&inst, &RunBudget::iterations(80), Some(&mut trace));
        let recs = trace.records();
        let first = recs[0].selected.unwrap() as f64;
        let tail: Vec<f64> = recs[60..].iter().map(|r| r.selected.unwrap() as f64).collect();
        let tail_mean = tail.iter().sum::<f64>() / tail.len() as f64;
        assert!(
            tail_mean < first * 0.7,
            "selected tasks must decay: first {first}, tail mean {tail_mean}"
        );
    }

    #[test]
    fn y_limits_machines_used_by_allocation() {
        // With Y=1 every allocated task must end on its best machine; run
        // long enough that every task is re-allocated at least once.
        let inst = random_instance(15, 4, 11);
        let mut se = SeScheduler::new(SeConfig {
            seed: 13,
            y_limit: Some(1),
            selection_bias: -0.9, // select (almost) everything
        });
        let r = se.run(&inst, &RunBudget::iterations(10), None);
        let sys = inst.system();
        for t in inst.graph().tasks() {
            assert_eq!(
                r.solution.machine_of(t),
                sys.best_machine(t),
                "Y=1 pins {t} to its best machine"
            );
        }
    }

    #[test]
    #[should_panic(expected = "y_limit must be at least 1")]
    fn zero_y_limit_is_rejected_at_construction() {
        SeScheduler::new(SeConfig { y_limit: Some(0), ..SeConfig::default() });
    }

    #[test]
    #[should_panic(expected = "selection_bias must be finite")]
    fn nan_bias_is_rejected_at_construction() {
        SeScheduler::new(SeConfig { selection_bias: f64::NAN, ..SeConfig::default() });
    }

    #[test]
    #[should_panic(expected = "selection_bias must be finite")]
    fn pending_bias_rejects_an_infinite_bias() {
        SePendingBias::new(SeConfig { selection_bias: f64::NEG_INFINITY, ..SeConfig::default() });
    }

    #[test]
    #[should_panic(expected = "y_limit must be at least 1")]
    fn pending_bias_rejects_a_zero_y_limit() {
        SePendingBias::new(SeConfig {
            selection_bias: f64::NAN,
            y_limit: Some(0),
            ..SeConfig::default()
        });
    }

    #[test]
    fn y_larger_than_machine_count_clamps() {
        let inst = random_instance(12, 3, 12);
        let mut se =
            SeScheduler::new(SeConfig { seed: 1, y_limit: Some(99), ..Default::default() });
        let r = se.run(&inst, &RunBudget::iterations(5), None);
        r.solution.check(inst.graph()).unwrap();
    }

    #[test]
    fn early_termination_at_the_certified_floor() {
        // Balanced integer instance: 4 independent tasks on 2 machines,
        // every execution 6.0 → certified floor 12.0 (work 24 over
        // capacity 2), reachable by any 2+2 split. SE finds it, the
        // early-stopped run and the full run return the same solution
        // (nothing below a certified floor exists to find), and the
        // stop is observable only as fewer iterations/evaluations.
        let g = TaskGraphBuilder::new(4).build().unwrap();
        let exec = Matrix::filled(2, 4, 6.0);
        let sys = HcSystem::with_anonymous_machines(2, exec, Matrix::filled(1, 0, 0.0)).unwrap();
        let inst = HcInstance::new(g, sys).unwrap();
        let budget = RunBudget::iterations(200);
        let stopped = SeScheduler::with_seed(4).run(&inst, &budget, None);
        let full = SeScheduler::with_seed(4).run(&inst, &budget.with_early_stop(false), None);
        assert_eq!(stopped.lower_bound, Some(12.0));
        assert_eq!(stopped.makespan, 12.0);
        assert_eq!(stopped.gap, Some(1.0));
        assert_eq!(stopped.termination, Termination::Floor, "floor hit must flag the stop");
        assert_eq!(full.termination, Termination::Budget, "disabled early stop never flags");
        assert_eq!(stopped.solution, full.solution, "early stop never changes the answer");
        assert_eq!(stopped.objective_value, full.objective_value);
        assert!(stopped.iterations < full.iterations, "the stop must actually save work");
        assert!(stopped.evaluations <= full.evaluations);
        assert_eq!(full.lower_bound, Some(12.0), "certificate reported either way");
        assert_eq!(full.gap, Some(1.0));
    }

    #[test]
    fn non_makespan_objectives_report_no_certificate() {
        let inst = random_instance(15, 3, 23);
        let budget = RunBudget::iterations(10).with_objective(ObjectiveKind::TotalFlowtime);
        let r = SeScheduler::with_seed(5).run(&inst, &budget, None);
        assert_eq!(r.lower_bound, None);
        assert_eq!(r.gap, None);
        assert_eq!(r.termination, Termination::Budget);
    }

    #[test]
    fn single_task_instance_terminates() {
        let g = TaskGraphBuilder::new(1).build().unwrap();
        let sys = HcSystem::with_anonymous_machines(
            2,
            Matrix::from_rows(&[vec![5.0], vec![3.0]]),
            Matrix::filled(1, 0, 0.0),
        )
        .unwrap();
        let inst = HcInstance::new(g, sys).unwrap();
        let mut se = SeScheduler::with_seed(0);
        let r = se.run(&inst, &RunBudget::iterations(10), None);
        assert_eq!(r.makespan, 3.0, "single task lands on its best machine");
    }

    #[test]
    #[should_panic(expected = "anytime")]
    fn unbounded_budget_rejected() {
        let inst = random_instance(5, 2, 15);
        SeScheduler::with_seed(0).run(&inst, &RunBudget::default(), None);
    }

    #[test]
    fn scheduler_name() {
        assert_eq!(SeScheduler::with_seed(0).name(), "se");
        assert_eq!(SePendingBias::new(SeConfig::default()).name(), "se");
    }

    #[test]
    fn stepped_run_matches_plain_run_at_any_slice_size() {
        // The cooperative interface must not perturb the trajectory:
        // stepping in slices of 1, 3 or 7 iterations reproduces the
        // plain run bit for bit, including the evaluation count.
        let inst = random_instance(20, 4, 42);
        let budget = RunBudget::iterations(18);
        let plain = SeScheduler::with_seed(6).run(&inst, &budget, None);
        for slice in [1u64, 3, 7] {
            let mut se = SeScheduler::with_seed(6);
            let mut state = se.start(&inst, &budget);
            assert_eq!(state.name(), "se");
            let mut steps = 0;
            while !state.step(slice, None).is_exhausted() {
                steps += 1;
                assert!(steps < 100, "stepped run must exhaust");
            }
            let stepped = state.result();
            assert_eq!(stepped.solution, plain.solution, "slice {slice}");
            assert_eq!(stepped.makespan, plain.makespan, "slice {slice}");
            assert_eq!(stepped.evaluations, plain.evaluations, "slice {slice}");
            assert_eq!(stepped.iterations, plain.iterations, "slice {slice}");
        }
    }

    #[test]
    fn stepped_trace_matches_plain_trace() {
        let inst = random_instance(16, 3, 43);
        let budget = RunBudget::iterations(12);
        let mut plain_trace = Trace::new();
        SeScheduler::with_seed(2).run(&inst, &budget, Some(&mut plain_trace));
        let mut stepped_trace = Trace::new();
        let mut se = SeScheduler::with_seed(2);
        let mut state = se.start(&inst, &budget);
        while !state.step(5, Some(&mut stepped_trace)).is_exhausted() {}
        assert_eq!(plain_trace.len(), stepped_trace.len());
        for (a, b) in plain_trace.records().iter().zip(stepped_trace.records()) {
            assert_eq!(a.iteration, b.iteration);
            assert_eq!(a.evaluations, b.evaluations);
            assert_eq!(a.current_cost, b.current_cost);
            assert_eq!(a.best_cost, b.best_cost);
            assert_eq!(a.selected, b.selected);
        }
    }

    #[test]
    fn inject_adopts_only_improving_migrants() {
        let inst = random_instance(18, 3, 44);
        let budget = RunBudget::iterations(40);
        let mut se = SeScheduler::with_seed(9);
        let mut state = se.start(&inst, &budget);
        let _ = state.step(4, None);
        let before = state.incumbent().expect("iterative searches always have an incumbent");
        let (before_sol, before_cost) = (before.solution.clone(), before.cost);
        // A worse migrant must be ignored entirely.
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let junk = mshc_schedule::random_solution(&inst, &mut rng);
        state.inject(&junk, before_cost + 1e6);
        let after = state.incumbent().unwrap();
        assert_eq!(after.solution, &before_sol);
        assert_eq!(after.cost, before_cost);
        // A better one becomes the incumbent immediately.
        let improved = {
            let mut donor = SeScheduler::with_seed(77);
            donor.run(&inst, &RunBudget::iterations(120), None)
        };
        if improved.objective_value < before_cost {
            state.inject(&improved.solution, improved.objective_value);
            let adopted = state.incumbent().unwrap();
            assert_eq!(adopted.solution, &improved.solution);
            assert_eq!(adopted.cost, improved.objective_value);
        }
        // The injected run still finishes valid and no worse.
        while !state.step(u64::MAX, None).is_exhausted() {}
        let r = state.result();
        r.solution.check(inst.graph()).unwrap();
        assert!(r.objective_value <= before_cost + 1e-9);
    }

    #[test]
    fn pending_bias_matches_resolved_scheduler() {
        // The lazily-resolved wrapper must behave exactly like an
        // eagerly-configured scheduler with the recommended bias.
        let inst = random_instance(24, 4, 45);
        let budget = RunBudget::iterations(10);
        let mut pending = SePendingBias::new(SeConfig {
            seed: 3,
            selection_bias: f64::NAN,
            ..SeConfig::default()
        });
        let via_pending = pending.run(&inst, &budget, None);
        let resolved = SeConfig {
            seed: 3,
            selection_bias: SeConfig::recommended_bias(24),
            ..SeConfig::default()
        };
        let direct = SeScheduler::new(resolved).run(&inst, &budget, None);
        assert_eq!(via_pending.solution, direct.solution);
        assert_eq!(via_pending.evaluations, direct.evaluations);
        // An explicit bias passes through untouched.
        let mut explicit = SePendingBias::new(SeConfig { seed: 3, ..SeConfig::default() });
        let explicit_run = explicit.run(&inst, &budget, None);
        let plain = SeScheduler::with_seed(3).run(&inst, &budget, None);
        assert_eq!(explicit_run.solution, plain.solution);
    }
}
