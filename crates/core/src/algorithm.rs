//! The SE main loop: evaluation → selection → allocation (§3–4).

use crate::config::{AllocationStrategy, SeConfig};
use crate::goodness::{goodness, optimal_costs};
use mshc_obs as obs;
use mshc_platform::{HcInstance, MachineId};
use mshc_schedule::{
    certified_gap, run_stepped, BatchEvaluator, EvalSnapshot, Evaluator, IncrementalEvaluator,
    Incumbent, InstanceBound, MoveScore, Objective, ObjectiveKind, RunBudget, RunResult, ScanStats,
    ScheduleReport, Scheduler, SearchStep, Solution, StepVerdict, SteppableSearch,
};
use mshc_taskgraph::{Levels, TaskId};
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
    pub fn new(config: SeConfig) -> SeScheduler {
        SeScheduler { config }
    }

    /// Paper-faithful defaults with the bias auto-set from the instance
    /// size at run time.
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
        let start = Instant::now();
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

        // One flattened snapshot serves the scalar evaluator, the
        // incremental move evaluator and the batch workers for the
        // whole run (the per-slice evaluator views in `step` all borrow
        // it, so rebuilding them never changes a score).
        let snapshot = EvalSnapshot::new(inst);

        // Certified instance floor (makespan only): drives the scan-
        // global cutoff and early termination. Computed once; consumes
        // no RNG, counts no evaluations.
        let bound = objective.is_makespan().then(|| InstanceBound::compute(inst));

        // ---- initial solution (§4.2) ----
        let perturb = cfg.init_perturbations.unwrap_or(2 * inst.task_count());
        let current = mshc_schedule::init::random_solution_with(inst, perturb, &mut rng);
        let mut evaluations = 0;
        let (report, score) = {
            let mut eval = Evaluator::with_snapshot(&snapshot);
            let report = eval.report(&current);
            let score = objective.value(&report.view());
            evaluations += eval.evaluations();
            (report, score)
        };

        Box::new(SeState {
            inst,
            cfg,
            budget: budget.clone(),
            objective,
            rng,
            optimal,
            levels,
            allowed,
            snapshot,
            best: current.clone(),
            best_score: score,
            current,
            report,
            score,
            iterations: 0,
            stall: 0,
            evaluations,
            scan: ScanStats::default(),
            selected: Vec::with_capacity(inst.task_count()),
            bias: cfg.selection_bias,
            bound,
            early_stopped: false,
            cancelled: false,
            start,
        })
    }
}

/// A paused SE run: everything the evaluation → selection → allocation
/// loop carries between iterations, plus accumulated budget accounting.
struct SeState<'a> {
    inst: &'a HcInstance,
    cfg: SeConfig,
    budget: RunBudget,
    objective: ObjectiveKind,
    rng: ChaCha8Rng,
    optimal: Vec<f64>,
    levels: Levels,
    allowed: Vec<Vec<MachineId>>,
    snapshot: EvalSnapshot,
    current: Solution,
    report: ScheduleReport,
    score: f64,
    best: Solution,
    best_score: f64,
    iterations: u64,
    stall: u64,
    /// Evaluations accumulated across completed step slices (the
    /// per-slice evaluators contribute their counts when the slice
    /// ends, so totals are independent of how the run is sliced).
    evaluations: u64,
    /// Fast-path counters accumulated across completed slices.
    scan: ScanStats,
    selected: Vec<TaskId>,
    bias: f64,
    /// Certified instance floor, present iff the objective is makespan.
    bound: Option<InstanceBound>,
    /// Whether the incumbent reached the certified floor and the run
    /// stopped early (observable only as fewer evaluations — never a
    /// different solution, since nothing below the floor exists).
    early_stopped: bool,
    /// Latched cooperative-cancellation flag: set the first time the
    /// budget's [`mshc_schedule::CancelToken`] is observed fired at an
    /// iteration boundary (never mid-evaluation, so counts stay exact).
    cancelled: bool,
    start: Instant,
}

impl SearchStep for SeState<'_> {
    fn name(&self) -> &str {
        "se"
    }

    fn step(&mut self, max_iterations: u64, mut trace: Option<&mut Trace>) -> StepVerdict {
        let g = self.inst.graph();
        let floor = self.bound.as_ref().map(|b| b.floor());
        let mut eval = Evaluator::with_snapshot(&self.snapshot);
        let mut inc = IncrementalEvaluator::with_snapshot(&self.snapshot);
        inc.set_stride(self.budget.checkpoint_stride);
        inc.set_pruning(self.budget.prune);
        inc.set_splicing(self.budget.prune);
        inc.set_scan_floor(floor.unwrap_or(f64::NEG_INFINITY));
        // The best-fit scans run on machine lanes, which use neither the
        // pruning flags nor the floor; only the stride reaches them.
        let mut batch =
            BatchEvaluator::new(&self.snapshot).with_stride(self.budget.checkpoint_stride);
        let mut stepped = 0u64;

        // The initial solution (or an injected migrant) may already sit
        // on the certified floor — nothing below it exists, so there is
        // nothing left to search.
        self.early_stopped =
            self.early_stopped || self.budget.floor_reached(floor, self.best_score);

        while !self.early_stopped
            && stepped < max_iterations
            && !self.budget.observe_cancel(&mut self.cancelled)
            && !self.budget.halted(
                self.iterations,
                self.evaluations + eval.evaluations(),
                self.start.elapsed(),
                self.stall,
            )
        {
            // ---- evaluation + selection (§4.4) ----
            // Goodness stays the paper's finish-time ratio for every
            // objective: it measures how well an individual task sits,
            // which is what drives selection pressure; the objective
            // decides which *whole schedules* win.
            self.selected.clear();
            for t in g.tasks() {
                let gi = goodness(self.optimal[t.index()], self.report.finish_of(t));
                if self.rng.gen::<f64>() > gi + self.bias {
                    self.selected.push(t);
                }
            }
            let selected_count = self.selected.len() as u32;
            if let Some(adapt) = self.cfg.adaptive_bias {
                // Closed loop: over-selection raises the bias (restricts),
                // under-selection lowers it (loosens). Clamped to the
                // paper's published range.
                let fraction = selected_count as f64 / self.inst.task_count() as f64;
                self.bias =
                    (self.bias + adapt.gain * (fraction - adapt.target_fraction)).clamp(-0.3, 0.1);
            }
            self.levels.sort_by_level(&mut self.selected);

            // ---- allocation (§4.5) ----
            for &t in &self.selected {
                allocate(
                    &mut self.current,
                    self.inst,
                    &mut eval,
                    &mut inc,
                    &mut batch,
                    t,
                    &self.allowed[t.index()],
                    &self.cfg,
                    self.objective,
                );
            }

            eval.report_into(&self.current, &mut self.report);
            self.score = self.objective.value(&self.report.view());
            if self.score < self.best_score {
                self.best_score = self.score;
                self.best.clone_from(&self.current);
                self.stall = 0;
                if self.budget.floor_reached(floor, self.best_score) {
                    self.early_stopped = true;
                }
            } else {
                self.stall += 1;
            }
            self.iterations += 1;
            obs::add(obs::Counter::Iterations, 1);
            stepped += 1;

            if let Some(tr) = trace.as_deref_mut() {
                tr.push(TraceRecord {
                    iteration: self.iterations - 1,
                    elapsed_secs: self.start.elapsed().as_secs_f64(),
                    evaluations: self.evaluations + eval.evaluations(),
                    current_cost: self.score,
                    best_cost: self.best_score,
                    selected: Some(selected_count),
                    population_mean: None,
                });
            }
        }

        self.evaluations += eval.evaluations();
        self.scan.merge(inc.stats());
        self.scan.merge(batch.scan_stats());
        if self.early_stopped
            || self.cancelled
            || self.budget.halted(
                self.iterations,
                self.evaluations,
                self.start.elapsed(),
                self.stall,
            )
        {
            StepVerdict::Exhausted
        } else {
            StepVerdict::Running
        }
    }

    fn incumbent(&self) -> Option<Incumbent<'_>> {
        Some(Incumbent { solution: &self.best, cost: self.best_score })
    }

    fn inject(&mut self, migrant: &Solution, cost: f64) {
        if cost < self.score {
            self.current.clone_from(migrant);
            self.score = cost;
            // Selection needs the migrant's per-task finish times; this
            // bookkeeping pass is uncounted, like the batch evaluator's
            // per-chunk primes, so portfolio and solo runs share the
            // same evaluation axis.
            Evaluator::with_snapshot(&self.snapshot).report_into(&self.current, &mut self.report);
            if cost < self.best_score {
                self.best.clone_from(migrant);
                self.best_score = cost;
                self.stall = 0;
            }
        }
    }

    fn result(&mut self) -> RunResult {
        let makespan = if self.objective.is_makespan() {
            self.best_score
        } else {
            // Reporting pass, deliberately uncounted: `evaluations` is
            // the search-cost axis of the figures.
            Evaluator::with_snapshot(&self.snapshot).makespan(&self.best)
        };
        let lower_bound = self.bound.as_ref().map(|b| b.floor());
        RunResult {
            solution: self.best.clone(),
            makespan,
            objective_value: self.best_score,
            iterations: self.iterations,
            evaluations: self.evaluations,
            elapsed: self.start.elapsed(),
            scan: self.scan,
            lower_bound,
            gap: certified_gap(lower_bound, self.best_score),
            early_stopped: self.early_stopped,
            termination: self.budget.termination(
                self.iterations,
                self.evaluations,
                self.start.elapsed(),
                self.stall,
                self.early_stopped,
                self.cancelled,
            ),
        }
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
    pub fn new(config: SeConfig) -> SePendingBias {
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
/// allowed machine; commit per the configured strategy. The solution is
/// left at the committed placement.
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
/// Two evaluation routes, both committing the same argmin (ties break
/// to the earliest candidate in `(position, machine)` grid order, so the
/// routes are bit-identical for every built-in objective):
///
/// * `incremental_eval` — the grid is handed to
///   [`BatchEvaluator::best_relocation`]: the base is primed once per
///   worker, and each position's candidates are scored together in one
///   lockstep replay with a lane per allowed machine, exact and without
///   bounds, never mutating the solution. Grids large enough to pay for
///   it fan their positions out over the worker pool; smaller ones run
///   inline. Works for every [`ObjectiveKind`] through the
///   accumulator-finalize interface;
/// * otherwise — serial full objective passes (the ablation baseline,
///   and the only route for custom non-incremental objectives).
///
/// [`AllocationStrategy::FirstImprovement`] is inherently sequential
/// (the commit depends on scan order cutting the scan short), so it
/// scans serially on either route, with the running best as the
/// pruning bound of [`IncrementalEvaluator::score_move_bounded`] on the
/// incremental one.
#[allow(clippy::too_many_arguments)]
fn allocate(
    sol: &mut Solution,
    inst: &HcInstance,
    eval: &mut Evaluator<'_>,
    inc: &mut IncrementalEvaluator<'_>,
    batch: &mut BatchEvaluator<'_>,
    t: TaskId,
    machines: &[MachineId],
    cfg: &SeConfig,
    objective: ObjectiveKind,
) {
    let g = inst.graph();
    let (lo, hi) = sol.valid_range(g, t);
    debug_assert!(!machines.is_empty());
    let orig_pos = sol.position_of(t);
    let orig_m = sol.machine_of(t);
    if hi == lo && machines.len() == 1 && machines[0] == orig_m {
        return; // nowhere else to go
    }

    let use_incremental = cfg.incremental_eval && objective.supports_incremental();
    // The incremental route is charged 2 evaluations per scan on top of
    // one per candidate — one for the current-cost read, one for the
    // priming pass — exactly what it has always charged, so evaluation
    // budgets and reported counts are stable across releases (the
    // per-worker primes themselves are uncounted). The full-pass
    // ablation route charges 1 (no prime), as it always has: decisions
    // are bit-identical between the routes, evaluation *counts* are
    // not — don't compare the flag settings under a max_evaluations
    // budget.
    if use_incremental && cfg.allocation == AllocationStrategy::BestFit {
        let before = batch.evaluations();
        let best = batch
            .best_relocation(g, sol, t, lo..=hi, machines, &objective)
            .expect("non-empty candidate grid");
        eval.bump_evaluations(2 + batch.evaluations() - before);
        sol.move_task(g, t, best.pos, best.machine).expect("committing the best candidate");
        return;
    }

    let current_cost = if use_incremental {
        inc.prime(sol);
        eval.bump_evaluations(2);
        inc.base_score(&objective)
    } else {
        eval.objective_value(sol, &objective)
    };
    let mut best_pos = orig_pos;
    let mut best_m = orig_m;
    let mut best_cost = f64::INFINITY;

    'search: for pos in lo..=hi {
        for &m in machines {
            if pos == orig_pos && m == orig_m {
                continue; // relocation is mandatory
            }
            let cost = if use_incremental {
                eval.bump_evaluations(1);
                // The running best rides along as the pruning bound: a
                // pruned candidate is provably above `best_cost`, so the
                // sequential scan would have rejected it (and, being no
                // new best, never first-improvement-breaks on it) —
                // skipping is behavior-identical.
                match inc.score_move_bounded(t, pos, m, best_cost, &objective) {
                    MoveScore::Exact(cost) => cost,
                    MoveScore::Pruned => continue,
                }
            } else {
                sol.move_task(g, t, pos, m).expect("candidate within valid range");
                eval.objective_value(sol, &objective)
            };
            if cost < best_cost {
                best_cost = cost;
                best_pos = pos;
                best_m = m;
                if cfg.allocation == AllocationStrategy::FirstImprovement && cost < current_cost {
                    break 'search;
                }
            }
        }
    }
    sol.move_task(g, t, best_pos, best_m).expect("committing the best candidate");
}

#[cfg(test)]
mod tests {
    use super::*;
    use mshc_platform::{HcSystem, Matrix};
    use mshc_schedule::replay;
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
    fn fanned_out_allocation_is_thread_count_invariant() {
        // The determinism guard for the fanned-out allocation scan: on a
        // sparse DAG over many machines most relocation grids reach the
        // lane scan's fan-out threshold (16,384 lane-replays, positions
        // × machines × k), so their positions really spread across the
        // pool — and the whole run (solution, makespan, evaluation count
        // and every scan counter) must be bit-identical at 1, 2 and 8
        // worker threads.
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let (tasks, machines) = (64, 16);
        let cfg = LayeredConfig { tasks, mean_width: 32, edge_prob: 0.1, skip_prob: 0.0 };
        let graph = layered(&cfg, &mut rng).unwrap();
        let exec = Matrix::from_fn(machines, tasks, |_, _| rng.gen_range(10.0..100.0));
        let pairs = machines * (machines - 1) / 2;
        let transfer = Matrix::from_fn(pairs, graph.data_count(), |_, _| rng.gen_range(1.0..30.0));
        let sys = HcSystem::with_anonymous_machines(machines, exec, transfer).unwrap();
        let inst = HcInstance::new(graph, sys).unwrap();
        let run = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            pool.install(|| {
                SeScheduler::new(SeConfig { seed: 21, selection_bias: -0.1, ..Default::default() })
                    .run(&inst, &RunBudget::iterations(15), None)
            })
        };
        let baseline = run(1);
        // More than half the grids of the final solution fan out.
        let g = inst.graph();
        let mut positions: Vec<usize> = g
            .tasks()
            .map(|t| {
                let (lo, hi) = baseline.solution.valid_range(g, t);
                hi - lo + 1
            })
            .collect();
        positions.sort_unstable();
        let median = positions[tasks / 2];
        assert!(median * machines * tasks >= 16_384, "median grid of {median} positions");
        assert!(baseline.scan.scored > 0, "the scans must score");
        assert_eq!(
            (baseline.scan.pruned, baseline.scan.spliced),
            (0, 0),
            "best-fit scans run on lanes, without bounds or splices"
        );
        for threads in [2usize, 8] {
            let r = run(threads);
            assert_eq!(r.solution, baseline.solution, "{threads} threads");
            assert_eq!(r.makespan.to_bits(), baseline.makespan.to_bits(), "{threads} threads");
            assert_eq!(r.evaluations, baseline.evaluations, "{threads} threads");
            assert_eq!(r.scan, baseline.scan, "{threads} threads");
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
    fn adaptive_bias_tracks_target_fraction() {
        use crate::config::AdaptiveBias;
        let inst = random_instance(40, 5, 18);
        let target = 0.25;
        let mut se = SeScheduler::new(SeConfig {
            seed: 6,
            selection_bias: 0.0,
            adaptive_bias: Some(AdaptiveBias { target_fraction: target, gain: 0.08 }),
            ..Default::default()
        });
        let mut trace = Trace::new();
        let r = se.run(&inst, &RunBudget::iterations(120), Some(&mut trace));
        r.solution.check(inst.graph()).unwrap();
        // Mean selection fraction over the second half of the run should
        // hover near the target; a fixed bias on the same instance drifts
        // to near-zero selection as goodness saturates.
        let tail: Vec<f64> =
            trace.records()[60..].iter().map(|rec| rec.selected.unwrap() as f64 / 40.0).collect();
        let mean = tail.iter().sum::<f64>() / tail.len() as f64;
        assert!(
            (mean - target).abs() < 0.12,
            "adaptive selection fraction {mean} should track target {target}"
        );
    }

    #[test]
    fn no_prune_runs_are_bit_identical() {
        // The bounded/spliced fast path is a pure cost knob: whole SE
        // runs match with it off, solutions and evaluation counts
        // included.
        let inst = random_instance(24, 4, 51);
        let cfg = SeConfig { seed: 9, ..Default::default() };
        let on = SeScheduler::new(cfg).run(&inst, &RunBudget::iterations(15), None);
        let off =
            SeScheduler::new(cfg).run(&inst, &RunBudget::iterations(15).with_prune(false), None);
        assert_eq!(on.solution, off.solution);
        assert_eq!(on.makespan, off.makespan);
        assert_eq!(on.evaluations, off.evaluations, "evaluation-count contract");
        assert!(on.scan.scored > 0, "best-fit scans incrementally");
        assert_eq!(on.scan.scored, off.scan.scored);
        assert_eq!(off.scan.pruned, 0, "no-prune must not prune");
        assert_eq!(off.scan.spliced, 0, "no-prune must not splice");
    }

    #[test]
    fn incremental_eval_matches_full_eval_runs() {
        // The suffix-checkpoint fast path must not change a single
        // decision: whole runs are bit-identical with the flag on/off.
        for seed in [3u64, 17, 91] {
            let inst = random_instance(22, 4, seed);
            let fast =
                SeScheduler::new(SeConfig { seed, incremental_eval: true, ..Default::default() })
                    .run(&inst, &RunBudget::iterations(20), None);
            let slow =
                SeScheduler::new(SeConfig { seed, incremental_eval: false, ..Default::default() })
                    .run(&inst, &RunBudget::iterations(20), None);
            assert_eq!(fast.solution, slow.solution, "seed {seed}");
            assert_eq!(fast.makespan, slow.makespan);
        }
    }

    #[test]
    fn budget_limits_iterations_and_stall() {
        let inst = random_instance(15, 3, 7);
        let mut se = SeScheduler::with_seed(1);
        let r = se.run(&inst, &RunBudget::iterations(8), None);
        assert_eq!(r.iterations, 8);

        let r = se.run(&inst, &RunBudget::iterations(10_000).with_stall(5), None);
        assert!(r.iterations < 10_000, "stall window must cut the run short");
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
            ..Default::default()
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
    fn y_larger_than_machine_count_clamps() {
        let inst = random_instance(12, 3, 12);
        let mut se =
            SeScheduler::new(SeConfig { seed: 1, y_limit: Some(99), ..Default::default() });
        let r = se.run(&inst, &RunBudget::iterations(5), None);
        r.solution.check(inst.graph()).unwrap();
    }

    #[test]
    fn first_improvement_strategy_runs_and_is_valid() {
        let inst = random_instance(20, 3, 14);
        let best_fit = SeScheduler::new(SeConfig { seed: 5, ..Default::default() }).run(
            &inst,
            &RunBudget::iterations(20),
            None,
        );
        let first = SeScheduler::new(SeConfig {
            seed: 5,
            allocation: AllocationStrategy::FirstImprovement,
            ..Default::default()
        })
        .run(&inst, &RunBudget::iterations(20), None);
        first.solution.check(inst.graph()).unwrap();
        assert!(
            first.evaluations <= best_fit.evaluations,
            "first-improvement must not evaluate more than best-fit"
        );
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
        assert!(stopped.early_stopped, "floor hit must flag the stop");
        assert!(!full.early_stopped, "disabled early stop never flags");
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
        assert!(!r.early_stopped);
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
