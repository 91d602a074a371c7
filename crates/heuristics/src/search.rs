//! Iterative metaheuristic baselines: random search, simulated annealing
//! and tabu search over the same valid-range move neighborhood SE uses.
//!
//! All three optimize whatever [`ObjectiveKind`] the run budget carries.
//! The move-based searches are move-oriented end to end: SA scores each
//! proposal through an [`IncrementalEvaluator`] (suffix replay against
//! the primed current solution — no mutate/undo per rejected proposal),
//! and tabu scores each iteration's sampled neighborhood through the
//! parallel [`BatchEvaluator`] in one call (which routes through
//! per-thread incremental evaluators itself).

use mshc_platform::{HcInstance, MachineId};
use mshc_schedule::{
    random_solution, run_stepped, BatchEvaluator, EvalSnapshot, Evaluator, IncrementalEvaluator,
    Incumbent, ObjectiveKind, RunBudget, RunLedger, RunResult, ScanStats, Scheduler, SearchStep,
    Solution, StepVerdict, SteppableSearch,
};
use mshc_taskgraph::TaskId;
use mshc_trace::Trace;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// Uniformly samples a neighbor move `(task, position, machine)` from the
/// valid-range neighborhood of `sol` **without applying it** — the
/// move-oriented searches score moves against the unmutated base.
///
/// The RNG consumption order (task, position, machine) is pinned: it is
/// what keeps the incremental SA bit-identical to the historic
/// mutate-evaluate-undo loop.
fn sample_move<R: Rng + ?Sized>(
    sol: &Solution,
    inst: &HcInstance,
    rng: &mut R,
) -> (TaskId, usize, MachineId) {
    let t = TaskId::from_usize(rng.gen_range(0..inst.task_count()));
    let (lo, hi) = sol.valid_range(inst.graph(), t);
    let pos = rng.gen_range(lo..=hi);
    let m = MachineId::from_usize(rng.gen_range(0..inst.machine_count()));
    (t, pos, m)
}

/// Pure random restarts: sample fresh random valid solutions, keep the
/// best. The weakest sensible baseline; everything else should beat it.
#[derive(Debug, Clone)]
pub struct RandomSearch {
    seed: u64,
}

impl RandomSearch {
    /// Creates the search with a seed.
    pub fn new(seed: u64) -> RandomSearch {
        RandomSearch { seed }
    }
}

impl Scheduler for RandomSearch {
    fn name(&self) -> &str {
        "random"
    }

    fn run(
        &mut self,
        inst: &HcInstance,
        budget: &RunBudget,
        trace: Option<&mut Trace>,
    ) -> RunResult {
        budget.validate().expect("random search needs a budget");
        run_stepped(self, inst, budget, trace)
    }
}

impl SteppableSearch for RandomSearch {
    fn start<'a>(&mut self, inst: &'a HcInstance, budget: &RunBudget) -> Box<dyn SearchStep + 'a> {
        let clock = Instant::now();
        let objective = budget.objective;
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let snapshot = EvalSnapshot::new(inst);
        let best = random_solution(inst, &mut rng);
        let mut eval = Evaluator::with_snapshot(&snapshot);
        let best_cost = eval.objective_value(&best, &objective);
        let passes = eval.evaluations();
        let start = ScanStats::passes(passes);
        let mut ledger = RunLedger::new(inst, budget, clock, best, best_cost, passes, start);
        // The initial solution counts as iteration 1.
        ledger.count_iteration();
        Box::new(RandomState { inst, objective, rng, snapshot, ledger })
    }
}

/// A paused random-restart run.
struct RandomState<'a> {
    inst: &'a HcInstance,
    objective: ObjectiveKind,
    rng: ChaCha8Rng,
    snapshot: EvalSnapshot,
    ledger: RunLedger,
}

impl SearchStep for RandomState<'_> {
    fn name(&self) -> &str {
        "random"
    }

    fn step(&mut self, max_iterations: u64, mut trace: Option<&mut Trace>) -> StepVerdict {
        let mut eval = Evaluator::with_snapshot(&self.snapshot);
        self.ledger.open_slice(max_iterations);
        while self.ledger.proceed(eval.evaluations()) {
            let cand = random_solution(self.inst, &mut self.rng);
            let cost = eval.objective_value(&cand, &self.objective);
            self.ledger.record(&cand, cost);
            if let Some(tr) = trace.as_deref_mut() {
                tr.push(self.ledger.trace_record(eval.evaluations(), cost));
            }
        }
        self.ledger.close_slice(eval.evaluations(), ScanStats::passes(eval.evaluations()))
    }

    fn incumbent(&self) -> Option<Incumbent<'_>> {
        Some(self.ledger.incumbent())
    }

    fn inject(&mut self, migrant: &Solution, cost: f64) {
        // Restarts share no working state; a better migrant simply
        // becomes the incumbent.
        self.ledger.offer(migrant, cost);
    }

    fn result(&mut self) -> RunResult {
        self.ledger.result(&self.snapshot)
    }
}

/// SA's initial temperature as a fraction of the initial solution's
/// cost, so that at first a proposal worse by a fifth of that cost is
/// accepted with probability `1/e`. Like [`SA_COOLING`], a setting of
/// this baseline, not of a published SA.
const SA_INITIAL_TEMP_FRACTION: f64 = 0.2;
/// SA's geometric cooling factor per iteration: the temperature falls
/// by a factor `e` about every 1,000 iterations.
const SA_COOLING: f64 = 0.999;

/// Simulated annealing over the valid-range move neighborhood (the
/// Flan/Freund-style genetic-simulated-annealing lineage the paper cites
/// as \[8\], reduced to its SA core).
///
/// Proposals are scored through an [`IncrementalEvaluator`] primed on
/// the current solution: a rejected proposal costs only a suffix replay
/// (and no mutate/undo), an accepted one re-primes the evaluator. The
/// trajectory is bit-identical to the historic full-evaluation loop for
/// the makespan objective.
#[derive(Debug, Clone)]
pub struct SimulatedAnnealing {
    seed: u64,
}

impl SimulatedAnnealing {
    /// Creates the scheduler with a seed.
    pub fn new(seed: u64) -> SimulatedAnnealing {
        SimulatedAnnealing { seed }
    }
}

impl Scheduler for SimulatedAnnealing {
    fn name(&self) -> &str {
        "sa"
    }

    fn run(
        &mut self,
        inst: &HcInstance,
        budget: &RunBudget,
        trace: Option<&mut Trace>,
    ) -> RunResult {
        budget.validate().expect("SA needs a budget");
        run_stepped(self, inst, budget, trace)
    }
}

impl SteppableSearch for SimulatedAnnealing {
    fn start<'a>(&mut self, inst: &'a HcInstance, budget: &RunBudget) -> Box<dyn SearchStep + 'a> {
        let clock = Instant::now();
        let objective = budget.objective;
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let snapshot = EvalSnapshot::new(inst);
        let current = random_solution(inst, &mut rng);
        let current_cost = {
            let mut inc = IncrementalEvaluator::with_snapshot(&snapshot);
            inc.prime(&current);
            inc.base_score(&objective)
        };
        let temp = current_cost.max(f64::MIN_POSITIVE) * SA_INITIAL_TEMP_FRACTION;
        // The evaluation count is `1 + proposals`: one for the initial
        // priming pass, one per proposal. Re-primes (on acceptance and at
        // slice starts) are uncounted cache rebuilds, keeping the axis
        // identical to the historic full-pass loop however the run is
        // sliced.
        let (best, start) = (current.clone(), ScanStats::default());
        let ledger = RunLedger::new(inst, budget, clock, best, current_cost, 1, start);
        Box::new(SaState { inst, objective, rng, snapshot, current, current_cost, temp, ledger })
    }
}

/// A paused SA run: the annealing trajectory (current solution,
/// temperature) plus its run ledger.
struct SaState<'a> {
    inst: &'a HcInstance,
    objective: ObjectiveKind,
    rng: ChaCha8Rng,
    snapshot: EvalSnapshot,
    current: Solution,
    current_cost: f64,
    temp: f64,
    ledger: RunLedger,
}

impl SearchStep for SaState<'_> {
    fn name(&self) -> &str {
        "sa"
    }

    fn step(&mut self, max_iterations: u64, mut trace: Option<&mut Trace>) -> StepVerdict {
        let mut inc = IncrementalEvaluator::with_snapshot(&self.snapshot);
        inc.prime(&self.current);
        self.ledger.open_slice(max_iterations);
        while self.ledger.proceed(inc.evaluations()) {
            // Propose a move and score it by suffix replay — the current
            // solution is only mutated on acceptance.
            let (t, pos, m) = sample_move(&self.current, self.inst, &mut self.rng);
            let cand_cost = inc.score_move(t, pos, m, &self.objective);
            let accept = cand_cost <= self.current_cost
                || self.rng.gen::<f64>()
                    < ((self.current_cost - cand_cost) / self.temp.max(1e-12)).exp();
            if accept {
                self.current.move_task(self.inst.graph(), t, pos, m).expect("in-range move");
                self.current_cost = cand_cost;
                inc.prime(&self.current);
            }
            self.ledger.record(&self.current, self.current_cost);
            self.temp *= SA_COOLING;
            if let Some(tr) = trace.as_deref_mut() {
                tr.push(self.ledger.trace_record(inc.evaluations(), self.current_cost));
            }
        }
        self.ledger.close_slice(inc.evaluations(), inc.stats())
    }

    fn incumbent(&self) -> Option<Incumbent<'_>> {
        Some(self.ledger.incumbent())
    }

    fn inject(&mut self, migrant: &Solution, cost: f64) {
        // Adopt a better migrant as the annealing point; the temperature
        // schedule continues undisturbed and the next slice re-primes on
        // the adopted solution (uncounted, like any re-prime).
        if cost < self.current_cost {
            self.current.clone_from(migrant);
            self.current_cost = cost;
            self.ledger.offer(migrant, cost);
        }
    }

    fn result(&mut self) -> RunResult {
        self.ledger.result(&self.snapshot)
    }
}

/// Iterations a moved task stays tabu. Like [`TABU_SAMPLES`], a setting
/// of this baseline, not of a published tabu search.
const TABU_TENURE: u64 = 8;
/// Neighbor moves tabu samples per iteration.
const TABU_SAMPLES: usize = 24;

/// Sampled-neighborhood tabu search: each iteration samples
/// `TABU_SAMPLES` (24) moves, resolves the whole sample in one
/// [`BatchEvaluator::best_task_move`] scan (tabu moves contend only
/// through the aspiration criterion: beating the global best), applies
/// the winner and marks the moved task tabu for `TABU_TENURE` (8)
/// iterations.
/// Moves are drawn *before* any is scored, and the scan selects exactly
/// what the historic score-everything-then-pick loop selected —
/// bit-identical at any thread count, with the same evaluation count.
#[derive(Debug, Clone)]
pub struct TabuSearch {
    seed: u64,
}

impl TabuSearch {
    /// Creates the scheduler with a seed.
    pub fn new(seed: u64) -> TabuSearch {
        TabuSearch { seed }
    }
}

impl Scheduler for TabuSearch {
    fn name(&self) -> &str {
        "tabu"
    }

    fn run(
        &mut self,
        inst: &HcInstance,
        budget: &RunBudget,
        trace: Option<&mut Trace>,
    ) -> RunResult {
        budget.validate().expect("tabu search needs a budget");
        run_stepped(self, inst, budget, trace)
    }
}

impl SteppableSearch for TabuSearch {
    fn start<'a>(&mut self, inst: &'a HcInstance, budget: &RunBudget) -> Box<dyn SearchStep + 'a> {
        let clock = Instant::now();
        let objective = budget.objective;
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let snapshot = EvalSnapshot::new(inst);
        let current = random_solution(inst, &mut rng);
        let mut eval = Evaluator::with_snapshot(&snapshot);
        let current_cost = eval.objective_value(&current, &objective);
        let (best, passes) = (current.clone(), eval.evaluations());
        let start = ScanStats::passes(passes);
        let ledger = RunLedger::new(inst, budget, clock, best, current_cost, passes, start);
        Box::new(TabuState {
            inst,
            objective,
            rng,
            snapshot,
            current,
            current_cost,
            tabu_until: vec![0u64; inst.task_count()],
            sampled: Vec::with_capacity(TABU_SAMPLES),
            admissible: Vec::with_capacity(TABU_SAMPLES),
            ledger,
        })
    }
}

/// A paused tabu run: trajectory, tabu tenures and the run ledger.
struct TabuState<'a> {
    inst: &'a HcInstance,
    objective: ObjectiveKind,
    rng: ChaCha8Rng,
    snapshot: EvalSnapshot,
    current: Solution,
    current_cost: f64,
    /// The ledger iteration count at which each task stops being tabu.
    tabu_until: Vec<u64>,
    sampled: Vec<(TaskId, usize, MachineId)>,
    /// Per-sample non-tabu mask for the argmin scan, rebuilt each
    /// iteration.
    admissible: Vec<bool>,
    ledger: RunLedger,
}

impl SearchStep for TabuState<'_> {
    fn name(&self) -> &str {
        "tabu"
    }

    fn step(&mut self, max_iterations: u64, mut trace: Option<&mut Trace>) -> StepVerdict {
        let g = self.inst.graph();
        let mut batch = BatchEvaluator::new(&self.snapshot);
        self.ledger.open_slice(max_iterations);
        while self.ledger.proceed(batch.evaluations()) {
            // Sample the neighborhood, then score the whole sample at once.
            self.sampled.clear();
            for _ in 0..TABU_SAMPLES {
                let t = TaskId::from_usize(self.rng.gen_range(0..self.inst.task_count()));
                let (lo, hi) = self.current.valid_range(g, t);
                let pos = self.rng.gen_range(lo..=hi);
                let m = MachineId::from_usize(self.rng.gen_range(0..self.inst.machine_count()));
                self.sampled.push((t, pos, m));
            }
            // Tabu status is a pure function of the tenure table, so it
            // is known before scoring; the scan applies the aspiration
            // rule to the exact scores.
            let now = self.ledger.iterations();
            self.admissible.clear();
            self.admissible
                .extend(self.sampled.iter().map(|&(t, _, _)| self.tabu_until[t.index()] <= now));
            let chosen = batch.best_task_move(
                &self.current,
                &self.sampled,
                Some(&self.admissible),
                self.ledger.incumbent().cost,
                &self.objective,
            );
            if let Some(best) = chosen {
                let (t, pos, m) = self.sampled[best.index];
                self.current.move_task(g, t, pos, m).expect("apply chosen");
                self.current_cost = best.score;
                self.tabu_until[t.index()] = now + TABU_TENURE;
            }
            // With no admissible move the current solution stands, and
            // it never beats the incumbent: the iteration stalls.
            self.ledger.record(&self.current, self.current_cost);
            if let Some(tr) = trace.as_deref_mut() {
                tr.push(self.ledger.trace_record(batch.evaluations(), self.current_cost));
            }
        }
        self.ledger.close_slice(batch.evaluations(), batch.scan_stats())
    }

    fn incumbent(&self) -> Option<Incumbent<'_>> {
        Some(self.ledger.incumbent())
    }

    fn inject(&mut self, migrant: &Solution, cost: f64) {
        // Move the trajectory to a better migrant; tenures keep ticking
        // so recently-moved tasks stay tabu around the adopted point.
        if cost < self.current_cost {
            self.current.clone_from(migrant);
            self.current_cost = cost;
            self.ledger.offer(migrant, cost);
        }
    }

    fn result(&mut self) -> RunResult {
        self.ledger.result(&self.snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mshc_platform::{HcSystem, Matrix};
    use mshc_taskgraph::gen::{layered, LayeredConfig};

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
    fn random_search_finds_valid_solutions() {
        let inst = random_instance(20, 3, 31);
        let mut rs = RandomSearch::new(1);
        let r = rs.run(&inst, &RunBudget::iterations(100), None);
        r.solution.check(inst.graph()).unwrap();
        assert_eq!(r.iterations, 100);
        assert_eq!(rs.name(), "random");
    }

    #[test]
    fn sa_improves_on_its_own_start_and_is_valid() {
        let inst = random_instance(25, 4, 32);
        let mut sa = SimulatedAnnealing::new(2);
        let mut trace = Trace::new();
        let r = sa.run(&inst, &RunBudget::iterations(2_000), Some(&mut trace));
        r.solution.check(inst.graph()).unwrap();
        let first = trace.records()[0].current_cost;
        assert!(r.makespan < first, "SA best {} must beat its start {first}", r.makespan);
        assert_eq!(sa.name(), "sa");
    }

    #[test]
    fn sa_rejected_moves_are_undone_correctly() {
        // Validity after thousands of accept/undo cycles is the regression
        // this guards.
        let inst = random_instance(15, 3, 33);
        let mut sa = SimulatedAnnealing::new(3);
        let r = sa.run(&inst, &RunBudget::iterations(3_000), None);
        r.solution.check(inst.graph()).unwrap();
        let mk = Evaluator::new(&inst).makespan(&r.solution);
        assert!((mk - r.makespan).abs() < 1e-9);
    }

    #[test]
    fn tabu_valid_and_beats_random_start() {
        let inst = random_instance(25, 4, 34);
        let mut ts = TabuSearch::new(4);
        let mut trace = Trace::new();
        let r = ts.run(&inst, &RunBudget::iterations(300), Some(&mut trace));
        r.solution.check(inst.graph()).unwrap();
        assert!(r.makespan < trace.records()[0].current_cost * 1.001);
        assert_eq!(ts.name(), "tabu");
    }

    #[test]
    fn metaheuristics_deterministic_under_seed() {
        let inst = random_instance(15, 3, 35);
        let budget = RunBudget::iterations(200);
        let a = SimulatedAnnealing::new(7).run(&inst, &budget, None);
        let b = SimulatedAnnealing::new(7).run(&inst, &budget, None);
        assert_eq!(a.solution, b.solution);
        let c = TabuSearch::new(7).run(&inst, &budget, None);
        let d = TabuSearch::new(7).run(&inst, &budget, None);
        assert_eq!(c.solution, d.solution);
        let e = RandomSearch::new(7).run(&inst, &budget, None);
        let f = RandomSearch::new(7).run(&inst, &budget, None);
        assert_eq!(e.solution, f.solution);
    }

    #[test]
    fn tabu_is_bit_identical_across_thread_counts() {
        // Batch-scored neighborhoods must reproduce the historic
        // move-eval-undo loop exactly, at any worker-thread count.
        let inst = random_instance(20, 4, 36);
        let budget = RunBudget::iterations(120);
        let baseline = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap()
            .install(|| TabuSearch::new(9).run(&inst, &budget, None));
        for threads in [2usize, 8] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            let r = pool.install(|| TabuSearch::new(9).run(&inst, &budget, None));
            assert_eq!(r.solution, baseline.solution, "{threads} threads");
            assert_eq!(r.makespan, baseline.makespan, "{threads} threads");
            assert_eq!(r.evaluations, baseline.evaluations, "{threads} threads");
            assert_eq!(r.scan, baseline.scan, "{threads} threads");
        }
        assert_eq!(baseline.scan.scored, baseline.iterations * 24, "one scoring per sampled move");
    }

    #[test]
    fn metaheuristics_optimize_alternate_objectives() {
        use mshc_schedule::{objective_from_report, replay, ObjectiveKind};
        let inst = random_instance(18, 3, 37);
        let kind = ObjectiveKind::TotalFlowtime;
        let budget = RunBudget::iterations(150).with_objective(kind);
        let runs: Vec<RunResult> = vec![
            RandomSearch::new(2).run(&inst, &budget, None),
            SimulatedAnnealing::new(2).run(&inst, &budget, None),
            TabuSearch::new(2).run(&inst, &budget, None),
        ];
        for r in runs {
            r.solution.check(inst.graph()).unwrap();
            let sim = replay(&inst, &r.solution).unwrap();
            assert!((r.objective_value - objective_from_report(&kind, &sim)).abs() < 1e-9);
            assert!((r.makespan - sim.makespan).abs() < 1e-9);
        }
    }

    #[test]
    fn stepped_runs_match_plain_runs_at_any_slice_size() {
        // The cooperative interface must not perturb any trajectory:
        // stepping in arbitrary slices reproduces the plain run bit for
        // bit, evaluation counts included, for all three metaheuristics.
        let inst = random_instance(18, 3, 40);
        let budget = RunBudget::iterations(150);
        type MakeSearch = Box<dyn Fn() -> Box<dyn SteppableSearch>>;
        let checks: Vec<(MakeSearch, &str)> = vec![
            (Box::new(|| Box::new(SimulatedAnnealing::new(6))), "sa"),
            (Box::new(|| Box::new(TabuSearch::new(6))), "tabu"),
            (Box::new(|| Box::new(RandomSearch::new(6))), "random"),
        ];
        for (make, name) in checks {
            let plain = make().run(&inst, &budget, None);
            for slice in [1u64, 7, 64] {
                let mut algo = make();
                let mut state = algo.start(&inst, &budget);
                assert_eq!(state.name(), name);
                assert!(state.incumbent().is_some(), "{name} has an incumbent from the start");
                while !state.step(slice, None).is_exhausted() {}
                let stepped = state.result();
                assert_eq!(stepped.solution, plain.solution, "{name} slice {slice}");
                assert_eq!(stepped.makespan, plain.makespan, "{name} slice {slice}");
                assert_eq!(stepped.evaluations, plain.evaluations, "{name} slice {slice}");
                assert_eq!(stepped.iterations, plain.iterations, "{name} slice {slice}");
            }
        }
    }

    #[test]
    fn inject_improving_migrant_steers_sa_and_tabu() {
        let inst = random_instance(20, 3, 41);
        let budget = RunBudget::iterations(400);
        // A strong donor from an independent longer run.
        let donor = TabuSearch::new(13).run(&inst, &RunBudget::iterations(600), None);
        let searches: Vec<Box<dyn SteppableSearch>> = vec![
            Box::new(SimulatedAnnealing::new(8)),
            Box::new(TabuSearch::new(8)),
            Box::new(RandomSearch::new(8)),
        ];
        for mut algo in searches {
            let mut state = algo.start(&inst, &budget);
            let _ = state.step(10, None);
            state.inject(&donor.solution, donor.objective_value);
            let inc = state.incumbent().expect("incumbent");
            assert!(
                inc.cost <= donor.objective_value,
                "{}: incumbent {} must match/beat the migrant {}",
                state.name(),
                inc.cost,
                donor.objective_value
            );
            while !state.step(u64::MAX, None).is_exhausted() {}
            let r = state.result();
            r.solution.check(inst.graph()).unwrap();
            assert!(r.objective_value <= donor.objective_value + 1e-9);
        }
    }
}
