//! The GA generation loop: roulette-select → crossover → mutate, with
//! elitism, each generation bred and scored in one overlapped pass.
//!
//! *Why breeding is serial.* A run is a pure function of its seed, and
//! the RNG draw order is the contract (the comment in the generation
//! loop lists it). The number of RNG words a child takes depends on the
//! child itself: `gen_range` rejects and redraws a word that would bias
//! its result, with a rejection zone set by the range's width, and the
//! scheduling mutation draws its position from the child's valid range,
//! which depends on the crossover before it. So child `i + 1`'s first
//! draw is known only once child `i` is bred, and the children are bred
//! one after another on the calling thread.
//!
//! *Why the overlap cannot change a bit.* Scoring consumes no RNG and
//! writes nothing breeding reads. A child is scored only after it is
//! published, and breeding never touches it again. Each score is either
//! the donor's known cost for an exact clone, or one full pass over the
//! child, and a pass depends on the child alone. So neither which
//! thread scores a child nor when it does so can change a fitness
//! value, a selection, a solution or a counter.

use crate::config::GaConfig;
use crate::operators::{crossover, mutate_matching, random_individual, seeded_individual, Wheel};
use mshc_platform::HcInstance;
use mshc_schedule::{
    perturb, run_stepped, BatchEvaluator, EvalSnapshot, Incumbent, ObjectiveKind, RunBudget,
    RunLedger, RunResult, Scheduler, SearchStep, Solution, StepVerdict, SteppableSearch,
};
use mshc_trace::{Trace, TraceRecord};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// Probability that a bred child is the crossover of its two parents
/// rather than a copy of the first (Wang et al., JPDC 1997).
const CROSSOVER_PROB: f64 = 0.6;
/// Probability that a child undergoes scheduling mutation (Wang et al.).
const SCHED_MUTATION_PROB: f64 = 0.4;
/// Probability that a child undergoes matching mutation (Wang et al.).
const MATCH_MUTATION_PROB: f64 = 0.4;

/// The Wang et al. genetic-algorithm scheduler.
#[derive(Debug, Clone)]
pub struct GaScheduler {
    config: GaConfig,
}

impl GaScheduler {
    /// Creates a scheduler; panics on invalid configuration.
    pub fn new(config: GaConfig) -> GaScheduler {
        config.validate();
        GaScheduler { config }
    }

    /// Defaults with a specific seed.
    pub fn with_seed(seed: u64) -> GaScheduler {
        GaScheduler::new(GaConfig::default().with_seed(seed))
    }

    /// The configuration.
    pub fn config(&self) -> &GaConfig {
        &self.config
    }
}

impl Scheduler for GaScheduler {
    fn name(&self) -> &str {
        "ga"
    }

    fn run(
        &mut self,
        inst: &HcInstance,
        budget: &RunBudget,
        trace: Option<&mut Trace>,
    ) -> RunResult {
        budget.validate().expect("GA is an anytime algorithm");
        // One maximal slice of the stepped state machine — plain and
        // stepped runs are the same code path, hence bit-identical.
        run_stepped(self, inst, budget, trace)
    }
}

impl SteppableSearch for GaScheduler {
    fn start<'a>(&mut self, inst: &'a HcInstance, budget: &RunBudget) -> Box<dyn SearchStep + 'a> {
        let clock = Instant::now();
        let cfg = self.config;
        let objective = budget.objective;
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let snapshot = EvalSnapshot::new(inst);

        // ---- initial population ----
        // Generation 0 has no parents: every individual takes a full
        // pass. From generation 1 on, `breed_population` scores each
        // child as it is bred, and a child equal to its donor (an elite,
        // or parent A when crossover and mutation reproduced it) takes
        // the donor's cost.
        // One chromosome is seeded with the fast baseline heuristic
        // (topological order + best machine per task), as in Wang et al.
        let mut pop: Vec<Solution> =
            (0..cfg.population).map(|_| random_individual(inst, &mut rng)).collect();
        pop[0] = seeded_individual(inst);
        let mut batch = BatchEvaluator::new(&snapshot);
        let costs = batch.scores(&pop, &objective);
        let best_idx = argmin(&costs);
        let best = pop[best_idx].clone();
        let (evaluations, start) = (batch.evaluations(), batch.scan_stats());
        let ledger = RunLedger::new(inst, budget, clock, best, costs[best_idx], evaluations, start);

        Box::new(GaState {
            inst,
            objective,
            rng,
            snapshot,
            next: pop.clone(),
            pop,
            costs,
            wheel: Wheel::default(),
            ledger,
        })
    }
}

/// A paused GA run: the population with its fitness, and the run
/// ledger, whose incumbent is the best individual seen.
struct GaState<'a> {
    inst: &'a HcInstance,
    objective: ObjectiveKind,
    rng: ChaCha8Rng,
    snapshot: EvalSnapshot,
    /// The current generation and its fitness, index for index.
    pop: Vec<Solution>,
    costs: Vec<f64>,
    /// The buffers the next generation is bred into; swapped with `pop`
    /// after every generation.
    next: Vec<Solution>,
    /// The current generation's roulette weights.
    wheel: Wheel,
    ledger: RunLedger,
}

impl SearchStep for GaState<'_> {
    fn name(&self) -> &str {
        "ga"
    }

    fn step(&mut self, max_iterations: u64, mut trace: Option<&mut Trace>) -> StepVerdict {
        let g = self.inst.graph();
        let k = self.inst.task_count();
        let mut batch = BatchEvaluator::new(&self.snapshot);
        self.ledger.open_slice(max_iterations);
        while self.ledger.proceed(batch.evaluations()) {
            // ---- next generation ----
            // Elitism (Wang et al.): the single best chromosome, the
            // first of equal costs, is carried over unchanged as child 0.
            let elite = argmin(&self.costs);
            self.wheel.load(&self.costs);
            let (pop, wheel, rng) = (&self.pop, &self.wheel, &mut self.rng);
            let breed = |i: usize, child: &mut Solution| {
                if i == 0 {
                    child.clone_from(&pop[elite]);
                    return elite;
                }
                // RNG consumption order is the fitness-bit contract:
                // roulette(pa), roulette(pb), crossover draw (+cuts),
                // sched-mutation draw (+task,pos), match-mutation draw
                // (+task,machine).
                let ia = wheel.pick(rng);
                let ib = wheel.pick(rng);
                if rng.gen::<f64>() < CROSSOVER_PROB {
                    let cut_s = rng.gen_range(0..=k);
                    let cut_m = rng.gen_range(0..=k);
                    crossover(child, g, &pop[ia], &pop[ib], cut_s, cut_m);
                } else {
                    child.clone_from(&pop[ia]);
                }
                if rng.gen::<f64>() < SCHED_MUTATION_PROB {
                    perturb(child, g, rng);
                }
                if rng.gen::<f64>() < MATCH_MUTATION_PROB {
                    mutate_matching(child, rng);
                }
                // The donor a clone is checked against: parent A.
                ia
            };
            self.costs = batch.breed_population(
                &self.pop,
                &self.costs,
                &mut self.next,
                breed,
                &self.objective,
            );
            std::mem::swap(&mut self.pop, &mut self.next);

            let best_idx = argmin(&self.costs);
            self.ledger.record(&self.pop[best_idx], self.costs[best_idx]);
            if let Some(tr) = trace.as_deref_mut() {
                let mean = self.costs.iter().sum::<f64>() / self.costs.len() as f64;
                tr.push(TraceRecord {
                    population_mean: Some(mean),
                    ..self.ledger.trace_record(batch.evaluations(), self.costs[best_idx])
                });
            }
        }
        self.ledger.close_slice(batch.evaluations(), batch.scan_stats())
    }

    fn incumbent(&self) -> Option<Incumbent<'_>> {
        Some(self.ledger.incumbent())
    }

    fn inject(&mut self, migrant: &Solution, cost: f64) {
        // Replace the worst chromosome when the migrant beats it; the
        // injected individual then competes through elitism and roulette
        // like any other. No RNG is consumed and no evaluation counted
        // (the cost arrives precomputed under the shared objective).
        let worst = self
            .costs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1).then(b.0.cmp(&a.0)))
            .map(|(i, _)| i)
            .expect("non-empty population");
        if cost < self.costs[worst] {
            self.pop[worst].clone_from(migrant);
            self.costs[worst] = cost;
            self.ledger.offer(migrant, cost);
        }
    }

    fn result(&mut self) -> RunResult {
        self.ledger.result(&self.snapshot)
    }
}

fn argmin(costs: &[f64]) -> usize {
    costs
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1).then(a.0.cmp(&b.0)))
        .map(|(i, _)| i)
        .expect("non-empty population")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mshc_platform::{HcSystem, Matrix};
    use mshc_schedule::{replay, Evaluator};
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
    fn ga_improves_over_random_baseline() {
        let inst = random_instance(30, 4, 21);
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let mut eval = Evaluator::new(&inst);
        let baseline: f64 = (0..20)
            .map(|_| eval.makespan(&mshc_schedule::random_solution(&inst, &mut rng)))
            .sum::<f64>()
            / 20.0;
        let mut ga = GaScheduler::with_seed(3);
        let r = ga.run(&inst, &RunBudget::iterations(60), None);
        assert!(r.makespan < baseline, "GA ({}) must beat random mean ({baseline})", r.makespan);
    }

    #[test]
    fn ga_result_valid_and_matches_replay() {
        let inst = random_instance(25, 3, 22);
        let mut ga = GaScheduler::with_seed(4);
        let r = ga.run(&inst, &RunBudget::iterations(30), None);
        r.solution.check(inst.graph()).unwrap();
        let sim = replay(&inst, &r.solution).unwrap();
        assert!((sim.makespan - r.makespan).abs() < 1e-9);
    }

    #[test]
    fn ga_is_deterministic_under_seed() {
        let inst = random_instance(20, 3, 23);
        let a = GaScheduler::with_seed(7).run(&inst, &RunBudget::iterations(20), None);
        let b = GaScheduler::with_seed(7).run(&inst, &RunBudget::iterations(20), None);
        assert_eq!(a.solution, b.solution);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.makespan, a.objective_value, "default objective is makespan");
    }

    #[test]
    fn ga_is_bit_identical_across_thread_counts() {
        // Batch population fitness must not perturb a single GA decision,
        // whatever the worker-thread count.
        let inst = random_instance(20, 3, 28);
        let budget = RunBudget::iterations(15);
        let baseline = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap()
            .install(|| GaScheduler::with_seed(5).run(&inst, &budget, None));
        for threads in [2usize, 8] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            let r = pool.install(|| GaScheduler::with_seed(5).run(&inst, &budget, None));
            assert_eq!(r.solution, baseline.solution, "{threads} threads");
            assert_eq!(r.makespan, baseline.makespan, "{threads} threads");
            assert_eq!(r.evaluations, baseline.evaluations, "{threads} threads");
        }
    }

    #[test]
    fn clone_shortcut_serves_exactly_the_clones() {
        // Every generation scores `population` children; the ones equal
        // to their prefix donor (at least the elite) take the donor's
        // cost, the rest one full pass each, and nothing is scored on
        // tier 3. The population axes count exactly those clones.
        let inst = random_instance(24, 4, 61);
        let k = inst.task_count() as u64;
        let weighted = ObjectiveKind::Weighted { makespan: 1.0, flowtime: 0.3, balance: 0.7 };
        for kind in [ObjectiveKind::Makespan, ObjectiveKind::TotalFlowtime, weighted] {
            let budget = RunBudget::iterations(12).with_objective(kind);
            let r = GaScheduler::with_seed(3).run(&inst, &budget, None);
            let cfg = GaConfig::default();
            let children = r.iterations * cfg.population as u64;
            assert_eq!(r.evaluations, cfg.population as u64 + children, "{}", kind.label());
            assert_eq!(r.scan.scored, 0, "{}", kind.label());
            assert_eq!(r.scan.population_positions, children * k, "{}", kind.label());
            assert!(r.scan.clones >= r.iterations, "{}", kind.label());
            assert_eq!(r.scan.clone_positions, r.scan.clones * k, "{}", kind.label());
        }
    }

    #[test]
    fn ga_scan_stats_are_thread_invariant() {
        // The population counters are a pure function of the
        // chromosomes, so `run --report` output is byte-identical at any
        // worker-thread count.
        let inst = random_instance(22, 3, 62);
        let budget = RunBudget::iterations(10);
        let baseline = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap()
            .install(|| GaScheduler::with_seed(6).run(&inst, &budget, None));
        assert!(baseline.scan.population_positions > 0);
        for threads in [2usize, 8] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            let r = pool.install(|| GaScheduler::with_seed(6).run(&inst, &budget, None));
            assert_eq!(r.scan, baseline.scan, "{threads} threads");
        }
    }

    #[test]
    fn ga_optimizes_alternate_objectives() {
        use mshc_schedule::{objective_from_report, replay, ObjectiveKind};
        let inst = random_instance(22, 4, 29);
        for kind in [ObjectiveKind::TotalFlowtime, ObjectiveKind::MeanFlowtime] {
            let budget = RunBudget::iterations(25).with_objective(kind);
            let r = GaScheduler::with_seed(11).run(&inst, &budget, None);
            r.solution.check(inst.graph()).unwrap();
            let sim = replay(&inst, &r.solution).unwrap();
            assert!(
                (r.objective_value - objective_from_report(&kind, &sim)).abs() < 1e-9,
                "{}",
                kind.label()
            );
            assert!((r.makespan - sim.makespan).abs() < 1e-9);
        }
    }

    #[test]
    fn elitism_makes_best_monotone() {
        let inst = random_instance(20, 3, 24);
        let mut trace = Trace::new();
        GaScheduler::with_seed(8).run(&inst, &RunBudget::iterations(40), Some(&mut trace));
        for w in trace.records().windows(2) {
            assert!(w[1].best_cost <= w[0].best_cost + 1e-12, "elitism keeps best monotone");
        }
        // current (best-of-generation) can never beat best-so-far
        for r in trace.records() {
            assert!(r.current_cost >= r.best_cost - 1e-12);
            assert!(r.population_mean.unwrap() >= r.current_cost - 1e-9);
            assert!(r.selected.is_none());
        }
    }

    #[test]
    fn seeded_heuristic_bounds_generation_zero() {
        // With seeding on, generation 0's best is at least as good as the
        // deterministic heuristic chromosome.
        let inst = random_instance(25, 4, 25);
        let seed_cost = Evaluator::new(&inst).makespan(&seeded_individual(&inst));
        let mut trace = Trace::new();
        GaScheduler::new(GaConfig { seed: 9, ..Default::default() }).run(
            &inst,
            &RunBudget::iterations(1),
            Some(&mut trace),
        );
        assert!(trace.records()[0].best_cost <= seed_cost + 1e-9);
    }

    #[test]
    fn budget_wall_clock_stops() {
        let inst = random_instance(30, 4, 26);
        let mut ga = GaScheduler::with_seed(10);
        let r = ga.run(&inst, &RunBudget::wall(std::time::Duration::from_millis(50)), None);
        assert!(r.elapsed >= std::time::Duration::from_millis(50));
        assert!(r.elapsed < std::time::Duration::from_secs(10));
        assert!(r.iterations > 0);
    }

    #[test]
    #[should_panic(expected = "anytime")]
    fn unbounded_budget_rejected() {
        let inst = random_instance(5, 2, 27);
        GaScheduler::with_seed(0).run(&inst, &RunBudget::default(), None);
    }

    #[test]
    fn scheduler_name() {
        assert_eq!(GaScheduler::with_seed(0).name(), "ga");
    }

    #[test]
    fn stepped_run_matches_plain_run_at_any_slice_size() {
        let inst = random_instance(20, 3, 50);
        let budget = RunBudget::iterations(12);
        let plain = GaScheduler::with_seed(4).run(&inst, &budget, None);
        for slice in [1u64, 5] {
            let mut ga = GaScheduler::with_seed(4);
            let mut state = ga.start(&inst, &budget);
            assert_eq!(state.name(), "ga");
            while !state.step(slice, None).is_exhausted() {}
            let stepped = state.result();
            assert_eq!(stepped.solution, plain.solution, "slice {slice}");
            assert_eq!(stepped.evaluations, plain.evaluations, "slice {slice}");
            assert_eq!(stepped.iterations, plain.iterations, "slice {slice}");
        }
    }

    #[test]
    fn inject_replaces_worst_and_updates_incumbent() {
        let inst = random_instance(18, 3, 51);
        let mut ga = GaScheduler::with_seed(5);
        let mut state = ga.start(&inst, &RunBudget::iterations(30));
        let _ = state.step(2, None);
        let before = state.incumbent().expect("population always has a best").cost;
        // Donate a strong solution from a longer independent run.
        let donor = GaScheduler::with_seed(99).run(&inst, &RunBudget::iterations(60), None);
        state.inject(&donor.solution, donor.objective_value);
        if donor.objective_value < before {
            let inc = state.incumbent().unwrap();
            assert_eq!(inc.cost, donor.objective_value);
            assert_eq!(inc.solution, &donor.solution);
        }
        while !state.step(u64::MAX, None).is_exhausted() {}
        let r = state.result();
        r.solution.check(inst.graph()).unwrap();
        assert!(r.objective_value <= before.min(donor.objective_value) + 1e-9);
    }
}
