//! Cross-crate property tests: the suite's core invariants under
//! randomized instances, solutions and operator sequences.

use mshc::ga::operators::{crossover, random_individual};
use mshc::ga::Chromosome;
use mshc::prelude::*;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Strategy: a workload spec over the full taxonomy at property-test
/// scale.
fn spec_strategy() -> impl Strategy<Value = WorkloadSpec> {
    (
        2usize..30,
        1usize..6,
        prop_oneof![Just(Connectivity::Low), Just(Connectivity::Medium), Just(Connectivity::High)],
        prop_oneof![
            Just(Heterogeneity::Low),
            Just(Heterogeneity::Medium),
            Just(Heterogeneity::High)
        ],
        0.0f64..1.5,
        any::<u64>(),
    )
        .prop_map(|(tasks, machines, connectivity, heterogeneity, ccr, seed)| WorkloadSpec {
            tasks,
            machines,
            connectivity,
            heterogeneity,
            ccr,
            seed,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The analytic evaluator and the discrete-event replay agree on
    /// every random (instance, solution) pair — the suite's correctness
    /// anchor.
    #[test]
    fn analytic_equals_des_replay(spec in spec_strategy(), sol_seed in any::<u64>()) {
        let inst = spec.generate();
        let mut rng = ChaCha8Rng::seed_from_u64(sol_seed);
        let sol = mshc::schedule::random_solution(&inst, &mut rng);
        let analytic = Evaluator::new(&inst).report(&sol);
        let sim = replay(&inst, &sol).expect("valid solutions never deadlock");
        prop_assert!((analytic.makespan - sim.makespan).abs() < 1e-9);
        for t in inst.graph().tasks() {
            prop_assert!((analytic.finish_of(t) - sim.finish_of(t)).abs() < 1e-9);
        }
    }

    /// Random solutions satisfy the full string invariant, and any
    /// sequence of valid-range moves preserves it.
    #[test]
    fn valid_range_moves_preserve_invariant(
        spec in spec_strategy(),
        sol_seed in any::<u64>(),
        moves in prop::collection::vec((any::<u32>(), any::<u32>(), any::<u32>()), 0..40),
    ) {
        let inst = spec.generate();
        let g = inst.graph();
        let mut rng = ChaCha8Rng::seed_from_u64(sol_seed);
        let mut sol = mshc::schedule::random_solution(&inst, &mut rng);
        sol.check(g).unwrap();
        for (traw, praw, mraw) in moves {
            let t = TaskId::new(traw % inst.task_count() as u32);
            let (lo, hi) = sol.valid_range(g, t);
            let pos = lo + (praw as usize) % (hi - lo + 1);
            let m = MachineId::new(mraw % inst.machine_count() as u32);
            sol.move_task(g, t, pos, m).unwrap();
        }
        prop_assert!(sol.check(g).is_ok());
    }

    /// The GA's in-place crossover yields a valid string for every
    /// scheduling cut and a spread of matching cuts on random parents,
    /// and equals the two-string reference operators' child.
    #[test]
    fn ga_crossover_preserves_validity(
        spec in spec_strategy(),
        seeds in any::<(u64, u64)>(),
        matching_cuts in prop::collection::vec(any::<u32>(), 1..4),
    ) {
        let inst = spec.generate();
        let g = inst.graph();
        let k = inst.task_count();
        let a = random_individual(&inst, &mut ChaCha8Rng::seed_from_u64(seeds.0));
        let b = random_individual(&inst, &mut ChaCha8Rng::seed_from_u64(seeds.1));
        let (ca, cb) = (Chromosome::from_solution(&a), Chromosome::from_solution(&b));
        // The cut ends plus random interior points.
        let mut cuts_m = vec![0, k];
        cuts_m.extend(matching_cuts.iter().map(|&c| c as usize % (k + 1)));
        let mut child = b.clone();
        for cut_s in 0..=k {
            for &cut_m in &cuts_m {
                crossover(&mut child, g, &a, &b, cut_s, cut_m);
                prop_assert!(child.check(g).is_ok(), "cuts {} {}", cut_s, cut_m);
                let reference = Chromosome {
                    order: ca.crossover_order(&cb, cut_s),
                    matching: ca.crossover_matching(&cb, cut_m),
                }
                .to_solution(&inst);
                prop_assert_eq!(&child, &reference, "cuts {} {}", cut_s, cut_m);
            }
        }
    }

    /// Goodness values derived from any schedule lie in (0, 1].
    #[test]
    fn goodness_in_unit_interval(spec in spec_strategy(), sol_seed in any::<u64>()) {
        let inst = spec.generate();
        let optimal = mshc::core::optimal_costs(&inst);
        let mut rng = ChaCha8Rng::seed_from_u64(sol_seed);
        let sol = mshc::schedule::random_solution(&inst, &mut rng);
        let report = Evaluator::new(&inst).report(&sol);
        for t in inst.graph().tasks() {
            let gi = mshc::core::goodness(optimal[t.index()], report.finish_of(t));
            prop_assert!(gi > 0.0 && gi <= 1.0, "{} -> {}", t, gi);
        }
    }

    /// Workload generation is a pure function of the spec.
    #[test]
    fn generation_is_pure(spec in spec_strategy()) {
        prop_assert_eq!(spec.generate(), spec.generate());
    }

    /// Constructive heuristics produce valid, replay-consistent schedules
    /// on arbitrary taxonomy points.
    #[test]
    fn constructive_heuristics_always_valid(spec in spec_strategy()) {
        let inst = spec.generate();
        let budget = RunBudget::default();
        let mut schedulers: Vec<Box<dyn Scheduler>> = vec![
            Box::new(HeftScheduler::new()),
            Box::new(CpopScheduler::new()),
            Box::new(ListScheduler::new(ListPolicy::MinMin)),
            Box::new(ListScheduler::new(ListPolicy::MaxMin)),
            Box::new(ListScheduler::new(ListPolicy::Mct)),
        ];
        for s in schedulers.iter_mut() {
            let r = s.run(&inst, &budget, None);
            prop_assert!(r.solution.check(inst.graph()).is_ok(), "{}", s.name());
            let sim = replay(&inst, &r.solution).expect("no deadlock");
            prop_assert!((sim.makespan - r.makespan).abs() < 1e-9, "{}", s.name());
        }
    }
}
