//! Property tests for the GA's population fitness pass (exact clones
//! take their donor's cost, every other child a full pass): whole runs
//! must be bit-identical — solutions, fitness values, per-generation
//! traces and evaluation counts — across instances, seeds and
//! worker-thread counts, and the reported fitness must be the full-pass
//! score of the returned solution.

use mshc_ga::GaScheduler;
use mshc_platform::{HcInstance, HcSystem, Matrix};
use mshc_schedule::{Evaluator, ObjectiveKind, RunBudget, Scheduler};
use mshc_taskgraph::gen::{erdos_dag, layered, LayeredConfig};
use mshc_trace::Trace;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn instance_strategy() -> impl Strategy<Value = HcInstance> {
    (1usize..22, 1usize..5, 0.0f64..0.9, any::<u64>(), prop::bool::ANY).prop_map(
        |(k, l, p, seed, use_layered)| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let graph = if use_layered {
                layered(
                    &LayeredConfig {
                        tasks: k,
                        mean_width: (k / 3).max(1),
                        edge_prob: p,
                        skip_prob: 0.0,
                    },
                    &mut rng,
                )
                .unwrap()
            } else {
                erdos_dag(k, p, &mut rng).unwrap()
            };
            let exec = Matrix::from_fn(l, k, |_, _| rng.gen_range(1.0..50.0));
            let pairs = l * (l - 1) / 2;
            let transfer =
                Matrix::from_fn(pairs, graph.data_count(), |_, _| rng.gen_range(0.0..20.0));
            let sys = HcSystem::with_anonymous_machines(l, exec, transfer).unwrap();
            HcInstance::new(graph, sys).unwrap()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Full GA runs agree bit for bit at every thread count with a
    /// one-thread run, for every objective family, and the incumbent's
    /// fitness is its full-pass score.
    #[test]
    fn ga_runs_are_thread_invariant_and_exact(
        inst in instance_strategy(),
        seed in any::<u64>(),
        threads_sel in 0usize..3,
        objective_sel in 0usize..3,
    ) {
        let threads = [1usize, 2, 8][threads_sel];
        let objective = match objective_sel {
            0 => ObjectiveKind::Makespan,
            1 => ObjectiveKind::TotalFlowtime,
            _ => ObjectiveKind::Weighted { makespan: 1.0, flowtime: 0.4, balance: 0.6 },
        };
        let budget = RunBudget::iterations(6).with_objective(objective);
        let one = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let (base, base_trace) = one.install(|| {
            let mut trace = Trace::new();
            (GaScheduler::with_seed(seed).run(&inst, &budget, Some(&mut trace)), trace)
        });
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        let (run, trace) = pool.install(|| {
            let mut trace = Trace::new();
            (GaScheduler::with_seed(seed).run(&inst, &budget, Some(&mut trace)), trace)
        });
        prop_assert_eq!(&run.solution, &base.solution);
        prop_assert_eq!(run.objective_value, base.objective_value);
        prop_assert_eq!(run.makespan, base.makespan);
        prop_assert_eq!(run.evaluations, base.evaluations);
        prop_assert_eq!(run.iterations, base.iterations);
        prop_assert_eq!(run.scan, base.scan);
        // Per-generation selection pressure is identical: every best,
        // current and population-mean fitness matches bitwise.
        prop_assert_eq!(trace.records().len(), base_trace.records().len());
        for (s, f) in trace.records().iter().zip(base_trace.records()) {
            prop_assert_eq!(s.iteration, f.iteration);
            prop_assert_eq!(s.evaluations, f.evaluations);
            prop_assert_eq!(s.current_cost, f.current_cost);
            prop_assert_eq!(s.best_cost, f.best_cost);
            prop_assert_eq!(s.population_mean, f.population_mean);
        }
        let exact = Evaluator::new(&inst).objective_value(&run.solution, &objective);
        prop_assert_eq!(run.objective_value.to_bits(), exact.to_bits());
    }
}
