//! Cooperative cancellation and deadline invariants across every
//! steppable search: a cancellation fired at any slice boundary yields
//! a valid incumbent marked [`Termination::Cancelled`], never an error;
//! deterministic deadlines stop runs reproducibly; the replan flow is
//! bit-identical at any thread count; and every search latches its
//! floor stop at the same points of its run.

use mshc::prelude::*;
use proptest::prelude::*;

fn steppables(seed: u64) -> Vec<(&'static str, Box<dyn SteppableSearch>)> {
    use mshc::core::SePendingBias;
    vec![
        (
            "se",
            Box::new(SePendingBias::new(SeConfig {
                seed,
                selection_bias: f64::NAN,
                ..SeConfig::default()
            })) as Box<dyn SteppableSearch>,
        ),
        ("ga", Box::new(GaScheduler::new(GaConfig { seed, ..GaConfig::default() }))),
        ("random", Box::new(RandomSearch::new(seed))),
        ("sa", Box::new(SimulatedAnnealing::new(seed))),
        ("tabu", Box::new(TabuSearch::new(seed))),
    ]
}

fn tiny_instance(seed: u64) -> HcInstance {
    WorkloadSpec { tasks: 14, machines: 3, ccr: 0.5, seed, ..WorkloadSpec::small(seed) }.generate()
}

#[test]
fn prefired_token_is_rejected_before_the_run_starts() {
    let token = CancelToken::new();
    token.cancel();
    let budget = RunBudget::iterations(10).with_cancel(token);
    let err = budget.validate().unwrap_err();
    assert!(err.to_string().contains("cancel"), "{err}");
}

#[test]
fn deadline_budgets_validate() {
    assert!(RunBudget::iterations(10).with_deadline_evals(1).validate().is_ok());
    assert!(RunBudget::default().with_deadline_evals(0).validate().is_err());
    assert!(RunBudget::default().with_deadline_wall(std::time::Duration::ZERO).validate().is_err());
    // A deadline alone bounds the budget.
    assert!(RunBudget::default().with_deadline_evals(100).validate().is_ok());
}

#[test]
fn deterministic_deadline_stops_every_search_reproducibly() {
    let inst = tiny_instance(42);
    for (name, mut s) in steppables(42) {
        let budget = RunBudget::iterations(200).with_deadline_evals(60);
        let a = s.run(&inst, &budget, None);
        a.solution.check(inst.graph()).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            matches!(a.termination, Termination::Deadline | Termination::Floor),
            "{name}: 200 iterations cannot fit under 60 evaluations: {:?}",
            a.termination
        );
        // The deadline is part of the deterministic contract: the same
        // run repeats bit for bit, evaluations included.
        let mut s2 = steppables(42).into_iter().find(|(n, _)| *n == name).unwrap().1;
        let b = s2.run(&inst, &budget, None);
        assert_eq!(a.evaluations, b.evaluations, "{name}");
        assert_eq!(a.iterations, b.iterations, "{name}");
        assert_eq!(a.makespan.to_bits(), b.makespan.to_bits(), "{name}");
    }
}

/// Independent tasks with the given durations on `machines` identical
/// machines.
fn identical_machines(durations: &[f64], machines: usize) -> HcInstance {
    let graph = TaskGraphBuilder::new(durations.len()).build().unwrap();
    let exec = Matrix::from_fn(machines, durations.len(), |_, t| durations[t]);
    let pairs = Matrix::filled(machines * (machines - 1) / 2, 0, 0.0);
    HcInstance::new(graph, HcSystem::with_anonymous_machines(machines, exec, pairs).unwrap())
        .unwrap()
}

/// The solution placing task `t` on machine `assign(t)`, tasks in index
/// order.
fn placed(inst: &HcInstance, assign: impl Fn(usize) -> usize) -> Solution {
    let segments = (0..inst.task_count())
        .map(|t| Segment { task: TaskId::from_usize(t), machine: MachineId::from_usize(assign(t)) })
        .collect();
    Solution::new(inst.graph(), inst.machine_count(), segments).unwrap()
}

/// The floor latches at slice entry and after an improving iteration,
/// never inside `inject`: a floor-cost migrant injected into an
/// exhausted run leaves it reporting `budget` until its next `step`,
/// which reports `floor` without running an iteration. Portfolio
/// leaderboards depend on these points.
#[test]
fn floor_latches_at_slice_entry_and_after_improvements_only() {
    // 9 tasks of 6.0 on 3 machines: floor 18, reached by a 3/3/3 split.
    let even = identical_machines(&[6.0; 9], 3);
    for (name, mut s) in steppables(4) {
        let r = s.run(&even, &RunBudget::iterations(200), None);
        assert_eq!((r.makespan, r.lower_bound), (18.0, Some(18.0)), "{name}");
        assert_eq!(r.termination, Termination::Floor, "{name}");
        assert!(r.iterations < 200, "{name}: the stop saves work");
    }
    // GA reaches 18 in generation 0 there; on durations 1..9 (floor 15,
    // reached by {9, 6}, {8, 7}, {1, 2, 3, 4, 5}) its first generation
    // stays above the floor.
    let spread = identical_machines(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0], 3);
    let spread_migrant = placed(&spread, |t| match t + 1 {
        9 | 6 => 0,
        8 | 7 => 1,
        _ => 2,
    });
    let even_migrant = placed(&even, |t| t % 3);
    for (name, mut s) in steppables(3) {
        let (inst, migrant, floor) = if name == "ga" {
            (&spread, &spread_migrant, 15.0)
        } else {
            (&even, &even_migrant, 18.0)
        };
        let mut state = s.start(inst, &RunBudget::iterations(1));
        assert!(state.step(u64::MAX, None).is_exhausted(), "{name}");
        let exhausted = state.result();
        assert!(exhausted.makespan > floor, "{name}: {}", exhausted.makespan);
        assert_eq!(exhausted.termination, Termination::Budget, "{name}");
        state.inject(migrant, floor);
        let injected = state.result();
        assert_eq!(injected.objective_value, floor, "{name}: the migrant is adopted");
        assert_eq!(injected.termination, Termination::Budget, "{name}: no latch inside inject");
        assert!(state.step(u64::MAX, None).is_exhausted(), "{name}");
        let latched = state.result();
        assert_eq!(latched.termination, Termination::Floor, "{name}");
        assert_eq!(latched.iterations, exhausted.iterations, "{name}: no iteration runs");
        assert_eq!(latched.evaluations, exhausted.evaluations, "{name}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Firing the cancel token at an arbitrary slice boundary of any
    /// steppable search always degrades gracefully: the search stops at
    /// the next boundary, reports `Cancelled`, and hands back a valid
    /// incumbent with its certificate — never an error, never a hang.
    #[test]
    fn cancellation_at_any_slice_boundary_degrades_gracefully(
        boundary in 0u64..10,
        seed in 0u64..500,
    ) {
        let inst = tiny_instance(seed);
        for (name, mut s) in steppables(seed) {
            let token = CancelToken::new();
            let budget = RunBudget::iterations(50).with_cancel(token.clone());
            let mut state = s.start(&inst, &budget);
            let mut done_before_cancel = false;
            for _ in 0..boundary {
                if state.step(1, None).is_exhausted() {
                    done_before_cancel = true;
                    break;
                }
            }
            token.cancel();
            let verdict = state.step(u64::MAX, None);
            prop_assert!(verdict.is_exhausted(), "{name}: cancelled search must stop");
            let r = state.result();
            r.solution.check(inst.graph()).expect("incumbent stays valid");
            prop_assert!(r.iterations <= 50, "{name}: {}", r.iterations);
            if let Some(gap) = r.gap {
                prop_assert!(gap >= 1.0, "{name}: certificate holds under cancellation");
            }
            if !done_before_cancel {
                prop_assert_eq!(
                    r.termination,
                    Termination::Cancelled,
                    "{}: cancellation outranks budget in the verdict", name
                );
                // Cancellation is latched exactly once and the counts
                // stay exact: a re-run cancelled at the same boundary
                // reproduces the evaluation count bit for bit.
                let mut s2 =
                    steppables(seed).into_iter().find(|(n, _)| *n == name).unwrap().1;
                let token2 = CancelToken::new();
                let budget2 = RunBudget::iterations(50).with_cancel(token2.clone());
                let mut state2 = s2.start(&inst, &budget2);
                for _ in 0..boundary {
                    if state2.step(1, None).is_exhausted() {
                        break;
                    }
                }
                token2.cancel();
                state2.step(u64::MAX, None);
                let r2 = state2.result();
                prop_assert_eq!(r.evaluations, r2.evaluations, "{}", name);
                prop_assert_eq!(r.makespan.to_bits(), r2.makespan.to_bits(), "{}", name);
            }
        }
    }
}
