//! Cross-algorithm invariants: every scheduler in the suite, on the same
//! seeded workloads, must produce precedence-valid solutions whose
//! makespan agrees with both the analytic evaluator and the independent
//! discrete-event replay.

use mshc::prelude::*;
use std::time::Duration;

fn all_schedulers(seed: u64) -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(SeScheduler::new(SeConfig { seed, ..SeConfig::default() })),
        Box::new(GaScheduler::new(GaConfig { seed, ..GaConfig::default() })),
        Box::new(HeftScheduler::new()),
        Box::new(HeftScheduler::with_insertion()),
        Box::new(CpopScheduler::new()),
        Box::new(ListScheduler::new(ListPolicy::Met)),
        Box::new(ListScheduler::new(ListPolicy::Mct)),
        Box::new(ListScheduler::new(ListPolicy::Olb)),
        Box::new(ListScheduler::new(ListPolicy::MinMin)),
        Box::new(ListScheduler::new(ListPolicy::MaxMin)),
        Box::new(RandomSearch::new(seed)),
        Box::new(SimulatedAnnealing::new(seed)),
        Box::new(TabuSearch::new(seed)),
    ]
}

#[test]
fn every_scheduler_valid_and_consistent_on_every_workload_class() {
    let specs = [
        WorkloadSpec::small(1),
        WorkloadSpec::small(2).with_connectivity(Connectivity::High),
        WorkloadSpec::small(3).with_heterogeneity(Heterogeneity::High).with_ccr(1.0),
    ];
    for spec in specs {
        let inst = spec.generate();
        let budget = RunBudget::iterations(25);
        for mut s in all_schedulers(spec.seed) {
            let r = s.run(&inst, &budget, None);
            r.solution
                .check(inst.graph())
                .unwrap_or_else(|e| panic!("{} invalid on {}: {e}", s.name(), spec.tag()));
            let analytic = Evaluator::new(&inst).makespan(&r.solution);
            assert!(
                (analytic - r.makespan).abs() < 1e-9,
                "{} reported {} but evaluator says {analytic}",
                s.name(),
                r.makespan
            );
            let sim = replay(&inst, &r.solution).expect("valid schedules never deadlock");
            assert!((sim.makespan - r.makespan).abs() < 1e-9, "{}: DES replay disagrees", s.name());
        }
    }
}

/// Every scheduler reports the score its candidates were ranked by: the
/// evaluator's string-order fold of the solution it returns, bit for
/// bit, under every objective.
#[test]
fn every_scheduler_reports_the_evaluators_score() {
    let weighted = ObjectiveKind::Weighted { makespan: 1.0, flowtime: 0.5, balance: 0.25 };
    let kinds: Vec<ObjectiveKind> = ObjectiveKind::BASIC.into_iter().chain([weighted]).collect();
    let specs = (1..=3).map(WorkloadSpec::small).chain((1..=3).map(WorkloadSpec::large));
    for spec in specs {
        let inst = spec.generate();
        let mut eval = Evaluator::new(&inst);
        for kind in &kinds {
            let budget = RunBudget::iterations(10).with_objective(*kind);
            for mut s in all_schedulers(spec.seed) {
                let r = s.run(&inst, &budget, None);
                let fold = eval.objective_value(&r.solution, kind);
                assert_eq!(
                    r.objective_value.to_bits(),
                    fold.to_bits(),
                    "{} under {} on {}: reported {} but the evaluator scores {fold}",
                    s.name(),
                    kind.label(),
                    spec.tag(),
                    r.objective_value
                );
            }
        }
    }
}

#[test]
fn iterative_schedulers_beat_random_search() {
    let inst = WorkloadSpec::small(5).with_connectivity(Connectivity::High).generate();
    let budget = RunBudget::evaluations(8_000);
    let random = RandomSearch::new(5).run(&inst, &budget, None).makespan;
    for (name, mk) in [
        (
            "se",
            SeScheduler::new(SeConfig { seed: 5, selection_bias: -0.1, ..SeConfig::default() })
                .run(&inst, &budget, None)
                .makespan,
        ),
        (
            "ga",
            GaScheduler::new(GaConfig { seed: 5, ..GaConfig::default() })
                .run(&inst, &budget, None)
                .makespan,
        ),
        ("sa", SimulatedAnnealing::new(5).run(&inst, &budget, None).makespan),
        ("tabu", TabuSearch::new(5).run(&inst, &budget, None).makespan),
    ] {
        assert!(mk <= random * 1.02, "{name} ({mk}) should not lose to random search ({random})");
    }
}

#[test]
fn se_competitive_with_heft_given_budget() {
    // SE starts from a random solution; with a reasonable budget it should
    // reach (at least) HEFT's one-shot quality on a seeded mid-size
    // workload.
    let inst = WorkloadSpec {
        tasks: 40,
        machines: 6,
        connectivity: Connectivity::Medium,
        heterogeneity: Heterogeneity::Medium,
        ccr: 0.5,
        seed: 11,
    }
    .generate();
    let heft = HeftScheduler::new().run(&inst, &RunBudget::default(), None).makespan;
    let se = SeScheduler::new(SeConfig { seed: 11, selection_bias: -0.1, ..SeConfig::default() })
        .run(&inst, &RunBudget::iterations(400), None)
        .makespan;
    assert!(se <= heft * 1.05, "SE ({se}) should be competitive with HEFT ({heft})");
}

#[test]
fn wall_clock_budgets_are_honored_by_all_iterative_schedulers() {
    let inst = WorkloadSpec::small(6).generate();
    let wall = Duration::from_millis(120);
    let budget = RunBudget::wall(wall);
    for mut s in all_schedulers(6) {
        let name = s.name().to_string();
        if ["heft", "cpop", "met", "mct", "olb", "min-min", "max-min"].contains(&name.as_str()) {
            continue; // one-shot algorithms ignore budgets
        }
        let r = s.run(&inst, &budget, None);
        assert!(
            r.elapsed < wall + Duration::from_secs(5),
            "{name} overran the wall budget grossly: {:?}",
            r.elapsed
        );
        assert!(r.iterations >= 1);
    }
}

#[test]
fn makespan_never_below_dataflow_bound() {
    // Lower bound: the certified instance floor. Its critical-path term
    // is the dataflow bound — every task on its globally fastest machine
    // with zero communication and infinite parallelism, i.e. the longest
    // path of best-case execution times — and the floor rounds it down
    // only as far as it must to bound computed makespans, so no
    // schedule can beat it, not even by rounding.
    use mshc::schedule::InstanceBound;
    let spec = WorkloadSpec::small(7).with_heterogeneity(Heterogeneity::High);
    let inst = spec.generate();
    let bound = InstanceBound::compute(&inst).floor();
    for mut s in all_schedulers(7) {
        let r = s.run(&inst, &RunBudget::iterations(20), None);
        assert!(
            r.makespan >= bound,
            "{} reported {} below the dataflow bound {bound}",
            s.name(),
            r.makespan
        );
    }
}
