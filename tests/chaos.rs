//! Chaos suite: seeded fault injection against the whole stack. The
//! contract under test — no hang, no panic escapes the harness
//! boundaries, every surviving result is a valid schedule with a
//! certificate gap >= 1, and fault-free lanes are byte-identical to a
//! no-faults run.
//!
//! Fault state is process-global (`mshc::schedule::faults`), so every
//! test here serializes on one lock; the suite lives in its own test
//! binary, so other integration suites are unaffected.

use mshc::prelude::*;
use mshc::schedule::faults;
use mshc::schedule::FAULT_PANIC_PREFIX;
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn tiny_instance(seed: u64) -> HcInstance {
    WorkloadSpec { tasks: 12, machines: 3, ccr: 0.5, seed, ..WorkloadSpec::small(seed) }.generate()
}

fn run_se(seed: u64, inst: &HcInstance) -> RunResult {
    use mshc::core::SePendingBias;
    let mut s =
        SePendingBias::new(SeConfig { seed, selection_bias: f64::NAN, ..SeConfig::default() });
    s.run(inst, &RunBudget::iterations(20), None)
}

fn ga_instance(seed: u64) -> HcInstance {
    WorkloadSpec { tasks: 40, machines: 6, ..WorkloadSpec::small(seed) }.generate()
}

fn run_ga(seed: u64, inst: &HcInstance) -> RunResult {
    GaScheduler::with_seed(seed).run(inst, &RunBudget::iterations(30), None)
}

#[test]
fn poisoned_evaluation_panics_are_contained_and_workers_survive() {
    let _guard = lock();
    let inst = tiny_instance(7);
    let clean = run_se(7, &inst);
    // Poison an evaluation the run definitely reaches.
    faults::arm(&FaultPlan { panic_at_evaluations: Some(40), ..FaultPlan::default() });
    let blast = catch_unwind(AssertUnwindSafe(|| run_se(7, &inst)));
    faults::disarm();
    let payload = blast.expect_err("evaluation 40 is poisoned");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(msg.contains(FAULT_PANIC_PREFIX), "injected cause surfaces: {msg}");
    // The resident evaluation pool survived the worker panic: the same
    // run, disarmed, reproduces the clean result bit for bit.
    let after = run_se(7, &inst);
    assert_eq!(after.makespan.to_bits(), clean.makespan.to_bits());
    assert_eq!(after.evaluations, clean.evaluations);
    after.solution.check(inst.graph()).unwrap();
    assert!(after.gap.is_none_or(|g| g >= 1.0));
}

#[test]
fn fault_free_tournament_cells_byte_match_a_no_faults_run() {
    let _guard = lock();
    let scenario = mshc::workloads::tiny_suite()[0];
    let spec = TournamentSpec {
        algorithms: vec!["se".into(), "sa".into(), "heft".into()],
        seeds: vec![31],
        iterations: 8,
        ..TournamentSpec::new("chaos", vec![scenario])
    };
    let clean = mshc::portfolio::run_tournament(&spec).unwrap();

    faults::arm(&FaultPlan {
        cell_panics: vec![CellFault { algorithm: "sa".into(), scenario: scenario.tag(), seed: 31 }],
        ..FaultPlan::default()
    });
    let faulted = mshc::portfolio::run_tournament(&spec).unwrap();
    faults::disarm();

    assert_eq!(clean.cells.len(), faulted.cells.len());
    for (c, f) in clean.cells.iter().zip(&faulted.cells) {
        assert!(f.ok, "{}: the bounded retry absorbs the injected panic", f.algorithm);
        if f.algorithm == "sa" {
            assert!(f.degraded && f.retries == 1);
        } else {
            // Fault-free lanes: byte-identical to the clean run,
            // including the serialized form.
            assert_eq!(
                serde_json::to_string(c).unwrap(),
                serde_json::to_string(f).unwrap(),
                "{}: fault-free lane drifted",
                f.algorithm
            );
        }
        // Retries aside, every surviving payload is the clean payload.
        assert_eq!(c.objective_value.to_bits(), f.objective_value.to_bits());
        assert_eq!(c.evaluations, f.evaluations);
        assert!(f.gap.is_none_or(|g| g >= 1.0));
    }
}

#[test]
fn replan_reports_are_thread_count_invariant() {
    let _guard = lock();
    // The end-to-end disturbed run — baseline search, dropout replan,
    // slowdown replan — serialized at 1 and at 8 evaluation threads.
    // The report carries virtual time only, so the bytes must match.
    let disturbed_report = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        pool.install(|| {
            let inst = tiny_instance(13);
            let mut search = SimulatedAnnealing::new(13);
            let budget = RunBudget::iterations(40);
            let baseline = search.run(&inst, &budget, None);
            let spec = DisturbanceTraceSpec::balanced(3, baseline.makespan, 3);
            let trace = DisturbanceTrace::generate(&spec, 77);
            let mut replanner = Replanner::new(&inst, baseline.solution);
            for d in &trace.events {
                replanner.apply(d, &mut search, &budget).unwrap();
            }
            replanner.report().to_json()
        })
    };
    let at_one = disturbed_report(1);
    let at_eight = disturbed_report(8);
    assert_eq!(at_one, at_eight, "replan report must not depend on thread count");
    let report = ReplanReport::from_json(&at_one).unwrap();
    assert!(report.gap.is_none_or(|g| g >= 1.0));
    assert!(report.final_makespan > 0.0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary poison points against arbitrary seeds: the run either
    /// completes untouched (the poison lands past its evaluation count)
    /// or panics with the injected cause — and a disarmed re-run is
    /// always byte-identical to a never-armed run. No hang, no panic
    /// escaping the harness, no state leaking across arm/disarm.
    #[test]
    fn poison_points_never_corrupt_survivors(
        panic_at in 1u64..2000,
        seed in 0u64..300,
    ) {
        let _guard = lock();
        let inst = tiny_instance(seed);
        let clean = run_se(seed, &inst);
        faults::arm(&FaultPlan {
            panic_at_evaluations: Some(panic_at),
            ..FaultPlan::default()
        });
        let blast = catch_unwind(AssertUnwindSafe(|| run_se(seed, &inst)));
        faults::disarm();
        match blast {
            Ok(survivor) => {
                // The poison never fired; the armed run IS the clean run.
                survivor.solution.check(inst.graph()).expect("survivor is valid");
                prop_assert_eq!(survivor.makespan.to_bits(), clean.makespan.to_bits());
                prop_assert_eq!(survivor.evaluations, clean.evaluations);
                if let Some(gap) = survivor.gap {
                    prop_assert!(gap >= 1.0);
                }
            }
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .unwrap_or_default();
                prop_assert!(
                    msg.contains(FAULT_PANIC_PREFIX),
                    "only injected panics may escape: {}", msg
                );
            }
        }
        // Disarming restores determinism exactly.
        let after = run_se(seed, &inst);
        prop_assert_eq!(after.makespan.to_bits(), clean.makespan.to_bits());
        prop_assert_eq!(after.evaluations, clean.evaluations);
    }

    /// The same contract for GA on a 2-thread pool, where the caller
    /// breeds each generation while a worker scores the children already
    /// bred: the poisoned pass lands on either side of that handoff, and
    /// neither side may be left waiting for the other.
    #[test]
    fn ga_poison_points_never_corrupt_survivors(
        panic_at in 1u64..1600,
        seed in 0u64..300,
    ) {
        let _guard = lock();
        let inst = ga_instance(seed);
        let pool = rayon::ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let (clean, blast, after) = pool.install(|| {
            let clean = run_ga(seed, &inst);
            faults::arm(&FaultPlan {
                panic_at_evaluations: Some(panic_at),
                ..FaultPlan::default()
            });
            let blast = catch_unwind(AssertUnwindSafe(|| run_ga(seed, &inst)));
            faults::disarm();
            (clean, blast, run_ga(seed, &inst))
        });
        match blast {
            Ok(survivor) => {
                survivor.solution.check(inst.graph()).expect("survivor is valid");
                prop_assert_eq!(&survivor.solution, &clean.solution);
                prop_assert_eq!(survivor.makespan.to_bits(), clean.makespan.to_bits());
                prop_assert_eq!(survivor.evaluations, clean.evaluations);
            }
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .unwrap_or_default();
                prop_assert!(
                    msg.contains(FAULT_PANIC_PREFIX),
                    "only injected panics may escape: {}", msg
                );
            }
        }
        prop_assert_eq!(&after.solution, &clean.solution);
        prop_assert_eq!(after.makespan.to_bits(), clean.makespan.to_bits());
        prop_assert_eq!(after.evaluations, clean.evaluations);
        prop_assert_eq!(after.iterations, clean.iterations);
        prop_assert_eq!(after.scan, clean.scan);
    }
}
