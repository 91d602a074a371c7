//! The observability no-perturbation contract, end to end: enabling
//! metric recording must not change a single result bit — solutions,
//! objective values, evaluation counts, iteration counts, trace records
//! — for any scheduler, seed, objective or thread count. And the
//! registry's deterministic plane must itself reproduce bit-for-bit
//! across identical fixed-thread runs.
//!
//! The registry is process-global, so every test here serializes
//! through one lock; this file is its own test binary, so no other
//! suite races it.

use mshc::obs;
use mshc::prelude::*;
use proptest::prelude::*;
use std::sync::Mutex;

static OBS_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The iterative schedulers covering all three evaluator tiers: SE and
/// tabu drive the bounded incremental scan, SA the plain incremental
/// path, the GA the population pass, random search the full evaluator.
fn make_scheduler(algo: &str, seed: u64) -> Box<dyn Scheduler> {
    match algo {
        "se" => Box::new(SeScheduler::new(SeConfig { seed, ..SeConfig::default() })),
        "ga" => Box::new(GaScheduler::new(GaConfig { seed, ..GaConfig::default() })),
        "sa" => Box::new(SimulatedAnnealing::new(seed)),
        "tabu" => Box::new(TabuSearch::new(seed)),
        "random" => Box::new(RandomSearch::new(seed)),
        other => panic!("unknown algo {other}"),
    }
}

/// One trace record with floats as bits and `elapsed_secs` dropped —
/// wall clock is the one axis that legitimately varies between runs.
type TraceBits = (u64, u64, u64, u64, Option<u32>, Option<u64>);

/// Everything a run produces that the determinism contract covers, with
/// floats captured as bits.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RunFingerprint {
    solution: Solution,
    objective_bits: u64,
    makespan_bits: u64,
    iterations: u64,
    evaluations: u64,
    termination: Termination,
    trace: Vec<TraceBits>,
}

fn run_fingerprinted(
    algo: &str,
    inst: &HcInstance,
    budget: &RunBudget,
    seed: u64,
    threads: usize,
    record: bool,
) -> (RunFingerprint, obs::DeterministicPlane) {
    obs::reset();
    obs::enable(record);
    let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("pool");
    let mut trace = Trace::new();
    let result = pool.install(|| make_scheduler(algo, seed).run(inst, budget, Some(&mut trace)));
    let det = obs::snapshot().deterministic;
    obs::enable(false);
    let fp = RunFingerprint {
        solution: result.solution,
        objective_bits: result.objective_value.to_bits(),
        makespan_bits: result.makespan.to_bits(),
        iterations: result.iterations,
        evaluations: result.evaluations,
        termination: result.termination,
        trace: trace
            .records()
            .iter()
            .map(|r| {
                (
                    r.iteration,
                    r.evaluations,
                    r.current_cost.to_bits(),
                    r.best_cost.to_bits(),
                    r.selected,
                    r.population_mean.map(f64::to_bits),
                )
            })
            .collect(),
    };
    (fp, det)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Metrics-on and metrics-off runs are bit-identical in every
    /// result dimension, across seeds x objectives x {1,2,8} threads,
    /// for every scheduler tier.
    #[test]
    fn recording_cannot_perturb_any_result_bit(
        seed in any::<u64>(),
        algo_idx in 0usize..5,
        obj_idx in 0usize..2,
    ) {
        let _guard = lock();
        let algo = ["se", "ga", "sa", "tabu", "random"][algo_idx];
        let objective = [ObjectiveKind::Makespan, ObjectiveKind::TotalFlowtime][obj_idx];
        let inst = WorkloadSpec { tasks: 16, machines: 3, ..WorkloadSpec::small(seed) }.generate();
        let budget = RunBudget::iterations(10).with_objective(objective);
        let (reference, _) = run_fingerprinted(algo, &inst, &budget, seed, 1, false);
        for threads in [1usize, 2, 8] {
            let (off, _) = run_fingerprinted(algo, &inst, &budget, seed, threads, false);
            prop_assert_eq!(
                &off, &reference,
                "{} must be thread-count invariant with metrics off", algo
            );
            let (on, _) = run_fingerprinted(algo, &inst, &budget, seed, threads, true);
            prop_assert_eq!(
                &on, &reference,
                "{} at {} threads: metrics-on must be bit-identical to metrics-off",
                algo, threads
            );
        }
    }

    /// Two identical fixed-thread runs produce the same deterministic
    /// plane, counter for counter — the plane earns its name.
    #[test]
    fn deterministic_plane_reproduces_at_fixed_thread_count(
        seed in any::<u64>(),
        algo_idx in 0usize..5,
    ) {
        let _guard = lock();
        let algo = ["se", "ga", "sa", "tabu", "random"][algo_idx];
        let inst = WorkloadSpec { tasks: 16, machines: 3, ..WorkloadSpec::small(seed) }.generate();
        let budget = RunBudget::iterations(8);
        for threads in [1usize, 4] {
            let (_, first) = run_fingerprinted(algo, &inst, &budget, seed, threads, true);
            let (_, second) = run_fingerprinted(algo, &inst, &budget, seed, threads, true);
            prop_assert_eq!(
                first, second,
                "{} at {} threads: deterministic plane must reproduce", algo, threads
            );
        }
    }
}

/// The registry's iteration and evaluation counters agree with the
/// `RunResult` bookkeeping across the whole portfolio — the accessors
/// stayed truthful when they moved onto the registry.
#[test]
fn registry_counters_match_run_result_bookkeeping() {
    let _guard = lock();
    let inst = WorkloadSpec::small(7).generate();
    let budget = RunBudget::iterations(12);
    for algo in ["se", "ga", "sa", "tabu", "random"] {
        obs::reset();
        obs::enable(true);
        let result = make_scheduler(algo, 7).run(&inst, &budget, None);
        let det = obs::snapshot().deterministic;
        obs::enable(false);
        assert_eq!(det.iterations, result.iterations, "{algo}: iteration counters must agree");
        // The registry counts *physical* work: full passes plus
        // incremental scorings. `RunResult::evaluations` is a *charge*
        // model — primes, fold-derived cost reads and clone shortcuts
        // are charged for budget stability even when no replay runs —
        // so the physical counters bound the report from below and must
        // see real work; exact equality is not a contract.
        let physical = det.evaluations + det.scan_scored;
        assert!(physical > 0, "{algo}: the registry must see the evaluation work");
        assert!(
            physical <= result.evaluations,
            "{algo}: physical work ({physical}) cannot exceed the charged count ({})",
            result.evaluations
        );
    }
}

/// Tournament leaderboards are byte-identical with recording on and
/// off — the CI gate's in-process twin.
#[test]
fn tournament_leaderboard_is_byte_identical_with_recording_on() {
    let _guard = lock();
    let spec = TournamentSpec {
        algorithms: vec!["se".into(), "sa".into(), "heft".into()],
        seeds: vec![3, 5],
        iterations: 8,
        ..TournamentSpec::new("tiny", mshc::workloads::tiny_suite())
    };
    let board_json = |record: bool| {
        obs::reset();
        obs::enable(record);
        let run = run_tournament(&spec).expect("tiny tournament runs");
        obs::enable(false);
        serde_json::to_string(&mshc::portfolio::aggregate(&run).0).expect("serializes")
    };
    let off = board_json(false);
    let on = board_json(true);
    assert_eq!(on, off, "recording must not change a leaderboard byte");
}
