//! The observability no-perturbation contract, end to end: enabling
//! metric recording must not change a single result bit — solutions,
//! objective values, evaluation counts, iteration counts, work records,
//! trace records — for any scheduler, seed, objective or thread count.
//! The registry's deterministic plane must itself reproduce bit-for-bit
//! across identical fixed-thread runs, and its run counters must equal
//! the sum of the records the runs return.
//!
//! The registry is process-global, so every test here serializes
//! through one lock; this file is its own test binary, so no other
//! suite races it.

use mshc::obs;
use mshc::portfolio::{build_contestant, ALGORITHMS};
use mshc::prelude::*;
use mshc::schedule::ScanStats;
use proptest::prelude::*;
use std::sync::Mutex;

static OBS_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The iterative schedulers covering all three evaluator tiers: SE
/// drives the cell-lane allocation scan, tabu the sampled move scan, SA
/// the single-move replay, the GA the population pass, random search the
/// full evaluator.
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
    scan: ScanStats,
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
        scan: result.scan,
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

/// The registry's run counters as one record: iterations, and the
/// full passes, scorings and clone axes of [`ScanStats`].
fn registry_record(det: &obs::DeterministicPlane) -> (u64, ScanStats) {
    let work = ScanStats {
        full_passes: det.evaluations,
        scored: det.scan_scored,
        clones: det.scan_clones,
        clone_positions: det.scan_clone_positions,
        population_positions: det.scan_population_positions,
    };
    (det.iterations, work)
}

/// After a fault-free run, the registry holds exactly the run's record:
/// every one of the 13 algorithms, under makespan and total flowtime,
/// run plainly and in 3-iteration slices.
#[test]
fn registry_counters_match_run_result_bookkeeping() {
    let _guard = lock();
    let inst = WorkloadSpec::small(7).generate();
    for objective in [ObjectiveKind::Makespan, ObjectiveKind::TotalFlowtime] {
        let budget = RunBudget::iterations(12).with_objective(objective);
        for algo in ALGORITHMS {
            for sliced in [false, true] {
                obs::reset();
                obs::enable(true);
                let mut contestant = build_contestant(algo, 7).expect("a known algorithm");
                let result = if sliced {
                    let mut state = contestant.start(&inst, &budget);
                    while !state.step(3, None).is_exhausted() {}
                    state.result()
                } else {
                    contestant.run(&inst, &budget)
                };
                let det = obs::snapshot().deterministic;
                obs::enable(false);
                assert_eq!(
                    registry_record(&det),
                    (result.iterations, result.scan),
                    "{algo}, {}, sliced {sliced}",
                    objective.label()
                );
                let stopped = result.termination == Termination::Floor;
                assert_eq!(det.early_stops, u64::from(stopped), "{algo}: early stops");
            }
        }
    }
}

/// A tournament's deterministic plane is the sum of its cells' records,
/// portfolio off and on, under makespan and total flowtime, at 1 and 8
/// threads.
#[test]
fn registry_plane_sums_the_tournament_cell_records() {
    let _guard = lock();
    for objective in ["makespan", "total-flowtime"] {
        for portfolio in [false, true] {
            let spec = TournamentSpec {
                seeds: vec![3],
                iterations: 6,
                objectives: vec![objective.to_string()],
                portfolio,
                ..TournamentSpec::new("tiny", mshc::workloads::tiny_suite())
            };
            for threads in [1usize, 8] {
                obs::reset();
                obs::enable(true);
                let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
                let run = pool.install(|| run_tournament(&spec)).expect("tiny tournament runs");
                let det = obs::snapshot().deterministic;
                obs::enable(false);
                let mut work = ScanStats::default();
                for timing in &run.timing {
                    work.merge(timing.scan);
                }
                let iterations = run.cells.iter().map(|c| c.iterations).sum();
                let label = format!("{objective}, portfolio {portfolio}, {threads} threads");
                assert_eq!(registry_record(&det), (iterations, work), "{label}");
                let count = |f: fn(&mshc::portfolio::CellOutcome) -> bool| {
                    run.cells.iter().filter(|c| f(c)).count() as u64
                };
                assert_eq!(det.early_stops, count(|c| c.early_stopped), "{label}");
                assert_eq!(det.cells_completed, count(|c| c.ok), "{label}");
                assert_eq!(det.cells_completed, run.cells.len() as u64, "{label}: fault-free");
            }
        }
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
