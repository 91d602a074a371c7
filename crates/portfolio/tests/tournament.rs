//! Tournament engine integration tests: the determinism contract
//! (thread-count invariance, portfolio on/off), single-cell equivalence
//! with direct `Scheduler::run`, and per-cell fault isolation.

use mshc_core::{SeConfig, SePendingBias};
use mshc_ga::{GaConfig, GaScheduler};
use mshc_heuristics::{
    CpopScheduler, HeftScheduler, ListPolicy, ListScheduler, RandomSearch, SimulatedAnnealing,
    TabuSearch,
};
use mshc_portfolio::{aggregate, cells_csv, render_report, run_tournament, TournamentSpec};
use mshc_schedule::{ObjectiveKind, RunBudget, Scheduler};
use mshc_workloads::{tiny_suite, Connectivity, Heterogeneity, Scenario};
use std::sync::Mutex;

/// Serializes the tests that arm the process-global fault plan: `arm`
/// replaces the armed faults and `disarm` clears them, so two such
/// tests running side by side would consume or erase each other's.
static FAULTS: Mutex<()> = Mutex::new(());

fn tiny_spec() -> TournamentSpec {
    TournamentSpec {
        seeds: vec![5, 9],
        iterations: 12,
        ..TournamentSpec::new("tiny", tiny_suite())
    }
}

/// Mirror of the CLI's scheduler factory, constructed independently of
/// the engine's, so the test pins the "a cell is exactly `mshc run`"
/// contract rather than comparing the engine with itself.
fn cli_style_scheduler(name: &str, seed: u64) -> Box<dyn Scheduler> {
    match name {
        "se" => Box::new(SePendingBias::new(SeConfig {
            seed,
            selection_bias: f64::NAN,
            ..SeConfig::default()
        })),
        "ga" => Box::new(GaScheduler::new(GaConfig { seed, ..GaConfig::default() })),
        "heft" => Box::new(HeftScheduler::new()),
        "heft-ins" => Box::new(HeftScheduler::with_insertion()),
        "cpop" => Box::new(CpopScheduler::new()),
        "met" => Box::new(ListScheduler::new(ListPolicy::Met)),
        "mct" => Box::new(ListScheduler::new(ListPolicy::Mct)),
        "olb" => Box::new(ListScheduler::new(ListPolicy::Olb)),
        "min-min" => Box::new(ListScheduler::new(ListPolicy::MinMin)),
        "max-min" => Box::new(ListScheduler::new(ListPolicy::MaxMin)),
        "random" => Box::new(RandomSearch::new(seed)),
        "sa" => Box::new(SimulatedAnnealing::new(seed)),
        "tabu" => Box::new(TabuSearch::new(seed)),
        other => panic!("unknown algorithm {other}"),
    }
}

#[test]
fn single_cell_matches_direct_scheduler_run_for_every_algorithm() {
    let scenario = tiny_suite()[0];
    let seed = 7u64;
    for objective in [ObjectiveKind::Makespan, ObjectiveKind::TotalFlowtime] {
        let spec = TournamentSpec {
            seeds: vec![seed],
            scenarios: vec![scenario],
            objectives: vec![objective.label()],
            iterations: 10,
            ..TournamentSpec::new("single", vec![scenario])
        };
        let run = run_tournament(&spec).unwrap();
        assert_eq!(run.cells.len(), spec.algorithms.len());
        let inst = scenario.generate(seed);
        let budget = RunBudget::iterations(10).with_objective(objective);
        for cell in &run.cells {
            assert!(cell.ok, "{}: {}", cell.algorithm, cell.error);
            let direct = cli_style_scheduler(&cell.algorithm, seed).run(&inst, &budget, None);
            assert_eq!(
                cell.objective_value,
                direct.objective_value,
                "{} objective under {}",
                cell.algorithm,
                objective.label()
            );
            assert_eq!(cell.makespan, direct.makespan, "{} makespan", cell.algorithm);
            assert_eq!(cell.evaluations, direct.evaluations, "{} evaluations", cell.algorithm);
            assert_eq!(cell.iterations, direct.iterations, "{} iterations", cell.algorithm);
        }
    }
}

#[test]
fn leaderboard_json_is_bit_identical_across_thread_counts_and_repeats() {
    for portfolio in [false, true] {
        let mut spec = tiny_spec();
        spec.portfolio = portfolio;
        spec.rounds = 4;
        let reference = {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
            let run = pool.install(|| run_tournament(&spec)).unwrap();
            serde_json::to_string(&aggregate(&run).0).unwrap()
        };
        for threads in [2usize, 8] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            let run = pool.install(|| run_tournament(&spec)).unwrap();
            let json = serde_json::to_string(&aggregate(&run).0).unwrap();
            assert_eq!(
                json, reference,
                "portfolio={portfolio}: leaderboard JSON must be bit-identical at {threads} \
                 threads"
            );
        }
        // And across repeat runs on the same pool.
        let again = serde_json::to_string(&aggregate(&run_tournament(&spec).unwrap()).0).unwrap();
        assert_eq!(again, reference, "portfolio={portfolio}: repeat run must be bit-identical");
    }
}

#[test]
fn spec_file_with_retired_cost_knobs_yields_the_same_leaderboard() {
    // A spec written while `prune` and `ga_full_eval` existed, with both
    // escape hatches set, still loads (the keys are ignored) and races
    // to the same leaderboard bytes as the spec without them.
    let spec = tiny_spec();
    let json = serde_json::to_string(&spec).unwrap();
    let old = json.replacen('{', "{\"prune\":false,\"ga_full_eval\":true,", 1);
    let loaded: TournamentSpec = serde_json::from_str(&old).unwrap();
    assert_eq!(loaded, spec);
    let board = |spec: &TournamentSpec| {
        serde_json::to_string(&aggregate(&run_tournament(spec).unwrap()).0).unwrap()
    };
    assert_eq!(board(&loaded), board(&spec));
}

#[test]
fn panicking_cells_are_reported_not_fatal() {
    // machines = 0 would make workload generation panic in every cell of
    // its race; the spec is rejected up front, naming the field.
    let broken = Scenario::layered(10, 0, Connectivity::Medium, Heterogeneity::Medium, 0.5);
    let (panicking, healthy) = (tiny_suite()[1], tiny_suite()[0]);
    let algorithms: Vec<String> = vec!["se".into(), "heft".into(), "sa".into()];
    let spec = |scenarios| TournamentSpec {
        algorithms: algorithms.clone(),
        seeds: vec![3],
        iterations: 5,
        cell_retries: 0,
        ..TournamentSpec::new("mixed", scenarios)
    };
    let e = run_tournament(&spec(vec![broken, healthy])).unwrap_err();
    assert!(e.contains("scenarios[0].machines: must be at least 1"), "{e}");
    // A cell that panics while it runs is reported, not fatal: with no
    // retries, an injected panic in every cell of one race fails that
    // race's cells while the healthy race completes.
    let _faults = FAULTS.lock().unwrap_or_else(|e| e.into_inner());
    let plan = mshc_schedule::FaultPlan {
        cell_panics: algorithms
            .iter()
            .map(|a| mshc_schedule::CellFault {
                algorithm: a.clone(),
                scenario: panicking.tag(),
                seed: 3,
            })
            .collect(),
        ..mshc_schedule::FaultPlan::default()
    };
    mshc_schedule::faults::arm(&plan);
    let run = run_tournament(&spec(vec![panicking, healthy])).unwrap();
    mshc_schedule::faults::disarm();
    let (board, timing) = aggregate(&run);
    assert_eq!(board.cells, 6);
    assert_eq!(board.failures, 3, "every cell of the panicking race fails");
    for cell in board.results.iter().filter(|c| !c.ok) {
        assert_eq!(cell.scenario, panicking.tag());
        assert!(cell.error.contains("fault injection"), "panic message surfaced: {}", cell.error);
        assert_eq!(cell.evaluations, 0);
    }
    for cell in board.results.iter().filter(|c| c.ok) {
        assert_eq!(cell.scenario, healthy.tag());
        assert!(cell.objective_value > 0.0);
    }
    // The report names the failures and the failure count.
    let report = render_report(&board, &timing);
    assert!(report.contains("3 failed"));
    assert!(report.contains("FAILED se"));
    assert!(report.contains("evals/sec"));
    // Standings only aggregate completed cells.
    for s in &board.standings {
        assert_eq!(s.cells, 2);
        assert_eq!(s.failures, 1);
        assert!(s.win_rate <= 1.0);
    }
}

#[test]
fn portfolio_migration_bounds_every_lane_by_the_best_constructive() {
    // After the first round barrier every live lane has seen the best
    // incumbent so far — which is at least as good as the best one-shot
    // constructive solution (those finish in round one). Incumbents are
    // monotone afterwards, so every iterative lane must finish at or
    // below the best constructive baseline. Independent mode has no such
    // guarantee: SA/random starting points can lose to HEFT outright.
    let scenario = tiny_suite()[0];
    let spec = TournamentSpec {
        algorithms: vec![
            "se".into(),
            "ga".into(),
            "sa".into(),
            "tabu".into(),
            "random".into(),
            "heft".into(),
            "min-min".into(),
        ],
        seeds: vec![11, 12],
        iterations: 20,
        portfolio: true,
        rounds: 5,
        ..TournamentSpec::new("race", vec![scenario])
    };
    let run = run_tournament(&spec).unwrap();
    for seed in [11u64, 12] {
        let of = |name: &str| {
            run.cells
                .iter()
                .find(|c| c.algorithm == name && c.seed == seed)
                .filter(|c| c.ok)
                .map(|c| c.objective_value)
                .unwrap()
        };
        let constructive = of("heft").min(of("min-min"));
        for algo in ["se", "ga", "sa", "tabu", "random"] {
            assert!(
                of(algo) <= constructive + 1e-9,
                "seed {seed}: portfolio lane {algo} ({}) must not lose to the shared \
                 constructive incumbent ({constructive})",
                of(algo)
            );
        }
    }
}

#[test]
fn aggregation_wins_and_ranks_are_consistent() {
    let spec = tiny_spec();
    let run = run_tournament(&spec).unwrap();
    let (board, timing) = aggregate(&run);
    assert_eq!(board.races, 4, "2 scenarios x 2 seeds");
    assert_eq!(board.cells, board.races * spec.algorithms.len());
    assert_eq!(board.failures, 0);
    // Every race has at least one winner; wins sum >= races.
    let wins: usize = board.standings.iter().map(|s| s.wins).sum();
    assert!(wins >= board.races, "each race crowns at least one winner");
    // Standings are sorted best-first and internally consistent.
    for pair in board.standings.windows(2) {
        assert!(
            pair[0].wins > pair[1].wins
                || (pair[0].wins == pair[1].wins && pair[0].mean_rank <= pair[1].mean_rank),
            "standings sorted by wins then mean rank"
        );
    }
    for s in &board.standings {
        assert!((0.0..=1.0).contains(&s.win_rate));
        assert!(s.mean_rank >= 1.0, "{} rank {}", s.algorithm, s.mean_rank);
        assert!(s.best_objective <= s.mean_objective + 1e-9);
        assert!(s.total_evaluations > 0, "{}", s.algorithm);
    }
    // One-shot heuristics evaluate deterministically per race; the
    // timing side reports aggregate throughput.
    assert!(timing.total_evaluations > 0);
    assert!(timing.evals_per_sec > 0.0);
    // CSV export covers every cell with the declared header arity.
    let csv = cells_csv(&board, &run.timing).to_string_csv();
    assert_eq!(csv.lines().count(), 1 + board.cells);
    assert!(csv.starts_with("algorithm,scenario,seed,objective,ok,"));
    // The clone fraction column follows `early_stopped` and
    // parses as an in-range fraction on every row.
    let header: Vec<&str> = csv.lines().next().unwrap().split(',').collect();
    let reuse_col = header.iter().position(|&h| h == "clone_fraction").unwrap();
    assert_eq!(header[reuse_col - 1], "early_stopped");
    assert!(!header.contains(&"pruned_fraction") && !header.contains(&"spliced_fraction"));
    for line in csv.lines().skip(1) {
        let cols: Vec<&str> = line.split(',').collect();
        assert_eq!(cols.len(), header.len());
        let f: f64 = cols[reuse_col].parse().expect("fraction parses");
        assert!((0.0..=1.0).contains(&f), "{line}");
    }
    // An empty sidecar (re-exported leaderboard) renders a zero fraction
    // with identical shape.
    let bare = cells_csv(&board, &[]).to_string_csv();
    assert_eq!(bare.lines().count(), csv.lines().count());
}

#[test]
fn portfolio_cells_stay_deterministic_with_oneshot_lanes() {
    // A portfolio race mixing steppable searches with one-shot lanes
    // must reproduce exactly (the one-shots donate incumbents at the
    // first barrier).
    let spec = TournamentSpec {
        algorithms: vec!["heft".into(), "min-min".into(), "sa".into(), "random".into()],
        seeds: vec![2],
        iterations: 30,
        portfolio: true,
        rounds: 3,
        ..TournamentSpec::new("mix", vec![tiny_suite()[1]])
    };
    let a = run_tournament(&spec).unwrap();
    let b = run_tournament(&spec).unwrap();
    assert_eq!(a.cells, b.cells);
    for cell in &a.cells {
        assert!(cell.ok, "{}: {}", cell.algorithm, cell.error);
    }
    // The SA lane sees HEFT/min-min constructive solutions after round
    // one; its final answer can only match or beat the best one-shot.
    let best_oneshot = a
        .cells
        .iter()
        .filter(|c| c.algorithm == "heft" || c.algorithm == "min-min")
        .map(|c| c.objective_value)
        .fold(f64::INFINITY, f64::min);
    let sa = a.cells.iter().find(|c| c.algorithm == "sa").unwrap();
    assert!(sa.objective_value <= best_oneshot + 1e-9);
}

#[test]
fn injected_cell_fault_is_retried_and_marked_degraded() {
    // One armed cell fault panics the se cell's first attempt; the
    // bounded same-seed retry finds the fault consumed and completes.
    // The cell lands on the board flagged degraded, byte-identical in
    // every payload field to a fault-free run of the same spec.
    let _faults = FAULTS.lock().unwrap_or_else(|e| e.into_inner());
    let scenario = tiny_suite()[0];
    let spec = TournamentSpec {
        algorithms: vec!["se".into(), "heft".into()],
        seeds: vec![4242],
        iterations: 8,
        ..TournamentSpec::new("chaos", vec![scenario])
    };
    let clean = run_tournament(&spec).unwrap();

    let plan = mshc_schedule::FaultPlan {
        cell_panics: vec![mshc_schedule::CellFault {
            algorithm: "se".into(),
            scenario: scenario.tag(),
            seed: 4242,
        }],
        ..mshc_schedule::FaultPlan::default()
    };
    mshc_schedule::faults::arm(&plan);
    let faulted = run_tournament(&spec).unwrap();
    mshc_schedule::faults::disarm();

    let (clean_board, _) = aggregate(&clean);
    let (board, timing) = aggregate(&faulted);
    assert_eq!(board.failures, 0, "the retry absorbs the injected panic");
    assert_eq!(board.degraded, 1);
    let se = board.results.iter().find(|c| c.algorithm == "se").unwrap();
    assert!(se.ok && se.degraded);
    assert_eq!(se.retries, 1);
    assert_eq!(se.termination, "budget");
    let heft = board.results.iter().find(|c| c.algorithm == "heft").unwrap();
    assert!(!heft.degraded, "fault-free lanes are untouched");
    assert_eq!(heft.retries, 0);
    // Modulo the retry bookkeeping, the degraded cell's answer is the
    // clean run's answer: same-seed retries reproduce the search bit
    // for bit.
    let clean_se = clean_board.results.iter().find(|c| c.algorithm == "se").unwrap();
    assert_eq!(se.objective_value.to_bits(), clean_se.objective_value.to_bits());
    assert_eq!(se.evaluations, clean_se.evaluations);
    let report = render_report(&board, &timing);
    assert!(report.contains("1 degraded"));
    assert!(report.contains("DEGRADED se"));
    assert!(report.contains("completed after 1 retries"));
    // The CSV export carries the new trailing columns.
    let csv = cells_csv(&board, &faulted.timing).to_string_csv();
    assert!(csv.lines().next().unwrap().ends_with("retries,degraded,termination"));
    assert!(csv.contains(",1,true,budget"));
}

#[test]
fn exhausted_retry_budget_surfaces_the_failure() {
    // Two faults against one cell with the default single retry: both
    // attempts panic and the cell fails with the injected message, but
    // the tournament itself survives.
    let _faults = FAULTS.lock().unwrap_or_else(|e| e.into_inner());
    let scenario = tiny_suite()[0];
    let spec = TournamentSpec {
        algorithms: vec!["sa".into(), "heft".into()],
        seeds: vec![777],
        iterations: 6,
        ..TournamentSpec::new("chaos2", vec![scenario])
    };
    let fault =
        mshc_schedule::CellFault { algorithm: "sa".into(), scenario: scenario.tag(), seed: 777 };
    let plan = mshc_schedule::FaultPlan {
        cell_panics: vec![fault.clone(), fault],
        ..mshc_schedule::FaultPlan::default()
    };
    mshc_schedule::faults::arm(&plan);
    let run = run_tournament(&spec).unwrap();
    mshc_schedule::faults::disarm();
    let (board, _) = aggregate(&run);
    assert_eq!(board.failures, 1);
    assert_eq!(board.degraded, 0, "failed cells are failed, not degraded");
    let sa = board.results.iter().find(|c| c.algorithm == "sa").unwrap();
    assert!(!sa.ok);
    assert_eq!(sa.retries, 1, "the one allowed retry was spent");
    assert!(sa.error.contains("fault injection"), "injected cause surfaced: {}", sa.error);
    assert!(board.results.iter().find(|c| c.algorithm == "heft").unwrap().ok);
}
