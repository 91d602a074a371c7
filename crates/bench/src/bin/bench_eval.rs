//! `bench_eval` — evaluation-throughput probe and `BENCH_eval.json`
//! emitter.
//!
//! Measures candidate-evaluation throughput four ways on one paper-scale
//! workload (SE allocation-scan shape: "base with task `t` moved"):
//!
//! 1. **scalar / full** — one [`Evaluator`], move + full O(k + p) pass
//!    per candidate (the historic sequential baseline, and the "full
//!    re-evaluation" series of the full-vs-incremental comparison);
//! 2. **incremental** — one [`IncrementalEvaluator`] on a single thread:
//!    the base is primed once, every candidate is a checkpoint-resumed
//!    suffix replay. `incremental_speedup_vs_full` is the algorithmic
//!    win (same thread count, same candidates, same bits out);
//! 3. **batch ×1** — [`BatchEvaluator`] pinned to a single worker thread
//!    (isolates batch-machinery overhead);
//! 4. **batch ×N** — [`BatchEvaluator`] on the requested pool (default:
//!    available parallelism, or `--threads N`) — thread parallelism
//!    compounding on top of the incremental scoring inside.
//!
//! SE's own allocation scan gets a probe on its real grids: every
//! position × machine of every task of a partly converged incumbent,
//! scanned single-threaded through the machine-lane argmin
//! (`lane_scan_evals_per_sec`) and through the argmin that scores each
//! candidate with one `score_move`; `lane_speedup_vs_exact` is their
//! same-process ratio, with the winners asserted identical.
//!
//! An executor-level series rides along since the persistent pool
//! landed: `thread_scaling_evals_per_sec` (batch throughput at 1/2/4/8
//! pool sizes on the wide grid).
//!
//! A **GA generation probe** runs the whole scheduler on the same
//! preset: offspring evaluations per second, and the share of string
//! positions served by exact clones instead of a full pass.
//!
//! Writes the numbers as JSON (default `BENCH_eval.json`, `--out FILE`)
//! so CI can archive the perf trajectory per commit; the CI smoke step
//! asserts both the full and incremental series are present. `--quick`
//! shrinks the measurement for smoke runs.
//!
//! ```text
//! cargo run --release -p mshc-bench --bin bench_eval -- --threads 8
//! ```

use mshc_ga::GaScheduler;
use mshc_platform::{HcInstance, HcSystem, MachineId, Matrix};
use mshc_portfolio::{TournamentSpec, ALGORITHMS};
use mshc_schedule::{
    BatchEvaluator, EvalSnapshot, Evaluator, IncrementalEvaluator, InstanceBound, ObjectiveKind,
    Replanner, RunBudget, Scheduler, Solution, Termination,
};
use mshc_taskgraph::{TaskGraphBuilder, TaskId};
use mshc_workloads::{tiny_suite, DisturbanceTrace, DisturbanceTraceSpec, WorkloadSpec};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use std::hint::black_box;
use std::ops::RangeInclusive;
use std::time::Instant;

/// `BENCH_eval.json` schema version — bumped whenever series are added
/// or removed, so downstream tooling can gate on it.
const SCHEMA_VERSION: u32 = 5;

/// The JSON payload CI archives.
#[derive(Debug, Serialize)]
struct BenchReport {
    /// Report schema version ([`SCHEMA_VERSION`]).
    schema_version: u32,
    tasks: usize,
    machines: usize,
    candidates: usize,
    rounds: usize,
    threads: usize,
    /// `std::thread::available_parallelism()` on the measuring host —
    /// context for comparing throughput series across machines.
    available_parallelism: usize,
    /// Full re-evaluation series: move + full pass per candidate, one
    /// thread.
    scalar_evals_per_sec: f64,
    /// Incremental series: suffix replay per candidate, one thread,
    /// auto checkpoint stride.
    incremental_evals_per_sec: f64,
    /// incremental over full, single-threaded — the algorithmic win
    /// (≥ 2x expected on the 100-task preset).
    incremental_speedup_vs_full: f64,
    /// SE's allocation scan on machine lanes: candidates per second over
    /// every task's full position × machine grid of a partly converged
    /// incumbent, one thread (`BatchEvaluator::best_relocation`).
    lane_scan_evals_per_sec: f64,
    /// Lane scan over the argmin that scores each candidate with one
    /// `IncrementalEvaluator::score_move` (`BatchEvaluator::best_task_move`)
    /// on the same grids, one thread — a same-process, hardware-stable
    /// ratio.
    lane_speedup_vs_exact: f64,
    batch_1thread_evals_per_sec: f64,
    batch_evals_per_sec: f64,
    /// batch ×N over scalar — the headline number (≥ 2x expected with
    /// ≥ 4 real cores, compounding with the incremental win).
    speedup_vs_scalar: f64,
    /// batch ×N over batch ×1 — pure thread scaling.
    thread_scaling: f64,
    /// Batch throughput at each pool size on the wide grid — the full
    /// scaling curve (the `thread_scaling` ratio is batch ×N over the
    /// first point).
    thread_scaling_evals_per_sec: Vec<ThreadScalingPoint>,
    /// Tournament-engine throughput: completed cells per second on the
    /// tiny scenario suite (6 algorithms × 2 scenarios × 2 seeds), races
    /// fanned out over the same pool as batch ×N.
    tournament_cells_per_sec: f64,
    /// Mean microseconds to compute the certified instance lower bound
    /// (`InstanceBound::compute`) on the 100-task preset — the one-off
    /// per-run cost the certificate stack adds.
    lower_bound_us_per_instance: f64,
    /// Mean certified optimality gap across the completed tournament
    /// cells (1.0 = provably optimal; tiny-suite makespan races are all
    /// certified, so no cell is excluded).
    mean_gap: f64,
    /// Fraction of certified-probe cells (every algorithm raced on an
    /// integer-exact balanced instance whose floor is reachable) that
    /// terminated early at the certified floor.
    early_stop_fraction: f64,
    /// Mean microseconds per disturbance for the full replan flow on a
    /// small preset: freeze the committed prefix, rebuild the residual
    /// instance, re-prime the incremental evaluator from the disturbed
    /// frontier, and re-run the search on the residue. Tracks the
    /// latency a dropout costs the serve path.
    replan_us_per_disturbance: f64,
    /// Fraction of tournament cells that completed only after bounded
    /// same-seed retries when a seeded fault plan panics a subset of
    /// cells — the chaos-harness health series (expected: exactly the
    /// injected fraction; more means real panics, fewer means faults
    /// stopped firing).
    degraded_cell_fraction: f64,
    /// GA offspring-fitness throughput: evaluations per second across
    /// whole generations on the paper-scale preset.
    ga_generation_evals_per_sec: f64,
    /// Fraction of offspring string positions the GA's population pass
    /// served by exact clones instead of a full pass.
    ga_clone_fraction: f64,
    /// Work-stealing pool: chunks claimed from a foreign worker's queue
    /// over the GA probe window (timing plane of the obs registry —
    /// varies run to run, archived as an executor-health series).
    steal_count: u64,
    /// Injector-queue high-water mark over the same window.
    queue_depth_hwm: u64,
}

/// One point of the thread-scaling curve.
#[derive(Debug, Serialize)]
struct ThreadScalingPoint {
    threads: usize,
    evals_per_sec: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = "BENCH_eval.json".to_string();
    let mut threads = 0usize;
    let mut rounds = 60usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                out_path = args.get(i + 1).cloned().expect("--out needs a path");
                i += 2;
            }
            "--threads" => {
                threads =
                    args.get(i + 1).and_then(|v| v.parse().ok()).expect("--threads needs a number");
                i += 2;
            }
            "--quick" => {
                rounds = 6;
                i += 1;
            }
            other => panic!("unknown argument {other:?} (try --out, --threads, --quick)"),
        }
    }
    let available_parallelism = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let threads = if threads > 0 { threads } else { available_parallelism };

    // The GA prefix-reuse series comes from the obs registry — the same
    // counters `mshc --metrics` exports — reset before its probe and
    // snapshotted after, with the run's own `ScanStats` kept as a
    // cross-check. Recording is write-only, so leaving it enabled for
    // the whole run cannot change any measured bits (it does add a few
    // nanoseconds per counter bump, identically across compared series).
    mshc_obs::reset();
    mshc_obs::enable(true);

    // Paper-comparison scale: 100 tasks, 20 machines; the candidate grid
    // is the widest single-task (position × machine) fan-out on the
    // instance — the same shape the criterion `batch_candidates` group
    // measures (both come from `probes::widest_move_grid`).
    let spec = WorkloadSpec { tasks: 100, machines: 20, ..WorkloadSpec::large(2001) };
    let inst = spec.generate();
    let g = inst.graph();
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let base = mshc_schedule::random_solution(&inst, &mut rng);
    let (t, moves) = mshc_bench::probes::widest_move_grid(&inst, &base);
    let obj = ObjectiveKind::Makespan;
    let snapshot = EvalSnapshot::new(&inst);

    // Scalar baseline: move + full pass per candidate, one thread, no
    // batch machinery.
    let scalar_eps = {
        let mut eval = Evaluator::with_snapshot(&snapshot);
        let mut scratch: Solution = base.clone();
        let start = Instant::now();
        let mut evals = 0u64;
        for _ in 0..rounds {
            for &(pos, m) in &moves {
                scratch.move_task(g, t, pos, m).expect("in-range");
                black_box(eval.objective_value(&scratch, &obj));
                evals += 1;
            }
        }
        evals as f64 / start.elapsed().as_secs_f64()
    };

    let batch_eps = |n: usize| {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(n).build().expect("pool");
        pool.install(|| {
            let mut batch = BatchEvaluator::new(&snapshot);
            // Warm the arenas once so steady-state throughput is measured.
            black_box(batch.score_moves(g, &base, t, &moves, &obj));
            let start = Instant::now();
            for _ in 0..rounds {
                black_box(batch.score_moves(g, &base, t, &moves, &obj));
            }
            (rounds * moves.len()) as f64 / start.elapsed().as_secs_f64()
        })
    };
    // Incremental move scan: prime once, suffix-replay per candidate —
    // same single thread, same candidates, bit-identical scores; the
    // throughput difference is purely algorithmic.
    let incremental_eps = {
        let mut inc = IncrementalEvaluator::with_snapshot(&snapshot);
        inc.prime(&base);
        let start = Instant::now();
        let mut evals = 0u64;
        for _ in 0..rounds {
            for &(pos, m) in &moves {
                black_box(inc.score_move(t, pos, m, &obj));
                evals += 1;
            }
        }
        evals as f64 / start.elapsed().as_secs_f64()
    };

    // SE's allocation grids: every task of an incumbent after a few SE
    // iterations, each over its full valid range × all machines, scanned
    // on one thread through the lane argmin and through the argmin that
    // scores each candidate with one `score_move`. Both must pick the
    // same cell with the same score bits.
    let (lane_eps, lane_speedup) = {
        let incumbent = mshc_core::SeScheduler::with_seed(2001)
            .run(&inst, &RunBudget::iterations(4), None)
            .solution;
        let machines: Vec<MachineId> =
            (0..inst.machine_count()).map(MachineId::from_usize).collect();
        let ranges: Vec<(TaskId, RangeInclusive<usize>)> = g
            .tasks()
            .map(|t| {
                let (lo, hi) = incumbent.valid_range(g, t);
                (t, lo..=hi)
            })
            .collect();
        let grids: Vec<Vec<(TaskId, usize, MachineId)>> = ranges
            .iter()
            .map(|(t, positions)| {
                let own = (incumbent.position_of(*t), incumbent.machine_of(*t));
                positions
                    .clone()
                    .flat_map(|pos| machines.iter().map(move |&m| (*t, pos, m)))
                    .filter(|&(_, pos, m)| (pos, m) != own)
                    .collect()
            })
            .collect();
        let cells: usize = grids.iter().map(Vec::len).sum();
        // The winning cell and its score bits, per task.
        type Winners = Vec<(usize, MachineId, u64)>;
        let reps = (rounds / 2).max(2);
        let pool = rayon::ThreadPoolBuilder::new().num_threads(1).build().expect("pool");
        pool.install(|| {
            let mut batch = BatchEvaluator::new(&snapshot);
            let lane_scan = |batch: &mut BatchEvaluator<'_>| -> Winners {
                ranges
                    .iter()
                    .map(|(t, positions)| {
                        let best = batch
                            .best_relocation(g, &incumbent, *t, positions.clone(), &machines, &obj)
                            .expect("non-empty grid");
                        (best.pos, best.machine, best.score.to_bits())
                    })
                    .collect()
            };
            let exact_scan = |batch: &mut BatchEvaluator<'_>| -> Winners {
                grids
                    .iter()
                    .map(|cells| {
                        let best = batch
                            .best_task_move(g, &incumbent, cells, None, 0.0, &obj)
                            .expect("non-empty grid");
                        let (_, pos, m) = cells[best.index];
                        (pos, m, best.score.to_bits())
                    })
                    .collect()
            };
            let timed = |scan: &dyn Fn(&mut BatchEvaluator<'_>) -> Winners,
                         batch: &mut BatchEvaluator<'_>| {
                let winners = scan(batch); // warm the arena
                let start = Instant::now();
                for _ in 0..reps {
                    black_box(scan(batch));
                }
                ((reps * cells) as f64 / start.elapsed().as_secs_f64(), winners)
            };
            let (lane, lane_winners) = timed(&lane_scan, &mut batch);
            let (exact, exact_winners) = timed(&exact_scan, &mut batch);
            assert_eq!(lane_winners, exact_winners, "lane and per-candidate scans must agree");
            (lane, lane / exact)
        })
    };

    // The scaling curve at the canonical pool sizes; `batch ×1` and
    // `batch ×N` reuse curve points when the size matches.
    let scaling: Vec<ThreadScalingPoint> = [1usize, 2, 4, 8]
        .into_iter()
        .map(|n| ThreadScalingPoint { threads: n, evals_per_sec: batch_eps(n) })
        .collect();
    let curve_point = |n: usize| scaling.iter().find(|p| p.threads == n).map(|p| p.evals_per_sec);
    let batch1_eps = curve_point(1).expect("curve has the 1-thread point");
    let batchn_eps = curve_point(threads).unwrap_or_else(|| batch_eps(threads));

    // Tournament-engine probe: a fixed tiny grid raced end to end; the
    // cells/sec series tracks whole-subsystem throughput (workload
    // generation + all three evaluator tiers + aggregation) per commit.
    let tournament_cps = {
        let tournament = TournamentSpec {
            algorithms: ["se", "ga", "sa", "tabu", "heft", "min-min"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            seeds: mshc_portfolio::replicate_seeds(2001, 2),
            iterations: if rounds <= 6 { 10 } else { 30 },
            ..TournamentSpec::new("tiny", tiny_suite())
        };
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("pool");
        let run = pool
            .install(|| mshc_portfolio::run_tournament(&tournament))
            .expect("tiny tournament runs");
        let (board, timing) = mshc_portfolio::aggregate(&run);
        assert_eq!(board.failures, 0, "bench tournament must not have failing cells");
        let gaps: Vec<f64> = board.results.iter().filter_map(|c| c.gap).collect();
        assert!(!gaps.is_empty(), "makespan races must carry certificates");
        (timing.cells_per_sec, gaps.iter().sum::<f64>() / gaps.len() as f64)
    };
    let (tournament_cps, mean_gap) = tournament_cps;

    // Certificate probes. The bound computation is a one-off per-run
    // cost, so its series is microseconds per instance, not evals/sec.
    let lower_bound_us = {
        let reps = (rounds * 50).max(100);
        let start = Instant::now();
        for _ in 0..reps {
            black_box(InstanceBound::compute(black_box(&inst)));
        }
        start.elapsed().as_secs_f64() * 1e6 / reps as f64
    };

    // Early-stop probe: an integer-exact balanced instance (8
    // independent tasks, 2 machines, every execution 6.0 → certified
    // floor 24.0, reachable by any 4+4 split) raced by the full
    // portfolio. Iterative schedulers that land on the floor terminate
    // early; one-shot heuristics never do — the fraction tracks how
    // much of the portfolio the certificate actually short-circuits.
    let early_stop_fraction = {
        let g = TaskGraphBuilder::new(8).build().expect("trivial graph");
        let exec = Matrix::filled(2, 8, 6.0);
        let sys = HcSystem::with_anonymous_machines(2, exec, Matrix::filled(1, 0, 0.0))
            .expect("balanced system");
        let balanced = HcInstance::new(g, sys).expect("balanced instance");
        let budget = RunBudget::iterations(if rounds <= 6 { 40 } else { 120 });
        let stops = ALGORITHMS
            .iter()
            .filter(|name| {
                let mut s = mshc_portfolio::build_contestant(name, 2001).expect("known algorithm");
                s.run(&balanced, &budget).termination == Termination::Floor
            })
            .count();
        stops as f64 / ALGORITHMS.len() as f64
    };

    // Replan probe: a fixed disturbance trace applied to a baseline SA
    // schedule on a small preset, timed end to end (prefix freeze +
    // residual instance build + evaluator re-prime + residual search).
    let replan_us = {
        let small =
            WorkloadSpec { tasks: 40, machines: 4, seed: 2001, ..WorkloadSpec::small(2001) }
                .generate();
        let budget = RunBudget::iterations(if rounds <= 6 { 10 } else { 30 });
        let mut search = mshc_heuristics::SimulatedAnnealing::new(mshc_heuristics::SaConfig {
            seed: 2001,
            ..mshc_heuristics::SaConfig::default()
        });
        let baseline = search.run(&small, &budget, None);
        let trace = DisturbanceTrace::generate(
            &DisturbanceTraceSpec::balanced(4, baseline.makespan, 4),
            2001,
        );
        let reps = (rounds / 2).max(3);
        let start = Instant::now();
        let mut applied = 0u64;
        for _ in 0..reps {
            let mut replanner = Replanner::new(&small, baseline.solution.clone());
            for d in &trace.events {
                black_box(replanner.apply(d, &mut search, &budget).expect("trace is applicable"));
                applied += 1;
            }
        }
        start.elapsed().as_secs_f64() * 1e6 / applied as f64
    };

    // Chaos probe: the tiny tournament under a seeded fault plan that
    // panics two named cells. Both must come back degraded (retried,
    // not dropped), nothing else may be touched.
    let degraded_cell_fraction = {
        let spec = TournamentSpec {
            algorithms: ["se", "sa", "heft"].iter().map(|s| s.to_string()).collect(),
            seeds: vec![2001],
            iterations: 6,
            ..TournamentSpec::new("chaos", tiny_suite())
        };
        let tags: Vec<String> = tiny_suite().iter().map(|sc| sc.tag()).collect();
        mshc_schedule::faults::quiet_injected_panics();
        mshc_schedule::faults::arm(&mshc_schedule::FaultPlan {
            cell_panics: vec![
                mshc_schedule::CellFault {
                    algorithm: "se".into(),
                    scenario: tags[0].clone(),
                    seed: 2001,
                },
                mshc_schedule::CellFault {
                    algorithm: "sa".into(),
                    scenario: tags[1].clone(),
                    seed: 2001,
                },
            ],
            ..mshc_schedule::FaultPlan::default()
        });
        let run = mshc_portfolio::run_tournament(&spec).expect("chaos tournament runs");
        mshc_schedule::faults::disarm();
        let (board, _) = mshc_portfolio::aggregate(&run);
        assert_eq!(board.failures, 0, "retries must absorb both injected panics");
        assert_eq!(board.degraded, 2, "both injected cells must be flagged");
        board.degraded as f64 / board.cells as f64
    };

    // GA generation probe: the whole scheduler run end to end on the
    // paper-scale preset, timed over a few repetitions after a warm-up.
    let (ga_eps, ga_clones) = {
        let gens = if rounds <= 6 { 15 } else { 60 };
        let reps = (rounds / 3).max(2);
        let budget = RunBudget::iterations(gens);
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("pool");
        pool.install(|| {
            // Warm-up run spawns the pool workers and fills arenas.
            black_box(GaScheduler::with_seed(2001).run(&inst, &budget, None));
            // Reset so the registry window covers only the timed
            // repetitions: its clone fraction is then the same
            // ratio as a single run's (identical runs sum to identical
            // ratios, up to one f64 rounding in the division).
            mshc_obs::reset();
            let start = Instant::now();
            let mut run = GaScheduler::with_seed(2001).run(&inst, &budget, None);
            for _ in 1..reps {
                run = GaScheduler::with_seed(2001).run(&inst, &budget, None);
            }
            let secs = start.elapsed().as_secs_f64() / reps as f64;
            let clones = mshc_obs::snapshot().deterministic.clone_fraction();
            assert!(
                (clones - run.scan.prefix_reuse_fraction()).abs() < 1e-9,
                "registry-sourced clone fraction ({clones}) must match the run's own stats ({})",
                run.scan.prefix_reuse_fraction()
            );
            (run.evaluations as f64 / secs, clones)
        })
    };

    // Executor-health series: the timing plane accumulated since the GA
    // probe's reset (the GA generations — the heaviest pool traffic in
    // the run). Bridged from the pool's own counters at snapshot time.
    let obs_timing = mshc_obs::snapshot().timing;

    let report = BenchReport {
        schema_version: SCHEMA_VERSION,
        tasks: inst.task_count(),
        machines: inst.machine_count(),
        candidates: moves.len(),
        rounds,
        threads,
        available_parallelism,
        scalar_evals_per_sec: scalar_eps,
        incremental_evals_per_sec: incremental_eps,
        incremental_speedup_vs_full: incremental_eps / scalar_eps,
        lane_scan_evals_per_sec: lane_eps,
        lane_speedup_vs_exact: lane_speedup,
        batch_1thread_evals_per_sec: batch1_eps,
        batch_evals_per_sec: batchn_eps,
        speedup_vs_scalar: batchn_eps / scalar_eps,
        thread_scaling: batchn_eps / batch1_eps,
        thread_scaling_evals_per_sec: scaling,
        tournament_cells_per_sec: tournament_cps,
        lower_bound_us_per_instance: lower_bound_us,
        mean_gap,
        early_stop_fraction,
        replan_us_per_disturbance: replan_us,
        degraded_cell_fraction,
        ga_generation_evals_per_sec: ga_eps,
        ga_clone_fraction: ga_clones,
        steal_count: obs_timing.steal_count,
        queue_depth_hwm: obs_timing.queue_depth_hwm,
    };
    let json = serde_json::to_string(&report).expect("report serializes");
    std::fs::write(&out_path, &json).expect("write BENCH_eval.json");
    println!("{json}");
    println!(
        "full {:.0}/s | incremental {:.0}/s ({:.2}x) | batch x1 {:.0}/s | batch x{} {:.0}/s \
         ({:.2}x)",
        scalar_eps,
        incremental_eps,
        report.incremental_speedup_vs_full,
        batch1_eps,
        threads,
        batchn_eps,
        report.speedup_vs_scalar
    );
    println!(
        "se allocation grids: lane scan {:.0}/s ({:.2}x vs one score_move per candidate, one \
         thread)",
        lane_eps, lane_speedup
    );
    println!(
        "ga: {:.0} evals/s, {:.1}% of string positions served by clones",
        ga_eps,
        100.0 * ga_clones
    );
    println!("tournament: {:.2} cells/sec (tiny suite, {} threads)", tournament_cps, threads);
    println!(
        "executor: {} steals, queue depth hwm {} (GA probe window)",
        report.steal_count, report.queue_depth_hwm
    );
    println!(
        "certificates: lower bound {:.1}us/instance | mean gap {:.3}x | {:.0}% of the probe \
         portfolio early-stopped",
        lower_bound_us,
        mean_gap,
        100.0 * early_stop_fraction
    );
    println!("wrote {out_path}");
}
