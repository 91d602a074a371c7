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
//! 3. **batch ×1** — [`BatchEvaluator::score_task_moves`] (tabu's scan)
//!    over the same candidates as `(t, pos, m)` triples, pinned to a
//!    single worker thread (isolates batch-machinery overhead);
//! 4. **batch ×N** — the same call on the requested pool (default:
//!    available parallelism, or `--threads N`) — thread parallelism
//!    compounding on top of the incremental scoring inside.
//!
//! SE's own allocation scan gets a probe on its real grids: every
//! position × machine of every task of a partly converged incumbent,
//! scanned single-threaded through SE's relocation argmin
//! (`lane_scan_evals_per_sec`) and through the argmin that scores each
//! cell with one `score_move`; `lane_speedup_vs_exact` is their
//! same-process ratio, the median of five timed repeats, with the
//! winners asserted identical. Under the probe's makespan objective the
//! relocation argmin replays one cell per run of identical schedules,
//! every one of them a lane of a lockstep pass over the string without
//! the relocated task, and stops at the first pass that meets the
//! makespan of that string, while the other argmin replays every cell
//! with its own `score_move`. `flowtime_lane_speedup_vs_exact` is the
//! same ratio under total flowtime, where the relocation argmin refolds
//! the finish-time sum of every cell of a run from the one it replays.
//! The probe scans one incumbent without committing a winner, so each
//! scan resumes the prime its predecessor advanced to that winner.
//! `floor_pass_speedup_vs_exact` times the makespan walk's first pass
//! alone, four cells and the floor lane in one five-lane call, against
//! one `score_move` per cell. `resumed_prime_speedup` times the primes
//! themselves: scratch primes over resumed primes of the consecutive
//! strings an SE allocation chain commits.
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
const SCHEMA_VERSION: u32 = 8;

/// Timed repeats of each same-process ratio probe; each probe reports the
/// median repeat, which a single slow spell of a shared host cannot move.
const REPEATS: usize = 5;

/// Cells in the first pass of a floor walk
/// (`BatchEvaluator::best_relocation` under makespan), which also
/// replays the floor lane: the pass `floor_pass_speedup_vs_exact` times.
const FIRST_PASS_CELLS: usize = 4;

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
    /// Incremental series: suffix replay per candidate, one thread.
    incremental_evals_per_sec: f64,
    /// incremental over full, single-threaded — the algorithmic win
    /// (≥ 2x expected on the 100-task preset).
    incremental_speedup_vs_full: f64,
    /// SE's allocation scan: evaluations (grid cells) per second over
    /// every task's full position × machine grid of a partly converged
    /// incumbent, one thread (`BatchEvaluator::best_relocation`, which
    /// under makespan replays one cell per run of identical schedules and
    /// stops at the insertion floor).
    lane_scan_evals_per_sec: f64,
    /// That scan over the argmin that scores each cell with one
    /// `IncrementalEvaluator::score_move` (`BatchEvaluator::best_task_move`)
    /// on the same grids, one thread — a same-process, hardware-stable
    /// ratio. Both series are the median of [`REPEATS`] timed repeats.
    lane_speedup_vs_exact: f64,
    /// The same ratio under total flowtime, on the same grids: the
    /// relocation argmin replays one cell per run and refolds the
    /// finish-time sums of the others, median of [`REPEATS`].
    flowtime_lane_speedup_vs_exact: f64,
    /// A floor walk's first pass, its first four cells plus the floor
    /// lane in one five-lane `IncrementalEvaluator::score_cells` call,
    /// over the four `score_move` calls of the same cells, for every
    /// task of the same incumbent, one thread, median of [`REPEATS`]:
    /// what the lane kernel compiled at that fixed width gains over
    /// scalar replays.
    floor_pass_speedup_vs_exact: f64,
    /// Priming a string from scratch over priming it on an evaluator
    /// last primed on the string before it, over the consecutive
    /// strings of an SE allocation chain on the paper-scale preset, one
    /// thread, median of [`REPEATS`]: what resuming at the first changed
    /// position saves.
    resumed_prime_speedup: f64,
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
    /// same-seed retries when a fault plan panics a subset of
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

/// The median of `values` (the upper one of an even count).
fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
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
    let task_moves: Vec<(TaskId, usize, MachineId)> =
        moves.iter().map(|&(pos, m)| (t, pos, m)).collect();
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
            black_box(batch.score_task_moves(&base, &task_moves, &obj));
            let start = Instant::now();
            for _ in 0..rounds {
                black_box(batch.score_task_moves(&base, &task_moves, &obj));
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
    // on one thread through the relocation argmin (one lane per run
    // start, up to the insertion floor under makespan, the other cells
    // of each run refolded under total flowtime) and through the argmin
    // that scores each cell with one `score_move`. Both must pick the
    // same cell with the same score bits.
    let incumbent = mshc_core::SeScheduler::with_seed(2001)
        .run(&inst, &RunBudget::iterations(4), None)
        .solution;
    let machines: Vec<MachineId> = (0..inst.machine_count()).map(MachineId::from_usize).collect();
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
    let lane_probe = |obj: &ObjectiveKind| {
        pool.install(|| {
            let mut batch = BatchEvaluator::new(&snapshot);
            let lane_scan = |batch: &mut BatchEvaluator<'_>| -> Winners {
                ranges
                    .iter()
                    .map(|(t, positions)| {
                        let best = batch
                            .best_relocation(&incumbent, *t, positions.clone(), &machines, obj)
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
                            .best_task_move(&incumbent, cells, None, 0.0, obj)
                            .expect("non-empty grid");
                        let (_, pos, m) = cells[best.index];
                        (pos, m, best.score.to_bits())
                    })
                    .collect()
            };
            let timed = |scan: &dyn Fn(&mut BatchEvaluator<'_>) -> Winners,
                         batch: &mut BatchEvaluator<'_>| {
                let winners = scan(batch); // warm the arena
                let rates = (0..REPEATS).map(|_| {
                    let start = Instant::now();
                    for _ in 0..reps {
                        black_box(scan(batch));
                    }
                    (reps * cells) as f64 / start.elapsed().as_secs_f64()
                });
                (median(rates.collect()), winners)
            };
            let (lane, lane_winners) = timed(&lane_scan, &mut batch);
            let (exact, exact_winners) = timed(&exact_scan, &mut batch);
            assert_eq!(lane_winners, exact_winners, "relocation and per-cell scans must agree");
            (lane, lane / exact)
        })
    };
    let (lane_eps, lane_speedup) = lane_probe(&obj);
    let (_, flowtime_lane_speedup) = lane_probe(&ObjectiveKind::TotalFlowtime);

    // The floor walk's first pass alone: for every task of the incumbent,
    // its first grid cells plus the floor lane in one `score_cells` call
    // (at 20 machines every machine starts a run at the first position,
    // so these are the walk's own first-pass cells), against one
    // `score_move` per cell. Both replay on one evaluator primed on the
    // incumbent.
    let floor_pass_speedup = {
        let k = inst.task_count();
        let passes: Vec<(TaskId, Vec<usize>, Vec<MachineId>)> = grids
            .iter()
            .filter(|cells| cells.len() > FIRST_PASS_CELLS)
            .map(|cells| {
                let head = &cells[..FIRST_PASS_CELLS];
                let pos = head.iter().map(|&(_, pos, _)| pos).chain([k]).collect();
                let on = head.iter().map(|&(_, _, m)| m).chain([machines[0]]).collect();
                (head[0].0, pos, on)
            })
            .collect();
        let mut inc = IncrementalEvaluator::with_snapshot(&snapshot);
        inc.prime(&incumbent);
        let mut scores = [0.0; FIRST_PASS_CELLS + 1];
        for (t, pos, on) in &passes {
            inc.score_cells(*t, pos, on, &obj, &mut scores);
            for ((&p, &m), score) in pos.iter().zip(on).zip(&scores[..FIRST_PASS_CELLS]) {
                let exact = inc.score_move(*t, p, m, &obj);
                assert_eq!(score.to_bits(), exact.to_bits(), "lane and score_move disagree");
            }
        }
        // The two series alternate sweep by sweep (about a millisecond
        // each at 100 tasks), so a slow spell of the host hits both.
        let ratios = (0..REPEATS).map(|_| {
            let (mut lanes, mut exact) = (0.0, 0.0);
            for _ in 0..50 * reps {
                let start = Instant::now();
                for (t, pos, on) in &passes {
                    inc.score_cells(*t, pos, on, &obj, &mut scores);
                    black_box(&scores);
                }
                lanes += start.elapsed().as_secs_f64();
                let start = Instant::now();
                for (t, pos, on) in &passes {
                    for (&p, &m) in pos.iter().zip(on).take(FIRST_PASS_CELLS) {
                        black_box(inc.score_move(*t, p, m, &obj));
                    }
                }
                exact += start.elapsed().as_secs_f64();
            }
            exact / lanes
        });
        median(ratios.collect())
    };

    // Resumed primes: the strings an SE allocation chain commits, one
    // relocation apart, primed in order on one evaluator against the
    // same strings primed from scratch. A scratch prime runs on an
    // evaluator last primed on the string with its first task on
    // another machine, so its walk starts at position 0 without the
    // allocations of a new evaluator.
    let resumed_prime_speedup = {
        let mut sol = mshc_core::SeScheduler::with_seed(2001)
            .run(&inst, &RunBudget::iterations(4), None)
            .solution;
        let machines: Vec<MachineId> =
            (0..inst.machine_count()).map(MachineId::from_usize).collect();
        let mut chain = vec![sol.clone()];
        let mut batch = BatchEvaluator::new(&snapshot);
        for t in g.tasks().chain(g.tasks()) {
            let (lo, hi) = sol.valid_range(g, t);
            if let Some(best) = batch.best_relocation(&sol, t, lo..=hi, &machines, &obj) {
                sol.move_task(g, t, best.pos, best.machine).expect("a grid cell");
                chain.push(sol.clone());
            }
        }
        let decoys: Vec<Solution> = chain
            .iter()
            .map(|s| {
                let mut decoy = s.clone();
                let first = s.segment_at(0);
                let other = MachineId::from_usize((first.machine.index() + 1) % machines.len());
                decoy.reassign(first.task, other).expect("a machine");
                decoy
            })
            .collect();
        let mut inc = IncrementalEvaluator::with_snapshot(&snapshot);
        let mut timed_prime = |s: &Solution| {
            let start = Instant::now();
            inc.prime(black_box(s));
            start.elapsed().as_secs_f64()
        };
        let ratios = (0..REPEATS).map(|_| {
            let (mut scratch, mut resumed) = (0.0, 0.0);
            for (i, s) in chain.iter().enumerate().skip(1) {
                timed_prime(&chain[i - 1]);
                resumed += timed_prime(s);
                timed_prime(&decoys[i]);
                scratch += timed_prime(s);
            }
            scratch / resumed
        });
        median(ratios.collect())
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
        let mut search = mshc_heuristics::SimulatedAnnealing::new(2001);
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

    // Chaos probe: the tiny tournament under a fault plan that
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
        flowtime_lane_speedup_vs_exact: flowtime_lane_speedup,
        floor_pass_speedup_vs_exact: floor_pass_speedup,
        resumed_prime_speedup,
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
        "se allocation grids: relocation scan {:.0} evals/s ({:.2}x vs one score_move per cell, \
         one thread; {:.2}x under total flowtime) | first floor-walk pass {:.2}x faster than its \
         cells' score_moves | resumed primes {:.2}x faster than scratch primes",
        lane_eps, lane_speedup, flowtime_lane_speedup, floor_pass_speedup, resumed_prime_speedup
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
