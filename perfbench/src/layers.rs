//! The traced run: per-layer numbers from spans this benchmark records
//! around its own calls into each layer's public functions.
//!
//! One traced run is a set-up, a window of `seconds` in which every input
//! is solved untraced and then traced, and one probe per layer. A traced
//! solve turns the `mshc-obs` registry on and records per-iteration
//! traces; the median traced/untraced time ratio of the pairs gives
//! `obs.overhead_frac`. Counters (`eval.full_passes`, `inc.scorings` and
//! its fractions, `pool.*`) come from the traced solves, so a layer the
//! workload does not use reads as idle. Probe timings are measured on
//! every workload, on its own instances.

use crate::util::{self, median};
use crate::workload::{self, Algo, Book, Inputs, Kind, Preset};
use crate::Report;
use mshc_ga::{Chromosome, GaConfig};
use mshc_obs::Snapshot;
use mshc_platform::{HcInstance, MachineId};
use mshc_portfolio::{aggregate, build_contestant, run_tournament};
use mshc_schedule::{
    BatchEvaluator, Descent, EvalSnapshot, Evaluator, IncrementalEvaluator, InstanceBound,
    MoveScore, ObjectiveKind, RunBudget, ScanStats, Solution, SteppableSearch,
};
use mshc_taskgraph::TaskId;
use mshc_trace::Trace;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::time::Instant;

/// Solves per traced-run window, at least.
const MIN_SOLVES: usize = 3;
/// Task-steps of replay work each pass-level probe times (~70 ms).
const PASS_WORK: usize = 2_000_000;
/// Allocation-grid scorings per base, at most; larger grids keep every
/// `n`-th task.
const GRID_CAP: usize = 20_000;
/// Primes timed per base.
const PRIMES: usize = 50;
/// Mixed into the master seed for the probe tournament.
const PORTFOLIO_SALT: u64 = 0x9e37_79b9;

/// One timed call into a layer.
struct Span {
    name: &'static str,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
    solve: Option<usize>,
}

/// Spans kept in memory and written out when the run ends.
struct Spans {
    origin: Instant,
    list: Vec<Span>,
}

impl Spans {
    fn new() -> Spans {
        Spans { origin: Instant::now(), list: Vec::new() }
    }

    fn us(&self, t: Instant) -> f64 {
        t.duration_since(self.origin).as_secs_f64() * 1e6
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_us = self.us(Instant::now());
        self.list.push(Span { name, start_us, end_us: start_us, parent, solve: None });
        self.list.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.list[id].end_us = self.us(Instant::now());
    }

    fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        secs: f64,
        parent: usize,
        solve: usize,
    ) {
        let start_us = self.us(start);
        let end_us = start_us + secs * 1e6;
        self.list.push(Span { name, start_us, end_us, parent: Some(parent), solve: Some(solve) });
    }

    fn write(&self, path: &str) -> std::io::Result<()> {
        let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
        let rows: Vec<String> = self
            .list
            .iter()
            .enumerate()
            .map(|(id, s)| {
                format!(
                    "{{\"id\": {id}, \"name\": \"{}\", \"start_us\": {:.1}, \"end_us\": {:.1}, \
                     \"parent\": {}, \"solve\": {}}}",
                    s.name,
                    s.start_us,
                    s.end_us,
                    opt(s.parent),
                    opt(s.solve)
                )
            })
            .collect();
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, format!("[\n{}\n]\n", rows.join(",\n")))
    }
}

/// Seconds per call of `f`, over `reps` calls.
fn per_call<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let t0 = Instant::now();
    for _ in 0..reps {
        black_box(f());
    }
    t0.elapsed().as_secs_f64() / reps.max(1) as f64
}

/// The traced run: every per-layer metric.
pub fn run(p: &Preset, seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let mut spans = Spans::new();
    let root = spans.open("traced-run", None);
    let threads = workload::threads();

    let id = spans.open("setup", Some(root));
    let (pool, inputs) = workload::setup(p, seed);
    spans.close(id);
    pool.install(|| {
        // Each input is solved twice back to back, untraced then traced, so
        // the overhead compares equal work.
        let window_id = spans.open("window", Some(root));
        let mut book = Book::new(p.inputs);
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        let (mut snaps, mut cpu_s, mut wall_s): (Vec<Snapshot>, f64, f64) = (Vec::new(), 0.0, 0.0);
        workload::window(p.inputs, seconds, MIN_SOLVES, |index, _| {
            let out = workload::solve(p, &inputs, index, false);
            report.check(book.record(index, &out));
            spans.record("solve.untraced", out.start, out.secs, window_id, index);
            plain.push(out);

            mshc_obs::reset();
            mshc_obs::enable(true);
            let (cpu0, wall0) = (util::cpu_secs(), Instant::now());
            let out = workload::solve(p, &inputs, index, true);
            cpu_s += util::cpu_secs() - cpu0;
            wall_s += wall0.elapsed().as_secs_f64();
            mshc_obs::enable(false);
            snaps.push(mshc_obs::snapshot());
            report.check(book.record(index, &out));
            spans.record("solve.traced", out.start, out.secs, window_id, index);
            traced.push(out);
        });
        spans.close(window_id);

        let probes = spans.open("probes", Some(root));
        let id = spans.open("workloads.generate", Some(probes));
        let (insts, generate_us) = probe_instances(p, &inputs);
        spans.close(id);
        report.metric("workloads.generate_us", generate_us, "us");

        let id = spans.open("schedule.setup", Some(probes));
        let reps = 30usize.div_ceil(insts.len());
        let mean_us = |f: &dyn Fn(u64, &HcInstance) -> f64| {
            let each: Vec<f64> =
                insts.iter().map(|(s, inst)| per_call(reps, || f(*s, inst)) * 1e6).collect();
            util::mean(&each)
        };
        report.metric(
            "schedule.snapshot_us",
            mean_us(&|_, inst| EvalSnapshot::new(inst).task_count() as f64),
            "us",
        );
        report.metric(
            "schedule.lower_bound_us",
            mean_us(&|_, inst| InstanceBound::compute(inst).floor()),
            "us",
        );
        let start_us = |algo: Algo| {
            let budget = p.budget(algo);
            mean_us(&|s, inst| {
                workload::search(algo, s).start(inst, &budget).incumbent().map_or(0.0, |i| i.cost)
            })
        };
        report.metric("core.start_us", start_us(Algo::Se), "us");
        report.metric("ga.start_us", start_us(Algo::Ga), "us");
        spans.close(id);

        // Stepped SE and GA runs on the first instance supply the incumbents
        // the pass, grid and cohort probes score.
        let (seed0, inst0) = &insts[0];
        let snap = EvalSnapshot::new(inst0);
        let bound = InstanceBound::compute(inst0);
        let id = spans.open("core.stepped", Some(probes));
        let (se_bases, se_trace, mut se_iter) = stepped(
            workload::search(Algo::Se, *seed0).as_mut(),
            inst0,
            &p.budget(Algo::Se),
            3,
            &mut report,
        );
        spans.close(id);
        let id = spans.open("ga.stepped", Some(probes));
        let (ga_parents, _, mut ga_gen) = stepped(
            workload::search(Algo::Ga, *seed0).as_mut(),
            inst0,
            &p.budget(Algo::Ga),
            8,
            &mut report,
        );
        spans.close(id);

        let own =
            |algo: Algo| traced.iter().filter(move |_| p.kind == Kind::Run(algo)).map(|o| &o.trace);
        se_iter.extend(iteration_us(own(Algo::Se)));
        report.metric("core.iter_us_p50", median(&se_iter), "us");
        report.metric("core.iter_us_tail", util::tail(&se_iter).0, "us");
        let selected: Vec<f64> =
            se_trace.records().iter().filter_map(|r| r.selected).map(f64::from).collect();
        report.metric("core.selected_per_iter", util::mean(&selected), "count");
        ga_gen.extend(iteration_us(own(Algo::Ga)));
        report.metric("ga.gen_us_p50", median(&ga_gen), "us");

        let id = spans.open("eval.passes", Some(probes));
        let incumbents: Vec<Solution> = se_bases.iter().chain(&ga_parents).cloned().collect();
        let (full_ns, report_ns) = eval_probe(&snap, &incumbents);
        spans.close(id);
        report.metric("eval.full_pass_ns", full_ns, "ns");
        report.metric("eval.report_ns", report_ns, "ns");

        let id = spans.open("inc.grid", Some(probes));
        grid_probe(inst0, &snap, &bound, &se_bases, &mut report);
        spans.close(id);

        let id = spans.open("batch.cohort", Some(probes));
        batch_probe(inst0, &snap, &ga_parents, *seed0, &mut report);
        spans.close(id);

        let id = spans.open("portfolio", Some(probes));
        portfolio_probe(seed ^ PORTFOLIO_SALT, threads, &mut report);
        spans.close(id);
        spans.close(probes);

        let per_solve = |f: fn(&Snapshot) -> u64| {
            util::mean(&snaps.iter().map(|s| f(s) as f64).collect::<Vec<_>>())
        };
        report.metric("eval.full_passes", per_solve(|s| s.deterministic.evaluations), "count");
        let mut scan = ScanStats::default();
        for o in &traced {
            scan.merge(o.scan);
        }
        report.metric("inc.scorings", scan.scored as f64 / traced.len() as f64, "count");
        report.metric("inc.pruned_frac", scan.pruned_fraction(), "ratio");
        report.metric("inc.spliced_frac", scan.spliced_fraction(), "ratio");
        report.metric("ga.prefix_reuse_frac", scan.prefix_reuse_fraction(), "ratio");
        report.metric("pool.ops", per_solve(|s| s.timing.ops_submitted), "count");
        report.metric("pool.chunk_claims", per_solve(|s| s.timing.chunk_claims), "count");
        report.metric("pool.steals", per_solve(|s| s.timing.steal_count), "count");
        let hwm = snaps.iter().map(|s| s.timing.queue_depth_hwm).max().unwrap_or(0);
        report.metric("pool.queue_depth_hwm", hwm as f64, "count");
        report.metric("pool.cpu_util", cpu_s / (wall_s * threads as f64), "ratio");
        let ratios: Vec<f64> = traced.iter().zip(&plain).map(|(t, u)| t.secs / u.secs).collect();
        report.metric("obs.overhead_frac", median(&ratios) - 1.0, "ratio");
    });

    spans.close(root);
    let path = format!("perfbench/out/spans-{}-seed{seed}.json", p.name);
    match spans.write(&path) {
        Ok(()) => report.note(format!("{} spans written to {path}", spans.list.len())),
        Err(e) => eprintln!("warning: {path}: {e}"),
    }
    report
}

/// The `(seed, instance)` pairs the probes run on, regenerated to time
/// the generator: the workload's own instances, or the first
/// tournament's races. Returns them with the mean generation time (µs).
fn probe_instances(p: &Preset, inputs: &Inputs) -> (Vec<(u64, HcInstance)>, f64) {
    let mut us = Vec::new();
    let mut timed = |make: &dyn Fn() -> HcInstance| {
        let t0 = Instant::now();
        let inst = make();
        us.push(t0.elapsed().as_secs_f64() * 1e6);
        inst
    };
    let insts = match p.kind {
        Kind::Run(_) => {
            inputs.instances.iter().map(|(s, _)| (*s, timed(&|| p.spec(*s).generate()))).collect()
        }
        Kind::Tournament => inputs.specs[0]
            .expand()
            .expect("the small suite is a valid spec")
            .into_iter()
            .map(|race| (race.seed, timed(&|| race.scenario.generate(race.seed))))
            .collect(),
    };
    (insts, util::mean(&us))
}

/// Runs `search` in slices, keeping the incumbent after each of about
/// `samples` slices (the bases of the grid and cohort probes). Returns
/// them with the trace and every iteration's wall time (µs).
fn stepped(
    search: &mut dyn SteppableSearch,
    inst: &HcInstance,
    budget: &RunBudget,
    samples: u64,
    report: &mut Report,
) -> (Vec<Solution>, Trace, Vec<f64>) {
    let iters = budget.max_iterations.expect("presets set an iteration budget");
    let mut trace = Trace::new();
    let t0 = Instant::now();
    let mut state = search.start(inst, budget);
    let started = t0.elapsed().as_secs_f64();
    let mut incumbents = Vec::new();
    loop {
        let verdict = state.step(iters.div_ceil(samples).max(1), Some(&mut trace));
        incumbents.push(state.incumbent().expect("searches hold an incumbent").solution.clone());
        if verdict.is_exhausted() {
            break;
        }
    }
    report.check(workload::check_run(inst, &state.result()).err());
    // The first record's clock includes `start`, timed above.
    let mut iter_us = iteration_us([&trace].into_iter());
    if let Some(first) = trace.records().first() {
        iter_us.push((first.elapsed_secs - started) * 1e6);
    }
    (incumbents, trace, iter_us)
}

/// Per-iteration wall deltas (µs) of every trace; the first record also
/// holds the run's start-up and is skipped.
fn iteration_us<'a>(traces: impl Iterator<Item = &'a Trace>) -> Vec<f64> {
    traces
        .flat_map(|t| t.records().windows(2).map(|w| (w[1].elapsed_secs - w[0].elapsed_secs) * 1e6))
        .collect()
}

/// Tier 1 on the run's own incumbents: ns per full pass, and per report.
fn eval_probe(snap: &EvalSnapshot, sols: &[Solution]) -> (f64, f64) {
    let obj = ObjectiveKind::default();
    let mut eval = Evaluator::with_snapshot(snap);
    let reps = (PASS_WORK / (snap.task_count() * sols.len())).max(1);
    let calls = (reps * sols.len()) as f64;
    let full = per_call(reps, || {
        sols.iter().map(|s| eval.objective_value(black_box(s), &obj)).sum::<f64>()
    });
    let mut out = eval.report(&sols[0]);
    let report = per_call(reps, || {
        for s in sols {
            eval.report_into(black_box(s), &mut out);
        }
        out.objectives().makespan
    });
    (full * 1e9 * reps as f64 / calls, report * 1e9 * reps as f64 / calls)
}

/// SE's allocation grid for every task of `base`: each valid position ×
/// every machine (Y = all), machines in the bound-aware order SE scans
/// them, the task's own placement excluded. Past [`GRID_CAP`] scorings,
/// every `n`-th task is kept.
fn allocation_grids(
    inst: &HcInstance,
    bound: &InstanceBound,
    base: &Solution,
) -> Vec<(TaskId, Vec<(usize, MachineId)>)> {
    let (g, sys) = (inst.graph(), inst.system());
    let grids: Vec<(TaskId, Vec<(usize, MachineId)>)> = g
        .tasks()
        .map(|t| {
            let (lo, hi) = base.valid_range(g, t);
            let floor = |m: MachineId| bound.placement_floor(t, sys.exec_time(m, t));
            let mut machines = sys.machine_ranking(t);
            machines.sort_by(|&a, &b| floor(a).total_cmp(&floor(b)));
            let own = (base.position_of(t), base.machine_of(t));
            let grid = machines
                .iter()
                .flat_map(|&m| (lo..=hi).map(move |pos| (pos, m)))
                .filter(|&cell| cell != own)
                .collect();
            (t, grid)
        })
        .collect();
    let total: usize = grids.iter().map(|(_, grid)| grid.len()).sum();
    let stride = total.div_ceil(GRID_CAP).max(1);
    grids.into_iter().filter(|(t, _)| t.index() % stride == 0).collect()
}

/// Tier 3 against tier 1 on SE's real allocation grids: ns per prime,
/// per bounded scoring (running best as bound), per exact scoring, and
/// per full pass over the materialized candidate. Exact scores must
/// match the full pass bit for bit.
fn grid_probe(
    inst: &HcInstance,
    snap: &EvalSnapshot,
    bound: &InstanceBound,
    bases: &[Solution],
    report: &mut Report,
) {
    let obj = ObjectiveKind::default();
    let g = inst.graph();
    let mut inc = IncrementalEvaluator::with_snapshot(snap);
    inc.set_scan_floor(bound.floor());
    let mut eval = Evaluator::with_snapshot(snap);
    let (mut prime_s, mut bounded_s, mut exact_s, mut full_s, mut n) = (0.0, 0.0, 0.0, 0.0, 0);
    for base in bases {
        let grids = allocation_grids(inst, bound, base);
        prime_s += per_call(PRIMES, || inc.prime(black_box(base)));

        let t0 = Instant::now();
        for (t, grid) in &grids {
            let mut best = f64::INFINITY;
            for &(pos, m) in grid {
                if let MoveScore::Exact(c) = inc.score_move_bounded(*t, pos, m, best, &obj) {
                    best = best.min(c);
                }
            }
            black_box(best);
        }
        bounded_s += t0.elapsed().as_secs_f64();

        let mut exact = Vec::with_capacity(GRID_CAP);
        let t0 = Instant::now();
        for (t, grid) in &grids {
            exact.extend(grid.iter().map(|&(pos, m)| inc.score_move(*t, pos, m, &obj)));
        }
        exact_s += t0.elapsed().as_secs_f64();

        let mut full = Vec::with_capacity(exact.len());
        for (t, grid) in &grids {
            let candidates: Vec<Solution> = grid
                .iter()
                .map(|&(pos, m)| {
                    let mut s = base.clone();
                    s.move_task(g, *t, pos, m).expect("grid cells lie in the valid range");
                    s
                })
                .collect();
            let t0 = Instant::now();
            full.extend(candidates.iter().map(|s| eval.objective_value(s, &obj)));
            full_s += t0.elapsed().as_secs_f64();
        }
        let differ = exact.iter().zip(&full).filter(|(a, b)| a.to_bits() != b.to_bits()).count();
        report.check((differ > 0).then(|| format!("{differ} tier-3 scores differ from tier 1")));
        n += exact.len();
    }
    let per = |s: f64| s * 1e9 / n.max(1) as f64;
    report.metric("inc.prime_ns", prime_s * 1e9 / bases.len() as f64, "ns");
    report.metric("inc.score_bounded_ns", per(bounded_s), "ns");
    report.metric("inc.score_exact_ns", per(exact_s), "ns");
    report.metric("inc.grid_full_pass_ns", per(full_s), "ns");
}

/// A GA-shaped cohort bred by crossover from the sampled incumbents:
/// µs per `score_population` call against µs per full-pass `scores` call
/// on the same children. Each call gets a fresh evaluator, so no prime
/// carries over between repetitions. The two must agree bit for bit.
fn batch_probe(
    inst: &HcInstance,
    snap: &EvalSnapshot,
    parents: &[Solution],
    seed: u64,
    report: &mut Report,
) {
    let obj = ObjectiveKind::default();
    let k = inst.task_count();
    let chroms: Vec<Chromosome> = parents.iter().map(Chromosome::from_solution).collect();
    let mut eval = Evaluator::with_snapshot(snap);
    let costs: Vec<f64> = parents.iter().map(|s| eval.objective_value(s, &obj)).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let (children, descents): (Vec<Solution>, Vec<Descent>) = (0..GaConfig::default().population)
        .map(|_| {
            let (a, b) = (rng.gen_range(0..parents.len()), rng.gen_range(0..parents.len()));
            let child = Chromosome {
                order: chroms[a].crossover_order(&chroms[b], rng.gen_range(0..=k)),
                matching: chroms[a].crossover_matching(&chroms[b], rng.gen_range(0..=k)),
            }
            .to_solution(inst);
            let diverge =
                parents[a].segments().iter().zip(child.segments()).position(|(x, y)| x != y);
            let descent = match diverge {
                None => Descent::Clone { parent: a },
                Some(0) => Descent::Fresh,
                Some(d) => Descent::Suffix { parent: a, diverge: d },
            };
            (child, descent)
        })
        .unzip();
    let reps = (PASS_WORK / (children.len() * k)).max(3);
    let mut population = Vec::new();
    let pop_s = per_call(reps, || {
        population =
            BatchEvaluator::new(snap).score_population(parents, &costs, &children, &descents, &obj);
    });
    let mut scores = Vec::new();
    let scores_s = per_call(reps, || scores = BatchEvaluator::new(snap).scores(&children, &obj));
    let same = population.iter().map(|v| v.to_bits()).eq(scores.iter().map(|v| v.to_bits()));
    report.check((!same).then(|| "population scores differ from full passes".to_string()));
    report.metric("batch.population_us", pop_s * 1e6, "us");
    report.metric("batch.scores_us", scores_s * 1e6, "us");
}

/// Every contestant timed alone through `build_contestant(..).run(..)`
/// on a one-replicate small-suite tournament, then the same tournament
/// through `run_tournament`; the two must agree bit for bit.
fn portfolio_probe(seed: u64, threads: usize, report: &mut Report) {
    let spec = workload::tournament_spec(seed, 1);
    let races = spec.expand().expect("the small suite is a valid spec");
    let mut cell_us = vec![Vec::new(); spec.algorithms.len()];
    let mut values = Vec::new();
    // Solo runs on one thread: GA's batch scoring would otherwise fan out
    // and their summed time would not be sequential time.
    let one = rayon::ThreadPoolBuilder::new().num_threads(1).build().expect("pool view");
    one.install(|| {
        for race in &races {
            let inst = race.scenario.generate(race.seed);
            let budget = spec.budget(race.objective);
            for (a, name) in spec.algorithms.iter().enumerate() {
                let mut contestant = build_contestant(name, race.seed).expect("known algorithm");
                let t0 = Instant::now();
                let r = contestant.run(&inst, &budget);
                cell_us[a].push(t0.elapsed().as_secs_f64() * 1e6);
                values.push(r.objective_value.to_bits());
            }
        }
    });
    let t0 = Instant::now();
    let run = run_tournament(&spec).expect("the small suite is a valid spec");
    let wall_us = t0.elapsed().as_secs_f64() * 1e6;
    let same = run.cells.iter().map(|c| c.objective_value.to_bits()).eq(values);
    report.check((!same).then(|| "tournament cells differ from solo runs".to_string()));
    for (name, us) in spec.algorithms.iter().zip(&cell_us) {
        report.metric(format!("portfolio.cell_us_p50.{name}"), median(us), "us");
    }
    let sequential_us: f64 = cell_us.iter().flatten().sum();
    report.metric("portfolio.parallel_eff", sequential_us / (wall_us * threads as f64), "ratio");
    report.metric("portfolio.aggregate_us", per_call(20, || aggregate(&run).0.cells) * 1e6, "us");
}
