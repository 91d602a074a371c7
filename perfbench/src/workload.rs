//! Workload presets, set-up, solves with their output checks and
//! fingerprints, and the untraced end-to-end run.

use crate::reference::Reference;
use crate::util::{self, median, Fnv};
use crate::Report;
use mshc_core::{SeConfig, SePendingBias};
use mshc_ga::{GaConfig, GaScheduler};
use mshc_platform::HcInstance;
use mshc_portfolio::TournamentSpec;
use mshc_portfolio::{aggregate, replicate_seeds, run_tournament, Leaderboard, TournamentRun};
use mshc_schedule::{replay, RunBudget, RunResult, ScanStats, SteppableSearch, Termination};
use mshc_trace::Trace;
use mshc_workloads::{small_suite, WorkloadSpec};
use rayon::prelude::*;
use rayon::ThreadPool;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// The algorithm a run workload drives through `Scheduler::run`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    Se,
    Ga,
}

/// What one solve of a workload is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One `Scheduler::run` on one generated instance.
    Run(Algo),
    /// One `run_tournament` + `aggregate` over `small_suite()`.
    Tournament,
}

/// One benchmark workload.
#[derive(Debug)]
pub struct Preset {
    pub name: &'static str,
    pub kind: Kind,
    /// Instance size of the run workloads (the tournament uses the suite).
    pub tasks: usize,
    pub machines: usize,
    /// SE iterations per run, and the traced run's SE probe budget.
    pub se_iters: u64,
    /// GA generations per run, and the traced run's GA probe budget.
    pub ga_gens: u64,
    /// Distinct inputs (instances or tournament specs) a run cycles
    /// through; an untraced run times one solve of each.
    pub inputs: usize,
    /// Mixed into the master seed; workloads sharing a salt share inputs.
    pub salt: u64,
}

/// Iterations every tournament cell runs (SE/GA/SA/tabu/random).
pub const TOURNAMENT_ITERS: u64 = 100;
/// Replicate seeds per tournament: 8 scenarios × 2 × 13 algorithms = 208 cells.
const TOURNAMENT_REPLICATES: usize = 2;
/// Set-ups timed per untraced run, spread evenly over the window so that
/// no single spell of host load decides `setup_s`, their median.
const SETUPS: usize = 12;

pub const PRESETS: [Preset; 3] = [
    Preset {
        name: "se-100x20",
        kind: Kind::Run(Algo::Se),
        tasks: 100,
        machines: 20,
        se_iters: 12,
        ga_gens: 1000,
        inputs: 104,
        salt: 0x1_0020,
    },
    Preset {
        name: "ga-100x20",
        kind: Kind::Run(Algo::Ga),
        tasks: 100,
        machines: 20,
        se_iters: 15,
        ga_gens: 1000,
        inputs: 64,
        salt: 0x1_0020,
    },
    Preset {
        name: "tournament-small",
        kind: Kind::Tournament,
        tasks: 30,
        machines: 8,
        se_iters: TOURNAMENT_ITERS,
        ga_gens: TOURNAMENT_ITERS,
        inputs: 64,
        salt: 0x5_3a11,
    },
];

impl Preset {
    pub fn find(name: &str) -> Option<&'static Preset> {
        PRESETS.iter().find(|p| p.name == name)
    }

    /// The paper's large-instance generator at this preset's size.
    pub fn spec(&self, seed: u64) -> WorkloadSpec {
        WorkloadSpec { tasks: self.tasks, machines: self.machines, ..WorkloadSpec::large(seed) }
    }

    pub fn budget(&self, algo: Algo) -> RunBudget {
        RunBudget::iterations(match algo {
            Algo::Se => self.se_iters,
            Algo::Ga => self.ga_gens,
        })
    }

    fn input_seeds(&self, master: u64) -> Vec<u64> {
        replicate_seeds(master ^ self.salt, self.inputs)
    }
}

/// SE with the paper defaults and the bias resolved from the instance
/// size, or GA with the paper defaults (population 50).
pub fn search(algo: Algo, seed: u64) -> Box<dyn SteppableSearch> {
    match algo {
        Algo::Se => Box::new(SePendingBias::new(SeConfig {
            seed,
            selection_bias: f64::NAN,
            ..SeConfig::default()
        })),
        Algo::Ga => Box::new(GaScheduler::new(GaConfig { seed, ..GaConfig::default() })),
    }
}

/// A small-suite tournament whose replicate seeds derive from `seed`.
pub fn tournament_spec(seed: u64, replicates: usize) -> TournamentSpec {
    let mut spec = TournamentSpec::new("small", small_suite());
    spec.seeds = replicate_seeds(seed, replicates);
    spec.iterations = TOURNAMENT_ITERS;
    spec
}

/// The pool size every workload runs at: the available parallelism.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Generated inputs of one run: `(seed, instance)` pairs for the run
/// workloads, tournament specs for the tournament workload. The program
/// sees nothing else of the master seed.
pub struct Inputs {
    pub instances: Vec<(u64, HcInstance)>,
    pub specs: Vec<TournamentSpec>,
}

/// Sizes the pool, generates the inputs and warms up: a parallel no-op
/// (the resident crew spawns on the first one in the process), then the
/// solver's start on the first instance, or a one-replicate,
/// one-iteration tournament.
pub fn setup(p: &Preset, master: u64) -> (ThreadPool, Inputs) {
    let pool = rayon::ThreadPoolBuilder::new().num_threads(threads()).build().expect("pool view");
    let seeds = p.input_seeds(master);
    let inputs = match p.kind {
        Kind::Run(_) => Inputs {
            instances: seeds.iter().map(|&s| (s, p.spec(s).generate())).collect(),
            specs: Vec::new(),
        },
        Kind::Tournament => Inputs {
            instances: Vec::new(),
            specs: seeds.iter().map(|&s| tournament_spec(s, TOURNAMENT_REPLICATES)).collect(),
        },
    };
    pool.install(|| {
        black_box((0..64usize).into_par_iter().map(|i| i * i).collect::<Vec<_>>());
        match p.kind {
            Kind::Run(algo) => {
                let (seed, inst) = &inputs.instances[0];
                let mut s = search(algo, *seed);
                black_box(s.start(inst, &p.budget(algo)).incumbent().map(|i| i.cost));
            }
            Kind::Tournament => {
                let mut spec = tournament_spec(inputs.specs[0].seeds[0], 1);
                spec.iterations = 1;
                black_box(run_tournament(&spec).map(|run| aggregate(&run).0).ok());
            }
        }
    });
    (pool, inputs)
}

/// One finished solve: its timing, work, answer quality and checks.
pub struct Outcome {
    pub start: Instant,
    /// Wall seconds of the library call alone (checks excluded).
    pub secs: f64,
    pub iterations: u64,
    pub cells: u64,
    /// Mean certified gap of the returned schedules.
    pub gap: f64,
    /// Run: makespan bits and iteration count. Tournament: leaderboard JSON.
    pub fingerprint: u64,
    pub scan: ScanStats,
    /// Per-iteration records (traced run workloads only).
    pub trace: Trace,
    pub error: Option<String>,
}

impl Outcome {
    fn failed(start: Instant, error: String) -> Outcome {
        Outcome {
            start,
            secs: start.elapsed().as_secs_f64(),
            iterations: 0,
            cells: 0,
            gap: 0.0,
            fingerprint: 0,
            scan: ScanStats::default(),
            trace: Trace::new(),
            error: Some(error),
        }
    }
}

/// Solves input `index`, catching panics as failures.
pub fn solve(p: &Preset, inputs: &Inputs, index: usize, traced: bool) -> Outcome {
    let start = Instant::now();
    catch_unwind(AssertUnwindSafe(|| match p.kind {
        Kind::Run(algo) => {
            let (seed, inst) = &inputs.instances[index];
            solve_run(p, algo, *seed, inst, traced)
        }
        Kind::Tournament => solve_tournament(&inputs.specs[index]),
    }))
    .unwrap_or_else(|payload| {
        let text = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        Outcome::failed(start, format!("panic: {text}"))
    })
}

fn solve_run(p: &Preset, algo: Algo, seed: u64, inst: &HcInstance, traced: bool) -> Outcome {
    let mut trace = Trace::new();
    let mut s = search(algo, seed);
    let start = Instant::now();
    let r = s.run(inst, &p.budget(algo), traced.then_some(&mut trace));
    let secs = start.elapsed().as_secs_f64();
    Outcome {
        start,
        secs,
        iterations: r.iterations,
        cells: 1,
        gap: r.gap.unwrap_or(0.0),
        fingerprint: Fnv::new().u64(r.makespan.to_bits()).u64(r.iterations).finish(),
        scan: r.scan,
        trace,
        error: check_run(inst, &r).err(),
    }
}

fn solve_tournament(spec: &TournamentSpec) -> Outcome {
    let start = Instant::now();
    let solved = run_tournament(spec).map(|run| {
        let board = aggregate(&run).0;
        (run, board)
    });
    let secs = start.elapsed().as_secs_f64();
    let (run, board) = match solved {
        Ok(done) => done,
        Err(e) => return Outcome::failed(start, format!("tournament rejected: {e}")),
    };
    let mut scan = ScanStats::default();
    for t in &run.timing {
        scan.merge(t.scan);
    }
    let gaps: Vec<f64> = run.cells.iter().filter_map(|c| c.gap).collect();
    let json = serde_json::to_string(&board).unwrap_or_default();
    Outcome {
        start,
        secs,
        iterations: run.cells.iter().map(|c| c.iterations).sum(),
        cells: run.cells.len() as u64,
        gap: util::mean(&gaps),
        fingerprint: Fnv::new().bytes(json.as_bytes()).finish(),
        scan,
        trace: Trace::new(),
        error: check_tournament(spec, &run, &board).err(),
    }
}

/// A valid schedule that the discrete-event replay reproduces, certified
/// at or above the instance floor, stopped by its budget or the floor.
pub fn check_run(inst: &HcInstance, r: &RunResult) -> Result<(), String> {
    r.solution.check(inst.graph()).map_err(|e| format!("invalid schedule: {e}"))?;
    let des = replay(inst, &r.solution).map_err(|e| format!("DES replay: {e}"))?;
    let des = des.objectives().makespan;
    if (des - r.makespan).abs() > 1e-9 * r.makespan.abs().max(1.0) {
        return Err(format!("DES replay makespan {des} disagrees with {}", r.makespan));
    }
    if !r.gap.is_some_and(|g| g >= 1.0) {
        return Err(format!("gap {:?} is not at or above the certified floor", r.gap));
    }
    if !matches!(r.termination, Termination::Budget | Termination::Floor) {
        return Err(format!("unexpected termination {}", r.termination));
    }
    Ok(())
}

fn check_tournament(
    spec: &TournamentSpec,
    run: &TournamentRun,
    board: &Leaderboard,
) -> Result<(), String> {
    if run.cells.len() != spec.cell_count() || board.failures != 0 {
        return Err(format!(
            "{} of {} cells, {} failed",
            run.cells.len(),
            spec.cell_count(),
            board.failures
        ));
    }
    match run.cells.iter().find(|c| !c.ok || !c.gap.is_some_and(|g| g >= 1.0)) {
        Some(c) => {
            Err(format!("cell {} on {}: ok {} gap {:?}", c.algorithm, c.scenario, c.ok, c.gap))
        }
        None => Ok(()),
    }
}

/// The first solve of every input: the fingerprint every later solve of
/// the same input must reproduce, and its gap.
pub struct Book {
    first: Vec<Option<(u64, f64)>>,
}

impl Book {
    pub fn new(inputs: usize) -> Book {
        Book { first: vec![None; inputs] }
    }

    /// Checks one solve of input `index`; returns its failure, if any.
    pub fn record(&mut self, index: usize, out: &Outcome) -> Option<String> {
        if let Some(e) = &out.error {
            return Some(format!("input {index}: {e}"));
        }
        match self.first[index] {
            None => {
                self.first[index] = Some((out.fingerprint, out.gap));
                None
            }
            Some((fp, _)) if fp == out.fingerprint => None,
            Some(_) => Some(format!("input {index}: fingerprint changed between solves")),
        }
    }

    pub fn first_fingerprint(&self, index: usize) -> Option<u64> {
        self.first[index].map(|(fp, _)| fp)
    }

    /// Mean gap over the inputs solved (deterministic for a seed).
    pub fn gap_mean(&self) -> f64 {
        let gaps: Vec<f64> = self.first.iter().flatten().map(|&(_, g)| g).collect();
        util::mean(&gaps)
    }

    /// One hash over every input's fingerprint, in input order.
    pub fn fingerprint(&self) -> u64 {
        self.first
            .iter()
            .enumerate()
            .fold(Fnv::new(), |h, (i, e)| h.u64(i as u64).u64(e.map_or(0, |(fp, _)| fp)))
            .finish()
    }
}

/// Closed loop: one caller issues each solve after the previous one
/// returns, cycling through `inputs` inputs, until `seconds` have passed
/// and at least `min_solves` have completed. `step` gets the input index
/// and the seconds elapsed before it.
pub fn window(inputs: usize, seconds: f64, min_solves: usize, mut step: impl FnMut(usize, f64)) {
    let start = Instant::now();
    let mut n = 0;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if n >= min_solves && elapsed >= seconds {
            break;
        }
        step(n % inputs, elapsed);
        n += 1;
    }
}

/// Re-solves input 0 on a one-thread pool: results must be bit-identical
/// to the solve on the full pool. SE runs serially, so only the workloads
/// that fan out to the pool are compared.
pub fn thread_check(p: &Preset, inputs: &Inputs, book: &Book, report: &mut Report) {
    if p.kind == Kind::Run(Algo::Se) {
        return;
    }
    let one = rayon::ThreadPoolBuilder::new().num_threads(1).build().expect("pool view");
    let out = one.install(|| solve(p, inputs, 0, false));
    let same = out.error.is_none() && book.first_fingerprint(0) == Some(out.fingerprint);
    report.check((!same).then(|| "input 0: fingerprint differs at 1 thread".to_string()));
}

/// The untraced run: every end-to-end metric. Every time is scaled to the
/// nominal host speed by the reference kernel timed around it.
pub fn run(p: &Preset, seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let mut reference = Reference::new();
    let t0 = Instant::now();
    let (pool, inputs) = setup(p, seed);
    let mut setups = vec![reference.normalize(t0.elapsed().as_secs_f64())];
    let mut book = Book::new(p.inputs);
    let (mut outs, mut secs): (Vec<Outcome>, Vec<f64>) = (Vec::new(), Vec::new());
    pool.install(|| {
        window(p.inputs, seconds, p.inputs, |index, elapsed| {
            let out = solve(p, &inputs, index, false);
            secs.push(reference.normalize(out.secs));
            report.check(book.record(index, &out));
            outs.push(out);
            // The further set-ups build inputs that are dropped at once.
            if setups.len() < SETUPS && elapsed >= seconds * setups.len() as f64 / SETUPS as f64 {
                let t0 = Instant::now();
                let again = setup(p, seed);
                setups.push(reference.normalize(t0.elapsed().as_secs_f64()));
                drop(again);
            }
        });
        thread_check(p, &inputs, &book, &mut report);
    });

    // The first solve of each input is timed; a window that reaches
    // `seconds` only after more solves checks them but leaves them out,
    // so every run times the same work.
    let (outs, secs) = (&outs[..p.inputs], &secs[..p.inputs]);
    let busy: f64 = secs.iter().sum();
    let (tail, pct) = util::tail(secs);
    let raw: Vec<f64> = outs.iter().map(|o| o.secs).collect();
    report.note(format!("fingerprint {} seed {}: {:016x}", p.name, seed, book.fingerprint()));
    report.note(format!("{} inputs timed; solve_s_tail is p{pct:.1}", p.inputs));
    report.note(format!("unscaled solve_s_p50 {:.6} s", median(&raw)));
    report.note(format!("set-ups (s): {setups:?}"));
    report.metric("setup_s", median(&setups), "s");
    report.metric("solve_s_p50", median(secs), "s");
    report.metric("solve_s_tail", tail, "s");
    let iterations: u64 = outs.iter().map(|o| o.iterations).sum();
    report.metric("iters_per_s", iterations as f64 / busy, "1/s");
    // Every end-to-end metric is printed on every workload; a run
    // workload's solve is one cell.
    let cells: u64 = outs.iter().map(|o| o.cells).sum();
    report.metric("cells_per_s", cells as f64 / busy, "1/s");
    report.metric("gap_mean", book.gap_mean(), "ratio");
    report.metric("peak_rss_mb", util::peak_rss_mb(), "MiB");
    report
}
