//! The tournament executor: races over the rayon pool, cells isolated
//! against panics, optional shared-incumbent portfolio rounds.
//!
//! Execution unit is the **race** (one instance × one objective): every
//! algorithm of the spec contests it, so the instance is generated once
//! and — in portfolio mode — the contestants can exchange incumbents at
//! round barriers through the [`SearchStep`] interface. Races fan out
//! over the rayon pool; results merge in race order, so the complete
//! outcome is **bit-identical at any thread count** (each race is
//! internally sequential and every evaluator in the stack is
//! thread-count-invariant by construction).
//!
//! A panicking cell (degenerate scenario parameters, a scheduler bug)
//! is caught with `std::panic::catch_unwind`, reported in that cell's
//! [`CellOutcome::error`], and never aborts the run: the remaining
//! cells of the race — and all other races — still complete.

use crate::spec::{build_contestant, Race, TournamentSpec};
use mshc_obs as obs;
use mshc_schedule::{RunResult, ScanStats, SearchStep, Solution, Termination};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// One algorithm's outcome on one race cell. Everything serialized here
/// is deterministic (no wall-clock fields — timing lives in
/// [`CellTiming`] and is reported separately), so leaderboard JSON is
/// bit-identical across thread counts and repeat runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellOutcome {
    /// Algorithm name.
    pub algorithm: String,
    /// Scenario tag (stable cell coordinate).
    pub scenario: String,
    /// Replicate seed.
    pub seed: u64,
    /// Objective spelling.
    pub objective: String,
    /// Whether the cell completed (false = panicked; see `error`).
    pub ok: bool,
    /// Best value under the race objective (0.0 when failed).
    pub objective_value: f64,
    /// Best solution's makespan (0.0 when failed).
    pub makespan: f64,
    /// Iterations (generations) executed.
    pub iterations: u64,
    /// Charged evaluations ([`RunResult::evaluations`]) — part of the
    /// determinism contract: identical at any thread count.
    pub evaluations: u64,
    /// Certified instance lower bound on the makespan (`None` for
    /// non-makespan objectives and failed cells). Instance-level, so
    /// identical across every algorithm of a race — and, like every
    /// other serialized field, bit-identical at any thread count.
    #[serde(default)]
    pub lower_bound: Option<f64>,
    /// Certified optimality gap `objective_value / lower_bound` (≥ 1 by
    /// construction of the bound; `None` wherever `lower_bound` is).
    #[serde(default)]
    pub gap: Option<f64>,
    /// Whether the run terminated early because its incumbent reached
    /// the certified floor: `termination == "floor"`, kept as its own
    /// field so the leaderboard layout is unchanged.
    #[serde(default)]
    pub early_stopped: bool,
    /// Same-seed attempts beyond the first this cell needed (injected
    /// or real panics caught and retried). 0 for clean cells.
    #[serde(default)]
    pub retries: u64,
    /// Whether the cell completed only after retries: marked in the
    /// leaderboard instead of being dropped.
    #[serde(default)]
    pub degraded: bool,
    /// Why the run stopped (`completed`/`budget`/`deadline`/
    /// `cancelled`/`floor`; empty for failed cells and files written
    /// before the termination taxonomy existed).
    #[serde(default)]
    pub termination: String,
    /// Panic message when `ok` is false, empty otherwise.
    pub error: String,
}

/// Per-cell diagnostics sidecar, kept out of the serialized outcome:
/// wall-clock cost plus the run's scoring counters. The scan
/// counters are thread-count invariant like every other deterministic
/// counter; they ride here rather than in [`CellOutcome`] so the
/// serialized outcome — and with it the leaderboard bytes — keeps its
/// layout.
#[derive(Debug, Clone, Copy)]
pub struct CellTiming {
    /// Seconds spent executing the cell (in portfolio mode: this
    /// contestant's share of the race, excluding barrier bookkeeping).
    pub secs: f64,
    /// The cell's work record, [`RunResult::scan`] (zeroed for failed
    /// cells) — source of the per-cell efficiency columns in
    /// `tournament --csv`.
    pub scan: ScanStats,
}

/// Builds a cell's timing sidecar, recording the cell's wall time into
/// the registry's [`obs::Hist::CellUs`] histogram on the way.
fn cell_timing(secs: f64, scan: ScanStats) -> CellTiming {
    obs::observe(obs::Hist::CellUs, (secs * 1e6) as u64);
    CellTiming { secs, scan }
}

/// A finished tournament: per-cell outcomes in deterministic expansion
/// order plus the parallel wall-clock vector.
#[derive(Debug)]
pub struct TournamentRun {
    /// The spec that produced it.
    pub spec: TournamentSpec,
    /// One outcome per cell, race-major then algorithm order.
    pub cells: Vec<CellOutcome>,
    /// Timing for the same cells, same order.
    pub timing: Vec<CellTiming>,
    /// Wall-clock seconds for the whole tournament.
    pub total_secs: f64,
}

/// Executes the spec over the current rayon pool. Returns an error only
/// for an invalid spec; individual cell failures are reported per cell.
pub fn run_tournament(spec: &TournamentSpec) -> Result<TournamentRun, String> {
    let races = spec.expand()?;
    let start = Instant::now();
    let per_race: Vec<Vec<(CellOutcome, CellTiming)>> =
        races.par_iter().map(|race| run_race(spec, race)).collect();
    let total_secs = start.elapsed().as_secs_f64();
    let mut cells = Vec::with_capacity(spec.cell_count());
    let mut timing = Vec::with_capacity(spec.cell_count());
    for race_cells in per_race {
        for (outcome, t) in race_cells {
            cells.push(outcome);
            timing.push(t);
        }
    }
    Ok(TournamentRun { spec: spec.clone(), cells, timing, total_secs })
}

/// Renders a panic payload into a one-line message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

fn failed_cell(race: &Race, algorithm: &str, error: String, retries: u64) -> CellOutcome {
    obs::add(obs::Counter::CellsPanicked, 1);
    obs::emit_event(
        "cell_panicked",
        &[
            ("algorithm", obs::EventValue::Str(algorithm)),
            ("scenario", obs::EventValue::Str(&race.scenario.tag())),
            ("seed", obs::EventValue::U64(race.seed)),
            ("objective", obs::EventValue::Str(&race.objective_label)),
            ("error", obs::EventValue::Str(&error)),
        ],
    );
    CellOutcome {
        algorithm: algorithm.to_string(),
        scenario: race.scenario.tag(),
        seed: race.seed,
        objective: race.objective_label.clone(),
        ok: false,
        objective_value: 0.0,
        makespan: 0.0,
        iterations: 0,
        evaluations: 0,
        lower_bound: None,
        gap: None,
        early_stopped: false,
        retries,
        degraded: retries > 0,
        termination: String::new(),
        error,
    }
}

fn finished_cell(race: &Race, algorithm: &str, result: &RunResult, retries: u64) -> CellOutcome {
    obs::add(obs::Counter::CellsCompleted, 1);
    if retries > 0 {
        obs::add(obs::Counter::CellsDegraded, 1);
    }
    obs::emit_event(
        "cell_finished",
        &[
            ("algorithm", obs::EventValue::Str(algorithm)),
            ("scenario", obs::EventValue::Str(&race.scenario.tag())),
            ("seed", obs::EventValue::U64(race.seed)),
            ("objective", obs::EventValue::Str(&race.objective_label)),
            ("objective_value", obs::EventValue::F64(result.objective_value)),
            ("makespan", obs::EventValue::F64(result.makespan)),
            ("iterations", obs::EventValue::U64(result.iterations)),
            ("evaluations", obs::EventValue::U64(result.evaluations)),
            ("early_stopped", obs::EventValue::Bool(result.termination == Termination::Floor)),
            ("termination", obs::EventValue::Str(result.termination.as_str())),
        ],
    );
    CellOutcome {
        algorithm: algorithm.to_string(),
        scenario: race.scenario.tag(),
        seed: race.seed,
        objective: race.objective_label.clone(),
        ok: true,
        objective_value: result.objective_value,
        makespan: result.makespan,
        iterations: result.iterations,
        evaluations: result.evaluations,
        lower_bound: result.lower_bound,
        gap: result.gap,
        early_stopped: result.termination == Termination::Floor,
        retries,
        degraded: retries > 0,
        termination: result.termination.as_str().to_string(),
        error: String::new(),
    }
}

/// Bumps the deterministic retry counter and emits the retry event.
fn note_retry(race: &Race, algorithm: &str, error: &str) {
    obs::add(obs::Counter::CellsRetried, 1);
    obs::emit_event(
        "cell_retried",
        &[
            ("algorithm", obs::EventValue::Str(algorithm)),
            ("scenario", obs::EventValue::Str(&race.scenario.tag())),
            ("seed", obs::EventValue::U64(race.seed)),
            ("error", obs::EventValue::Str(error)),
        ],
    );
}

/// The chaos hook on cell attempts: consumes a matching [`CellFault`]
/// from the armed fault plan (if any) and panics the attempt. Faults
/// are keyed by the cell's identity `(algorithm, scenario, seed)` and
/// consumed on use, so injection is deterministic at any thread count
/// and the same-seed retry finds the fault gone.
///
/// [`CellFault`]: mshc_schedule::CellFault
fn fault_gate(race: &Race, algorithm: &str) {
    if mshc_schedule::faults::take_cell_fault(algorithm, &race.scenario.tag(), race.seed) {
        panic!("{} injected cell panic", mshc_schedule::FAULT_PANIC_PREFIX);
    }
}

/// Runs one race: generates the instance once, then contests it with
/// every algorithm — independently, or cooperatively in portfolio mode.
fn run_race(spec: &TournamentSpec, race: &Race) -> Vec<(CellOutcome, CellTiming)> {
    let cells = run_race_inner(spec, race);
    obs::emit_event(
        "race_done",
        &[
            ("scenario", obs::EventValue::Str(&race.scenario.tag())),
            ("seed", obs::EventValue::U64(race.seed)),
            ("objective", obs::EventValue::Str(&race.objective_label)),
            ("cells", obs::EventValue::U64(cells.len() as u64)),
            ("failures", obs::EventValue::U64(cells.iter().filter(|(c, _)| !c.ok).count() as u64)),
        ],
    );
    cells
}

fn run_race_inner(spec: &TournamentSpec, race: &Race) -> Vec<(CellOutcome, CellTiming)> {
    let inst = match catch_unwind(AssertUnwindSafe(|| race.scenario.generate(race.seed))) {
        Ok(inst) => inst,
        Err(payload) => {
            // The whole race shares the instance; report the generation
            // failure on every cell.
            let msg = format!("workload generation panicked: {}", panic_message(payload));
            return spec
                .algorithms
                .iter()
                .map(|a| {
                    (failed_cell(race, a, msg.clone(), 0), cell_timing(0.0, ScanStats::default()))
                })
                .collect();
        }
    };
    let budget = spec.budget(race.objective);
    if spec.portfolio {
        run_race_portfolio(spec, race, &inst, &budget)
    } else {
        run_race_independent(spec, race, &inst, &budget)
    }
}

fn run_race_independent(
    spec: &TournamentSpec,
    race: &Race,
    inst: &mshc_platform::HcInstance,
    budget: &mshc_schedule::RunBudget,
) -> Vec<(CellOutcome, CellTiming)> {
    spec.algorithms
        .iter()
        .map(|algorithm| {
            let t0 = Instant::now();
            // Bounded deterministic same-seed retries: every attempt
            // re-runs with identical inputs, so a retry differs from the
            // first attempt only if the panic cause was external
            // (injected faults are consumed on use; real heisenbugs get
            // their second chance). Attempt count is part of the
            // deterministic outcome.
            let mut retries = 0u64;
            let (cell, scan) = loop {
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    let mut contestant =
                        build_contestant(algorithm, race.seed).expect("spec validated");
                    fault_gate(race, algorithm);
                    contestant.run(inst, budget)
                }));
                match outcome {
                    Ok(result) => {
                        break (finished_cell(race, algorithm, &result, retries), result.scan)
                    }
                    Err(payload) if retries < spec.cell_retries => {
                        retries += 1;
                        note_retry(race, algorithm, &panic_message(payload));
                    }
                    Err(payload) => {
                        break (
                            failed_cell(race, algorithm, panic_message(payload), retries),
                            ScanStats::default(),
                        )
                    }
                }
            };
            (cell, cell_timing(t0.elapsed().as_secs_f64(), scan))
        })
        .collect()
}

/// One contestant's live state during a portfolio race.
enum Lane<'a> {
    Alive { state: Box<dyn SearchStep + 'a>, secs: f64, exhausted: bool, retries: u64 },
    Dead { error: String, secs: f64, retries: u64 },
}

fn run_race_portfolio<'a>(
    spec: &TournamentSpec,
    race: &Race,
    inst: &'a mshc_platform::HcInstance,
    budget: &mshc_schedule::RunBudget,
) -> Vec<(CellOutcome, CellTiming)> {
    // Open every contestant's cooperative interface.
    let mut lanes: Vec<Lane<'a>> = spec
        .algorithms
        .iter()
        .map(|algorithm| {
            let t0 = Instant::now();
            // Same bounded retry policy as independent cells, applied to
            // the start phase (where injected cell faults fire). Step
            // and inject panics are not retried: mid-run state is gone.
            let mut retries = 0u64;
            loop {
                match catch_unwind(AssertUnwindSafe(|| {
                    let contestant =
                        build_contestant(algorithm, race.seed).expect("spec validated");
                    fault_gate(race, algorithm);
                    contestant.start(inst, budget)
                })) {
                    Ok(state) => {
                        break Lane::Alive {
                            state,
                            secs: t0.elapsed().as_secs_f64(),
                            exhausted: false,
                            retries,
                        }
                    }
                    Err(payload) if retries < spec.cell_retries => {
                        retries += 1;
                        note_retry(race, algorithm, &panic_message(payload));
                    }
                    Err(payload) => {
                        break Lane::Dead {
                            error: panic_message(payload),
                            secs: t0.elapsed().as_secs_f64(),
                            retries,
                        }
                    }
                }
            }
        })
        .collect();

    // Synchronized migration rounds: equal iteration slices, then the
    // single best incumbent is offered to every *other* lane. Slices
    // cover the whole budget (ceil division), so by the last round
    // every lane is exhausted; extra slices after exhaustion are no-ops.
    let slice = spec.iterations.div_ceil(spec.rounds).max(1);
    for _ in 0..spec.rounds {
        for lane in &mut lanes {
            if let Lane::Alive { state, secs, exhausted, retries } = lane {
                if *exhausted {
                    continue;
                }
                let t0 = Instant::now();
                match catch_unwind(AssertUnwindSafe(|| state.step(slice, None))) {
                    Ok(verdict) => {
                        *secs += t0.elapsed().as_secs_f64();
                        *exhausted = verdict.is_exhausted();
                    }
                    Err(payload) => {
                        let secs = *secs + t0.elapsed().as_secs_f64();
                        let retries = *retries;
                        *lane = Lane::Dead { error: panic_message(payload), secs, retries };
                    }
                }
            }
        }

        // Barrier: pick the best incumbent (ties break to the earliest
        // lane, so migration is deterministic), clone it out, offer it
        // to everyone else.
        let migrant: Option<(usize, Solution, f64)> = lanes
            .iter()
            .enumerate()
            .filter_map(|(i, lane)| match lane {
                Lane::Alive { state, .. } => {
                    state.incumbent().map(|inc| (i, inc.solution, inc.cost))
                }
                Lane::Dead { .. } => None,
            })
            .min_by(|a, b| a.2.total_cmp(&b.2).then(a.0.cmp(&b.0)))
            .map(|(i, sol, cost)| (i, sol.clone(), cost));
        if let Some((donor, solution, cost)) = migrant {
            for (i, lane) in lanes.iter_mut().enumerate() {
                if i == donor {
                    continue;
                }
                if let Lane::Alive { state, secs, retries, .. } = lane {
                    let t0 = Instant::now();
                    if let Err(payload) =
                        catch_unwind(AssertUnwindSafe(|| state.inject(&solution, cost)))
                    {
                        let secs = *secs + t0.elapsed().as_secs_f64();
                        let retries = *retries;
                        *lane = Lane::Dead { error: panic_message(payload), secs, retries };
                    }
                }
            }
        }

        if lanes.iter().all(|l| match l {
            Lane::Alive { exhausted, .. } => *exhausted,
            Lane::Dead { .. } => true,
        }) {
            break;
        }
    }

    // Finalize each lane into its cell.
    lanes
        .into_iter()
        .zip(&spec.algorithms)
        .map(|(lane, algorithm)| match lane {
            Lane::Alive { mut state, mut secs, retries, .. } => {
                let t0 = Instant::now();
                let (cell, scan) = match catch_unwind(AssertUnwindSafe(|| state.result())) {
                    Ok(result) => (finished_cell(race, algorithm, &result, retries), result.scan),
                    Err(payload) => (
                        failed_cell(race, algorithm, panic_message(payload), retries),
                        ScanStats::default(),
                    ),
                };
                secs += t0.elapsed().as_secs_f64();
                (cell, cell_timing(secs, scan))
            }
            Lane::Dead { error, secs, retries } => (
                failed_cell(race, algorithm, error, retries),
                cell_timing(secs, ScanStats::default()),
            ),
        })
        .collect()
}
