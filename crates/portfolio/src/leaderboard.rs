//! Leaderboard aggregation and report rendering.
//!
//! Aggregates per-cell outcomes into per-algorithm standings through
//! `mshc-stats` ([`Summary`]): wins and win rate (a win = matching the
//! race minimum exactly), mean competition rank across races, mean/best
//! raw objective, and total evaluations. Everything serialized in a
//! [`Leaderboard`] is deterministic — wall-clock throughput lives in
//! [`Timing`] and is printed by `--report`, never written into the
//! leaderboard JSON, so the file is bit-identical at any thread count.

use crate::engine::{CellOutcome, CellTiming, TournamentRun};
use mshc_stats::Summary;
use mshc_trace::CsvTable;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One algorithm's aggregate standing across every cell it contested.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Standing {
    /// Algorithm name.
    pub algorithm: String,
    /// Cells contested (races × its participation).
    pub cells: usize,
    /// Cells that panicked instead of finishing.
    pub failures: usize,
    /// Races where this algorithm matched the best objective value.
    pub wins: usize,
    /// `wins / completed cells` (0 when nothing completed).
    pub win_rate: f64,
    /// Mean competition rank across completed cells (1 = sole or tied
    /// best; ties share the better rank). 0 when nothing completed.
    pub mean_rank: f64,
    /// Mean raw objective value across completed cells (mixes scenario
    /// scales; rank and win rate are the scale-free columns).
    pub mean_objective: f64,
    /// Best raw objective value across completed cells.
    pub best_objective: f64,
    /// Total schedule evaluations across completed cells.
    pub total_evaluations: u64,
    /// Mean certified optimality gap across completed cells that carry
    /// a certificate (`None` when none do — non-makespan objectives).
    /// Scale-free like rank: 1.0 means provably optimal everywhere.
    #[serde(default)]
    pub mean_gap: Option<f64>,
    /// Best (smallest) certified gap across certified cells.
    #[serde(default)]
    pub best_gap: Option<f64>,
    /// Completed cells that terminated early at the certified floor.
    #[serde(default)]
    pub early_stops: usize,
    /// Completed cells that needed same-seed retries to finish
    /// (degraded: kept on the board, flagged instead of dropped).
    #[serde(default)]
    pub degraded: usize,
}

/// The deterministic tournament artifact (`mshc tournament --out`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Leaderboard {
    /// Suite name from the spec.
    pub suite: String,
    /// Whether portfolio (shared-incumbent) mode was on.
    pub portfolio: bool,
    /// Per-run iteration budget.
    pub iterations: u64,
    /// Race count (scenarios × seeds × objectives).
    pub races: usize,
    /// Cell count (races × algorithms).
    pub cells: usize,
    /// Cells that failed (panicked) instead of finishing.
    pub failures: usize,
    /// Cells that completed only after bounded same-seed retries.
    #[serde(default)]
    pub degraded: usize,
    /// Per-algorithm standings, best first (wins desc, then mean rank
    /// asc, then name).
    pub standings: Vec<Standing>,
    /// Every cell outcome in deterministic expansion order.
    pub results: Vec<CellOutcome>,
}

/// Wall-clock summary, reported on stdout (never serialized into the
/// leaderboard — timing is the one non-deterministic axis).
#[derive(Debug, Clone)]
pub struct Timing {
    /// Whole-tournament wall time in seconds.
    pub total_secs: f64,
    /// Total schedule evaluations across completed cells.
    pub total_evaluations: u64,
    /// Aggregate evaluations per second (sum of evals over total wall).
    pub evals_per_sec: f64,
    /// Completed tournament cells per second.
    pub cells_per_sec: f64,
}

/// Builds the leaderboard and timing summary from a finished run.
pub fn aggregate(run: &TournamentRun) -> (Leaderboard, Timing) {
    let spec = &run.spec;
    let races = run.cells.len() / spec.algorithms.len().max(1);

    // Race key → minimum completed objective value (the win line).
    let mut race_best: BTreeMap<(&str, u64, &str), f64> = BTreeMap::new();
    for cell in run.cells.iter().filter(|c| c.ok) {
        let key = (cell.scenario.as_str(), cell.seed, cell.objective.as_str());
        race_best
            .entry(key)
            .and_modify(|best| {
                if cell.objective_value < *best {
                    *best = cell.objective_value;
                }
            })
            .or_insert(cell.objective_value);
    }

    let mut standings: Vec<Standing> = spec
        .algorithms
        .iter()
        .map(|algorithm| {
            let mine: Vec<&CellOutcome> =
                run.cells.iter().filter(|c| &c.algorithm == algorithm).collect();
            let done: Vec<&CellOutcome> = mine.iter().copied().filter(|c| c.ok).collect();
            let failures = mine.len() - done.len();
            let mut wins = 0usize;
            let mut rank_sum = 0.0f64;
            for cell in &done {
                let key = (cell.scenario.as_str(), cell.seed, cell.objective.as_str());
                let best = race_best[&key];
                if cell.objective_value == best {
                    wins += 1;
                }
                // Competition rank: 1 + number of strictly better
                // completed contestants in the same race.
                let better = run
                    .cells
                    .iter()
                    .filter(|c| c.ok && (c.scenario.as_str(), c.seed, c.objective.as_str()) == key)
                    .filter(|c| c.objective_value < cell.objective_value)
                    .count();
                rank_sum += (1 + better) as f64;
            }
            let values: Vec<f64> = done.iter().map(|c| c.objective_value).collect();
            let summary = if values.is_empty() { None } else { Some(Summary::of(&values)) };
            let gaps: Vec<f64> = done.iter().filter_map(|c| c.gap).collect();
            let gap_summary = if gaps.is_empty() { None } else { Some(Summary::of(&gaps)) };
            Standing {
                algorithm: algorithm.clone(),
                cells: mine.len(),
                failures,
                wins,
                win_rate: if done.is_empty() { 0.0 } else { wins as f64 / done.len() as f64 },
                mean_rank: if done.is_empty() { 0.0 } else { rank_sum / done.len() as f64 },
                mean_objective: summary.map_or(0.0, |s| s.mean),
                best_objective: summary.map_or(0.0, |s| s.min),
                total_evaluations: done.iter().map(|c| c.evaluations).sum(),
                mean_gap: gap_summary.as_ref().map(|s| s.mean),
                best_gap: gap_summary.as_ref().map(|s| s.min),
                early_stops: done.iter().filter(|c| c.early_stopped).count(),
                degraded: done.iter().filter(|c| c.degraded).count(),
            }
        })
        .collect();
    standings.sort_by(|a, b| {
        b.wins
            .cmp(&a.wins)
            .then(a.mean_rank.total_cmp(&b.mean_rank))
            .then(a.algorithm.cmp(&b.algorithm))
    });

    let failures = run.cells.iter().filter(|c| !c.ok).count();
    let degraded = run.cells.iter().filter(|c| c.ok && c.degraded).count();
    let leaderboard = Leaderboard {
        suite: spec.suite.clone(),
        portfolio: spec.portfolio,
        iterations: spec.iterations,
        races,
        cells: run.cells.len(),
        failures,
        degraded,
        standings,
        results: run.cells.clone(),
    };
    let total_evaluations: u64 = run.cells.iter().filter(|c| c.ok).map(|c| c.evaluations).sum();
    let completed = run.cells.len() - failures;
    let timing = Timing {
        total_secs: run.total_secs,
        total_evaluations,
        evals_per_sec: if run.total_secs > 0.0 {
            total_evaluations as f64 / run.total_secs
        } else {
            f64::INFINITY
        },
        cells_per_sec: if run.total_secs > 0.0 {
            completed as f64 / run.total_secs
        } else {
            f64::INFINITY
        },
    };
    (leaderboard, timing)
}

/// Per-cell CSV export (via `mshc-trace`'s writer): one row per cell in
/// deterministic order. Free-form fields (the objective spelling —
/// `weighted:1,0.5,0.5` carries commas — and panic messages) are
/// sanitized of CSV metacharacters, which the minimal writer rejects.
///
/// `timing` is the run's per-cell diagnostics sidecar
/// ([`TournamentRun::timing`], same order as `board.results`): it feeds
/// the `clone_fraction` column (GA's share of string positions
/// served by exact clones). Pass `&[]` when re-exporting a deserialized
/// leaderboard with no live run — the fraction renders as zero. The
/// CSV carries the wall-clock `secs` column by design and is never
/// byte-compared by CI, unlike the leaderboard JSON.
pub fn cells_csv(board: &Leaderboard, timing: &[CellTiming]) -> CsvTable {
    let sanitize = |s: &str| s.replace([',', '"', '\n'], ";");
    let mut table = CsvTable::new([
        "algorithm",
        "scenario",
        "seed",
        "objective",
        "ok",
        "objective_value",
        "makespan",
        "iterations",
        "evaluations",
        "error",
        "lower_bound",
        "gap",
        "early_stopped",
        "clone_fraction",
        "retries",
        "degraded",
        "termination",
    ]);
    // New columns (certificates, then the population-reuse fraction)
    // append after the historic ones; `None` serializes as the empty
    // cell.
    let opt = |v: Option<f64>| v.map_or_else(String::new, |x| format!("{x}"));
    for (i, c) in board.results.iter().enumerate() {
        let scan = timing.get(i).map(|t| t.scan).unwrap_or_default();
        table.push_row([
            c.algorithm.clone(),
            c.scenario.clone(),
            c.seed.to_string(),
            sanitize(&c.objective),
            c.ok.to_string(),
            format!("{}", c.objective_value),
            format!("{}", c.makespan),
            c.iterations.to_string(),
            c.evaluations.to_string(),
            sanitize(&c.error),
            opt(c.lower_bound),
            opt(c.gap),
            c.early_stopped.to_string(),
            format!("{:.6}", scan.prefix_reuse_fraction()),
            c.retries.to_string(),
            c.degraded.to_string(),
            sanitize(&c.termination),
        ]);
    }
    table
}

/// Renders the `--report` text: total cells, per-cell failures and
/// aggregate throughput.
pub fn render_report(board: &Leaderboard, timing: &Timing) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "tournament: {} suite | {} races x {} algorithms = {} cells | portfolio {}",
        board.suite,
        board.races,
        board.standings.len(),
        board.cells,
        if board.portfolio { "on" } else { "off" }
    );
    let _ = writeln!(
        out,
        "{:<10} {:>6} {:>9} {:>10} {:>14} {:>14} {:>9} {:>14} {:>9}",
        "algorithm",
        "wins",
        "win-rate",
        "mean-rank",
        "mean-obj",
        "best-obj",
        "mean-gap",
        "evals",
        "failed"
    );
    for s in &board.standings {
        let gap = s.mean_gap.map_or_else(|| "-".to_string(), |g| format!("{g:.3}"));
        let _ = writeln!(
            out,
            "{:<10} {:>6} {:>8.1}% {:>10.2} {:>14.2} {:>14.2} {:>9} {:>14} {:>9}",
            s.algorithm,
            s.wins,
            100.0 * s.win_rate,
            s.mean_rank,
            s.mean_objective,
            s.best_objective,
            gap,
            s.total_evaluations,
            s.failures
        );
    }
    let _ = writeln!(
        out,
        "cells: {} total, {} completed, {} failed, {} degraded",
        board.cells,
        board.cells - board.failures,
        board.failures,
        board.degraded
    );
    for c in board.results.iter().filter(|c| !c.ok) {
        let _ = writeln!(
            out,
            "  FAILED {} on {} seed {} ({}): {}",
            c.algorithm, c.scenario, c.seed, c.objective, c.error
        );
    }
    for c in board.results.iter().filter(|c| c.ok && c.degraded) {
        let _ = writeln!(
            out,
            "  DEGRADED {} on {} seed {} ({}): completed after {} retries",
            c.algorithm, c.scenario, c.seed, c.objective, c.retries
        );
    }
    let _ = writeln!(
        out,
        "throughput: {:.0} evals/sec aggregate ({} evals, {:.2} cells/sec, {:.3}s wall)",
        timing.evals_per_sec, timing.total_evaluations, timing.cells_per_sec, timing.total_secs
    );
    out
}
