//! The experiment runners behind every paper figure.

use mshc_core::{SeConfig, SeScheduler};
use mshc_ga::{GaConfig, GaScheduler};
use mshc_platform::HcInstance;
use mshc_schedule::{RunBudget, RunResult, Scheduler};
use mshc_trace::Trace;
use mshc_workloads::{FigureWorkload, Heterogeneity};
use rayon::prelude::*;
use std::time::Duration;

/// Scale knobs for a figure run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentScale {
    /// SE iterations for Figs 3–4.
    pub iterations: u64,
    /// Wall-clock budget per algorithm for Figs 5–7.
    pub wall: Duration,
    /// Workload seed (recorded in EXPERIMENTS.md).
    pub seed: u64,
}

impl ExperimentScale {
    /// Paper-scale defaults (a few minutes total on a laptop).
    pub fn full() -> ExperimentScale {
        ExperimentScale { iterations: 1000, wall: Duration::from_secs(12), seed: 2001 }
    }

    /// Smoke-test scale (seconds; used by integration tests and `--fast`).
    pub fn fast() -> ExperimentScale {
        ExperimentScale { iterations: 60, wall: Duration::from_millis(800), seed: 2001 }
    }
}

/// Output of [`fig3`]: the SE run's trace on the Fig-3 workload.
#[derive(Debug, Clone)]
pub struct Fig3Result {
    /// The instance the run used.
    pub instance: HcInstance,
    /// Per-iteration trace (selected counts → Fig 3a, schedule length →
    /// Fig 3b).
    pub trace: Trace,
    /// Final result.
    pub result: RunResult,
}

/// Fig 3 (§5.1, SE effectiveness): run SE on a large, high-connectivity
/// workload and log the number of selected subtasks and the current
/// schedule length at every iteration.
pub fn fig3(scale: &ExperimentScale) -> Fig3Result {
    let inst = FigureWorkload::Fig3.spec(scale.seed).generate();
    let cfg = SeConfig {
        seed: scale.seed,
        selection_bias: SeConfig::recommended_bias(inst.task_count()),
        ..SeConfig::default()
    };
    let mut trace = Trace::new();
    let result = SeScheduler::new(cfg).run(
        &inst,
        &RunBudget::iterations(scale.iterations),
        Some(&mut trace),
    );
    Fig3Result { instance: inst, trace, result }
}

/// Output of [`fig4`]: one SE trace per `Y` value.
#[derive(Debug, Clone)]
pub struct Fig4Result {
    /// Which heterogeneity class was used (low → Fig 4a, high → Fig 4b).
    pub heterogeneity: Heterogeneity,
    /// `(Y, trace, final result)` per sweep point, in input order.
    pub runs: Vec<(usize, Trace, RunResult)>,
}

/// Fig 4 (§5.2, effect of `Y`): sweep the allocation fan-out limit `Y`
/// over a large workload of the given heterogeneity. The paper plots
/// `Y ∈ {5, 9, 12}` on 20 machines. Independent runs execute in parallel
/// (Rayon) — each owns its seeded RNG, so parallelism cannot perturb
/// results.
pub fn fig4(heterogeneity: Heterogeneity, ys: &[usize], scale: &ExperimentScale) -> Fig4Result {
    let figure = match heterogeneity {
        Heterogeneity::High => FigureWorkload::Fig4High,
        _ => FigureWorkload::Fig4Low,
    };
    let inst = figure.spec(scale.seed).generate();
    let runs: Vec<(usize, Trace, RunResult)> = ys
        .par_iter()
        .map(|&y| {
            let cfg = SeConfig {
                seed: scale.seed,
                selection_bias: SeConfig::recommended_bias(inst.task_count()),
                y_limit: Some(y),
            };
            let mut trace = Trace::new();
            let result = SeScheduler::new(cfg).run(
                &inst,
                &RunBudget::iterations(scale.iterations),
                Some(&mut trace),
            );
            (y, trace, result)
        })
        .collect();
    Fig4Result { heterogeneity, runs }
}

/// Output of [`fig5_7`]: the SE and GA races on one workload.
#[derive(Debug, Clone)]
pub struct RaceResult {
    /// Which figure's workload was raced.
    pub figure: FigureWorkload,
    /// SE trace and final result.
    pub se: (Trace, RunResult),
    /// GA trace and final result.
    pub ga: (Trace, RunResult),
}

/// Figs 5–7 (§5.3, SE vs GA): run both algorithms on the same workload
/// under the same wall-clock budget, recording best-so-far vs time.
pub fn fig5_7(figure: FigureWorkload, scale: &ExperimentScale) -> RaceResult {
    let inst = figure.spec(scale.seed).generate();
    let budget = RunBudget::wall(scale.wall);
    let bias = SeConfig::recommended_bias(inst.task_count());
    // SE and GA run in parallel on separate cores: both get the full wall
    // budget concurrently, halving harness latency without sharing state.
    let (se, ga) = rayon::join(
        || {
            let mut trace = Trace::new();
            let cfg = SeConfig { seed: scale.seed, selection_bias: bias, ..SeConfig::default() };
            let result = SeScheduler::new(cfg).run(&inst, &budget, Some(&mut trace));
            (trace, result)
        },
        || {
            let mut trace = Trace::new();
            let cfg = GaConfig { seed: scale.seed, ..GaConfig::default() };
            let result = GaScheduler::new(cfg).run(&inst, &budget, Some(&mut trace));
            (trace, result)
        },
    );
    RaceResult { figure, se, ga }
}

/// One row of the multi-seed aggregate comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateRow {
    /// Workload class (figure name).
    pub workload: &'static str,
    /// Algorithm name.
    pub algo: &'static str,
    /// Summary over the seeds (makespans).
    pub summary: mshc_stats::Summary,
}

/// Multi-seed robustness sweep: SE and GA on `seeds.len()` independent
/// instances of one figure's workload class, each under a fixed
/// evaluation budget, summarized with mean/std/min/max. The paper shows
/// single sample runs per figure ("samples of the results of the
/// experiments"); this aggregate quantifies how stable the reproduced
/// comparison is. Seeds run in parallel (independent RNGs).
pub fn aggregate_races(figure: FigureWorkload, seeds: &[u64], evals: u64) -> Vec<AggregateRow> {
    let runs: Vec<(f64, f64)> = seeds
        .par_iter()
        .map(|&seed| {
            let inst = figure.spec(seed).generate();
            let budget = RunBudget::evaluations(evals);
            let se = SeScheduler::new(SeConfig {
                seed,
                selection_bias: SeConfig::recommended_bias(inst.task_count()),
                ..SeConfig::default()
            })
            .run(&inst, &budget, None);
            let ga = GaScheduler::new(GaConfig { seed, ..GaConfig::default() })
                .run(&inst, &budget, None);
            (se.makespan, ga.makespan)
        })
        .collect();
    let se: Vec<f64> = runs.iter().map(|r| r.0).collect();
    let ga: Vec<f64> = runs.iter().map(|r| r.1).collect();
    vec![
        AggregateRow { workload: figure.name(), algo: "se", summary: mshc_stats::Summary::of(&se) },
        AggregateRow { workload: figure.name(), algo: "ga", summary: mshc_stats::Summary::of(&ga) },
    ]
}

/// Contention sensitivity of one figure workload: run SE under the
/// paper's contention-free model, then replay its best schedule on the
/// per-pair-link network. Returns `(contention_free, with_links)`
/// makespans; the ratio measures how much the §2 contention-free
/// assumption flatters the reported schedule lengths.
pub fn contention_probe(figure: FigureWorkload, scale: &ExperimentScale) -> (f64, f64) {
    use mshc_schedule::{replay_with, NetworkModel};
    let inst = figure.spec(scale.seed).generate();
    let cfg = SeConfig {
        seed: scale.seed,
        selection_bias: SeConfig::recommended_bias(inst.task_count()),
        ..SeConfig::default()
    };
    let result = SeScheduler::new(cfg).run(&inst, &RunBudget::iterations(scale.iterations), None);
    let linked = replay_with(&inst, &result.solution, NetworkModel::PerPairLink)
        .expect("valid solutions never deadlock");
    (result.makespan, linked.makespan)
}

/// Convenience: run every baseline heuristic (HEFT, CPOP, the list
/// family) on an instance and return `(name, makespan)` pairs — the
/// sanity band every iterative result is checked against.
pub fn baseline_band(inst: &HcInstance) -> Vec<(String, f64)> {
    use mshc_heuristics::{CpopScheduler, HeftScheduler, ListPolicy, ListScheduler};
    let budget = RunBudget::default();
    let mut out = Vec::new();
    let mut heft = HeftScheduler::new();
    out.push(("heft".to_string(), heft.run(inst, &budget, None).makespan));
    let mut heft_ins = HeftScheduler::with_insertion();
    out.push(("heft-ins".to_string(), heft_ins.run(inst, &budget, None).makespan));
    let mut cpop = CpopScheduler::new();
    out.push(("cpop".to_string(), cpop.run(inst, &budget, None).makespan));
    for policy in ListPolicy::ALL {
        let mut s = ListScheduler::new(policy);
        out.push((policy.name().to_string(), s.run(inst, &budget, None).makespan));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_fast_has_expected_shape() {
        let r = fig3(&ExperimentScale::fast());
        assert_eq!(r.trace.len(), 60);
        // Selected counts present on every record.
        assert!(r.trace.records().iter().all(|rec| rec.selected.is_some()));
        // Decay: mean of last 15 below first iteration.
        let first = r.trace.records()[0].selected.unwrap() as f64;
        let tail: f64 =
            r.trace.records()[45..].iter().map(|rec| rec.selected.unwrap() as f64).sum::<f64>()
                / 15.0;
        assert!(tail < first, "selection should decay: first {first}, tail {tail}");
        r.result.solution.check(r.instance.graph()).unwrap();
    }

    #[test]
    fn fig4_fast_runs_all_ys() {
        let r = fig4(Heterogeneity::Low, &[2, 5], &ExperimentScale::fast());
        assert_eq!(r.runs.len(), 2);
        assert_eq!(r.runs[0].0, 2);
        assert_eq!(r.runs[1].0, 5);
        for (_, trace, result) in &r.runs {
            assert_eq!(trace.len(), 60);
            assert!(result.makespan > 0.0);
        }
    }

    #[test]
    fn fig5_fast_races_both() {
        let r = fig5_7(FigureWorkload::Fig5, &ExperimentScale::fast());
        assert!(!r.se.0.is_empty());
        assert!(!r.ga.0.is_empty());
        assert!(r.se.1.makespan > 0.0);
        assert!(r.ga.1.makespan > 0.0);
    }

    #[test]
    fn contention_probe_inflates_or_holds() {
        let (free, linked) = contention_probe(FigureWorkload::Fig6, &ExperimentScale::fast());
        assert!(free > 0.0);
        assert!(linked >= free - 1e-9, "links can only delay: {linked} vs {free}");
    }

    #[test]
    fn aggregate_races_summarize_both_algorithms() {
        let rows = aggregate_races(FigureWorkload::Fig7, &[1, 2], 3_000);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].algo, "se");
        assert_eq!(rows[1].algo, "ga");
        for r in &rows {
            assert_eq!(r.workload, "fig7");
            assert_eq!(r.summary.n, 2);
            assert!(r.summary.mean > 0.0);
            assert!(r.summary.min <= r.summary.mean && r.summary.mean <= r.summary.max);
        }
    }

    #[test]
    fn baseline_band_covers_all_heuristics() {
        let inst = FigureWorkload::Fig7.spec(1).generate();
        let band = baseline_band(&inst);
        assert_eq!(band.len(), 8);
        assert!(band.iter().all(|(_, mk)| *mk > 0.0));
        let names: Vec<&str> = band.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"heft"));
        assert!(names.contains(&"heft-ins"));
        assert!(names.contains(&"min-min"));
    }
}
