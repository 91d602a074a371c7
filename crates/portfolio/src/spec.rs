//! Declarative tournament specifications and their expansion into
//! deterministic cells.
//!
//! A [`TournamentSpec`] names *what to race*: algorithms × replicate
//! seeds × a [`Scenario`] grid × objectives, plus the per-run iteration
//! budget and the portfolio-mode switch. [`expand`](TournamentSpec::expand)
//! turns it into [`Race`]s — one per (scenario, seed, objective) — and
//! each race produces one cell per algorithm. Every coordinate is
//! explicit and every random stream is seeded from the coordinates, so
//! any cell reproduces bit-identically from the spec alone, at any
//! thread count.

use mshc_core::{SeConfig, SePendingBias};
use mshc_ga::{GaConfig, GaScheduler};
use mshc_heuristics::{
    CpopScheduler, HeftScheduler, ListPolicy, ListScheduler, RandomSearch, SimulatedAnnealing,
    TabuSearch,
};
use mshc_platform::HcInstance;
use mshc_schedule::{
    ObjectiveKind, OneShotStep, RunBudget, RunResult, Scheduler, SearchStep, SteppableSearch,
};
use mshc_workloads::Scenario;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Every algorithm the tournament can race, in canonical order (the
/// same suite the CLI `compare` command runs).
pub const ALGORITHMS: [&str; 13] = [
    "se", "ga", "heft", "heft-ins", "cpop", "met", "mct", "olb", "min-min", "max-min", "random",
    "sa", "tabu",
];

/// A declarative tournament: algorithms × seeds × scenarios ×
/// objectives, one iteration budget, optional portfolio mode.
///
/// Serializable as JSON (`mshc tournament --spec FILE`); objectives are
/// stored as their CLI spellings so the spec format stays stable and
/// human-editable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TournamentSpec {
    /// Display name of the scenario grid (e.g. `tiny`, `small`, `full`,
    /// or `custom`). Informational only.
    pub suite: String,
    /// Algorithm names from [`ALGORITHMS`].
    pub algorithms: Vec<String>,
    /// Replicate seeds. Each seed is used both to generate the race's
    /// instance and to seed the algorithms, matching `mshc run --seed`
    /// exactly; derive them with [`replicate_seeds`] for a
    /// ChaCha8-stream default.
    pub seeds: Vec<u64>,
    /// The scenario grid.
    pub scenarios: Vec<Scenario>,
    /// Objectives as CLI spellings (`makespan`, `weighted:1,0.5,0.5`, …).
    pub objectives: Vec<String>,
    /// Per-run iteration budget (generations for GA).
    pub iterations: u64,
    /// Shared-incumbent portfolio mode: race all algorithms of a cell
    /// cooperatively, exchanging the best-known solution at round
    /// barriers.
    pub portfolio: bool,
    /// Migration rounds in portfolio mode (the iteration budget is
    /// split into this many synchronized slices).
    pub rounds: u64,
    /// Whether iterative searches may terminate as soon as their
    /// incumbent reaches the certified instance lower bound (default
    /// `true`; `mshc tournament --no-early-stop` turns it off).
    /// Solutions and objective values are bit-identical either way —
    /// nothing below a certified floor exists to find — only iteration
    /// and evaluation counts can shrink.
    #[serde(default = "default_early_stop")]
    pub early_stop: bool,
    /// Bounded deterministic same-seed retries for panicked cells
    /// (default 1): a panicking attempt is re-run with identical inputs
    /// up to this many extra times; a retry that completes marks the
    /// cell `degraded` in the leaderboard instead of dropping it.
    #[serde(default = "default_cell_retries")]
    pub cell_retries: u64,
    /// Optional per-cell evaluation-count deadline threaded into every
    /// cell's [`RunBudget`]: cells degrade gracefully at the deadline,
    /// reporting their incumbent with a `deadline` termination instead
    /// of erroring. Deterministic (counted evaluations, not wall
    /// clock), so deadline-cut leaderboards stay byte-identical at any
    /// thread count.
    #[serde(default)]
    pub deadline_evals: Option<u64>,
}

fn default_early_stop() -> bool {
    true
}

fn default_cell_retries() -> u64 {
    1
}

impl TournamentSpec {
    /// A spec over `scenarios` with the default algorithm suite, one
    /// replicate seed stream, the makespan objective and a small
    /// iteration budget.
    pub fn new(suite: impl Into<String>, scenarios: Vec<Scenario>) -> TournamentSpec {
        TournamentSpec {
            suite: suite.into(),
            algorithms: ALGORITHMS.iter().map(|s| s.to_string()).collect(),
            seeds: replicate_seeds(2001, 3),
            scenarios,
            objectives: vec!["makespan".to_string()],
            iterations: 60,
            portfolio: false,
            rounds: 8,
            early_stop: true,
            cell_retries: 1,
            deadline_evals: None,
        }
    }

    /// Checks the spec is runnable: non-empty axes, a bounded budget,
    /// known algorithm names, parseable objectives and scenarios their
    /// generators accept ([`Scenario::validate`]).
    pub fn validate(&self) -> Result<(), String> {
        if self.algorithms.is_empty() {
            return Err("spec has no algorithms".into());
        }
        if self.seeds.is_empty() {
            return Err("spec has no seeds".into());
        }
        if self.scenarios.is_empty() {
            return Err("spec has no scenarios".into());
        }
        if self.objectives.is_empty() {
            return Err("spec has no objectives".into());
        }
        if self.iterations == 0 {
            return Err("spec needs a positive iteration budget".into());
        }
        if self.portfolio && self.rounds == 0 {
            return Err("portfolio mode needs at least one round".into());
        }
        if self.deadline_evals == Some(0) {
            return Err("deadline_evals must be positive: a zero deadline would fire before \
                 the first incumbent exists and can never return a schedule"
                .into());
        }
        for name in &self.algorithms {
            if !ALGORITHMS.contains(&name.as_str()) {
                return Err(format!(
                    "unknown algorithm {name:?} (known: {})",
                    ALGORITHMS.join(", ")
                ));
            }
        }
        for o in &self.objectives {
            o.parse::<ObjectiveKind>().map_err(|e| format!("objective {o:?}: {e}"))?;
        }
        // A scenario its generator would panic on fails every cell it
        // holds; name its field instead.
        for (i, scenario) in self.scenarios.iter().enumerate() {
            scenario.validate().map_err(|e| format!("scenarios[{i}].{e}"))?;
        }
        // Duplicates would make distinct races collide on one
        // (scenario, seed, objective) leaderboard key — and a duplicated
        // algorithm would double a standing's cell count — silently
        // corrupting the aggregation. Reject them up front.
        let mut seen = std::collections::BTreeSet::new();
        for name in &self.algorithms {
            if !seen.insert(name.clone()) {
                return Err(format!("duplicate algorithm {name:?} in spec"));
            }
        }
        let mut seen = std::collections::BTreeSet::new();
        for &seed in &self.seeds {
            if !seen.insert(seed) {
                return Err(format!("duplicate seed {seed} in spec"));
            }
        }
        let mut seen = std::collections::BTreeSet::new();
        for scenario in &self.scenarios {
            let tag = scenario.tag();
            if !seen.insert(tag.clone()) {
                return Err(format!("duplicate scenario {tag:?} in spec"));
            }
        }
        let mut seen = std::collections::BTreeSet::new();
        for o in &self.objectives {
            if !seen.insert(o.clone()) {
                return Err(format!("duplicate objective {o:?} in spec"));
            }
        }
        Ok(())
    }

    /// Expands the spec into races — one per (scenario, seed,
    /// objective), in deterministic scenario-major order. Each race
    /// produces one cell per algorithm.
    pub fn expand(&self) -> Result<Vec<Race>, String> {
        self.validate()?;
        let mut races = Vec::new();
        for scenario in &self.scenarios {
            for &seed in &self.seeds {
                for label in &self.objectives {
                    let objective: ObjectiveKind = label.parse().expect("validated just above");
                    races.push(Race {
                        index: races.len(),
                        scenario: *scenario,
                        seed,
                        objective,
                        objective_label: label.clone(),
                    });
                }
            }
        }
        Ok(races)
    }

    /// Total cell count (`races × algorithms`).
    pub fn cell_count(&self) -> usize {
        self.scenarios.len() * self.seeds.len() * self.objectives.len() * self.algorithms.len()
    }

    /// The per-race run budget for one objective.
    pub fn budget(&self, objective: ObjectiveKind) -> RunBudget {
        let budget = RunBudget::iterations(self.iterations)
            .with_objective(objective)
            .with_early_stop(self.early_stop);
        match self.deadline_evals {
            Some(deadline) => budget.with_deadline_evals(deadline),
            None => budget,
        }
    }
}

/// Derives `n` replicate seeds from one master seed via a ChaCha8
/// stream — the deterministic default when a spec does not pin seeds
/// explicitly.
pub fn replicate_seeds(master: u64, n: usize) -> Vec<u64> {
    let mut rng = ChaCha8Rng::seed_from_u64(master);
    (0..n).map(|_| rng.gen()).collect()
}

/// One expanded race: a single instance (scenario × seed) scored under
/// one objective, contested by every algorithm of the spec.
#[derive(Debug, Clone)]
pub struct Race {
    /// Position in expansion order (stable cell addressing).
    pub index: usize,
    /// The workload class.
    pub scenario: Scenario,
    /// Replicate seed: generates the instance *and* seeds the
    /// algorithms, exactly like `mshc run --seed`.
    pub seed: u64,
    /// The objective every contestant minimizes.
    pub objective: ObjectiveKind,
    /// Its CLI spelling (stable leaderboard key).
    pub objective_label: String,
}

/// A constructed contestant: iterative algorithms expose the full
/// cooperative interface, one-shot heuristics run through the
/// [`OneShotStep`] adapter.
pub enum Contestant {
    /// An iterative search implementing [`SteppableSearch`].
    Steppable(Box<dyn SteppableSearch>),
    /// A one-shot constructive heuristic.
    OneShot(Box<dyn Scheduler>),
}

impl Contestant {
    /// Runs to completion exactly like the CLI `run` command would.
    pub fn run(&mut self, inst: &HcInstance, budget: &RunBudget) -> RunResult {
        match self {
            Contestant::Steppable(s) => s.run(inst, budget, None),
            Contestant::OneShot(s) => s.run(inst, budget, None),
        }
    }

    /// Opens the cooperative stepped interface for portfolio racing.
    pub fn start<'a>(self, inst: &'a HcInstance, budget: &RunBudget) -> Box<dyn SearchStep + 'a> {
        match self {
            Contestant::Steppable(mut s) => s.start(inst, budget),
            Contestant::OneShot(s) => Box::new(OneShotStep::new(s, inst, budget)),
        }
    }
}

/// Builds a contestant by name with the given seed, mirroring the CLI's
/// scheduler factory (SE resolves its recommended bias from the
/// instance size at run time via [`SePendingBias`]).
pub fn build_contestant(name: &str, seed: u64) -> Result<Contestant, String> {
    Ok(match name {
        "se" => Contestant::Steppable(Box::new(SePendingBias::new(SeConfig {
            seed,
            selection_bias: f64::NAN,
            ..SeConfig::default()
        }))),
        "ga" => Contestant::Steppable(Box::new(GaScheduler::new(GaConfig {
            seed,
            ..GaConfig::default()
        }))),
        "random" => Contestant::Steppable(Box::new(RandomSearch::new(seed))),
        "sa" => Contestant::Steppable(Box::new(SimulatedAnnealing::new(seed))),
        "tabu" => Contestant::Steppable(Box::new(TabuSearch::new(seed))),
        "heft" => Contestant::OneShot(Box::new(HeftScheduler::new())),
        "heft-ins" => Contestant::OneShot(Box::new(HeftScheduler::with_insertion())),
        "cpop" => Contestant::OneShot(Box::new(CpopScheduler::new())),
        "met" => Contestant::OneShot(Box::new(ListScheduler::new(ListPolicy::Met))),
        "mct" => Contestant::OneShot(Box::new(ListScheduler::new(ListPolicy::Mct))),
        "olb" => Contestant::OneShot(Box::new(ListScheduler::new(ListPolicy::Olb))),
        "min-min" => Contestant::OneShot(Box::new(ListScheduler::new(ListPolicy::MinMin))),
        "max-min" => Contestant::OneShot(Box::new(ListScheduler::new(ListPolicy::MaxMin))),
        other => return Err(format!("unknown algorithm {other:?}")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mshc_workloads::tiny_suite;

    #[test]
    fn spec_json_without_early_stop_defaults_to_on() {
        // Spec files written before certified lower bounds existed must
        // keep parsing; the missing field defaults to early stop on.
        let spec = TournamentSpec::new("tiny", tiny_suite());
        let mut json = serde_json::to_string(&spec).unwrap();
        assert!(json.contains("\"early_stop\":true"));
        json = json.replace(",\"early_stop\":true", "").replace("\"early_stop\":true,", "");
        assert!(!json.contains("early_stop"));
        let parsed: TournamentSpec = serde_json::from_str(&json).unwrap();
        assert!(parsed.early_stop, "missing field defaults to on");
        assert!(parsed.budget(ObjectiveKind::Makespan).early_stop);
        let off = TournamentSpec { early_stop: false, ..spec };
        let round: TournamentSpec =
            serde_json::from_str(&serde_json::to_string(&off).unwrap()).unwrap();
        assert!(!round.early_stop, "explicit false round-trips");
        assert!(!round.budget(ObjectiveKind::Makespan).early_stop);
    }

    #[test]
    fn default_spec_validates_and_expands() {
        let spec = TournamentSpec::new("tiny", tiny_suite());
        spec.validate().unwrap();
        let races = spec.expand().unwrap();
        assert_eq!(races.len(), 2 * 3, "2 scenarios x 3 seeds x 1 objective");
        assert_eq!(spec.cell_count(), races.len() * ALGORITHMS.len());
        for (i, r) in races.iter().enumerate() {
            assert_eq!(r.index, i);
            assert!(r.objective.is_makespan());
        }
    }

    #[test]
    fn validation_catches_each_axis() {
        let base = TournamentSpec::new("tiny", tiny_suite());
        let mut s = base.clone();
        s.algorithms.clear();
        assert!(s.validate().unwrap_err().contains("algorithms"));
        let mut s = base.clone();
        s.algorithms.push("quantum".into());
        assert!(s.validate().unwrap_err().contains("quantum"));
        let mut s = base.clone();
        s.seeds.clear();
        assert!(s.validate().unwrap_err().contains("seeds"));
        let mut s = base.clone();
        s.scenarios.clear();
        assert!(s.validate().unwrap_err().contains("scenarios"));
        let mut s = base.clone();
        s.objectives = vec!["weighted:1,2".into()];
        assert!(s.validate().unwrap_err().contains("exactly 3"));
        let mut s = base.clone();
        s.iterations = 0;
        assert!(s.validate().unwrap_err().contains("iteration"));
        let mut s = base.clone();
        s.portfolio = true;
        s.rounds = 0;
        assert!(s.validate().unwrap_err().contains("round"));
    }

    #[test]
    fn validation_rejects_duplicates_on_every_axis() {
        // Duplicate coordinates would collide on one leaderboard race
        // key and corrupt win/rank aggregation silently.
        let base = TournamentSpec::new("tiny", tiny_suite());
        let mut s = base.clone();
        s.algorithms.push("se".into());
        assert!(s.validate().unwrap_err().contains("duplicate algorithm"));
        let mut s = base.clone();
        s.seeds.push(s.seeds[0]);
        assert!(s.validate().unwrap_err().contains("duplicate seed"));
        let mut s = base.clone();
        s.scenarios.push(s.scenarios[0]);
        assert!(s.validate().unwrap_err().contains("duplicate scenario"));
        let mut s = base.clone();
        s.objectives.push("makespan".into());
        assert!(s.validate().unwrap_err().contains("duplicate objective"));
    }

    #[test]
    fn spec_json_without_retry_fields_defaults_sanely() {
        // Spec files written before disturbance tolerance existed must
        // keep parsing: one retry by default, no deadline.
        let spec = TournamentSpec::new("tiny", tiny_suite());
        let mut json = serde_json::to_string(&spec).unwrap();
        assert!(json.contains("\"cell_retries\":1"));
        json = json.replace(",\"cell_retries\":1", "").replace("\"cell_retries\":1,", "");
        json = json.replace(",\"deadline_evals\":null", "").replace("\"deadline_evals\":null,", "");
        assert!(!json.contains("cell_retries") && !json.contains("deadline_evals"));
        let parsed: TournamentSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed.cell_retries, 1, "missing field defaults to one retry");
        assert_eq!(parsed.deadline_evals, None);
        let budget = parsed.budget(ObjectiveKind::Makespan);
        assert_eq!((budget.max_evaluations, budget.deadline), (None, false));
    }

    #[test]
    fn deadline_evals_validates_and_reaches_the_budget() {
        let mut spec = TournamentSpec::new("tiny", tiny_suite());
        spec.deadline_evals = Some(0);
        assert!(spec.validate().unwrap_err().contains("deadline_evals"));
        spec.deadline_evals = Some(500);
        spec.validate().unwrap();
        let budget = spec.budget(ObjectiveKind::Makespan);
        assert_eq!((budget.max_evaluations, budget.deadline), (Some(500), true));
        assert_eq!(budget.max_iterations, Some(spec.iterations));
        budget.validate().unwrap();
    }

    #[test]
    fn replicate_seeds_are_deterministic_and_distinct() {
        let a = replicate_seeds(7, 5);
        let b = replicate_seeds(7, 5);
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
        let dedup: std::collections::BTreeSet<u64> = a.iter().copied().collect();
        assert_eq!(dedup.len(), 5, "ChaCha8 stream seeds collide only astronomically");
        assert_ne!(replicate_seeds(8, 5), a);
        // Prefix-stable: asking for fewer seeds yields a prefix.
        assert_eq!(replicate_seeds(7, 2), a[..2].to_vec());
    }

    #[test]
    fn spec_json_roundtrips() {
        let mut spec = TournamentSpec::new("tiny", tiny_suite());
        spec.portfolio = true;
        spec.objectives.push("weighted:1,0.5,0.5".into());
        let json = serde_json::to_string(&spec).unwrap();
        let back: TournamentSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn every_known_algorithm_builds() {
        for name in ALGORITHMS {
            assert!(build_contestant(name, 1).is_ok(), "{name}");
        }
        assert!(build_contestant("quantum", 1).is_err());
    }
}
