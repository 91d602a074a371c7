//! GA parameters, defaulted to the reference implementation's published
//! settings.

use serde::{Deserialize, Serialize};

/// Configuration of the Wang et al. GA. The operator rates, elitism
/// and the heuristic seed are the reference settings, fixed beside
/// their one reader in the GA loop.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GaConfig {
    /// Population size (Wang et al. use 50 for comparable instance sizes).
    pub population: usize,
    /// RNG seed; runs are fully deterministic given the seed.
    pub seed: u64,
}

impl Default for GaConfig {
    fn default() -> Self {
        GaConfig {
            population: 50,
            seed: 1997, // the reference paper's year
        }
    }
}

impl GaConfig {
    /// Builder-style: set the seed.
    pub fn with_seed(mut self, seed: u64) -> GaConfig {
        self.seed = seed;
        self
    }

    /// Panics early on nonsensical settings instead of misbehaving mid-run.
    pub fn validate(&self) {
        assert!(self.population >= 2, "population must hold at least two chromosomes");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_reference() {
        let c = GaConfig::default();
        assert_eq!(c.population, 50);
        c.validate();
        assert_eq!(c.with_seed(4).seed, 4);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn tiny_population_rejected() {
        GaConfig { population: 1, ..Default::default() }.validate();
    }
}
