//! SE configuration knobs (§4.4–4.5 of the paper).

use serde::{Deserialize, Serialize};

/// Closed-loop adaptation of the selection bias, in the spirit of Kling &
/// Banerjee's ESP (the paper's reference \[9\]), where selection pressure
/// is tuned dynamically rather than fixed.
///
/// The paper itself uses a *fixed* `B` (§4.4); this is an extension knob:
/// each iteration the bias moves by `gain × (selected_fraction −
/// target_fraction)`, so the selection set settles near
/// `target_fraction × k` tasks regardless of how the goodness
/// distribution evolves. The adapted bias is clamped to the paper's
/// published range `[−0.3, 0.1]`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveBias {
    /// Desired fraction of tasks selected per iteration (0..1).
    pub target_fraction: f64,
    /// Proportional gain applied to the fraction error.
    pub gain: f64,
}

impl Default for AdaptiveBias {
    fn default() -> Self {
        AdaptiveBias { target_fraction: 0.2, gain: 0.05 }
    }
}

/// Configuration of the SE scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SeConfig {
    /// Selection bias `B` (§4.4): a task is selected when
    /// `rand[0,1] > g_i + B`. Negative values (−0.1..−0.3) select more
    /// tasks — thorough search for small instances; small positive values
    /// (0..0.1) restrict selection for large instances.
    pub selection_bias: f64,
    /// The `Y` parameter (§4.5): each task may only be (re-)assigned to
    /// its `Y` best-matching machines. `None` means all machines
    /// (`Y = l`). A limit must be at least 1 ([`SeConfig::validate`]);
    /// one above `l` allows every machine.
    pub y_limit: Option<usize>,
    /// RNG seed; every run is fully deterministic given the seed.
    pub seed: u64,
    /// Upper bound on the random number of valid-range perturbations
    /// applied to the initial topological string (§4.2). `None` selects
    /// the default `2k`.
    pub init_perturbations: Option<usize>,
    /// Optional ESP-style closed-loop bias adaptation (extension; the
    /// paper uses the fixed `selection_bias` only). When set,
    /// `selection_bias` is the initial value.
    pub adaptive_bias: Option<AdaptiveBias>,
}

impl Default for SeConfig {
    fn default() -> Self {
        SeConfig {
            selection_bias: 0.0,
            y_limit: None,
            seed: 2001, // the paper's year; any fixed default works
            init_perturbations: None,
            adaptive_bias: None,
        }
    }
}

impl SeConfig {
    /// The paper's guidance for `B` (§4.4): negative values (−0.1..−0.3)
    /// buy a thorough search, small positive values (0..0.1) restrict
    /// selection to keep iterations cheap on *large* problems.
    ///
    /// Where "large" starts is a hardware question, not an algorithmic
    /// one — the paper kept `B` positive at 100 tasks because each
    /// selected task costs `|valid range| × Y` full evaluations, which was
    /// expensive in 2001. On current hardware the thorough setting is
    /// comfortably affordable at that scale (and measurably better; see
    /// EXPERIMENTS.md), so the threshold sits higher here: the paper's
    /// 100-task comparison workloads get `B = −0.1`.
    pub fn recommended_bias(task_count: usize) -> f64 {
        if task_count <= 20 {
            -0.3
        } else if task_count <= 120 {
            -0.1
        } else if task_count <= 400 {
            0.05
        } else {
            0.1
        }
    }

    /// Panics early on settings that mean nothing instead of running
    /// silently without them: a `y_limit` of 0, a selection bias that is
    /// not finite (a NaN or infinite bias selects no task, so the run
    /// would spend its budget on the random initial string), or an
    /// adaptive-bias field that is not finite.
    pub fn validate(&self) {
        assert!(self.y_limit != Some(0), "y_limit must be at least 1, got 0");
        let bias = self.selection_bias;
        assert!(bias.is_finite(), "selection_bias must be finite, got {bias}");
        if let Some(AdaptiveBias { target_fraction, gain }) = self.adaptive_bias {
            for (name, v) in [("target_fraction", target_fraction), ("gain", gain)] {
                assert!(v.is_finite(), "adaptive_bias.{name} must be finite, got {v}");
            }
        }
    }

    /// Builder-style: set the selection bias.
    pub fn with_bias(mut self, b: f64) -> SeConfig {
        self.selection_bias = b;
        self
    }

    /// Builder-style: set the `Y` limit.
    pub fn with_y(mut self, y: usize) -> SeConfig {
        self.y_limit = Some(y);
        self
    }

    /// Builder-style: set the seed.
    pub fn with_seed(mut self, seed: u64) -> SeConfig {
        self.seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_faithful() {
        let c = SeConfig::default();
        assert_eq!(c.y_limit, None);
        assert_eq!(c.adaptive_bias, None, "the paper's bias is fixed");
    }

    #[test]
    fn recommended_bias_follows_paper_ranges() {
        // All values must lie inside the paper's published ranges:
        // negative in [-0.3, -0.1] or positive in [0, 0.1].
        for k in [1usize, 7, 40, 100, 150, 500, 5000] {
            let b = SeConfig::recommended_bias(k);
            assert!(
                (-0.3..=-0.1).contains(&b) || (0.0..=0.1).contains(&b),
                "bias {b} for k={k} outside the paper's ranges"
            );
        }
        assert!(SeConfig::recommended_bias(7) < SeConfig::recommended_bias(100));
        assert!(SeConfig::recommended_bias(100) < 0.0, "comparison scale searches thoroughly");
        assert!(SeConfig::recommended_bias(1000) > 0.0, "very large DAGs restrict selection");
    }

    #[test]
    fn builders() {
        let c = SeConfig::default().with_bias(-0.2).with_y(3).with_seed(9);
        assert_eq!(c.selection_bias, -0.2);
        assert_eq!(c.y_limit, Some(3));
        assert_eq!(c.seed, 9);
        c.validate();
        SeConfig { adaptive_bias: Some(AdaptiveBias::default()), ..c }.validate();
    }

    #[test]
    #[should_panic(expected = "y_limit must be at least 1")]
    fn zero_y_limit_rejected() {
        SeConfig::default().with_y(0).validate();
    }

    #[test]
    #[should_panic(expected = "selection_bias must be finite")]
    fn infinite_bias_rejected() {
        SeConfig::default().with_bias(f64::INFINITY).validate();
    }

    #[test]
    #[should_panic(expected = "adaptive_bias.gain must be finite")]
    fn infinite_adaptive_gain_rejected() {
        let adaptive = AdaptiveBias { gain: f64::NEG_INFINITY, ..AdaptiveBias::default() };
        SeConfig { adaptive_bias: Some(adaptive), ..SeConfig::default() }.validate();
    }

    #[test]
    #[should_panic(expected = "adaptive_bias.target_fraction must be finite")]
    fn nan_adaptive_target_rejected() {
        let adaptive = AdaptiveBias { target_fraction: f64::NAN, ..AdaptiveBias::default() };
        SeConfig { adaptive_bias: Some(adaptive), ..SeConfig::default() }.validate();
    }
}
