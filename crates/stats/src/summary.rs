//! Batch summaries of f64 samples.

/// Descriptive statistics of a non-empty sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for n = 1).
    pub std: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Median (mean of middle two for even n).
    pub median: f64,
}

impl Summary {
    /// Summarizes `samples`.
    ///
    /// # Panics
    /// Panics on an empty slice or non-finite samples.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "cannot summarize an empty sample");
        assert!(samples.iter().all(|v| v.is_finite()), "samples must be finite");
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            samples.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let median =
            if n % 2 == 1 { sorted[n / 2] } else { (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0 };
        Summary { n, mean, std: var.sqrt(), min: sorted[0], max: sorted[n - 1], median }
    }

    /// `p`-th percentile (0–100, nearest-rank).
    pub fn percentile(samples: &[f64], p: f64) -> f64 {
        assert!(!samples.is_empty(), "empty sample");
        assert!((0.0..=100.0).contains(&p), "percentile in 0..=100");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
        sorted[rank]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_sample() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.n, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        // sample std of that classic sample is sqrt(32/7)
        assert!((s.std - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert_eq!(s.median, 4.5);
    }

    #[test]
    fn single_sample() {
        let s = Summary::of(&[3.5]);
        assert_eq!(s.std, 0.0);
        assert_eq!(s.median, 3.5);
    }

    #[test]
    fn odd_median() {
        let s = Summary::of(&[9.0, 1.0, 5.0]);
        assert_eq!(s.median, 5.0);
    }

    #[test]
    fn percentiles() {
        let v: Vec<f64> = (0..=100).map(|i| i as f64).collect();
        assert_eq!(Summary::percentile(&v, 0.0), 0.0);
        assert_eq!(Summary::percentile(&v, 50.0), 50.0);
        assert_eq!(Summary::percentile(&v, 100.0), 100.0);
        assert_eq!(Summary::percentile(&v, 95.0), 95.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_rejected() {
        let _ = Summary::of(&[]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_rejected() {
        let _ = Summary::of(&[1.0, f64::NAN]);
    }
}
