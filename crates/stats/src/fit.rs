//! Least-squares linear trend fits — the figure-shape assertions in the
//! integration tests use the slope sign ("selected-count decays", Fig 3a)
//! rather than brittle absolute values.

/// Result of an ordinary least-squares fit `y ≈ slope * x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Coefficient of determination R² (0 when y is constant).
    pub r2: f64,
}

impl LinearFit {
    /// Fits `points`.
    ///
    /// # Panics
    /// Panics with fewer than two points or zero x-variance.
    pub fn fit(points: &[(f64, f64)]) -> LinearFit {
        assert!(points.len() >= 2, "need at least two points to fit a line");
        let n = points.len() as f64;
        let sx: f64 = points.iter().map(|p| p.0).sum();
        let sy: f64 = points.iter().map(|p| p.1).sum();
        let mx = sx / n;
        let my = sy / n;
        let sxx: f64 = points.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
        assert!(sxx > 0.0, "x values must not all be identical");
        let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
        let slope = sxy / sxx;
        let intercept = my - slope * mx;
        let ss_tot: f64 = points.iter().map(|p| (p.1 - my) * (p.1 - my)).sum();
        let ss_res: f64 = points
            .iter()
            .map(|p| {
                let pred = slope * p.0 + intercept;
                (p.1 - pred) * (p.1 - pred)
            })
            .sum();
        let r2 = if ss_tot == 0.0 { 0.0 } else { 1.0 - ss_res / ss_tot };
        LinearFit { slope, intercept, r2 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 * i as f64 + 1.0)).collect();
        let f = LinearFit::fit(&pts);
        assert!((f.slope - 3.0).abs() < 1e-12);
        assert!((f.intercept - 1.0).abs() < 1e-12);
        assert!((f.r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn decaying_series_has_negative_slope() {
        let pts: Vec<(f64, f64)> =
            (0..100).map(|i| (i as f64, 100.0 * (-0.05 * i as f64).exp())).collect();
        let f = LinearFit::fit(&pts);
        assert!(f.slope < 0.0);
    }

    #[test]
    fn noisy_flat_series_r2_near_zero() {
        let pts: Vec<(f64, f64)> =
            (0..50).map(|i| (i as f64, if i % 2 == 0 { 1.0 } else { -1.0 })).collect();
        let f = LinearFit::fit(&pts);
        assert!(f.r2 < 0.1);
        assert!(f.slope.abs() < 0.05);
    }

    #[test]
    fn constant_y_r2_zero() {
        let pts = [(0.0, 5.0), (1.0, 5.0), (2.0, 5.0)];
        let f = LinearFit::fit(&pts);
        assert_eq!(f.slope, 0.0);
        assert_eq!(f.r2, 0.0);
    }

    #[test]
    #[should_panic(expected = "two points")]
    fn single_point_rejected() {
        let _ = LinearFit::fit(&[(0.0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "identical")]
    fn vertical_line_rejected() {
        let _ = LinearFit::fit(&[(1.0, 0.0), (1.0, 5.0)]);
    }
}
