//! Small statistics toolbox.
//!
//! Blaze fills in unobserved partition metrics "by applying a lightweight
//! linear regression model based on the existing metrics from previous
//! iterations" (paper §5.3). [`LinearRegression`] is that model; it is also
//! used to extrapolate partition sizes and compute times for iterations that
//! were not captured during the dependency-extraction phase.

/// An ordinary-least-squares fit of `y = intercept + slope * x`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearRegression {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Coefficient of determination in `[0, 1]`.
    pub r_squared: f64,
}

impl LinearRegression {
    /// Fits a line through `(x, y)` samples.
    ///
    /// Returns `None` with fewer than two samples or when all `x` are equal
    /// (the slope is then undefined). With exactly constant `y`, the fit is a
    /// horizontal line with `r_squared = 1`.
    ///
    /// # Examples
    ///
    /// ```
    /// use blaze_common::stats::LinearRegression;
    ///
    /// let fit = LinearRegression::fit(&[(0.0, 1.0), (1.0, 3.0), (2.0, 5.0)]).unwrap();
    /// assert!((fit.slope - 2.0).abs() < 1e-12);
    /// assert!((fit.predict(10.0) - 21.0).abs() < 1e-12);
    /// ```
    pub fn fit(samples: &[(f64, f64)]) -> Option<Self> {
        let n = samples.len();
        if n < 2 {
            return None;
        }
        let nf = n as f64;
        let mean_x = samples.iter().map(|s| s.0).sum::<f64>() / nf;
        let mean_y = samples.iter().map(|s| s.1).sum::<f64>() / nf;
        let mut sxx = 0.0;
        let mut sxy = 0.0;
        let mut syy = 0.0;
        for &(x, y) in samples {
            sxx += (x - mean_x) * (x - mean_x);
            sxy += (x - mean_x) * (y - mean_y);
            syy += (y - mean_y) * (y - mean_y);
        }
        if sxx == 0.0 {
            return None;
        }
        let slope = sxy / sxx;
        let intercept = mean_y - slope * mean_x;
        let r_squared = if syy == 0.0 { 1.0 } else { (sxy * sxy) / (sxx * syy) };
        Some(Self { slope, intercept, r_squared })
    }

    /// Predicts `y` at `x`.
    pub fn predict(&self, x: f64) -> f64 {
        self.intercept + self.slope * x
    }

    /// Predicts `y` at `x`, clamped below at zero.
    ///
    /// Partition sizes and compute times are non-negative quantities; an
    /// extrapolated fit with negative values would poison downstream costs.
    pub fn predict_non_negative(&self, x: f64) -> f64 {
        self.predict(x).max(0.0)
    }
}

/// Extrapolates the value of a sequence at arbitrary index `idx`.
///
/// Uses a linear fit over the observed values indexed by position; falls back
/// to the last observation (or zero when empty) when a fit is unavailable.
/// This is the induction primitive used for future-iteration metrics.
pub fn extrapolate_at(values: &[f64], idx: usize) -> f64 {
    match values.len() {
        0 => 0.0,
        1 => values[0],
        _ => {
            let samples: Vec<(f64, f64)> =
                values.iter().enumerate().map(|(i, &v)| (i as f64, v)).collect();
            match LinearRegression::fit(&samples) {
                Some(fit) => fit.predict_non_negative(idx as f64),
                None => *values.last().expect("non-empty"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regression_recovers_exact_line() {
        let samples: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 + 2.0 * i as f64)).collect();
        let fit = LinearRegression::fit(&samples).unwrap();
        assert!((fit.slope - 2.0).abs() < 1e-12);
        assert!((fit.intercept - 3.0).abs() < 1e-12);
        assert!((fit.r_squared - 1.0).abs() < 1e-12);
        assert!((fit.predict(20.0) - 43.0).abs() < 1e-12);
    }

    #[test]
    fn regression_needs_two_distinct_x() {
        assert!(LinearRegression::fit(&[]).is_none());
        assert!(LinearRegression::fit(&[(1.0, 2.0)]).is_none());
        assert!(LinearRegression::fit(&[(1.0, 2.0), (1.0, 3.0)]).is_none());
    }

    #[test]
    fn regression_constant_y_is_perfect_horizontal_fit() {
        let fit = LinearRegression::fit(&[(0.0, 5.0), (1.0, 5.0), (2.0, 5.0)]).unwrap();
        assert!((fit.slope).abs() < 1e-12);
        assert!((fit.r_squared - 1.0).abs() < 1e-12);
    }

    #[test]
    fn predict_non_negative_clamps() {
        let fit = LinearRegression::fit(&[(0.0, 1.0), (1.0, 0.0)]).unwrap();
        assert_eq!(fit.predict_non_negative(10.0), 0.0);
    }

    #[test]
    fn extrapolation_follows_trend() {
        // Sizes growing by 10 per iteration, like intermediate data growth.
        let v = [100.0, 110.0, 120.0, 130.0];
        assert!((extrapolate_at(&v, v.len()) - 140.0).abs() < 1e-9);
        assert!((extrapolate_at(&v, 6) - 160.0).abs() < 1e-9);
    }

    #[test]
    fn extrapolation_degenerate_inputs() {
        assert_eq!(extrapolate_at(&[], 0), 0.0);
        assert_eq!(extrapolate_at(&[42.0], 1), 42.0);
    }
}
