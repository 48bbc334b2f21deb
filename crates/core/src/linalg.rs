//! Straight-line least squares for parameter estimation.
//!
//! The paper (Section 3.1) extracts per-operator work parameters by
//! "solving a system of linear equations to divide up the active time of
//! each operator among the different nodes of the query plan". Every
//! such fit here has two unknowns, an intercept and a slope, so the
//! normal equations have a closed form: slope = cov(x, y) / var(x).

use crate::error::{ModelError, Result};

/// A fitted line `y = intercept + slope · x`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Line {
    pub(crate) intercept: f64,
    pub(crate) slope: f64,
    /// Residual sum of squares of the fit.
    pub(crate) rss: f64,
}

/// Ordinary least squares of `y = intercept + slope · x` over
/// `(x, y)` points: at least two, at two or more distinct `x`.
pub(crate) fn fit_line(points: &[(f64, f64)]) -> Result<Line> {
    if points.len() < 2 {
        return Err(ModelError::Estimation(format!(
            "underdetermined system: {} observations for 2 unknowns",
            points.len()
        )));
    }
    let n = points.len() as f64;
    let mean_x = points.iter().map(|&(x, _)| x).sum::<f64>() / n;
    let mean_y = points.iter().map(|&(_, y)| y).sum::<f64>() / n;
    let (var, cov) = points.iter().fold((0.0, 0.0), |(var, cov), &(x, y)| {
        let dx = x - mean_x;
        (var + dx * dx, cov + dx * (y - mean_y))
    });
    if var < 1e-12 {
        return Err(ModelError::Estimation(
            "singular fit: the observations share one x".into(),
        ));
    }
    let slope = cov / var;
    let intercept = mean_y - slope * mean_x;
    let rss = points
        .iter()
        .map(|&(x, y)| (intercept + slope * x - y).powi(2))
        .sum();
    Ok(Line {
        intercept,
        slope,
        rss,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singular_matrix_rejected() {
        // Every observation at one x: the slope is undetermined.
        assert!(fit_line(&[(1.0, 2.0), (1.0, 4.0)]).is_err());
    }

    #[test]
    fn least_squares_exact_fit() {
        // y = w + m*s with (w, s) = (9.66, 10.34): the paper's pivot law.
        let points: Vec<_> = [1.0, 2.0, 4.0, 8.0]
            .iter()
            .map(|&m| (m, 9.66 + 10.34 * m))
            .collect();
        let line = fit_line(&points).unwrap();
        assert!((line.intercept - 9.66).abs() < 1e-9);
        assert!((line.slope - 10.34).abs() < 1e-9);
        assert!(line.rss < 1e-15);
    }

    #[test]
    fn least_squares_noisy_fit_recovers_trend() {
        // Add symmetric noise: OLS should land near the true slope.
        let ms = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let noise = [0.05, -0.05, 0.05, -0.05, 0.05, -0.05];
        let points: Vec<_> = ms
            .iter()
            .zip(noise)
            .map(|(&m, e)| (m, 2.0 + 3.0 * m + e))
            .collect();
        let line = fit_line(&points).unwrap();
        assert!((line.intercept - 2.0).abs() < 0.1);
        assert!((line.slope - 3.0).abs() < 0.05);
    }

    #[test]
    fn underdetermined_rejected() {
        assert!(fit_line(&[(2.0, 3.0)]).is_err());
    }
}
