//! Parameter estimation from profiled runs (paper Section 3.1).
//!
//! The model is parameterized by per-operator active time per unit of
//! forward progress. Profiling a few test invocations — both with and
//! without work sharing — yields a system of linear equations whose
//! solution divides each operator's active time among `w` and `s`:
//!
//! * an **unshared** run gives each operator's total `p_k` directly
//!   (active time / units of forward progress);
//! * **shared** runs at different group sizes `M` give the pivot's
//!   `p_φ(M) = w_φ + M·s_φ`; a least-squares fit over two or more values
//!   of `M` separates `w_φ` from `s_φ`.
//!
//! The one contention term, `e(k) = k^κ`
//! ([`WorkerScaling`](crate::sharing::WorkerScaling); paper Section
//! 4.1.4's `n^κ` effective processors), takes its exponent from
//! [`estimate_k`] over measured throughputs.

use crate::error::{ModelError, Result};
use crate::linalg;

/// One profiled data point for a pivot operator: with `sharers` consumers
/// attached, the operator was active `active_time` units while the group
/// made `progress_units` units of forward progress.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PivotObservation {
    /// Number of consumers the pivot was serving (`M`).
    pub sharers: usize,
    /// Total active (busy) time of the pivot during the window.
    pub active_time: f64,
    /// Units of forward progress the group completed in the window.
    pub progress_units: f64,
}

impl PivotObservation {
    /// Active time per unit of forward progress, `p_φ(M)`.
    fn p(&self) -> f64 {
        self.active_time / self.progress_units
    }
}

/// Result of fitting the pivot law `p_φ(M) = w + M·s`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PivotFit {
    /// Estimated private work per unit of forward progress (`w_φ`).
    pub w: f64,
    /// Estimated per-consumer output cost (`s_φ`).
    pub s: f64,
    /// Residual sum of squares of the fit (0 for an exact fit).
    pub rss: f64,
    /// Number of observations used.
    observations: usize,
}

/// Fits `p_φ(M) = w + M·s` by ordinary least squares over observations at
/// two or more distinct values of `M`.
///
/// Estimates are clamped to be non-negative: tiny negative values caused
/// by measurement noise are snapped to zero, so the fit is always a valid
/// model parameterization.
pub fn fit_pivot(observations: &[PivotObservation]) -> Result<PivotFit> {
    if observations.len() < 2 {
        return Err(ModelError::Estimation(format!(
            "need at least 2 pivot observations, got {}",
            observations.len()
        )));
    }
    let distinct = {
        let mut ms: Vec<usize> = observations.iter().map(|o| o.sharers).collect();
        ms.sort_unstable();
        ms.dedup();
        ms.len()
    };
    if distinct < 2 {
        return Err(ModelError::Estimation(
            "pivot observations must cover at least 2 distinct group sizes".into(),
        ));
    }
    let rows = observations.len();
    let mut a = Vec::with_capacity(rows * 2);
    let mut b = Vec::with_capacity(rows);
    for obs in observations {
        if obs.progress_units.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(ModelError::Estimation(format!(
                "observation at M={} has non-positive progress",
                obs.sharers
            )));
        }
        a.extend_from_slice(&[1.0, obs.sharers as f64]);
        b.push(obs.p());
    }
    let x = linalg::least_squares(&a, &b, rows, 2)?;
    let rss = linalg::rss(&a, &b, &x, rows, 2);
    // Noise can push an intercept/slope slightly negative; clamp with a
    // tolerance so garbage fits still error out loudly.
    let clamp = |v: f64, what: &str| -> Result<f64> {
        if v >= 0.0 {
            Ok(v)
        } else if v > -1e-6 * b.iter().fold(1.0_f64, |m, x| m.max(x.abs())) {
            Ok(0.0)
        } else {
            Err(ModelError::Estimation(format!(
                "fitted {what} is significantly negative ({v}); profile data inconsistent"
            )))
        }
    };
    Ok(PivotFit {
        w: clamp(x[0], "w")?,
        s: clamp(x[1], "s")?,
        rss,
        observations: rows,
    })
}

/// Estimates the contention exponent `k` from measured saturated
/// throughputs at different context counts: under saturation
/// `x(n) ∝ n^k`, so `ln x = k·ln n + c` and `k` is the slope of a
/// log-log least-squares fit ("k is easy to measure empirically",
/// paper Section 4.1.4). The result is clamped into `(0, 1]`.
pub fn estimate_k(samples: &[(u32, f64)]) -> Result<f64> {
    let usable: Vec<(f64, f64)> = samples
        .iter()
        .filter(|&&(n, x)| n >= 1 && x > 0.0 && x.is_finite())
        .map(|&(n, x)| ((n as f64).ln(), x.ln()))
        .collect();
    if usable.len() < 2 {
        return Err(ModelError::Estimation(format!(
            "need at least 2 valid (contexts, throughput) samples, got {}",
            usable.len()
        )));
    }
    let distinct_n = {
        let mut ns: Vec<u64> = usable.iter().map(|(ln_n, _)| ln_n.to_bits()).collect();
        ns.sort_unstable();
        ns.dedup();
        ns.len()
    };
    if distinct_n < 2 {
        return Err(ModelError::Estimation(
            "samples must cover at least 2 distinct context counts".into(),
        ));
    }
    let rows = usable.len();
    let a: Vec<f64> = usable.iter().flat_map(|&(ln_n, _)| [1.0, ln_n]).collect();
    let b: Vec<f64> = usable.iter().map(|&(_, ln_x)| ln_x).collect();
    let x = linalg::least_squares(&a, &b, rows, 2)?;
    Ok(x[1].clamp(f64::MIN_POSITIVE, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(m: usize, p: f64) -> PivotObservation {
        PivotObservation {
            sharers: m,
            active_time: p * 100.0,
            progress_units: 100.0,
        }
    }

    #[test]
    fn recovers_paper_q6_parameters_exactly() {
        // p_phi(M) = 9.66 + 10.34 M measured at M in {1, 2, 4}.
        let data: Vec<_> = [1usize, 2, 4]
            .iter()
            .map(|&m| obs(m, 9.66 + 10.34 * m as f64))
            .collect();
        let fit = fit_pivot(&data).unwrap();
        assert!((fit.w - 9.66).abs() < 1e-9, "w={}", fit.w);
        assert!((fit.s - 10.34).abs() < 1e-9, "s={}", fit.s);
        assert!(fit.rss < 1e-15);
        assert_eq!(fit.observations, 3);
    }

    #[test]
    fn tolerates_measurement_noise() {
        let true_w = 5.0;
        let true_s = 2.0;
        let data: Vec<_> = (1..=8)
            .map(|m| {
                let noise = if m % 2 == 0 { 0.02 } else { -0.02 };
                obs(m, true_w + true_s * m as f64 + noise)
            })
            .collect();
        let fit = fit_pivot(&data).unwrap();
        assert!((fit.w - true_w).abs() < 0.1);
        assert!((fit.s - true_s).abs() < 0.02);
        assert!(fit.rss > 0.0);
    }

    #[test]
    fn zero_output_cost_pivot_fits_flat_line() {
        let data: Vec<_> = [1usize, 2, 4, 8].iter().map(|&m| obs(m, 7.5)).collect();
        let fit = fit_pivot(&data).unwrap();
        assert!((fit.w - 7.5).abs() < 1e-9);
        assert!(fit.s.abs() < 1e-9);
    }

    #[test]
    fn insufficient_observations_rejected() {
        assert!(fit_pivot(&[]).is_err());
        assert!(fit_pivot(&[obs(1, 5.0)]).is_err());
        // Two observations at the same M do not separate w from s.
        assert!(fit_pivot(&[obs(3, 5.0), obs(3, 5.1)]).is_err());
    }

    #[test]
    fn significantly_negative_fit_rejected() {
        // Decreasing p with M would imply negative s: inconsistent data.
        let data = vec![obs(1, 10.0), obs(2, 8.0), obs(4, 4.0)];
        assert!(fit_pivot(&data).is_err());
    }

    #[test]
    fn non_positive_progress_rejected() {
        let bad = PivotObservation {
            sharers: 2,
            active_time: 5.0,
            progress_units: 0.0,
        };
        assert!(fit_pivot(&[obs(1, 5.0), bad]).is_err());
    }

    #[test]
    fn estimate_k_recovers_exact_exponent() {
        for true_k in [0.5, 0.75, 0.9, 1.0] {
            let samples: Vec<(u32, f64)> = [1u32, 2, 4, 8, 16, 32]
                .iter()
                .map(|&n| (n, 3.0 * (n as f64).powf(true_k)))
                .collect();
            let k = estimate_k(&samples).unwrap();
            assert!((k - true_k).abs() < 1e-9, "k={k} vs {true_k}");
        }
    }

    #[test]
    fn estimate_k_clamps_superlinear_to_one() {
        let samples: Vec<(u32, f64)> = [1u32, 2, 4]
            .iter()
            .map(|&n| (n, (n as f64).powf(1.4)))
            .collect();
        assert_eq!(estimate_k(&samples).unwrap(), 1.0);
    }

    #[test]
    fn estimate_k_tolerates_noise() {
        let samples: Vec<(u32, f64)> = [1u32, 2, 4, 8, 16]
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                let noise = if i % 2 == 0 { 1.03 } else { 0.97 };
                (n, (n as f64).powf(0.8) * noise)
            })
            .collect();
        let k = estimate_k(&samples).unwrap();
        assert!((k - 0.8).abs() < 0.05, "k={k}");
    }

    #[test]
    fn estimate_k_rejects_degenerate_inputs() {
        assert!(estimate_k(&[]).is_err());
        assert!(estimate_k(&[(4, 2.0)]).is_err());
        assert!(estimate_k(&[(4, 2.0), (4, 2.1)]).is_err());
        assert!(estimate_k(&[(1, 0.0), (2, -1.0)]).is_err());
    }
}
