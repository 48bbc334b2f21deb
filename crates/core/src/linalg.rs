//! Minimal dense linear algebra for parameter estimation: least-squares
//! via normal equations and Gaussian elimination with partial pivoting.
//!
//! The paper (Section 3.1) extracts per-operator work parameters by
//! "solving a system of linear equations to divide up the active time of
//! each operator among the different nodes of the query plan"; this
//! module provides that solver without external dependencies.

use crate::error::{ModelError, Result};

/// Solves the square system `A x = b` by Gaussian elimination with
/// partial pivoting. `a` is row-major, `n x n`.
fn solve(a: &[f64], b: &[f64], n: usize) -> Result<Vec<f64>> {
    if a.len() != n * n || b.len() != n {
        return Err(ModelError::Estimation(format!(
            "dimension mismatch: a={} b={} n={n}",
            a.len(),
            b.len()
        )));
    }
    let mut m = a.to_vec();
    let mut rhs = b.to_vec();
    for col in 0..n {
        // Partial pivot: pick the row with the largest |entry| in col.
        let pivot_row = (col..n)
            .max_by(|&i, &j| {
                m[i * n + col]
                    .abs()
                    .partial_cmp(&m[j * n + col].abs())
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("non-empty range");
        let pivot = m[pivot_row * n + col];
        if pivot.abs() < 1e-12 {
            return Err(ModelError::Estimation(format!(
                "matrix is singular or ill-conditioned at column {col}"
            )));
        }
        if pivot_row != col {
            for k in 0..n {
                m.swap(col * n + k, pivot_row * n + k);
            }
            rhs.swap(col, pivot_row);
        }
        for row in (col + 1)..n {
            let factor = m[row * n + col] / m[col * n + col];
            if factor == 0.0 {
                continue;
            }
            for k in col..n {
                m[row * n + k] -= factor * m[col * n + k];
            }
            rhs[row] -= factor * rhs[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = rhs[row];
        for k in (row + 1)..n {
            acc -= m[row * n + k] * x[k];
        }
        x[row] = acc / m[row * n + row];
    }
    Ok(x)
}

/// Ordinary least squares: finds `x` minimizing `‖A x − b‖₂` where `A` is
/// `rows x cols` (row-major) with `rows ≥ cols`, via the normal equations
/// `AᵀA x = Aᵀb`.
pub(crate) fn least_squares(a: &[f64], b: &[f64], rows: usize, cols: usize) -> Result<Vec<f64>> {
    if a.len() != rows * cols || b.len() != rows {
        return Err(ModelError::Estimation(format!(
            "dimension mismatch: a={} b={} rows={rows} cols={cols}",
            a.len(),
            b.len()
        )));
    }
    if rows < cols {
        return Err(ModelError::Estimation(format!(
            "underdetermined system: {rows} observations for {cols} unknowns"
        )));
    }
    // AtA (cols x cols) and Atb (cols).
    let mut ata = vec![0.0; cols * cols];
    let mut atb = vec![0.0; cols];
    for r in 0..rows {
        for i in 0..cols {
            let ari = a[r * cols + i];
            atb[i] += ari * b[r];
            for j in 0..cols {
                ata[i * cols + j] += ari * a[r * cols + j];
            }
        }
    }
    solve(&ata, &atb, cols)
}

/// Residual sum of squares of a candidate solution.
pub(crate) fn rss(a: &[f64], b: &[f64], x: &[f64], rows: usize, cols: usize) -> f64 {
    (0..rows)
        .map(|r| {
            let pred: f64 = (0..cols).map(|c| a[r * cols + c] * x[c]).sum();
            let e = pred - b[r];
            e * e
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_identity() {
        let a = [1.0, 0.0, 0.0, 1.0];
        let b = [3.0, -2.0];
        let x = solve(&a, &b, 2).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12 && (x[1] + 2.0).abs() < 1e-12);
    }

    #[test]
    fn solves_requiring_pivoting() {
        // First pivot is zero: requires row swap.
        let a = [0.0, 1.0, 1.0, 0.0];
        let b = [2.0, 5.0];
        let x = solve(&a, &b, 2).unwrap();
        assert!((x[0] - 5.0).abs() < 1e-12 && (x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn solves_3x3() {
        // x=1, y=2, z=3 under a well-conditioned matrix.
        let a = [2.0, 1.0, -1.0, -3.0, -1.0, 2.0, -2.0, 1.0, 2.0];
        let x_true = [1.0, 2.0, 3.0];
        let b: Vec<f64> = (0..3)
            .map(|r| (0..3).map(|c| a[r * 3 + c] * x_true[c]).sum())
            .collect();
        let x = solve(&a, &b, 3).unwrap();
        for (got, want) in x.iter().zip(x_true) {
            assert!((got - want).abs() < 1e-9);
        }
    }

    #[test]
    fn singular_matrix_rejected() {
        let a = [1.0, 2.0, 2.0, 4.0];
        let b = [1.0, 2.0];
        assert!(solve(&a, &b, 2).is_err());
    }

    #[test]
    fn dimension_mismatch_rejected() {
        assert!(solve(&[1.0], &[1.0, 2.0], 2).is_err());
        assert!(least_squares(&[1.0, 2.0], &[1.0], 2, 2).is_err());
    }

    #[test]
    fn least_squares_exact_fit() {
        // y = w + m*s with (w, s) = (9.66, 10.34): the paper's pivot law.
        let ms = [1.0, 2.0, 4.0, 8.0];
        let a: Vec<f64> = ms.iter().flat_map(|&m| [1.0, m]).collect();
        let b: Vec<f64> = ms.iter().map(|&m| 9.66 + 10.34 * m).collect();
        let x = least_squares(&a, &b, 4, 2).unwrap();
        assert!((x[0] - 9.66).abs() < 1e-9);
        assert!((x[1] - 10.34).abs() < 1e-9);
        assert!(rss(&a, &b, &x, 4, 2) < 1e-15);
    }

    #[test]
    fn least_squares_noisy_fit_recovers_trend() {
        // Add symmetric noise: OLS should land near the true slope.
        let ms = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let noise = [0.05, -0.05, 0.05, -0.05, 0.05, -0.05];
        let a: Vec<f64> = ms.iter().flat_map(|&m| [1.0, m]).collect();
        let b: Vec<f64> = ms
            .iter()
            .zip(noise)
            .map(|(&m, e)| 2.0 + 3.0 * m + e)
            .collect();
        let x = least_squares(&a, &b, 6, 2).unwrap();
        assert!((x[0] - 2.0).abs() < 0.1);
        assert!((x[1] - 3.0).abs() < 0.05);
    }

    #[test]
    fn underdetermined_rejected() {
        let a = [1.0, 2.0];
        let b = [3.0];
        assert!(least_squares(&a, &b, 1, 2).is_err());
    }
}
