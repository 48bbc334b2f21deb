//! Order statistics over raw samples.
//!
//! Timings are reported as a median plus the highest percentile that
//! still has at least ten samples beyond it (choosing-metrics §1);
//! run-to-run spread is the inter-quartile distance as a share of the
//! median, computed the way Python's `statistics.quantiles(v, n=4)`
//! does so the numbers match the driver's.

/// Nearest-rank quantile `q ∈ [0, 1]` of `sorted` (ascending): the
/// smallest sample with at least `q · n` samples at or below it.
/// `None` on an empty slice.
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median by nearest rank.
pub fn median(samples: &[f64]) -> Option<f64> {
    nearest_rank(&sorted(samples), 0.5)
}

/// Ascending copy of `samples` (total order; NaNs sort last).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The highest of the candidate percentiles (p99, p95, p90, p75) whose
/// nearest rank leaves at least ten samples beyond it, as
/// `(percentile, value)`. `None` when even p75 has fewer than ten
/// samples above it (n < 40): report the median alone.
pub fn highest_supported(sorted: &[f64]) -> Option<(u32, f64)> {
    [99u32, 95, 90, 75].into_iter().find_map(|p| {
        let rank = (f64::from(p) / 100.0 * sorted.len() as f64).ceil() as usize;
        (rank >= 1 && sorted.len() - rank.min(sorted.len()) >= 10).then(|| (p, sorted[rank - 1]))
    })
}

/// Iterations per second over consecutive blocks of `samples_ms`: a
/// block closes once it holds at least `block_ms` of iteration time.
/// The unfinished tail is dropped, unless no block closed at all, in
/// which case the whole slice is the one block.
pub fn block_rates(samples_ms: &[f64], block_ms: f64) -> Vec<f64> {
    let mut rates = Vec::new();
    let (mut iters, mut ms) = (0u32, 0.0);
    for s in samples_ms {
        iters += 1;
        ms += s;
        if ms >= block_ms {
            rates.push(f64::from(iters) * 1e3 / ms);
            (iters, ms) = (0, 0.0);
        }
    }
    if rates.is_empty() && ms > 0.0 {
        rates.push(f64::from(iters) * 1e3 / ms);
    }
    rates
}

/// First and third quartile by the exclusive method — the default of
/// Python's `statistics.quantiles(values, n=4)`. Needs two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(samples);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        // Position i·(n+1)/4 in 1-based ranks, clamped into the data.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((cut(1), cut(3)))
}

/// Inter-quartile distance as a share of the median — the spread the
/// driver holds against each end-to-end metric's bound.
pub fn iqr_share(samples: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(samples)?;
    let m = median_interpolated(samples)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// The conventional median (mean of the two middle samples for even
/// `n`), as Python's `statistics.median` — used only for run-to-run
/// comparisons, where the driver computes it this way.
pub fn median_interpolated(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_an_order_statistic() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), Some(50.0));
        assert_eq!(nearest_rank(&v, 0.99), Some(99.0));
        assert_eq!(nearest_rank(&v, 1.0), Some(100.0));
        assert_eq!(nearest_rank(&v, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&[7.0], 0.9), Some(7.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
        // Even n: nearest rank picks the lower middle, never a mean.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        let v = |n: u32| (1..=n).map(f64::from).collect::<Vec<_>>();
        // n = 1000: p99 has exactly 10 beyond it.
        assert_eq!(highest_supported(&v(1000)), Some((99, 990.0)));
        // n = 999: rank(p99) = 990, 9 beyond -> fall back to p95.
        assert_eq!(highest_supported(&v(999)), Some((95, 950.0)));
        // n = 100: p90 leaves exactly 10.
        assert_eq!(highest_supported(&v(100)), Some((90, 90.0)));
        // n = 58 (a 10 s run of a 170 ms iteration): only p75 qualifies.
        assert_eq!(highest_supported(&v(58)), Some((75, 44.0)));
        // n = 39: nothing above the median is supported.
        assert_eq!(highest_supported(&v(39)), None);
        assert_eq!(highest_supported(&[]), None);
    }

    #[test]
    fn block_rates_close_on_time_and_drop_the_tail() {
        // 10 ms iterations, 25 ms blocks: every block takes 3 iterations.
        let rates = block_rates(&[10.0; 8], 25.0);
        assert_eq!(rates.len(), 2, "the two trailing iterations are dropped");
        assert!(rates.iter().all(|r| (r - 100.0).abs() < 1e-9));
        // A slow stretch lowers only its own block.
        let rates = block_rates(&[10.0, 10.0, 10.0, 30.0, 10.0, 10.0, 10.0], 25.0);
        assert_eq!(rates.len(), 3);
        assert!((rates[0] - 100.0).abs() < 1e-9 && (rates[2] - 100.0).abs() < 1e-9);
        assert!((rates[1] - 1e3 / 30.0).abs() < 1e-9);
        // Shorter than one block: the whole slice is the block.
        assert_eq!(block_rates(&[10.0, 10.0], 500.0), vec![100.0]);
        assert!(block_rates(&[], 500.0).is_empty());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((iqr_share(&v).unwrap() - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        let (q1, q3) = quartiles(&[3.0, 1.0]).unwrap();
        assert!((q1 - 0.5).abs() < 1e-12 && (q3 - 3.5).abs() < 1e-12);
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median_interpolated(&[1.0, 2.0, 3.0, 10.0]), Some(2.5));
    }
}
