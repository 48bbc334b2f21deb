//! Accounting: per-task active time & forward progress, machine
//! utilization. These measurements feed the model's parameter
//! estimation (paper Section 3.1) and the utilization arguments of
//! Section 6.

use crate::VTime;

/// Statistics for one task.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TaskStats {
    /// Total virtual time the task spent executing steps (busy time).
    pub active: VTime,
    /// Number of steps executed.
    pub steps: u64,
    /// Accumulated forward progress reported via
    /// [`crate::TaskCtx::add_progress`].
    pub progress: f64,
    /// Virtual completion time, if the task finished.
    pub completed_at: Option<VTime>,
}

/// Machine-level statistics for a run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimStats {
    /// Virtual time at the end of the run.
    pub(crate) makespan: VTime,
    /// Number of contexts simulated.
    pub(crate) contexts: usize,
    /// Busy time per context.
    pub(crate) busy: Vec<VTime>,
}

impl SimStats {
    /// Fraction of total context-time spent busy, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        if self.makespan == 0 {
            return 0.0;
        }
        let busy: u128 = self.busy.iter().map(|&b| b as u128).sum();
        busy as f64 / (self.makespan as u128 * self.contexts as u128) as f64
    }

    /// Average number of busy contexts over the run (utilization × n) —
    /// directly comparable to the model's `u`.
    pub fn mean_busy_contexts(&self) -> f64 {
        self.utilization() * self.contexts as f64
    }
}

/// A response-time (or any latency) distribution: exact nearest-rank
/// quantiles over the recorded samples.
///
/// Samples are kept exactly (a service run records one value per
/// completed query — thousands, not billions), so quantiles are true
/// order statistics rather than bucket approximations.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    /// The samples, sorted ascending.
    samples: Vec<VTime>,
}

impl Histogram {
    /// Builds a histogram from a batch of samples.
    pub fn from_samples(mut samples: Vec<VTime>) -> Self {
        samples.sort_unstable();
        Self { samples }
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Nearest-rank quantile: the smallest recorded sample such that at
    /// least `⌈q·N⌉` samples are ≤ it (`q = 0` yields the minimum,
    /// `q = 1` the maximum). `None` on an empty histogram or a `q`
    /// outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<VTime> {
        if self.samples.is_empty() || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let rank = ((q * self.samples.len() as f64).ceil() as usize).max(1);
        Some(self.samples[rank.min(self.samples.len()) - 1])
    }

    /// Arithmetic mean of the samples, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let sum: u128 = self.samples.iter().map(|&v| v as u128).sum();
        Some(sum as f64 / self.samples.len() as f64)
    }

    /// The standard tail summary (`count`/`min`/`mean`/`p50`/`p90`/
    /// `p99`/`p999`/`max`), or `None` when empty.
    pub fn summary(&self) -> Option<LatencySummary> {
        if self.samples.is_empty() {
            return None;
        }
        let mean = self.mean().expect("non-empty");
        Some(LatencySummary {
            count: self.samples.len() as u64,
            min: self.samples[0],
            max: *self.samples.last().expect("non-empty"),
            mean,
            p50: self.quantile(0.50).expect("non-empty"),
            p90: self.quantile(0.90).expect("non-empty"),
            p99: self.quantile(0.99).expect("non-empty"),
            p999: self.quantile(0.999).expect("non-empty"),
        })
    }
}

/// The tail-latency summary of one [`Histogram`] (quantiles are
/// nearest-rank order statistics, not bucket midpoints).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Number of samples summarized.
    pub count: u64,
    /// Smallest sample.
    pub min: VTime,
    /// Largest sample.
    pub max: VTime,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (50th percentile).
    pub p50: VTime,
    /// 90th percentile.
    pub p90: VTime,
    /// 99th percentile.
    pub p99: VTime,
    /// 99.9th percentile.
    pub p999: VTime,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_bounds() {
        let s = SimStats {
            makespan: 100,
            contexts: 2,
            busy: vec![100, 50],
        };
        assert!((s.utilization() - 0.75).abs() < 1e-12);
        assert!((s.mean_busy_contexts() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn empty_run_has_zero_utilization() {
        let s = SimStats {
            makespan: 0,
            contexts: 4,
            busy: vec![0; 4],
        };
        assert_eq!(s.utilization(), 0.0);
    }

    #[test]
    fn quantiles_are_exact_nearest_rank() {
        // 1..=100 makes nearest-rank quantiles directly readable:
        // p50 = 50th sample = 50, p99 = 99, p999 = ⌈99.9⌉ = 100.
        let h = Histogram::from_samples((1..=100).rev().collect());
        assert_eq!(h.len(), 100);
        assert_eq!(h.quantile(0.0), Some(1));
        assert_eq!(h.quantile(0.50), Some(50));
        assert_eq!(h.quantile(0.90), Some(90));
        assert_eq!(h.quantile(0.99), Some(99));
        assert_eq!(h.quantile(0.999), Some(100));
        assert_eq!(h.quantile(1.0), Some(100));
        assert_eq!(h.quantile(1.5), None, "out-of-range q");
        assert_eq!(h.mean(), Some(50.5));
    }

    #[test]
    fn single_sample_dominates_every_quantile() {
        let h = Histogram::from_samples(vec![42]);
        let s = h.summary().expect("one sample");
        assert_eq!((s.count, s.min, s.max), (1, 42, 42));
        assert_eq!((s.p50, s.p90, s.p99, s.p999), (42, 42, 42, 42));
        assert_eq!(s.mean, 42.0);
    }

    #[test]
    fn empty_histogram_yields_none_everywhere() {
        let h = Histogram::default();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), None);
        assert!(h.summary().is_none());
    }

    #[test]
    fn quantile_exact_rank_boundaries() {
        // With N = 4, q·N lands exactly on integer ranks at the
        // quartiles. Nearest-rank uses ⌈q·N⌉, so a q *at* the boundary
        // selects that rank, and any q just above it moves to the next.
        let h = Histogram::from_samples(vec![10, 20, 30, 40]);
        assert_eq!(h.quantile(0.25), Some(10), "⌈1.0⌉ = rank 1");
        assert_eq!(h.quantile(0.26), Some(20), "⌈1.04⌉ = rank 2");
        assert_eq!(h.quantile(0.50), Some(20), "⌈2.0⌉ = rank 2");
        assert_eq!(h.quantile(0.51), Some(30), "⌈2.04⌉ = rank 3");
        assert_eq!(h.quantile(0.75), Some(30), "⌈3.0⌉ = rank 3");
        assert_eq!(h.quantile(0.76), Some(40), "⌈3.04⌉ = rank 4");
        // q = 0 would give rank 0; the .max(1) clamp yields the minimum.
        assert_eq!(h.quantile(0.0), Some(10));
        assert_eq!(h.quantile(1.0), Some(40));
    }

    #[test]
    fn quantile_rejects_out_of_range_and_nan_q() {
        let h = Histogram::from_samples(vec![1, 2, 3]);
        assert_eq!(h.quantile(-0.1), None);
        assert_eq!(h.quantile(1.1), None);
        assert_eq!(h.quantile(f64::NAN), None, "NaN is outside [0, 1]");
    }
}
