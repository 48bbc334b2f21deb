//! Single-query model quantities: `p_max`, `r`, `u`, `u'`, `x(n)`
//! (paper Sections 4.1.2–4.1.3).

use crate::error::{ModelError, Result};
use crate::plan::PlanSpec;

/// Model view of one query: peak rate, utilization, and achievable rate
/// under limited processors.
///
/// Due to the tight coupling of pipelined operators, all operators in a
/// plan proceed at the rate of the slowest (bottleneck) operator; the
/// peak rate of forward progress is `r = 1 / p_max`.
#[derive(Debug, Clone)]
pub struct QueryModel<'a> {
    plan: &'a PlanSpec,
}

impl<'a> QueryModel<'a> {
    /// Wraps a plan for model evaluation.
    pub fn new(plan: &'a PlanSpec) -> Self {
        Self { plan }
    }

    /// `p_max`: the largest per-unit-progress work among all operators.
    pub fn p_max(&self) -> f64 {
        self.plan
            .node_ids()
            .map(|id| self.plan.op(id).p())
            .fold(0.0_f64, f64::max)
    }

    /// `r = 1 / p_max`: peak rate of forward progress (paper 4.1.2).
    ///
    /// Returns infinity for a degenerate plan whose operators are all
    /// zero-cost.
    pub fn peak_rate(&self) -> f64 {
        1.0 / self.p_max()
    }

    /// `u' = Σ_k p_k`: total work per unit of forward progress.
    pub fn total_work(&self) -> f64 {
        self.plan.node_ids().map(|id| self.plan.op(id).p()).sum()
    }

    /// `u = u' / p_max`: maximum processor utilization of the query
    /// (can exceed 1 — it reflects available pipeline parallelism).
    pub fn peak_utilization(&self) -> f64 {
        self.total_work() / self.p_max()
    }

    /// `x(n) = min(1/p_max, n/u')`: the true rate of forward progress
    /// given `n` available processors (paper 4.1.3). If `u > n` the
    /// system time-shares operators, uniformly scaling the rate by `n/u`.
    pub fn rate(&self, n: f64) -> Result<f64> {
        if n.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) || !n.is_finite() {
            return Err(ModelError::InvalidProcessors(n));
        }
        Ok((1.0 / self.p_max()).min(n / self.total_work()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::OperatorSpec;

    /// Paper Section 4.4 Q6 plan: scan (w=9.66, s=10.34) -> agg (p=0.97).
    fn q6() -> PlanSpec {
        PlanSpec::pipeline(vec![
            OperatorSpec::new("scan", vec![9.66], vec![10.34]),
            OperatorSpec::new("agg", vec![0.97], vec![]),
        ])
        .unwrap()
    }

    /// Section 6 synthetic query: p=10 / (w=6, s=1) / p=10.
    fn synthetic() -> PlanSpec {
        PlanSpec::pipeline(vec![
            OperatorSpec::new("bottom", vec![10.0], vec![]),
            OperatorSpec::new("pivot", vec![6.0], vec![1.0]),
            OperatorSpec::new("top", vec![10.0], vec![]),
        ])
        .unwrap()
    }

    #[test]
    fn q6_paper_anchor_values() {
        let plan = q6();
        let q = QueryModel::new(&plan);
        // p_max = p_scan = 20, u' = 20.97 ≈ 21 (paper rounds to 21).
        assert!((q.p_max() - 20.0).abs() < 1e-9);
        assert!((q.total_work() - 20.97).abs() < 1e-9);
        assert!((q.peak_rate() - 0.05).abs() < 1e-12);
        assert!((q.peak_utilization() - 20.97 / 20.0).abs() < 1e-12);
    }

    #[test]
    fn synthetic_paper_anchor_utilization() {
        // Paper Section 6.1: "each query requires 2.7 processors for peak
        // throughput": u' = 10 + 7 + 10 = 27, p_max = 10, u = 2.7.
        let plan = synthetic();
        let q = QueryModel::new(&plan);
        assert!((q.total_work() - 27.0).abs() < 1e-12);
        assert!((q.p_max() - 10.0).abs() < 1e-12);
        assert!((q.peak_utilization() - 2.7).abs() < 1e-12);
    }

    #[test]
    fn rate_saturates_at_peak() {
        let plan = synthetic();
        let q = QueryModel::new(&plan);
        // With plenty of processors, rate = r = 1/10.
        assert!((q.rate(32.0).unwrap() - 0.1).abs() < 1e-12);
        // With one processor, rate = 1/u' = 1/27.
        assert!((q.rate(1.0).unwrap() - 1.0 / 27.0).abs() < 1e-12);
        // Exactly u processors reach peak rate.
        assert!((q.rate(2.7).unwrap() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn rate_monotone_in_n() {
        let plan = q6();
        let q = QueryModel::new(&plan);
        let mut prev = 0.0;
        for n in [0.5, 1.0, 1.5, 2.0, 4.0, 8.0, 16.0, 32.0] {
            let x = q.rate(n).unwrap();
            assert!(x >= prev - 1e-15, "rate must be non-decreasing in n");
            prev = x;
        }
    }

    #[test]
    fn invalid_processors_rejected() {
        let plan = q6();
        let q = QueryModel::new(&plan);
        assert!(q.rate(0.0).is_err());
        assert!(q.rate(-1.0).is_err());
        assert!(q.rate(f64::NAN).is_err());
        assert!(q.rate(f64::INFINITY).is_err());
    }

    #[test]
    fn fractional_processors_allowed_for_contention_models() {
        let plan = q6();
        let q = QueryModel::new(&plan);
        // n^k contention adjustment produces fractional n; must work.
        assert!(q.rate(1.7).unwrap() > 0.0);
    }
}
