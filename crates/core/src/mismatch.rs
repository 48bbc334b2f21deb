//! Group-level modeling of queries with mismatched rates
//! (paper Section 5.1), independent of any sharing structure.
//!
//! The closed/open rules are written once, in
//! `SharingEvaluator::unshared_peak`; this module exposes them for
//! arbitrary sets of queries, which is useful when reasoning about
//! workload mixes (e.g. the Q1/Q4 mix of the paper's Section 8.2).
//! An [`UnsharedGroup`] is the degenerate sharing group — nothing below
//! the pivot, a zero-cost pivot, every operator of a query "above" it —
//! asked only for its unshared side.

pub use crate::sharing::SystemKind;

use crate::error::Result;
use crate::plan::PlanSpec;
use crate::sharing::{GroupMember, SharingEvaluator};

/// A set of queries executing independently (no sharing), possibly with
/// different peak rates.
#[derive(Debug, Clone)]
pub struct UnsharedGroup {
    group: SharingEvaluator,
}

impl UnsharedGroup {
    /// Builds a group over the given plans.
    pub fn new(plans: &[&PlanSpec]) -> Result<Self> {
        let members = plans
            .iter()
            .map(|plan| GroupMember::new(0.0, plan.node_ids().map(|id| plan.op(id).p()).collect()))
            .collect();
        Ok(Self {
            group: SharingEvaluator::from_parts(Vec::new(), 0.0, members)?,
        })
    }

    /// Selects the queueing regime (default: closed).
    #[must_use]
    pub fn with_system(mut self, system: SystemKind) -> Self {
        self.group = self.group.with_system(system);
        self
    }

    /// Number of queries in the group.
    pub fn len(&self) -> usize {
        self.group.m()
    }

    /// Whether the group is empty (never true once constructed).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Group peak rate `r_unshared`:
    /// * closed — `M ·` harmonic mean of member peak rates
    ///   (`M² / Σ_m p_max(m)` divided by M, i.e. `M / Σ_m p_max(m)` per
    ///   query, times `M` queries);
    /// * open — all members throttled to the slowest,
    ///   `M / max_m p_max(m)`.
    pub fn peak_rate(&self) -> f64 {
        self.group.unshared_peak().0
    }

    /// Group peak utilization `u_unshared`: each member throttled by its
    /// own `p_max` (closed) or by the group max (open).
    pub fn peak_utilization(&self) -> f64 {
        self.group.unshared_utilization()
    }

    /// Group rate of forward progress with `n` processors:
    /// `x = r_unshared · min(1, n / u_unshared)`.
    pub fn rate(&self, n: f64) -> Result<f64> {
        self.group.unshared_rate(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ModelError;
    use crate::operator::OperatorSpec;

    fn pipeline(costs: &[f64]) -> PlanSpec {
        PlanSpec::pipeline(
            costs
                .iter()
                .enumerate()
                .map(|(i, &c)| OperatorSpec::new(format!("op{i}"), vec![c], vec![]))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn homogeneous_group_matches_section_4_2() {
        // M identical queries: x = M * min(1/p_max, n / (M u')).
        let q = pipeline(&[10.0, 5.0]);
        let group = UnsharedGroup::new(&[&q, &q, &q, &q]).unwrap();
        // r = 4 / 10, u = 4 * 1.5
        assert!((group.peak_rate() - 0.4).abs() < 1e-12);
        assert!((group.peak_utilization() - 6.0).abs() < 1e-12);
        // Saturated region: n = 3 < u = 6 -> x = 0.4 * 3/6 = 0.2.
        assert!((group.rate(3.0).unwrap() - 0.2).abs() < 1e-12);
        // Unsaturated: n = 12 -> x = 0.4.
        assert!((group.rate(12.0).unwrap() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn closed_system_lets_fast_queries_raise_throughput() {
        let fast = pipeline(&[2.0]);
        let slow = pipeline(&[20.0]);
        let closed = UnsharedGroup::new(&[&fast, &slow]).unwrap();
        let open = UnsharedGroup::new(&[&fast, &slow])
            .unwrap()
            .with_system(SystemKind::Open);
        // Closed: 2 * harmonic-mean(1/2, 1/20) = 2 * 2/22.
        assert!((closed.peak_rate() - 4.0 / 22.0).abs() < 1e-12);
        // Open: both at the slow rate, 2/20.
        assert!((open.peak_rate() - 0.1).abs() < 1e-12);
        assert!(closed.peak_rate() > open.peak_rate());
    }

    #[test]
    fn regimes_agree_for_identical_members() {
        let q = pipeline(&[10.0, 10.0, 5.0]);
        let closed = UnsharedGroup::new(&[&q, &q, &q]).unwrap();
        let open = UnsharedGroup::new(&[&q, &q, &q])
            .unwrap()
            .with_system(SystemKind::Open);
        for n in [1.0, 2.0, 8.0, 32.0] {
            assert!((closed.rate(n).unwrap() - open.rate(n).unwrap()).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_group_rejected() {
        assert!(matches!(
            UnsharedGroup::new(&[]),
            Err(ModelError::EmptyGroup)
        ));
    }

    #[test]
    fn invalid_n_rejected() {
        let q = pipeline(&[1.0]);
        let g = UnsharedGroup::new(&[&q]).unwrap();
        assert!(g.rate(0.0).is_err());
        assert!(g.rate(f64::NAN).is_err());
    }
}
