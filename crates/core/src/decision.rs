//! Runtime share/don't-share decisions (paper Sections 7–8).
//!
//! The model's speedup predictions carry error (5–6% average in the
//! paper), but its *binary recommendations* are nearly always correct.
//! [`ShareAdvisor`] wraps a hardware description and answers the only
//! question the engine needs: *given this group and this machine, should
//! we share?* The verdict itself — [`Decision::for_group`] — is shared
//! with the engine's model-guided policy, which prices its groups at a
//! fractional fair share of the machine instead of a [`HardwareModel`].

use crate::contention::HardwareModel;
use crate::error::Result;
use crate::plan::{NodeId, PlanSpec};
use crate::sharing::{SharingEvaluator, Speedup};
use serde::{Deserialize, Serialize};

/// A share/don't-share recommendation with its supporting numbers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Decision {
    /// Whether to share: [`Speedup::favors_sharing`] at the decider's
    /// hysteresis (`Z ≥ 1 + hysteresis`; ties share).
    pub share: bool,
    /// The predicted speedup details.
    pub speedup: Speedup,
    /// Effective processors assumed for shared execution.
    pub n_shared: f64,
    /// Effective processors assumed for unshared execution.
    pub n_unshared: f64,
}

impl Decision {
    /// Prices `group` at the given effective processors per execution
    /// mode and takes the verdict — the workspace's one share /
    /// don't-share comparison.
    pub fn for_group(
        group: &SharingEvaluator,
        n_shared: f64,
        n_unshared: f64,
        hysteresis: f64,
    ) -> Result<Self> {
        let speedup = group.evaluate_split(n_shared, n_unshared)?;
        Ok(Self {
            share: speedup.favors_sharing(hysteresis),
            speedup,
            n_shared,
            n_unshared,
        })
    }
}

/// Stateless advisor binding the model to a hardware description.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShareAdvisor {
    hardware: HardwareModel,
    /// Margin of predicted benefit required before recommending sharing;
    /// `0.0` recommends sharing whenever `Z ≥ 1` (a neutral group is
    /// shared, exactly as the engine's policy does). A small
    /// positive hysteresis (e.g. `0.02`) avoids flapping on borderline
    /// groups whose parameters carry measurement noise.
    hysteresis: f64,
}

impl ShareAdvisor {
    /// Creates an advisor for the given hardware.
    pub fn new(hardware: HardwareModel) -> Self {
        Self {
            hardware,
            hysteresis: 0.0,
        }
    }

    /// Requires `Z ≥ 1 + hysteresis` before recommending sharing.
    #[must_use]
    pub fn with_hysteresis(mut self, hysteresis: f64) -> Self {
        self.hysteresis = hysteresis.max(0.0);
        self
    }

    /// The hardware description in use.
    pub fn hardware(&self) -> HardwareModel {
        self.hardware
    }

    /// Evaluates a prepared sharing group.
    pub fn advise(&self, group: &SharingEvaluator) -> Result<Decision> {
        Decision::for_group(
            group,
            self.hardware.effective_shared(),
            self.hardware.effective_unshared(),
            self.hysteresis,
        )
    }

    /// Convenience: evaluates sharing `m` identical queries at `pivot`.
    pub fn advise_homogeneous(&self, plan: &PlanSpec, pivot: NodeId, m: usize) -> Result<Decision> {
        self.advise(&SharingEvaluator::homogeneous(plan, pivot, m)?)
    }

    /// Admission test for the engine (paper Section 8.1): a group of `m`
    /// queries is running/queued shared; should a newly arrived identical
    /// query join it? Recommends joining iff the expanded group is
    /// predicted to outperform unshared execution of `m + 1` queries.
    pub fn advise_admission(
        &self,
        plan: &PlanSpec,
        pivot: NodeId,
        current_group: usize,
    ) -> Result<Decision> {
        self.advise_homogeneous(plan, pivot, current_group + 1)
    }
}

/// A recommended partition of `m` identical queries into sharing groups
/// (paper Section 8.1: "sharing fewer queries at a time is one
/// potential way to exploit work sharing while reducing the
/// serialization penalty").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Partition {
    /// Group sizes (non-increasing; sizes differ by at most one).
    pub groups: Vec<usize>,
    /// Predicted aggregate rate of forward progress.
    pub rate: f64,
    /// Predicted rate of the two baselines, for reporting.
    pub never_share_rate: f64,
    /// Predicted rate of the single-group (always-share) extreme.
    pub one_group_rate: f64,
}

impl Partition {
    /// The dominant group size.
    pub fn group_size(&self) -> usize {
        self.groups.first().copied().unwrap_or(0)
    }
}

/// Finds the group size that maximizes predicted aggregate throughput
/// when partitioning `m` identical queries into sharing groups on `n`
/// processors, assuming the processors are divided among groups in
/// proportion to their sizes.
///
/// For each candidate size `g`, the queries split into
/// `ceil(m/g)` groups (sizes as equal as possible); a group of size
/// `gᵢ` receives `n · gᵢ / m` processors and contributes
/// `x_shared(gᵢ, n·gᵢ/m)`. `g = 1` reproduces the never-share baseline
/// and `g = m` the always-share extreme, so the result is never worse
/// than either.
pub fn optimal_partition(plan: &PlanSpec, pivot: NodeId, m: usize, n: f64) -> Result<Partition> {
    if m == 0 {
        return Err(crate::error::ModelError::EmptyGroup);
    }
    let rate_for = |sizes: &[usize]| -> Result<f64> {
        let mut total = 0.0;
        for &g in sizes {
            let share = (n * g as f64 / m as f64).max(f64::MIN_POSITIVE);
            total += SharingEvaluator::homogeneous(plan, pivot, g)?.shared_rate(share)?;
        }
        Ok(total)
    };
    let sizes_for = |g: usize| -> Vec<usize> {
        // Distribute m into ceil(m/g) groups with sizes differing by <= 1.
        let k = m.div_ceil(g);
        let base = m / k;
        let extra = m % k;
        let mut sizes: Vec<usize> = (0..k).map(|i| base + usize::from(i < extra)).collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        sizes
    };
    let mut best: Option<Partition> = None;
    let never = rate_for(&sizes_for(1))?;
    let one_group = rate_for(&sizes_for(m))?;
    for g in 1..=m {
        let sizes = sizes_for(g);
        let rate = rate_for(&sizes)?;
        // Ties break toward larger groups: equal predicted rate but
        // more redundant work eliminated (leaving more slack for
        // anything else the machine runs).
        let better = match &best {
            None => true,
            Some(b) => rate > b.rate + 1e-12 || (rate >= b.rate - 1e-12 && g > b.group_size()),
        };
        if better {
            best = Some(Partition {
                groups: sizes,
                rate,
                never_share_rate: never,
                one_group_rate: one_group,
            });
        }
    }
    Ok(best.expect("at least g=1 evaluated"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::OperatorSpec;

    fn q6() -> (PlanSpec, NodeId) {
        let mut b = PlanSpec::new();
        let scan = b.add_leaf(OperatorSpec::new("scan", vec![9.66], vec![10.34]));
        let agg = b.add_node(OperatorSpec::new("agg", vec![0.97], vec![]), vec![scan]);
        (b.finish(agg).unwrap(), scan)
    }

    fn join_heavy() -> (PlanSpec, NodeId) {
        let mut b = PlanSpec::new();
        let s1 = b.add_leaf(OperatorSpec::new("scan1", vec![12.0], vec![1.0]));
        let s2 = b.add_leaf(OperatorSpec::new("scan2", vec![30.0], vec![1.0]));
        let join = b.add_node(
            OperatorSpec::new("join", vec![1.0, 2.0], vec![0.05]),
            vec![s1, s2],
        );
        let agg = b.add_node(OperatorSpec::new("agg", vec![0.5], vec![]), vec![join]);
        (b.finish(agg).unwrap(), join)
    }

    #[test]
    fn advisor_matches_paper_q6_regimes() {
        let (plan, scan) = q6();
        let uni = ShareAdvisor::new(HardwareModel::ideal(1));
        let cmp32 = ShareAdvisor::new(HardwareModel::ideal(32));
        assert!(uni.advise_homogeneous(&plan, scan, 16).unwrap().share);
        assert!(!cmp32.advise_homogeneous(&plan, scan, 16).unwrap().share);
    }

    #[test]
    fn advisor_never_penalizes_join_heavy() {
        // Join-heavy sharing never hurts (Z >= 1 everywhere) ...
        let (plan, join) = join_heavy();
        for contexts in [1, 2, 8, 32] {
            let adv = ShareAdvisor::new(HardwareModel::ideal(contexts));
            for m in [2usize, 8, 32, 48] {
                let d = adv.advise_homogeneous(&plan, join, m).unwrap();
                assert!(
                    d.speedup.z >= 1.0 - 1e-9,
                    "contexts={contexts} m={m} z={}",
                    d.speedup.z
                );
            }
        }
    }

    #[test]
    fn advisor_shares_join_heavy_under_load() {
        // ... and is an outright win whenever the machine would saturate
        // (m >= contexts), which is the regime the paper plots in Fig. 2.
        let (plan, join) = join_heavy();
        for (contexts, m) in [
            (1u32, 2usize),
            (2, 2),
            (2, 8),
            (8, 8),
            (8, 32),
            (32, 32),
            (32, 48),
        ] {
            let adv = ShareAdvisor::new(HardwareModel::ideal(contexts));
            let d = adv.advise_homogeneous(&plan, join, m).unwrap();
            assert!(d.share, "contexts={contexts} m={m} z={}", d.speedup.z);
        }
    }

    #[test]
    fn hysteresis_suppresses_borderline_recommendations() {
        let (plan, scan) = q6();
        // Pick a point with Z barely above 1: Q6 at 2 CPUs crosses the
        // break-even line around m ~ 68 clients.
        let adv = ShareAdvisor::new(HardwareModel::ideal(2));
        let d = adv.advise_homogeneous(&plan, scan, 100).unwrap();
        assert!(d.speedup.z > 1.0 && d.speedup.z < 1.02, "z={}", d.speedup.z);
        assert!(d.share);
        let cautious = adv.with_hysteresis(0.05);
        assert!(!cautious.advise_homogeneous(&plan, scan, 100).unwrap().share);
    }

    #[test]
    fn admission_equivalent_to_group_of_m_plus_one() {
        let (plan, scan) = q6();
        let adv = ShareAdvisor::new(HardwareModel::ideal(8));
        let admit = adv.advise_admission(&plan, scan, 4).unwrap();
        let group5 = adv.advise_homogeneous(&plan, scan, 5).unwrap();
        assert_eq!(admit.share, group5.share);
        assert!((admit.speedup.z - group5.speedup.z).abs() < 1e-12);
    }

    #[test]
    fn optimal_partition_never_worse_than_either_extreme() {
        let (plan, scan) = q6();
        for (m, n) in [(8usize, 4.0), (16, 8.0), (48, 32.0), (4, 1.0)] {
            let p = optimal_partition(&plan, scan, m, n).unwrap();
            assert!(p.rate >= p.never_share_rate - 1e-12, "m={m} n={n}: {p:?}");
            assert!(p.rate >= p.one_group_rate - 1e-12, "m={m} n={n}: {p:?}");
            assert_eq!(p.groups.iter().sum::<usize>(), m);
        }
    }

    #[test]
    fn optimal_partition_uses_one_group_on_uniprocessor() {
        // On 1 CPU sharing everything is best for Q6 (Figure 1).
        let (plan, scan) = q6();
        let p = optimal_partition(&plan, scan, 16, 1.0).unwrap();
        assert_eq!(p.groups, vec![16]);
    }

    #[test]
    fn optimal_partition_prefers_small_groups_on_big_machine() {
        // Section 8.1: on 32 CPUs with 48 Q6 clients, a single group
        // serializes and singletons waste sharing; small groups win.
        let (plan, scan) = q6();
        let p = optimal_partition(&plan, scan, 48, 32.0).unwrap();
        assert!(
            p.group_size() >= 2 && p.group_size() <= 6,
            "expected small groups, got {:?}",
            p.groups
        );
        assert!(p.rate > p.never_share_rate * 1.01);
        assert!(p.rate > p.one_group_rate * 1.5);
    }

    #[test]
    fn optimal_partition_join_heavy_prefers_one_group() {
        let (plan, join) = join_heavy();
        let p = optimal_partition(&plan, join, 16, 8.0).unwrap();
        assert_eq!(p.groups, vec![16], "join-heavy should coalesce fully");
    }

    #[test]
    fn optimal_partition_rejects_empty() {
        let (plan, scan) = q6();
        assert!(optimal_partition(&plan, scan, 0, 8.0).is_err());
    }

    #[test]
    fn contention_can_flip_a_decision() {
        let (plan, scan) = q6();
        // Ideal 4-CPU machine: sharing 48 Q6 queries is a loss.
        let ideal = ShareAdvisor::new(HardwareModel::ideal(4));
        assert!(!ideal.advise_homogeneous(&plan, scan, 48).unwrap().share);
        // Heavy contention on unshared execution (more aggregate data
        // touched) shrinks its effective processors toward 1, where
        // sharing wins.
        let contended =
            ShareAdvisor::new(HardwareModel::with_mode_contention(4, 0.05, 1.0).unwrap());
        assert!(contended.advise_homogeneous(&plan, scan, 48).unwrap().share);
    }
}
