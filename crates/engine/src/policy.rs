//! Sharing policies: always, never, and model-guided (paper Section 8).
//!
//! [`sharing_group`] is the one place outside `cordoba-core` that turns
//! profiled queries into the model's group, and [`Policy::decide`] is
//! the one advisor: its [`Decision`] takes the model's one verdict,
//! [`Speedup::favors_sharing`].

use cordoba_core::sharing::{GroupMember, SharingEvaluator, Speedup};
use cordoba_core::{ModelError, NodeId, PlanSpec};
use cordoba_exec::subsume::MIN_COVERAGE;
use std::collections::HashMap;

/// One (prospective) member of a subsumption-sharing group as the
/// admission decision sees it: its profiled name plus the estimated
/// fraction of the group's *wide* pivot output it needs.
#[derive(Debug, Clone, Copy)]
pub struct OverlapInfo<'a> {
    /// Query name, the key into the profiled models.
    pub name: &'a str,
    /// Coverage `c_m ∈ (0, 1]` of the wide pivot's output
    /// (see [`cordoba_exec::subsume::coverage_estimate`]).
    pub coverage: f64,
}

/// Ratio of a member's wide-output `s` charged as its residual-filter
/// cost when its coverage is below one. Residual filters are vectorized
/// selection-vector passes — a small constant fraction of the delivery
/// cost is a deliberately conservative (pessimistic-for-sharing)
/// estimate.
const RESIDUAL_COST_RATIO: f64 = 0.1;

/// Model parameters for one query type, produced by
/// [`crate::profiling::profile_query`].
#[derive(Debug, Clone)]
pub struct QueryModelInfo {
    /// The query's plan in model form (one node per operator, measured
    /// `p` values; the pivot node carries fitted `(w, s)`).
    pub plan: PlanSpec,
    /// The pivot node inside `plan`.
    pub pivot: NodeId,
}

/// Prices a sharing group: profiled members, each with its coverage of
/// the group's wide pivot, become the model's `Z(m, n)` group.
///
/// The shared sub-plan's parameters (below-pivot work and pivot input
/// work `w`) come from the member closest to the wide pivot: the one
/// with the highest coverage, and among equally wide members the
/// *first* (in an exact-overlap group the one that opened it, as
/// `SharingEvaluator::heterogeneous` reads its first query; the
/// committed `BENCH_ops.json` / `BENCH_service.json` reproduce under
/// either order). Each member's profiled `s` was measured on its own
/// (narrow) pivot output; per unit of the *wide* pivot's progress it
/// receives `1/c` as much, so its delivery cost is `s / c`, its
/// unshared baseline keeps only its own `c` fraction, and a
/// residual-filter cost of `RESIDUAL_COST_RATIO · s/c` is charged
/// to the shared side. Exact overlap is coverage 1: `s` unscaled, no
/// residual — the paper's equations unchanged. Unlike `heterogeneous`
/// this does not compare the members' pivot subtrees: the dispatcher
/// only groups queries whose pivots subsume one another, and fitted
/// costs that differ in the last digit are no reason to refuse.
#[expect(
    clippy::disallowed_methods,
    reason = "the one pricing of a group: wide member, s / c and the residual ratio live here"
)]
pub fn sharing_group(members: &[(&QueryModelInfo, f64)]) -> Result<SharingEvaluator, ModelError> {
    // `min_by` over the reversed order: the first of the widest.
    let (wide, _) = members
        .iter()
        .min_by(|(_, a), (_, b)| b.total_cmp(a))
        .ok_or(ModelError::EmptyGroup)?;
    let costs =
        |plan: &PlanSpec, ids: Vec<NodeId>| ids.into_iter().map(|id| plan.op(id).p()).collect();
    let below = costs(&wide.plan, wide.plan.below(wide.pivot)?);
    let pivot_work = wide.plan.op(wide.pivot).w();
    let members = members
        .iter()
        .map(|&(model, coverage)| {
            let c = coverage.clamp(MIN_COVERAGE, 1.0);
            let s_wide = model.plan.op(model.pivot).s_per_consumer() / c;
            let residual = if c < 1.0 - 1e-12 {
                RESIDUAL_COST_RATIO * s_wide
            } else {
                0.0
            };
            let above = costs(&model.plan, model.plan.above(model.pivot)?);
            Ok(GroupMember::new(s_wide, above).with_partial_overlap(c, residual))
        })
        .collect::<Result<_, ModelError>>()?;
    SharingEvaluator::from_parts(below, pivot_work, members)
}

/// A share/don't-share verdict with the numbers behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// Whether to share: [`Speedup::favors_sharing`] (`Z ≥ 1`; ties
    /// share).
    pub share: bool,
    /// The predicted speedup (`Z`, `x_shared`, `x_unshared`, ...).
    pub speedup: Speedup,
    /// Processors the group was priced at.
    n: f64,
}

/// A sharing policy.
#[derive(Debug, Clone, Default)]
pub enum Policy {
    /// Merge whenever an open compatible group exists.
    AlwaysShare,
    /// Never merge; every query executes independently.
    #[default]
    NeverShare,
    /// Merge only when the analytical model predicts the expanded group
    /// does not lose to unshared execution (`Z(m+1, n) ≥ 1`).
    ModelGuided {
        /// Per-query-name model parameters (from profiling).
        models: HashMap<String, QueryModelInfo>,
    },
}

impl Policy {
    /// Convenience constructor for the model-guided policy.
    pub fn model_guided(models: HashMap<String, QueryModelInfo>) -> Self {
        Policy::ModelGuided { models }
    }

    /// Whether this policy ever forms groups.
    pub(crate) fn may_share(&self) -> bool {
        !matches!(self, Policy::NeverShare)
    }

    /// The model-guided verdict on `candidate` joining `group`, with the
    /// numbers behind it (predicted `Z`, `x_shared`, `x_unshared`):
    /// [`sharing_group`] priced at `effective_contexts`. `None` for the
    /// static policies, and when a member has no profiled model or the
    /// profiled parameters do not form a valid group.
    pub fn decide(
        &self,
        group: &[OverlapInfo<'_>],
        candidate: OverlapInfo<'_>,
        effective_contexts: f64,
    ) -> Option<Decision> {
        let Policy::ModelGuided { models } = self else {
            return None;
        };
        let members = group
            .iter()
            .chain([&candidate])
            .map(|m| Some((models.get(m.name)?, m.coverage)))
            .collect::<Option<Vec<_>>>()?;
        // Sub-1 fair shares are clamped to the uniprocessor case.
        let n = effective_contexts.max(1.0);
        let speedup = sharing_group(&members).ok()?.evaluate(n).ok()?;
        Some(Decision {
            share: speedup.favors_sharing(),
            speedup,
            n,
        })
    }

    /// Decides whether `candidate` should join an open group currently
    /// holding `group`, each member consuming its `coverage` of the
    /// group's (wide) pivot, with `effective_contexts` processors
    /// effectively available to the expanded group.
    ///
    /// `AlwaysShare` says yes; `NeverShare` no; `ModelGuided` shares iff
    /// [`Policy::decide`] does. A query with no profiled model is
    /// conservatively not shared.
    ///
    /// `effective_contexts` implements the "conditions at runtime" of
    /// paper Section 8: on a loaded machine a group does not have all
    /// `n` contexts to itself — the engine passes the group's fair share
    /// `n · (m + 1) / live_queries`, which makes sharing more attractive
    /// exactly when the machine is saturated (the regime where the
    /// paper shows sharing pays off).
    pub(crate) fn admit_overlap(
        &self,
        group: &[OverlapInfo<'_>],
        candidate: OverlapInfo<'_>,
        effective_contexts: f64,
    ) -> bool {
        match self {
            Policy::AlwaysShare => true,
            Policy::NeverShare => false,
            Policy::ModelGuided { .. } => self
                .decide(group, candidate, effective_contexts)
                .is_some_and(|d| d.share),
        }
    }

    /// `Policy::admit_overlap` for an exact-overlap group given by
    /// name (every coverage 1). Kept because `benchmark/` times it.
    pub fn admit(&self, group_names: &[String], candidate: &str, effective_contexts: f64) -> bool {
        let exact = |name| OverlapInfo {
            name,
            coverage: 1.0,
        };
        let group: Vec<_> = group_names.iter().map(|n| exact(n.as_str())).collect();
        self.admit_overlap(&group, exact(candidate), effective_contexts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cordoba_core::OperatorSpec;

    /// Q6-like model: scan (w=9.66, s=10.34) -> agg (p=0.97).
    fn q6_info() -> QueryModelInfo {
        let mut b = PlanSpec::new();
        let scan = b.add_leaf(OperatorSpec::new("scan", vec![9.66], vec![10.34]));
        let agg = b.add_node(OperatorSpec::new("agg", vec![0.97], vec![]), vec![scan]);
        QueryModelInfo {
            plan: b.finish(agg).unwrap(),
            pivot: scan,
        }
    }

    /// Join-heavy model: big scans below a cheap-output pivot.
    fn join_info() -> QueryModelInfo {
        let mut b = PlanSpec::new();
        let s1 = b.add_leaf(OperatorSpec::new("scan1", vec![12.0], vec![1.0]));
        let s2 = b.add_leaf(OperatorSpec::new("scan2", vec![30.0], vec![1.0]));
        let join = b.add_node(
            OperatorSpec::new("join", vec![2.0, 1.0], vec![0.05]),
            vec![s1, s2],
        );
        let agg = b.add_node(OperatorSpec::new("agg", vec![0.5], vec![]), vec![join]);
        QueryModelInfo {
            plan: b.finish(agg).unwrap(),
            pivot: join,
        }
    }

    fn model_policy() -> Policy {
        let mut models = HashMap::new();
        models.insert("q6".to_string(), q6_info());
        models.insert("q4".to_string(), join_info());
        Policy::model_guided(models)
    }

    #[test]
    fn static_policies() {
        assert!(Policy::AlwaysShare.admit(&["q6".into()], "q6", 32.0));
        assert!(!Policy::NeverShare.admit(&["q6".into()], "q6", 1.0));
        assert!(Policy::AlwaysShare.may_share());
        assert!(!Policy::NeverShare.may_share());
    }

    #[test]
    fn model_guided_distinguishes_scan_heavy_by_contexts() {
        let p = model_policy();
        let group: Vec<String> = vec!["q6".into(); 8];
        // Scan-heavy: share on a uniprocessor, not on 32 contexts.
        assert!(p.admit(&group, "q6", 1.0));
        assert!(!p.admit(&group, "q6", 32.0));
    }

    #[test]
    fn model_guided_always_shares_join_heavy_under_load() {
        let p = model_policy();
        let group: Vec<String> = vec!["q4".into(); 8];
        for contexts in [1.0, 2.0, 8.0] {
            assert!(p.admit(&group, "q4", contexts), "contexts={contexts}");
        }
    }

    #[test]
    fn unprofiled_queries_never_shared() {
        let p = model_policy();
        assert!(!p.admit(&["q6".into()], "mystery", 1.0));
        assert!(!p.admit(&["mystery".into()], "q6", 1.0));
    }

    #[test]
    fn fractional_effective_contexts_supported() {
        // A saturated machine hands a group a fractional fair share;
        // sub-1 values are clamped to the uniprocessor case.
        let p = model_policy();
        let group: Vec<String> = vec!["q6".into(); 8];
        assert!(p.admit(&group, "q6", 0.5));
        assert!(p.admit(&group, "q6", 1.3));
    }

    fn overlap(name: &str, coverage: f64) -> OverlapInfo<'_> {
        OverlapInfo { name, coverage }
    }

    #[test]
    fn neutral_group_is_shared() {
        // A group of one is neutral (Z = 1): ties share.
        let policy = model_policy();
        for name in ["q6", "q4"] {
            for contexts in [1.0, 4.0, 32.0] {
                let decided = policy
                    .decide(&[], overlap(name, 1.0), contexts)
                    .expect("profiled member");
                assert!((decided.speedup.z - 1.0).abs() < 1e-12);
                assert!(decided.share, "{name} n={contexts}");
                assert!(policy.admit_overlap(&[], overlap(name, 1.0), contexts));
            }
        }
    }

    #[test]
    fn decision_carries_the_numbers_behind_the_verdict() {
        let p = model_policy();
        let group: Vec<OverlapInfo<'_>> = (0..8).map(|_| overlap("q6", 1.0)).collect();
        let d = p.decide(&group, overlap("q6", 1.0), 32.0).unwrap();
        assert!(!d.share && d.speedup.z < 1.0);
        assert_eq!(d.speedup.z, d.speedup.x_shared / d.speedup.x_unshared);
        assert_eq!(d.n, 32.0);
        assert_eq!(d.share, p.admit_overlap(&group, overlap("q6", 1.0), 32.0));
        assert!(Policy::AlwaysShare
            .decide(&group, overlap("q6", 1.0), 32.0)
            .is_none());
    }

    #[test]
    fn full_coverage_overlap_matches_plain_admit() {
        let p = model_policy();
        let group: Vec<String> = vec!["q6".into(); 8];
        let ogroup: Vec<OverlapInfo<'_>> = group.iter().map(|n| overlap(n, 1.0)).collect();
        for n_eff in [1.0, 4.0, 32.0] {
            assert_eq!(
                p.admit(&group, "q6", n_eff),
                p.admit_overlap(&ogroup, overlap("q6", 1.0), n_eff),
                "n_eff={n_eff}"
            );
        }
    }

    #[test]
    fn static_policies_ignore_coverage() {
        assert!(Policy::AlwaysShare.admit_overlap(&[overlap("q6", 0.3)], overlap("q6", 0.2), 1.0));
        assert!(!Policy::NeverShare.admit_overlap(&[overlap("q6", 1.0)], overlap("q6", 1.0), 1.0));
    }

    #[test]
    fn thin_coverage_blocks_scan_heavy_sharing() {
        // Scan-heavy sharing wins at n=1 with full coverage, but a group
        // of consumers who each need a sliver of the wide output gains
        // little from eliminating redundant scans (their private scans
        // would emit little) while still paying wide delivery+residual.
        let p = model_policy();
        let wide: Vec<OverlapInfo<'_>> = (0..8).map(|_| overlap("q6", 1.0)).collect();
        assert!(p.admit_overlap(&wide, overlap("q6", 1.0), 1.0));
        let thin: Vec<OverlapInfo<'_>> = (0..8).map(|_| overlap("q6", 0.02)).collect();
        assert!(!p.admit_overlap(&thin, overlap("q6", 0.02), 1.0));
    }

    #[test]
    fn moderate_coverage_still_shares_when_saturated() {
        // 70% overlap on a saturated uniprocessor: redundant-work
        // elimination still dominates the residual tax.
        let p = model_policy();
        let group: Vec<OverlapInfo<'_>> = (0..8).map(|_| overlap("q6", 0.7)).collect();
        assert!(p.admit_overlap(&group, overlap("q6", 0.7), 1.0));
        // The same group on a big machine should not share — the
        // pipeline argument is unchanged by coverage.
        assert!(!p.admit_overlap(&group, overlap("q6", 0.7), 32.0));
    }

    #[test]
    fn unprofiled_partial_members_never_shared() {
        let p = model_policy();
        assert!(!p.admit_overlap(&[overlap("q6", 0.5)], overlap("mystery", 0.5), 1.0));
    }
}
