//! Subsumption-sharing scenarios of `BENCH_ops.json`: measured
//! `Z(m, n)` of sharing a *wide* selection fragment among distinct but
//! nested query windows (no two queries byte-identical — the historic
//! equality matcher would share nothing here), plus the fragment-cache
//! replay path and a fig6-style policy win/loss comparison.
//!
//! Everything in this module is simulator virtual time: deterministic
//! for a fixed seed and host-independent, so committed numbers can be
//! gated tightly.

use crate::engine_cfg;
use cordoba_core::sharing::Speedup;
use cordoba_engine::policy::sharing_group;
use cordoba_engine::profiling::profile_query;
use cordoba_engine::{
    run_once, run_open_loop_collecting, EngineConfig, Policy, QueryModelInfo, QuerySpec,
};
use cordoba_exec::subsume::coverage_estimate;
use cordoba_storage::Catalog;
use cordoba_workload::{family_specs, CostProfile, FamilyConfig};
use std::collections::HashMap;

fn cached_cfg(contexts: usize, policy: Policy, cache: usize) -> EngineConfig {
    EngineConfig {
        fragment_cache: cache,
        ..engine_cfg(contexts, policy)
    }
}

/// Profiles `spec` the way the model-guided policy consumes it.
fn profiled(catalog: &Catalog, spec: &QuerySpec) -> QueryModelInfo {
    profile_query(catalog, spec, &engine_cfg(1, Policy::NeverShare))
        .unwrap_or_else(|e| panic!("profiling {} failed: {e}", spec.name))
        .0
}

/// One measured subsumption scenario.
#[derive(Debug, Clone)]
pub(crate) struct SubsumePoint {
    /// Queries in the workload.
    pub queries: usize,
    /// Simulated hardware contexts.
    pub contexts: usize,
    /// Virtual time (or response) of the unshared baseline.
    pub unshared_vt: f64,
    /// Virtual time (or response) of the shared/subsumed run.
    pub shared_vt: f64,
    /// The partial-overlap model's prediction for the scenario's group
    /// (`None` when the scenario has no single-group prediction).
    pub predicted: Option<Speedup>,
    /// Fragment-cache hits observed in the shared run.
    pub hits: u64,
    /// Fragment-cache misses observed in the shared run.
    pub misses: u64,
    /// Fragment-cache evictions observed in the shared run.
    pub evictions: u64,
    /// Members admitted via subsumption (pivot differed from group's).
    pub subsume_joins: u64,
}

impl SubsumePoint {
    /// Measured speedup `Z = unshared / shared` (virtual time ratio).
    pub(crate) fn measured_z(&self) -> f64 {
        self.unshared_vt / self.shared_vt
    }

    /// The predicted `Z` (NaN when the scenario carries no prediction).
    pub(crate) fn predicted_z(&self) -> f64 {
        self.predicted.map_or(f64::NAN, |s| s.z)
    }

    /// Whether the advisor's verdict ([`Speedup::favors_sharing`], ties
    /// share) matches the measured win/loss (`None` when the scenario
    /// carries no prediction).
    pub(crate) fn advisor_agrees(&self) -> Option<bool> {
        self.predicted
            .map(|s| s.favors_sharing(0.0) == (self.measured_z() >= 1.0))
    }
}

/// Predicts the speedup of one family chain sharing its widest (first)
/// member's fragment: per-member profiled models and coverage
/// estimates — what the dispatcher hands `Policy::admit_overlap` —
/// through the policy's own pricing ([`sharing_group`]).
/// `effective_contexts` is the group's fair share of the machine.
fn predicted_chain(catalog: &Catalog, chain: &[&QuerySpec], effective_contexts: f64) -> Speedup {
    let wide_pivot = chain[0].pivot.as_ref().expect("family specs have pivots");
    let models: Vec<QueryModelInfo> = chain.iter().map(|spec| profiled(catalog, spec)).collect();
    let members: Vec<_> = chain
        .iter()
        .zip(&models)
        .map(|(spec, model)| {
            let narrow = spec.pivot.as_ref().expect("family specs have pivots");
            (model, coverage_estimate(wide_pivot, narrow))
        })
        .collect();
    sharing_group(&members)
        .and_then(|group| group.evaluate(effective_contexts.max(1.0)))
        .expect("profiled parameters are valid")
}

/// Runs a family workload shared (always-share, cache on) and unshared
/// (never-share), asserting result equality, and returns the measured
/// point with the advisor's prediction for one family's group.
pub(crate) fn group_scenario(
    catalog: &Catalog,
    name: &str,
    family_cfg: &FamilyConfig,
    contexts: usize,
) -> SubsumePoint {
    let specs = family_specs(&CostProfile::paper(), family_cfg);
    for (i, a) in specs.iter().enumerate() {
        for b in &specs[i + 1..] {
            assert_ne!(a, b, "family workload contains byte-identical queries");
        }
    }
    let shared = run_once(
        catalog,
        &specs,
        &cached_cfg(contexts, Policy::AlwaysShare, 8),
    );
    let unshared = run_once(
        catalog,
        &specs,
        &cached_cfg(contexts, Policy::NeverShare, 0),
    );
    assert!(shared.failures.is_empty(), "{:?}", shared.failures);
    assert!(unshared.failures.is_empty(), "{:?}", unshared.failures);
    assert_eq!(
        shared.results, unshared.results,
        "{name}: shared results diverged from unshared"
    );
    assert!(
        shared.group_sizes.iter().any(|&g| g > 1),
        "{name}: no group formed over the nested family: {:?}",
        shared.group_sizes
    );
    // The advisor prediction prices one family chain (members j share
    // the widest window j=0) with the group's fair share of contexts.
    let chain: Vec<&QuerySpec> = (0..family_cfg.per_family)
        .map(|j| &specs[j * family_cfg.families])
        .collect();
    let n_eff = contexts as f64 * family_cfg.per_family as f64 / specs.len() as f64;
    SubsumePoint {
        queries: specs.len(),
        contexts,
        unshared_vt: unshared.makespan as f64,
        shared_vt: shared.makespan as f64,
        predicted: Some(predicted_chain(catalog, &chain, n_eff)),
        hits: shared.sharing.fingerprint_hits,
        misses: shared.sharing.fingerprint_misses,
        evictions: shared.sharing.fingerprint_evictions,
        subsume_joins: shared.sharing.subsume_joins,
    }
}

/// Open-loop two-wave scenario: the widest family member completes,
/// then the narrower members arrive and are served from the fragment
/// cache. Baseline = the cold wide query's response; shared = the mean
/// replayed response. Asserts the cache actually hit.
pub(crate) fn cache_replay_scenario(catalog: &Catalog) -> SubsumePoint {
    let specs = family_specs(
        &CostProfile::paper(),
        &FamilyConfig {
            seed: 42,
            families: 1,
            per_family: 3,
        },
    );
    let schedule = vec![
        (0, specs[0].clone()),
        (40_000_000, specs[1].clone()),
        (40_000_000, specs[2].clone()),
    ];
    let cfg = cached_cfg(1, Policy::AlwaysShare, 8);
    let (report, _results) = run_open_loop_collecting(catalog, schedule, &cfg, u64::MAX / 4);
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    assert_eq!(report.completed, 3, "{report:?}");
    assert!(
        report.sharing.fingerprint_hits >= 1,
        "late nested arrivals must hit the cache: {:?}",
        report.sharing
    );
    let cold = report.response_times[0] as f64;
    let warm = report.response_times[1..]
        .iter()
        .map(|&t| t as f64)
        .sum::<f64>()
        / (report.response_times.len() - 1) as f64;
    SubsumePoint {
        queries: specs.len(),
        contexts: 1,
        unshared_vt: cold,
        shared_vt: warm,
        predicted: None,
        hits: report.sharing.fingerprint_hits,
        misses: report.sharing.fingerprint_misses,
        evictions: report.sharing.fingerprint_evictions,
        subsume_joins: report.sharing.subsume_joins,
    }
}

/// One fig6-style policy point on the family workload: batch makespan
/// (all queries arrive at once) under never / always / model-guided
/// sharing. Coincident arrivals are the regime where the admission
/// decision actually bites — in a staggered closed loop nothing ever
/// batches and every policy degenerates to never-share.
#[derive(Debug, Clone)]
pub(crate) struct PolicyPoint {
    /// Contexts the machine has.
    pub contexts: usize,
    /// Never-share makespan (virtual time).
    pub never: f64,
    /// Always-share makespan (virtual time).
    pub always: f64,
    /// Model-guided makespan (virtual time).
    pub model: f64,
    /// Group sizes the model-guided policy formed.
    pub model_groups: Vec<usize>,
}

impl PolicyPoint {
    /// Always-share speedup over never-share (`< 1` is the loss regime).
    pub(crate) fn always_z(&self) -> f64 {
        self.never / self.always
    }

    /// Model-guided speedup over never-share.
    pub(crate) fn model_z(&self) -> f64 {
        self.never / self.model
    }
}

/// A cost profile whose selection fragment pays a *large per-consumer
/// delivery* (`s`) relative to the shareable work — e.g. a fragment
/// materializing wide derived tuples to every consumer. This is the
/// paper's loss regime: at high parallelism the serialized delivery at
/// the shared pivot outweighs the saved common work, always-share falls
/// behind never-share, and the advisor must decline (or downsize) the
/// group.
pub(crate) fn delivery_heavy_costs() -> CostProfile {
    CostProfile {
        filter: cordoba_exec::OpCost::new(0.8, 100.0),
        ..CostProfile::paper()
    }
}

/// Measures the three policies on the family workload (the win/loss
/// regimes of Figure 6, on subsumption-shared fragments instead of
/// identical plans). Model-guided uses per-shape profiled models keyed
/// by query name, exactly as the dispatcher consumes them. The fragment
/// cache is disabled so the measurement isolates the admission
/// decision; all three runs are asserted result-identical.
pub(crate) fn policy_scenario(
    catalog: &Catalog,
    costs: &CostProfile,
    family_cfg: &FamilyConfig,
    contexts: usize,
) -> PolicyPoint {
    let specs = family_specs(costs, family_cfg);
    let mut models: HashMap<String, QueryModelInfo> = HashMap::new();
    for spec in &specs {
        if !models.contains_key(&spec.name) {
            models.insert(spec.name.clone(), profiled(catalog, spec));
        }
    }
    let run = |policy: Policy| run_once(catalog, &specs, &cached_cfg(contexts, policy, 0));
    let never = run(Policy::NeverShare);
    let always = run(Policy::AlwaysShare);
    let model = run(Policy::model_guided(models));
    for r in [&never, &always, &model] {
        assert!(r.failures.is_empty(), "{:?}", r.failures);
    }
    assert_eq!(never.results, always.results, "always-share diverged");
    assert_eq!(never.results, model.results, "model-guided diverged");
    PolicyPoint {
        contexts,
        never: never.makespan as f64,
        always: always.makespan as f64,
        model: model.makespan as f64,
        model_groups: model.group_sizes.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cordoba_engine::OverlapInfo;

    fn predicted_chain_z(catalog: &Catalog, chain: &[&QuerySpec], n_eff: f64) -> f64 {
        predicted_chain(catalog, chain, n_eff).z
    }

    /// The "predicted" value a subsume scenario reports is the number
    /// the model-guided policy itself computes when the chain's last
    /// member arrives at a group holding the others: same wide member,
    /// same residual constant, bit for bit. (Family members are named
    /// per shape; the policy keys its models by name, so the chain is
    /// renamed per member to hand it the bench's per-member models.)
    #[test]
    fn predicted_z_is_the_policys_own_number() {
        let catalog = crate::gates::family_catalog();
        let heavy = delivery_heavy_costs();
        let paper = CostProfile::paper();
        // (costs, family seed, families, contexts) of every
        // `subsume_group*` / `subsume_policy*` scenario of `BENCH_ops.json`.
        for (costs, seed, families, contexts) in [
            (&paper, 11, 1, vec![1]),
            (&paper, 13, 2, vec![4]),
            (&paper, 17, 2, vec![2, 8]),
            (&heavy, 17, 2, vec![2, 8]),
        ] {
            let cfg = FamilyConfig {
                seed,
                families,
                per_family: 4,
            };
            let specs = family_specs(costs, &cfg);
            let chain: Vec<QuerySpec> = (0..cfg.per_family)
                .map(|j| QuerySpec {
                    name: format!("member{j}"),
                    ..specs[j * families].clone()
                })
                .collect();
            let chain: Vec<&QuerySpec> = chain.iter().collect();
            let models: HashMap<String, QueryModelInfo> = chain
                .iter()
                .map(|spec| (spec.name.clone(), profiled(&catalog, spec)))
                .collect();
            let policy = Policy::model_guided(models);
            let wide = chain[0].pivot.as_ref().unwrap();
            let infos: Vec<OverlapInfo<'_>> = chain
                .iter()
                .map(|spec| OverlapInfo {
                    name: &spec.name,
                    coverage: coverage_estimate(wide, spec.pivot.as_ref().unwrap()),
                })
                .collect();
            let (candidate, group) = infos.split_last().unwrap();
            for n in contexts {
                let n_eff = n as f64 * cfg.per_family as f64 / specs.len() as f64;
                let decided = policy.decide(group, *candidate, n_eff).unwrap();
                let predicted = predicted_chain_z(&catalog, &chain, n_eff);
                assert_eq!(
                    predicted.to_bits(),
                    decided.speedup.z.to_bits(),
                    "seed {seed} n={n}: bench {predicted} vs policy {}",
                    decided.speedup.z
                );
            }
        }
    }
}
