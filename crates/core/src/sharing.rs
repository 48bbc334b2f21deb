//! Shared vs. unshared group execution: `x_shared`, `x_unshared`,
//! and the sharing benefit `Z(m, n)` (paper Sections 4.2–4.3, 5.1).

use crate::error::{ModelError, Result};
use crate::plan::{NodeId, PlanSpec};

/// Queueing regime for the unshared baseline (paper Section 5.1).
///
/// The distinction only matters when group members have mismatched peak
/// rates; for identical queries both regimes coincide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SystemKind {
    /// Closed system: every completed query is immediately replaced, so
    /// faster queries raise group throughput. `r_unshared` is the
    /// harmonic mean of peak rates and each query is throttled only by
    /// its own `p_max`. This is the regime the paper targets (data
    /// warehousing under heavy load).
    #[default]
    Closed,
    /// Open system: arrivals are independent of response time; unshared
    /// queries are modeled as if throttled to the rate of the slowest
    /// group member ("the equations all remain unchanged").
    Open,
}

/// The model's one contention term: `k` morsel workers deliver an
/// effective `k^κ`-fold speedup of parallelizable operator work — the
/// paper's Section 4.1.4 `n^κ` effective processors, applied *within* a
/// query — with `κ` fitted by [`crate::estimate::estimate_k`] from
/// measured throughput at several worker counts.
///
/// The pivot's per-member output multiplexing `Σ s_mφ` stays serial —
/// in the morsel engine every parallel group funnels through one merge
/// task, exactly the serialization point the paper analyzes — so
/// worker scaling divides `w` terms but never `s` terms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerScaling {
    /// Morsel workers per query (`k ≥ 1`).
    workers: u32,
    /// Scaling exponent `κ` (`0 < κ ≤ 1`): measured intra-query
    /// speedup is `k^κ`. `κ = 1` is ideal linear scaling; a host whose
    /// throughput is flat in `k` fits `κ → 0`.
    kappa: f64,
}

impl WorkerScaling {
    /// Scaling with a measured exponent. Errs unless `workers ≥ 1` and
    /// `0 < κ ≤ 1`.
    pub fn new(workers: u32, kappa: f64) -> Result<Self> {
        if workers == 0 {
            return Err(ModelError::InvalidProcessors(0.0));
        }
        if !(kappa > 0.0 && kappa <= 1.0) {
            return Err(ModelError::InvalidCost {
                what: "worker scaling exponent κ".into(),
                value: kappa,
            });
        }
        Ok(Self { workers, kappa })
    }

    /// Ideal linear scaling (`κ = 1`).
    pub fn ideal(workers: u32) -> Result<Self> {
        Self::new(workers, 1.0)
    }

    /// The serial single-worker baseline (`e = 1` exactly).
    pub fn serial() -> Self {
        Self {
            workers: 1,
            kappa: 1.0,
        }
    }

    /// Effective speedup of parallelizable work: `e(k) = k^κ`
    /// (`1` exactly for one worker, without the `powf`: the serial
    /// model is the one admission evaluates per arrival).
    fn effective(&self) -> f64 {
        if self.workers == 1 {
            1.0
        } else {
            (self.workers as f64).powf(self.kappa)
        }
    }
}

/// One member query of a (potential) sharing group, reduced to the three
/// quantities the group equations need.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupMember {
    /// `s_mφ`: cost for the pivot to emit one unit of forward progress to
    /// this member.
    pub pivot_output_cost: f64,
    /// `p_k` for every operator of this query above the pivot.
    pub above: Vec<f64>,
    /// `c_m ∈ (0, 1]`: fraction of the shared pivot's output this member
    /// actually needs. Subsumption sharing runs a *wide* pivot; a member
    /// whose own pivot is narrower would, unshared, only pay
    /// `w + c_m · s_mφ` at its private pivot. `1` (exact overlap)
    /// reproduces the paper's equations unchanged.
    pub coverage: f64,
    /// `r_m`: per-unit-progress cost of the residual filter this member
    /// runs over the shared pivot's output to restore its own pivot's
    /// semantics. `0` under exact overlap. Charged to the member's
    /// private fragment on the *shared* side only.
    pub residual_cost: f64,
}

impl GroupMember {
    /// An exact-overlap member (`c = 1`, no residual) — the paper's
    /// original setting.
    pub fn new(pivot_output_cost: f64, above: Vec<f64>) -> Self {
        Self {
            pivot_output_cost,
            above,
            coverage: 1.0,
            residual_cost: 0.0,
        }
    }

    /// Marks this member as a partial-overlap consumer: it needs only a
    /// `coverage` fraction of the shared pivot's output and pays
    /// `residual_cost` per unit progress to filter it.
    #[must_use]
    pub fn with_partial_overlap(mut self, coverage: f64, residual_cost: f64) -> Self {
        self.coverage = coverage;
        self.residual_cost = residual_cost;
        self
    }
}

/// Evaluates the work-sharing trade-off for a group of queries that share
/// an identical sub-plan rooted at a pivot operator φ.
///
/// Three things change under sharing (paper Section 4.3):
/// 1. all replicated work below the pivot is eliminated (one instance),
/// 2. the pivot must multiplex output to all `M` consumers:
///    `p_φ(M) = w_φ + Σ_m s_mφ`,
/// 3. the slowest operator in the group throttles every query.
///
/// With `k` morsel workers per query ([`Self::with_workers`]),
/// parallelizable operator work runs `e(k) = k^κ` times faster, so every
/// `w`-derived `p` term is divided by `e`. The pivot's `Σ s_mφ` output
/// multiplexing is NOT divided: in the morsel engine every parallel
/// group funnels through a single merge task, so delivering to `M`
/// consumers stays serial. Total work `u'` is conserved — parallelism
/// moves work onto more processors, it does not remove any. The default
/// [`WorkerScaling::serial`] has `e = 1` exactly and is the paper's
/// model unchanged.
#[derive(Debug, Clone, PartialEq)]
pub struct SharingEvaluator {
    /// `p_k` for operators strictly below the pivot (single shared instance).
    below: Vec<f64>,
    /// `w_φ`: the pivot's input-side work per unit of forward progress.
    pivot_work: f64,
    /// The member queries.
    members: Vec<GroupMember>,
    /// Queueing regime for the unshared baseline.
    system: SystemKind,
    /// Morsel workers every query of the group runs.
    scaling: WorkerScaling,
}

/// Full result of one sharing evaluation at a given processor count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Speedup {
    /// `Z(m, n) = x_shared / x_unshared`; sharing is a net win iff > 1.
    pub z: f64,
    /// Group rate of forward progress with sharing.
    pub x_shared: f64,
    /// Group rate of forward progress without sharing.
    pub x_unshared: f64,
    /// Peak processor utilization of the shared plan (`u_shared`).
    pub shared_utilization: f64,
    /// Peak processor utilization of the unshared group (`u_unshared`).
    pub unshared_utilization: f64,
}

impl Speedup {
    /// The share / don't-share verdict: `Z ≥ 1 + hysteresis`, up to
    /// rounding. Ties (`Z = 1`) share: sharing that predicts neither
    /// gain nor loss still removes redundant work from the system,
    /// freeing capacity for *other* queries the single-group model
    /// cannot see.
    pub fn favors_sharing(&self, hysteresis: f64) -> bool {
        self.z >= 1.0 + hysteresis - 1e-9
    }
}

impl SharingEvaluator {
    /// Builds an evaluator for `m` *identical* queries sharing at `pivot`
    /// — the common case (all experiments in the paper's Sections 3 and 7
    /// use identical queries per group).
    pub fn homogeneous(plan: &PlanSpec, pivot: NodeId, m: usize) -> Result<Self> {
        Self::heterogeneous(&vec![(plan, pivot); m])
    }

    /// Builds an evaluator for possibly different queries that share a
    /// structurally identical sub-plan. Each entry is `(plan, pivot)`;
    /// all pivoted subtrees must be equivalent
    /// (see [`PlanSpec::subtree_equivalent`]).
    fn heterogeneous(queries: &[(&PlanSpec, NodeId)]) -> Result<Self> {
        let (first_plan, first_pivot) = *queries.first().ok_or(ModelError::EmptyGroup)?;
        first_plan.check_node(first_pivot)?;
        for &(plan, pivot) in &queries[1..] {
            plan.check_node(pivot)?;
            if !first_plan.subtree_equivalent(first_pivot, plan, pivot) {
                return Err(ModelError::IncompatiblePivot(format!(
                    "sub-plan rooted at node {} of query '{}' differs from the group's",
                    pivot.index(),
                    plan.op(plan.root()).name,
                )));
            }
        }
        let below = first_plan
            .below(first_pivot)?
            .into_iter()
            .map(|id| first_plan.op(id).p())
            .collect();
        let pivot_work = first_plan.op(first_pivot).w();
        let members = queries
            .iter()
            .map(|&(plan, pivot)| {
                Ok(GroupMember::new(
                    plan.op(pivot).s_per_consumer(),
                    plan.above(pivot)?
                        .into_iter()
                        .map(|id| plan.op(id).p())
                        .collect(),
                ))
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Self::unchecked(below, pivot_work, members))
    }

    /// Builds an evaluator directly from raw parameters, bypassing plan
    /// construction (useful for parameter sweeps and the sensitivity
    /// analysis of paper Section 6).
    pub fn from_parts(below: Vec<f64>, pivot_work: f64, members: Vec<GroupMember>) -> Result<Self> {
        if members.is_empty() {
            return Err(ModelError::EmptyGroup);
        }
        crate::error::check_cost("pivot w", pivot_work)?;
        for (i, p) in below.iter().enumerate() {
            crate::error::check_cost(format_args!("below[{i}].p"), *p)?;
        }
        for (i, mbr) in members.iter().enumerate() {
            crate::error::check_cost(format_args!("member[{i}].s"), mbr.pivot_output_cost)?;
            for (k, p) in mbr.above.iter().enumerate() {
                crate::error::check_cost(format_args!("member[{i}].above[{k}]"), *p)?;
            }
            crate::error::check_cost(format_args!("member[{i}].residual"), mbr.residual_cost)?;
            if !(mbr.coverage > 0.0 && mbr.coverage <= 1.0) {
                return Err(ModelError::InvalidCost {
                    what: format!("member[{i}].coverage (must be in (0, 1])"),
                    value: mbr.coverage,
                });
            }
        }
        Ok(Self::unchecked(below, pivot_work, members))
    }

    fn unchecked(below: Vec<f64>, pivot_work: f64, members: Vec<GroupMember>) -> Self {
        Self {
            below,
            pivot_work,
            members,
            system: SystemKind::Closed,
            scaling: WorkerScaling::serial(),
        }
    }

    /// Selects the queueing regime used for the unshared baseline.
    #[must_use]
    pub fn with_system(mut self, system: SystemKind) -> Self {
        self.system = system;
        self
    }

    /// Selects the morsel workers every query of the group runs
    /// (default: [`WorkerScaling::serial`]).
    ///
    /// On a machine large enough that neither side is work-saturated
    /// (`n ≥ u'`), `Z` is non-increasing in `k`: both sides become
    /// pipeline-bound, and only the unshared side's pivot scales with
    /// workers (its `s` serves one consumer), so real intra-query
    /// parallelism erodes the case for sharing — the paper's
    /// aggressive-scheduling argument, with `e(k)` measured rather than
    /// assumed. On a *saturated* machine (`n < u'`) the opposite can
    /// happen: throughput is work-bound on both sides, but parallelizing
    /// `w_φ` relieves the shared pivot's pipeline bottleneck, so modest
    /// `k` can raise `Z` until the shared side is work-bound too.
    #[must_use]
    pub fn with_workers(mut self, scaling: WorkerScaling) -> Self {
        self.scaling = scaling;
        self
    }

    /// Number of queries in the group (`m`).
    fn m(&self) -> usize {
        self.members.len()
    }

    /// `max_k p_k / e(k)` over operator costs that scale with workers.
    fn scaled_max(&self, costs: impl Iterator<Item = f64>) -> f64 {
        costs.fold(0.0_f64, f64::max) / self.scaling.effective()
    }

    /// `Σ_m s_mφ`: the pivot's serial output multiplexing.
    fn multiplex_cost(&self) -> f64 {
        self.members.iter().map(|m| m.pivot_output_cost).sum()
    }

    /// `p_φ(M, k) = w_φ/e(k) + Σ_m s_mφ`: the pivot's per-unit-progress
    /// work when serving every member (paper Section 4.3).
    pub fn pivot_p(&self) -> f64 {
        self.pivot_work / self.scaling.effective() + self.multiplex_cost()
    }

    /// `p_max` of the shared plan: the slowest of {operators below φ,
    /// the multiplexing pivot, all members' operators above φ and their
    /// residual filters}. As `k → ∞` this floors at the serial
    /// multiplexing cost `Σ_m s_mφ` — the pivot bottleneck intra-query
    /// parallelism cannot dissolve.
    fn shared_p_max(&self) -> f64 {
        let below = self.scaled_max(self.below.iter().copied());
        let above = self.scaled_max(
            self.members
                .iter()
                .flat_map(|m| m.above.iter().copied().chain([m.residual_cost])),
        );
        below.max(self.pivot_p()).max(above)
    }

    /// `u'_shared = Σ_{k below φ} p_k + p_φ(M) + Σ_m (r_m + Σ_{k above φ} p_k)`
    /// — under partial overlap each member's residual filter is real
    /// per-unit work the shared plan pays and the unshared one doesn't.
    pub fn shared_total_work(&self) -> f64 {
        let below: f64 = self.below.iter().sum();
        let above: f64 = self
            .members
            .iter()
            .map(|m| m.residual_cost + m.above.iter().sum::<f64>())
            .sum();
        below + (self.pivot_work + self.multiplex_cost()) + above
    }

    /// Peak processor utilization under sharing,
    /// `u_shared = u'_shared / p_max_shared`. The paper's key observation
    /// (Section 6.3): this is *bounded* no matter how many sharers join,
    /// which caps the benefit of sharing on large machines.
    fn shared_utilization(&self) -> f64 {
        self.shared_total_work() / self.shared_p_max()
    }

    /// Per-member unshared `p_max` (each member runs its private copy of
    /// the sub-plan; its pivot serves exactly one consumer and emits only
    /// the member's own `c_m` fraction of the wide pivot's output).
    fn member_p_max(&self, member: &GroupMember) -> f64 {
        let below = self.scaled_max(self.below.iter().copied());
        let pivot =
            self.pivot_work / self.scaling.effective() + member.coverage * member.pivot_output_cost;
        let above = self.scaled_max(member.above.iter().copied());
        below.max(pivot).max(above)
    }

    /// Per-member unshared `u'` (total work of one private query; its
    /// private pivot emits `c_m` of the wide output, and no residual).
    fn member_total_work(&self, member: &GroupMember) -> f64 {
        let below: f64 = self.below.iter().sum();
        below
            + self.pivot_work
            + member.coverage * member.pivot_output_cost
            + member.above.iter().sum::<f64>()
    }

    /// `(r_unshared, u_unshared)`: the unshared group's peak rate and
    /// peak utilization — the one place the Section 5.1 regimes differ
    /// (see [`Self::unshared_rate`]).
    fn unshared_peak(&self) -> (f64, f64) {
        let m = self.m() as f64;
        let members = || {
            self.members
                .iter()
                .map(|mb| (self.member_total_work(mb), self.member_p_max(mb)))
        };
        match self.system {
            SystemKind::Closed => {
                let sum_pmax: f64 = members().map(|(_, p_max)| p_max).sum();
                let utilization = members().map(|(work, p_max)| work / p_max).sum();
                (m * (m / sum_pmax), utilization)
            }
            SystemKind::Open => {
                let p_max = members().map(|(_, p)| p).fold(0.0_f64, f64::max);
                let work: f64 = members().map(|(work, _)| work).sum();
                (m / p_max, work / p_max)
            }
        }
    }

    /// Group rate without sharing,
    /// `x_unshared(M, n) = r_unshared · min(1, n / u_unshared)`.
    ///
    /// * Closed system (Section 5.1): `r = M · M / Σ_m p_max_m` (`M`
    ///   times the harmonic mean of member peak rates) and each member
    ///   is throttled only by its own `p_max`, `u = Σ_m u'_m / p_max_m`.
    /// * Open system: every member is throttled to the slowest,
    ///   `r = M / max_m p_max_m`, `u = Σ_m u'_m / max_m p_max_m`.
    ///
    /// For identical members both reduce to paper Section 4.2's
    /// `M · min(1/p_max, n / Σ_m u'_m)`.
    pub fn unshared_rate(&self, n: f64) -> Result<f64> {
        check_n(n)?;
        Ok(throttled(self.unshared_peak(), n))
    }

    /// Peak processor utilization of the unshared group,
    /// `u_unshared = Σ_m u'_m / p_max_m` (closed) — grows without bound
    /// as members are added, unlike `u_shared`.
    pub fn unshared_utilization(&self) -> f64 {
        self.unshared_peak().1
    }

    /// Group rate with sharing,
    /// `x_shared(M, n) = M · min(1/p_max_shared, n/u'_shared)`
    /// (paper Section 4.3 / worked example 4.4).
    pub fn shared_rate(&self, n: f64) -> Result<f64> {
        check_n(n)?;
        let m = self.m() as f64;
        Ok(m * (1.0 / self.shared_p_max()).min(n / self.shared_total_work()))
    }

    /// `Z(m, n) = x_shared / x_unshared`: sharing is a net win iff
    /// `Z > 1` (paper Section 4).
    pub fn speedup(&self, n: f64) -> f64 {
        self.evaluate(n).map(|s| s.z).unwrap_or(f64::NAN)
    }

    /// Computes the full set of group quantities at `n` processors.
    pub fn evaluate(&self, n: f64) -> Result<Speedup> {
        let x_shared = self.shared_rate(n)?;
        let unshared = self.unshared_peak();
        let x_unshared = throttled(unshared, n);
        Ok(Speedup {
            z: x_shared / x_unshared,
            x_shared,
            x_unshared,
            shared_utilization: self.shared_utilization(),
            unshared_utilization: unshared.1,
        })
    }
}

/// `x(n) = r · min(1, n / u)`: the rate of a group with peak rate `r`
/// and peak utilization `u` on `n` processors.
fn throttled((peak_rate, utilization): (f64, f64), n: f64) -> f64 {
    peak_rate * (n / utilization).min(1.0)
}

fn check_n(n: f64) -> Result<()> {
    if n.partial_cmp(&0.0) == Some(std::cmp::Ordering::Greater) && n.is_finite() {
        Ok(())
    } else {
        Err(ModelError::InvalidProcessors(n))
    }
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

    fn synthetic() -> (PlanSpec, NodeId) {
        let mut b = PlanSpec::new();
        let bottom = b.add_leaf(OperatorSpec::new("bottom", vec![10.0], vec![]));
        let pivot = b.add_node(
            OperatorSpec::new("pivot", vec![6.0], vec![1.0]),
            vec![bottom],
        );
        let top = b.add_node(OperatorSpec::new("top", vec![10.0], vec![]), vec![pivot]);
        (b.finish(top).unwrap(), pivot)
    }

    #[test]
    fn q6_shared_equations_match_paper_section_4_4() {
        let (plan, scan) = q6();
        for m in [1usize, 2, 8, 16, 48] {
            let ev = SharingEvaluator::homogeneous(&plan, scan, m).unwrap();
            // p_phi(M) = 9.66 + 10.34 M
            assert!((ev.pivot_p() - (9.66 + 10.34 * m as f64)).abs() < 1e-9);
            // u'_shared = 9.66 + 11.31 M  (10.34 s + 0.97 agg per member)
            assert!((ev.shared_total_work() - (9.66 + 11.31 * m as f64)).abs() < 1e-9);
        }
    }

    #[test]
    fn q6_unshared_equations_match_paper_section_4_4() {
        let (plan, scan) = q6();
        for m in [1usize, 4, 16, 48] {
            let ev = SharingEvaluator::homogeneous(&plan, scan, m).unwrap();
            for n in [1.0, 2.0, 8.0, 32.0] {
                // x_unshared(M, n) = min(M/20, n/20.97)
                let expect = (m as f64 / 20.0).min(n / 20.97);
                assert!(
                    (ev.unshared_rate(n).unwrap() - expect).abs() < 1e-9,
                    "m={m} n={n}"
                );
            }
        }
    }

    #[test]
    fn q6_sharing_only_attractive_on_one_processor() {
        // Paper Section 4.4: "work sharing is only attractive when one
        // processor is available."
        let (plan, scan) = q6();
        for m in [8usize, 16, 32, 48] {
            let ev = SharingEvaluator::homogeneous(&plan, scan, m).unwrap();
            assert!(ev.speedup(1.0) > 1.0, "sharing should win at n=1, m={m}");
            assert!(ev.speedup(8.0) < 1.0, "sharing should lose at n=8, m={m}");
            assert!(ev.speedup(32.0) < 1.0, "sharing should lose at n=32, m={m}");
        }
    }

    #[test]
    fn q6_32cpu_large_loss_matches_intro_figure_1() {
        // Intro: shared execution utilized ~3 of 32 contexts -> ~10x gap.
        let (plan, scan) = q6();
        let ev = SharingEvaluator::homogeneous(&plan, scan, 48).unwrap();
        let s = ev.evaluate(32.0).unwrap();
        assert!(s.z < 0.12, "expected ~10x loss, got Z={}", s.z);
        // Shared utilization is tiny compared to 32 contexts.
        assert!(s.shared_utilization < 3.0);
        assert!(s.unshared_utilization > 32.0);
    }

    #[test]
    fn synthetic_shared_utilization_is_bounded_near_eleven() {
        // Section 6.1: sharing "utilizes only 10 cores even for large
        // numbers of shared queries" (limit of u_shared is 11 here).
        let (plan, pivot) = synthetic();
        let ev = SharingEvaluator::homogeneous(&plan, pivot, 1000).unwrap();
        let u = ev.shared_utilization();
        assert!(u > 10.0 && u < 11.5, "u_shared={u}");
    }

    #[test]
    fn synthetic_three_phase_behaviour_at_16_cpus() {
        // Section 6.1: for some processor counts sharing is "sometimes"
        // worthwhile: loses at moderate load, wins at high load.
        let (plan, pivot) = synthetic();
        let z = |m: usize, n: f64| {
            SharingEvaluator::homogeneous(&plan, pivot, m)
                .unwrap()
                .speedup(n)
        };
        // 4 CPUs: always (paper: "always (4 CPU)").
        assert!(z(8, 4.0) > 1.0 && z(40, 4.0) > 1.0);
        // 32 CPUs: never.
        assert!(z(8, 32.0) < 1.0 && z(40, 32.0) < 1.0);
        // 16 CPUs: sometimes — loses at moderate m, wins at large m.
        assert!(z(8, 16.0) < 1.0, "z(8,16)={}", z(8, 16.0));
        assert!(z(40, 16.0) > 1.0, "z(40,16)={}", z(40, 16.0));
    }

    #[test]
    fn one_processor_sharing_never_hurts_baseline_queries() {
        // On a uniprocessor any saved work helps (Section 3.3).
        let (plan, pivot) = synthetic();
        for m in [2usize, 4, 16, 48] {
            let ev = SharingEvaluator::homogeneous(&plan, pivot, m).unwrap();
            assert!(ev.speedup(1.0) >= 1.0, "m={m}");
        }
    }

    #[test]
    fn single_member_group_is_neutral() {
        // Sharing a "group" of one query neither helps nor hurts
        // (p_phi(1) equals the private pivot cost).
        let (plan, pivot) = synthetic();
        let ev = SharingEvaluator::homogeneous(&plan, pivot, 1).unwrap();
        for n in [1.0, 4.0, 32.0] {
            assert!((ev.speedup(n) - 1.0).abs() < 1e-12, "n={n}");
        }
    }

    #[test]
    fn zero_output_cost_sharing_always_wins_given_enough_load() {
        // With s = 0 sharing imposes no serialization (Section 6.2).
        let mut b = PlanSpec::new();
        let bottom = b.add_leaf(OperatorSpec::new("bottom", vec![10.0], vec![]));
        let pivot = b.add_node(
            OperatorSpec::new("pivot", vec![6.0], vec![0.0]),
            vec![bottom],
        );
        let top = b.add_node(OperatorSpec::new("top", vec![10.0], vec![]), vec![pivot]);
        let plan = b.finish(top).unwrap();
        let ev = SharingEvaluator::homogeneous(&plan, pivot, 30).unwrap();
        assert!(ev.speedup(32.0) > 1.0);
    }

    #[test]
    fn empty_group_rejected() {
        assert!(matches!(
            SharingEvaluator::heterogeneous(&[]),
            Err(ModelError::EmptyGroup)
        ));
        assert!(SharingEvaluator::from_parts(vec![], 1.0, vec![]).is_err());
    }

    #[test]
    fn incompatible_pivots_rejected() {
        let (p1, s1) = q6();
        let (p2, piv2) = synthetic();
        let err = SharingEvaluator::heterogeneous(&[(&p1, s1), (&p2, piv2)]);
        assert!(matches!(err, Err(ModelError::IncompatiblePivot(_))));
    }

    #[test]
    fn heterogeneous_tops_mismatched_rates_closed_system() {
        // Two queries sharing an identical scan, one with a heavy top.
        let mut b1 = PlanSpec::new();
        let sc1 = b1.add_leaf(OperatorSpec::new("scan", vec![4.0], vec![1.0]));
        let t1 = b1.add_node(OperatorSpec::new("light", vec![1.0], vec![]), vec![sc1]);
        let q_light = b1.finish(t1).unwrap();

        let mut b2 = PlanSpec::new();
        let sc2 = b2.add_leaf(OperatorSpec::new("scan", vec![4.0], vec![1.0]));
        let t2 = b2.add_node(OperatorSpec::new("heavy", vec![20.0], vec![]), vec![sc2]);
        let q_heavy = b2.finish(t2).unwrap();

        let ev = SharingEvaluator::heterogeneous(&[(&q_light, sc1), (&q_heavy, sc2)]).unwrap();
        assert_eq!(ev.m(), 2);
        // Closed system: the light query contributes its faster rate.
        let closed = ev.unshared_rate(64.0).unwrap();
        let open = ev
            .clone()
            .with_system(SystemKind::Open)
            .unshared_rate(64.0)
            .unwrap();
        assert!(closed > open, "closed {closed} should beat open {open}");
        // Shared: both throttled by the heavy top (p_max = 20).
        assert!((ev.shared_p_max() - 20.0).abs() < 1e-12);
    }

    // --- the degenerate group: independent queries (Section 5.1) --------

    /// Queries sharing nothing: nothing below the pivot, a zero-cost
    /// pivot, every operator of each pipeline above it — asked only for
    /// its unshared side.
    fn degenerate(pipelines: &[&[f64]]) -> SharingEvaluator {
        let members = pipelines
            .iter()
            .map(|costs| GroupMember::new(0.0, costs.to_vec()))
            .collect();
        SharingEvaluator::from_parts(vec![], 0.0, members).unwrap()
    }

    #[test]
    fn degenerate_group_matches_section_4_2() {
        // M identical queries: x = M * min(1/p_max, n / (M u')).
        let q: &[f64] = &[10.0, 5.0];
        let group = degenerate(&[q, q, q, q]);
        // r = 4 / 10, u = 4 * 1.5
        assert!((group.unshared_peak().0 - 0.4).abs() < 1e-12);
        assert!((group.unshared_utilization() - 6.0).abs() < 1e-12);
        // Saturated region: n = 3 < u = 6 -> x = 0.4 * 3/6 = 0.2.
        assert!((group.unshared_rate(3.0).unwrap() - 0.2).abs() < 1e-12);
        // Unsaturated: n = 12 -> x = 0.4.
        assert!((group.unshared_rate(12.0).unwrap() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn degenerate_group_closed_system_lets_fast_queries_raise_throughput() {
        let closed = degenerate(&[&[2.0], &[20.0]]);
        let open = closed.clone().with_system(SystemKind::Open);
        // Closed: 2 * harmonic-mean(1/2, 1/20) = 2 * 2/22.
        assert!((closed.unshared_peak().0 - 4.0 / 22.0).abs() < 1e-12);
        // Open: both at the slow rate, 2/20.
        assert!((open.unshared_peak().0 - 0.1).abs() < 1e-12);
        assert!(closed.unshared_peak().0 > open.unshared_peak().0);
    }

    #[test]
    fn degenerate_group_regimes_agree_for_identical_members() {
        let q: &[f64] = &[10.0, 10.0, 5.0];
        let closed = degenerate(&[q, q, q]);
        let open = closed.clone().with_system(SystemKind::Open);
        for n in [1.0, 2.0, 8.0, 32.0] {
            let gap = closed.unshared_rate(n).unwrap() - open.unshared_rate(n).unwrap();
            assert!(gap.abs() < 1e-12);
        }
    }

    #[test]
    fn degenerate_group_rejects_empty() {
        assert!(matches!(
            SharingEvaluator::from_parts(vec![], 0.0, vec![]),
            Err(ModelError::EmptyGroup)
        ));
    }

    #[test]
    fn degenerate_group_rejects_invalid_n() {
        let g = degenerate(&[&[1.0]]);
        assert!(g.unshared_rate(0.0).is_err());
        assert!(g.unshared_rate(f64::NAN).is_err());
    }

    #[test]
    fn speedup_rejects_bad_n_via_nan() {
        let (plan, pivot) = synthetic();
        let ev = SharingEvaluator::homogeneous(&plan, pivot, 2).unwrap();
        assert!(ev.speedup(0.0).is_nan());
        assert!(ev.evaluate(-3.0).is_err());
    }

    #[test]
    fn z_non_increasing_in_processor_count() {
        // More processors only ever erode the benefit of sharing: the
        // shared plan saturates at n_s = u'_s / p_max_s, the unshared
        // group at the (never smaller) n_u = u'_u / p_max_u, so Z(m, ·)
        // is flat, then ∝ 1/n, then flat again — never increasing.
        for (plan, pivot) in [q6(), synthetic()] {
            for m in [2usize, 8, 32] {
                let ev = SharingEvaluator::homogeneous(&plan, pivot, m).unwrap();
                let mut prev = f64::INFINITY;
                for n in [
                    1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 64.0, 128.0,
                ] {
                    let z = ev.speedup(n);
                    assert!(
                        z <= prev + 1e-12,
                        "Z must not increase with n: m={m} n={n} z={z} prev={prev}"
                    );
                    prev = z;
                }
            }
        }
    }

    #[test]
    fn z_non_decreasing_in_group_size_on_uniprocessor() {
        // On one processor every additional sharer saves more replicated
        // below-pivot work while the pivot's serialization cannot bite
        // (there is no parallelism to lose), so Z(·, 1) only grows.
        for (plan, pivot) in [q6(), synthetic()] {
            let mut prev = 0.0;
            for m in 1..=32 {
                let z = SharingEvaluator::homogeneous(&plan, pivot, m)
                    .unwrap()
                    .speedup(1.0);
                assert!(
                    z + 1e-12 >= prev,
                    "Z must not drop as sharers join at n=1: m={m} z={z} prev={prev}"
                );
                prev = z;
            }
        }
    }

    #[test]
    fn group_rates_monotone_in_n_and_capped() {
        // Both x_shared(n) and x_unshared(n) are min(rate-cap, n/work)
        // shapes: non-decreasing in n and capped by the group's peak.
        for (plan, pivot) in [q6(), synthetic()] {
            for m in [1usize, 4, 16] {
                let ev = SharingEvaluator::homogeneous(&plan, pivot, m).unwrap();
                let m_f = m as f64;
                let shared_cap = m_f / ev.shared_p_max();
                let mut prev_s = 0.0;
                let mut prev_u = 0.0;
                for n in [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0] {
                    let xs = ev.shared_rate(n).unwrap();
                    let xu = ev.unshared_rate(n).unwrap();
                    assert!(xs + 1e-12 >= prev_s, "x_shared dipped at m={m} n={n}");
                    assert!(xu + 1e-12 >= prev_u, "x_unshared dipped at m={m} n={n}");
                    assert!(
                        xs <= shared_cap + 1e-12,
                        "x_shared above cap at m={m} n={n}"
                    );
                    prev_s = xs;
                    prev_u = xu;
                }
            }
        }
    }

    #[test]
    fn from_parts_matches_plan_construction() {
        let (plan, pivot) = synthetic();
        let from_plan = SharingEvaluator::homogeneous(&plan, pivot, 5).unwrap();
        let from_parts = SharingEvaluator::from_parts(
            vec![10.0],
            6.0,
            vec![GroupMember::new(1.0, vec![10.0]); 5],
        )
        .unwrap();
        for n in [1.0, 8.0, 32.0] {
            assert!((from_plan.speedup(n) - from_parts.speedup(n)).abs() < 1e-12);
        }
    }

    #[test]
    fn worker_scaling_validation() {
        assert!(WorkerScaling::new(0, 1.0).is_err());
        assert!(WorkerScaling::new(4, 0.0).is_err());
        assert!(WorkerScaling::new(4, 1.5).is_err());
        assert!(WorkerScaling::new(4, -0.3).is_err());
        let s = WorkerScaling::new(4, 0.5).unwrap();
        assert!((s.effective() - 2.0).abs() < 1e-12);
        assert!((WorkerScaling::ideal(8).unwrap().effective() - 8.0).abs() < 1e-12);
        assert!((WorkerScaling::serial().effective() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn worker_scaling_erodes_sharing_benefit_on_unsaturated_machines() {
        // With processors to spare, both sides are pipeline-bound.
        // Intra-query parallelism speeds the unshared group's pivots
        // (each serves one consumer) but cannot shrink the shared
        // pivot's Σ s_mφ multiplexing, so Z(m, n, k) is non-increasing
        // in k.
        let n = 1.0e6; // effectively unbounded processors
        for (plan, pivot) in [q6(), synthetic()] {
            for m in [2usize, 8, 32] {
                let ev = SharingEvaluator::homogeneous(&plan, pivot, m).unwrap();
                let mut prev = f64::INFINITY;
                for k in [1u32, 2, 4, 8, 16] {
                    let z = ev
                        .clone()
                        .with_workers(WorkerScaling::ideal(k).unwrap())
                        .speedup(n);
                    assert!(
                        z <= prev + 1e-12,
                        "Z must not increase with workers: m={m} k={k} z={z} prev={prev}"
                    );
                    prev = z;
                }
            }
        }
    }

    #[test]
    fn worker_scaling_can_help_sharing_on_saturated_machines() {
        // On an overloaded machine both sides are work-bound, so the
        // unshared rate is flat in k — but the shared side at k=1 is
        // still held below its work bound by the multiplexing pivot's
        // p_max. Parallelizing w_φ relieves that pipeline bottleneck,
        // so Z rises with modest k. This is the regime where intra-query
        // parallelism and work sharing are complements, not rivals.
        let (plan, pivot) = synthetic();
        let ev = SharingEvaluator::homogeneous(&plan, pivot, 8).unwrap();
        let ev2 = ev.clone().with_workers(WorkerScaling::ideal(2).unwrap());
        let n = 8.0;
        let z1 = ev.speedup(n);
        let z2 = ev2.speedup(n);
        assert!(
            z2 > z1,
            "parallelizing the shared pivot should relieve its bottleneck: z1={z1} z2={z2}"
        );
        // The unshared side is work-bound throughout, so flat in k.
        let xu1 = ev.unshared_rate(n).unwrap();
        let xu2 = ev2.unshared_rate(n).unwrap();
        assert!((xu1 - xu2).abs() < 1e-12);
    }

    #[test]
    fn shared_p_max_floors_at_serial_multiplexing_cost() {
        let (plan, pivot) = synthetic();
        let ev = SharingEvaluator::homogeneous(&plan, pivot, 8).unwrap();
        // s_mφ = 1.0 per member, 8 members: no amount of intra-query
        // parallelism pushes the shared pivot below Σ s_mφ = 8.
        let huge = WorkerScaling::new(1 << 20, 1.0).unwrap();
        let floor = ev.clone().with_workers(huge).shared_p_max();
        assert!(
            (floor - 8.0).abs() < 1e-2,
            "shared p_max should floor at Σ s_mφ, got {floor}"
        );
        // And scaling monotonically lowers p_max toward that floor.
        let mut prev = f64::INFINITY;
        for k in [1u32, 2, 4, 8, 64] {
            let p = ev
                .clone()
                .with_workers(WorkerScaling::ideal(k).unwrap())
                .shared_p_max();
            assert!(p <= prev + 1e-12);
            assert!(p + 1e-12 >= 8.0);
            prev = p;
        }
    }

    #[test]
    fn sublinear_kappa_interpolates_between_serial_and_ideal() {
        let (plan, pivot) = synthetic();
        let ev = SharingEvaluator::homogeneous(&plan, pivot, 4).unwrap();
        let n = 1.0e6; // unsaturated: the regime where Z is monotone in e(k)
        let z_at = |scaling| ev.clone().with_workers(scaling).speedup(n);
        let z1 = z_at(WorkerScaling::serial());
        let z_half = z_at(WorkerScaling::new(4, 0.5).unwrap());
        let z_ideal = z_at(WorkerScaling::ideal(4).unwrap());
        assert!(
            z_ideal <= z_half + 1e-12 && z_half <= z1 + 1e-12,
            "κ should interpolate: z1={z1} z_half={z_half} z_ideal={z_ideal}"
        );
    }

    // --- partial overlap (subsumption sharing) ---------------------------

    /// A Q6-style group built from parts: below empty, pivot w = 9.66,
    /// member s = 10.34, one above operator p = 0.97.
    fn q6_parts(members: Vec<GroupMember>) -> SharingEvaluator {
        SharingEvaluator::from_parts(vec![], 9.66, members).unwrap()
    }

    #[test]
    fn full_coverage_members_reproduce_exact_overlap() {
        let exact = q6_parts(vec![GroupMember::new(10.34, vec![0.97]); 4]);
        let partial = q6_parts(vec![
            GroupMember::new(10.34, vec![0.97])
                .with_partial_overlap(1.0, 0.0);
            4
        ]);
        for n in [1.0, 4.0, 32.0] {
            assert_eq!(exact.speedup(n), partial.speedup(n));
            assert_eq!(exact.shared_p_max(), partial.shared_p_max());
            assert_eq!(exact.shared_total_work(), partial.shared_total_work());
        }
    }

    #[test]
    fn lower_coverage_weakens_the_case_for_sharing() {
        // The shared side is fixed (it runs the wide pivot either way);
        // the unshared baseline gets cheaper as members need less of the
        // wide output, so Z is non-increasing in coverage drop.
        let mut prev = f64::INFINITY;
        for c in [1.0, 0.75, 0.5, 0.25, 0.05] {
            let ev = q6_parts(vec![
                GroupMember::new(10.34, vec![0.97])
                    .with_partial_overlap(c, 0.0);
                4
            ]);
            let z = ev.speedup(1.0);
            assert!(
                z <= prev + 1e-12,
                "Z should not rise as coverage drops: c={c} z={z} prev={prev}"
            );
            prev = z;
        }
    }

    #[test]
    fn residual_cost_charges_only_the_shared_side() {
        let free = q6_parts(vec![
            GroupMember::new(10.34, vec![0.97])
                .with_partial_overlap(0.5, 0.0);
            4
        ]);
        let taxed = q6_parts(vec![
            GroupMember::new(10.34, vec![0.97])
                .with_partial_overlap(0.5, 2.0);
            4
        ]);
        // Residual work raises shared u' by Σ r_m and leaves the
        // unshared baseline untouched.
        assert!(
            (taxed.shared_total_work() - free.shared_total_work() - 8.0).abs() < 1e-12,
            "residuals must add Σ r_m to shared total work"
        );
        assert_eq!(
            free.unshared_rate(4.0).unwrap(),
            taxed.unshared_rate(4.0).unwrap()
        );
        // On a saturated machine the shared side is work-bound, so the
        // residual tax strictly lowers Z.
        assert!(taxed.speedup(1.0) < free.speedup(1.0));
    }

    #[test]
    fn huge_residual_dominates_shared_p_max() {
        let ev = q6_parts(vec![
            GroupMember::new(10.34, vec![0.97])
                .with_partial_overlap(0.9, 500.0);
            2
        ]);
        assert_eq!(ev.shared_p_max(), 500.0);
        // Worker scaling divides residual work like any other above term.
        let p = ev
            .with_workers(WorkerScaling::ideal(4).unwrap())
            .shared_p_max();
        assert!((p - 125.0).abs() < 1e-9);
    }

    #[test]
    fn from_parts_validates_coverage_and_residual() {
        for bad in [0.0, -0.5, 1.5, f64::NAN] {
            let err = SharingEvaluator::from_parts(
                vec![],
                1.0,
                vec![GroupMember::new(1.0, vec![]).with_partial_overlap(bad, 0.0)],
            )
            .unwrap_err();
            assert!(err.to_string().contains("coverage"), "bad={bad}: {err}");
        }
        assert!(SharingEvaluator::from_parts(
            vec![],
            1.0,
            vec![GroupMember::new(1.0, vec![]).with_partial_overlap(0.5, -1.0)],
        )
        .is_err());
    }
}
