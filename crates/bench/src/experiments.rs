//! Measurement routines for every experiment in the paper.

use crate::engine_cfg;
use cordoba_core::estimate::estimate_k;
use cordoba_core::sharing::{SharingEvaluator, WorkerScaling};
use cordoba_core::{ModelError, NodeId, PlanSpec};
use cordoba_engine::policy::sharing_group;
use cordoba_engine::profiling::profile_query;
use cordoba_engine::{
    measure_throughput, run_once, thread_exec, EngineConfig, ExecError, ParallelConfig, Policy,
    QueryModelInfo, QuerySpec,
};
use cordoba_sim::VTime;
use cordoba_storage::tpch::{generate, TpchConfig};
use cordoba_storage::Catalog;
use cordoba_workload::CostProfile;
use std::collections::HashMap;

/// Experiment-wide configuration.
#[derive(Debug, Clone)]
pub struct ExpConfig {
    /// TPC-H scale factor for the generated database.
    pub scale_factor: f64,
    /// Data generator seed.
    pub seed: u64,
    /// Cost calibration.
    pub costs: CostProfile,
    /// Minimum completions measured per throughput estimate (scaled up
    /// with the client count).
    pub measure_floor: usize,
}

impl Default for ExpConfig {
    fn default() -> Self {
        Self {
            scale_factor: 0.004,
            seed: 0xC0DB_BA5E,
            costs: CostProfile::paper(),
            measure_floor: 24,
        }
    }
}

impl ExpConfig {
    /// A faster configuration for smoke tests / CI.
    pub fn quick() -> Self {
        Self {
            scale_factor: 0.002,
            measure_floor: 12,
            ..Self::default()
        }
    }

    /// Generates the experiment database.
    pub fn catalog(&self) -> Catalog {
        generate(&TpchConfig {
            scale_factor: self.scale_factor,
            seed: self.seed,
            ..TpchConfig::default()
        })
    }
}

/// Approximate total virtual work of one query instance (sum of all
/// operator active times in a solo run); used to size time caps.
pub fn query_work(catalog: &Catalog, spec: &QuerySpec) -> VTime {
    let cfg = engine_cfg(1, Policy::NeverShare);
    let out = run_once(catalog, std::slice::from_ref(spec), &cfg);
    out.task_stats.iter().map(|(_, s)| s.active).sum()
}

fn engine_cfg_workers(contexts: usize, policy: Policy, workers: usize) -> EngineConfig {
    EngineConfig {
        parallel: ParallelConfig::with_workers(workers),
        ..engine_cfg(contexts, policy)
    }
}

/// One point of a sharing-speedup sweep (Figures 1/2/5 measured series).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedupPoint {
    /// Number of concurrent clients (`m`).
    pub clients: usize,
    /// Hardware contexts (`n`).
    pub contexts: usize,
    /// Shared-mode throughput (queries per unit virtual time).
    pub shared: f64,
    /// Unshared-mode throughput.
    pub unshared: f64,
    /// Measured speedup `Z = shared / unshared`.
    pub z: f64,
}

/// Sweeps clients × contexts for one query (a full panel of Figure 1/2).
pub(crate) fn speedup_sweep(
    catalog: &Catalog,
    spec: &QuerySpec,
    clients: &[usize],
    contexts: &[usize],
    measure_floor: usize,
) -> Vec<SpeedupPoint> {
    let work = query_work(catalog, spec);
    let mut out = Vec::new();
    for &n in contexts {
        for &m in clients {
            out.push(sharing_speedup(catalog, spec, m, n, 1, work, measure_floor));
        }
    }
    out
}

/// Model-predicted speedup for `m` sharers of the profiled query on `n`
/// contexts, every query running `scaling.workers` morsel workers
/// (Figure 5's model series and its (m × k) grid; Figure 4 uses the
/// synthetic plans directly). The group is the policy's own pricing of
/// `m` exact-overlap members.
pub(crate) fn model_speedup(
    info: &QueryModelInfo,
    clients: usize,
    contexts: usize,
    scaling: WorkerScaling,
) -> f64 {
    sharing_group(&vec![(info, 1.0); clients])
        .expect("profiled plan is valid")
        .with_workers(scaling)
        .speedup(contexts as f64)
}

/// A recommended partition of `m` identical queries into sharing groups
/// (paper Section 8.1: "sharing fewer queries at a time is one
/// potential way to exploit work sharing while reducing the
/// serialization penalty").
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Partition {
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
    pub(crate) fn group_size(&self) -> usize {
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
pub(crate) fn optimal_partition(
    plan: &PlanSpec,
    pivot: NodeId,
    m: usize,
    n: f64,
) -> cordoba_core::Result<Partition> {
    if m == 0 {
        return Err(ModelError::EmptyGroup);
    }
    let rate_for = |sizes: &[usize]| -> cordoba_core::Result<f64> {
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

/// Measures the speedup of always-share over never-share for `clients`
/// identical copies of `spec` on `contexts` contexts, every query
/// running `workers` morsel workers.
pub fn sharing_speedup(
    catalog: &Catalog,
    spec: &QuerySpec,
    clients: usize,
    contexts: usize,
    workers: usize,
    work_hint: VTime,
    measure_floor: usize,
) -> SpeedupPoint {
    let specs = vec![spec.clone(); clients];
    // ~6 closed-loop "rounds" per estimate: shared groups complete in
    // bursts of m, so the window must span several bursts.
    let target = measure_floor.max(6 * clients);
    // Generous cap: enough for ~8x the target at the slowest plausible
    // rate (all work serialized on one context).
    let cap = work_hint
        .saturating_mul(clients as u64)
        .saturating_mul(16)
        .max(10_000_000);
    let shared = measure_throughput(
        catalog,
        &specs,
        &engine_cfg_workers(contexts, Policy::AlwaysShare, workers),
        target,
        cap,
    );
    let unshared = measure_throughput(
        catalog,
        &specs,
        &engine_cfg_workers(contexts, Policy::NeverShare, workers),
        target,
        cap,
    );
    SpeedupPoint {
        clients,
        contexts,
        shared: shared.per_time,
        unshared: unshared.per_time,
        z: if unshared.per_time > 0.0 {
            shared.per_time / unshared.per_time
        } else {
            f64::NAN
        },
    }
}

/// Fits the intra-query scaling exponent `κ` of the *simulated* engine:
/// solo-query virtual throughput (1 / makespan) at each worker count,
/// log-log least-squares — the same aggregate-bandwidth form as the
/// paper's Section 4.1.4 contention fit, applied to worker counts.
pub(crate) fn fit_sim_kappa(catalog: &Catalog, spec: &QuerySpec, worker_counts: &[usize]) -> f64 {
    let samples: Vec<(u32, f64)> = worker_counts
        .iter()
        .map(|&k| {
            let cfg = engine_cfg_workers(k.max(1), Policy::NeverShare, k);
            let out = run_once(catalog, std::slice::from_ref(spec), &cfg);
            (k.max(1) as u32, 1.0 / out.makespan.max(1) as f64)
        })
        .collect();
    estimate_k(&samples).unwrap_or(f64::MIN_POSITIVE)
}

/// Measures unshared throughput (queries per wall-clock second) of the
/// engine's own operator tasks on real threads at each morsel worker
/// count, running one query at a time so the samples isolate
/// *intra*-query scaling.
///
/// Feed the samples to [`estimate_k`] to recover the scaling exponent
/// `κ` of `e(k) = k^κ` for this host — the paper's aggregate-bandwidth
/// contention form, fitted on the same operator tasks the simulator
/// prices.
fn worker_scaling_samples(
    catalog: &Catalog,
    spec: &QuerySpec,
    repeats: usize,
    worker_counts: &[u32],
) -> Result<Vec<(u32, f64)>, ExecError> {
    let mut samples = Vec::with_capacity(worker_counts.len());
    for &k in worker_counts {
        let cfg = ParallelConfig::with_workers(k.max(1) as usize);
        let report = thread_exec::run_unshared_parallel(catalog, spec, repeats.max(1), 1, &cfg)?;
        let secs = report.elapsed.as_secs_f64().max(f64::MIN_POSITIVE);
        samples.push((k.max(1), repeats.max(1) as f64 / secs));
    }
    Ok(samples)
}

/// Fits `κ` of the *real-thread* morsel executor on this host:
/// wall-clock throughput from [`worker_scaling_samples`]. On a
/// single-core runner the samples are flat and `κ` fits ≈ 0 — the
/// honest answer that intra-query parallelism buys this host nothing.
pub(crate) fn fit_thread_kappa(catalog: &Catalog, spec: &QuerySpec, worker_counts: &[u32]) -> f64 {
    let samples =
        worker_scaling_samples(catalog, spec, 3, worker_counts).expect("threaded scaling run");
    estimate_k(&samples).unwrap_or(f64::MIN_POSITIVE)
}

/// Profiles every query in `specs` (paper Section 3.1), returning the
/// per-name model map the model-guided policy needs.
pub fn profile_all(catalog: &Catalog, specs: &[QuerySpec]) -> HashMap<String, QueryModelInfo> {
    let cfg = engine_cfg(1, Policy::NeverShare);
    specs
        .iter()
        .map(|spec| {
            let (info, _) = profile_query(catalog, spec, &cfg)
                .unwrap_or_else(|e| panic!("profiling {} failed: {e}", spec.name));
            (spec.name.clone(), info)
        })
        .collect()
}

/// One point of the Figure 6 policy comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyPoint {
    /// Fraction of clients submitting Q4.
    pub q4_fraction: f64,
    /// Never-share throughput.
    pub never: f64,
    /// Always-share throughput.
    pub always: f64,
    /// Model-guided throughput.
    pub model: f64,
}

/// Measures the three policies on a Q1/Q4 mix (paper Section 8.2).
pub fn policy_comparison(
    catalog: &Catalog,
    costs: &CostProfile,
    models: &HashMap<String, QueryModelInfo>,
    clients: usize,
    contexts: usize,
    q4_fraction: f64,
    measure_floor: usize,
) -> PolicyPoint {
    let mix = cordoba_workload::mix::q1_q4_mix(costs, clients, q4_fraction);
    let work = mix
        .iter()
        .map(|s| query_work(catalog, s))
        .max()
        .unwrap_or(1_000_000);
    let target = measure_floor.max(6 * clients);
    let cap = work
        .saturating_mul(clients as u64)
        .saturating_mul(16)
        .max(10_000_000);
    let run = |policy: Policy| {
        measure_throughput(catalog, &mix, &engine_cfg(contexts, policy), target, cap).per_time
    };
    PolicyPoint {
        q4_fraction,
        never: run(Policy::NeverShare),
        always: run(Policy::AlwaysShare),
        model: run(Policy::model_guided(models.clone())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cordoba_workload::{q4, q6};

    #[test]
    fn q6_sharing_helps_on_one_context_hurts_on_many() {
        // The headline result (Figure 1) on the real engine.
        let cfg = ExpConfig::quick();
        let catalog = cfg.catalog();
        let spec = q6(&cfg.costs);
        let work = query_work(&catalog, &spec);
        let uni = sharing_speedup(&catalog, &spec, 8, 1, 1, work, cfg.measure_floor);
        assert!(uni.z > 1.2, "n=1 expected sharing win, got {uni:?}");
        let cmp = sharing_speedup(&catalog, &spec, 8, 32, 1, work, cfg.measure_floor);
        assert!(cmp.z < 0.7, "n=32 expected sharing loss, got {cmp:?}");
    }

    #[test]
    fn worker_scaling_samples_cover_requested_counts() {
        let cfg = ExpConfig::quick();
        let catalog = cfg.catalog();
        let samples = worker_scaling_samples(&catalog, &q6(&cfg.costs), 2, &[1, 2]).unwrap();
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].0, 1);
        assert_eq!(samples[1].0, 2);
        for (k, x) in samples {
            assert!(x > 0.0, "throughput at k={k} must be positive, got {x}");
        }
    }

    #[test]
    fn q4_sharing_always_helps() {
        let cfg = ExpConfig::quick();
        let catalog = cfg.catalog();
        let spec = q4(&cfg.costs);
        let work = query_work(&catalog, &spec);
        for contexts in [1usize, 8] {
            let p = sharing_speedup(&catalog, &spec, 8, contexts, 1, work, cfg.measure_floor);
            assert!(p.z > 1.0, "contexts={contexts}: {p:?}");
        }
    }
}

#[cfg(test)]
mod partition_tests {
    use super::*;
    use cordoba_core::OperatorSpec;

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
}
