//! Model parameter estimation (paper Section 3.1).
//!
//! "We build a model for each query type by profiling the system during
//! a few test query invocations, both with and without work sharing. We
//! then solve a system of linear equations to divide up the active time
//! of each operator among the different nodes of the query plan."
//!
//! Concretely: an unshared run yields each operator's `p_k` (active
//! time per unit of the reference stream's forward progress — we use
//! the pivot's own input stream as the reference); shared runs at
//! `M = 2, 3` give the pivot's `p_φ(M) = w + M·s`, and a least-squares
//! fit (together with the `M = 1` point) separates `w` from `s`.

use crate::policy::{Policy, QueryModelInfo};
use crate::query::QuerySpec;
use crate::run::{run_once, EngineConfig, Report};
use crate::sharing::pivot_preorder;
use cordoba_core::estimate::{fit_pivot, PivotObservation};
use cordoba_core::{ModelError, NodeId, OperatorSpec, PlanSpec};
use cordoba_exec::PhysicalPlan;
use cordoba_storage::Catalog;

/// Raw numbers from one profiling pass (reported alongside the model,
/// and printed by the `figures sec44` harness to mirror the paper's
/// Section 4.4 example).
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// Fitted pivot input-side work per unit of forward progress.
    pub pivot_w: f64,
    /// Fitted pivot per-consumer output cost.
    pub pivot_s: f64,
    /// Residual sum of squares of the pivot fit.
    pub fit_rss: f64,
    /// `(operator label, p)` for every operator, in full-plan preorder.
    pub operators: Vec<(String, f64)>,
}

/// Profiles `spec` (which must have a pivot) and returns model
/// parameters usable by the model-guided policy.
pub fn profile_query(
    catalog: &Catalog,
    spec: &QuerySpec,
    cfg: &EngineConfig,
) -> Result<(QueryModelInfo, ProfileReport), ModelError> {
    let pivot = spec
        .pivot
        .as_ref()
        .ok_or_else(|| ModelError::Estimation("query has no pivot to profile".into()))?;
    let pivot_pre = pivot_preorder(&spec.plan, pivot)
        .ok_or_else(|| ModelError::Estimation("pivot not found in plan".into()))?;
    let subtree_size = pivot.node_count();

    // Profiling runs are about active time / progress, which are
    // schedule-independent; a few contexts keep them quick. The serial
    // wiring is forced regardless of the engine's worker knob: the
    // model's per-node costs are defined on the one-task-per-operator
    // decomposition, which morsel workers fuse away.
    let profile_cfg = EngineConfig {
        policy: Policy::AlwaysShare,
        contexts: 4,
        parallel: cordoba_exec::ParallelConfig::with_workers(1),
        ..cfg.clone()
    };

    let mut pivot_obs = Vec::new();
    let mut p_by_preorder: Vec<f64> = Vec::new();
    let mut labels: Vec<String> = Vec::new();

    for m in 1..=3usize {
        let specs = vec![spec.clone(); m];
        let out = run_once(catalog, &specs, &profile_cfg);
        if out.group_sizes != vec![m] {
            return Err(ModelError::Estimation(format!(
                "profiling expected one group of {m}, got {:?}",
                out.group_sizes
            )));
        }
        let pivot_stats = find_stats(&out, "g0/shared/0:")?;
        if pivot_stats.progress <= 0.0 {
            return Err(ModelError::Estimation("pivot made no progress".into()));
        }
        pivot_obs.push(PivotObservation {
            sharers: m,
            active_time: pivot_stats.active as f64,
            progress_units: pivot_stats.progress,
        });
        if m == 1 {
            let reference = pivot_stats.progress;
            (p_by_preorder, labels) =
                collect_ops(&out, &spec.plan, pivot_pre, subtree_size, reference)?;
        }
    }

    let fit = fit_pivot(&pivot_obs)?;
    let (plan, pivot_id) = build_model_plan(&spec.plan, &p_by_preorder, pivot_pre, fit.w, fit.s)?;
    let report = ProfileReport {
        pivot_w: fit.w,
        pivot_s: fit.s,
        fit_rss: fit.rss,
        operators: labels
            .into_iter()
            .zip(p_by_preorder.iter().copied())
            .collect(),
    };
    Ok((
        QueryModelInfo {
            plan,
            pivot: pivot_id,
        },
        report,
    ))
}

fn find_stats<'a>(out: &'a Report, prefix: &str) -> Result<&'a cordoba_sim::TaskStats, ModelError> {
    out.task_stats
        .iter()
        .find(|(name, _)| name.starts_with(prefix))
        .map(|(_, s)| s)
        .ok_or_else(|| ModelError::Estimation(format!("no task with label prefix '{prefix}'")))
}

/// Gathers `p = active / reference_progress` for every operator of the
/// full plan, in full-plan preorder, from an M=1 shared run whose labels
/// split across the pivot group (`g0/shared/<i>:`) and the member
/// fragment (`q0/<name>/<j>:`).
fn collect_ops(
    out: &Report,
    plan: &PhysicalPlan,
    pivot_pre: usize,
    subtree_size: usize,
    reference: f64,
) -> Result<(Vec<f64>, Vec<String>), ModelError> {
    let total = plan.node_count();
    let mut p = vec![f64::NAN; total];
    let mut labels = vec![String::new(); total];
    for (name, stats) in &out.task_stats {
        let Some((prefix, rest)) = name.rsplit_once('/') else {
            continue;
        };
        let Some((idx_str, op)) = rest.split_once(':') else {
            continue; // dispatcher, sinks
        };
        let Ok(local_idx) = idx_str.parse::<usize>() else {
            continue;
        };
        let full_idx = if prefix.starts_with("g0/") {
            // Pivot subtree: local preorder offsets from the pivot root.
            pivot_pre + local_idx
        } else if prefix.starts_with("q0/") {
            // Member fragment: indices before the pivot map directly;
            // the Source placeholder occupies the pivot's slot; indices
            // after it shift by the collapsed subtree.
            match local_idx.cmp(&pivot_pre) {
                std::cmp::Ordering::Less => local_idx,
                std::cmp::Ordering::Equal => continue, // Source placeholder
                std::cmp::Ordering::Greater => local_idx + subtree_size - 1,
            }
        } else {
            continue; // other members (q1.., q2..)
        };
        if full_idx >= total {
            return Err(ModelError::Estimation(format!(
                "label '{name}' maps outside the plan ({full_idx} >= {total})"
            )));
        }
        p[full_idx] = stats.active as f64 / reference;
        labels[full_idx] = format!("{idx_str}:{op}");
    }
    // A fully-shared query has no fragment ops; any slot still NaN is an
    // internal error except when the entire plan is the pivot.
    for (i, v) in p.iter().enumerate() {
        if v.is_nan() {
            return Err(ModelError::Estimation(format!(
                "no profile for plan node {i} ({})",
                labels.get(i).map(String::as_str).unwrap_or("?")
            )));
        }
    }
    Ok((p, labels))
}

/// Builds the model plan mirroring the physical plan's shape, with the
/// measured `p` per node and the fitted `(w, s)` at the pivot.
fn build_model_plan(
    plan: &PhysicalPlan,
    p: &[f64],
    pivot_pre: usize,
    w: f64,
    s: f64,
) -> Result<(PlanSpec, NodeId), ModelError> {
    #[allow(clippy::too_many_arguments)]
    fn walk(
        plan: &PhysicalPlan,
        p: &[f64],
        pivot_pre: usize,
        w: f64,
        s: f64,
        preorder: &mut usize,
        b: &mut cordoba_core::plan::PlanBuilder,
        pivot_out: &mut Option<NodeId>,
    ) -> Result<NodeId, ModelError> {
        let my = *preorder;
        *preorder += 1;
        let children: Vec<NodeId> = plan
            .children()
            .iter()
            .map(|c| walk(c, p, pivot_pre, w, s, preorder, b, pivot_out))
            .collect::<Result<_, _>>()?;
        let mut op = if my == pivot_pre {
            OperatorSpec::try_new(plan.op_name(), vec![w], vec![s])?
        } else {
            OperatorSpec::try_new(plan.op_name(), vec![p[my]], vec![])?
        };
        if matches!(
            plan,
            PhysicalPlan::Aggregate { .. } | PhysicalPlan::Sort { .. }
        ) {
            op = op.blocking();
        }
        let id = if children.is_empty() {
            b.add_leaf(op)
        } else {
            b.add_node(op, children)
        };
        if my == pivot_pre {
            *pivot_out = Some(id);
        }
        Ok(id)
    }
    let mut b = PlanSpec::new();
    let mut preorder = 0usize;
    let mut pivot_id = None;
    let root = walk(
        plan,
        p,
        pivot_pre,
        w,
        s,
        &mut preorder,
        &mut b,
        &mut pivot_id,
    )?;
    let plan_spec = b.finish(root)?;
    let pivot_id =
        pivot_id.ok_or_else(|| ModelError::Estimation("pivot index out of range".into()))?;
    Ok((plan_spec, pivot_id))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cordoba_exec::expr::{Agg, CmpOp, Predicate, ScalarExpr};
    use cordoba_exec::OpCost;
    use cordoba_storage::{DataType, Field, Schema, TableBuilder, Value};

    fn catalog() -> Catalog {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Float),
        ]);
        let mut b = TableBuilder::new("t", schema);
        for i in 0..4096 {
            b.push_row(&[Value::Int(i), Value::Float((i % 10) as f64)]);
        }
        let mut c = Catalog::new();
        c.register(b.finish());
        c
    }

    /// Scan with known (w, s) = (8, 3) feeding filter (1/tuple) + agg.
    fn query() -> QuerySpec {
        let scan = PhysicalPlan::Scan {
            table: "t".into(),
            cost: OpCost::new(8.0, 3.0),
        };
        let plan = PhysicalPlan::Aggregate {
            input: Box::new(PhysicalPlan::Filter {
                input: Box::new(scan.clone()),
                predicate: Predicate::col_cmp(0, CmpOp::Lt, 2048i64),
                cost: OpCost::per_tuple(1.0),
            }),
            group_by: vec![],
            aggs: vec![("s".into(), Agg::Sum(ScalarExpr::col(1)))],
            cost: OpCost::per_tuple(0.5),
        };
        QuerySpec::shared_at("probe", plan, scan)
    }

    #[test]
    fn recovers_configured_scan_parameters() {
        let cat = catalog();
        let (info, report) =
            profile_query(&cat, &query(), &EngineConfig::default()).expect("profiling succeeds");
        // The scan's configured w=8, s=3 must be recovered (rounding to
        // integer virtual-time units introduces sub-1% error).
        assert!((report.pivot_w - 8.0).abs() < 0.2, "w={}", report.pivot_w);
        assert!((report.pivot_s - 3.0).abs() < 0.2, "s={}", report.pivot_s);
        // Model plan mirrors agg -> filter -> scan.
        assert_eq!(info.plan.len(), 3);
        let pivot_op = info.plan.op(info.pivot);
        assert!(pivot_op.name.contains("scan"));
        // Filter sees every scanned tuple at 1 unit each: p ≈ 1.
        let filter_p = report
            .operators
            .iter()
            .find(|(l, _)| l.contains("filter"))
            .map(|(_, p)| *p)
            .unwrap();
        assert!((filter_p - 1.0).abs() < 0.1, "filter p={filter_p}");
        // Aggregate processes ~half the tuples at 0.5 each: p ≈ 0.25.
        let agg_p = report
            .operators
            .iter()
            .find(|(l, _)| l.contains("aggregate"))
            .map(|(_, p)| *p)
            .unwrap();
        assert!((agg_p - 0.25).abs() < 0.1, "agg p={agg_p}");
    }

    #[test]
    fn model_decision_follows_recovered_params() {
        // With the recovered parameters, the scan-heavy query should
        // share on 1 context and not on 32 under heavy load — the
        // paper's qualitative Q6 result.
        let cat = catalog();
        let (info, _) = profile_query(&cat, &query(), &EngineConfig::default()).unwrap();
        let eval = |m: usize, n: f64| {
            cordoba_core::sharing::SharingEvaluator::homogeneous(&info.plan, info.pivot, m)
                .unwrap()
                .speedup(n)
        };
        assert!(eval(16, 1.0) > 1.0);
        assert!(eval(16, 32.0) < 1.0);
    }

    #[test]
    fn pivotless_query_rejected() {
        let cat = catalog();
        let spec = QuerySpec::unshared("u", query().plan);
        assert!(profile_query(&cat, &spec, &EngineConfig::default()).is_err());
    }
}
