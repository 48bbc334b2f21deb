//! Stop-&-go operator handling: phase decomposition (paper Section 5.2).
//!
//! A stop-&-go operator (sort, hash build) decouples the
//! production/consumption rates below it from those above it. For
//! modeling, a query containing such operators behaves like a *sequence
//! of sub-queries*: e.g. a sort-based query looks like (1) a sub-query
//! whose root is "sorting runs", then (2) a sub-query whose leaf is an
//! extremely fast "output sorted result" scan. Work sharing applies to
//! each phase independently: inputs can be shared during the consume
//! phase, and the operator's *output* can be shared with queries wanting
//! the same sorted/built result during the emit phase.

use crate::error::Result;
use crate::operator::OperatorSpec;
use crate::plan::{NodeId, PlanSpec};

/// One execution phase of a decomposed query.
#[derive(Debug, Clone)]
pub struct Phase {
    /// The phase's own pipelinable plan.
    pub plan: PlanSpec,
    /// Name of the blocking operator that terminates this phase, or
    /// `None` for the final phase.
    pub boundary: Option<String>,
}

/// Decomposes `plan` into fully-pipelinable phases at every blocking
/// operator, innermost first.
///
/// Each blocking operator `B` contributes:
/// * a phase whose root is `B.consume` — `B`'s input-side work `w` with
///   no output cost (nothing flows downstream while `B` blocks), over
///   `B`'s original subtree (with deeper blocking operators already
///   replaced by their emit leaves), and
/// * in the enclosing phase, a leaf `B.emit` carrying `B`'s output cost
///   toward its consumers.
///
/// The returned phases are in a valid sequential execution order. For a
/// plan with no blocking operators the result is a single phase equal to
/// the input plan.
pub fn decompose(plan: &PlanSpec) -> Result<Vec<Phase>> {
    let mut phases = Vec::new();
    let mut current = plan.clone();
    loop {
        // Find a blocking node whose subtree contains no other blocking
        // node (innermost), in deterministic arena order.
        let candidate = current.node_ids().find(|&id| {
            current.op(id).blocking
                && current
                    .below(id)
                    .map(|below| below.iter().all(|&b| !current.op(b).blocking))
                    .unwrap_or(false)
        });
        let Some(block) = candidate else {
            phases.push(Phase {
                plan: current,
                boundary: None,
            });
            return Ok(phases);
        };
        let (consume, remainder) = split_at(&current, block)?;
        phases.push(Phase {
            plan: consume,
            boundary: Some(current.op(block).name.clone()),
        });
        current = remainder;
    }
}

/// Splits `plan` at blocking node `block` into (consume-phase plan,
/// remainder plan with `block` replaced by an emit leaf).
fn split_at(plan: &PlanSpec, block: NodeId) -> Result<(PlanSpec, PlanSpec)> {
    let block_op = plan.op(block);

    // Consume phase: subtree of `block`, with `block` itself replaced by
    // a consume-only root (keeps w, drops s).
    let consume = {
        let mut b = PlanSpec::new();
        let root = clone_subtree(plan, block, &mut b, &mut |id, op| {
            if id == block {
                OperatorSpec {
                    name: format!("{}.consume", op.name),
                    input_work: op.input_work.clone(),
                    output_cost: vec![],
                    blocking: false,
                }
            } else {
                op.clone()
            }
        });
        b.finish(root)?
    };

    // Remainder: original plan with the subtree at `block` replaced by an
    // emit leaf that carries the blocking operator's output cost.
    let remainder = {
        let emit = OperatorSpec {
            name: format!("{}.emit", block_op.name),
            input_work: vec![0.0],
            output_cost: block_op.output_cost.clone(),
            blocking: false,
        };
        let mut b = PlanSpec::new();
        let root = clone_subtree(plan, plan.root(), &mut b, &mut |id, op| {
            if id == block {
                emit.clone()
            } else {
                op.clone()
            }
        });
        b.finish(root)?
    };
    Ok((consume, remainder))
}

/// Clones the subtree rooted at `node` into builder `b`, mapping each
/// operator through `f`. When `f` returns an operator for the blocked
/// node the original children are dropped if the mapped operator is the
/// emit leaf (detected by empty `input_work` semantics — here we drop
/// children whenever the mapped node's name ends in `.emit`).
fn clone_subtree(
    plan: &PlanSpec,
    node: NodeId,
    b: &mut crate::plan::PlanBuilder,
    f: &mut impl FnMut(NodeId, &OperatorSpec) -> OperatorSpec,
) -> NodeId {
    let mapped = f(node, plan.op(node));
    let drop_children = mapped.name.ends_with(".emit");
    if drop_children {
        b.add_leaf(mapped)
    } else {
        let children: Vec<NodeId> = plan
            .children(node)
            .iter()
            .map(|&c| clone_subtree(plan, c, b, f))
            .collect();
        if children.is_empty() {
            b.add_leaf(mapped)
        } else {
            b.add_node(mapped, children)
        }
    }
}

/// Evaluates work sharing for queries containing stop-&-go operators:
/// the query is a *sequence* of pipelinable phases (Section 5.2), and
/// sharing applies within the single phase holding the pivot.
///
/// The whole-query speedup follows from summing per-phase times. Phases
/// are assumed to process comparable volumes of reference units (exact
/// per-phase volumes would require cardinality estimates; for the
/// share/don't-share decision the uniform assumption preserves the
/// Amdahl structure: a large speedup in a small phase yields a small
/// overall speedup).
#[derive(Debug)]
pub struct PhasedEvaluator {
    phases: Vec<Phase>,
}

impl PhasedEvaluator {
    /// Decomposes `plan` into its pipelinable phases.
    pub fn new(plan: &PlanSpec) -> Result<Self> {
        Ok(Self {
            phases: decompose(plan)?,
        })
    }

    /// The phases, in execution order.
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// Locates the phase containing an operator named `op_name`,
    /// returning `(phase index, node id within that phase)`. Blocking
    /// operators split into `<name>.consume` / `<name>.emit`.
    pub fn find_op(&self, op_name: &str) -> Option<(usize, NodeId)> {
        for (i, phase) in self.phases.iter().enumerate() {
            if let Some(id) = phase
                .plan
                .node_ids()
                .find(|&id| phase.plan.op(id).name == op_name)
            {
                return Some((i, id));
            }
        }
        None
    }

    /// Whole-query sharing speedup when `m` queries share at `pivot`
    /// inside phase `phase_idx`; other phases run unshared.
    pub fn speedup(&self, phase_idx: usize, pivot: NodeId, m: usize, n: f64) -> Result<f64> {
        use crate::sharing::SharingEvaluator;
        if phase_idx >= self.phases.len() {
            return Err(crate::error::ModelError::UnknownNode(phase_idx));
        }
        let mut t_shared = 0.0;
        let mut t_unshared = 0.0;
        for (i, phase) in self.phases.iter().enumerate() {
            // Unshared group rate for this phase: m independent copies.
            let q = crate::query::QueryModel::new(&phase.plan);
            let x_unshared = (m as f64) * (q.peak_rate()).min(n / (m as f64 * q.total_work()));
            t_unshared += 1.0 / x_unshared;
            let x_shared = if i == phase_idx {
                SharingEvaluator::homogeneous(&phase.plan, pivot, m)?.shared_rate(n)?
            } else {
                x_unshared
            };
            t_shared += 1.0 / x_shared;
        }
        Ok(t_unshared / t_shared)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryModel;

    /// scan -> sort(blocking) -> agg
    fn sort_query() -> PlanSpec {
        PlanSpec::pipeline(vec![
            OperatorSpec::new("scan", vec![8.0], vec![2.0]),
            OperatorSpec::new("sort", vec![5.0], vec![1.5]).blocking(),
            OperatorSpec::new("agg", vec![1.0], vec![]),
        ])
        .unwrap()
    }

    #[test]
    fn pipelinable_plan_is_single_phase() {
        let plan = PlanSpec::pipeline(vec![
            OperatorSpec::new("scan", vec![1.0], vec![1.0]),
            OperatorSpec::new("agg", vec![1.0], vec![]),
        ])
        .unwrap();
        let phases = decompose(&plan).unwrap();
        assert_eq!(phases.len(), 1);
        assert!(phases[0].boundary.is_none());
        assert_eq!(phases[0].plan.len(), 2);
    }

    #[test]
    fn sort_splits_into_two_phases() {
        let phases = decompose(&sort_query()).unwrap();
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].boundary.as_deref(), Some("sort"));

        // Phase 1: scan -> sort.consume; root has w=5, s=0.
        let p1 = &phases[0].plan;
        assert_eq!(p1.len(), 2);
        let root1 = p1.op(p1.root());
        assert_eq!(root1.name, "sort.consume");
        assert!((root1.p() - 5.0).abs() < 1e-12);
        assert!(!root1.blocking);

        // Phase 2: sort.emit -> agg; leaf carries the sort's s = 1.5.
        let p2 = &phases[1].plan;
        assert_eq!(p2.len(), 2);
        let leaf = p2
            .node_ids()
            .find(|&id| p2.children(id).is_empty())
            .unwrap();
        assert_eq!(p2.op(leaf).name, "sort.emit");
        assert!((p2.op(leaf).p() - 1.5).abs() < 1e-12);
        assert_eq!(p2.op(p2.root()).name, "agg");
    }

    #[test]
    fn phase_rates_are_decoupled() {
        // The consume phase is bottlenecked by the scan (p=10), the emit
        // phase by the emit leaf vs agg — rates differ, as Section 5.2
        // requires.
        let phases = decompose(&sort_query()).unwrap();
        let r1 = QueryModel::new(&phases[0].plan).peak_rate();
        let r2 = QueryModel::new(&phases[1].plan).peak_rate();
        assert!((r1 - 0.1).abs() < 1e-12); // 1 / (8+2)
        assert!((r2 - 1.0 / 1.5).abs() < 1e-12);
        assert!(r2 > r1);
    }

    #[test]
    fn nested_blocking_operators_innermost_first() {
        // scan -> sort1 -> filter -> sort2 -> out: three phases.
        let plan = PlanSpec::pipeline(vec![
            OperatorSpec::new("scan", vec![4.0], vec![1.0]),
            OperatorSpec::new("sort1", vec![3.0], vec![1.0]).blocking(),
            OperatorSpec::new("filter", vec![0.5], vec![0.5]),
            OperatorSpec::new("sort2", vec![2.0], vec![1.0]).blocking(),
            OperatorSpec::new("out", vec![0.1], vec![]),
        ])
        .unwrap();
        let phases = decompose(&plan).unwrap();
        assert_eq!(phases.len(), 3);
        assert_eq!(phases[0].boundary.as_deref(), Some("sort1"));
        assert_eq!(phases[1].boundary.as_deref(), Some("sort2"));
        assert!(phases[2].boundary.is_none());
        // Middle phase: sort1.emit -> filter -> sort2.consume.
        let names: Vec<_> = phases[1]
            .plan
            .node_ids()
            .map(|id| phases[1].plan.op(id).name.clone())
            .collect();
        assert!(names.contains(&"sort1.emit".to_string()));
        assert!(names.contains(&"sort2.consume".to_string()));
    }

    #[test]
    fn two_blocking_children_both_become_phases() {
        // Merge join: two blocking sorts feeding a merge (Section 5.3.2).
        let mut b = PlanSpec::new();
        let s1 = b.add_leaf(OperatorSpec::new("scanL", vec![4.0], vec![1.0]));
        let sort1 = b.add_node(
            OperatorSpec::new("sortL", vec![3.0], vec![1.0]).blocking(),
            vec![s1],
        );
        let s2 = b.add_leaf(OperatorSpec::new("scanR", vec![6.0], vec![1.0]));
        let sort2 = b.add_node(
            OperatorSpec::new("sortR", vec![3.5], vec![1.0]).blocking(),
            vec![s2],
        );
        let merge = b.add_node(
            OperatorSpec::new("merge", vec![1.0, 1.0], vec![]),
            vec![sort1, sort2],
        );
        let plan = b.finish(merge).unwrap();

        let phases = decompose(&plan).unwrap();
        assert_eq!(phases.len(), 3);
        let boundaries: Vec<_> = phases.iter().filter_map(|p| p.boundary.clone()).collect();
        assert!(boundaries.contains(&"sortL".to_string()));
        assert!(boundaries.contains(&"sortR".to_string()));
        // Final phase merges the two emit leaves.
        let last = &phases[2].plan;
        let leaf_names: Vec<_> = last
            .node_ids()
            .filter(|&id| last.children(id).is_empty())
            .map(|id| last.op(id).name.clone())
            .collect();
        assert_eq!(leaf_names.len(), 2);
        assert!(leaf_names.contains(&"sortL.emit".to_string()));
        assert!(leaf_names.contains(&"sortR.emit".to_string()));
    }

    /// scan -> sort1 -> filter -> sort2 -> out (two nested boundaries).
    fn nested_query() -> PlanSpec {
        PlanSpec::pipeline(vec![
            OperatorSpec::new("scan", vec![4.0], vec![1.0]),
            OperatorSpec::new("sort1", vec![3.0], vec![1.0]).blocking(),
            OperatorSpec::new("filter", vec![0.5], vec![0.5]),
            OperatorSpec::new("sort2", vec![2.0], vec![1.0]).blocking(),
            OperatorSpec::new("out", vec![0.1], vec![]),
        ])
        .unwrap()
    }

    #[test]
    fn decomposition_conserves_total_work() {
        // Stop-&-go accounting: splitting a blocking operator into
        // consume (keeps w, drops s) and emit (keeps s, drops w) must
        // neither create nor destroy work — Σ over phases of u' equals
        // the original plan's u'.
        for plan in [sort_query(), nested_query()] {
            let original = QueryModel::new(&plan).total_work();
            let phases = decompose(&plan).unwrap();
            let split: f64 = phases
                .iter()
                .map(|ph| QueryModel::new(&ph.plan).total_work())
                .sum();
            assert!(
                (split - original).abs() < 1e-9,
                "work not conserved: {split} vs {original}"
            );
        }
    }

    #[test]
    fn consume_keeps_input_work_and_emit_keeps_output_cost() {
        // Every `.consume` root carries exactly the blocking operator's
        // w with no s; every `.emit` leaf carries exactly its s with no
        // w. Nothing about the phase boundary is double-counted.
        let plan = nested_query();
        let w_of = |name: &str| {
            plan.node_ids()
                .find(|&id| plan.op(id).name == name)
                .map(|id| plan.op(id))
                .unwrap()
                .clone()
        };
        for ph in decompose(&plan).unwrap() {
            for id in ph.plan.node_ids() {
                let op = ph.plan.op(id);
                if let Some(base) = op.name.strip_suffix(".consume") {
                    let orig = w_of(base);
                    assert!(op.output_cost.is_empty(), "{} kept s", op.name);
                    assert!(
                        (op.input_work.iter().sum::<f64>() - orig.input_work.iter().sum::<f64>())
                            .abs()
                            < 1e-12,
                        "{} changed w",
                        op.name
                    );
                    assert!(!op.blocking, "{} still blocking", op.name);
                } else if let Some(base) = op.name.strip_suffix(".emit") {
                    let orig = w_of(base);
                    assert!(
                        op.input_work.iter().sum::<f64>() == 0.0,
                        "{} kept w",
                        op.name
                    );
                    assert!(
                        (op.output_cost.iter().sum::<f64>() - orig.output_cost.iter().sum::<f64>())
                            .abs()
                            < 1e-12,
                        "{} changed s",
                        op.name
                    );
                    assert!(ph.plan.children(id).is_empty(), "{} kept children", op.name);
                }
            }
        }
    }

    #[test]
    fn phase_count_is_blocking_count_plus_one() {
        for (plan, blocking) in [
            (sort_query(), 1usize),
            (nested_query(), 2),
            (
                PlanSpec::pipeline(vec![
                    OperatorSpec::new("scan", vec![1.0], vec![1.0]),
                    OperatorSpec::new("agg", vec![1.0], vec![]),
                ])
                .unwrap(),
                0,
            ),
        ] {
            let phases = decompose(&plan).unwrap();
            assert_eq!(phases.len(), blocking + 1);
            // Every non-final phase names its boundary; the final one
            // never does.
            for (i, ph) in phases.iter().enumerate() {
                assert_eq!(ph.boundary.is_none(), i == phases.len() - 1);
            }
        }
    }

    #[test]
    fn phased_evaluator_locates_split_operators() {
        let ev = PhasedEvaluator::new(&sort_query()).unwrap();
        assert_eq!(ev.phases().len(), 2);
        let (phase, _) = ev.find_op("scan").unwrap();
        assert_eq!(phase, 0);
        let (phase, _) = ev.find_op("sort.consume").unwrap();
        assert_eq!(phase, 0);
        let (phase, _) = ev.find_op("sort.emit").unwrap();
        assert_eq!(phase, 1);
        assert!(ev.find_op("nonexistent").is_none());
    }

    #[test]
    fn phased_sharing_follows_amdahl() {
        // Sharing the scan inside the consume phase on one processor:
        // the whole-query speedup must be positive but smaller than the
        // phase-local speedup, because the emit phase is untouched.
        let ev = PhasedEvaluator::new(&sort_query()).unwrap();
        let (phase, scan) = ev.find_op("scan").unwrap();
        let m = 8;
        let whole = ev.speedup(phase, scan, m, 1.0).unwrap();
        let phase_plan = &ev.phases()[phase].plan;
        let local = crate::sharing::SharingEvaluator::homogeneous(phase_plan, scan, m)
            .unwrap()
            .speedup(1.0);
        assert!(whole > 1.0, "sharing still helps: {whole}");
        assert!(whole < local, "Amdahl: whole {whole} < phase-local {local}");
    }

    #[test]
    fn phased_sharing_neutral_for_singleton() {
        let ev = PhasedEvaluator::new(&sort_query()).unwrap();
        let (phase, scan) = ev.find_op("scan").unwrap();
        let z = ev.speedup(phase, scan, 1, 4.0).unwrap();
        assert!((z - 1.0).abs() < 1e-9);
    }

    /// The paper's profiled Q6: scan (w=9.66, s=10.34) feeding a p=0.97
    /// aggregate, shareable at the scan.
    fn q6() -> (PlanSpec, NodeId) {
        let mut b = PlanSpec::new();
        let scan = b.add_leaf(OperatorSpec::new("scan", vec![9.66], vec![10.34]));
        let agg = b.add_node(OperatorSpec::new("agg", vec![0.97], vec![]), vec![scan]);
        (b.finish(agg).unwrap(), scan)
    }

    #[test]
    fn phased_and_flat_evaluation_agree_on_pipelinable_plans() {
        // A plan with no blocking operators decomposes into one phase, so
        // the phased speedup must equal the flat evaluator's.
        use crate::sharing::SharingEvaluator;
        let (plan, scan) = q6();
        let phased = PhasedEvaluator::new(&plan).unwrap();
        assert_eq!(phased.phases().len(), 1);
        let (idx, node) = phased.find_op("scan").unwrap();
        for (m, n) in [(4usize, 1.0), (16, 8.0), (32, 32.0)] {
            let whole = phased.speedup(idx, node, m, n).unwrap();
            let flat = SharingEvaluator::homogeneous(&plan, scan, m)
                .unwrap()
                .speedup(n);
            assert!(
                (whole - flat).abs() < 1e-9,
                "m={m} n={n}: {whole} vs {flat}"
            );
        }
    }

    #[test]
    fn phased_sharing_rejects_bad_phase_index() {
        let ev = PhasedEvaluator::new(&sort_query()).unwrap();
        assert!(ev.speedup(9, NodeId(0), 2, 1.0).is_err());
    }

    #[test]
    fn emit_leaf_can_serve_as_sharing_pivot() {
        // Section 5.2: "queries requesting similar sort operations can
        // share the sort's output values".
        use crate::sharing::SharingEvaluator;
        let phases = decompose(&sort_query()).unwrap();
        let emit_phase = &phases[1].plan;
        let emit = emit_phase
            .node_ids()
            .find(|&id| emit_phase.op(id).name == "sort.emit")
            .unwrap();
        let ev = SharingEvaluator::homogeneous(emit_phase, emit, 4).unwrap();
        // Sharing the emit leaf on one CPU saves its replicated reads.
        assert!(ev.speedup(1.0) >= 1.0);
    }
}
