//! Query-plan structure for the model: an arena tree of [`OperatorSpec`]s.

use crate::error::{ModelError, Result};
use crate::operator::OperatorSpec;

/// Identifier of a node inside one [`PlanSpec`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// Raw index into the plan arena (stable for the plan's lifetime).
    pub(crate) fn index(self) -> usize {
        self.0
    }
}

#[derive(Debug, Clone)]
struct PlanNode {
    op: OperatorSpec,
    children: Vec<NodeId>,
}

/// Builder for a [`PlanSpec`]: add nodes bottom-up, then [`PlanBuilder::finish`]
/// with the root. `PlanSpec::new()` returns this builder.
#[derive(Debug, Clone, Default)]
pub struct PlanBuilder {
    nodes: Vec<PlanNode>,
}

/// A validated query-plan tree whose nodes carry model parameters.
///
/// The tree is immutable after construction; the model only ever needs to
/// read per-node `p` values and subtree membership ("below the pivot").
#[derive(Debug, Clone)]
pub struct PlanSpec {
    nodes: Vec<PlanNode>,
    root: NodeId,
}

impl PlanSpec {
    /// Starts building a plan. Add nodes with [`PlanBuilder::add_leaf`] /
    /// [`PlanBuilder::add_node`], then call [`PlanBuilder::finish`].
    #[allow(clippy::new_ret_no_self)]
    pub fn new() -> PlanBuilder {
        PlanBuilder::default()
    }

    /// Convenience constructor for a linear pipeline: `ops[0]` is the leaf
    /// and `ops.last()` is the root.
    pub fn pipeline(ops: Vec<OperatorSpec>) -> Result<Self> {
        let mut b = PlanBuilder::default();
        let mut prev: Option<NodeId> = None;
        for op in ops {
            let id = match prev {
                None => b.add_leaf(op),
                Some(child) => b.add_node(op, vec![child]),
            };
            prev = Some(id);
        }
        match prev {
            Some(root) => b.finish(root),
            None => Err(ModelError::EmptyPlan),
        }
    }

    /// Number of operators in the plan.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the plan is empty (never true for a validated plan).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The root node id.
    pub(crate) fn root(&self) -> NodeId {
        self.root
    }

    /// The operator spec at `id`.
    pub fn op(&self, id: NodeId) -> &OperatorSpec {
        &self.nodes[id.0].op
    }

    /// Children of `id` (inputs of the operator).
    pub(crate) fn children(&self, id: NodeId) -> &[NodeId] {
        &self.nodes[id.0].children
    }

    /// Iterates over all node ids in arena order.
    pub(crate) fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId)
    }

    /// Validates that `id` belongs to this plan.
    pub(crate) fn check_node(&self, id: NodeId) -> Result<()> {
        if id.0 < self.nodes.len() {
            Ok(())
        } else {
            Err(ModelError::UnknownNode(id.0))
        }
    }

    /// Node ids in the subtree rooted at `pivot`, including `pivot`
    /// itself ("below φ" in the paper includes the pivot's inputs; the
    /// pivot is returned so callers can treat it specially).
    fn subtree(&self, pivot: NodeId) -> Result<Vec<NodeId>> {
        self.check_node(pivot)?;
        let mut out = Vec::new();
        let mut stack = vec![pivot];
        while let Some(id) = stack.pop() {
            out.push(id);
            stack.extend(self.nodes[id.0].children.iter().copied());
        }
        Ok(out)
    }

    /// Node ids strictly below the pivot (the shared sub-plan minus the
    /// pivot itself).
    pub fn below(&self, pivot: NodeId) -> Result<Vec<NodeId>> {
        let mut sub = self.subtree(pivot)?;
        sub.retain(|&id| id != pivot);
        Ok(sub)
    }

    /// Node ids above the pivot: everything not in the subtree rooted at
    /// the pivot (paper Section 4.3: "k is above φ" means k is not part
    /// of the sub-tree rooted at φ).
    pub fn above(&self, pivot: NodeId) -> Result<Vec<NodeId>> {
        let sub = self.subtree(pivot)?;
        let mut in_sub = vec![false; self.nodes.len()];
        for id in sub {
            in_sub[id.0] = true;
        }
        Ok(self.node_ids().filter(|id| !in_sub[id.0]).collect())
    }

    /// Whether this plan and `other` have structurally identical subtrees
    /// rooted at the given pivots (same shape, operator names and costs) —
    /// the precondition for merging them into a sharing group.
    pub(crate) fn subtree_equivalent(
        &self,
        pivot: NodeId,
        other: &PlanSpec,
        other_pivot: NodeId,
    ) -> bool {
        fn eq(a: &PlanSpec, an: NodeId, b: &PlanSpec, bn: NodeId) -> bool {
            let (na, nb) = (&a.nodes[an.0], &b.nodes[bn.0]);
            na.op == nb.op
                && na.children.len() == nb.children.len()
                && na
                    .children
                    .iter()
                    .zip(&nb.children)
                    .all(|(&ca, &cb)| eq(a, ca, b, cb))
        }
        self.check_node(pivot).is_ok()
            && other.check_node(other_pivot).is_ok()
            && eq(self, pivot, other, other_pivot)
    }
}

impl PlanBuilder {
    /// Adds a leaf operator (no inputs), returning its id.
    pub fn add_leaf(&mut self, op: OperatorSpec) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(PlanNode {
            op,
            children: vec![],
        });
        id
    }

    /// Adds an operator with the given children, returning its id.
    pub fn add_node(&mut self, op: OperatorSpec, children: Vec<NodeId>) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(PlanNode { op, children });
        id
    }

    /// Validates the tree (connected, single-parent) and freezes it.
    pub fn finish(self, root: NodeId) -> Result<PlanSpec> {
        if self.nodes.is_empty() {
            return Err(ModelError::EmptyPlan);
        }
        if root.0 >= self.nodes.len() {
            return Err(ModelError::UnknownNode(root.0));
        }
        let n = self.nodes.len();
        let mut parent = vec![usize::MAX; n];
        let mut seen = vec![false; n];
        let mut stack = vec![root];
        seen[root.0] = true;
        let mut reachable = 1usize;
        while let Some(id) = stack.pop() {
            for &c in &self.nodes[id.0].children {
                if c.0 >= n {
                    return Err(ModelError::UnknownNode(c.0));
                }
                if parent[c.0] != usize::MAX || c == root {
                    return Err(ModelError::DuplicateChild(c.0));
                }
                parent[c.0] = id.0;
                if !seen[c.0] {
                    seen[c.0] = true;
                    reachable += 1;
                    stack.push(c);
                }
            }
        }
        if reachable != n {
            return Err(ModelError::DisconnectedPlan {
                reachable,
                total: n,
            });
        }
        Ok(PlanSpec {
            nodes: self.nodes,
            root,
        })
    }
}

/// Designates where sharing may occur in a plan: the pivot operator φ.
///
/// Convenience wrapper pairing a plan with a chosen pivot, used by the
/// decision API.
#[derive(Debug, Clone)]
pub struct PivotedPlan {
    /// The query plan.
    pub plan: PlanSpec,
    /// The pivot node (root of the shareable sub-plan).
    pub pivot: NodeId,
}

impl PivotedPlan {
    /// Pairs a plan with a pivot after validating the pivot id.
    pub fn new(plan: PlanSpec, pivot: NodeId) -> Result<Self> {
        plan.check_node(pivot)?;
        Ok(Self { plan, pivot })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q6_like() -> (PlanSpec, NodeId, NodeId) {
        let mut b = PlanSpec::new();
        let scan = b.add_leaf(OperatorSpec::new("scan", vec![9.66], vec![10.34]));
        let agg = b.add_node(OperatorSpec::new("agg", vec![0.97], vec![]), vec![scan]);
        (b.finish(agg).unwrap(), scan, agg)
    }

    #[test]
    fn pipeline_builds_linear_plan() {
        let plan = PlanSpec::pipeline(vec![
            OperatorSpec::new("a", vec![1.0], vec![1.0]),
            OperatorSpec::new("b", vec![2.0], vec![1.0]),
            OperatorSpec::new("c", vec![3.0], vec![]),
        ])
        .unwrap();
        assert_eq!(plan.len(), 3);
        assert_eq!(plan.op(plan.root()).name, "c");
        assert_eq!(plan.children(plan.root()).len(), 1);
    }

    #[test]
    fn empty_pipeline_is_error() {
        assert_eq!(
            PlanSpec::pipeline(vec![]).unwrap_err(),
            ModelError::EmptyPlan
        );
    }

    #[test]
    fn subtree_below_above_partition_nodes() {
        let (plan, scan, agg) = q6_like();
        assert_eq!(plan.subtree(scan).unwrap(), vec![scan]);
        assert!(plan.below(scan).unwrap().is_empty());
        assert_eq!(plan.above(scan).unwrap(), vec![agg]);
        // Above the root there is nothing; below it is everything else.
        assert!(plan.above(agg).unwrap().is_empty());
        assert_eq!(plan.below(agg).unwrap(), vec![scan]);
    }

    #[test]
    fn join_plan_partitions() {
        // join(scan1, scan2) -> agg; pivot at join.
        let mut b = PlanSpec::new();
        let s1 = b.add_leaf(OperatorSpec::new("scan1", vec![4.0], vec![1.0]));
        let s2 = b.add_leaf(OperatorSpec::new("scan2", vec![6.0], vec![1.0]));
        let join = b.add_node(
            OperatorSpec::new("join", vec![1.0, 1.0], vec![0.5]),
            vec![s1, s2],
        );
        let agg = b.add_node(OperatorSpec::new("agg", vec![1.0], vec![]), vec![join]);
        let plan = b.finish(agg).unwrap();

        let mut below = plan.below(join).unwrap();
        below.sort();
        assert_eq!(below, vec![s1, s2]);
        assert_eq!(plan.above(join).unwrap(), vec![agg]);
    }

    #[test]
    fn disconnected_plan_rejected() {
        let mut b = PlanSpec::new();
        let _orphan = b.add_leaf(OperatorSpec::new("orphan", vec![1.0], vec![]));
        let root = b.add_leaf(OperatorSpec::new("root", vec![1.0], vec![]));
        assert!(matches!(
            b.finish(root),
            Err(ModelError::DisconnectedPlan { .. })
        ));
    }

    #[test]
    fn duplicate_child_rejected() {
        let mut b = PlanSpec::new();
        let leaf = b.add_leaf(OperatorSpec::new("leaf", vec![1.0], vec![1.0]));
        let a = b.add_node(OperatorSpec::new("a", vec![1.0], vec![1.0]), vec![leaf]);
        let root = b.add_node(OperatorSpec::new("root", vec![1.0], vec![]), vec![a, leaf]);
        assert!(matches!(b.finish(root), Err(ModelError::DuplicateChild(_))));
    }

    #[test]
    fn unknown_root_rejected() {
        let mut b = PlanSpec::new();
        let _leaf = b.add_leaf(OperatorSpec::new("leaf", vec![1.0], vec![]));
        assert!(matches!(
            b.finish(NodeId(5)),
            Err(ModelError::UnknownNode(5))
        ));
    }

    #[test]
    fn subtree_equivalence_detects_identical_scans() {
        let (p1, s1, _) = q6_like();
        let (p2, s2, a2) = q6_like();
        assert!(p1.subtree_equivalent(s1, &p2, s2));
        assert!(!p1.subtree_equivalent(s1, &p2, a2));
    }

    #[test]
    fn subtree_equivalence_sensitive_to_costs() {
        let (p1, s1, _) = q6_like();
        let mut b = PlanSpec::new();
        let scan = b.add_leaf(OperatorSpec::new("scan", vec![9.66], vec![99.0]));
        let agg = b.add_node(OperatorSpec::new("agg", vec![0.97], vec![]), vec![scan]);
        let p2 = b.finish(agg).unwrap();
        assert!(!p1.subtree_equivalent(s1, &p2, scan));
    }
}
