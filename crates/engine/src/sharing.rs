//! Sub-plan surgery: detecting shareable subtrees and splitting a
//! member query into (shared pivot sub-plan, private above-fragment).
//!
//! `split_with_residual` is the one split, on both substrates: the
//! dispatcher calls it for every member of a sharing group, and
//! `thread_exec` for each consumer of its pivot. The group runs a pivot
//! that semantically contains the member's own
//! ([`cordoba_exec::subsume`]); the member's own pivot subtree becomes a
//! [`PhysicalPlan::Source`] leaf, under a residual filter that
//! re-applies the clauses its pivot has beyond the group's. When the
//! pivots are equal the residual is [`Predicate::True`] and no filter
//! is added, so the wiring (operator count, labels, costs) is that of
//! the exact split.

use cordoba_exec::expr::Predicate;
use cordoba_exec::subsume::{peel_filters, subsume_residual};
use cordoba_exec::SchemaRef;
use cordoba_exec::{ExecError, PhysicalPlan};
use cordoba_storage::Catalog;

/// Whether `needle` occurs as a (structurally equal) subtree of `plan`.
pub fn contains_subtree(plan: &PhysicalPlan, needle: &PhysicalPlan) -> bool {
    plan == needle || plan.children().iter().any(|c| contains_subtree(c, needle))
}

/// Splits `plan` at the first (preorder) occurrence of the `pivot`
/// subtree, returning the private above-fragment with the pivot subtree
/// replaced by a [`PhysicalPlan::Source`] leaf of the pivot's output
/// schema. Returns `Ok(None)` when `plan == pivot` (the whole query is
/// shared and the consumer attaches directly to the pivot's output),
/// and a typed plan error when `pivot` does not occur in `plan` — a bad
/// sharing decision fails only the query it concerns.
fn split_at_pivot(
    plan: &PhysicalPlan,
    pivot: &PhysicalPlan,
    catalog: &Catalog,
) -> Result<Option<PhysicalPlan>, ExecError> {
    if plan == pivot {
        return Ok(None);
    }
    let source = PhysicalPlan::Source {
        schema: SchemaRef(pivot.try_output_schema(catalog)?),
    };
    let mut fragment = plan.clone();
    if !rewrite_first(&mut fragment, &|node| node == pivot, &source) {
        return Err(ExecError::plan("pivot sub-plan not found in query plan"));
    }
    Ok(Some(fragment))
}

/// Splits `plan` for attachment to a group running `group_pivot`, where
/// the member's own shareable subtree is `own_pivot`. Requires that
/// `group_pivot` subsumes `own_pivot`; the un-implied clauses of
/// `own_pivot` become a residual [`PhysicalPlan::Filter`] placed
/// directly over the [`PhysicalPlan::Source`] leaf, so the member's
/// private fragment sees exactly the rows its own pivot would have
/// produced, in the same order. Returns `Ok(None)` when the member's
/// whole plan *is* its pivot and no residual is needed.
pub(crate) fn split_with_residual(
    plan: &PhysicalPlan,
    own_pivot: &PhysicalPlan,
    group_pivot: &PhysicalPlan,
    catalog: &Catalog,
) -> Result<Option<PhysicalPlan>, ExecError> {
    let Some(residual) = subsume_residual(group_pivot, own_pivot) else {
        return Err(ExecError::plan("group pivot does not subsume member pivot"));
    };
    if residual == Predicate::True {
        return split_at_pivot(plan, own_pivot, catalog);
    }
    // The Source leaf carries the *group* pivot's output schema (same
    // base, so identical to the member pivot's schema), and the
    // residual filter restores member-pivot semantics above it. The
    // filter is priced like the member's own outermost peeled filter:
    // the residual work is real per-tuple selection-vector work.
    let schema = SchemaRef(group_pivot.try_output_schema(catalog)?);
    let residual_cost = peel_filters(own_pivot).filter_cost.unwrap_or_default();
    let filtered_source = PhysicalPlan::Filter {
        input: Box::new(PhysicalPlan::Source {
            schema: schema.clone(),
        }),
        predicate: residual,
        cost: residual_cost,
    };
    match split_at_pivot(plan, own_pivot, catalog)? {
        // Whole plan == own pivot: the member becomes just the
        // residual filter over the shared output.
        None => Ok(Some(filtered_source)),
        Some(mut fragment) => {
            let is_source = |node: &PhysicalPlan| matches!(node, PhysicalPlan::Source { .. });
            let grafted = rewrite_first(&mut fragment, &is_source, &filtered_source);
            debug_assert!(grafted, "split fragment must contain a Source leaf");
            Ok(Some(fragment))
        }
    }
}

/// Rewrites the first (preorder) node of `plan` that `matches` into
/// `replacement`, in place; returns whether there was one.
fn rewrite_first(
    plan: &mut PhysicalPlan,
    matches: &impl Fn(&PhysicalPlan) -> bool,
    replacement: &PhysicalPlan,
) -> bool {
    if matches(plan) {
        *plan = replacement.clone();
        return true;
    }
    plan.children_mut()
        .into_iter()
        .any(|child| rewrite_first(child, matches, replacement))
}

/// Preorder index of the first occurrence of `pivot` within `plan`
/// (indices match the task labels produced by `cordoba_exec::wiring` and
/// the node order of profiled model plans).
pub(crate) fn pivot_preorder(plan: &PhysicalPlan, pivot: &PhysicalPlan) -> Option<usize> {
    fn walk(plan: &PhysicalPlan, pivot: &PhysicalPlan, idx: &mut usize) -> Option<usize> {
        let my = *idx;
        *idx += 1;
        if plan == pivot {
            return Some(my);
        }
        for c in plan.children() {
            if let Some(found) = walk(c, pivot, idx) {
                return Some(found);
            }
        }
        None
    }
    let mut idx = 0;
    walk(plan, pivot, &mut idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cordoba_exec::expr::{CmpOp, Predicate};
    use cordoba_exec::OpCost;
    use cordoba_storage::{DataType, Field, Schema, TableBuilder, Value};

    fn catalog() -> Catalog {
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
        let mut b = TableBuilder::new("t", schema);
        b.push_row(&[Value::Int(1)]);
        let mut c = Catalog::new();
        c.register(b.finish());
        c
    }

    fn scan() -> PhysicalPlan {
        PhysicalPlan::Scan {
            table: "t".into(),
            cost: OpCost::default(),
        }
    }

    fn filter_over_scan() -> PhysicalPlan {
        PhysicalPlan::Filter {
            input: Box::new(scan()),
            predicate: Predicate::True,
            cost: OpCost::default(),
        }
    }

    fn band(lo: i64, hi: i64) -> Predicate {
        Predicate::And(vec![
            Predicate::col_cmp(0, CmpOp::Ge, lo),
            Predicate::col_cmp(0, CmpOp::Lt, hi),
        ])
    }

    fn banded(lo: i64, hi: i64) -> PhysicalPlan {
        PhysicalPlan::Filter {
            input: Box::new(scan()),
            predicate: band(lo, hi),
            cost: OpCost::per_tuple(2.0),
        }
    }

    #[test]
    fn contains_matches_nested() {
        assert!(contains_subtree(&filter_over_scan(), &scan()));
        assert!(contains_subtree(&filter_over_scan(), &filter_over_scan()));
        let other = PhysicalPlan::Scan {
            table: "u".into(),
            cost: OpCost::default(),
        };
        assert!(!contains_subtree(&filter_over_scan(), &other));
    }

    #[test]
    fn split_replaces_pivot_with_source() {
        let cat = catalog();
        let fragment = split_at_pivot(&filter_over_scan(), &scan(), &cat)
            .unwrap()
            .unwrap();
        match &fragment {
            PhysicalPlan::Filter { input, .. } => {
                assert!(matches!(**input, PhysicalPlan::Source { .. }));
            }
            other => panic!("expected filter, got {other:?}"),
        }
        // Source schema equals the pivot's output schema.
        assert_eq!(
            fragment.output_schema(&cat),
            filter_over_scan().output_schema(&cat)
        );
    }

    #[test]
    fn whole_plan_pivot_returns_none() {
        let cat = catalog();
        assert!(split_at_pivot(&scan(), &scan(), &cat).unwrap().is_none());
    }

    #[test]
    fn join_pivot_in_probe_side() {
        let cat = catalog();
        let join = PhysicalPlan::HashJoin {
            build: Box::new(scan()),
            probe: Box::new(filter_over_scan()),
            build_key: 0,
            probe_key: 0,
            kind: cordoba_exec::JoinKind::Semi,
            build_cost: OpCost::default(),
            probe_cost: OpCost::default(),
        };
        // Pivot = the probe-side filter fragment: only it is replaced;
        // the build-side scan stays (first occurrence rule applies to
        // the *filter*, which exists only on the probe side).
        let fragment = split_at_pivot(&join, &filter_over_scan(), &cat)
            .unwrap()
            .unwrap();
        match &fragment {
            PhysicalPlan::HashJoin { build, probe, .. } => {
                assert!(matches!(**build, PhysicalPlan::Scan { .. }));
                assert!(matches!(**probe, PhysicalPlan::Source { .. }));
            }
            other => panic!("expected join, got {other:?}"),
        }
    }

    #[test]
    fn first_occurrence_wins_for_duplicate_subtrees() {
        let cat = catalog();
        let join = PhysicalPlan::NestedLoopJoin {
            outer: Box::new(scan()),
            inner: Box::new(scan()),
            predicate: Predicate::True,
            cost: OpCost::default(),
        };
        let fragment = split_at_pivot(&join, &scan(), &cat).unwrap().unwrap();
        match &fragment {
            PhysicalPlan::NestedLoopJoin { outer, inner, .. } => {
                assert!(matches!(**outer, PhysicalPlan::Source { .. }));
                assert!(matches!(**inner, PhysicalPlan::Scan { .. }));
            }
            other => panic!("expected nlj, got {other:?}"),
        }
    }

    #[test]
    fn preorder_indices_match_wiring_labels() {
        // filter(scan): filter=0, scan=1.
        assert_eq!(pivot_preorder(&filter_over_scan(), &scan()), Some(1));
        assert_eq!(
            pivot_preorder(&filter_over_scan(), &filter_over_scan()),
            Some(0)
        );
        let other = PhysicalPlan::Scan {
            table: "u".into(),
            cost: OpCost::default(),
        };
        assert_eq!(pivot_preorder(&filter_over_scan(), &other), None);
    }

    #[test]
    fn split_with_foreign_pivot_errors() {
        let cat = catalog();
        // A pivot over a *known* table that simply isn't part of the
        // plan (an unknown table would already fail schema derivation).
        let other = PhysicalPlan::Scan {
            table: "t".into(),
            cost: OpCost::per_tuple(123.0),
        };
        let err = split_at_pivot(&filter_over_scan(), &other, &cat).unwrap_err();
        assert!(err.to_string().contains("not found"));
    }

    #[test]
    fn residual_split_with_equal_pivots_matches_exact_split() {
        let cat = catalog();
        let join = PhysicalPlan::HashJoin {
            build: Box::new(scan()),
            probe: Box::new(banded(10, 20)),
            build_key: 0,
            probe_key: 0,
            kind: cordoba_exec::JoinKind::Inner,
            build_cost: OpCost::default(),
            probe_cost: OpCost::per_tuple(1.0),
        };
        // A NaN literal equals nothing under `f64`'s `==`, and orders
        // against no bound.
        let nan = PhysicalPlan::Filter {
            input: Box::new(scan()),
            predicate: Predicate::col_cmp(0, CmpOp::Lt, f64::NAN),
            cost: OpCost::per_tuple(2.0),
        };
        for pivot in [banded(10, 20), join, nan] {
            let above = PhysicalPlan::Aggregate {
                input: Box::new(pivot.clone()),
                group_by: vec![],
                aggs: vec![],
                cost: OpCost::default(),
            };
            // Over the pivot, and the whole plan the pivot.
            for plan in [above, pivot.clone()] {
                let exact = split_at_pivot(&plan, &pivot, &cat).unwrap();
                let via_residual = split_with_residual(&plan, &pivot, &pivot, &cat).unwrap();
                assert_eq!(exact, via_residual, "{plan:?}");
                assert_eq!(exact.is_none(), plan == pivot, "{plan:?}");
            }
        }
    }

    #[test]
    fn residual_split_grafts_filter_over_source() {
        let cat = catalog();
        let plan = PhysicalPlan::Aggregate {
            input: Box::new(banded(12, 18)),
            group_by: vec![],
            aggs: vec![],
            cost: OpCost::default(),
        };
        let fragment = split_with_residual(&plan, &banded(12, 18), &banded(10, 20), &cat)
            .unwrap()
            .unwrap();
        // Aggregate(Filter(Source)) with the residual = full narrow band
        // (both bounds are strictly tighter than the wide pivot's).
        match &fragment {
            PhysicalPlan::Aggregate { input, .. } => match &**input {
                PhysicalPlan::Filter {
                    input,
                    predicate,
                    cost,
                } => {
                    assert!(matches!(**input, PhysicalPlan::Source { .. }));
                    assert_eq!(*predicate, band(12, 18));
                    // Residual priced like the member's own filter.
                    assert_eq!(*cost, OpCost::per_tuple(2.0));
                }
                other => panic!("expected residual filter, got {other:?}"),
            },
            other => panic!("expected aggregate, got {other:?}"),
        }
    }

    #[test]
    fn residual_split_of_whole_plan_is_bare_filter() {
        let cat = catalog();
        // The member's entire plan is its pivot: with a wider group
        // pivot it becomes just the residual filter over the Source.
        let fragment = split_with_residual(&banded(12, 18), &banded(12, 18), &banded(10, 20), &cat)
            .unwrap()
            .unwrap();
        match &fragment {
            PhysicalPlan::Filter {
                input, predicate, ..
            } => {
                assert!(matches!(**input, PhysicalPlan::Source { .. }));
                assert_eq!(*predicate, band(12, 18));
            }
            other => panic!("expected filter, got {other:?}"),
        }
    }

    #[test]
    fn residual_split_rejects_non_subsuming_group_pivot() {
        let cat = catalog();
        let err = split_with_residual(&banded(10, 20), &banded(10, 20), &banded(12, 18), &cat)
            .unwrap_err();
        assert!(err.to_string().contains("subsume"));
    }
}
