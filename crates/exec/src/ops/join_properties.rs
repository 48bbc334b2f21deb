//! Property tests for join-family correctness: on random inputs the
//! hash, nested-loop, and merge joins must agree with each other (the
//! paper's Section 5.3 treats the families as interchangeable once
//! blocking phases are accounted for), the semi/anti pair must
//! partition the probe side, and the simulated operator tasks must
//! reproduce the synchronous reference executor.

use crate::cost::OpCost;
use crate::expr::{CmpOp, Predicate, ScalarExpr};
use crate::plan::{JoinKind, PhysicalPlan};
use crate::{reference, wiring};
use cordoba_sim::Simulator;
use cordoba_storage::{Catalog, DataType, Field, Schema, TableBuilder, Value};
use proptest::prelude::*;

/// Registers `l` and `r` as two-column (key, payload) tables.
fn kv_catalog(left: &[(i64, i64)], right: &[(i64, i64)]) -> Catalog {
    let mut catalog = Catalog::new();
    for (name, rows) in [("l", left), ("r", right)] {
        let schema = Schema::new(vec![
            Field::new(format!("{name}k"), DataType::Int),
            Field::new(format!("{name}v"), DataType::Int),
        ]);
        let mut tb = TableBuilder::new(name, schema);
        for (k, v) in rows {
            tb.push_row(&[Value::Int(*k), Value::Int(*v)]);
        }
        catalog.register(tb.finish());
    }
    catalog
}

fn scan(table: &str) -> Box<PhysicalPlan> {
    Box::new(PhysicalPlan::Scan {
        table: table.into(),
        cost: OpCost::default(),
    })
}

fn sorted(table: &str) -> Box<PhysicalPlan> {
    Box::new(PhysicalPlan::Sort {
        input: scan(table),
        keys: vec![0],
        cost: OpCost::default(),
    })
}

/// Inner hash join l ⨝ r on the key columns; output is l ++ r.
fn hash_inner() -> PhysicalPlan {
    PhysicalPlan::HashJoin {
        build: scan("r"),
        probe: scan("l"),
        build_key: 0,
        probe_key: 0,
        kind: JoinKind::Inner,
        build_cost: OpCost::default(),
        probe_cost: OpCost::default(),
    }
}

/// Small key domains force duplicates and collisions on both sides.
fn kv_rows() -> impl Strategy<Value = Vec<(i64, i64)>> {
    proptest::collection::vec((0i64..8, 0i64..100), 0..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Hash join ≡ nested-loop join ≡ merge join on random inputs.
    #[test]
    fn hash_nlj_merge_joins_agree(left in kv_rows(), right in kv_rows()) {
        let catalog = kv_catalog(&left, &right);
        let nlj = PhysicalPlan::NestedLoopJoin {
            outer: scan("l"),
            inner: scan("r"),
            // Key equality over the concatenated (l ++ r) schema.
            predicate: Predicate::cmp(ScalarExpr::col(0), CmpOp::Eq, ScalarExpr::col(2)),
            cost: OpCost::default(),
        };
        let merge = PhysicalPlan::MergeJoin {
            left: sorted("l"),
            right: sorted("r"),
            left_key: 0,
            right_key: 0,
            cost: OpCost::default(),
        };
        let via_hash = reference::canonicalize(reference::execute(&catalog, &hash_inner()));
        let via_nlj = reference::canonicalize(reference::execute(&catalog, &nlj));
        let via_merge = reference::canonicalize(reference::execute(&catalog, &merge));
        prop_assert_eq!(&via_hash, &via_nlj, "hash vs nested-loop");
        prop_assert_eq!(&via_hash, &via_merge, "hash vs merge");
    }

    /// Semi and anti joins partition the probe side: every probe row
    /// appears in exactly one of the two outputs.
    #[test]
    fn semi_and_anti_partition_probe_rows(left in kv_rows(), right in kv_rows()) {
        let catalog = kv_catalog(&left, &right);
        let join = |kind| PhysicalPlan::HashJoin {
            build: scan("r"),
            probe: scan("l"),
            build_key: 0,
            probe_key: 0,
            kind,
            build_cost: OpCost::default(),
            probe_cost: OpCost::default(),
        };
        let mut semi = reference::execute(&catalog, &join(JoinKind::Semi));
        let anti = reference::execute(&catalog, &join(JoinKind::Anti));
        semi.extend(anti);
        prop_assert_eq!(
            reference::canonicalize(semi),
            reference::canonicalize(reference::execute(&catalog, &scan("l")))
        );
    }

    /// A left-outer join keeps every inner match and pads exactly the
    /// anti-join rows with default build columns.
    #[test]
    fn left_outer_extends_inner_with_unmatched_probes(
        left in kv_rows(),
        right in kv_rows(),
    ) {
        let catalog = kv_catalog(&left, &right);
        let outer = PhysicalPlan::HashJoin {
            build: scan("r"),
            probe: scan("l"),
            build_key: 0,
            probe_key: 0,
            kind: JoinKind::LeftOuter,
            build_cost: OpCost::default(),
            probe_cost: OpCost::default(),
        };
        let anti = PhysicalPlan::HashJoin {
            build: scan("r"),
            probe: scan("l"),
            build_key: 0,
            probe_key: 0,
            kind: JoinKind::Anti,
            build_cost: OpCost::default(),
            probe_cost: OpCost::default(),
        };
        let n_outer = reference::execute(&catalog, &outer).len();
        let n_inner = reference::execute(&catalog, &hash_inner()).len();
        let n_anti = reference::execute(&catalog, &anti).len();
        prop_assert_eq!(n_outer, n_inner + n_anti);
    }

    /// The simulated hash-join task pipeline (scan → build/probe →
    /// sink) produces exactly the reference executor's rows.
    #[test]
    fn simulated_hash_join_matches_reference(left in kv_rows(), right in kv_rows()) {
        let catalog = kv_catalog(&left, &right);
        let plan = hash_inner();
        let expected = reference::canonicalize(reference::execute(&catalog, &plan));

        // At one morsel worker and at four, whose scans are morsel groups.
        for workers in [1, 4] {
            let parallel = crate::ParallelConfig::with_workers(workers);
            let cfg = wiring::WiringConfig { parallel, ..Default::default() };
            let mut sim = Simulator::new(3);
            let (rx, _ops, res) = wiring::instantiate(&mut sim, &catalog, &plan, "hj", &cfg)
                .expect("plan wires");
            let rows = wiring::run_and_collect(&mut sim, rx, OpCost::default(), &res.fault);
            prop_assert_eq!(rows.map(reference::canonicalize), Ok(expected.clone()));
        }
    }
}
