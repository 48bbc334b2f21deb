//! Integration: the public reference-executor surface — plan execution,
//! schema derivation, and canonicalization — behaves as the engine and
//! workload crates assume.

#![allow(
    clippy::disallowed_methods,
    reason = "test code: it checks the reference executor itself"
)]

use cordoba_exec::expr::{Agg, CmpOp, Predicate, ScalarExpr};
use cordoba_exec::{reference, JoinKind, OpCost, PhysicalPlan};
use cordoba_storage::{Catalog, DataType, Field, Schema, TableBuilder, Value};

fn catalog() -> Catalog {
    let schema = Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("v", DataType::Float),
    ]);
    let mut b = TableBuilder::new("t", schema);
    for i in 0..500 {
        b.push_row(&[Value::Int(i % 7), Value::Float(i as f64)]);
    }
    let mut c = Catalog::new();
    c.register(b.finish());
    c
}

fn scan() -> Box<PhysicalPlan> {
    Box::new(PhysicalPlan::Scan {
        table: "t".into(),
        cost: OpCost::default(),
    })
}

#[test]
fn executed_rows_match_derived_schema_width() {
    let catalog = catalog();
    let plans = [
        PhysicalPlan::Aggregate {
            input: scan(),
            group_by: vec![0],
            aggs: vec![
                ("n".into(), Agg::Count),
                ("sum_v".into(), Agg::Sum(ScalarExpr::col(1))),
            ],
            cost: OpCost::default(),
        },
        PhysicalPlan::HashJoin {
            build: scan(),
            probe: scan(),
            build_key: 0,
            probe_key: 0,
            kind: JoinKind::Inner,
            build_cost: OpCost::default(),
            probe_cost: OpCost::default(),
        },
        PhysicalPlan::Project {
            input: scan(),
            exprs: vec![(
                "doubled".into(),
                ScalarExpr::Mul(
                    Box::new(ScalarExpr::col(1)),
                    Box::new(ScalarExpr::FloatLit(2.0)),
                ),
            )],
            cost: OpCost::default(),
        },
    ];
    for plan in &plans {
        let width = plan.output_schema(&catalog).len();
        let rows = reference::execute(&catalog, plan);
        assert!(!rows.is_empty(), "{} returned nothing", plan.op_name());
        for row in &rows {
            assert_eq!(row.len(), width, "{} row width", plan.op_name());
        }
    }
}

#[test]
fn canonicalize_is_order_insensitive_and_idempotent() {
    let catalog = catalog();
    let filtered = PhysicalPlan::Filter {
        input: scan(),
        predicate: Predicate::col_cmp(0, CmpOp::Lt, 4i64),
        cost: OpCost::default(),
    };
    let rows = reference::execute(&catalog, &filtered);
    let mut reversed = rows.clone();
    reversed.reverse();
    let a = reference::canonicalize(rows);
    let b = reference::canonicalize(reversed);
    assert_eq!(a, b, "canonical form must not depend on input order");
    assert_eq!(a.clone(), reference::canonicalize(a), "idempotence");
}

#[test]
fn sort_orders_rows_by_key() {
    let catalog = catalog();
    let sorted = PhysicalPlan::Sort {
        input: scan(),
        keys: vec![0],
        cost: OpCost::default(),
    };
    let rows = reference::execute(&catalog, &sorted);
    let keys: Vec<i64> = rows.iter().map(|r| r[0].as_int().unwrap()).collect();
    let mut expect = keys.clone();
    expect.sort();
    assert_eq!(keys, expect, "sort output not ordered");
}
