//! Integration: the public reference-executor surface — plan execution,
//! schema derivation, and canonicalization — behaves as the engine and
//! workload crates assume.

#![allow(
    clippy::disallowed_methods,
    reason = "test code: it checks the reference executor itself"
)]

use cordoba_exec::expr::{Agg, CmpOp, Predicate, ScalarExpr};
use cordoba_exec::{reference, JoinKind, OpCost, PhysicalPlan};
use cordoba_storage::{Catalog, DataType, Date, Field, Schema, TableBuilder, Value};

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

    // Rows apart only in a NaN's sign or a zero's sign still order apart.
    let signed: Vec<Vec<Value>> = [f64::NAN, -f64::NAN, 0.0, -0.0]
        .into_iter()
        .map(|x| vec![Value::Int(1), Value::Float(x)])
        .collect();
    let mut reversed = signed.clone();
    reversed.reverse();
    let a = reference::canonicalize(signed);
    let b = reference::canonicalize(reversed);
    assert_eq!(bits(&a), bits(&b), "NaN and zero signs order the rows");
    assert_eq!(
        bits(&a),
        bits(&reference::canonicalize(a.clone())),
        "idempotence"
    );
}

/// Rows with each float as its bit pattern: `Value`'s `PartialEq` says
/// NaN ≠ NaN and -0.0 = 0.0.
fn bits(rows: &[Vec<Value>]) -> Vec<Vec<String>> {
    let show = |v: &Value| match v {
        Value::Float(x) => format!("Float({:#018x})", x.to_bits()),
        v => format!("{v:?}"),
    };
    rows.iter()
        .map(|row| row.iter().map(show).collect())
        .collect()
}

/// A probe table `p` and a build table `b` of every dtype, over pages of
/// two rows: strings shorter than their width, a NaN with a payload and
/// -0.0 on both sides; probe key 3 has no build row.
fn every_dtype_catalog() -> Catalog {
    let nan = f64::from_bits(0x7ff8_0000_0000_00a5);
    let mut c = Catalog::new();
    for (name, rows) in [
        (
            "p",
            vec![
                (2, -0.0, 9, ""),
                (1, nan, -3, "ab"),
                (3, 1.5, 0, "xyz"),
                (1, 2.5, 7, "q"),
            ],
        ),
        (
            "b",
            vec![(1, -nan, 4, "zz"), (2, -0.0, -1, ""), (1, 0.25, 5, "y")],
        ),
    ] {
        let schema = Schema::new(vec![
            Field::new(format!("{name}k"), DataType::Int),
            Field::new(format!("{name}x"), DataType::Float),
            Field::new(format!("{name}d"), DataType::Date),
            Field::new(format!("{name}s"), DataType::Str(6)),
        ]);
        let mut t = TableBuilder::with_page_size(name, schema, 64);
        for (k, x, d, s) in rows {
            t.push_row(&[
                Value::Int(k),
                Value::Float(x),
                Value::Date(Date(d)),
                Value::Str(s.into()),
            ]);
        }
        c.register(t.finish());
    }
    c
}

/// Rows the oracle passes through or joins end to end are the input
/// rows, bit for bit: a copied row cannot drift from the values it
/// holds, a NaN's payload and a zero's sign included.
#[test]
fn copied_rows_are_input_rows_bit_for_bit() {
    let catalog = every_dtype_catalog();
    let table = |name: &str| {
        Box::new(PhysicalPlan::Scan {
            table: name.into(),
            cost: OpCost::default(),
        })
    };
    let sorted = |name: &str| {
        Box::new(PhysicalPlan::Sort {
            input: table(name),
            keys: vec![0],
            cost: OpCost::default(),
        })
    };
    let hash = |kind| PhysicalPlan::HashJoin {
        build: table("b"),
        probe: table("p"),
        build_key: 0,
        probe_key: 0,
        kind,
        build_cost: OpCost::default(),
        probe_cost: OpCost::default(),
    };
    let canon = |rows: Vec<Vec<Value>>| bits(&reference::canonicalize(rows));
    let run = |plan: &PhysicalPlan| canon(reference::execute(&catalog, plan));
    let (p, b) = (
        reference::execute(&catalog, &table("p")),
        reference::execute(&catalog, &table("b")),
    );
    let key = |row: &[Value]| row[0].as_int().expect("an Int key");
    let probes_with = |hit: bool| -> Vec<Vec<Value>> {
        let hits = |r: &Vec<Value>| b.iter().any(|br| key(br) == key(r));
        p.iter().filter(|r| hits(r) == hit).cloned().collect()
    };
    let pairs: Vec<Vec<Value>> = p
        .iter()
        .flat_map(|pr| {
            b.iter()
                .filter(move |br| key(br) == key(pr))
                .map(move |br| [pr.clone(), br.clone()].concat())
        })
        .collect();
    let defaults = [
        Value::Int(0),
        Value::Float(0.0),
        Value::Date(Date(0)),
        Value::Str(String::new()),
    ];
    let misses: Vec<Vec<Value>> = probes_with(false)
        .into_iter()
        .map(|pr| [pr, defaults.to_vec()].concat())
        .collect();
    assert_eq!((pairs.len(), misses.len()), (5, 1), "fixture shape");

    let filter = PhysicalPlan::Filter {
        input: table("p"),
        predicate: Predicate::col_cmp(0, CmpOp::Ne, 3i64),
        cost: OpCost::default(),
    };
    let kept: Vec<Vec<Value>> = p.iter().filter(|r| key(r) != 3).cloned().collect();
    assert_eq!(
        bits(&reference::execute(&catalog, &filter)),
        bits(&kept),
        "filter"
    );
    // A stable sort on the key: equal keys keep their input order.
    let mut by_key = p.clone();
    by_key.sort_by_key(|r| key(r));
    assert_eq!(
        bits(&reference::execute(&catalog, &sorted("p"))),
        bits(&by_key),
        "sort"
    );
    assert_eq!(run(&hash(JoinKind::Semi)), canon(probes_with(true)), "semi");
    assert_eq!(
        run(&hash(JoinKind::Anti)),
        canon(probes_with(false)),
        "anti"
    );
    assert_eq!(run(&hash(JoinKind::Inner)), canon(pairs.clone()), "inner");
    assert_eq!(
        run(&hash(JoinKind::LeftOuter)),
        canon([pairs.clone(), misses].concat()),
        "left outer"
    );
    let merge = PhysicalPlan::MergeJoin {
        left: sorted("p"),
        right: sorted("b"),
        left_key: 0,
        right_key: 0,
        cost: OpCost::default(),
    };
    assert_eq!(run(&merge), canon(pairs), "merge join");
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
