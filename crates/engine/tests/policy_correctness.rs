//! Integration: every sharing policy must preserve query results, and
//! the threaded executor must agree with the simulated engine — results
//! are policy-invariant even when the schedule is not.

use cordoba_engine::{
    run_once, thread_exec, EngineConfig, MemoryConfig, ParallelConfig, Policy, QuerySpec,
};
use cordoba_exec::expr::{Agg, CmpOp, Predicate, ScalarExpr};
use cordoba_exec::{reference, JoinKind, OpCost, PhysicalPlan};
use cordoba_storage::{Catalog, DataType, Field, Schema, TableBuilder, Value, PAGE_SIZE};

fn catalog() -> Catalog {
    let schema = Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("v", DataType::Float),
    ]);
    let mut b = TableBuilder::new("t", schema);
    for i in 0..3000 {
        b.push_row(&[Value::Int(i % 97), Value::Float((i % 13) as f64)]);
    }
    let mut c = Catalog::new();
    c.register(b.finish());
    c
}

/// Grouped aggregate over a filtered scan, shareable at the scan.
fn query() -> QuerySpec {
    let scan = PhysicalPlan::Scan {
        table: "t".into(),
        cost: OpCost::default(),
    };
    let plan = PhysicalPlan::Aggregate {
        input: Box::new(PhysicalPlan::Filter {
            input: Box::new(scan.clone()),
            predicate: Predicate::col_cmp(0, CmpOp::Lt, 50i64),
            cost: OpCost::default(),
        }),
        group_by: vec![0],
        aggs: vec![
            ("n".into(), Agg::Count),
            ("total".into(), Agg::Sum(ScalarExpr::col(1))),
        ],
        cost: OpCost::default(),
    };
    QuerySpec::shared_at("grouped", plan, scan)
}

#[test]
fn all_policies_preserve_results_across_context_counts() {
    let catalog = catalog();
    let spec = query();
    let expected = reference::execute(&catalog, &spec.plan);
    assert!(!expected.is_empty());
    for contexts in [1usize, 2, 8] {
        for policy in [Policy::NeverShare, Policy::AlwaysShare] {
            let label = format!("{policy:?} on {contexts} contexts");
            let out = run_once(
                &catalog,
                &vec![spec.clone(); 5],
                &EngineConfig {
                    contexts,
                    policy: policy.clone(),
                    ..EngineConfig::default()
                },
            );
            assert_eq!(out.results.len(), 5, "{label}: lost queries");
            for rows in &out.results {
                assert_eq!(rows, &expected, "{label}: diverged");
            }
        }
    }
}

/// A tiny per-query budget forces the engine's sorts and hash joins
/// out of core; every query must still complete (spill, not fail) with
/// rows identical to an unbounded run.
#[test]
fn tiny_budget_engine_run_spills_and_preserves_results() {
    let catalog = catalog();
    let scan = || {
        Box::new(PhysicalPlan::Scan {
            table: "t".into(),
            cost: OpCost::default(),
        })
    };
    let sort = QuerySpec::unshared(
        "sorted",
        PhysicalPlan::Sort {
            input: scan(),
            keys: vec![0],
            cost: OpCost::default(),
        },
    );
    let join = QuerySpec::unshared(
        "joined",
        PhysicalPlan::HashJoin {
            build: Box::new(PhysicalPlan::Filter {
                input: scan(),
                predicate: Predicate::col_cmp(0, CmpOp::Lt, 10i64),
                cost: OpCost::default(),
            }),
            probe: scan(),
            build_key: 0,
            probe_key: 0,
            kind: JoinKind::Inner,
            build_cost: OpCost::default(),
            probe_cost: OpCost::default(),
        },
    );
    let specs = vec![sort, join];
    let unbounded = run_once(
        &catalog,
        &specs,
        &EngineConfig {
            contexts: 2,
            ..EngineConfig::default()
        },
    );
    let tiny = run_once(
        &catalog,
        &specs,
        &EngineConfig {
            contexts: 2,
            memory: MemoryConfig {
                query_budget: Some(2 * PAGE_SIZE),
                ..MemoryConfig::default()
            },
            ..EngineConfig::default()
        },
    );
    assert!(unbounded.failures.is_empty(), "{:?}", unbounded.failures);
    assert!(
        tiny.failures.is_empty(),
        "tiny budget must spill, not fail: {:?}",
        tiny.failures
    );
    // The sort's order is deterministic; the join's output order may
    // differ across spill partitions, so compare it as a multiset.
    assert_eq!(tiny.results[0], unbounded.results[0], "sort diverged");
    assert_eq!(
        reference::canonicalize(tiny.results[1].clone()),
        reference::canonicalize(unbounded.results[1].clone()),
        "join diverged"
    );
}

/// Rows with floats replaced by their bit patterns, so equality is
/// bit-for-bit (`Value`'s `==` lets `-0.0 == 0.0` through).
fn bits(rows: &[Vec<Value>]) -> Vec<Vec<Value>> {
    let bit = |v: &Value| match v {
        Value::Float(f) => Value::Int(f.to_bits() as i64),
        other => other.clone(),
    };
    rows.iter().map(|r| r.iter().map(bit).collect()).collect()
}

/// The real-thread executor runs the engine's own operator graph, so
/// for every sharing mode and group size its rows are those of the
/// serial simulated engine — same float bits, same row order — whatever
/// `CORDOBA_WORKERS` says (this test also runs in CI's workers=4 leg;
/// only the simulated side needs pinning).
#[test]
fn threaded_and_simulated_execution_agree() {
    let tpch = cordoba_storage::tpch::generate(&cordoba_storage::tpch::TpchConfig {
        scale_factor: 0.002,
        seed: 11,
        ..cordoba_storage::tpch::TpchConfig::default()
    });
    let costs = cordoba_workload::CostProfile::paper();
    let q6 = cordoba_workload::q6(&costs);
    // Scan pivots (q6, q1), hash-join pivots (q4, q13), and a query
    // shared whole (no private fragment above the pivot).
    let whole = QuerySpec::shared_at("q6-whole", q6.plan.clone(), q6.plan.clone());
    let tpch_specs = [
        q6,
        cordoba_workload::q1(&costs),
        cordoba_workload::q4(&costs),
        cordoba_workload::q13(&costs),
        whole,
    ];
    let small = catalog();
    let cases = tpch_specs
        .iter()
        .map(|spec| (&tpch, spec.clone()))
        .chain([(&small, query())]);
    for (catalog, spec) in cases {
        let serial = EngineConfig {
            parallel: ParallelConfig::with_workers(1),
            ..EngineConfig::default()
        };
        let sim = run_once(catalog, std::slice::from_ref(&spec), &serial);
        assert!(sim.failures.is_empty(), "{}: {:?}", spec.name, sim.failures);
        assert_eq!(
            sim.results[0],
            reference::execute(catalog, &spec.plan),
            "{}: simulated run diverged from the reference",
            spec.name
        );
        let want = bits(&sim.results[0]);
        for m in [1usize, 2, 4] {
            let unshared = thread_exec::run_unshared(catalog, &spec, m, 2);
            let shared = thread_exec::run_shared(catalog, &spec, m);
            assert_eq!((unshared.results.len(), shared.results.len()), (m, m));
            for rows in unshared.results.iter().chain(&shared.results) {
                assert_eq!(bits(rows), want, "{} m={m}: threads diverged", spec.name);
            }
        }
        let shared_sim = run_once(
            catalog,
            &vec![spec.clone(); 4],
            &EngineConfig {
                contexts: 4,
                policy: Policy::AlwaysShare,
                ..serial
            },
        );
        for rows in &shared_sim.results {
            assert_eq!(
                bits(rows),
                want,
                "{}: simulated shared run diverged",
                spec.name
            );
        }
    }
}
