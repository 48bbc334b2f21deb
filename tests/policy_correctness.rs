//! Every sharing policy preserves query results, and the threaded
//! executor agrees with the simulated engine: results are
//! policy-invariant even when the schedule is not. Slices of the
//! differential fuzzer (`fuzz`) over multi-query engine batches, and
//! fixed TPC-H and grouped-aggregate cases, all through the fuzzer's one
//! check against `exec::reference`; a failing case prints its number for
//! `REGRESSIONS` in `tests/equivalence.rs`.

mod fuzz;

use cordoba::engine::QuerySpec;
use cordoba::exec::expr::{Agg, CmpOp, Predicate, ScalarExpr};
use cordoba::exec::{OpCost, PhysicalPlan};
use cordoba::storage::{Catalog, DataType, Field, Schema, TableBuilder, Value};
use cordoba::workload::CostProfile;
use fuzz::Substrate::{Batch, Seam};
use fuzz::{Case, Config};

/// `NeverShare` and `AlwaysShare` batches of two or more queries on one
/// to eight contexts.
#[test]
fn all_policies_preserve_results_across_context_counts() {
    let keep = |c: &Case| c.queries.len() > 1;
    let name = "all_policies_preserve_results_across_context_counts";
    let floor = ["shared", "unshared", "group>1"];
    fuzz::run_slice(name, Batch, 4, fuzz::any, keep, &floor);
}

/// Engine batches under budgets of one to four pages with a sort or a
/// hash join: something spills, and every query completes.
#[test]
fn tiny_budget_engine_run_spills_and_preserves_results() {
    let tiny = |c: &Config| c.budget_pages.is_some_and(|p| p <= 4);
    let keep = |c: &Case| c.has("sort") || c.has("hashjoin");
    let name = "tiny_budget_engine_run_spills_and_preserves_results";
    fuzz::run_slice(name, Batch, 4, tiny, keep, &["spill"]);
}

/// 3 000 rows of `(k, v)`, 97 keys, 13 values.
fn grouped() -> (Catalog, QuerySpec) {
    let fields = vec![
        Field::new("k", DataType::Int),
        Field::new("v", DataType::Float),
    ];
    let mut tb = TableBuilder::new("t", Schema::new(fields));
    (0..3000).for_each(|i| tb.push_row(&[Value::Int(i % 97), Value::Float((i % 13) as f64)]));
    let mut catalog = Catalog::new();
    catalog.register(tb.finish());
    let scan = PhysicalPlan::Scan {
        table: "t".into(),
        cost: OpCost::default(),
    };
    // A grouped aggregate over a filtered scan, shared at the scan.
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
    (catalog, QuerySpec::shared_at("grouped", plan, scan))
}

/// The engine's groups on OS threads run the engine's own operator
/// graph: shared or not, on one, two or four copies, its rows are the
/// reference's, float bits and row order included, and so are the
/// simulated engine's when four copies share.
#[test]
fn threaded_and_simulated_execution_agree() {
    let costs = CostProfile::paper();
    let q6 = cordoba::workload::q6(&costs);
    // Scan pivots (q6, q1), hash-join pivots (q4, q13), a query shared
    // whole (no private fragment above the pivot), and a grouped
    // aggregate shared at its scan.
    let whole = QuerySpec::shared_at("q6-whole", q6.plan.clone(), q6.plan.clone());
    let tpch = [
        q6,
        cordoba::workload::q1(&costs),
        cordoba::workload::q4(&costs),
        cordoba::workload::q13(&costs),
        whole,
    ];
    let tpch = tpch.into_iter().map(|spec| (fuzz::tpch().clone(), spec));
    for (catalog, spec) in tpch.chain([grouped()]) {
        let mut case = Case::new(catalog, vec![(0, spec.clone())], Config::default());
        // Across the seam shared, and unshared on two threads.
        for (contexts, share) in [1, 2, 4].into_iter().flat_map(|m| [(m, true), (m, false)]) {
            case.config = Config {
                substrate: Seam,
                share,
                workers: 2,
                contexts,
                ..Config::default()
            };
            fuzz::checked(&case);
        }
        // In the serial simulated engine, four copies shared.
        case.queries = vec![(0, spec); 4];
        case.config = Config {
            share: true,
            contexts: 4,
            ..Config::default()
        };
        fuzz::checked(&case);
    }
}
