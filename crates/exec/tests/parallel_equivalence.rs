//! Property tests for morsel-driven parallelism: on random inputs, the
//! parallel paths must be indistinguishable from the serial executor.
//!
//! One implementation, two substrates — both pinned:
//!
//! * the **simulated** morsel wiring (`WiringConfig.parallel`): fused
//!   scan→filter→project worker tasks with morsel-ordered reassembly
//!   are *row-for-row* identical to the single-worker wiring and the
//!   synchronous reference — order-preserving by construction; the
//!   per-worker partial aggregates merge in worker-index order, which
//!   is bit-exact here because the float payloads are integer-valued
//!   (exact under f64 addition in any order);
//! * the **real-thread** driver (`wiring::run_local`): the same worker
//!   tasks on OS threads. Everything — joins of every kind included —
//!   is row-for-row identical to the serial wiring at every worker
//!   count; under a two-page budget the hash join spills (partitions
//!   come back partition by partition) and is compared as a multiset.

use cordoba_exec::expr::{Agg, CmpOp, Predicate, ScalarExpr};
use cordoba_exec::wiring::{self, WiringConfig};
use cordoba_exec::{
    reference, JoinKind, MemoryBroker, MemoryConfig, OpCost, ParallelConfig, PhysicalPlan,
    QueryResources,
};
use cordoba_sim::Simulator;
use cordoba_storage::{Catalog, DataType, Field, Schema, TableBuilder, Value, PAGE_SIZE};
use proptest::prelude::*;

/// Small pages so even modest row counts span many morsels.
const TEST_PAGE_ROWS: usize = 64;

/// Runs `plan` through the simulator with `workers` morsel workers and
/// an optional memory budget; panics on any fault.
fn run_wired(
    catalog: &Catalog,
    plan: &PhysicalPlan,
    workers: usize,
    budget: Option<usize>,
) -> Vec<Vec<Value>> {
    let cfg = WiringConfig {
        memory: MemoryConfig {
            query_budget: budget,
            ..MemoryConfig::default()
        },
        parallel: ParallelConfig {
            workers,
            morsel_pages: 1,
        },
        ..WiringConfig::default()
    };
    let mut sim = Simulator::new(workers.max(2));
    let (rx, _ops, res) =
        wiring::instantiate(&mut sim, catalog, plan, "par-eq", &cfg).expect("plan wires");
    wiring::run_and_collect(&mut sim, rx, OpCost::default(), &res.fault)
        .expect("parallel query must complete")
}

/// Runs `plan` through the real-thread driver with `workers` one-page-
/// morsel workers per parallel fragment, charging `broker`.
fn run_threaded(
    catalog: &Catalog,
    plan: &PhysicalPlan,
    workers: usize,
    broker: &MemoryBroker,
) -> Vec<Vec<Value>> {
    let cfg = WiringConfig {
        parallel: ParallelConfig {
            workers,
            morsel_pages: 1,
        },
        ..WiringConfig::serial()
    };
    let pages = wiring::run_local(catalog, plan, &cfg, &QueryResources::charging(broker))
        .expect("threaded query must complete");
    wiring::page_rows(&pages)
}

/// Maps rows to a bit-exact representation: floats by `to_bits`.
fn bit_exact(rows: &[Vec<Value>]) -> Vec<Vec<(u8, u64)>> {
    rows.iter()
        .map(|row| {
            row.iter()
                .map(|v| match v {
                    Value::Int(i) => (0u8, *i as u64),
                    Value::Float(f) => (1u8, f.to_bits()),
                    other => (2u8, format!("{other:?}").len() as u64),
                })
                .collect()
        })
        .collect()
}

/// One-table catalog of `(k: Int, v: Float)` rows on small pages. The
/// float payloads are integer-valued, so every aggregate sum is exact
/// regardless of addition order.
fn kf_catalog(rows: &[(i64, i64)]) -> Catalog {
    let schema = Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("v", DataType::Float),
    ]);
    let mut tb = TableBuilder::with_page_size("t", schema, TEST_PAGE_ROWS);
    for (k, v) in rows {
        tb.push_row(&[Value::Int(*k), Value::Float(*v as f64)]);
    }
    let mut c = Catalog::new();
    c.register(tb.finish());
    c
}

/// Two-table catalog of `(k: Int, v: Int)` rows for joins.
fn kv_catalog(left: &[(i64, i64)], right: &[(i64, i64)]) -> Catalog {
    let mut catalog = Catalog::new();
    for (name, rows) in [("l", left), ("r", right)] {
        let schema = Schema::new(vec![
            Field::new(format!("{name}k"), DataType::Int),
            Field::new(format!("{name}v"), DataType::Int),
        ]);
        let mut tb = TableBuilder::with_page_size(name, schema, TEST_PAGE_ROWS);
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

/// Scan → filter → project pipeline over the `(k, v)` table.
fn pipeline_plan(cutoff: i64) -> PhysicalPlan {
    PhysicalPlan::Project {
        input: Box::new(PhysicalPlan::Filter {
            input: scan("t"),
            predicate: Predicate::col_cmp(0, CmpOp::Lt, cutoff),
            cost: OpCost::default(),
        }),
        exprs: vec![
            ("k".into(), ScalarExpr::col(0)),
            (
                "v2".into(),
                ScalarExpr::Mul(
                    Box::new(ScalarExpr::col(1)),
                    Box::new(ScalarExpr::FloatLit(2.0)),
                ),
            ),
        ],
        cost: OpCost::default(),
    }
}

/// `aggs` per `group_by` key over the filtered `(k, v)` table.
fn aggregate_plan(cutoff: i64, group_by: Vec<usize>, aggs: Vec<Agg>) -> PhysicalPlan {
    PhysicalPlan::Aggregate {
        input: Box::new(PhysicalPlan::Filter {
            input: scan("t"),
            predicate: Predicate::col_cmp(0, CmpOp::Lt, cutoff),
            cost: OpCost::default(),
        }),
        group_by,
        aggs: (0..).map(|i| format!("a{i}")).zip(aggs).collect(),
        cost: OpCost::default(),
    }
}

/// Every function over `v`, `Sum` and `Avg` also over `v * 2` (which
/// gathers `v` again) and `v` once more: per-worker cores share state
/// columns between these, and the merge must not count any twice.
fn duplicated_inputs() -> Vec<Agg> {
    let v = || ScalarExpr::col(1);
    let v2 = || ScalarExpr::Mul(Box::new(v()), Box::new(ScalarExpr::FloatLit(2.0)));
    vec![
        Agg::Sum(v()),
        Agg::Avg(v()),
        Agg::Min(v()),
        Agg::Count,
        Agg::Max(v()),
        Agg::Avg(v2()),
        Agg::Sum(v2()),
        Agg::Sum(v()),
        Agg::Count,
    ]
}

/// A {filter | project}* chain over the `(k, v)` table, one stage per
/// `(kind, n)` pair, bottom-up. Every stage leaves `(Int, Float)` in
/// its first two columns, so any stage can follow any other; kind 4
/// widens the rows by a third column (output pages fill faster than
/// input pages drain), kind 3 narrows them back.
fn chain_plan(stages: &[(u8, i64)]) -> PhysicalPlan {
    let col = ScalarExpr::col;
    let int = |e: ScalarExpr, n: i64| ScalarExpr::Add(Box::new(e), Box::new(ScalarExpr::IntLit(n)));
    let twice = |e: ScalarExpr| ScalarExpr::Mul(Box::new(e), Box::new(ScalarExpr::FloatLit(2.0)));
    let mut plan = *scan("t");
    for &(kind, n) in stages {
        let (input, cost) = (Box::new(plan), OpCost::default());
        let filter = |predicate| PhysicalPlan::Filter {
            input: input.clone(),
            predicate,
            cost,
        };
        let project = |exprs: Vec<ScalarExpr>| PhysicalPlan::Project {
            input: input.clone(),
            exprs: (0..).map(|i| format!("c{i}")).zip(exprs).collect(),
            cost,
        };
        plan = match kind {
            0 => filter(Predicate::col_cmp(0, CmpOp::Lt, n)),
            1 => filter(Predicate::col_cmp(0, CmpOp::Ge, n / 2)),
            2 => project(vec![int(col(0), n), twice(col(1))]),
            3 => project(vec![col(0), col(1)]),
            _ => project(vec![col(0), col(1), int(col(0), -n)]),
        };
    }
    plan
}

/// Keyed rows; small key domains force duplicates and grouping.
fn kv_rows(max: usize) -> impl Strategy<Value = Vec<(i64, i64)>> {
    proptest::collection::vec((0i64..48, -1000i64..1000), 0..max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The morsel-parallel pipeline wiring is row-for-row identical to
    /// the serial wiring and the synchronous reference at every worker
    /// count — the ordered reassembly must hide the parallelism
    /// completely.
    #[test]
    fn parallel_pipeline_is_row_identical_to_serial(
        rows in kv_rows(1500),
        cutoff in 0i64..48,
    ) {
        let catalog = kf_catalog(&rows);
        let plan = pipeline_plan(cutoff);
        let serial = run_wired(&catalog, &plan, 1, None);
        let oracle = reference::execute(&catalog, &plan);
        prop_assert_eq!(bit_exact(&serial), bit_exact(&oracle));
        for workers in [2usize, 4, 8] {
            let par = run_wired(&catalog, &plan, workers, None);
            prop_assert_eq!(bit_exact(&par), bit_exact(&serial), "workers={}", workers);
        }
    }

    /// Any {filter | project}* chain yields the same rows through the
    /// serial wiring — one operator shell per stage — and through the
    /// morsel workers' fused pipelines. Both run the same filter and
    /// project kernels, so this pins the two wirings around them: stage
    /// order, schemas handed from stage to stage, tails flushed per
    /// morsel page against tails flushed at end of stream.
    #[test]
    fn any_filter_project_chain_is_row_identical_through_shells_and_workers(
        rows in kv_rows(1200),
        stages in proptest::collection::vec((0u8..5, 0i64..48), 0..6),
    ) {
        let catalog = kf_catalog(&rows);
        let plan = chain_plan(&stages);
        let serial = run_wired(&catalog, &plan, 1, None);
        let oracle = reference::execute(&catalog, &plan);
        prop_assert_eq!(bit_exact(&serial), bit_exact(&oracle));
        for workers in [2usize, 3] {
            let par = run_wired(&catalog, &plan, workers, None);
            prop_assert_eq!(bit_exact(&par), bit_exact(&serial), "workers={}", workers);
        }
    }

    /// Per-worker partial aggregates merged in worker order are
    /// bit-exact against the serial path — the integer-valued float
    /// payloads make the f64 sums order-independent, so any divergence
    /// is a real merge bug, not reassociation noise.
    #[test]
    fn parallel_aggregate_is_bit_exact(
        rows in kv_rows(1500),
        cutoff in 0i64..48,
    ) {
        let catalog = kf_catalog(&rows);
        for (group_by, aggs) in [
            (vec![0], vec![Agg::Sum(ScalarExpr::col(1)), Agg::Count]),
            (vec![0], duplicated_inputs()),
            (vec![], duplicated_inputs()),
        ] {
            let plan = aggregate_plan(cutoff, group_by, aggs);
            let serial = run_wired(&catalog, &plan, 1, None);
            let oracle = reference::execute(&catalog, &plan);
            prop_assert_eq!(bit_exact(&serial), bit_exact(&oracle), "{:?}", plan);
            for workers in [2usize, 4, 8] {
                let par = run_wired(&catalog, &plan, workers, None);
                prop_assert_eq!(bit_exact(&par), bit_exact(&serial), "workers={} {:?}", workers, plan);
            }
        }
    }

    /// A hash join fed by parallel chains, run under a two-page budget:
    /// the spill machinery and the morsel wiring compose without
    /// changing the result multiset.
    #[test]
    fn parallel_join_with_tiny_budget_matches_reference(
        left in kv_rows(600),
        right in kv_rows(600),
        kind_ix in 0usize..4,
    ) {
        let kind = [JoinKind::Inner, JoinKind::Semi, JoinKind::Anti, JoinKind::LeftOuter][kind_ix];
        let catalog = kv_catalog(&left, &right);
        let plan = PhysicalPlan::HashJoin {
            build: scan("r"),
            probe: scan("l"),
            build_key: 0,
            probe_key: 0,
            kind,
            build_cost: OpCost::default(),
            probe_cost: OpCost::default(),
        };
        let oracle = reference::canonicalize(reference::execute(&catalog, &plan));
        for workers in [1usize, 4] {
            for budget in [None, Some(2 * PAGE_SIZE)] {
                let got = reference::canonicalize(run_wired(&catalog, &plan, workers, budget));
                prop_assert_eq!(
                    &got, &oracle,
                    "workers={} budget={:?} kind={:?}", workers, budget, kind
                );
            }
        }
    }

    /// A hash join of any kind through the real-thread driver is
    /// row-for-row the serial wiring's at every worker count (the merge
    /// tasks hand the join the serial row stream); under a two-page
    /// broker it spills and matches the reference as a multiset, and
    /// every grant comes back.
    #[test]
    fn threaded_executor_matches_reference(
        left in kv_rows(400),
        right in kv_rows(400),
    ) {
        let catalog = kv_catalog(&left, &right);
        for kind in [JoinKind::Inner, JoinKind::Semi, JoinKind::Anti, JoinKind::LeftOuter] {
            let plan = PhysicalPlan::HashJoin {
                build: scan("r"),
                probe: scan("l"),
                build_key: 0,
                probe_key: 0,
                kind,
                build_cost: OpCost::default(),
                probe_cost: OpCost::default(),
            };
            let serial = run_wired(&catalog, &plan, 1, None);
            let oracle = reference::canonicalize(reference::execute(&catalog, &plan));
            prop_assert_eq!(&reference::canonicalize(serial.clone()), &oracle, "{:?}", kind);
            for workers in [1usize, 2, 4, 8] {
                let unbounded = run_threaded(&catalog, &plan, workers, &MemoryBroker::unbounded());
                prop_assert_eq!(&unbounded, &serial, "{:?} workers={}", kind, workers);
                let broker = MemoryBroker::with_budget(2 * PAGE_SIZE);
                let budgeted = run_threaded(&catalog, &plan, workers, &broker);
                prop_assert_eq!(
                    &reference::canonicalize(budgeted), &oracle,
                    "{:?} workers={} (budgeted)", kind, workers
                );
                prop_assert_eq!(broker.used(), 0, "grants leaked");
            }
        }
    }

    /// Sorts, merge joins and nested-loop joins are not morsel-parallel:
    /// they run as the serial operator tasks in the plan's run loop,
    /// over worker groups on threads. Row-for-row equal to the
    /// reference at every worker count, also when a two-page broker
    /// forces the sorts to spill, and every grant comes back.
    #[test]
    fn threaded_sort_and_ordered_joins_match_reference(
        left in kv_rows(300),
        right in kv_rows(300),
        cutoff in 0i64..48,
    ) {
        let catalog = kv_catalog(&left, &right);
        let sorted = |input: Box<PhysicalPlan>| Box::new(PhysicalPlan::Sort {
            input,
            keys: vec![0, 1],
            cost: OpCost::default(),
        });
        let low_left = || Box::new(PhysicalPlan::Filter {
            input: scan("l"),
            predicate: Predicate::col_cmp(0, CmpOp::Lt, cutoff),
            cost: OpCost::default(),
        });
        let merge = PhysicalPlan::MergeJoin {
            left: sorted(low_left()),
            right: sorted(scan("r")),
            left_key: 0,
            right_key: 0,
            cost: OpCost::default(),
        };
        let nlj = PhysicalPlan::NestedLoopJoin {
            outer: low_left(),
            inner: scan("r"),
            predicate: Predicate::cmp(ScalarExpr::col(0), CmpOp::Eq, ScalarExpr::col(2)),
            cost: OpCost::default(),
        };
        for plan in [merge, nlj] {
            let oracle = reference::execute(&catalog, &plan);
            for workers in [1usize, 2, 4, 8] {
                for broker in [MemoryBroker::unbounded(), MemoryBroker::with_budget(2 * PAGE_SIZE)] {
                    let got = run_threaded(&catalog, &plan, workers, &broker);
                    prop_assert_eq!(&got, &oracle, "workers={} {}", workers, plan.op_name());
                    prop_assert_eq!(broker.used(), 0, "grants leaked");
                }
            }
        }
    }

    /// The threaded pipeline and aggregate groups preserve the serial
    /// rows exactly — morsel-index reassembly and worker-order core
    /// merging, not completion order.
    #[test]
    fn threaded_pipeline_preserves_order(
        rows in kv_rows(1000),
        cutoff in 0i64..48,
    ) {
        let catalog = kf_catalog(&rows);
        let grouped = aggregate_plan(cutoff, vec![0], duplicated_inputs());
        for plan in [pipeline_plan(cutoff), grouped] {
            let oracle = reference::execute(&catalog, &plan);
            for workers in [1usize, 2, 4, 8] {
                let got = run_threaded(&catalog, &plan, workers, &MemoryBroker::unbounded());
                prop_assert_eq!(
                    bit_exact(&got), bit_exact(&oracle),
                    "{} workers={}", plan.op_name(), workers
                );
            }
        }
    }
}
