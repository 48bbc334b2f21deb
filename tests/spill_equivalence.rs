//! Out-of-core operators return the in-memory rows: slices of the
//! differential fuzzer (`fuzz`) under budgets of one to 64 pages, where
//! the external sort and the hybrid hash join spill, and a fixed case of
//! 6 000 distinct keys. Every case goes through the fuzzer's one check:
//! every query spills rather than fails (slices pass over the cases
//! `fuzz::may_exhaust` names, so a `BudgetExhausted` fails them), the
//! rows are the reference's (a sort's row for row, float bits included;
//! a spilled join's as a multiset), and no granted byte or spill file is
//! left behind. A failing case prints its number for `REGRESSIONS` in
//! `tests/equivalence.rs`.

mod fuzz;

use cordoba::engine::QuerySpec;
use cordoba::exec::{JoinKind, OpCost, PhysicalPlan};
use cordoba::storage::{Catalog, DataType, Field, Schema, TableBuilder, Value};
use fuzz::Substrate::{Batch, Threads};
use fuzz::{Case, Config};

/// Cases per slice.
const CASES: u64 = 4;

fn budgeted(c: &Config) -> bool {
    c.budget_pages.is_some()
}

/// A sort under a budget of one or two pages merges its runs back into
/// the in-memory order, ties and signed zeros included.
#[test]
fn spilled_sort_is_bit_identical_to_in_memory() {
    let tiny = |c: &Config| c.budget_pages.is_some_and(|p| p <= 2);
    let keep = |c: &Case| c.has("sort");
    let name = "spilled_sort_is_bit_identical_to_in_memory";
    fuzz::run_slice(name, Threads, CASES, tiny, keep, &["sort", "spill"]);
}

/// An inner hash join under a budget, in the engine, returns the
/// in-memory join's rows.
#[test]
fn spilled_join_matches_in_memory_join() {
    let keep = |c: &Case| c.has("hashjoin(Inner)");
    let name = "spilled_join_matches_in_memory_join";
    fuzz::run_slice(name, Batch, CASES, budgeted, keep, &["spill"]);
}

/// Every join kind under a budget, in the engine.
#[test]
fn spilled_join_kinds_match_in_memory() {
    let keep = |c: &Case| c.has("hashjoin");
    let name = "spilled_join_kinds_match_in_memory";
    fuzz::run_slice(name, Batch, 2 * CASES, budgeted, keep, &fuzz::JOIN_KINDS);
}

/// Semi and anti joins keep only their build keys: over hot-key,
/// few-key, distinct-key and empty builds, at every budget.
#[test]
fn existence_joins_match_the_reference_at_every_budget_and_shape() {
    let keep = |c: &Case| c.has("hashjoin(Semi)") || c.has("hashjoin(Anti)");
    let name = "existence_joins_match_the_reference_at_every_budget_and_shape";
    let floor = ["hashjoin(Semi)", "hashjoin(Anti)", "spill"];
    fuzz::run_slice(name, Threads, 2 * CASES, budgeted, keep, &floor);
}

fn scan(table: &str) -> Box<PhysicalPlan> {
    Box::new(PhysicalPlan::Scan {
        table: table.into(),
        cost: OpCost::default(),
    })
}

/// 6 000 distinct scattered keys are 47 KiB, and every one of them is
/// probed: a key lost on its way to or from a key file shows. Victims
/// spill what they hold from two pages up; under one page, two
/// partitions of them do not fit when their pairs start, and each key
/// file is split by the next level's hash (the kernel's own tests watch
/// that happen) before the pairs join.
#[test]
fn distinct_key_files_spill_and_repartition_without_losing_a_key() {
    let mut catalog = Catalog::new();
    // Both tables' rows are `(k, k)`, `k` distinct and scattered: 9 000
    // probe keys, 6 000 build keys (7919 is a prime above 6000).
    for (name, n, step) in [("l", 9000, 7), ("r", 6000, 7919)] {
        let fields = ["k", "v"].map(|c| Field::new(format!("{name}{c}"), DataType::Int));
        let mut tb = TableBuilder::new(name, Schema::new(fields.to_vec()));
        (0..n).for_each(|i| tb.push_row(&[Value::Int(i * step % n), Value::Int(i * step % n)]));
        catalog.register(tb.finish());
    }
    for kind in [JoinKind::Semi, JoinKind::Anti] {
        // The build is keyed by its second column: what a key-only
        // partition stores is then not where the key was.
        let plan = PhysicalPlan::HashJoin {
            build: scan("r"),
            probe: scan("l"),
            build_key: 1,
            probe_key: 0,
            kind,
            build_cost: OpCost::default(),
            probe_cost: OpCost::default(),
        };
        let queries = vec![(0, QuerySpec::unshared("distinct", plan))];
        let threads = Config {
            substrate: Threads,
            ..Config::default()
        };
        let mut case = Case::new(catalog.clone(), queries, threads);
        for pages in [1, 2, 4, 8] {
            case.config.budget_pages = Some(pages);
            assert!(fuzz::checked(&case).spilled, "{kind:?} at {pages} pages");
        }
    }
}
