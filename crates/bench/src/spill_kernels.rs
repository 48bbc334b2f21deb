//! Out-of-core operator benchmarks: the same TPC-H sort and hash join
//! run twice through the simulator — once with an unbounded memory
//! broker (the historic all-in-memory path) and once under a budget a
//! quarter the size of the input, forcing the external sort and the
//! spilling hybrid hash join out of core.
//!
//! The point is not a speedup (spilling costs real I/O; what it costs
//! in wall clock is `benchmark/`'s `join_sort_spill` workload) but the
//! *memory trajectory*: the run records the broker's high-water mark so
//! `BENCH_ops.json` can assert the past-memory scenario — input ≥ 4×
//! budget, peak tracked memory ≤ 1.25× budget, output identical to the
//! in-memory run.

use cordoba_exec::expr::{Agg, ScalarExpr};
use cordoba_exec::wiring::{self, WiringConfig};
use cordoba_exec::{reference, JoinKind, MemoryConfig, OpCost, PhysicalPlan};
use cordoba_sim::Simulator;
use cordoba_storage::tpch::{generate, TpchConfig};
use cordoba_storage::{Catalog, Value, PAGE_SIZE};

/// One simulated query execution: its rows and the broker's peak.
struct SpillRun {
    /// Collected result rows.
    rows: Vec<Vec<Value>>,
    /// High-water mark of tracked operator memory, in bytes.
    peak_bytes: usize,
    /// Bytes written to spill files.
    spill_bytes: usize,
}

/// Deterministic TPC-H catalog for the spill scenarios.
pub(crate) fn catalog(scale_factor: f64) -> Catalog {
    generate(&TpchConfig {
        scale_factor,
        seed: 1,
        ..TpchConfig::default()
    })
}

/// Total stored bytes of `table` — the "input size" the past-memory
/// scenario budgets against.
fn table_bytes(catalog: &Catalog, table: &str) -> usize {
    catalog
        .expect(table)
        .pages()
        .iter()
        .map(|p| p.byte_len())
        .sum()
}

fn scan(table: &str) -> Box<PhysicalPlan> {
    Box::new(PhysicalPlan::Scan {
        table: table.into(),
        cost: OpCost::default(),
    })
}

/// Full sort of `lineitem` by `l_shipdate` — the external-sort
/// scenario's plan (packed 4-byte keys, every input page buffered or
/// spilled).
fn sort_plan() -> PhysicalPlan {
    PhysicalPlan::Sort {
        input: scan("lineitem"),
        keys: vec![7],
        cost: OpCost::default(),
    }
}

/// `orders ⋈ lineitem` on orderkey with `orders` as the build side —
/// the hybrid-hash-join scenario's plan (the whole build arena must fit
/// or spill).
fn join_plan() -> PhysicalPlan {
    PhysicalPlan::HashJoin {
        build: scan("orders"),
        probe: scan("lineitem"),
        build_key: 0,
        probe_key: 0,
        kind: JoinKind::Inner,
        build_cost: OpCost::default(),
        probe_cost: OpCost::default(),
    }
}

/// `count(*), sum(l_extendedprice)` over [`sort_plan`]: the sort's
/// consumer reads two of its columns.
fn sort_agg_plan() -> PhysicalPlan {
    PhysicalPlan::Aggregate {
        input: Box::new(sort_plan()),
        group_by: vec![],
        aggs: vec![
            ("rows".into(), Agg::Count),
            ("sum_price".into(), Agg::Sum(ScalarExpr::col(2))),
        ],
        cost: OpCost::default(),
    }
}

/// `count(*)` over [`join_plan`]: the join's consumer reads none of its
/// columns.
fn join_agg_plan() -> PhysicalPlan {
    PhysicalPlan::Aggregate {
        input: Box::new(join_plan()),
        group_by: vec![],
        aggs: vec![("rows".into(), Agg::Count)],
        cost: OpCost::default(),
    }
}

/// Runs `plan` to completion under `budget` (`None` = unbounded) and
/// returns the rows plus the broker's peak.
///
/// # Panics
///
/// Panics if the plan fails to wire or the query faults — the spill
/// scenarios must complete by spilling, never by dying.
fn run_plan(catalog: &Catalog, plan: &PhysicalPlan, budget: Option<usize>) -> SpillRun {
    let cfg = WiringConfig {
        memory: MemoryConfig {
            query_budget: budget,
            ..MemoryConfig::default()
        },
        ..WiringConfig::default()
    };
    let mut sim = Simulator::new(2);
    let (rx, _ops, res) =
        wiring::instantiate(&mut sim, catalog, plan, "spill-bench", &cfg).expect("plan wires");
    let rows = wiring::run_and_collect(&mut sim, rx, OpCost::default(), &res.fault)
        .expect("spill scenario must complete by spilling, not fail");
    SpillRun {
        rows,
        peak_bytes: res.broker.peak(),
        spill_bytes: res.broker.spilled(),
    }
}

/// One checked past-memory scenario: the same plan run in memory and
/// under a budget of a quarter of its input.
pub(crate) struct SpillPoint {
    /// Scenario name (stable across PRs).
    pub name: &'static str,
    /// Stored bytes of the table the budget is sized against.
    pub input_bytes: usize,
    /// The broker budget: `max(input / 4, 8 pages)`.
    pub budget_bytes: usize,
    /// Peak tracked memory of the budgeted run.
    pub peak_bytes: usize,
    /// Peak tracked memory of the unbounded run.
    pub in_memory_peak_bytes: usize,
    /// Bytes the budgeted run wrote to spill files.
    pub spill_bytes: usize,
}

impl SpillPoint {
    /// Peak tracked memory over the budget — the ratio item 5's hybrid
    /// hash join is held to.
    pub(crate) fn peak_over_budget(&self) -> f64 {
        self.peak_bytes as f64 / self.budget_bytes as f64
    }
}

/// Runs `plan` in memory and under `max(bytes of table / 4, 8 pages)`,
/// asserting the acceptance criteria: the same rows (in order when
/// `ordered`, as a multiset otherwise) and peak ≤ 1.25 × budget.
fn checked_scenario(
    catalog: &Catalog,
    name: &'static str,
    plan: &PhysicalPlan,
    table: &str,
    ordered: bool,
) -> SpillPoint {
    let input_bytes = table_bytes(catalog, table);
    let budget_bytes = (input_bytes / 4).max(8 * PAGE_SIZE);
    let in_memory = run_plan(catalog, plan, None);
    let spilled = run_plan(catalog, plan, Some(budget_bytes));
    let rows = |r: Vec<Vec<Value>>| {
        if ordered {
            r
        } else {
            reference::canonicalize(r)
        }
    };
    assert_eq!(
        rows(spilled.rows),
        rows(in_memory.rows),
        "{name}: the budgeted run diverged from the in-memory run"
    );
    assert!(
        spilled.peak_bytes <= budget_bytes + budget_bytes / 4,
        "{name}: peak {} exceeds 1.25 x budget {budget_bytes}",
        spilled.peak_bytes
    );
    SpillPoint {
        name,
        input_bytes,
        budget_bytes,
        peak_bytes: spilled.peak_bytes,
        in_memory_peak_bytes: in_memory.peak_bytes,
        spill_bytes: spilled.spill_bytes,
    }
}

/// External sorted runs + k-way merge vs the in-memory sort; the
/// output must be order-identical.
pub(crate) fn sort_spill(catalog: &Catalog) -> SpillPoint {
    checked_scenario(catalog, "sort_spill", &sort_plan(), "lineitem", true)
}

/// Dynamic hybrid hash join vs the in-memory join, budgeted against
/// the build side; the output must be multiset-identical.
pub(crate) fn join_spill(catalog: &Catalog) -> SpillPoint {
    checked_scenario(catalog, "join_spill", &join_plan(), "orders", false)
}

/// [`sort_spill`]'s sort under an aggregate, budgeted alike.
pub(crate) fn sort_agg_spill(catalog: &Catalog) -> SpillPoint {
    checked_scenario(
        catalog,
        "sort_agg_spill",
        &sort_agg_plan(),
        "lineitem",
        true,
    )
}

/// [`join_spill`]'s join under a count, budgeted alike.
pub(crate) fn join_agg_spill(catalog: &Catalog) -> SpillPoint {
    checked_scenario(catalog, "join_agg_spill", &join_agg_plan(), "orders", true)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The past-memory acceptance scenario at a small scale: input ≥ 4×
    /// budget, peak ≤ 1.25× budget, rows equal to the in-memory run.
    #[test]
    fn past_memory_scenarios_hold_at_small_scale() {
        let cat = catalog(0.002);
        for p in [sort_spill(&cat), join_spill(&cat)] {
            assert!(
                p.input_bytes >= 4 * p.budget_bytes,
                "{}: input {} vs budget {}",
                p.name,
                p.input_bytes,
                p.budget_bytes
            );
            assert!(
                p.in_memory_peak_bytes >= 4 * p.budget_bytes,
                "{}: the in-memory path must actually need past-budget memory",
                p.name
            );
        }
    }
}
