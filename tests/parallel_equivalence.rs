//! Morsel-driven parallelism is invisible in the rows: slices of the
//! differential fuzzer (`fuzz`) on the simulated engine's morsel wiring
//! and on `wiring::run_local`'s OS threads. Fused scan → filter →
//! project workers reassemble their morsels in order, partial
//! aggregates merge in worker order, and every join kind, sort and
//! merge join is the serial one row for row (a spilled hash join's rows
//! as a multiset). Every case goes through the fuzzer's one check
//! against `exec::reference`; a failing case prints its number for
//! `REGRESSIONS` in `tests/equivalence.rs`.

mod fuzz;

use fuzz::Substrate::{Batch, Schedule, Threads};
use fuzz::{any, Case, Config, JOIN_KINDS};

/// Cases per slice.
const CASES: u64 = 4;

fn parallel(c: &Config) -> bool {
    c.workers > 1
}

fn pipeline(c: &Case) -> bool {
    c.has("filter") && c.has("project")
}

/// Scan → filter → project pipelines in the engine on two to eight
/// workers.
#[test]
fn parallel_pipeline_is_row_identical_to_serial() {
    let name = "parallel_pipeline_is_row_identical_to_serial";
    let floor = ["filter", "project"];
    fuzz::run_slice(name, Batch, CASES, parallel, pipeline, &floor);
}

/// Filter and project chains through the operator shells, on one to
/// eight workers, arriving over time.
#[test]
fn any_filter_project_chain_is_row_identical_through_shells_and_workers() {
    let name = "any_filter_project_chain_is_row_identical_through_shells_and_workers";
    fuzz::run_slice(name, Schedule, CASES, any, pipeline, &["filter", "project"]);
}

/// Aggregates over morsel-parallel inputs: the partials merge bit for
/// bit (the generator's floats sum exactly in any order).
#[test]
fn parallel_aggregate_is_bit_exact() {
    let keep = |c: &Case| c.has("aggregate");
    let name = "parallel_aggregate_is_bit_exact";
    fuzz::run_slice(name, Batch, CASES, parallel, keep, &["aggregate"]);
}

/// Hash joins over parallel inputs under budgets of one to four pages.
#[test]
fn parallel_join_with_tiny_budget_matches_reference() {
    let tiny = |c: &Config| parallel(c) && c.budget_pages.is_some_and(|p| p <= 4);
    let keep = |c: &Case| c.has("hashjoin");
    let name = "parallel_join_with_tiny_budget_matches_reference";
    fuzz::run_slice(name, Batch, CASES, tiny, keep, &["hashjoin"]);
}

/// Every join kind on OS threads, budgeted or not; the broker is empty
/// after each run.
#[test]
fn threaded_executor_matches_reference() {
    let keep = |c: &Case| c.has("hashjoin");
    let name = "threaded_executor_matches_reference";
    fuzz::run_slice(name, Threads, 2 * CASES, any, keep, &JOIN_KINDS);
}

/// Filters feeding projections or grouped aggregates on two to eight OS
/// threads keep the serial row order.
#[test]
fn threaded_pipeline_preserves_order() {
    let keep = |c: &Case| c.has("filter") && (c.has("project") || c.has("aggregate"));
    let name = "threaded_pipeline_preserves_order";
    let floor = ["filter", "project", "aggregate"];
    fuzz::run_slice(name, Threads, CASES, parallel, keep, &floor);
}

/// Sorts, merge joins and nested-loop joins on OS threads, budgeted or
/// not.
#[test]
fn threaded_sort_and_ordered_joins_match_reference() {
    let keep = |c: &Case| c.has("sort") || c.has("mergejoin") || c.has("nlj");
    let name = "threaded_sort_and_ordered_joins_match_reference";
    let floor = ["sort", "mergejoin", "nlj"];
    fuzz::run_slice(name, Threads, CASES, any, keep, &floor);
}
