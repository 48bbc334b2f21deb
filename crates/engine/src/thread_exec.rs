//! Batches of copies of one query on OS threads: the shapes the
//! wall-clock benchmark, the examples and the contention re-fit run.
//!
//! There is no second driver here, and no link: each entry point is a
//! configuration of [`crate::run_once_on_threads`]. The engine's
//! dispatcher forms the groups as for a simulated batch, and the run's
//! thread substrate runs them — a query alone through
//! [`wiring::run_local`], a shared pivot once on one thread with each
//! member's fragment on a thread of its own, fed over the links of the
//! sharing seam (`cordoba_exec::ops::port`, whose tests pin the link's
//! protocol). Rows are bit-identical to [`crate::run_once`]'s — float
//! bits and row order included.
//!
//! [`wiring::run_local`]: cordoba_exec::wiring::run_local

use crate::{run_once_on_threads, EngineConfig, Policy, QuerySpec};
use cordoba_exec::{ExecError, ParallelConfig};
use cordoba_storage::{Catalog, Value};
use std::time::Duration;

/// Outcome of a threaded run.
#[derive(Debug)]
pub struct ThreadReport {
    /// Result rows per query, in submission order.
    pub results: Vec<Vec<Vec<Value>>>,
    /// Wall-clock duration of the batch.
    pub elapsed: Duration,
}

/// Runs `m` copies of `spec` once on threads under `cfg`: the report of
/// a batch every query of which succeeded, else its first
/// (submission-order) error.
fn copies(
    catalog: &Catalog,
    spec: &QuerySpec,
    m: usize,
    cfg: EngineConfig,
) -> Result<ThreadReport, ExecError> {
    let report = run_once_on_threads(catalog, &vec![spec.clone(); m], &cfg);
    match report.failures.into_iter().next() {
        Some((_, err)) => Err(err),
        None => Ok(ThreadReport {
            results: report.results,
            elapsed: Duration::from_nanos(report.makespan),
        }),
    }
}

/// Executes `m` copies of `spec` without sharing on up to `threads`
/// worker threads, each running the query's operator graph in a private
/// run loop.
///
/// # Panics
///
/// Panics if a query fails (a plan that does not type-check, or a
/// runtime fault such as an unsorted merge input).
#[expect(
    clippy::expect_used,
    reason = "documented '# Panics' contract of this harness entry point"
)]
pub fn run_unshared(catalog: &Catalog, spec: &QuerySpec, m: usize, threads: usize) -> ThreadReport {
    let report = run_unshared_parallel(catalog, spec, m, threads, &ParallelConfig::default());
    report.expect("unshared query failed")
}

/// Executes `m` copies of `spec` without sharing, each query running
/// its operator graph with `parallel.workers` morsel worker threads per
/// parallel fragment. `threads` bounds how many *queries* run
/// concurrently, so total thread pressure is `threads × (1 + fragments
/// × workers)`.
///
/// This is the unshared baseline the contention re-fit measures: the
/// same queries and the same `ops/*` tasks as [`run_unshared`], but
/// each scan → filter → project (→ aggregate) fragment spread across
/// morsel workers instead of a single thread of control.
pub fn run_unshared_parallel(
    catalog: &Catalog,
    spec: &QuerySpec,
    m: usize,
    threads: usize,
    parallel: &ParallelConfig,
) -> Result<ThreadReport, ExecError> {
    let mut cfg = EngineConfig::default();
    (cfg.contexts, cfg.parallel) = (threads.max(1), *parallel);
    copies(catalog, spec, m, cfg)
}

/// Executes `m` copies of `spec` with the pivot sub-plan shared: the
/// pivot's operator graph runs once and fans its pages out, a morsel
/// per hand-off, to `m` consumer threads over bounded links. At `m = 1`
/// the copy is a group of one and runs unshared, its whole plan on one
/// thread with no link, so its time holds no sharing seam.
///
/// # Panics
///
/// Panics if `spec` has no pivot, or if a query fails (a plan that does
/// not type-check, or a runtime fault).
#[expect(
    clippy::expect_used,
    reason = "documented '# Panics' contract of this harness entry point"
)]
pub fn run_shared(catalog: &Catalog, spec: &QuerySpec, m: usize) -> ThreadReport {
    spec.pivot.as_ref().expect("shared run needs a pivot");
    let mut cfg = EngineConfig::default();
    (cfg.policy, cfg.max_group) = (Policy::AlwaysShare, m.max(1));
    copies(catalog, spec, m, cfg).expect("shared query failed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_once, Report};
    use cordoba_exec::expr::{Agg, CmpOp, Predicate, ScalarExpr};
    use cordoba_exec::{reference, JoinKind, OpCost, PhysicalPlan};
    use cordoba_storage::{DataType, Field, Schema, TableBuilder};
    use std::sync::Arc;

    type Rows = Vec<Vec<Value>>;

    fn kv_schema() -> Arc<Schema> {
        Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Float),
        ])
    }

    /// `t` is sorted on `k` and its `v` sums exactly in any order (the
    /// morsel-parallel tests need that); `u` goes unsorted after 1500
    /// rows (a merge join over it faults mid-stream, with result pages
    /// already out) and its `v` sums are order-sensitive in the last
    /// bits.
    fn catalog() -> Catalog {
        let mut t = TableBuilder::new("t", kv_schema());
        let mut u = TableBuilder::new("u", kv_schema());
        for i in 0..2000 {
            t.push_row(&[Value::Int(i), Value::Float((i % 13) as f64)]);
            let k = if i < 1500 { i } else { i % 97 };
            u.push_row(&[Value::Int(k), Value::Float((i % 13) as f64 * 0.1)]);
        }
        let mut c = Catalog::new();
        c.register(t.finish());
        c.register(u.finish());
        c
    }

    fn scan(table: &str) -> PhysicalPlan {
        PhysicalPlan::Scan {
            table: table.into(),
            cost: OpCost::default(),
        }
    }

    fn sum_v(input: PhysicalPlan) -> PhysicalPlan {
        PhysicalPlan::Aggregate {
            input: Box::new(input),
            group_by: vec![],
            aggs: vec![("s".into(), Agg::Sum(ScalarExpr::col(1)))],
            cost: OpCost::default(),
        }
    }

    fn below(input: PhysicalPlan, k: i64) -> PhysicalPlan {
        PhysicalPlan::Filter {
            input: Box::new(input),
            predicate: Predicate::col_cmp(0, CmpOp::Lt, k),
            cost: OpCost::default(),
        }
    }

    /// sum(v) over the low keys of `table`, shareable at the scan.
    fn scan_query(table: &str, k: i64) -> QuerySpec {
        QuerySpec::shared_at("sq", sum_v(below(scan(table), k)), scan(table))
    }

    fn query() -> QuerySpec {
        scan_query("t", 1000)
    }

    /// sum(v) over a semi join, shareable at the join.
    fn join_query() -> QuerySpec {
        let join = PhysicalPlan::HashJoin {
            build: Box::new(below(scan("t"), 40)),
            probe: Box::new(scan("u")),
            build_key: 0,
            probe_key: 0,
            kind: JoinKind::Semi,
            build_cost: OpCost::default(),
            probe_cost: OpCost::default(),
        };
        QuerySpec::shared_at("jq", sum_v(join.clone()), join)
    }

    fn merge_join(left: &str, right: &str) -> PhysicalPlan {
        PhysicalPlan::MergeJoin {
            left: Box::new(scan(left)),
            right: Box::new(scan(right)),
            left_key: 0,
            right_key: 0,
            cost: OpCost::default(),
        }
    }

    /// Rows with floats replaced by their bit patterns: equality on
    /// these is bit-for-bit, which `Value`'s `==` is not (`-0.0`, NaN).
    fn bits(rows: &Rows) -> Rows {
        let bit = |v: &Value| match v {
            Value::Float(f) => Value::Int(f.to_bits() as i64),
            other => other.clone(),
        };
        rows.iter().map(|r| r.iter().map(bit).collect()).collect()
    }

    /// The serial simulated engine's rows for `spec`: the denominator
    /// every threaded mode must reproduce exactly.
    fn serial_rows(cat: &Catalog, spec: &QuerySpec) -> Rows {
        let mut out = run_once(cat, std::slice::from_ref(spec), &EngineConfig::default());
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        out.results.remove(0)
    }

    /// `specs` run once on two threads under `policy`, sharing in one
    /// group. Each query's broker is checked empty as its run returns
    /// (debug builds).
    fn on_threads(cat: &Catalog, specs: &[QuerySpec], policy: Policy) -> Report {
        let cfg = EngineConfig {
            contexts: 2,
            policy,
            max_group: specs.len().max(1),
            ..EngineConfig::default()
        };
        run_once_on_threads(cat, specs, &cfg)
    }

    #[test]
    fn unshared_threads_match_reference() {
        let cat = catalog();
        let expected = reference::execute(&cat, &query().plan);
        let report = run_unshared(&cat, &query(), 4, 2);
        assert_eq!(report.results.len(), 4);
        for r in &report.results {
            assert_eq!(r, &expected);
        }
    }

    #[test]
    fn shared_threads_match_reference() {
        let cat = catalog();
        let expected = reference::execute(&cat, &query().plan);
        let report = run_shared(&cat, &query(), 4);
        assert_eq!(report.results.len(), 4);
        for r in &report.results {
            assert_eq!(r, &expected);
        }
    }

    /// A catalog whose `t` holds `rows` rows (256 to the page) with
    /// order-sensitive `v` sums.
    fn sized_catalog(rows: i64) -> Catalog {
        let mut t = TableBuilder::new("t", kv_schema());
        for i in 0..rows {
            t.push_row(&[Value::Int(i), Value::Float((i % 13) as f64 * 0.1)]);
        }
        let mut c = Catalog::new();
        c.register(t.finish());
        c
    }

    /// `m` copies of `spec`, unshared on two threads and shared in one
    /// group, reproduce the serial engine's rows at each `m`.
    fn assert_bit_identical(cat: &Catalog, spec: &QuerySpec, ms: &[usize]) {
        let want = bits(&serial_rows(cat, spec));
        for &m in ms {
            for (policy, groups) in [(Policy::NeverShare, m), (Policy::AlwaysShare, m.min(1))] {
                let report = on_threads(cat, &vec![spec.clone(); m], policy);
                assert!(report.failures.is_empty(), "{:?}", report.failures);
                assert_eq!(
                    (report.results.len(), report.group_sizes.len()),
                    (m, groups)
                );
                for rows in &report.results {
                    assert_eq!(bits(rows), want, "{} m={m}", spec.name);
                }
            }
        }
    }

    #[test]
    fn threads_reproduce_the_serial_engine_bit_for_bit() {
        let cat = catalog();
        let q = scan_query("u", 50);
        let whole = QuerySpec::shared_at("whole", q.plan.clone(), q.plan.clone());
        for spec in [q, join_query(), whole] {
            assert_bit_identical(&cat, &spec, &[1, 2, 4]);
        }
        // A scan pivot of every length the hand-off can meet: empty, one
        // page, and 0, 1 and `morsel_pages - 1` pages beyond a full
        // morsel.
        let mp = ParallelConfig::default().morsel_pages;
        for pages in [0, 1, mp - 1, mp, mp + 1, 2 * mp - 1, 2 * mp] {
            let cat = sized_catalog(256 * pages as i64 - pages.min(1) as i64);
            assert_eq!(cat.expect("t").pages().len(), pages);
            assert_bit_identical(&cat, &scan_query("t", 1 << 20), &[1, 3]);
        }
    }

    #[test]
    fn pivot_fault_fails_every_consumer() {
        // The pivot merge-joins `u`, which goes unsorted after 1500
        // rows: it faults with join pages already delivered. No consumer
        // may return the rows it computed from the truncated stream.
        let cat = catalog();
        let pivot = merge_join("u", "t");
        let spec = QuerySpec::shared_at("bad", sum_v(pivot.clone()), pivot);
        let report = on_threads(&cat, &vec![spec.clone(); 3], Policy::AlwaysShare);
        assert_eq!(
            (report.group_sizes.as_slice(), report.failures.len()),
            (&[3][..], 3)
        );
        for (_, r) in &report.failures {
            assert!(
                matches!(r, ExecError::UnsortedMergeInput { side: "left", .. }),
                "{r:?}"
            );
        }
        // Unshared, the same plan fails the same way, per query.
        let report = on_threads(&cat, &[spec.clone(), spec], Policy::NeverShare);
        assert_eq!(report.failures.len(), 2);
        for (_, r) in &report.failures {
            assert!(matches!(r, ExecError::UnsortedMergeInput { .. }), "{r:?}");
        }
    }

    #[test]
    fn consumer_fault_leaves_its_peers_exact() {
        let cat = catalog();
        let pivot = scan("u");
        let member = |plan| QuerySpec {
            name: "m".into(),
            plan,
            pivot: Some(pivot.clone()),
            chaos: None,
        };
        let good = sum_v(pivot.clone());
        // Faults at run time, above the pivot: its left input (the
        // shared scan of `u`) is unsorted.
        let faulty = merge_join("u", "t");
        // Never starts: the pivot does not occur in it, so its split
        // fails at dispatch and the pivot feeds its peers alone.
        let foreign = scan("t");
        let specs = [good.clone(), faulty, foreign, good.clone()].map(member);
        let report = on_threads(&cat, &specs, Policy::AlwaysShare);
        assert_eq!(report.group_sizes, [4]);
        let want = bits(&serial_rows(&cat, &QuerySpec::unshared("good", good)));
        assert_eq!(bits(&report.results[0]), want);
        assert_eq!(bits(&report.results[3]), want);
        let [(1, ref faulty), (2, ref foreign)] = report.failures[..] else {
            panic!("{:?}", report.failures);
        };
        assert!(
            matches!(faulty, ExecError::UnsortedMergeInput { side: "left", .. }),
            "{faulty:?}"
        );
        assert!(matches!(foreign, ExecError::PlanType(_)), "{foreign:?}");
    }

    #[test]
    #[should_panic(expected = "shared query failed")]
    fn run_shared_panics_on_a_failed_query() {
        let pivot = merge_join("u", "t");
        let spec = QuerySpec::shared_at("bad", sum_v(pivot.clone()), pivot);
        run_shared(&catalog(), &spec, 2);
    }

    #[test]
    fn parallel_unshared_matches_reference_at_each_worker_count() {
        let cat = catalog();
        let expected = reference::execute(&cat, &query().plan);
        for workers in [1usize, 4] {
            let cfg = ParallelConfig::with_workers(workers);
            let report = run_unshared_parallel(&cat, &query(), 3, 2, &cfg).unwrap();
            assert_eq!(report.results.len(), 3);
            for r in &report.results {
                assert_eq!(r, &expected, "workers={workers}");
            }
        }
    }

    #[test]
    fn no_consumer_means_the_pivot_does_not_run() {
        // Both members lack the join pivot, so both fail at dispatch.
        // Their group is not handed over, so its pivot never runs: the
        // runner asserts (debug builds) that every group it is handed
        // has a member, and `run::tests` checks nothing was handed over.
        let (cat, spec) = (catalog(), join_query());
        let stray = QuerySpec {
            plan: scan("t"),
            ..spec.clone()
        };
        let report = on_threads(&cat, &[stray.clone(), stray], Policy::AlwaysShare);
        assert_eq!(
            (report.group_sizes.as_slice(), report.completed),
            (&[2][..], 0)
        );
        for (_, err) in &report.failures {
            assert!(
                err.to_string().contains("pivot sub-plan not found"),
                "{err}"
            );
        }
        assert!(run_shared(&cat, &spec, 0).results.is_empty());
    }
}
