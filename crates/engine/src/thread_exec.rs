//! Batches of copies of one query on OS threads: the shapes the
//! wall-clock benchmark, the examples and the contention re-fit run.
//!
//! There is no second driver here, and no link: each entry point is a
//! configuration of [`crate::run_once_on_threads`]. The engine's
//! dispatcher forms the groups as for a simulated batch, and the run's
//! thread substrate runs each group, wired as the simulator wires it,
//! in a one-context run loop on the thread that claims it ([`LocalRun`]):
//! a shared pivot once, fanning out to its members' fragments in the
//! same loop. Only morsel workers run on threads of their own. Rows are
//! bit-identical to [`crate::run_once`]'s — float bits and row order
//! included.
//!
//! [`LocalRun`]: cordoba_exec::wiring::LocalRun

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
/// threads, each query's operator graph in a private run loop on the
/// thread that claims it.
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
/// concurrently, so total thread pressure is at most `threads × (1 +
/// fragments × workers)`.
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

/// Executes `m` copies of `spec` with the pivot sub-plan shared: one
/// group, run on the calling thread in one run loop, where the pivot's
/// operator graph runs once and fans its pages out to the `m` members'
/// fragments over bounded channels. At `m = 1` the copy is a group of
/// one and runs unshared, its whole plan with no fan-out.
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
    use crate::run::tests::threads::{catalog, merge_join, query, sum_v};
    use cordoba_exec::reference;

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
}
