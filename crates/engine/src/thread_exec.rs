//! Real-thread executor: the engine's operator graph on OS threads.
//!
//! The simulator is the measurement substrate (deterministic, scales to
//! 32 contexts on any host); this module runs the *same* engine on real
//! hardware. There is no second executor: every plan runs through the
//! one local driver ([`wiring::run_local`], serial wiring unless a
//! caller sets workers), a private single-context run loop per OS
//! thread, so compiled expressions, [`FaultCell`] and [`MemoryBroker`]
//! behave exactly as in a simulated run and the rows are bit-identical
//! to [`crate::run_once`]'s — float bits and row order included.
//!
//! * **Unshared** — worker threads claim queries from one counter and
//!   run one graph per query through [`wiring::run_local`]: at
//!   [`WiringConfig::default`], or, in the morsel-parallel variant,
//!   with morsel workers whose shells get an OS thread each.
//! * **Shared** — the calling thread runs the pivot's graph once and
//!   its root fans out to one thread per consumer, as a simulated
//!   shared pivot fans out to its members: the root's [`Fanout`] writes
//!   OS links ([`Outlet::os`]) where it would write simulator channels,
//!   and each consumer's private above-fragment reads its link through
//!   the port of the operator above its `Source` leaf ([`Inlet::os`]) —
//!   no task in between on either side
//!   ([`wiring::run_local_between`]). A link hands off morsels of
//!   [`ParallelConfig::morsel_pages`] pivot pages (for a scan pivot the
//!   table's own `Arc<Page>`s — nothing is copied): one hand-off (a
//!   lock, often a futex wake) per morsel per consumer, not per page.
//!   OS channels exist only at this sharing seam, exactly where the
//!   model's per-consumer `s` lives — the producer pays the real
//!   (wall-clock) `M·s`. A link holds `queue_capacity` hand-offs, so at
//!   most `queue_capacity × morsel_pages` pages (16 × 4) are in flight
//!   per consumer, as `Arc`s.
//!
//! Both substrates move the same granularity: every operator's shell,
//! on a thread's run loop as in the simulator, makes up to
//! `morsel_pages` kernel calls a step, so a scan pivot's step gathers
//! exactly the morsel its links hand off, and a consumer's step reads
//! the hand-off it holds (never waiting on the link mid-step).
//!
//! Faults stay per query: a consumer that fails hangs up its link and
//! the producer stops serving it at its next hand-off while its peers
//! go on, and once every consumer has hung up the pivot's root stops
//! too; a pivot fault travels down every link, so no consumer mistakes
//! a truncated pivot for end-of-stream.
//!
//! [`Fanout`]: cordoba_exec::ops::Fanout
//! [`FaultCell`]: cordoba_exec::FaultCell

use crate::query::QuerySpec;
use crate::sharing::split_with_residual;
use cordoba_exec::ops::{Handoff, Inlet, Outlet};
use cordoba_exec::wiring::{self, WiringConfig};
use cordoba_exec::SchemaRef;
use cordoba_exec::{ExecError, MemoryBroker, ParallelConfig, PhysicalPlan, QueryResources};
use cordoba_storage::{Catalog, Value};
use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;
#[expect(
    clippy::disallowed_types,
    reason = "the real-thread executor times its batches with an honest wall clock"
)]
use std::time::{Duration, Instant};

/// Outcome of a threaded run.
#[derive(Debug)]
pub struct ThreadReport {
    /// Result rows per query, in submission order.
    pub results: Vec<Vec<Vec<Value>>>,
    /// Wall-clock duration of the batch.
    pub elapsed: Duration,
}

type Rows = Vec<Vec<Value>>;

/// The report of a batch every query of which succeeded, else its first
/// (submission-order) error.
#[expect(
    clippy::disallowed_types,
    reason = "the real-thread executor times its batches with an honest wall clock"
)]
fn report(
    start: Instant,
    results: Vec<Result<Rows, ExecError>>,
) -> Result<ThreadReport, ExecError> {
    Ok(ThreadReport {
        results: results.into_iter().collect::<Result<_, _>>()?,
        elapsed: start.elapsed(),
    })
}

/// Runs `job` for each of `m` queries on up to `threads` workers that
/// claim query indexes from one counter; outcomes in submission order.
/// A single worker is the calling thread itself: a thread that only
/// waits for one other adds a start, a sleep and a wake-up to every
/// call and nothing else.
#[expect(
    clippy::disallowed_methods,
    reason = "query-level threads: one of the two places OS threads start"
)]
fn run_claimed(
    m: usize,
    threads: usize,
    job: impl Fn() -> Result<Rows, ExecError> + Sync,
) -> Vec<Result<Rows, ExecError>> {
    if threads.min(m) <= 1 {
        return (0..m).map(|_| job()).collect();
    }
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, Result<Rows, ExecError>)> = thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.min(m))
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= m {
                            break done;
                        }
                        done.push((i, job()));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|p| panic::resume_unwind(p)))
            .collect()
    });
    // fetch_add handed each index 0..m to exactly one worker.
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, result)| result).collect()
}

/// The fallible core of [`run_unshared`]: one outcome per query.
fn try_unshared(
    catalog: &Catalog,
    plan: &PhysicalPlan,
    m: usize,
    threads: usize,
    broker: &MemoryBroker,
) -> Vec<Result<Rows, ExecError>> {
    run_claimed(m, threads, || {
        let res = QueryResources::charging(broker);
        let pages = wiring::run_local(catalog, plan, &WiringConfig::default(), &res)?;
        Ok(wiring::page_rows(&pages))
    })
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
    clippy::disallowed_types,
    reason = "the real-thread executor times its batches with an honest wall clock"
)]
#[expect(
    clippy::expect_used,
    reason = "documented '# Panics' contract of this harness entry point"
)]
pub fn run_unshared(catalog: &Catalog, spec: &QuerySpec, m: usize, threads: usize) -> ThreadReport {
    let start = Instant::now();
    let results = try_unshared(catalog, &spec.plan, m, threads, &MemoryBroker::unbounded());
    report(start, results).expect("unshared query failed")
}

/// Executes `m` copies of `spec` without sharing, each query running
/// its operator graph through [`wiring::run_local`] with
/// `parallel.workers` morsel worker threads per parallel fragment.
/// `threads` bounds how many *queries* run concurrently, so total
/// thread pressure is `threads × (1 + fragments × workers)`.
///
/// This is the unshared baseline the contention re-fit measures: the
/// same queries and the same `ops/*` tasks as [`run_unshared`], but
/// each scan → filter → project (→ aggregate) fragment spread across
/// morsel workers instead of a single thread of control.
#[expect(
    clippy::disallowed_types,
    reason = "the real-thread executor times its batches with an honest wall clock"
)]
pub fn run_unshared_parallel(
    catalog: &Catalog,
    spec: &QuerySpec,
    m: usize,
    threads: usize,
    parallel: &ParallelConfig,
) -> Result<ThreadReport, ExecError> {
    let start = Instant::now();
    let cfg = WiringConfig {
        parallel: *parallel,
        ..WiringConfig::default()
    };
    let results = run_claimed(m, threads, || {
        let pages = wiring::run_local(catalog, &spec.plan, &cfg, &QueryResources::default())?;
        Ok(wiring::page_rows(&pages))
    });
    report(start, results)
}

/// Measures unshared throughput (queries per wall-clock second) of the
/// engine's own operator tasks on real threads at each morsel worker
/// count, running one query at a time so the samples isolate
/// *intra*-query scaling.
///
/// Feed the samples to [`cordoba_core::estimate::estimate_k`] to
/// recover the scaling exponent `κ` of `e(k) = k^κ` for this
/// host — the paper's aggregate-bandwidth contention form, fitted on
/// the same operator tasks the simulator prices.
pub fn worker_scaling_samples(
    catalog: &Catalog,
    spec: &QuerySpec,
    repeats: usize,
    worker_counts: &[u32],
) -> Result<Vec<(u32, f64)>, ExecError> {
    let mut samples = Vec::with_capacity(worker_counts.len());
    for &k in worker_counts {
        let cfg = ParallelConfig::with_workers(k.max(1) as usize);
        let report = run_unshared_parallel(catalog, spec, repeats.max(1), 1, &cfg)?;
        let secs = report.elapsed.as_secs_f64().max(f64::MIN_POSITIVE);
        samples.push((k.max(1), repeats.max(1) as f64 / secs));
    }
    Ok(samples)
}

/// Runs the pivot's graph once on the calling thread, its root feeding
/// every link in `txs`. A pivot that fails (or wedges) sends its error
/// down every link instead of just hanging up ([`wiring::run_feeding`]),
/// so the error is the last thing a consumer reads and no page behind
/// it is ever served.
fn produce(
    catalog: &Catalog,
    pivot: &PhysicalPlan,
    txs: Vec<mpsc::SyncSender<Handoff>>,
    cfg: &WiringConfig,
    broker: &MemoryBroker,
) {
    let res = QueryResources::charging(broker);
    let morsel = cfg.parallel.morsel_pages;
    wiring::run_feeding(&txs, || {
        let outs = txs
            .iter()
            .map(|tx| Outlet::os(tx.clone(), morsel, &res.fault));
        wiring::run_local_between(catalog, pivot, vec![], outs.collect(), cfg, &res)
    });
}

/// Runs one consumer: its private above-fragment of `plan` (everything
/// above the pivot, or a bare `Source` when the whole plan is shared)
/// over the pivot's pages arriving on `rx`.
fn consume(
    catalog: &Catalog,
    plan: &PhysicalPlan,
    pivot: &PhysicalPlan,
    rx: mpsc::Receiver<Handoff>,
    cfg: &WiringConfig,
    broker: &MemoryBroker,
) -> Result<Rows, ExecError> {
    let fragment = match split_with_residual(plan, pivot, pivot, catalog)? {
        Some(fragment) => fragment,
        None => PhysicalPlan::Source {
            schema: SchemaRef(pivot.try_output_schema(catalog)?),
        },
    };
    let res = QueryResources::charging(broker);
    let feed = vec![Inlet::os(rx, &res.fault)];
    let pages = wiring::run_local_between(catalog, &fragment, feed, vec![], cfg, &res)?;
    Ok(wiring::page_rows(&pages))
}

/// The fallible core of [`run_shared`]: `pivot` runs once and feeds one
/// consumer per entry of `plans` (each must contain `pivot`); one
/// outcome per consumer. With no consumer the pivot does not run.
#[expect(
    clippy::disallowed_methods,
    reason = "the sharing seam's consumer threads: one of the two places OS threads start"
)]
fn try_shared(
    catalog: &Catalog,
    pivot: &PhysicalPlan,
    plans: &[&PhysicalPlan],
    broker: &MemoryBroker,
) -> Vec<Result<Rows, ExecError>> {
    if plans.is_empty() {
        return Vec::new();
    }
    let cfg = &WiringConfig::default();
    thread::scope(|scope| {
        // One bounded link per consumer: the fan-out serialization
        // point of the model.
        let (txs, consumers): (Vec<_>, Vec<_>) = plans
            .iter()
            .map(|&plan| {
                let (tx, rx) = mpsc::sync_channel(cfg.queue_capacity);
                let consumer = scope.spawn(move || consume(catalog, plan, pivot, rx, cfg, broker));
                (tx, consumer)
            })
            .unzip();
        produce(catalog, pivot, txs, cfg, broker);
        consumers
            .into_iter()
            .map(|c| c.join().unwrap_or_else(|p| panic::resume_unwind(p)))
            .collect()
    })
}

/// Executes `m` copies of `spec` with the pivot sub-plan shared: the
/// pivot's operator graph runs once and fans its pages out, a morsel
/// per hand-off, to `m` consumer threads over bounded links.
///
/// # Panics
///
/// Panics if `spec` has no pivot, or if a query fails (a plan that does
/// not type-check, or a runtime fault).
#[expect(
    clippy::disallowed_types,
    reason = "the real-thread executor times its batches with an honest wall clock"
)]
#[expect(
    clippy::expect_used,
    reason = "documented '# Panics' contract of this harness entry point"
)]
pub fn run_shared(catalog: &Catalog, spec: &QuerySpec, m: usize) -> ThreadReport {
    let pivot = spec.pivot.as_ref().expect("shared run needs a pivot");
    let start = Instant::now();
    let results = try_shared(
        catalog,
        pivot,
        &vec![&spec.plan; m],
        &MemoryBroker::unbounded(),
    );
    report(start, results).expect("shared query failed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_once, EngineConfig};
    use cordoba_exec::expr::{Agg, CmpOp, Predicate, ScalarExpr};
    use cordoba_exec::ops::Fanout;
    use cordoba_exec::{reference, FaultCell, JoinKind, OpCost};
    use cordoba_sim::channel::Recv;
    use cordoba_sim::{DetachedCtx, TaskCtx};
    use cordoba_storage::{DataType, Field, Page, PageBuilder, Schema, TableBuilder};
    use std::sync::Arc;

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

    /// Every threaded mode reproduces the serial engine's rows for
    /// `spec` at each `m`, and returns every granted byte.
    fn assert_bit_identical(cat: &Catalog, spec: &QuerySpec, ms: &[usize]) {
        let want = bits(&serial_rows(cat, spec));
        let pivot = spec.pivot.as_ref().unwrap();
        for &m in ms {
            let broker = MemoryBroker::unbounded();
            let unshared = try_unshared(cat, &spec.plan, m, 2, &broker);
            let shared = try_shared(cat, pivot, &vec![&spec.plan; m], &broker);
            assert_eq!((unshared.len(), shared.len()), (m, m));
            for rows in unshared.iter().chain(&shared) {
                let rows = rows.as_ref().expect("query runs");
                assert_eq!(bits(rows), want, "{} m={m}", spec.name);
            }
            assert_eq!(broker.used(), 0, "{} m={m}: grants leaked", spec.name);
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
        let mp = WiringConfig::default().parallel.morsel_pages;
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
        let plan = sum_v(pivot.clone());
        let broker = MemoryBroker::unbounded();
        let results = try_shared(&cat, &pivot, &[&plan, &plan, &plan], &broker);
        assert_eq!(results.len(), 3);
        for r in &results {
            assert!(
                matches!(r, Err(ExecError::UnsortedMergeInput { side: "left", .. })),
                "{r:?}"
            );
        }
        assert_eq!(broker.used(), 0);
        // Unshared, the same plan fails the same way, per query.
        for r in try_unshared(&cat, &plan, 2, 2, &broker) {
            assert!(
                matches!(r, Err(ExecError::UnsortedMergeInput { .. })),
                "{r:?}"
            );
        }
        assert_eq!(broker.used(), 0);
    }

    #[test]
    fn consumer_fault_leaves_its_peers_exact() {
        let cat = catalog();
        let pivot = scan("u");
        let good = sum_v(pivot.clone());
        // Faults at run time, above the pivot: its left input (the
        // shared scan of `u`) is unsorted.
        let faulty = merge_join("u", "t");
        // Never starts: the pivot does not occur in it, so the consumer
        // hangs up before receiving a page.
        let foreign = scan("t");
        let broker = MemoryBroker::unbounded();
        let results = try_shared(&cat, &pivot, &[&good, &faulty, &foreign, &good], &broker);
        let want = bits(&serial_rows(
            &cat,
            &QuerySpec::unshared("good", good.clone()),
        ));
        assert_eq!(bits(results[0].as_ref().expect("peer runs")), want);
        assert_eq!(bits(results[3].as_ref().expect("peer runs")), want);
        assert!(
            matches!(
                results[1],
                Err(ExecError::UnsortedMergeInput { side: "left", .. })
            ),
            "{:?}",
            results[1]
        );
        assert!(
            matches!(results[2], Err(ExecError::PlanType(_))),
            "{:?}",
            results[2]
        );
        assert_eq!(broker.used(), 0);
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
    fn worker_scaling_samples_cover_requested_counts() {
        let cat = catalog();
        let samples = worker_scaling_samples(&cat, &query(), 2, &[1, 2]).unwrap();
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].0, 1);
        assert_eq!(samples[1].0, 2);
        for (k, x) in samples {
            assert!(x > 0.0, "throughput at k={k} must be positive, got {x}");
        }
    }

    #[test]
    fn no_consumer_means_the_pivot_does_not_run() {
        // The join pivot would charge the broker for its build side.
        let (cat, spec) = (catalog(), join_query());
        let broker = MemoryBroker::unbounded();
        assert!(try_shared(&cat, spec.pivot.as_ref().unwrap(), &[], &broker).is_empty());
        assert_eq!(broker.peak(), 0, "the pivot ran for nobody");
        assert!(run_shared(&cat, &spec, 0).results.is_empty());
    }

    /// Pages per hand-off of the seams below.
    const MORSEL: usize = 4;

    /// `n` distinct one-row pages.
    fn pivot_pages(n: usize) -> Vec<Arc<Page>> {
        let schema = Schema::new(vec![Field::new("k", DataType::Int)]);
        (0..n)
            .map(|i| {
                let mut b = PageBuilder::new(schema.clone());
                b.push_row(&[Value::Int(i as i64)]);
                b.finish()
            })
            .collect()
    }

    /// A seam stepped by hand: the pivot root's fan-out over one link
    /// per consumer, the pivot's fault cell, and `produce`'s own
    /// senders; the consumers' receiving ends go to the caller.
    struct Seam {
        fanout: Fanout,
        fault: FaultCell,
        txs: Vec<mpsc::SyncSender<Handoff>>,
    }

    fn seam(consumers: usize, morsel_pages: usize) -> (Seam, Vec<mpsc::Receiver<Handoff>>) {
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..consumers).map(|_| mpsc::sync_channel(16)).unzip();
        let fault = FaultCell::default();
        let outs = txs
            .iter()
            .map(|tx| Outlet::os(tx.clone(), morsel_pages, &fault))
            .collect();
        let fanout = Fanout::new(outs, 0.0);
        (Seam { fanout, fault, txs }, rxs)
    }

    impl Seam {
        /// The pivot's root delivers `pages`, one per step.
        fn emit(&mut self, pages: &[Arc<Page>], ctx: &mut TaskCtx<'_>) {
            for page in pages {
                self.fanout.extend(&mut vec![page.clone()]);
                assert!(self.fanout.flush(ctx).1, "an OS link is never full");
            }
        }

        /// As `produce` ends: the run's ports go (with whatever they
        /// were gathering), then the pivot's error if it failed, then
        /// the hang-up.
        fn finish(self) {
            drop(self.fanout);
            if let Some(err) = self.fault.take() {
                for tx in &self.txs {
                    let _ = tx.send(Err(err.clone()));
                }
            }
        }
    }

    /// Reads `inlet` to its end as the port of a consumer's operator:
    /// the pages it fed, how many reads that took, and the pivot's error
    /// if one ended it.
    fn read_all(
        mut inlet: Inlet,
        ctx: &mut TaskCtx<'_>,
    ) -> (Vec<Arc<Page>>, usize, Option<ExecError>) {
        let (mut fed, mut reads) = (Vec::new(), 0);
        loop {
            reads += 1;
            match inlet.recv(ctx) {
                Ok(Recv::Value(page)) => fed.push(page),
                Ok(Recv::Closed) => return (fed, reads, None),
                Ok(Recv::Empty) => panic!("an OS link blocks instead"),
                Err(err) => return (fed, reads, Some(err)),
            }
        }
    }

    fn same_pages(got: &[Arc<Page>], want: &[Arc<Page>]) -> bool {
        got.len() == want.len() && got.iter().zip(want).all(|(g, w)| Arc::ptr_eq(g, w))
    }

    #[test]
    fn the_seam_hands_off_whole_morsels_and_the_partial_tail() {
        let mut detached = DetachedCtx::new();
        let ctx = &mut detached.ctx(0);
        for n in [
            0,
            1,
            MORSEL - 1,
            MORSEL,
            MORSEL + 1,
            2 * MORSEL - 1,
            2 * MORSEL,
        ] {
            let pages = pivot_pages(n);
            let (mut seam, mut rxs) = seam(2, MORSEL);
            seam.emit(&pages, ctx);
            seam.fanout.close(ctx);
            seam.finish();
            // One consumer's raw link: full morsels, then the tail,
            // never an empty hand-off.
            let raw = rxs.remove(0);
            let handoffs: Vec<_> = raw.try_iter().map(|h| h.expect("no fault")).collect();
            let sizes: Vec<_> = handoffs.iter().map(Vec::len).collect();
            let mut want = vec![MORSEL; n / MORSEL];
            want.extend((n % MORSEL > 0).then_some(n % MORSEL));
            assert_eq!(sizes, want, "n={n}");
            assert!(same_pages(&handoffs.concat(), &pages), "n={n}");
            // The other's port: the same pages (not copies), one per
            // read, then end-of-stream.
            let port = Inlet::os(rxs.remove(0), &FaultCell::default());
            let (fed, reads, fault) = read_all(port, ctx);
            assert!(same_pages(&fed, &pages), "n={n}");
            assert_eq!(reads, n + 1, "n={n}");
            assert!(fault.is_none(), "n={n}");
        }
    }

    #[test]
    fn a_hung_up_consumer_is_dropped_at_the_next_hand_off() {
        let mut detached = DetachedCtx::new();
        let ctx = &mut detached.ctx(0);
        let pages = pivot_pages(3 * MORSEL);
        // How many outlets are gathering a page: its strong count less
        // the test's own.
        let gathering = |page: &Arc<Page>| Arc::strong_count(page) - 1;
        let (mut seam, mut rxs) = seam(2, MORSEL);
        let peer = rxs.remove(1);
        let failed = FaultCell::default();
        let mut port = Inlet::os(rxs.remove(0), &failed);
        seam.emit(&pages[..MORSEL], ctx);
        // Consumer 0's query fails after the first hand-off, in an
        // operator other than the one reading the link: its port reads
        // as closed, the morsel in hand unread, and hangs up. Nothing
        // tells the fan-out until the next hand-off; from then on the
        // peer alone is served, exactly.
        failed.set(ExecError::plan("consumer broke"));
        assert!(matches!(port.recv(ctx), Ok(Recv::Closed)));
        seam.emit(&pages[MORSEL..2 * MORSEL - 1], ctx);
        assert_eq!(gathering(&pages[MORSEL]), 2);
        seam.emit(&pages[2 * MORSEL - 1..=2 * MORSEL], ctx);
        assert_eq!(gathering(&pages[2 * MORSEL]), 1, "the peer's outlet only");
        let got: Vec<_> = peer.try_iter().map(|h| h.expect("no fault")).collect();
        assert!(same_pages(&got.concat(), &pages[..2 * MORSEL]));
        // The last consumer goes: nothing tells the fan-out until the
        // next morsel is full, and then it reports that nobody listens,
        // which the pivot root's shell takes as the end of its output.
        drop(peer);
        seam.emit(&pages[2 * MORSEL + 1..3 * MORSEL - 1], ctx);
        assert!(!seam.fanout.is_unheard());
        seam.emit(&pages[3 * MORSEL - 1..3 * MORSEL], ctx);
        assert_eq!(gathering(&pages[3 * MORSEL - 1]), 0);
        assert!(seam.fanout.is_unheard(), "the pivot is cancelled");
    }

    #[test]
    fn a_pivot_fault_discards_the_morsel_in_hand() {
        let mut detached = DetachedCtx::new();
        let ctx = &mut detached.ctx(0);
        let pages = pivot_pages(MORSEL + 2);
        let (mut seam, mut rxs) = seam(1, MORSEL);
        let inlet = Inlet::os(rxs.remove(0), &FaultCell::default());
        // One full hand-off is out and two pages are in hand when the
        // pivot faults and its root ends the stream, as a failing
        // operator's shell does.
        seam.emit(&pages, ctx);
        let err = ExecError::plan("pivot broke");
        seam.fault.set(err.clone());
        seam.fanout.close(ctx);
        seam.finish();
        // The consumer was fed the first morsel and nothing of the
        // second, and its query fails with the pivot's error.
        let (fed, _, fault) = read_all(inlet, ctx);
        assert!(same_pages(&fed, &pages[..MORSEL]));
        assert_eq!(fault, Some(err));
    }

    /// Model check of the batched seam, in the manner of
    /// `crates/sim/tests/model_channel.rs`: the producer thread and each
    /// consumer thread are step machines, and every merge order of their
    /// steps must leave each consumer that stayed with either the
    /// pivot's complete page sequence, in order, then end-of-stream — or
    /// the pivot's error. A truncated stream that reads as end-of-stream
    /// is the bug this guards against.
    mod seam_model {
        use super::*;
        use shuttle_lite::explore::{count, interleavings};

        /// Pages per hand-off, and pages a healthy pivot emits: one full
        /// hand-off, then a partial one that only its close flushes.
        const MORSEL: usize = 2;
        const PAGES: usize = 3;

        /// One consumer thread, reading its link through the port of
        /// the operator above its `Source` leaf. A thread blocked in
        /// `recv` makes no progress, so a step that would park is
        /// skipped; to know which steps would, the link ends at `tap`
        /// and a hand-off crosses to the port's own link (`wire`) only
        /// at the step that needs it.
        struct Consumer {
            tap: mpsc::Receiver<Handoff>,
            wire: Option<mpsc::SyncSender<Handoff>>,
            port: Inlet,
            /// Reads the hand-offs crossed so far still hold.
            unread: usize,
            fed: Vec<Arc<Page>>,
            fault: Option<ExecError>,
            done: bool,
        }

        impl Consumer {
            fn new(tap: mpsc::Receiver<Handoff>) -> Self {
                let (wire, rx) = mpsc::sync_channel(1);
                Consumer {
                    tap,
                    wire: Some(wire),
                    port: Inlet::os(rx, &FaultCell::default()),
                    unread: 0,
                    fed: Vec::new(),
                    fault: None,
                    done: false,
                }
            }

            fn step(&mut self, ctx: &mut TaskCtx<'_>) {
                if self.done {
                    return;
                }
                if self.unread == 0 {
                    match self.tap.try_recv() {
                        Ok(handoff) => {
                            self.unread = handoff.as_ref().map_or(1, Vec::len);
                            let wire = self.wire.as_ref().expect("the pivot has not hung up");
                            wire.send(handoff).expect("the port listens");
                        }
                        Err(mpsc::TryRecvError::Empty) => return,
                        Err(mpsc::TryRecvError::Disconnected) => self.wire = None,
                    }
                }
                match self.port.recv(ctx) {
                    Ok(Recv::Value(page)) => {
                        self.fed.push(page);
                        self.unread -= 1;
                    }
                    Ok(Recv::Closed) => self.done = true,
                    Ok(Recv::Empty) => panic!("an OS link blocks instead"),
                    Err(err) => (self.fault, self.done) = (Some(err), true),
                }
            }
        }

        /// The producer thread: `emitted` pages, then the pivot's root
        /// ends the stream — after it faulted, if `faulty` — then
        /// `produce`'s tail.
        struct Producer {
            seam: Option<Seam>,
            pages: Vec<Arc<Page>>,
            emitted: usize,
            faulty: bool,
            op: usize,
        }

        impl Producer {
            fn step(&mut self, ctx: &mut TaskCtx<'_>) {
                let Some(seam) = &mut self.seam else {
                    return;
                };
                if self.op < self.emitted {
                    seam.emit(&self.pages[self.op..=self.op], ctx);
                } else if self.op == self.emitted {
                    if self.faulty {
                        seam.fault.set(ExecError::plan("pivot broke"));
                    }
                    seam.fanout.close(ctx);
                } else {
                    self.seam.take().expect("checked above").finish();
                }
                self.op += 1;
            }
        }

        /// Explores every interleaving of one producer (`emitted + 2`
        /// ops) and two consumers; consumer 0 hangs up at its op
        /// `hang_up`, if given. Returns how many were explored.
        fn explore(emitted: usize, faulty: bool, hang_up: Option<usize>) -> usize {
            let lens = [emitted + 2, 3, 4];
            let pages = pivot_pages(PAGES);
            let (explored, exhausted) = interleavings(&lens, usize::MAX, |seq| {
                let mut detached = DetachedCtx::new();
                let ctx = &mut detached.ctx(0);
                let (seam, taps) = seam(2, MORSEL);
                let mut producer = Producer {
                    seam: Some(seam),
                    pages: pages.clone(),
                    emitted,
                    faulty,
                    op: 0,
                };
                let mut consumers: Vec<_> = taps
                    .into_iter()
                    .map(|tap| Some(Consumer::new(tap)))
                    .collect();
                let mut ops = [0usize; 3];
                for &t in seq {
                    match t {
                        0 => producer.step(ctx),
                        c => {
                            if c == 1 && hang_up == Some(ops[1]) {
                                // Its own failure: the thread ends and
                                // drops its end of the link.
                                consumers[0] = None;
                            }
                            if let Some(consumer) = &mut consumers[c - 1] {
                                consumer.step(ctx);
                            }
                        }
                    }
                    ops[t] += 1;
                }
                // Nothing is left to race: run each thread to its end.
                while producer.seam.is_some() {
                    producer.step(ctx);
                }
                for consumer in consumers.iter_mut().flatten() {
                    while !consumer.done {
                        consumer.step(ctx);
                    }
                    let fed = &consumer.fed;
                    match &consumer.fault {
                        Some(err) => assert!(faulty, "seq {seq:?}: {err} from a healthy pivot"),
                        None => {
                            assert!(!faulty, "seq {seq:?}: a failed pivot read as end-of-stream");
                            assert!(
                                same_pages(fed, &pages[..emitted]),
                                "seq {seq:?}: truncated or reordered: {} of {emitted} pages",
                                fed.len()
                            );
                        }
                    }
                    // Whatever was fed is a prefix of the pivot's output.
                    assert!(same_pages(fed, &pages[..fed.len()]), "seq {seq:?}");
                }
            });
            assert!(exhausted);
            assert_eq!(explored, count(&lens));
            explored
        }

        /// The acceptance floor per scenario, as in the channel suite.
        const MIN_INTERLEAVINGS: usize = 1_000;

        #[test]
        fn flush_on_close_delivers_the_partial_tail_to_everyone() {
            assert!(explore(PAGES, false, None) >= MIN_INTERLEAVINGS);
        }

        #[test]
        fn a_consumer_hang_up_leaves_its_peer_exact() {
            // Before its first hand-off, between the two, and after both.
            for at in 0..3 {
                assert!(explore(PAGES, false, Some(at)) >= MIN_INTERLEAVINGS);
            }
        }

        #[test]
        fn a_pivot_fault_reaches_every_consumer_as_an_error() {
            // With nothing, a partial morsel, and a just-flushed morsel
            // in the fan-out's hand; and with a consumer leaving too.
            for emitted in 0..=PAGES {
                assert!(explore(emitted, true, None) >= MIN_INTERLEAVINGS);
            }
            assert!(explore(PAGES, true, Some(1)) >= MIN_INTERLEAVINGS);
        }
    }
}
