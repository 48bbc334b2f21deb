//! Real-thread executor: the engine's operator graph on OS threads.
//!
//! The simulator is the measurement substrate (deterministic, scales to
//! 32 contexts on any host); this module runs the *same* engine on real
//! hardware. There is no second executor: every OS thread builds a
//! private single-context [`Simulator`], wires its plan with
//! [`cordoba_exec::wiring`] (serial wiring — `CORDOBA_WORKERS` cannot
//! perturb it) and drives it with the ordinary run loop, so compiled
//! expressions, [`FaultCell`] and [`MemoryBroker`] behave exactly as in
//! a simulated run and the rows are bit-identical to
//! [`crate::run_once`]'s — float bits and row order included.
//!
//! * **Unshared** — worker threads claim queries from one counter and
//!   run one graph per query ([`wiring::run_serial`]); the
//!   morsel-parallel variant runs the same graph through
//!   [`wiring::run_local`], whose `par_pipe` worker tasks get an OS
//!   thread each.
//! * **Shared** — the calling thread runs the pivot's graph once; its
//!   root is a forwarding sink that hands each `Arc<Page>` (for a scan
//!   pivot the table's own pages — nothing is copied) to one bounded OS
//!   channel per consumer. Each consumer thread runs its private
//!   above-fragment, whose `Source` leaf is fed by a bridge task that
//!   blocks on that channel. OS channels exist only at this sharing
//!   seam, exactly where the model's per-consumer `s` lives — the
//!   producer pays the real (wall-clock) `M·s`.
//!
//! Faults stay per query: a consumer that fails hangs up its channel
//! and the producer stops serving it while its peers go on; a pivot
//! fault travels down every channel, so no consumer mistakes a
//! truncated pivot for end-of-stream.

use crate::query::QuerySpec;
use crate::sharing::split_at_pivot;
use cordoba_exec::ops::Fanout;
use cordoba_exec::wiring::{self, WiringConfig};
use cordoba_exec::{
    ExecError, FaultCell, MemoryBroker, OpCost, ParallelConfig, PhysicalPlan, QueryResources,
};
use cordoba_sim::channel::{self, Receiver, Recv};
use cordoba_sim::{Simulator, Step, Task, TaskCtx};
use cordoba_storage::{Catalog, Page, Value};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
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

/// What crosses the sharing seam: a pivot page, or the error that ended
/// the pivot early.
type Shared = Result<Arc<Page>, ExecError>;

/// The report of a batch every query of which succeeded, else its first
/// (submission-order) error.
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
            // lint: allow(a worker panic must propagate; join is the propagation point)
            .flat_map(|w| w.join().expect("query worker panicked"))
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
        let pages = wiring::run_serial(catalog, plan, &QueryResources::charging(broker))?;
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
pub fn run_unshared(catalog: &Catalog, spec: &QuerySpec, m: usize, threads: usize) -> ThreadReport {
    let start = Instant::now();
    let results = try_unshared(catalog, &spec.plan, m, threads, &MemoryBroker::unbounded());
    // lint: allow(documented '# Panics' contract of this harness entry point)
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
        ..WiringConfig::serial()
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
/// Feed the samples to [`cordoba_core::contention::estimate_k`]-style
/// fitting to recover the scaling exponent `κ` of `e(k) = k^κ` for this
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

/// Root of the pivot's graph: hands every page to each consumer's OS
/// channel in turn — the pivot's `M·s` serialization, in wall-clock
/// time. A full channel blocks the whole producer thread, which is the
/// back-pressure the model assumes.
struct SeamFanout {
    rx: Receiver<Arc<Page>>,
    txs: Vec<mpsc::SyncSender<Shared>>,
}

impl Task for SeamFanout {
    fn step(&mut self, ctx: &mut TaskCtx<'_>) -> Step {
        match self.rx.try_recv(ctx) {
            Recv::Value(page) => {
                // A consumer that hung up (its own failure) stops being
                // served; its peers go on.
                self.txs.retain(|tx| tx.send(Ok(page.clone())).is_ok());
                if self.txs.is_empty() {
                    // Nobody left to produce for: cancel the pivot.
                    self.rx.close(ctx);
                    return Step::done(0);
                }
                Step::yielded(1)
            }
            Recv::Empty => Step::blocked(0),
            Recv::Closed => Step::done(0),
        }
    }
}

/// Leaf of a consumer's graph: feeds the fragment's `Source` from the
/// consumer's OS channel. Blocking in `recv` parks this consumer's whole
/// run loop until the pivot delivers again; a consumer that keeps up
/// with the pivot therefore runs at most one page behind it.
struct SeamSource {
    rx: mpsc::Receiver<Shared>,
    fanout: Fanout,
    fault: FaultCell,
}

impl Task for SeamSource {
    fn step(&mut self, ctx: &mut TaskCtx<'_>) -> Step {
        if !self.fanout.pump(ctx).1 {
            return Step::blocked(0);
        }
        // A fragment that already failed needs no more input: finishing
        // drops the channel, so the producer stops serving this consumer.
        let next = if self.fault.is_set() {
            None
        } else {
            self.rx.recv().ok()
        };
        match next {
            Some(Ok(page)) => {
                self.fanout.begin(page);
                if self.fanout.pump(ctx).1 {
                    Step::yielded(1)
                } else {
                    Step::blocked(0)
                }
            }
            Some(Err(pivot_fault)) => {
                self.fault.set(pivot_fault);
                self.fanout.close(ctx);
                Step::done(0)
            }
            None => {
                self.fanout.close(ctx);
                Step::done(0)
            }
        }
    }
}

/// Runs the pivot's graph once on the calling thread, fanning its pages
/// out to `txs`. A pivot that fails (or wedges) sends its error down
/// every channel instead of just hanging up.
fn produce(
    catalog: &Catalog,
    pivot: &PhysicalPlan,
    txs: Vec<mpsc::SyncSender<Shared>>,
    cfg: &WiringConfig,
    broker: &MemoryBroker,
) {
    let res = QueryResources::charging(broker);
    let mut sim = Simulator::new(1);
    let (tx, rx) = channel::bounded(cfg.queue_capacity);
    let wired = wiring::instantiate_into(
        &mut sim,
        catalog,
        pivot,
        vec![tx],
        &mut VecDeque::new(),
        "shared",
        cfg,
        &res,
    );
    let failure = match wired {
        Ok(_) => {
            sim.spawn(
                "shared/fanout",
                Box::new(SeamFanout {
                    rx,
                    txs: txs.clone(),
                }),
            );
            let outcome = sim.run_to_idle();
            res.fault.take().or_else(|| wiring::stall_error(&outcome))
        }
        Err(err) => Some(err),
    };
    if let Some(err) = failure {
        for tx in &txs {
            // A consumer that already hung up has its own error.
            let _ = tx.send(Err(err.clone()));
        }
    }
}

/// Runs one consumer: its private above-fragment of `plan` (everything
/// above the pivot) over the pages arriving on `rx`.
fn consume(
    catalog: &Catalog,
    plan: &PhysicalPlan,
    pivot: &PhysicalPlan,
    rx: mpsc::Receiver<Shared>,
    cfg: &WiringConfig,
    broker: &MemoryBroker,
) -> Result<Rows, ExecError> {
    let fragment = split_at_pivot(plan, pivot, catalog)?;
    let res = QueryResources::charging(broker);
    let mut sim = Simulator::new(1);
    let (tx, from_pivot) = channel::bounded(cfg.queue_capacity);
    sim.spawn(
        "q/bridge",
        Box::new(SeamSource {
            rx,
            fanout: Fanout::new(vec![tx], 0.0),
            fault: res.fault.clone(),
        }),
    );
    let out = match fragment {
        Some(fragment) => {
            let (tx, out) = channel::bounded(cfg.queue_capacity);
            wiring::instantiate_into(
                &mut sim,
                catalog,
                &fragment,
                vec![tx],
                &mut VecDeque::from([from_pivot]),
                "q",
                cfg,
                &res,
            )?;
            out
        }
        // The whole plan is shared: the pivot's output is the result.
        None => from_pivot,
    };
    wiring::run_and_collect(&mut sim, out, OpCost::default(), &res.fault)
}

/// The fallible core of [`run_shared`]: `pivot` runs once and feeds one
/// consumer per entry of `plans` (each must contain `pivot`); one
/// outcome per consumer.
fn try_shared(
    catalog: &Catalog,
    pivot: &PhysicalPlan,
    plans: &[&PhysicalPlan],
    broker: &MemoryBroker,
) -> Vec<Result<Rows, ExecError>> {
    let cfg = &WiringConfig::serial();
    thread::scope(|scope| {
        // One bounded channel per consumer: the fan-out serialization
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
            // lint: allow(a consumer panic must propagate; join is the propagation point)
            .map(|c| c.join().expect("consumer thread panicked"))
            .collect()
    })
}

/// Executes `m` copies of `spec` with the pivot sub-plan shared: the
/// pivot's operator graph runs once and fans its pages out to `m`
/// consumer threads over bounded channels.
///
/// # Panics
///
/// Panics if `spec` has no pivot, or if a query fails (a plan that does
/// not type-check, or a runtime fault).
pub fn run_shared(catalog: &Catalog, spec: &QuerySpec, m: usize) -> ThreadReport {
    // lint: allow(documented '# Panics' contract of this harness entry point)
    let pivot = spec.pivot.as_ref().expect("shared run needs a pivot");
    let start = Instant::now();
    let results = try_shared(
        catalog,
        pivot,
        &vec![&spec.plan; m],
        &MemoryBroker::unbounded(),
    );
    // lint: allow(documented '# Panics' contract of this harness entry point)
    report(start, results).expect("shared query failed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_once, EngineConfig};
    use cordoba_exec::expr::{Agg, CmpOp, Predicate, ScalarExpr};
    use cordoba_exec::{reference, JoinKind, OpCost};
    use cordoba_storage::{DataType, Field, Schema, TableBuilder};

    /// `t` is sorted on `k` and its `v` sums exactly in any order (the
    /// morsel-parallel tests need that); `u` goes unsorted after 1500
    /// rows (a merge join over it faults mid-stream, with result pages
    /// already out) and its `v` sums are order-sensitive in the last
    /// bits.
    fn catalog() -> Catalog {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Float),
        ]);
        let mut t = TableBuilder::new("t", schema.clone());
        let mut u = TableBuilder::new("u", schema);
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
        let cfg = EngineConfig {
            parallel: ParallelConfig::with_workers(1),
            ..EngineConfig::default()
        };
        let mut out = run_once(cat, std::slice::from_ref(spec), &cfg);
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

    #[test]
    fn threads_reproduce_the_serial_engine_bit_for_bit() {
        let cat = catalog();
        let q = scan_query("u", 50);
        let whole = QuerySpec::shared_at("whole", q.plan.clone(), q.plan.clone());
        for spec in [q, join_query(), whole] {
            let want = bits(&serial_rows(&cat, &spec));
            let pivot = spec.pivot.as_ref().unwrap();
            for m in [1usize, 2, 4] {
                let broker = MemoryBroker::unbounded();
                let unshared = try_unshared(&cat, &spec.plan, m, 2, &broker);
                let shared = try_shared(&cat, pivot, &vec![&spec.plan; m], &broker);
                assert_eq!((unshared.len(), shared.len()), (m, m));
                for rows in unshared.iter().chain(&shared) {
                    let rows = rows.as_ref().expect("query runs");
                    assert_eq!(bits(rows), want, "{} m={m}", spec.name);
                }
                assert_eq!(broker.used(), 0, "{} m={m}: grants leaked", spec.name);
            }
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
}
