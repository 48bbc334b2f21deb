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
//!   root is a forwarding sink that gathers the pivot's `Arc<Page>`s
//!   (for a scan pivot the table's own pages — nothing is copied) into
//!   morsels of [`ParallelConfig::morsel_pages`] pages and hands each
//!   morsel to one bounded OS channel per consumer: one hand-off (a
//!   lock, often a futex wake) per morsel per consumer, not per page.
//!   Each consumer thread runs its private above-fragment, whose
//!   `Source` leaf is fed one page per step by a bridge task that
//!   blocks on that channel. OS channels exist only at this sharing
//!   seam, exactly where the model's per-consumer `s` lives — the
//!   producer pays the real (wall-clock) `M·s`. A channel holds
//!   `queue_capacity` hand-offs, so at most `queue_capacity ×
//!   morsel_pages` pages (16 × 4) are in flight per consumer, as
//!   `Arc`s.
//!
//! Faults stay per query: a consumer that fails hangs up its channel
//! and the producer stops serving it at its next hand-off while its
//! peers go on; a pivot fault travels down every channel, so no
//! consumer mistakes a truncated pivot for end-of-stream.

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

/// One hand-off across the sharing seam: a morsel of pivot pages, or
/// the error that ended the pivot early.
type Shared = Result<Vec<Arc<Page>>, ExecError>;

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

/// Root of the pivot's graph: gathers the pivot's pages into morsels
/// and hands each full morsel — and, when the pivot closes, the partial
/// last one — to each consumer's OS channel in turn: the pivot's `M·s`
/// serialization, in wall-clock time. A full channel blocks the whole
/// producer thread, which is the back-pressure the model assumes.
///
/// Nothing is handed off once the pivot has faulted: the pages in hand
/// are discarded and [`produce`] sends the error instead, so no
/// consumer computes a result from a truncated pivot.
struct SeamFanout {
    rx: Receiver<Arc<Page>>,
    txs: Vec<mpsc::SyncSender<Shared>>,
    /// Pages per hand-off.
    morsel_pages: usize,
    /// The morsel being gathered.
    morsel: Vec<Arc<Page>>,
    /// The pivot's fault.
    fault: FaultCell,
}

impl SeamFanout {
    /// Hands the gathered pages to every consumer still listening — a
    /// consumer that hung up (its own failure) stops being served, its
    /// peers go on. `false` when nobody is left to produce for.
    fn flush(&mut self) -> bool {
        if !self.morsel.is_empty() && !self.fault.is_set() {
            let morsel = &self.morsel;
            self.txs.retain(|tx| tx.send(Ok(morsel.clone())).is_ok());
        }
        self.morsel.clear();
        !self.txs.is_empty()
    }
}

impl Task for SeamFanout {
    fn step(&mut self, ctx: &mut TaskCtx<'_>) -> Step {
        match self.rx.try_recv(ctx) {
            Recv::Value(page) => {
                self.morsel.push(page);
                if self.morsel.len() >= self.morsel_pages && !self.flush() {
                    // Cancel the pivot.
                    self.rx.close(ctx);
                    return Step::done(0);
                }
                Step::yielded(1)
            }
            Recv::Empty => Step::blocked(0),
            Recv::Closed => {
                self.flush();
                Step::done(0)
            }
        }
    }
}

/// Leaf of a consumer's graph: feeds the fragment's `Source` from the
/// consumer's OS channel, one page per step whatever the hand-off held.
/// Blocking in `recv` parks this consumer's whole run loop until the
/// pivot delivers again; a consumer that keeps up with the pivot
/// therefore runs at most one morsel behind it.
struct SeamSource {
    rx: mpsc::Receiver<Shared>,
    /// The hand-off being unpacked.
    morsel: std::vec::IntoIter<Arc<Page>>,
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
        while !self.fault.is_set() {
            if let Some(page) = self.morsel.next() {
                self.fanout.begin(page);
                return if self.fanout.pump(ctx).1 {
                    Step::yielded(1)
                } else {
                    Step::blocked(0)
                };
            }
            match self.rx.recv() {
                Ok(Ok(pages)) => self.morsel = pages.into_iter(),
                Ok(Err(pivot_fault)) => self.fault.set(pivot_fault),
                // The pivot closed and hung up: end of stream.
                Err(mpsc::RecvError) => break,
            }
        }
        self.fanout.close(ctx);
        Step::done(0)
    }
}

/// Runs the pivot's graph once on the calling thread, fanning its pages
/// out to `txs`. A pivot that fails (or wedges) sends its error down
/// every channel instead of just hanging up — after discarding the
/// morsel its fan-out was still gathering, so the error is the last
/// thing a consumer reads and no page behind it is ever served.
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
                    morsel_pages: cfg.parallel.morsel_pages.max(1),
                    morsel: Vec::new(),
                    fault: res.fault.clone(),
                }),
            );
            let outcome = sim.run_to_idle();
            res.fault.take().or_else(|| wiring::stall_error(&outcome))
        }
        Err(err) => Some(err),
    };
    if let Some(err) = failure {
        // In this order: the fan-out and its partial morsel go first.
        drop(sim);
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
            morsel: Vec::new().into_iter(),
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
/// outcome per consumer. With no consumer the pivot does not run.
fn try_shared(
    catalog: &Catalog,
    pivot: &PhysicalPlan,
    plans: &[&PhysicalPlan],
    broker: &MemoryBroker,
) -> Vec<Result<Rows, ExecError>> {
    if plans.is_empty() {
        return Vec::new();
    }
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
/// pivot's operator graph runs once and fans its pages out, a morsel
/// per hand-off, to `m` consumer threads over bounded channels.
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
    use cordoba_sim::channel::Sender;
    use cordoba_sim::{DetachedCtx, StepStatus};
    use cordoba_storage::{DataType, Field, PageBuilder, Schema, TableBuilder};

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
        let mp = WiringConfig::serial().parallel.morsel_pages;
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

    /// A seam stepped by hand: the pivot's output channel, its fault
    /// cell, the fan-out over `consumers` channels, `produce`'s own
    /// senders, and the consumers' receiving ends.
    struct Seam {
        pivot: Sender<Arc<Page>>,
        fault: FaultCell,
        fanout: SeamFanout,
        txs: Vec<mpsc::SyncSender<Shared>>,
    }

    fn seam(consumers: usize) -> (Seam, Vec<mpsc::Receiver<Shared>>) {
        let (pivot, rx) = channel::bounded(64);
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..consumers).map(|_| mpsc::sync_channel(16)).unzip();
        let fault = FaultCell::default();
        let fanout = SeamFanout {
            rx,
            txs: txs.clone(),
            morsel_pages: MORSEL,
            morsel: Vec::new(),
            fault: fault.clone(),
        };
        let seam = Seam {
            pivot,
            fault,
            fanout,
            txs,
        };
        (seam, rxs)
    }

    impl Seam {
        /// The pivot emits `pages`; the fan-out takes them one per step.
        fn emit(&mut self, pages: &[Arc<Page>], ctx: &mut TaskCtx<'_>) -> StepStatus {
            let mut status = StepStatus::Yield;
            for page in pages {
                assert!(self.pivot.try_send(page.clone(), ctx).is_ok());
                status = self.fanout.step(ctx).status;
            }
            status
        }

        /// As `produce` ends: the fan-out goes (with whatever it was
        /// gathering), then the pivot's error if it failed, then the
        /// hang-up.
        fn finish(self) {
            drop(self.fanout);
            if let Some(err) = self.fault.take() {
                for tx in &self.txs {
                    let _ = tx.send(Err(err.clone()));
                }
            }
        }
    }

    /// A consumer's bridge task on `rx`, what it delivers, and its
    /// query's fault cell.
    fn seam_source(rx: mpsc::Receiver<Shared>) -> (SeamSource, Receiver<Arc<Page>>, FaultCell) {
        let (tx, out) = channel::bounded(64);
        let fault = FaultCell::default();
        let source = SeamSource {
            rx,
            morsel: Vec::new().into_iter(),
            fanout: Fanout::new(vec![tx], 0.0),
            fault: fault.clone(),
        };
        (source, out, fault)
    }

    /// Steps `source` to the end; the pages it fed, and how many steps
    /// that took.
    fn drain_source(
        source: &mut SeamSource,
        out: &Receiver<Arc<Page>>,
        ctx: &mut TaskCtx<'_>,
    ) -> (Vec<Arc<Page>>, usize) {
        let (mut fed, mut steps) = (Vec::new(), 1);
        while source.step(ctx).status != StepStatus::Done {
            steps += 1;
        }
        while let Recv::Value(page) = out.try_recv(ctx) {
            fed.push(page);
        }
        assert!(matches!(out.try_recv(ctx), Recv::Closed));
        (fed, steps)
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
            let (mut seam, mut rxs) = seam(2);
            seam.emit(&pages, ctx);
            seam.pivot.close(ctx);
            assert_eq!(seam.fanout.step(ctx).status, StepStatus::Done, "n={n}");
            seam.finish();
            // One consumer's raw channel: full morsels, then the tail,
            // never an empty hand-off.
            let raw = rxs.remove(0);
            let handoffs: Vec<_> = raw.try_iter().map(|h| h.expect("no fault")).collect();
            let sizes: Vec<_> = handoffs.iter().map(Vec::len).collect();
            let mut want = vec![MORSEL; n / MORSEL];
            want.extend((n % MORSEL > 0).then_some(n % MORSEL));
            assert_eq!(sizes, want, "n={n}");
            assert!(same_pages(&handoffs.concat(), &pages), "n={n}");
            // The other's bridge task: the same pages (not copies), one
            // per step, then end-of-stream.
            let (mut source, out, fault) = seam_source(rxs.remove(0));
            let (fed, steps) = drain_source(&mut source, &out, ctx);
            assert!(same_pages(&fed, &pages), "n={n}");
            assert_eq!(steps, n + 1, "n={n}");
            assert!(!fault.is_set(), "n={n}");
        }
    }

    #[test]
    fn a_hung_up_consumer_is_dropped_at_the_next_hand_off() {
        let mut detached = DetachedCtx::new();
        let ctx = &mut detached.ctx(0);
        let pages = pivot_pages(3 * MORSEL);
        let (mut seam, mut rxs) = seam(2);
        let peer = rxs.remove(1);
        // Consumer 0 fails before the first hand-off: it is noticed at
        // that flush, and its peer is served on, exactly.
        rxs.clear();
        assert_eq!(seam.emit(&pages[..MORSEL], ctx), StepStatus::Yield);
        assert_eq!(seam.fanout.txs.len(), 1);
        let got = peer.try_recv().expect("a hand-off").expect("no fault");
        assert!(same_pages(&got, &pages[..MORSEL]));
        // The last consumer goes: nothing tells the fan-out until the
        // next morsel is full, and then it cancels the pivot.
        drop(peer);
        assert_eq!(
            seam.emit(&pages[MORSEL..2 * MORSEL - 1], ctx),
            StepStatus::Yield
        );
        assert!(!seam.fanout.rx.is_finished());
        assert_eq!(
            seam.emit(&pages[2 * MORSEL - 1..2 * MORSEL], ctx),
            StepStatus::Done
        );
        assert!(seam.fanout.rx.is_finished(), "the pivot is cancelled");
    }

    #[test]
    fn a_pivot_fault_discards_the_morsel_in_hand() {
        let mut detached = DetachedCtx::new();
        let ctx = &mut detached.ctx(0);
        let pages = pivot_pages(MORSEL + 2);
        let (mut seam, mut rxs) = seam(1);
        let (mut source, out, fault) = seam_source(rxs.remove(0));
        // One full hand-off is out and two pages are in hand when the
        // pivot faults and closes, as a failing operator does.
        seam.emit(&pages, ctx);
        let err = ExecError::plan("pivot broke");
        seam.fault.set(err.clone());
        seam.pivot.close(ctx);
        assert_eq!(seam.fanout.step(ctx).status, StepStatus::Done);
        assert!(seam.fanout.morsel.is_empty());
        seam.finish();
        // The consumer was fed the first morsel and nothing of the
        // second, and its query fails with the pivot's error.
        let (fed, _) = drain_source(&mut source, &out, ctx);
        assert!(same_pages(&fed, &pages[..MORSEL]));
        assert_eq!(fault.take(), Some(err));
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

        /// One consumer thread. A thread blocked in `recv` makes no
        /// progress, so a step that would park is skipped; to know
        /// which steps would, the fan-out's channel ends at `tap` and a
        /// hand-off crosses to the bridge task's own channel (`wire`)
        /// only at the step that takes it.
        struct Consumer {
            tap: mpsc::Receiver<Shared>,
            wire: Option<mpsc::SyncSender<Shared>>,
            source: SeamSource,
            out: Receiver<Arc<Page>>,
            fault: FaultCell,
            done: bool,
        }

        impl Consumer {
            fn new(tap: mpsc::Receiver<Shared>) -> Self {
                let (wire, rx) = mpsc::sync_channel(1);
                let (source, out, fault) = seam_source(rx);
                Consumer {
                    tap,
                    wire: Some(wire),
                    source,
                    out,
                    fault,
                    done: false,
                }
            }

            fn step(&mut self, ctx: &mut TaskCtx<'_>) {
                if self.done {
                    return;
                }
                if self.source.morsel.len() == 0 {
                    match self.tap.try_recv() {
                        Ok(handoff) => {
                            let wire = self.wire.as_ref().expect("the pivot has not hung up");
                            wire.send(handoff).expect("the bridge task listens");
                        }
                        Err(mpsc::TryRecvError::Empty) => return,
                        Err(mpsc::TryRecvError::Disconnected) => self.wire = None,
                    }
                }
                self.done = self.source.step(ctx).status == StepStatus::Done;
            }
        }

        /// The producer thread: `emitted` pages, then the pivot closes —
        /// after faulting, if `faulty` — then `produce`'s tail.
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
                    seam.pivot.close(ctx);
                    seam.fanout.step(ctx);
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
                let (mut seam, taps) = seam(2);
                seam.fanout.morsel_pages = MORSEL;
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
                                // drops its end of the channel.
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
                    let mut fed = Vec::new();
                    while let Recv::Value(page) = consumer.out.try_recv(ctx) {
                        fed.push(page);
                    }
                    match consumer.fault.take() {
                        Some(err) => assert!(faulty, "seq {seq:?}: {err} from a healthy pivot"),
                        None => {
                            assert!(!faulty, "seq {seq:?}: a failed pivot read as end-of-stream");
                            assert!(
                                same_pages(&fed, &pages[..emitted]),
                                "seq {seq:?}: truncated or reordered: {} of {emitted} pages",
                                fed.len()
                            );
                        }
                    }
                    // Whatever was fed is a prefix of the pivot's output.
                    assert!(same_pages(&fed, &pages[..fed.len()]), "seq {seq:?}");
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
