//! The engine's one run loop and its one report.
//!
//! One dispatcher decides what to share, and its groups run in one of
//! two places: as tasks on the simulated CMP (every source below), or,
//! for a batch, on OS threads ([`run_once_on_threads`]): the simulator
//! runs only the dispatcher, which hands each group it dispatches to
//! the `threads` child module instead of spawning its tasks.
//!
//! The paper measures one engine under two regimes: the closed system
//! of Section 1.2 (`m` clients each keep one query in flight; every
//! completion is resubmitted — Little's Law) and the open system of
//! Section 5.1 (arrivals independent of response times). Both, and the
//! one-shot batches the correctness and profiling harnesses use, are the
//! same [`Run`] — `{ Simulator, EngineCore }` built in one place and
//! parameterised only by what varies between them:
//!
//! * the arrival [`Source`] (a batch submitted at t = 0, a batch whose
//!   completions are resubmitted, or an [`ArrivalSchedule`] fed by the
//!   arrival task),
//! * the admission bound (`usize::MAX` = unbounded),
//! * whether result rows and per-task statistics are captured,
//! * the [`Stop`] condition of each [`Run::advance`] call.
//!
//! The run keeps one book: a record per offered query, indexed by its
//! offered position, holding when it was offered, its [`Disposition`]
//! and, when the run captures, its result pages. A query is offered in
//! flight or rejected, and an in-flight query ends once — completed or
//! failed — so every offered query has exactly one disposition. The
//! report reads the book, and counts completions from a second record
//! kept in completion order, so its books balance from two sources:
//!
//! ```text
//! offered == completed + failures + rejected + in_flight
//! ```
//!
//! ## One stop rule
//!
//! A run that stops because the simulator wedged
//! ([`StopReason::Deadlock`]) fails every admitted-but-unfinished query
//! with [`ExecError::Stalled`]; a run that stops at a time cap leaves
//! them [`Disposition::InFlight`]. The rule does not depend on the
//! source, the bound or the capture flag.
//!
//! ## Sharing as an admission/merge controller
//!
//! Admission happens in two stages. The arrival task bounds the
//! multiprogramming level: an arrival is refused outright
//! ([`Disposition::Rejected`] — backpressure by load-shedding, not by
//! blocking the client) when the admission bound's worth of queries are
//! already live (queued, forming, or executing). An admitted arrival
//! then wakes the dispatcher, which consults
//! [`crate::Policy::admit_overlap`] **per arrival against the live group
//! table** — each open formation-window group whose fingerprint matches
//! is offered the newcomer, and the model decides (under the current
//! fair-share `n_eff`) whether merging is a net win. Capacity decides
//! *whether* a query enters, the model decides *where*.
//!
//! Arrival processes (Poisson, bursty on/off, load ramps, chaos
//! campaigns) are generated by `cordoba-workload`'s `arrivals` module
//! and are ordinary [`ArrivalSchedule`]s — the run is agnostic to how
//! the schedule was drawn.

// The dispatcher is a child of the run loop: its `core` is
// `pub(super)`, so no other engine module can build a second
// `DispatcherTask` (rule 6, one run loop). So is the thread substrate
// its groups are handed to.
mod dispatcher;
mod threads;

use crate::policy::Policy;
use crate::query::QuerySpec;
use cordoba_exec::wiring::{page_rows, WiringConfig};
use cordoba_exec::{ExecError, MemoryConfig, OpCost, ParallelConfig};
#[expect(
    clippy::disallowed_types,
    reason = "the engine's control tasks step themselves; they run no operator"
)]
use cordoba_sim::{
    Histogram, RunOutcome, SimStats, Simulator, Step, StopReason, Task, TaskCtx, TaskStats, VTime,
};
use cordoba_storage::{Catalog, Value};
use dispatcher::{DispatcherTask, EngineCore};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// Engine/run configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Simulated hardware contexts (the paper sweeps 1, 2, 8, 32).
    pub contexts: usize,
    /// Inter-operator channel capacity in pages.
    pub queue_capacity: usize,
    /// Sharing policy.
    pub policy: Policy,
    /// Maximum members per sharing group.
    pub max_group: usize,
    /// Cost charged by the client-side sink per result tuple.
    pub sink_cost: OpCost,
    /// Per-query memory policy: budget, spill directory, and the
    /// hash-join repartitioning limits. The default is unbounded (no
    /// operator ever spills), matching the engine's historic behavior.
    pub memory: MemoryConfig,
    /// Intra-query parallelism: morsel workers per parallelizable plan
    /// fragment. The single-worker default keeps the classic
    /// one-task-per-operator wiring; more workers split scan chains
    /// and aggregates across simulated contexts.
    pub parallel: ParallelConfig,
    /// Capacity of the fragment cache (completed shared-fragment
    /// outputs replayed for late subsumed arrivals). `0` disables the
    /// cache entirely — the historic behavior, and the default.
    pub fragment_cache: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            contexts: 1,
            queue_capacity: 16,
            policy: Policy::NeverShare,
            max_group: 64,
            sink_cost: OpCost::per_tuple(0.1),
            memory: MemoryConfig::default(),
            parallel: ParallelConfig::default(),
            fragment_cache: 0,
        }
    }
}

/// Configuration of one service run ([`run_service`]).
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// The engine under the service loop.
    pub engine: EngineConfig,
    /// Bounded admission queue: the maximum number of live queries
    /// (queued, forming, or executing). An arrival finding the system
    /// at capacity is refused with [`Disposition::Rejected`].
    pub admission_capacity: usize,
    /// Optional virtual-time cap; queries unfinished at the cap are
    /// reported as in flight, never dropped.
    pub time_cap: Option<VTime>,
}

/// Counters for semantic (fingerprint/subsumption) sharing activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharingCounters {
    /// Fragment-cache lookups that found a servable subsuming fragment.
    pub fingerprint_hits: u64,
    /// Fragment-cache lookups that found none.
    pub fingerprint_misses: u64,
    /// Fragment-cache entries displaced by inserts past capacity.
    pub fingerprint_evictions: u64,
    /// Group admissions where the member's pivot differed from the
    /// group pivot (joined via subsumption + residual, not equality).
    pub subsume_joins: u64,
    /// Times an arrival's wider pivot replaced an open group's pivot.
    pub pivot_widenings: u64,
}

impl SharingCounters {
    fn from_core(core: &EngineCore) -> Self {
        let (hits, misses, evictions) = core
            .fragment_cache
            .as_ref()
            .map_or((0, 0, 0), |c| (c.hits, c.misses, c.evictions));
        Self {
            fingerprint_hits: hits,
            fingerprint_misses: misses,
            fingerprint_evictions: evictions,
            subsume_joins: core.subsume_joins,
            pivot_widenings: core.pivot_widenings,
        }
    }
}

/// An arrival schedule for an open system: `(arrival time, query)`
/// pairs sorted by time.
pub type ArrivalSchedule = Vec<(VTime, QuerySpec)>;

/// Where a run's queries come from.
#[derive(Debug, Clone)]
pub enum Source<'a> {
    /// All submitted at t = 0, each run once.
    Batch(&'a [QuerySpec]),
    /// A closed system (paper Section 1.2): one client per entry, all
    /// submitted at t = 0, each resubmitted on every completion. Advance
    /// it by [`Stop::Completions`] for adaptive measurements
    /// ([`measure_throughput`]).
    Closed(&'a [QuerySpec]),
    /// An open system (paper Section 5.1): queries arrive per schedule,
    /// independent of completions.
    Schedule(ArrivalSchedule),
}

/// When a [`Run::advance`] call returns. Whatever the condition, it
/// also returns once the simulator has nothing left to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stop {
    /// When the schedule has drained and the engine is empty.
    Idle,
    /// At this virtual time.
    TimeCap(VTime),
    /// At `target` total completions, or at `time_cap`. Shared and
    /// unshared modes can differ in throughput by an order of
    /// magnitude, so a fixed horizon under-samples one of them.
    Completions {
        /// Total completions (since the run began) to wait for.
        target: usize,
        /// Virtual time at which to give up.
        time_cap: VTime,
    },
}

/// What became of one offered query.
#[derive(Debug, Clone, PartialEq)]
pub enum Disposition {
    /// Completed normally.
    Completed {
        /// Virtual completion time.
        at: VTime,
        /// Response time (completion − arrival).
        response: VTime,
    },
    /// Failed (rejected plan, runtime fault, injected chaos, or a
    /// wedged run) — never completed.
    Failed(ExecError),
    /// Refused at admission (bounded admission queue full) — never
    /// entered the engine.
    Rejected,
    /// Still unfinished when the run stopped at its time cap: either
    /// in the engine (queued, forming, or executing) or a scheduled
    /// arrival the cap cut off before it was submitted.
    InFlight,
}

/// Feeds an arrival schedule into the engine: sleeps (off-context)
/// between arrivals, and on each arrival either refuses it (system at
/// capacity) or submits it and wakes the dispatcher so the merge
/// controller sees it immediately.
struct Arrivals {
    core: Rc<RefCell<EngineCore>>,
    schedule: std::vec::IntoIter<(VTime, QuerySpec)>,
    pending: Option<(VTime, QuerySpec)>,
    capacity: usize,
}

#[expect(
    clippy::disallowed_types,
    reason = "the engine's control tasks step themselves; they run no operator"
)]
impl Task for Arrivals {
    fn step(&mut self, ctx: &mut TaskCtx<'_>) -> Step {
        let now = ctx.now();
        loop {
            let (at, spec) = match self.pending.take().or_else(|| self.schedule.next()) {
                Some(x) => x,
                None => return Step::done(0),
            };
            if at > now {
                let delay = at - now;
                self.pending = Some((at, spec));
                return Step::sleep(0, delay);
            }
            let mut core = self.core.borrow_mut();
            core.external_arrivals_pending = core.external_arrivals_pending.saturating_sub(1);
            let admit = core.live_queries < self.capacity;
            core.offer(spec, now, admit);
            if !admit {
                continue;
            }
            let dispatcher = core.dispatcher;
            drop(core);
            if let Some(d) = dispatcher {
                ctx.wake(d);
            }
        }
    }
}

/// One steppable engine run: build it, [`advance`]
/// it (once, or repeatedly for adaptive measurements), read its
/// [`report`].
///
/// [`advance`]: Run::advance
/// [`report`]: Run::report
pub struct Run {
    sim: Simulator,
    core: Rc<RefCell<EngineCore>>,
}

impl Run {
    /// Builds the run without advancing it. `admission` bounds the live
    /// queries a [`Source::Schedule`] arrival may find (at least 1;
    /// `usize::MAX` = unbounded); `capture` keeps every query's result
    /// rows and the per-task statistics for the [`Report`].
    #[expect(
        clippy::disallowed_methods,
        reason = "the one run loop builds the one simulator"
    )]
    pub fn new(
        catalog: &Catalog,
        cfg: &EngineConfig,
        source: Source<'_>,
        admission: usize,
        capture: bool,
    ) -> Self {
        let resubmit = matches!(source, Source::Closed(_));
        let (batch, schedule) = match source {
            Source::Batch(specs) | Source::Closed(specs) => (specs, None),
            Source::Schedule(schedule) => (&[][..], Some(schedule)),
        };
        let core = Rc::new(RefCell::new(EngineCore {
            catalog: Rc::new(catalog.clone()),
            wiring: WiringConfig {
                queue_capacity: cfg.queue_capacity,
                memory: cfg.memory.clone(),
                parallel: cfg.parallel,
            },
            policy: cfg.policy.clone(),
            contexts: cfg.contexts,
            resubmit,
            max_group: cfg.max_group,
            sink_cost: cfg.sink_cost,
            arrivals: VecDeque::new(),
            pending: Vec::new(),
            dispatcher: None,
            queries: Vec::new(),
            completion_records: Vec::new(),
            group_sizes: Vec::new(),
            external_arrivals_pending: schedule.as_ref().map_or(0, Vec::len),
            live_queries: 0,
            capture,
            fragment_cache: (cfg.fragment_cache > 0)
                .then(|| crate::fragment_cache::FragmentCache::new(cfg.fragment_cache)),
            subsume_joins: 0,
            pivot_widenings: 0,
            threads: None,
        }));
        let mut sim = Simulator::new(cfg.contexts);
        // Spawn order fixes virtual time: a batch is queued before the
        // dispatcher exists, a schedule's arrival task is spawned after.
        for spec in batch {
            core.borrow_mut().offer(spec.clone(), 0, true);
        }
        let dispatcher = sim.spawn("dispatcher", Box::new(DispatcherTask::new(&core)));
        core.borrow_mut().dispatcher = Some(dispatcher);
        if let Some(schedule) = schedule {
            sim.spawn(
                "arrivals",
                Box::new(Arrivals {
                    core: core.clone(),
                    schedule: schedule.into_iter(),
                    pending: None,
                    capacity: admission.max(1),
                }),
            );
        }
        Self { sim, core }
    }

    /// Current virtual time.
    fn now(&self) -> VTime {
        self.sim.now()
    }

    /// Completions so far.
    fn completions(&self) -> usize {
        self.core.borrow().completion_records.len()
    }

    /// Runs until `stop` (or until the simulator has nothing left to
    /// run) and returns why the simulator stopped. This is the one stop
    /// rule: on [`StopReason::Deadlock`] — live tasks none of which can
    /// ever run again, a wedged operator graph — every
    /// admitted-but-unfinished query fails with
    /// [`ExecError::Stalled`]; on [`StopReason::TimeLimit`] they stay
    /// in flight and a later `advance` may finish them.
    pub fn advance(&mut self, stop: Stop) -> StopReason {
        let outcome = match stop {
            Stop::Idle => self.sim.run(None),
            Stop::TimeCap(cap) => self.sim.run(Some(cap)),
            Stop::Completions { target, time_cap } => {
                // Slices grow geometrically from a small initial one so
                // the overshoot past `target` stays bounded (a fixed
                // large slice could collect thousands of surplus
                // completions on fast workloads).
                let mut chunk: VTime = 10_000;
                let mut outcome = RunOutcome {
                    reason: StopReason::TimeLimit,
                    now: self.sim.now(),
                    live_tasks: 0,
                };
                while outcome.reason == StopReason::TimeLimit
                    && self.completions() < target
                    && self.sim.now() < time_cap
                {
                    let next = self.sim.now().saturating_add(chunk).min(time_cap);
                    outcome = self.sim.run(Some(next));
                    chunk = chunk.saturating_mul(2);
                }
                outcome
            }
        };
        if outcome.reason == StopReason::Deadlock {
            self.core.borrow_mut().stall(outcome.live_tasks);
        }
        outcome.reason
    }

    /// The run's report as of now.
    ///
    /// # Panics
    ///
    /// Panics if the accounting does not balance — every offered query
    /// must be completed, failed, rejected, or in flight.
    pub fn report(&self) -> Report {
        let core = self.core.borrow();
        // Scheduled arrivals a time cap cut off follow the offered
        // queries, in flight.
        let cut_off = std::iter::repeat_n(Disposition::InFlight, core.external_arrivals_pending);
        let dispositions: Vec<Disposition> = core
            .queries
            .iter()
            .map(|query| query.disposition.clone())
            .chain(cut_off)
            .collect();
        let count = |want: &Disposition| dispositions.iter().filter(|d| *d == want).count();
        let failures: Vec<(usize, ExecError)> = core
            .queries
            .iter()
            .enumerate()
            .filter_map(|(position, query)| match &query.disposition {
                Disposition::Failed(err) => Some((position, err.clone())),
                _ => None,
            })
            .collect();
        let results = core
            .queries
            .iter()
            .filter_map(|query| query.rows.as_ref())
            .map(|rows| page_rows(&rows.borrow()))
            .collect();
        let task_stats = if core.capture {
            let stats = self.sim.all_task_stats();
            stats
                .map(|(_, name, stats)| (name.to_string(), *stats))
                .collect()
        } else {
            Vec::new()
        };
        let rejected = count(&Disposition::Rejected);
        let report = Report {
            offered: dispositions.len(),
            submitted: core.queries.len() - rejected,
            completed: core.completion_records.len(),
            rejected,
            in_flight: count(&Disposition::InFlight),
            makespan: self.sim.now(),
            response_times: core
                .completion_records
                .iter()
                .map(|&(submission, done)| done.saturating_sub(core.queries[submission].at))
                .collect(),
            dispositions,
            failures,
            group_sizes: core.group_sizes.clone(),
            sharing: SharingCounters::from_core(&core),
            stats: self.sim.stats(),
            results,
            task_stats,
        };
        assert_eq!(
            report.offered,
            report.completed + report.failures.len() + report.rejected + report.in_flight,
            "run accounting must balance: {} offered vs {} completed + {} failed + {} rejected + {} in flight",
            report.offered,
            report.completed,
            report.failures.len(),
            report.rejected,
            report.in_flight,
        );
        report
    }
}

/// Outcome of a [`Run`]: one disposition per offered query, with
/// rejections and in-flight queries first-class.
#[derive(Debug, Clone)]
pub struct Report {
    /// Queries offered: the source's batch or schedule, plus a closed
    /// system's resubmissions.
    pub offered: usize,
    /// Queries admitted into the engine.
    pub submitted: usize,
    /// Queries that completed.
    pub completed: usize,
    /// Queries refused at admission (system at capacity).
    pub rejected: usize,
    /// Queries unfinished when the run stopped: engine-resident, or
    /// scheduled arrivals a time cap cut off.
    pub in_flight: usize,
    /// Virtual end time.
    pub makespan: VTime,
    /// Response times (completion − arrival) of completed queries, in
    /// completion order.
    pub response_times: Vec<VTime>,
    /// Disposition per offered query, indexed by offered position:
    /// batch or schedule position, then a closed system's resubmissions
    /// in order. (Every arrival takes an engine submission id, admitted
    /// or not, so this is also the id in the engine's task labels.)
    pub dispositions: Vec<Disposition>,
    /// `(offered position, error)` for queries that failed in the
    /// engine: plans rejected at instantiation, runtime faults (unsorted
    /// merge inputs, mismatched page schemas, spill I/O errors,
    /// exhausted budgets), injected chaos, and queries stalled by a
    /// wedged run. Ordered by position.
    pub failures: Vec<(usize, ExecError)>,
    /// Sizes of the dispatched sharing groups.
    pub group_sizes: Vec<usize>,
    /// Fingerprint-cache and subsumption activity.
    pub sharing: SharingCounters,
    /// Machine statistics (utilization etc.).
    pub stats: SimStats,
    /// Result rows per arrived query, by offered position — filled only
    /// when the run captures, as each query's sink finishes. Rejected and
    /// in-flight queries have no rows, failed ones empty (or partial, for
    /// runtime faults) rows — check `failures`.
    pub results: Vec<Vec<Vec<Value>>>,
    /// Per-task `(label, stats)` for profiling — filled only when the
    /// run captures.
    pub task_stats: Vec<(String, TaskStats)>,
}

/// The report of a [`run_once`] batch (the name `benchmark/` uses).
pub type OnceOutcome = Report;
/// The report of a [`run_service`] run (the name `benchmark/` uses).
pub type ServiceReport = Report;

impl Report {
    /// Response-time distribution of the completed queries (exact
    /// nearest-rank quantiles: p50/p99/p999 via
    /// [`Histogram::quantile`]/[`Histogram::summary`]).
    pub fn latency(&self) -> Histogram {
        Histogram::from_samples(self.response_times.clone())
    }

    /// Mean response time over completed queries, or `None` when
    /// nothing completed.
    pub fn mean_response(&self) -> Option<f64> {
        self.latency().mean()
    }

    /// Completions per unit of virtual time over the whole run.
    pub fn throughput(&self) -> f64 {
        if self.makespan == 0 {
            return 0.0;
        }
        self.completed as f64 / self.makespan as f64
    }

    /// Fraction of offered queries refused at admission.
    pub fn rejection_rate(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        self.rejected as f64 / self.offered as f64
    }

    /// Mean dispatched group size (1.0 under never-share).
    pub fn mean_group_size(&self) -> f64 {
        if self.group_sizes.is_empty() {
            return 0.0;
        }
        self.group_sizes.iter().sum::<usize>() as f64 / self.group_sizes.len() as f64
    }
}

/// Runs a batch of queries once to completion, capturing results and
/// per-operator statistics. Used for correctness tests (shared results
/// must equal unshared results) and for the Section 3.1 profiling
/// procedure.
///
/// A batch that cannot finish (a wedged operator graph) fails its
/// unfinished queries with [`ExecError::Stalled`] rather than
/// panicking; check `failures` when the batch's health matters.
pub fn run_once(catalog: &Catalog, specs: &[QuerySpec], cfg: &EngineConfig) -> OnceOutcome {
    let mut run = Run::new(catalog, cfg, Source::Batch(specs), usize::MAX, true);
    run.advance(Stop::Idle);
    run.report()
}

/// Runs a batch of queries once on OS threads: the dispatcher forms and
/// dispatches every group exactly as for [`run_once`], and the groups
/// then run on at most `cfg.contexts` threads, the calling thread among
/// them, each in a one-context run loop on the thread that claims it,
/// wired as the simulator wires it (each shared pivot once); only morsel
/// workers start threads of their own. Rows are bit-identical to
/// [`run_once`]'s; `makespan` and completion times are wall-clock
/// nanoseconds.
///
/// `ModelGuided` runs the decisions the dispatcher makes at
/// `cfg.contexts` simulated contexts; they are not priced on wall
/// clock. A fragment cache captures nothing here: a batch looks every
/// fragment up before any group is dispatched. `stats` and
/// `task_stats` are empty: the simulator ran only the dispatcher, so
/// its numbers describe none of the run.
pub fn run_once_on_threads(catalog: &Catalog, specs: &[QuerySpec], cfg: &EngineConfig) -> Report {
    let mut run = Run::new(catalog, cfg, Source::Batch(specs), usize::MAX, true);
    run.core.borrow_mut().threads = Some(Vec::new());
    run.advance(Stop::Idle);
    let makespan = threads::run(&mut run.core.borrow_mut());
    Report {
        makespan,
        stats: SimStats::default(),
        task_stats: Vec::new(),
        ..run.report()
    }
}

/// Runs the service: queries arrive per `schedule`, pass the bounded
/// admission queue, and execute under the engine's sharing policy. The
/// run lasts until the schedule drains and the engine empties, or until
/// `cfg.time_cap`. An `admission_capacity` of `usize::MAX` is the plain
/// open system of paper Section 5.1.
pub fn run_service(
    catalog: &Catalog,
    schedule: ArrivalSchedule,
    cfg: &ServiceConfig,
) -> ServiceReport {
    let source = Source::Schedule(schedule);
    let mut run = Run::new(catalog, &cfg.engine, source, cfg.admission_capacity, false);
    run.advance(cfg.time_cap.map_or(Stop::Idle, Stop::TimeCap));
    run.report()
}

/// An unbounded [`run_service`] that also captures every query's result
/// rows (returned beside the report, indexed by schedule position). This
/// is the correctness harness for *time-staggered* sharing:
/// fragment-cache replay serves arrivals that come in after a fragment
/// completed, which [`run_once`]'s everything-at-t=0 batch can never
/// exercise.
#[allow(clippy::type_complexity)]
pub fn run_open_loop_collecting(
    catalog: &Catalog,
    schedule: ArrivalSchedule,
    cfg: &EngineConfig,
    time_cap: VTime,
) -> (Report, Vec<Vec<Vec<Value>>>) {
    let mut run = Run::new(catalog, cfg, Source::Schedule(schedule), usize::MAX, true);
    run.advance(Stop::TimeCap(time_cap));
    let report = run.report();
    let rows = report.results.clone();
    (report, rows)
}

/// Measured steady-state throughput of a closed system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Throughput {
    /// Queries per unit of virtual time over the measurement window.
    pub per_time: f64,
    /// Completions counted in the window.
    completions: usize,
    /// Window length (virtual time).
    window: VTime,
}

/// Measures steady-state throughput adaptively: warms up until every
/// client has completed ~once (`warm_target = clients`), then measures
/// until `measure_target` further completions. `time_cap` bounds the
/// whole experiment; if the cap is hit mid-measurement the throughput
/// over the partial window is returned (0 if nothing completed).
pub fn measure_throughput(
    catalog: &Catalog,
    clients: &[QuerySpec],
    cfg: &EngineConfig,
    measure_target: usize,
    time_cap: VTime,
) -> Throughput {
    let mut run = Run::new(catalog, cfg, Source::Closed(clients), usize::MAX, false);
    let target = clients.len();
    run.advance(Stop::Completions { target, time_cap });
    let (t0, c0) = (run.now(), run.completions());
    let (target, time_cap) = (c0 + measure_target, time_cap.saturating_mul(4));
    run.advance(Stop::Completions { target, time_cap });
    let window = run.now().saturating_sub(t0);
    let completions = run.completions() - c0;
    Throughput {
        per_time: if window == 0 {
            0.0
        } else {
            completions as f64 / window as f64
        },
        completions,
        window,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cordoba_exec::expr::{Agg, CmpOp, Predicate, ScalarExpr};
    use cordoba_exec::{reference, PhysicalPlan};
    use cordoba_storage::{DataType, Field, Schema, TableBuilder};

    fn catalog() -> Catalog {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Float),
        ]);
        let mut b = TableBuilder::new("t", schema.clone());
        let mut u = TableBuilder::new("u", schema);
        for i in 0..512 {
            b.push_row(&[Value::Int(i), Value::Float((i % 7) as f64)]);
            u.push_row(&[Value::Int(i % 5), Value::Float((i % 3) as f64)]);
        }
        let mut c = Catalog::new();
        c.register(b.finish());
        c.register(u.finish());
        c
    }

    fn scan() -> PhysicalPlan {
        PhysicalPlan::Scan {
            table: "t".into(),
            cost: OpCost::new(4.0, 2.0),
        }
    }

    /// sum(v) over k < 256, shareable at the scan.
    fn query() -> QuerySpec {
        let plan = PhysicalPlan::Aggregate {
            input: Box::new(PhysicalPlan::Filter {
                input: Box::new(scan()),
                predicate: Predicate::col_cmp(0, CmpOp::Lt, 256i64),
                cost: OpCost::per_tuple(0.5),
            }),
            group_by: vec![],
            aggs: vec![("s".into(), Agg::Sum(ScalarExpr::col(1)))],
            cost: OpCost::per_tuple(0.5),
        };
        QuerySpec::shared_at("q", plan, scan())
    }

    fn expected_rows(catalog: &Catalog) -> Vec<Vec<Value>> {
        reference::execute(catalog, &query().plan)
    }

    /// Morsel workers the engine tests run at: the serial wiring and one
    /// whose scan chains and aggregates become morsel groups.
    const WORKERS: [usize; 2] = [1, 4];

    fn cfg(contexts: usize, policy: Policy, workers: usize) -> EngineConfig {
        EngineConfig {
            contexts,
            policy,
            parallel: ParallelConfig::with_workers(workers),
            ..Default::default()
        }
    }

    #[test]
    fn run_once_unshared_matches_reference() {
        let cat = catalog();
        for workers in WORKERS {
            let cfg = cfg(2, Policy::NeverShare, workers);
            let out = run_once(&cat, &[query(), query()], &cfg);
            assert_eq!(out.results.len(), 2);
            for r in &out.results {
                assert_eq!(r, &expected_rows(&cat));
            }
            // Never-share: all groups are singletons.
            assert_eq!(out.group_sizes, vec![1, 1]);
        }
    }

    #[test]
    fn run_once_shared_matches_reference_and_merges() {
        let cat = catalog();
        for workers in WORKERS {
            let cfg = cfg(2, Policy::AlwaysShare, workers);
            let out = run_once(&cat, &[query(), query(), query()], &cfg);
            assert_eq!(out.group_sizes, vec![3], "all three queries must merge");
            for r in &out.results {
                assert_eq!(r, &expected_rows(&cat));
            }
        }
    }

    #[test]
    fn shared_scan_runs_once_saving_work() {
        let cat = catalog();
        let batch = [query(), query(), query(), query()];
        for workers in WORKERS {
            let out_n = run_once(&cat, &batch, &cfg(1, Policy::NeverShare, workers));
            let out_s = run_once(&cat, &batch, &cfg(1, Policy::AlwaysShare, workers));
            // On one context the shared batch must finish faster (the
            // scan's private work happens once instead of four times).
            assert!(
                out_s.makespan < out_n.makespan,
                "shared {} vs unshared {} at {workers} workers",
                out_s.makespan,
                out_n.makespan
            );
            // Exactly one shared scan task vs four private ones.
            let scans = |o: &Report| {
                o.task_stats
                    .iter()
                    .filter(|(n, _)| n.contains("scan(t)"))
                    .count()
            };
            assert_eq!(scans(&out_s), 1);
            assert_eq!(scans(&out_n), 4);
        }
    }

    #[test]
    fn parallel_engine_matches_reference_and_spawns_morsel_workers() {
        let cat = catalog();
        let out = run_once(&cat, &[query(), query()], &cfg(4, Policy::NeverShare, 4));
        assert!(out.failures.is_empty(), "failures: {:?}", out.failures);
        for r in &out.results {
            assert_eq!(r, &expected_rows(&cat));
        }
        let morsel_tasks = out
            .task_stats
            .iter()
            .filter(|(n, _)| n.contains(":par_"))
            .count();
        assert!(
            morsel_tasks > 0,
            "workers=4 should wire morsel-parallel task groups"
        );
    }

    #[test]
    fn intra_query_parallelism_shortens_makespan_on_multiple_contexts() {
        // One query, four contexts: the serial wiring leaves three
        // contexts idle, the morsel wiring spreads scan+filter work
        // across all four — virtual makespan must drop. The table needs
        // enough pages for the dispenser to hand each worker several
        // morsels.
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Float),
        ]);
        let mut b = TableBuilder::with_page_size("t", schema, 32);
        for i in 0..512 {
            b.push_row(&[Value::Int(i), Value::Float((i % 7) as f64)]);
        }
        let mut cat = Catalog::new();
        cat.register(b.finish());
        let serial = cfg(4, Policy::NeverShare, 1);
        let par = EngineConfig {
            contexts: 4,
            policy: Policy::NeverShare,
            parallel: ParallelConfig {
                workers: 4,
                morsel_pages: 1,
            },
            ..Default::default()
        };
        let out_serial = run_once(&cat, &[query()], &serial);
        let out_par = run_once(&cat, &[query()], &par);
        assert_eq!(out_serial.results, out_par.results);
        assert!(
            out_par.makespan < out_serial.makespan,
            "parallel {} vs serial {}",
            out_par.makespan,
            out_serial.makespan
        );
    }

    #[test]
    fn malformed_query_fails_without_killing_the_batch() {
        // One malformed query (string-ish arithmetic via an
        // out-of-range column) among healthy ones: the bad submission
        // is recorded as a failure, everything else completes normally.
        let cat = catalog();
        let bad = QuerySpec::unshared(
            "bad",
            PhysicalPlan::Project {
                input: Box::new(scan()),
                exprs: vec![("e".into(), ScalarExpr::col(9))],
                cost: OpCost::default(),
            },
        );
        for workers in WORKERS {
            let cfg = cfg(2, Policy::NeverShare, workers);
            let out = run_once(&cat, &[query(), bad.clone(), query()], &cfg);
            assert_eq!(out.failures.len(), 1, "{:?}", out.failures);
            assert_eq!(out.failures[0].0, 1, "submission id of the bad query");
            assert!(
                matches!(out.failures[0].1, ExecError::PlanType(_)),
                "{:?}",
                out.failures[0].1
            );
            assert_eq!(out.results[0], expected_rows(&cat));
            assert!(out.results[1].is_empty(), "failed query has no rows");
            assert_eq!(out.results[2], expected_rows(&cat));
        }
    }

    /// Runs `specs` as one always-share batch on one context and on
    /// two, at each of [`WORKERS`], in the simulator and on OS threads.
    /// Channels and links hold a page (a hand-off), and the pivot emits
    /// more than one to each member, so a member feed left open wedges
    /// the pivot.
    fn shared_batches(cat: &Catalog, specs: &[QuerySpec]) -> Vec<Report> {
        let at = |contexts, workers| EngineConfig {
            queue_capacity: 1,
            ..cfg(contexts, Policy::AlwaysShare, workers)
        };
        [1, 2]
            .into_iter()
            .flat_map(|c| WORKERS.map(|w| at(c, w)))
            .flat_map(|cfg| {
                [
                    run_once(cat, specs, &cfg),
                    run_once_on_threads(cat, specs, &cfg),
                ]
            })
            .collect()
    }

    /// `plan`'s row count.
    fn count(plan: PhysicalPlan) -> PhysicalPlan {
        PhysicalPlan::Aggregate {
            input: Box::new(plan),
            group_by: vec![],
            aggs: vec![("n".into(), Agg::Count)],
            cost: OpCost::default(),
        }
    }

    #[test]
    fn an_ill_typed_pivot_fails_its_group_and_no_other() {
        let cat = catalog();
        // Column 9 of a two-column table: the pivot fails to
        // instantiate, which fails every member of its group.
        let pivot = PhysicalPlan::Filter {
            input: Box::new(scan()),
            predicate: Predicate::col_cmp(9, CmpOp::Lt, 256i64),
            cost: OpCost::per_tuple(0.5),
        };
        let bad = QuerySpec::shared_at("bad", count(pivot.clone()), pivot);
        let u = PhysicalPlan::Scan {
            table: "u".into(),
            cost: OpCost::new(4.0, 2.0),
        };
        let other = QuerySpec::shared_at("other", count(u.clone()), u);
        let specs = [bad.clone(), other.clone(), bad, other.clone()];
        for out in shared_batches(&cat, &specs) {
            let failed: Vec<_> = out.failures.iter().map(|(k, _)| *k).collect();
            assert_eq!(failed, [0, 2], "{:?}", out.failures);
            for (_, err) in &out.failures {
                assert!(matches!(err, ExecError::PlanType(_)), "{err:?}");
            }
            let want = reference::execute(&cat, &other.plan);
            assert_eq!((&out.results[1], &out.results[3]), (&want, &want));
            assert_eq!(out.group_sizes, [2, 2]);
        }
    }

    #[test]
    fn a_member_whose_plan_lacks_its_pivot_fails_alone() {
        let cat = catalog();
        // Its pivot is its peers', but its plan scans `t` at another
        // cost, so the split finds nothing to cut at. `shared_at`
        // refuses such a spec; the fields do not.
        let stray = QuerySpec {
            name: "stray".into(),
            plan: count(PhysicalPlan::Scan {
                table: "t".into(),
                cost: OpCost::per_tuple(1.0),
            }),
            pivot: Some(scan()),
            chaos: None,
        };
        for out in shared_batches(&cat, &[query(), stray.clone(), query()]) {
            assert_eq!(out.failures.len(), 1, "{:?}", out.failures);
            let (k, err) = &out.failures[0];
            assert_eq!(*k, 1);
            assert!(
                err.to_string().contains("pivot sub-plan not found"),
                "{err}"
            );
            assert_eq!(out.group_sizes, [3], "it joined the group");
            assert_eq!(out.results[0], expected_rows(&cat));
            assert_eq!(out.results[2], expected_rows(&cat));
        }
    }

    #[test]
    fn a_group_whose_members_all_fail_hands_over_no_pivot() {
        // Both members lack the scan pivot they name, so both fail their
        // split, which comes before anything is spawned: nothing is left
        // for the pivot to run for, so no task is spawned for the group
        // — in the simulator, and on threads, which spawn it through the
        // same code.
        let cat = catalog();
        let stray = QuerySpec {
            name: "stray".into(),
            plan: count(PhysicalPlan::Scan {
                table: "t".into(),
                cost: OpCost::per_tuple(1.0),
            }),
            pivot: Some(scan()),
            chaos: None,
        };
        let specs = [stray.clone(), stray];
        let cfg = cfg(2, Policy::AlwaysShare, 1);
        let sim = run_once(&cat, &specs, &cfg);
        let tasks: Vec<_> = sim.task_stats.iter().map(|(name, _)| name).collect();
        assert_eq!(tasks, ["dispatcher"]);
        for out in [sim, run_once_on_threads(&cat, &specs, &cfg)] {
            assert_eq!((out.group_sizes.as_slice(), out.completed), (&[2][..], 0));
            for (_, err) in &out.failures {
                let split = err.to_string().contains("pivot sub-plan not found");
                assert!(split, "{err}");
            }
        }
    }

    #[test]
    fn an_ill_typed_fragment_over_a_shared_pivot_fails_alone() {
        let cat = catalog();
        // The pivot is sound; the member's own fragment above it reads
        // column 9 and fails to instantiate. Its feed must close, or
        // the pivot blocks on it and its peers never finish.
        let bad = QuerySpec::shared_at(
            "bad",
            PhysicalPlan::Project {
                input: Box::new(scan()),
                exprs: vec![("e".into(), ScalarExpr::col(9))],
                cost: OpCost::default(),
            },
            scan(),
        );
        for out in shared_batches(&cat, &[query(), bad.clone(), query()]) {
            assert_eq!(out.failures.len(), 1, "{:?}", out.failures);
            let (k, err) = &out.failures[0];
            assert_eq!(*k, 1);
            assert!(matches!(err, ExecError::PlanType(_)), "{err:?}");
            assert_eq!(out.group_sizes, [3]);
            assert_eq!(out.results[0], expected_rows(&cat));
            assert_eq!(out.results[2], expected_rows(&cat));
            assert_eq!(
                out.offered,
                out.completed + out.failures.len() + out.rejected + out.in_flight
            );
            assert_eq!((out.completed, out.in_flight), (2, 0));
        }
    }

    /// The simulator and OS threads run the dispatcher's groups to the
    /// same rows (float bits), groups and failures (position and error),
    /// under both sharing policies, at each of [`WORKERS`] on one
    /// context and on two. The batch holds a pivot that faults at run
    /// time (a merge join over unsorted input), an ill-typed pivot with a
    /// member lacking it (whose split error comes first), a member
    /// lacking its pivot and two chaos members, one over the faulting
    /// pivot (whose fault comes first), beside two healthy queries.
    #[test]
    fn threads_and_the_simulator_agree_on_rows_groups_and_failures() {
        use threads::bits;
        let cat = catalog();
        let u = PhysicalPlan::Scan {
            table: "u".into(),
            cost: OpCost::new(4.0, 2.0),
        };
        let merge = PhysicalPlan::MergeJoin {
            left: Box::new(u.clone()),
            right: Box::new(scan()),
            left_key: 0,
            right_key: 0,
            cost: OpCost::default(),
        };
        let faulting = QuerySpec::shared_at("faulting", count(merge.clone()), merge);
        let ill_pivot = PhysicalPlan::Filter {
            input: Box::new(u),
            predicate: Predicate::col_cmp(9, CmpOp::Lt, 256i64),
            cost: OpCost::per_tuple(0.5),
        };
        let ill = QuerySpec::shared_at("ill", count(ill_pivot.clone()), ill_pivot.clone());
        let ill_stray = QuerySpec {
            name: "ill-stray".into(),
            plan: count(scan()),
            pivot: Some(ill_pivot),
            chaos: None,
        };
        let stray = QuerySpec {
            plan: count(PhysicalPlan::Scan {
                table: "t".into(),
                cost: OpCost::per_tuple(1.0),
            }),
            ..query()
        };
        let injected = Some(ExecError::Injected {
            detail: "chaos".into(),
        });
        let chaos = |spec| QuerySpec {
            chaos: injected.clone(),
            ..spec
        };
        let (q, f) = (query(), faulting);
        let specs = [
            q.clone(),
            f.clone(),
            ill.clone(),
            stray,
            chaos(q.clone()),
            q,
            f.clone(),
            ill,
            ill_stray,
            chaos(f),
        ];
        let axes = WORKERS
            .into_iter()
            .flat_map(|w| [(w, 1, 0), (w, 2, 0), (w, 1, 1), (w, 2, 1)]);
        for policy in [Policy::NeverShare, Policy::AlwaysShare] {
            for (workers, contexts, fragment_cache) in axes.clone() {
                let cfg = EngineConfig {
                    fragment_cache,
                    ..cfg(contexts, policy.clone(), workers)
                };
                let sim = run_once(&cat, &specs, &cfg);
                let threads = run_once_on_threads(&cat, &specs, &cfg);
                let at = format!(
                    "{policy:?} workers={workers} contexts={contexts} cache={fragment_cache}"
                );
                assert_eq!(threads.group_sizes, sim.group_sizes, "{at}");
                assert_eq!(threads.sharing, sim.sharing, "{at}");
                assert_eq!(threads.failures, sim.failures, "{at}");
                assert_eq!((sim.completed, threads.completed), (2, 2), "{at}");
                for (k, d) in sim.dispositions.iter().enumerate() {
                    if matches!(d, Disposition::Completed { .. }) {
                        let (want, got) = (bits(&sim.results[k]), bits(&threads.results[k]));
                        assert_eq!(got, want, "{at}: query {k}");
                    }
                }
            }
        }
    }

    /// A closed system of `clients` advanced to the virtual `horizon`.
    fn closed_loop_report(cfg: &EngineConfig, clients: usize, horizon: VTime) -> Report {
        let (cat, clients) = (catalog(), vec![query(); clients]);
        let mut run = Run::new(&cat, cfg, Source::Closed(&clients), usize::MAX, false);
        let stop = Stop::Completions {
            target: usize::MAX,
            time_cap: horizon,
        };
        assert_eq!(run.advance(stop), StopReason::TimeLimit);
        assert_eq!(run.now(), horizon);
        run.report()
    }

    #[test]
    fn closed_loop_reports_throughput() {
        for workers in WORKERS {
            let report = closed_loop_report(&cfg(2, Policy::NeverShare, workers), 2, 2_000_000);
            assert!(report.completed > 4, "{report:?}");
            assert!(report.throughput() > 0.0);
            assert!((report.mean_group_size() - 1.0).abs() < 1e-9);
            // Two clients on two contexts keep the machine mostly busy.
            assert!(report.stats.utilization() > 0.5);
            // Every completion was resubmitted: the two clients' current
            // queries are the only ones in flight.
            assert_eq!(report.offered, report.completed + 2);
            assert_eq!(report.in_flight, 2);
        }
    }

    #[test]
    fn closed_loop_always_share_forms_groups_repeatedly() {
        for workers in WORKERS {
            let report = closed_loop_report(&cfg(2, Policy::AlwaysShare, workers), 4, 2_000_000);
            // Groups keep re-forming as the closed loop resubmits.
            assert!(report.group_sizes.len() > 2);
            assert!(report.mean_group_size() > 1.5, "{:?}", report.group_sizes);
        }
    }

    #[test]
    fn completions_are_timestamped_within_the_horizon() {
        for workers in WORKERS {
            let report = closed_loop_report(&cfg(1, Policy::NeverShare, workers), 1, 500_000);
            assert!(report.completed > 0);
            for d in &report.dispositions {
                if let Disposition::Completed { at, response } = d {
                    assert!(*at <= 500_000 && response <= at);
                }
            }
        }
    }

    #[test]
    fn measured_throughput_counts_a_window_of_completions() {
        let cat = catalog();
        for workers in WORKERS {
            let cfg = cfg(2, Policy::NeverShare, workers);
            let tp = measure_throughput(&cat, &[query(), query()], &cfg, 8, 1_000_000_000);
            assert!(tp.completions >= 8, "{tp:?}");
            assert!(tp.window > 0);
            assert!((tp.per_time - tp.completions as f64 / tp.window as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn closed_loop_whose_clients_all_failed_stops_instead_of_spinning() {
        // Every client is malformed, so nothing is ever resubmitted and
        // the dispatcher parks forever: the completion target can never
        // be met and virtual time cannot advance. The stop rule ends the
        // wait (this loop used to spin on a fixed `now`).
        let cat = catalog();
        let bad = QuerySpec::unshared(
            "bad",
            PhysicalPlan::Project {
                input: Box::new(scan()),
                exprs: vec![("e".into(), ScalarExpr::col(9))],
                cost: OpCost::default(),
            },
        );
        let clients = [bad];
        let source = Source::Closed(&clients);
        let mut run = Run::new(&cat, &EngineConfig::default(), source, usize::MAX, false);
        let stop = Stop::Completions {
            target: 1,
            time_cap: 1_000_000,
        };
        assert_eq!(run.advance(stop), StopReason::Deadlock);
        let report = run.report();
        assert_eq!((report.offered, report.completed), (1, 0));
        assert_eq!(report.failures.len(), 1);
    }

    #[test]
    #[should_panic(expected = "query 0 ended but was not in flight")]
    fn finishing_a_query_twice_panics() {
        // One record per query: a second finish would overwrite the
        // first, so it is refused at the call.
        let (cat, specs) = (catalog(), [query()]);
        let source = Source::Batch(&specs);
        let run = Run::new(&cat, &EngineConfig::default(), source, usize::MAX, false);
        let mut core = run.core.borrow_mut();
        core.finish(0, Ok(1_000));
        core.finish(0, Ok(2_000));
    }

    fn service(engine: EngineConfig, time_cap: Option<VTime>) -> ServiceConfig {
        ServiceConfig {
            engine,
            admission_capacity: usize::MAX,
            time_cap,
        }
    }

    #[test]
    fn staggered_arrivals_share_less_than_a_burst() {
        // Arrivals far apart never co-reside in the formation window,
        // so even always-share dispatches singletons; a burst merges.
        let cat = catalog();
        for workers in WORKERS {
            let cfg = service(cfg(2, Policy::AlwaysShare, workers), None);
            let sparse: ArrivalSchedule = (0..6).map(|i| (i * 50_000_000, query())).collect();
            let sparse_report = run_service(&cat, sparse, &cfg);
            assert!(
                sparse_report.group_sizes.iter().all(|&g| g == 1),
                "{:?}",
                sparse_report.group_sizes
            );
            let burst: ArrivalSchedule = (0..6).map(|_| (1000, query())).collect();
            let burst_report = run_service(&cat, burst, &cfg);
            assert_eq!(burst_report.group_sizes, vec![6]);
            assert_eq!(burst_report.completed, 6);
            assert!(burst_report
                .dispositions
                .iter()
                .all(|d| matches!(d, Disposition::Completed { .. })));
            let p_max = burst_report.latency().quantile(1.0).unwrap();
            assert_eq!(p_max, *burst_report.response_times.iter().max().unwrap());
        }
    }

    #[test]
    fn schedule_run_respects_time_cap() {
        let cat = catalog();
        for workers in WORKERS {
            let schedule: ArrivalSchedule = (0..50).map(|_| (0, query())).collect();
            let cfg = service(cfg(1, Policy::NeverShare, workers), Some(50_000));
            let report = run_service(&cat, schedule, &cfg);
            assert!(report.completed < 50, "cap must cut the run short");
            assert!(report.makespan <= 50_000);
            // The cut-off queries are accounted, not dropped: `report()`
            // asserts offered == completed + failed + rejected + in_flight.
            assert_eq!(
                report.in_flight,
                50 - report.completed - report.failures.len()
            );
            assert!(report.in_flight > 0);
            let in_flight = report
                .dispositions
                .iter()
                .filter(|d| **d == Disposition::InFlight)
                .count();
            assert_eq!(in_flight, report.in_flight);
        }
    }

    #[test]
    fn wedged_schedule_run_fails_admitted_queries_as_stalled() {
        // A lost wakeup wedges the run: arrivals are admitted, but the
        // wake meant for the dispatcher goes to a task that never
        // finishes, so the dispatcher stays parked and the simulator
        // deadlocks with every admitted query unfinished.
        struct NeverCloses;
        impl Task for NeverCloses {
            fn step(&mut self, _ctx: &mut TaskCtx<'_>) -> Step {
                Step::blocked(0)
            }
        }
        let cat = catalog();
        let schedule: ArrivalSchedule = (0..4).map(|i| (1_000 * (i + 1), query())).collect();
        let cfg = EngineConfig::default();
        let mut run = Run::new(&cat, &cfg, Source::Schedule(schedule), usize::MAX, false);
        let wedge = run.sim.spawn("wedge", Box::new(NeverCloses));
        run.core.borrow_mut().dispatcher = Some(wedge);
        assert_eq!(run.advance(Stop::Idle), StopReason::Deadlock);
        // `report()` asserts the identity; all four are typed failures.
        let report = run.report();
        assert_eq!((report.offered, report.submitted), (4, 4));
        assert_eq!(report.completed + report.rejected + report.in_flight, 0);
        assert_eq!(
            report.failures.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        for d in &report.dispositions {
            assert!(
                matches!(
                    d,
                    Disposition::Failed(ExecError::Stalled {
                        reason: "deadlock",
                        live_tasks: 2
                    })
                ),
                "{d:?}"
            );
        }
    }

    /// The dispatcher's groups on OS threads against the serial engine:
    /// rows by float bits, pivot and member faults, and a group none of
    /// whose members is left. Its fixtures serve `thread_exec`'s tests too.
    pub(crate) mod threads {
        use crate::thread_exec::run_shared;
        use crate::{run_once, run_once_on_threads, EngineConfig, Policy, QuerySpec, Report};
        use cordoba_exec::expr::{Agg, CmpOp, Predicate, ScalarExpr};
        use cordoba_exec::{ExecError, JoinKind, OpCost, ParallelConfig, PhysicalPlan};
        use cordoba_storage::{Catalog, DataType, Field, Schema, TableBuilder, Value};
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
        pub(crate) fn catalog() -> Catalog {
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

        pub(crate) fn sum_v(input: PhysicalPlan) -> PhysicalPlan {
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

        pub(crate) fn query() -> QuerySpec {
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

        pub(crate) fn merge_join(left: &str, right: &str) -> PhysicalPlan {
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
        pub(crate) fn bits(rows: &Rows) -> Rows {
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
            // fails before anything is spawned and the pivot feeds its
            // peers alone.
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
        fn no_consumer_means_the_pivot_does_not_run() {
            // Both members lack the join pivot, so both fail their split,
            // before anything is spawned: their group spawns nothing, so
            // its pivot never runs (`run::tests` checks no task is
            // spawned for such a group).
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
}
