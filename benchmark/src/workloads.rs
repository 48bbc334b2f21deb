//! The five workloads: set-up, one iteration, and the correctness
//! gate applied to every iteration's output.
//!
//! All simulator-side configurations pin `ParallelConfig::with_workers(1)`
//! so `CORDOBA_WORKERS` in the environment cannot perturb them, and the
//! load generator is single-threaded; only `thread_share` makes the
//! program start threads.

use crate::inputs::{self, Kind, Seeds, Sizing};
use crate::oracle::{digest, Oracle, OracleSource};
use crate::trace::Tracer;
use cordoba_engine::profiling::profile_query;
use cordoba_engine::thread_exec::{self, ThreadReport};
use cordoba_engine::{
    run_once, run_open_loop_collecting, run_service, ArrivalSchedule, Disposition, EngineConfig,
    MemoryConfig, OnceOutcome, ParallelConfig, Policy, QueryModelInfo, QuerySpec, ServiceConfig,
    ServiceReport,
};
use cordoba_exec::reference;
use cordoba_storage::{Catalog, Value};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Untimed iterations at the end of every set-up: caches fill, the
/// allocator reaches its steady state, lazy initialisation finishes.
const WARMUP_ITERS: usize = 5;

/// Live-query bound of the service's admission queue. Sized so that no
/// seed's bursts overflow it (the contract wants workloads on which no
/// operation fails; a refusal is a failure): a rejection therefore
/// counts into `failed`.
const ADMISSION_CAPACITY: usize = 256;

/// Query copies and threads of the three `thread_share` calls.
pub mod threads {
    /// `run_unshared(q6, M, THREADS)`.
    pub const UNSHARED_M: usize = 4;
    /// Worker threads of the unshared call.
    pub const UNSHARED_THREADS: usize = 2;
    /// `run_shared(q6, M)`: one producer, `M` consumers.
    pub const SHARED_M: usize = 2;
    /// `run_unshared_parallel(q1, M, 1, workers = WORKERS)`.
    pub const PARALLEL_M: usize = 2;
    /// Morsel workers of the parallel call.
    pub const PARALLEL_WORKERS: usize = 2;
}

/// The parts of set-up time a traced run reports per layer (the
/// generators and `profile_query` are probed separately).
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimings {
    /// `tpch::generate`.
    pub generate_s: f64,
    /// Seconds the oracle spent in `reference::execute`.
    pub reference_s: f64,
}

/// What the service workload needs beyond the common inputs.
struct Service {
    schedule: ArrivalSchedule,
    cfg: ServiceConfig,
    /// The first verified report: the simulator is deterministic, so
    /// every later report must equal it.
    baseline: Option<ServiceReport>,
}

/// A workload after set-up, ready to iterate.
pub struct Prepared {
    /// Which workload.
    pub kind: Kind,
    /// The generated catalog.
    pub catalog: Catalog,
    /// The distinct specs, in oracle order.
    pub specs: Vec<QuerySpec>,
    /// Expected digests.
    pub oracle: Oracle,
    /// Where set-up time went.
    pub timings: SetupTimings,
    /// Engine configuration of the batch workloads (and the memory
    /// policy the ladder's wiring rung reuses).
    pub engine: EngineConfig,
    /// Spill directory of this workload (only the spill workload's
    /// engine is pointed at it).
    pub spill_dir: PathBuf,
    service: Option<Service>,
    /// `thread_share` only: Q1's rows from the simulator engine, after
    /// they matched the oracle bit for bit. The morsel-parallel executor
    /// adds per-worker partial sums in whatever order its workers claimed
    /// morsels, so its floats agree with these only to rounding.
    q1_rows: Vec<Vec<Value>>,
}

/// One iteration's raw output, checked after the clock stopped.
pub enum Raw {
    /// One `OnceOutcome` per `run_once` call, with the spec indices it
    /// ran.
    Batch(Vec<(Vec<usize>, OnceOutcome)>),
    /// The service report.
    Service(Box<ServiceReport>),
    /// `(spec index, report)` per `thread_exec` call.
    Threads(Vec<(usize, ThreadReport)>),
}

/// Verdict on one iteration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Check {
    /// Queries attempted.
    pub attempted: u64,
    /// Queries failed, refused, stalled, wrong, or that leaked a spill
    /// file.
    pub failed: u64,
    /// One line per problem, for stderr.
    pub problems: Vec<String>,
}

impl Check {
    fn fail(&mut self, n: u64, why: String) {
        self.failed += n;
        self.problems.push(why);
    }

    /// Adds another verdict to this one.
    pub fn absorb(&mut self, other: Check) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
    }
}

fn sim_engine(contexts: usize, policy: Policy) -> EngineConfig {
    EngineConfig {
        contexts,
        policy,
        parallel: ParallelConfig::with_workers(1),
        ..EngineConfig::default()
    }
}

/// The clock of one iteration: it runs only while the program does.
/// Building the program's arguments (cloning the arrival schedule that
/// `run_service` consumes) and checking its output are the load
/// generator's work and stay off it. When tracing, every timed call is
/// also a span.
pub struct Clock<'a> {
    tracer: Option<&'a mut Tracer>,
    /// Wall time the program has spent in this iteration.
    pub elapsed: Duration,
}

impl<'a> Clock<'a> {
    /// A clock that records no spans.
    pub fn untraced() -> Self {
        Clock {
            tracer: None,
            elapsed: Duration::ZERO,
        }
    }

    /// A clock whose timed calls are also spans of `tracer`.
    pub fn traced(tracer: &'a mut Tracer) -> Self {
        Clock {
            tracer: Some(tracer),
            elapsed: Duration::ZERO,
        }
    }

    fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = match &mut self.tracer {
            Some(t) => t.span(name, |_| f()),
            None => f(),
        };
        self.elapsed += started.elapsed();
        out
    }
}

impl Prepared {
    /// Full set-up: catalog generation, spec/schedule build, profiling,
    /// expected results, warm-up iterations (each one checked).
    pub fn setup(
        kind: Kind,
        seed: u64,
        sizing: Sizing,
        results_dir: &Path,
        oracle_source: OracleSource,
    ) -> Result<Prepared, String> {
        let seeds = Seeds::from_seed(seed);
        let mut timings = SetupTimings::default();

        let t = Instant::now();
        let catalog = inputs::catalog(kind, seeds, sizing);
        timings.generate_s = t.elapsed().as_secs_f64();

        let specs = inputs::specs(kind, seeds);

        let spill_dir = results_dir.join("spill");
        // A crashed earlier run may have left files; the leak check
        // must start from an empty directory.
        let _ = std::fs::remove_dir_all(&spill_dir);
        std::fs::create_dir_all(&spill_dir)
            .map_err(|e| format!("create {}: {e}", spill_dir.display()))?;

        let mut engine = sim_engine(1, Policy::NeverShare);
        if kind == Kind::JoinSortSpill {
            engine.memory = MemoryConfig {
                query_budget: Some(spill_budget(&catalog)),
                spill_dir: Some(spill_dir.clone()),
                ..MemoryConfig::default()
            };
        }

        let service = if kind == Kind::ServiceShared {
            let schedule = inputs::schedule(&specs, seeds, sizing);
            let mut models: HashMap<String, QueryModelInfo> = HashMap::new();
            for spec in &specs {
                if !models.contains_key(&spec.name) {
                    let (info, _) =
                        profile_query(&catalog, spec, &sim_engine(1, Policy::NeverShare))
                            .map_err(|e| format!("profiling {}: {e}", spec.name))?;
                    models.insert(spec.name.clone(), info);
                }
            }

            let mut engine = sim_engine(2, Policy::model_guided(models));
            engine.fragment_cache = 2;
            Some(Service {
                schedule,
                cfg: ServiceConfig {
                    engine,
                    admission_capacity: ADMISSION_CAPACITY,
                    time_cap: None,
                },
                baseline: None,
            })
        } else {
            None
        };

        let oracle = oracle_source(kind, seed, sizing)?;
        timings.reference_s = oracle.reference_s;
        if oracle.expected.len() != specs.len() {
            return Err(format!(
                "oracle answered {} queries, workload has {}",
                oracle.expected.len(),
                specs.len()
            ));
        }

        let mut prepared = Prepared {
            kind,
            catalog,
            specs,
            oracle,
            timings,
            engine,
            spill_dir,
            service,
            q1_rows: Vec::new(),
        };
        if prepared.service.is_some() {
            prepared.verify_service_rows()?;
        }
        if kind == Kind::ThreadShare {
            let out = run_once(&prepared.catalog, &prepared.specs[1..=1], &prepared.engine);
            let mut check = Check::default();
            prepared.check_rows(&mut check, 1, &out.results[0]);
            if check.failed > 0 || !out.failures.is_empty() {
                return Err(format!(
                    "q1 baseline: {:?} {:?}",
                    check.problems, out.failures
                ));
            }
            prepared.q1_rows = out.results.into_iter().next().unwrap_or_default();
        }
        for _ in 0..WARMUP_ITERS {
            let raw = prepared.run(&mut Clock::untraced());
            let check = prepared.check(raw);
            if check.failed > 0 {
                return Err(format!("warm-up failed: {}", check.problems.join("; ")));
            }
        }
        Ok(prepared)
    }

    /// Queries one iteration attempts.
    pub fn queries_per_iter(&self) -> u64 {
        match (&self.service, self.kind) {
            (Some(s), _) => s.schedule.len() as u64,
            (None, Kind::ThreadShare) => {
                (threads::UNSHARED_M + threads::SHARED_M + threads::PARALLEL_M) as u64
            }
            (None, _) => self.specs.len() as u64,
        }
    }

    /// Bytes of the `lineitem` table.
    pub fn lineitem_bytes(&self) -> usize {
        inputs::table_bytes(&self.catalog, "lineitem")
    }

    /// The service configuration, when this is the service workload.
    pub fn service_cfg(&self) -> Option<&ServiceConfig> {
        self.service.as_ref().map(|s| &s.cfg)
    }

    /// The arrival schedule, when this is the service workload.
    pub fn service_schedule(&self) -> Option<&ArrivalSchedule> {
        self.service.as_ref().map(|s| &s.schedule)
    }

    /// The verified baseline service report.
    pub fn service_baseline(&self) -> Option<&ServiceReport> {
        self.service.as_ref().and_then(|s| s.baseline.as_ref())
    }

    /// One iteration: the workload's fixed batch, exactly the calls a
    /// client of the engine would make, each timed by `clock`.
    pub fn run(&self, clock: &mut Clock<'_>) -> Raw {
        match self.kind {
            Kind::ScanAgg => Raw::Batch(vec![(
                vec![0, 1],
                clock.call("engine.run_once", || {
                    run_once(&self.catalog, &self.specs, &self.engine)
                }),
            )]),
            Kind::JoinSort | Kind::JoinSortSpill => Raw::Batch(
                (0..self.specs.len())
                    .map(|i| {
                        let out = clock.call("engine.run_once", || {
                            run_once(&self.catalog, &self.specs[i..=i], &self.engine)
                        });
                        (vec![i], out)
                    })
                    .collect(),
            ),
            Kind::ServiceShared => {
                let s = self.service.as_ref().expect("service workload has inputs");
                let schedule = s.schedule.clone();
                Raw::Service(Box::new(clock.call("engine.run_service", || {
                    run_service(&self.catalog, schedule, &s.cfg)
                })))
            }
            Kind::ThreadShare => {
                let (q6, q1) = (&self.specs[0], &self.specs[1]);
                let unshared = clock.call("thread_exec.run_unshared", || {
                    let (m, threads) = (threads::UNSHARED_M, threads::UNSHARED_THREADS);
                    thread_exec::run_unshared(&self.catalog, q6, m, threads)
                });
                let shared = clock.call("thread_exec.run_shared", || {
                    thread_exec::run_shared(&self.catalog, q6, threads::SHARED_M)
                });
                let workers = ParallelConfig::with_workers(threads::PARALLEL_WORKERS);
                let parallel = clock.call("thread_exec.run_unshared_parallel", || {
                    thread_exec::run_unshared_parallel(
                        &self.catalog,
                        q1,
                        threads::PARALLEL_M,
                        1,
                        &workers,
                    )
                    // A failed run shows as missing results.
                    .unwrap_or_else(|_| ThreadReport {
                        results: Vec::new(),
                        elapsed: Duration::ZERO,
                    })
                });
                Raw::Threads(vec![(0, unshared), (0, shared), (1, parallel)])
            }
        }
    }

    fn check_rows(&self, check: &mut Check, spec: usize, rows: &[Vec<Value>]) {
        let want = &self.oracle.expected[spec];
        if rows.len() != want.rows || digest(rows.to_vec()) != want.digest {
            check.fail(
                1,
                format!(
                    "{}: result differs from exec::reference ({} rows, expected {})",
                    want.name,
                    rows.len(),
                    want.rows
                ),
            );
        }
    }

    /// The correctness gate over one iteration's output.
    pub fn check(&mut self, raw: Raw) -> Check {
        let mut check = Check {
            attempted: self.queries_per_iter(),
            ..Check::default()
        };
        match raw {
            Raw::Batch(outcomes) => {
                for (spec_ids, out) in outcomes {
                    for (submission, err) in &out.failures {
                        check.fail(1, format!("query {submission} failed: {err}"));
                    }
                    for (rows, &spec) in out.results.iter().zip(&spec_ids) {
                        // A failed query was already counted once.
                        if !out.failures.iter().any(|(s, _)| spec_ids[*s] == spec) {
                            self.check_rows(&mut check, spec, rows);
                        }
                    }
                }
                let leaked = std::fs::read_dir(&self.spill_dir).map_or(0, |d| d.count());
                if leaked > 0 {
                    check.fail(
                        leaked as u64,
                        format!(
                            "{leaked} spill file(s) left in {}",
                            self.spill_dir.display()
                        ),
                    );
                }
            }
            Raw::Service(report) => {
                for (i, d) in report.dispositions.iter().enumerate() {
                    match d {
                        Disposition::Completed { .. } => {}
                        Disposition::Failed(e) => check.fail(1, format!("arrival {i} failed: {e}")),
                        Disposition::Rejected => check.fail(1, format!("arrival {i} rejected")),
                        Disposition::InFlight => check.fail(1, format!("arrival {i} in flight")),
                    }
                }
                let service = self.service.as_mut().expect("service workload has inputs");
                match &service.baseline {
                    None => service.baseline = Some(*report),
                    Some(base) => {
                        if base.response_times != report.response_times
                            || base.dispositions != report.dispositions
                            || base.sharing != report.sharing
                            || base.group_sizes != report.group_sizes
                        {
                            check.fail(
                                check.attempted,
                                "service run diverged from the verified baseline \
                                 (virtual time must repeat exactly)"
                                    .into(),
                            );
                        }
                    }
                }
            }
            Raw::Threads(reports) => {
                let want = [threads::UNSHARED_M, threads::SHARED_M, threads::PARALLEL_M];
                for (call, ((spec, report), m)) in reports.into_iter().zip(want).enumerate() {
                    if report.results.len() != m {
                        check.fail(
                            m.saturating_sub(report.results.len()) as u64,
                            format!(
                                "{}: thread run returned {} of {m} results",
                                self.specs[spec].name,
                                report.results.len()
                            ),
                        );
                    }
                    for rows in &report.results {
                        // Only the third call is the morsel-parallel one.
                        if call < 2 {
                            self.check_rows(&mut check, spec, rows);
                        } else if !rows_close(rows, &self.q1_rows) {
                            check.fail(
                                1,
                                "q1: morsel-parallel rows differ from the serial engine's \
                                 beyond rounding"
                                    .into(),
                            );
                        }
                    }
                }
            }
        }
        check
    }

    /// `run_service` returns dispositions, not rows. Rows are verified
    /// once per set-up by replaying the same schedule under the same
    /// engine configuration (policy, cache, contexts) through the
    /// collecting open loop and holding every arrival's rows against
    /// the oracle's answer for its spec.
    fn verify_service_rows(&self) -> Result<(), String> {
        let s = self.service.as_ref().expect("service workload has inputs");
        let (report, results) = run_open_loop_collecting(
            &self.catalog,
            s.schedule.clone(),
            &s.cfg.engine,
            u64::MAX / 4,
        );
        if report.completed != report.submitted {
            return Err(format!(
                "service row check: {} of {} completed",
                report.completed, report.submitted
            ));
        }
        let mut check = Check::default();
        for (i, rows) in results.iter().enumerate() {
            self.check_rows(&mut check, i % self.specs.len(), rows);
        }
        if check.failed > 0 {
            return Err(format!(
                "service row check: {} arrivals differ from exec::reference, first: {}",
                check.failed, check.problems[0]
            ));
        }
        Ok(())
    }
}

/// Row sets equal up to float rounding (relative 1e-9): same shape,
/// exact integers, dates and strings. Both sides are canonicalised, so
/// the comparison ignores row order; it assumes rows differ in a
/// non-float column (Q1's group keys), so rounding cannot reorder them.
pub fn rows_close(a: &[Vec<Value>], b: &[Vec<Value>]) -> bool {
    let (a, b) = (
        reference::canonicalize(a.to_vec()),
        reference::canonicalize(b.to_vec()),
    );
    a.len() == b.len()
        && a.iter().zip(&b).all(|(ra, rb)| {
            ra.len() == rb.len()
                && ra.iter().zip(rb).all(|(x, y)| match (x, y) {
                    (Value::Float(x), Value::Float(y)) => {
                        (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0)
                    }
                    _ => x == y,
                })
        })
}

/// The spill workload's per-query budget: a sixteenth of `lineitem`
/// (1.2 MB at the committed sizing), which all four plans complete
/// under by spilling.
pub fn spill_budget(catalog: &Catalog) -> usize {
    (inputs::table_bytes(catalog, "lineitem") / 16).max(16 * cordoba_storage::PAGE_SIZE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_accumulates_and_reports_problems() {
        let mut a = Check {
            attempted: 2,
            ..Check::default()
        };
        let mut b = Check {
            attempted: 4,
            ..Check::default()
        };
        b.fail(3, "three went wrong".into());
        a.absorb(b);
        assert_eq!((a.attempted, a.failed), (6, 3));
        assert_eq!(a.problems, vec!["three went wrong".to_string()]);
    }
}
