//! Accounting invariants of the one run loop, capped and uncapped,
//! bounded and unbounded: no offered query may vanish from a report —
//! every one is completed, failed, rejected, or in flight — and virtual
//! time is pinned.

#![allow(
    clippy::expect_used,
    reason = "test code, exempt from the panic-free rule"
)]

use cordoba_engine::profiling::profile_query;
use cordoba_engine::{
    run_once, run_open_loop_collecting, run_service, ArrivalSchedule, Disposition, EngineConfig,
    ExecError, ParallelConfig, Policy, QuerySpec, Report, Run, ServiceConfig, SharingCounters,
    Source, Stop,
};
use cordoba_exec::expr::{Agg, ScalarExpr};
use cordoba_exec::{JoinKind, PhysicalPlan};
use cordoba_sim::VTime;
use cordoba_storage::tpch::{generate, TpchConfig};
use cordoba_storage::{Catalog, Value};
use cordoba_workload::arrivals::{bursty, chaos, poisson_arrivals, poisson_mix, ramp};
use cordoba_workload::{q1, q13, q4, q6, CostProfile};
use std::collections::HashMap;

fn catalog() -> Catalog {
    generate(&TpchConfig {
        scale_factor: 0.002,
        seed: 11,
        ..TpchConfig::default()
    })
}

fn pool() -> Vec<QuerySpec> {
    let costs = CostProfile::paper();
    vec![q6(&costs), q1(&costs)]
}

fn engine_cfg(policy: Policy) -> EngineConfig {
    EngineConfig {
        contexts: 2,
        policy,
        ..EngineConfig::default()
    }
}

/// The open system of paper Section 5.1: an unbounded admission queue,
/// optionally cut at `time_cap`.
fn run_open(cat: &Catalog, schedule: ArrivalSchedule, time_cap: Option<VTime>) -> Report {
    let cfg = ServiceConfig {
        engine: engine_cfg(Policy::AlwaysShare),
        admission_capacity: usize::MAX,
        time_cap,
    };
    run_service(cat, schedule, &cfg)
}

/// `offered == completed + failures + in_flight` over a sweep of tiny
/// time caps that cut the run at every phase: before any arrival,
/// mid-arrivals, mid-execution, and after the drain.
#[test]
fn capped_open_loop_accounting_balances() {
    let cat = catalog();
    let schedule = poisson_arrivals(&pool()[0], 20, 3_000, 7);
    for cap in [1, 1_000, 10_000, 100_000, 1_000_000, u64::MAX / 4] {
        let report = run_open(&cat, schedule.clone(), Some(cap));
        // `Run::report` asserts the invariant; re-check it here so a
        // future refactor of the report cannot silently drop it.
        assert_eq!(
            report.offered,
            report.completed + report.failures.len() + report.in_flight,
            "cap {cap}: {report:?}"
        );
        assert_eq!(report.rejected, 0, "unbounded admission never refuses");
        assert_eq!(report.dispositions.len(), 20);
        let completed = report
            .dispositions
            .iter()
            .filter(|d| matches!(d, Disposition::Completed { .. }))
            .count();
        assert_eq!(completed, report.completed, "cap {cap}");
    }
}

/// The invariant holds for bursty schedules whose arrivals cluster
/// around the cap boundary.
#[test]
fn capped_bursty_schedule_accounts_for_every_query() {
    let cat = catalog();
    let schedule = bursty(&pool(), 4, 6, 10, 200_000, 21);
    let total = schedule.len();
    for cap in [50_000, 400_000, 900_000] {
        let report = run_open(&cat, schedule.clone(), Some(cap));
        assert_eq!(report.offered, total);
        assert_eq!(
            report.offered,
            report.completed + report.failures.len() + report.in_flight
        );
    }
}

/// Injected faults land in `failures` (as `ExecError::Injected`), and
/// the books still balance under a cap.
#[test]
fn capped_run_with_injected_failures_balances() {
    let cat = catalog();
    let schedule = chaos(poisson_mix(&pool(), 24, 2_000, 3), 0.4, 5);
    let injected = schedule.iter().filter(|(_, s)| s.chaos.is_some()).count();
    assert!(injected > 0, "campaign must mark something");
    let report = run_open(&cat, schedule, Some(u64::MAX / 4));
    assert_eq!(report.in_flight, 0, "uncapped run drains");
    assert_eq!(report.failures.len(), injected);
    assert!(report
        .failures
        .iter()
        .all(|(_, e)| matches!(e, ExecError::Injected { .. })));
    assert_eq!(report.completed, 24 - injected);
    // Chaos queries fail at the sink; their healthy group peers are
    // unaffected.
    assert!(report.completed > 0);
}

/// One stop rule: a time cap leaves a batch's unfinished queries in
/// flight (only a wedged run fails them as `Stalled`), exactly as it
/// does a schedule's.
#[test]
fn capped_batch_reports_in_flight_and_balances() {
    let cat = catalog();
    let specs: Vec<QuerySpec> = (0..6).map(|_| pool()[0].clone()).collect();
    let cfg = engine_cfg(Policy::NeverShare);
    let mut run = Run::new(&cat, &cfg, Source::Batch(&specs), usize::MAX, true);
    run.advance(Stop::TimeCap(10));
    let out = run.report();
    assert_eq!(out.in_flight, 6, "nothing can finish in 10 units");
    assert!(out.dispositions.iter().all(|d| *d == Disposition::InFlight));
    assert_eq!(
        out.offered,
        out.completed + out.failures.len() + out.rejected + out.in_flight
    );
    // Uncapped, the same batch completes with no failures.
    let out = run_once(&cat, &specs, &cfg);
    assert!(out.failures.is_empty());
    assert_eq!((out.completed, out.results.len()), (6, 6));
}

/// Poisson arrivals through the unbounded service all complete, with
/// positive response times and an exact tail quantile.
#[test]
fn open_loop_completes_all_scheduled_arrivals() {
    let cat = catalog();
    let schedule = poisson_arrivals(&pool()[0], 12, 5_000, 7);
    assert_eq!(schedule.len(), 12);
    assert!(
        schedule.windows(2).all(|w| w[0].0 <= w[1].0),
        "sorted by time"
    );
    let report = run_open(&cat, schedule, Some(1_000_000_000));
    assert_eq!(report.completed, 12, "{report:?}");
    assert_eq!(report.response_times.len(), 12);
    assert!(report.response_times.iter().all(|&t| t > 0));
    assert!(report.mean_response().unwrap() > 0.0);
    assert!(report.throughput() > 0.0);
    assert_eq!(
        report.in_flight, 0,
        "drained schedule has nothing in flight"
    );
    assert!(report
        .dispositions
        .iter()
        .all(|d| matches!(d, Disposition::Completed { .. })));
    let p_max = report.latency().quantile(1.0).unwrap();
    assert_eq!(p_max, *report.response_times.iter().max().unwrap());
}

/// Service backpressure: a capacity-1 admission queue under a tight
/// burst rejects most of the burst, and `offered == completed + failed
/// + rejected + in_flight`.
#[test]
fn service_rejects_when_admission_queue_is_full() {
    let cat = catalog();
    let schedule: ArrivalSchedule = (0..10).map(|_| (1_000, pool()[0].clone())).collect();
    let cfg = ServiceConfig {
        engine: engine_cfg(Policy::NeverShare),
        admission_capacity: 1,
        time_cap: None,
    };
    let report = run_service(&cat, schedule, &cfg);
    assert_eq!(report.offered, 10);
    assert!(report.rejected > 0, "{report:?}");
    assert_eq!(report.completed + report.rejected, 10);
    assert_eq!(report.in_flight, 0);
    assert_eq!(
        report
            .dispositions
            .iter()
            .filter(|d| **d == Disposition::Rejected)
            .count(),
        report.rejected
    );
    assert!(report.rejection_rate() > 0.0);
}

/// With ample capacity the service completes the whole schedule and the
/// latency histogram covers every completion.
#[test]
fn service_completes_all_under_ample_capacity() {
    let cat = catalog();
    let schedule = poisson_mix(&pool(), 16, 4_000, 9);
    let cfg = ServiceConfig {
        engine: engine_cfg(Policy::AlwaysShare),
        admission_capacity: 64,
        time_cap: None,
    };
    let report = run_service(&cat, schedule, &cfg);
    assert_eq!(report.completed, 16, "{report:?}");
    assert_eq!(report.rejected + report.in_flight, 0);
    assert_eq!(report.latency().len(), 16);
    assert!(report.latency().summary().unwrap().p99 >= report.latency().summary().unwrap().p50);
    assert!(report.mean_response().unwrap() > 0.0);
    assert!(report.throughput() > 0.0);
}

/// A time-capped saturation ramp exercises all four dispositions at
/// once — completed, rejected, in flight (and the books still balance).
#[test]
fn capped_service_ramp_accounts_for_every_disposition() {
    let cat = catalog();
    let schedule = ramp(&pool(), 40, 20_000, 10, 13);
    let cap = schedule[25].0;
    let cfg = ServiceConfig {
        engine: engine_cfg(Policy::AlwaysShare),
        admission_capacity: 4,
        time_cap: Some(cap),
    };
    let report = run_service(&cat, schedule, &cfg);
    assert_eq!(report.offered, 40);
    assert_eq!(
        report.offered,
        report.completed + report.failures.len() + report.rejected + report.in_flight,
        "{report:?}"
    );
    assert!(report.in_flight > 0, "cap strands queries: {report:?}");
    assert!(report.makespan <= cap);
}

/// Chaos queries fail inside the service while their healthy peers
/// complete; failures are indexed by offered (schedule) position.
#[test]
fn service_chaos_failures_are_isolated_and_indexed() {
    let cat = catalog();
    let schedule = chaos(poisson_mix(&pool(), 20, 3_000, 31), 0.3, 37);
    let marked: Vec<usize> = schedule
        .iter()
        .enumerate()
        .filter(|(_, (_, s))| s.chaos.is_some())
        .map(|(i, _)| i)
        .collect();
    assert!(!marked.is_empty());
    let cfg = ServiceConfig {
        engine: engine_cfg(Policy::AlwaysShare),
        admission_capacity: 64,
        time_cap: None,
    };
    let report = run_service(&cat, schedule, &cfg);
    let mut failed: Vec<usize> = report.failures.iter().map(|(i, _)| *i).collect();
    failed.sort_unstable();
    assert_eq!(failed, marked, "exactly the marked queries fail");
    assert_eq!(report.completed, 20 - marked.len());
    assert_eq!(report.rejected + report.in_flight, 0);
}

/// One failure index: with capacity rejections interleaved among the
/// admitted arrivals (so counting only admitted queries would drift
/// from schedule positions), every `failures[k].0` names an offered
/// position whose disposition is that failure.
#[test]
fn failures_index_offered_positions_under_rejections() {
    let cat = catalog();
    let schedule = chaos(bursty(&pool(), 3, 8, 10, 2_000_000, 21), 0.4, 5);
    let marked: Vec<usize> = (0..schedule.len())
        .filter(|&i| schedule[i].1.chaos.is_some())
        .collect();
    let cfg = ServiceConfig {
        engine: engine_cfg(Policy::AlwaysShare),
        admission_capacity: 3,
        time_cap: None,
    };
    let report = run_service(&cat, schedule, &cfg);
    assert!(report.rejected > 0, "{report:?}");
    assert!(!report.failures.is_empty(), "{report:?}");
    assert!(
        report.failures.iter().any(|(k, _)| *k >= report.submitted),
        "no failure lies past a rejection: an admitted-only index would pass too"
    );
    for (k, err) in &report.failures {
        assert_eq!(report.dispositions[*k], Disposition::Failed(err.clone()));
        assert!(marked.contains(k), "only marked arrivals fail: {k}");
        assert!(matches!(err, ExecError::Injected { .. }));
    }
    let failed = report
        .dispositions
        .iter()
        .filter(|d| matches!(d, Disposition::Failed(_)))
        .count();
    assert_eq!(failed, report.failures.len());
    assert_eq!(report.submitted, report.offered - report.rejected);
}

/// One page per simulated step: the protocol before steps moved a
/// morsel, under which every number pinned at its side was recorded.
const ONE_PAGE: ParallelConfig = ParallelConfig {
    workers: 1,
    morsel_pages: 1,
};

/// `engine_cfg(policy)` at `parallel`.
fn engine_cfg_at(policy: Policy, parallel: ParallelConfig) -> EngineConfig {
    EngineConfig {
        parallel,
        ..engine_cfg(policy)
    }
}

/// The pinned service run: a bursty schedule of Q6 and Q1 under the
/// model-guided policy with a fragment cache, admission bounded at 8,
/// steps of `parallel.morsel_pages` pages. Returns its report and the
/// makespans of one Q1+Q6 batch never and always shared. Checks on the
/// way that row capture does not perturb time.
fn pinned_service_run(parallel: ParallelConfig) -> (Report, (VTime, VTime)) {
    let cat = catalog();
    let mut models = HashMap::new();
    for spec in pool() {
        let mut profile_cfg = engine_cfg_at(Policy::NeverShare, parallel);
        profile_cfg.contexts = 1;
        let (info, _) = profile_query(&cat, &spec, &profile_cfg).expect("profiles");
        models.insert(spec.name.clone(), info);
    }
    let mut engine = engine_cfg_at(Policy::model_guided(models), parallel);
    engine.fragment_cache = 2;
    let schedule = bursty(&pool(), 3, 4, 10, 200_000, 21);
    let bounded = ServiceConfig {
        engine: engine.clone(),
        admission_capacity: 8,
        time_cap: None,
    };
    let report = run_service(&cat, schedule.clone(), &bounded);

    // Capture must not perturb time: the same schedule, unbounded, with
    // and without row capture.
    let unbounded = ServiceConfig {
        admission_capacity: usize::MAX,
        ..bounded
    };
    let plain = run_service(&cat, schedule.clone(), &unbounded);
    let (captured, rows) = run_open_loop_collecting(&cat, schedule, &engine, u64::MAX / 4);
    assert_eq!(plain.dispositions, captured.dispositions);
    assert_eq!(plain.response_times, captured.response_times);
    assert!(plain.results.is_empty() && plain.task_stats.is_empty());
    assert_eq!(rows.len(), captured.offered);

    let batch = [pool()[1].clone(), pool()[0].clone()];
    let never = run_once(&cat, &batch, &engine_cfg_at(Policy::NeverShare, parallel));
    let always = run_once(&cat, &batch, &engine_cfg_at(Policy::AlwaysShare, parallel));
    (report, (never.makespan, always.makespan))
}

/// Virtual time is pinned: the values below were recorded at the commit
/// before the run loops were collapsed into `Run`, and must never move
/// at one page per step.
#[test]
fn virtual_time_is_pinned() {
    let (report, (never, always)) = pinned_service_run(ONE_PAGE);
    let done = |at, response| Disposition::Completed { at, response };
    assert_eq!(report.makespan, 1_111_181);
    assert_eq!(
        report.response_times,
        [714_908, 840_412, 840_443, 840_424, 916_403, 916_404, 916_405, 916_466]
    );
    assert_eq!(
        report.dispositions,
        [
            done(875_657, 840_443),
            done(750_132, 714_908),
            done(875_658, 840_424),
            done(875_656, 840_412),
            done(1_111_118, 916_404),
            done(1_111_180, 916_466),
            done(1_111_119, 916_405),
            done(1_111_117, 916_403),
            Disposition::Rejected,
            Disposition::Rejected,
            Disposition::Rejected,
            Disposition::Rejected,
        ]
    );
    assert_eq!(report.group_sizes, [3, 1, 4]);
    assert_eq!(
        report.sharing,
        SharingCounters {
            fingerprint_misses: 3,
            fingerprint_evictions: 1,
            ..SharingCounters::default()
        }
    );
    assert_eq!((never, always), (269_630, 368_303));
}

/// The same run at the default morsel size, recorded when simulated
/// steps began to move a morsel of pages.
#[test]
fn virtual_time_is_pinned_at_the_default_morsel() {
    let (report, (never, always)) = pinned_service_run(ParallelConfig::with_workers(1));
    let done = |at, response| Disposition::Completed { at, response };
    assert_eq!(report.makespan, 1_110_788);
    assert_eq!(
        report.response_times,
        [764_829, 842_829, 842_860, 842_841, 910_345, 912_643, 912_644, 912_713]
    );
    assert_eq!(
        report.dispositions,
        [
            done(878_074, 842_860),
            done(800_053, 764_829),
            done(878_075, 842_841),
            done(878_073, 842_829),
            done(1_108_419, 910_345),
            done(1_110_718, 912_644),
            done(1_110_717, 912_643),
            done(1_110_787, 912_713),
            Disposition::Rejected,
            Disposition::Rejected,
            Disposition::Rejected,
            Disposition::Rejected,
        ]
    );
    assert_eq!(report.group_sizes, [3, 1, 4]);
    assert_eq!(
        report.sharing,
        SharingCounters {
            fingerprint_misses: 3,
            fingerprint_evictions: 1,
            ..SharingCounters::default()
        }
    );
    assert_eq!((never, always), (269_644, 368_497));
}

/// The blocking operators' shapes: TPC-H Q4 (a semi join under a
/// grouped count), Q13 (a left outer join under one), `count(*),
/// sum(l_extendedprice)` over `lineitem` sorted by `l_shipdate`, and
/// `count(*)` over `orders ⋈ lineitem` on the order key — the four plans
/// the wall-clock benchmark's `join_sort` workload runs.
fn blocking_pool() -> Vec<QuerySpec> {
    let costs = CostProfile::paper();
    let scan = |table: &str| {
        Box::new(PhysicalPlan::Scan {
            table: table.into(),
            cost: costs.scan,
        })
    };
    let sort_agg = PhysicalPlan::Aggregate {
        input: Box::new(PhysicalPlan::Sort {
            input: scan("lineitem"),
            keys: vec![7],
            cost: costs.sort,
        }),
        group_by: vec![],
        aggs: vec![
            ("rows".into(), Agg::Count),
            ("sum_price".into(), Agg::Sum(ScalarExpr::col(2))),
        ],
        cost: costs.aggregate,
    };
    let join_agg = PhysicalPlan::Aggregate {
        input: Box::new(PhysicalPlan::HashJoin {
            build: scan("orders"),
            probe: scan("lineitem"),
            build_key: 0,
            probe_key: 0,
            kind: JoinKind::Inner,
            build_cost: costs.join_build,
            probe_cost: costs.join_probe,
        }),
        group_by: vec![],
        aggs: vec![("rows".into(), Agg::Count)],
        cost: costs.aggregate,
    };
    vec![
        q4(&costs),
        q13(&costs),
        QuerySpec::unshared("sort_agg", sort_agg),
        QuerySpec::unshared("join_agg", join_agg),
    ]
}

/// What the four blocking plans return: Q4's and Q13's groups, then
/// `sort_agg`'s and `join_agg`'s one row each.
fn blocking_rows() -> Vec<Vec<Vec<Value>>> {
    let int = Value::Int;
    let q4 = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECI", "5-LOW"]
        .into_iter()
        .zip([16, 23, 22, 25, 25])
        .map(|(priority, count)| vec![Value::Str(priority.into()), int(count)]);
    let q13 = [1, 3, 8, 13, 25, 24, 32, 52, 39, 26, 28, 17, 13, 8, 5, 3, 3]
        .into_iter()
        .zip(2..)
        .map(|(custdist, c_count)| vec![int(c_count), int(custdist)]);
    vec![
        q4.collect(),
        q13.collect(),
        vec![vec![int(12_070), Value::Float(156_581_309.046_865_1)]],
        vec![vec![int(12_070)]],
    ]
}

/// Runs the four blocking plans unshared, unbudgeted, at `parallel`,
/// on each context count of `pins` (with the makespan and the four
/// response times it must produce) and checks those and the rows.
fn check_blocking(parallel: ParallelConfig, pins: [(usize, VTime, [VTime; 4]); 2]) {
    let cat = catalog();
    let rows = blocking_rows();
    for (contexts, makespan, responses) in pins {
        let cfg = EngineConfig {
            contexts,
            ..engine_cfg_at(Policy::NeverShare, parallel)
        };
        let out = run_once(&cat, &blocking_pool(), &cfg);
        assert_eq!(out.makespan, makespan, "{contexts} contexts");
        assert_eq!(out.response_times, responses, "{contexts} contexts");
        assert_eq!(out.results, rows, "{contexts} contexts");
    }
}

/// Virtual time and rows of the blocking operators are pinned: what
/// these four plans return, and when, at 1 and 2 contexts, unbudgeted,
/// one page per step. The values were recorded before sorts and hash
/// joins carried only the columns their consumers read; which columns
/// an operator carries is not the model's business, so they must never
/// move.
#[test]
fn blocking_operators_virtual_time_is_pinned() {
    check_blocking(
        ONE_PAGE,
        [
            (1, 1_299_029, [536_281, 1_051_277, 1_226_382, 1_299_028]),
            (2, 653_770, [259_603, 535_909, 636_646, 653_769]),
        ],
    );
}

/// The same at the default morsel size, recorded when simulated steps
/// began to move a morsel of pages: the rows are the same.
#[test]
fn blocking_operators_virtual_time_is_pinned_at_the_default_morsel() {
    check_blocking(
        ParallelConfig::with_workers(1),
        [
            (1, 1_299_030, [629_767, 1_061_898, 1_234_449, 1_299_029]),
            (2, 657_261, [291_819, 550_301, 624_604, 657_260]),
        ],
    );
}
