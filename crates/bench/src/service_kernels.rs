//! Service-loop tail-latency scenarios of `BENCH_service.json`.
//!
//! Everything here runs the release engine inside the deterministic
//! simulator with fixed seeds and `workers = 1` pinned, so every number
//! — counts, makespans, and the p50/p99/p999 response-time quantiles —
//! is bit-reproducible across hosts and CI runners, and
//! `tests/gates.rs` can compare against committed values directly.
//!
//! Two suites, following the WIND harness split:
//!
//! * **Suite A** (deterministic structure): coincident fan-out bursts
//!   and a scalability point — fixed arrival instants, the sharing
//!   fan-out/fan-in path under test.
//! * **Suite B** (stochastic arrivals, fixed seeds): Poisson baseline,
//!   bursty on/off, a chaos campaign with injected faults, and a
//!   saturation ramp against a small admission queue with a time cap —
//!   the open-system regimes where rejections and in-flight strands
//!   must stay accounted.

use crate::engine_cfg;
use crate::output::Json;
use cordoba_engine::{run_service, ArrivalSchedule, Policy, Report, ServiceConfig};
use cordoba_sim::{LatencySummary, VTime};
use cordoba_storage::tpch::{generate, TpchConfig};
use cordoba_storage::Catalog;
use cordoba_workload::arrivals::{bursty, chaos, poisson_mix, ramp};
use cordoba_workload::{family_specs, CostProfile, FamilyConfig};

/// Scale factor of the service scenarios' catalog.
pub const SCALE_FACTOR: f64 = 0.002;

/// The fixed benchmark catalog (same scale/seed as the subsume suite).
pub fn catalog() -> Catalog {
    generate(&TpchConfig {
        scale_factor: SCALE_FACTOR,
        seed: 11,
        ..TpchConfig::default()
    })
}

/// The seeded family workload: distinct but nested Q6/Q1-style
/// windows, so the sharing path does real subsumption work.
fn family_pool(seed: u64, families: usize, per_family: usize) -> Vec<cordoba_engine::QuerySpec> {
    family_specs(
        &CostProfile::paper(),
        &FamilyConfig {
            seed,
            families,
            per_family,
        },
    )
}

/// One scenario's committed record.
#[derive(Debug, Clone)]
pub struct ServicePoint {
    /// Scenario name (stable; a renamed scenario fails the byte gate).
    pub name: &'static str,
    /// `"A"` (deterministic structure) or `"B"` (stochastic, seeded).
    pub suite: &'static str,
    /// Simulated contexts.
    pub contexts: usize,
    /// Admission-queue capacity.
    pub capacity: usize,
    /// Queries offered / completed / failed / rejected / in flight.
    pub offered: usize,
    /// Completed queries.
    pub completed: usize,
    /// Failed queries (runtime faults and injected chaos).
    pub failed: usize,
    /// Refused at admission.
    pub rejected: usize,
    /// Unfinished at the time cap.
    pub in_flight: usize,
    /// Virtual end time.
    pub makespan: VTime,
    /// Completions per unit virtual time.
    pub throughput: f64,
    /// Machine utilization over the run.
    pub utilization: f64,
    /// Mean dispatched group size.
    pub mean_group: f64,
    /// Response-time distribution of the completed queries.
    pub latency: LatencySummary,
    /// One-line description for the JSON record.
    pub note: &'static str,
}

impl ServicePoint {
    /// The scenario's `BENCH_service.json` record.
    pub fn json(&self) -> Json {
        let l = &self.latency;
        Json::Obj(vec![
            ("name", self.name.into()),
            ("suite", self.suite.into()),
            ("contexts", self.contexts.into()),
            ("capacity", self.capacity.into()),
            ("offered", self.offered.into()),
            ("completed", self.completed.into()),
            ("failed", self.failed.into()),
            ("rejected", self.rejected.into()),
            ("in_flight", self.in_flight.into()),
            ("makespan", self.makespan.into()),
            ("throughput", Json::fixed(self.throughput, 9)),
            ("utilization", Json::fixed(self.utilization, 4)),
            ("mean_group", Json::fixed(self.mean_group, 3)),
            (
                "latency",
                Json::Obj(vec![
                    ("count", l.count.into()),
                    ("min", l.min.into()),
                    ("mean", Json::fixed(l.mean, 1)),
                    ("p50", l.p50.into()),
                    ("p90", l.p90.into()),
                    ("p99", l.p99.into()),
                    ("p999", l.p999.into()),
                    ("max", l.max.into()),
                ]),
            ),
            ("note", self.note.into()),
        ])
    }
}

fn point(
    name: &'static str,
    suite: &'static str,
    cfg: &ServiceConfig,
    report: &Report,
    note: &'static str,
) -> ServicePoint {
    let latency = report
        .latency()
        .summary()
        .unwrap_or_else(|| panic!("{name}: every scenario must complete something"));
    ServicePoint {
        name,
        suite,
        contexts: cfg.engine.contexts,
        capacity: cfg.admission_capacity,
        offered: report.offered,
        completed: report.completed,
        failed: report.failures.len(),
        rejected: report.rejected,
        in_flight: report.in_flight,
        makespan: report.makespan,
        throughput: report.throughput(),
        utilization: report.stats.utilization(),
        mean_group: report.mean_group_size(),
        latency,
        note,
    }
}

/// Suite A: two coincident bursts of the nested family workload — every
/// member of a burst co-resides in the formation window, so the
/// dispatcher must fan a wide fragment out to all of them and fan their
/// residual results back in. Asserts that sharing actually happened.
pub fn fanout_share_burst(cat: &Catalog) -> ServicePoint {
    let pool = family_pool(11, 2, 4);
    let mut schedule: ArrivalSchedule = Vec::new();
    for (b, burst_at) in [1_000u64, 4_000_000].into_iter().enumerate() {
        for (i, spec) in pool.iter().enumerate() {
            schedule.push((burst_at + (b * pool.len() + i) as u64, spec.clone()));
        }
    }
    let cfg = ServiceConfig {
        engine: engine_cfg(2, Policy::AlwaysShare),
        admission_capacity: 64,
        time_cap: None,
    };
    let report = run_service(cat, schedule, &cfg);
    assert_eq!(report.completed, report.offered, "{report:?}");
    let p = point(
        "fanout_share_burst",
        "A",
        &cfg,
        &report,
        "two coincident 8-query family bursts on 2 contexts: wide fragment fan-out, residual fan-in",
    );
    assert!(
        p.mean_group > 1.0,
        "coincident bursts must form groups: {p:?}"
    );
    p
}

/// Suite A: the same coincident family burst on 8 contexts — the
/// scalability point, where sharing trades redundant work against lost
/// parallelism.
pub fn fanout_scale_n8(cat: &Catalog) -> ServicePoint {
    let pool = family_pool(13, 4, 4);
    let schedule: ArrivalSchedule = pool
        .iter()
        .enumerate()
        .map(|(i, spec)| (1_000 + i as u64, spec.clone()))
        .collect();
    let cfg = ServiceConfig {
        engine: engine_cfg(8, Policy::AlwaysShare),
        admission_capacity: 64,
        time_cap: None,
    };
    let report = run_service(cat, schedule, &cfg);
    assert_eq!(report.completed, report.offered, "{report:?}");
    point(
        "fanout_scale_n8",
        "A",
        &cfg,
        &report,
        "one coincident 16-query family burst on 8 contexts: sharing vs parallelism at scale",
    )
}

/// Suite B: Poisson arrivals of the family mix at moderate load —
/// the tail-latency baseline every other stochastic scenario is read
/// against.
pub fn poisson_baseline(cat: &Catalog) -> ServicePoint {
    let pool = family_pool(17, 2, 4);
    let schedule = poisson_mix(&pool, 48, 250_000, 23);
    let cfg = ServiceConfig {
        engine: engine_cfg(2, Policy::AlwaysShare),
        admission_capacity: 32,
        time_cap: None,
    };
    let report = run_service(cat, schedule, &cfg);
    assert_eq!(report.completed, report.offered, "{report:?}");
    point(
        "poisson_baseline",
        "B",
        &cfg,
        &report,
        "48 Poisson arrivals of the family mix at moderate load on 2 contexts",
    )
}

/// Suite B: an on/off source — tight 6-query bursts separated by long
/// idle gaps. Bursts queue behind each other, so the tail (p99/p999)
/// stretches far beyond the Poisson baseline's.
pub fn burst_onoff(cat: &Catalog) -> ServicePoint {
    let pool = family_pool(19, 2, 4);
    let schedule = bursty(&pool, 8, 6, 500, 1_500_000, 29);
    let cfg = ServiceConfig {
        engine: engine_cfg(2, Policy::AlwaysShare),
        admission_capacity: 32,
        time_cap: None,
    };
    let report = run_service(cat, schedule, &cfg);
    assert_eq!(report.completed, report.offered, "{report:?}");
    point(
        "burst_onoff",
        "B",
        &cfg,
        &report,
        "8 bursts x 6 queries, back-to-back within a burst, long idle gaps between",
    )
}

/// Suite B: the Poisson baseline under a chaos campaign — a quarter of
/// the arrivals carry injected faults and must fail without disturbing
/// their group peers. Asserts the failure path is actually exercised.
pub fn chaos_poisson(cat: &Catalog) -> ServicePoint {
    let pool = family_pool(17, 2, 4);
    let schedule = chaos(poisson_mix(&pool, 48, 250_000, 23), 0.25, 31);
    let cfg = ServiceConfig {
        engine: engine_cfg(2, Policy::AlwaysShare),
        admission_capacity: 32,
        time_cap: None,
    };
    let report = run_service(cat, schedule, &cfg);
    let p = point(
        "chaos_poisson",
        "B",
        &cfg,
        &report,
        "the Poisson baseline with ~25% injected faults: failures accounted, peers unaffected",
    );
    assert!(p.failed > 0, "chaos campaign must inject failures: {p:?}");
    assert_eq!(p.completed + p.failed, p.offered, "{p:?}");
    p
}

/// Suite B: a saturation ramp against a small admission queue, cut by a
/// time cap — offered load grows past capacity, so late arrivals are
/// rejected (backpressure) and the cap strands queries in flight.
/// Asserts all four dispositions appear.
pub fn saturation_ramp(cat: &Catalog) -> ServicePoint {
    let pool = family_pool(17, 2, 4);
    let schedule = ramp(&pool, 64, 500_000, 500, 37);
    let cap = schedule[schedule.len() - 1].0;
    let cfg = ServiceConfig {
        engine: engine_cfg(2, Policy::AlwaysShare),
        admission_capacity: 4,
        time_cap: Some(cap),
    };
    let report = run_service(cat, schedule, &cfg);
    let p = point(
        "saturation_ramp",
        "B",
        &cfg,
        &report,
        "64-query load ramp into a capacity-4 admission queue, time-capped at the last arrival",
    );
    assert!(p.rejected > 0, "saturation must shed load: {p:?}");
    assert!(p.in_flight > 0, "the cap must strand queries: {p:?}");
    assert_eq!(
        p.offered,
        p.completed + p.failed + p.rejected + p.in_flight,
        "{p:?}"
    );
    p
}

/// Runs every scenario (in declared order) against the shared catalog.
pub fn run_all(cat: &Catalog, want: impl Fn(&str) -> bool) -> Vec<ServicePoint> {
    type Scenario = fn(&Catalog) -> ServicePoint;
    let scenarios: [(&str, Scenario); 6] = [
        ("fanout_share_burst", fanout_share_burst),
        ("fanout_scale_n8", fanout_scale_n8),
        ("poisson_baseline", poisson_baseline),
        ("burst_onoff", burst_onoff),
        ("chaos_poisson", chaos_poisson),
        ("saturation_ramp", saturation_ramp),
    ];
    scenarios
        .iter()
        .filter(|(name, _)| want(name))
        .map(|(_, f)| f(cat))
        .collect()
}
