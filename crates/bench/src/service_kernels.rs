//! Service-loop tail-latency scenarios of `BENCH_service.json`.
//!
//! Everything here runs the release engine inside the deterministic
//! simulator with fixed seeds and `workers = 1` pinned, so every number
//! — counts, makespans, and the p50/p99/p999 response-time quantiles —
//! is bit-reproducible across hosts and CI runners, and
//! `tests/gates.rs` can compare against committed values directly. Each
//! scenario asserts what it exists to exercise; the `service` panel
//! asserts the accounting invariant of every run.
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
use cordoba_engine::{run_service, ArrivalSchedule, Policy, Report, ServiceConfig};
use cordoba_storage::Catalog;
use cordoba_workload::arrivals::{bursty, chaos, poisson_mix, ramp};
use cordoba_workload::{family_specs, CostProfile, FamilyConfig};

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

/// A scenario run: the configuration it served under and its report.
pub(crate) type Run = (ServiceConfig, Report);

/// Runs `schedule` on `contexts` always-share contexts behind an
/// admission queue of `capacity`, cut at `time_cap`.
fn serve(
    cat: &Catalog,
    schedule: ArrivalSchedule,
    contexts: usize,
    capacity: usize,
    time_cap: Option<u64>,
) -> Run {
    let cfg = ServiceConfig {
        engine: engine_cfg(contexts, Policy::AlwaysShare),
        admission_capacity: capacity,
        time_cap,
    };
    let report = run_service(cat, schedule, &cfg);
    (cfg, report)
}

/// Suite A: two coincident bursts of the nested family workload — every
/// member of a burst co-resides in the formation window, so the
/// dispatcher must fan a wide fragment out to all of them and fan their
/// residual results back in. Asserts that sharing actually happened.
fn fanout_share_burst(cat: &Catalog) -> Run {
    let pool = family_pool(11, 2, 4);
    let mut schedule: ArrivalSchedule = Vec::new();
    for (b, burst_at) in [1_000u64, 4_000_000].into_iter().enumerate() {
        for (i, spec) in pool.iter().enumerate() {
            schedule.push((burst_at + (b * pool.len() + i) as u64, spec.clone()));
        }
    }
    let (cfg, report) = serve(cat, schedule, 2, 64, None);
    assert_eq!(report.completed, report.offered, "{report:?}");
    assert!(
        report.mean_group_size() > 1.0,
        "coincident bursts must form groups: {report:?}"
    );
    (cfg, report)
}

/// Suite A: the same coincident family burst on 8 contexts — the
/// scalability point, where sharing trades redundant work against lost
/// parallelism.
fn fanout_scale_n8(cat: &Catalog) -> Run {
    let pool = family_pool(13, 4, 4);
    let schedule: ArrivalSchedule = pool
        .iter()
        .enumerate()
        .map(|(i, spec)| (1_000 + i as u64, spec.clone()))
        .collect();
    let (cfg, report) = serve(cat, schedule, 8, 64, None);
    assert_eq!(report.completed, report.offered, "{report:?}");
    (cfg, report)
}

/// Suite B: Poisson arrivals of the family mix at moderate load —
/// the tail-latency baseline every other stochastic scenario is read
/// against.
fn poisson_baseline(cat: &Catalog) -> Run {
    let pool = family_pool(17, 2, 4);
    let schedule = poisson_mix(&pool, 48, 250_000, 23);
    let (cfg, report) = serve(cat, schedule, 2, 32, None);
    assert_eq!(report.completed, report.offered, "{report:?}");
    (cfg, report)
}

/// Suite B: an on/off source — tight 6-query bursts separated by long
/// idle gaps. Bursts queue behind each other, so the tail (p99/p999)
/// stretches far beyond the Poisson baseline's.
fn burst_onoff(cat: &Catalog) -> Run {
    let pool = family_pool(19, 2, 4);
    let schedule = bursty(&pool, 8, 6, 500, 1_500_000, 29);
    let (cfg, report) = serve(cat, schedule, 2, 32, None);
    assert_eq!(report.completed, report.offered, "{report:?}");
    (cfg, report)
}

/// Suite B: the Poisson baseline under a chaos campaign — a quarter of
/// the arrivals carry injected faults and must fail without disturbing
/// their group peers. Asserts the failure path is actually exercised.
fn chaos_poisson(cat: &Catalog) -> Run {
    let pool = family_pool(17, 2, 4);
    let schedule = chaos(poisson_mix(&pool, 48, 250_000, 23), 0.25, 31);
    let (cfg, report) = serve(cat, schedule, 2, 32, None);
    let failed = report.failures.len();
    assert!(
        failed > 0,
        "chaos campaign must inject failures: {report:?}"
    );
    assert_eq!(report.completed + failed, report.offered, "{report:?}");
    (cfg, report)
}

/// Suite B: a saturation ramp against a small admission queue, cut by a
/// time cap — offered load grows past capacity, so late arrivals are
/// rejected (backpressure) and the cap strands queries in flight.
/// Asserts both appear.
fn saturation_ramp(cat: &Catalog) -> Run {
    let pool = family_pool(17, 2, 4);
    let schedule = ramp(&pool, 64, 500_000, 500, 37);
    let cap = schedule[schedule.len() - 1].0;
    let (cfg, report) = serve(cat, schedule, 2, 4, Some(cap));
    assert!(report.rejected > 0, "saturation must shed load: {report:?}");
    assert!(
        report.in_flight > 0,
        "the cap must strand queries: {report:?}"
    );
    (cfg, report)
}

/// A scenario: its name (stable; a renamed scenario fails the byte
/// gate), its suite (`A` deterministic structure, `B` stochastic and
/// seeded), what it exercises, and the run.
pub(crate) type Scenario = (
    &'static str,
    &'static str,
    &'static str,
    fn(&Catalog) -> Run,
);

/// Every scenario, in the document's order.
pub(crate) const SCENARIOS: [Scenario; 6] = [
    (
        "fanout_share_burst",
        "A",
        "two coincident 8-query family bursts on 2 contexts: wide fragment fan-out; residual fan-in",
        fanout_share_burst,
    ),
    (
        "fanout_scale_n8",
        "A",
        "one coincident 16-query family burst on 8 contexts: sharing vs parallelism at scale",
        fanout_scale_n8,
    ),
    (
        "poisson_baseline",
        "B",
        "48 Poisson arrivals of the family mix at moderate load on 2 contexts",
        poisson_baseline,
    ),
    (
        "burst_onoff",
        "B",
        "8 bursts x 6 queries; back-to-back within a burst; long idle gaps between",
        burst_onoff,
    ),
    (
        "chaos_poisson",
        "B",
        "the Poisson baseline with ~25% injected faults: failures accounted; peers unaffected",
        chaos_poisson,
    ),
    (
        "saturation_ramp",
        "B",
        "64-query load ramp into a capacity-4 admission queue; time-capped at the last arrival",
        saturation_ramp,
    ),
];
