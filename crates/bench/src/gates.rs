//! The three committed documents, `BENCH_ops.json`,
//! `BENCH_service.json` and `BENCH_paper.json`: every number in them is
//! simulator virtual time, tracked bytes or the analytical model under
//! fixed seeds, so the same source renders the same bytes on any host
//! and a document is gated by reproduction, not by tolerance.
//! `tests/gates.rs` renders each one and compares it byte for byte with
//! the committed file ([`crate::output::check_file`]); the `bench_ops`
//! and `bench_service` binaries rewrite a file, or print a `--filter`
//! subset, and `figures all` rewrites `BENCH_paper.json`. Wall-clock
//! questions (ns/row per operator, thread hand-offs) belong to
//! `benchmark/`.
//!
//! * [`ops`] — what only virtual time can pin at operator level: what
//!   morsel-parallel wiring buys on a `k`-context machine, when
//!   subsumption sharing wins or loses, and how far past its budget a
//!   spilling operator's tracked memory peaks.
//! * [`service`] — the open-system service loop's counts, throughput
//!   and p50/p99/p999 response times.
//! * [`paper`] — the paper's model-only figures: Figure 4's sweeps and
//!   Section 4.4's profiled parameters.

use crate::figures::{self, Table};
use crate::output::{GateArgs, Json};
use crate::par_kernels::{self, ParPair};
use crate::service_kernels::{self, ServicePoint};
use crate::spill_kernels;
use crate::subsume_kernels::{self, PolicyPoint, SubsumePoint};
use cordoba_exec::PhysicalPlan;
use cordoba_storage::tpch::{generate, TpchConfig};
use cordoba_storage::Catalog;
use cordoba_workload::{CostProfile, FamilyConfig};
use std::cell::LazyCell;

/// The file [`ops`] renders.
pub const OPS_FILE: &str = "BENCH_ops.json";

/// The file [`service`] renders.
pub const SERVICE_FILE: &str = "BENCH_service.json";

/// The file [`paper`] renders.
pub const PAPER_FILE: &str = "BENCH_paper.json";

/// Scale factor of the spill and parallel scenarios' catalog.
const SCALE_FACTOR: f64 = 0.02;

/// Scale factor of the catalog the subsume and service scenarios share.
const FAMILY_SCALE_FACTOR: f64 = 0.002;

/// The catalog the subsume and service scenarios share.
pub(crate) fn family_catalog() -> Catalog {
    generate(&TpchConfig {
        scale_factor: FAMILY_SCALE_FACTOR,
        seed: 11,
        ..TpchConfig::default()
    })
}

/// Morsel workers for the parallel section.
const PAR_WORKERS: usize = 4;

/// A catalog generated when the first selected scenario reads it.
type LazyCatalog = LazyCell<Catalog>;

/// Past-memory scenarios: the sort and the hash join under a quarter of
/// their input, with output equality and the peak bound asserted.
fn spill_section(args: &GateArgs, cat: &LazyCatalog) -> Vec<Json> {
    type Scenario = fn(&Catalog) -> spill_kernels::SpillPoint;
    let scenarios: [(&str, Scenario); 2] = [
        ("sort_spill", spill_kernels::sort_spill),
        ("join_spill", spill_kernels::join_spill),
    ];
    let mut records = Vec::new();
    for (name, run) in scenarios {
        if !args.wants(name) {
            continue;
        }
        let p = run(cat);
        println!(
            "{:<24} input {:>8} B  budget {:>8} B  peak {:>8} B ({:.3}x budget)  in-memory peak {:>8} B",
            p.name,
            p.input_bytes,
            p.budget_bytes,
            p.peak_bytes,
            p.peak_over_budget(),
            p.in_memory_peak_bytes,
        );
        records.push(p.json());
    }
    records
}

fn print_pair(p: &ParPair, unit: &str) {
    println!(
        "{:<24} {:>8} rows  serial {:>10.0} {unit}  {}-worker {:>10.0} {unit}  speedup {:.2}x",
        p.name,
        p.rows,
        p.serial,
        p.workers,
        p.parallel,
        p.speedup()
    );
}

/// Serial wiring vs [`PAR_WORKERS`] morsel workers, virtual makespan.
fn parallel_section(args: &GateArgs, cat: &LazyCatalog) -> Vec<Json> {
    type Plan = fn() -> PhysicalPlan;
    let scenarios: [(&str, Plan, &str); 2] = [
        (
            "par_scan_filter",
            par_kernels::pipeline_plan,
            "morsel-parallel scan+filter+project vs serial wiring, virtual makespan",
        ),
        (
            "par_aggregate",
            par_kernels::aggregate_plan,
            "per-worker partial aggregates merged in worker order, virtual makespan",
        ),
    ];
    let mut records = Vec::new();
    for (name, plan, note) in scenarios {
        if !args.wants(name) {
            continue;
        }
        let p = par_kernels::virtual_pair(cat, name, &plan(), PAR_WORKERS, note);
        print_pair(&p, "vt");
        records.push(p.json());
    }
    records
}

fn print_subsume(p: &SubsumePoint) {
    println!(
        "{:<24} {:>2} queries n={} unshared {:>9.0} vt  shared {:>9.0} vt  z {:.3}  \
         predicted {:.3}  cache {}h/{}m/{}e  subsume-joins {}",
        p.name,
        p.queries,
        p.contexts,
        p.unshared_vt,
        p.shared_vt,
        p.measured_z(),
        p.predicted_z(),
        p.hits,
        p.misses,
        p.evictions,
        p.subsume_joins,
    );
}

/// Distinct-but-nested query families shared through a wide fragment
/// plus residual filters, and the fragment cache's replay path.
fn subsume_scenarios(args: &GateArgs, cat: &LazyCatalog) -> Vec<Json> {
    let mut records = Vec::new();
    let groups = [
        (
            "subsume_group_m4_n1",
            FamilyConfig { seed: 11, families: 1, per_family: 4 },
            1,
            "4 nested Q6/Q1-family windows on 1 context: wide fragment + residuals vs private scans",
        ),
        (
            "subsume_group_m8_n4",
            FamilyConfig { seed: 13, families: 2, per_family: 4 },
            4,
            "two 4-member families on 4 contexts: sharing trades redundant work for lost parallelism",
        ),
    ];
    for (name, family, contexts, note) in groups {
        if !args.wants(name) {
            continue;
        }
        let p = subsume_kernels::group_scenario(cat, name, &family, contexts, note);
        if contexts == 1 {
            assert!(
                p.measured_z() > 1.0,
                "sharing nested fragments on one context must win: z = {:.3}",
                p.measured_z()
            );
            assert_eq!(
                p.advisor_agrees(),
                Some(true),
                "advisor must call the uniprocessor win: predicted {:.3}, measured {:.3}",
                p.predicted_z(),
                p.measured_z()
            );
        }
        print_subsume(&p);
        records.push(p.json());
    }
    if args.wants("subsume_cache_replay_n1") {
        let p = subsume_kernels::cache_replay_scenario(cat);
        assert!(
            p.measured_z() > 1.0,
            "cache replay must beat the cold run: z = {:.3}",
            p.measured_z()
        );
        print_subsume(&p);
        records.push(p.json());
    }
    records
}

/// The fig6-style policy comparison over two cost profiles that span
/// the paper's win/loss regimes: under paper costs the fragment's
/// per-consumer delivery is cheap and sharing (almost) always wins;
/// under delivery-heavy costs always-share loses at high parallelism
/// and the advisor must decline or downsize the groups.
fn subsume_policy(args: &GateArgs, cat: &LazyCatalog) -> Vec<Json> {
    if !args.wants("subsume_policy") {
        return Vec::new();
    }
    let family = FamilyConfig {
        seed: 17,
        families: 2,
        per_family: 4,
    };
    let profiles = [
        ("subsume_policy", CostProfile::paper()),
        (
            "subsume_policy_heavy",
            subsume_kernels::delivery_heavy_costs(),
        ),
    ];
    let mut points: Vec<(String, PolicyPoint)> = Vec::new();
    for (prefix, costs) in &profiles {
        for contexts in [2usize, 8] {
            let name = format!("{prefix}_n{contexts}");
            let p = subsume_kernels::policy_scenario(cat, costs, &family, contexts);
            println!(
                "{name:<24} n={}  makespan never {:>8.0}  always {:>8.0}  model {:>8.0}  \
                 z(always) {:.3}  z(model) {:.3}  groups {:?}",
                p.contexts,
                p.never,
                p.always,
                p.model,
                p.always_z(),
                p.model_z(),
                p.model_groups,
            );
            points.push((name, p));
        }
    }
    let wins = &points[0].1;
    assert!(
        wins.always_z() > 1.0 && wins.model_z() > 1.0,
        "paper costs at n=2 must be a sharing win: {wins:?}"
    );
    let loses = &points[3].1;
    assert!(
        loses.always_z() < 1.0,
        "delivery-heavy costs at n=8 must be a sharing loss: {loses:?}"
    );
    assert!(
        loses.model_z() >= 1.0,
        "the advisor must decline losing groups: {loses:?}"
    );
    points.iter().map(|(name, p)| p.json(name)).collect()
}

/// Runs the operator scenarios `args` selects, printing one line each,
/// and returns the `BENCH_ops.json` document with the number of lines
/// printed. A filter that `par_hash_join` contains also prints the one
/// wall-clock pair (serial vs thread-driver hash join), which never
/// enters the document.
pub fn ops(args: &GateArgs) -> (Json, usize) {
    let cat: LazyCatalog = LazyCell::new(|| spill_kernels::catalog(SCALE_FACTOR));
    let sub_cat: LazyCatalog = LazyCell::new(family_catalog);

    let spill = spill_section(args, &cat);
    let parallel = parallel_section(args, &cat);
    let scenarios = subsume_scenarios(args, &sub_cat);
    let policy = subsume_policy(args, &sub_cat);
    let mut records = spill.len() + parallel.len() + scenarios.len() + policy.len();
    // Print-only, and only when asked for by name: a wall-clock number
    // has no place in a file gated by reproduction.
    if args
        .filter
        .as_deref()
        .is_some_and(|f| "par_hash_join".contains(f))
    {
        print_pair(
            &par_kernels::join_wall_clock_pair(&cat, PAR_WORKERS, 3),
            "ns",
        );
        records += 1;
    }

    let doc = Json::Obj(vec![
        (
            "suite",
            "deterministic simulator-virtual-time gates: spill peak memory, morsel-parallel wiring, subsumption sharing".into(),
        ),
        (
            "harness",
            "crates/bench/src/gates.rs; the test `bench_ops_json_reproduces_byte_for_byte` (crates/bench/tests/gates.rs) reproduces this file byte for byte (wall clock is measured by benchmark/)".into(),
        ),
        (
            "spill",
            Json::Obj(vec![
                ("scale_factor", Json::fixed(SCALE_FACTOR, 2)),
                (
                    "scenario",
                    "budget = max(input/4, 8 pages); output equality and peak <= 1.25 x budget asserted in-harness".into(),
                ),
                ("runs", Json::Arr(spill)),
            ]),
        ),
        (
            "parallel",
            Json::Obj(vec![
                ("scale_factor", Json::fixed(SCALE_FACTOR, 2)),
                ("workers", PAR_WORKERS.into()),
                ("pairs", Json::Arr(parallel)),
            ]),
        ),
        (
            "subsume",
            Json::Obj(vec![
                ("scale_factor", Json::fixed(FAMILY_SCALE_FACTOR, 3)),
                ("scenarios", Json::Arr(scenarios)),
                (
                    "policy_note",
                    "batch makespans under never/always/model-guided sharing; speedup = never/model".into(),
                ),
                ("policy", Json::Arr(policy)),
            ]),
        ),
    ]);
    (doc, records)
}

/// Runs the service-loop scenarios `args` selects, printing one line
/// each, and returns the `BENCH_service.json` document with the number
/// of scenarios run.
pub fn service(args: &GateArgs) -> (Json, usize) {
    let cat = family_catalog();
    let points = service_kernels::run_all(&cat, |name| args.wants(name));
    for p in &points {
        println!(
            "{:<20} [{}] n={} cap={:<2} {:>3} offered: {:>3}c/{}f/{}r/{}i  p50 {:>9} p99 {:>9} p999 {:>9}  util {:.2}  group {:.2}",
            p.name,
            p.suite,
            p.contexts,
            p.capacity,
            p.offered,
            p.completed,
            p.failed,
            p.rejected,
            p.in_flight,
            p.latency.p50,
            p.latency.p99,
            p.latency.p999,
            p.utilization,
            p.mean_group,
        );
    }

    let doc = Json::Obj(vec![
        (
            "suite",
            "open-system service loop: tail-latency scenarios (Suite A fan-out/scale, Suite B Poisson/burst/chaos/saturation)".into(),
        ),
        (
            "harness",
            "crates/bench/src/gates.rs; deterministic simulator virtual time, fixed seeds, workers pinned to 1; the test `bench_service_json_reproduces_byte_for_byte` (crates/bench/tests/gates.rs) reproduces this file byte for byte".into(),
        ),
        ("scale_factor", Json::fixed(FAMILY_SCALE_FACTOR, 3)),
        (
            "invariant",
            "offered == completed + failed + rejected + in_flight, asserted per run".into(),
        ),
        (
            "scenarios",
            Json::Arr(points.iter().map(ServicePoint::json).collect()),
        ),
    ]);
    (doc, points.len())
}

/// Renders the `BENCH_paper.json` document: the model-only figures'
/// tables, each row on one line.
pub fn paper() -> Json {
    let tables = figures::model_tables();
    Json::Obj(vec![
        (
            "suite",
            "model-only paper figures: Figure 4's sensitivity sweeps (analytical model) and Section 4.4's profiled parameters (simulator virtual time)".into(),
        ),
        (
            "harness",
            "crates/bench/src/figures.rs; the test `bench_paper_json_reproduces_byte_for_byte` (crates/bench/tests/gates.rs) reproduces this file byte for byte; `figures all` rewrites it".into(),
        ),
        ("tables", Json::Arr(tables.iter().map(Table::json).collect())),
    ])
}
