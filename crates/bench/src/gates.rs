//! The four committed documents, `BENCH_ops.json`,
//! `BENCH_service.json`, `BENCH_paper.json` and `BENCH_size.json`: every
//! number in them is simulator virtual time, tracked bytes, the
//! analytical model under fixed seeds or a count over the source, so
//! the same source renders the same bytes on any host and a document is
//! gated by reproduction, not by tolerance. A
//! [`Document`] is the tables of whole figures of [`crate::figures`];
//! `tests/gates.rs` renders each one and compares it byte for byte with
//! the committed file ([`crate::output::check_file`]), and a `figures`
//! run that covers every table of a document rewrites it. Wall-clock
//! questions (ns/row per operator, thread hand-offs) belong to
//! `benchmark/`.
//!
//! * [`OPS`] — figure `ops`, what only virtual time can pin at operator
//!   level: how far past its budget a spilling operator's tracked
//!   memory peaks and how many bytes it spills (panel `spill`), what
//!   morsel-parallel wiring buys on a `k`-context machine (`parallel`),
//!   and when subsumption sharing wins or loses (`subsume`, `policy`).
//! * [`SERVICE`] — figure `service`: the open-system service loop's
//!   counts, throughput and p50/p99/p999 response times.
//! * [`PAPER`] — the paper's model-only figures: Figure 4's sweeps and
//!   Section 4.4's profiled parameters.
//! * [`SIZE`] — figure `size`: each package's code lines, public items,
//!   opt-outs, `unsafe` blocks and tests.

use crate::experiments::ExpConfig;
use crate::figures::{self, Table};
use crate::output::Json;
use crate::{par_kernels, service_kernels, spill_kernels, subsume_kernels};
use cordoba_exec::PhysicalPlan;
use cordoba_storage::tpch::{generate, TpchConfig};
use cordoba_storage::Catalog;
use cordoba_workload::{CostProfile, FamilyConfig};

/// A committed document: every panel's table of its figures, in
/// [`crate::figures`]' order, under a `suite` and a `harness` line. Its
/// panels ignore the [`ExpConfig`], so `--quick` renders the same bytes.
pub struct Document {
    /// The file, relative to the repo root.
    pub file: &'static str,
    suite: &'static str,
    harness: &'static str,
    /// The figures whose tables it holds.
    pub figures: &'static [&'static str],
}

impl Document {
    /// Runs every panel of the document's figures.
    pub fn tables(&self) -> Vec<Table> {
        figures::tables_of(self.figures)
    }

    /// The document's text: `suite`, `harness` and the tables, each row
    /// on one line.
    pub fn render<'a>(&self, tables: impl IntoIterator<Item = &'a Table>) -> String {
        let tables = tables.into_iter().map(Table::json).collect();
        Json::Obj(vec![
            ("suite", self.suite.into()),
            ("harness", self.harness.into()),
            ("tables", Json::Arr(tables)),
        ])
        .render()
    }
}

/// `BENCH_ops.json`: the `ops` figure.
pub const OPS: Document = Document {
    file: "BENCH_ops.json",
    suite: "deterministic simulator-virtual-time gates: spill peak memory (budget = max(input/4, 8 pages); output equality and peak <= 1.25 x budget asserted in-harness), morsel-parallel wiring, subsumption sharing (policy: batch makespans under never/always/model-guided sharing; speedup = never/model)",
    harness: "crates/bench/src/gates.rs; the test `bench_ops_json_reproduces_byte_for_byte` (crates/bench/tests/gates.rs) reproduces this file byte for byte; `figures ops` rewrites it (wall clock is measured by benchmark/)",
    figures: &["ops"],
};

/// `BENCH_service.json`: the `service` figure.
pub const SERVICE: Document = Document {
    file: "BENCH_service.json",
    suite: "open-system service loop: tail-latency scenarios (Suite A fan-out/scale, Suite B Poisson/burst/chaos/saturation); offered == completed + failed + rejected + in_flight, asserted per run",
    harness: "crates/bench/src/gates.rs; deterministic simulator virtual time, fixed seeds, workers pinned to 1; the test `bench_service_json_reproduces_byte_for_byte` (crates/bench/tests/gates.rs) reproduces this file byte for byte; `figures service` rewrites it",
    figures: &["service"],
};

/// `BENCH_paper.json`: Figure 4 and Section 4.4.
pub const PAPER: Document = Document {
    file: "BENCH_paper.json",
    suite: "model-only paper figures: Figure 4's sensitivity sweeps (analytical model) and Section 4.4's profiled parameters (simulator virtual time)",
    harness: "crates/bench/src/figures.rs; the test `bench_paper_json_reproduces_byte_for_byte` (crates/bench/tests/gates.rs) reproduces this file byte for byte; `figures all` rewrites it",
    figures: &["fig4", "sec44"],
};

/// `BENCH_size.json`: the `size` figure.
pub const SIZE: Document = Document {
    file: "BENCH_size.json",
    suite: "code size and public surface per package: code lines, public items, #[expect] opt-outs and unsafe blocks before each file's first #[cfg(test)], and #[test] functions (crates/bench/src/size.rs)",
    harness: "crates/bench/src/size.rs; read from the source tree, so it moves with every change to the code; the test `bench_size_json_reproduces_byte_for_byte` (crates/bench/tests/gates.rs) reproduces this file byte for byte; `figures size` rewrites it",
    figures: &["size"],
};

/// Every committed document.
pub const DOCUMENTS: [Document; 4] = [OPS, SERVICE, PAPER, SIZE];

/// Scale factor of the spill and parallel scenarios' catalog.
const SCALE_FACTOR: f64 = 0.02;

/// Scale factor of the catalog the subsume, policy and service
/// scenarios share.
const FAMILY_SCALE_FACTOR: f64 = 0.002;

/// The catalog the subsume, policy and service scenarios share.
pub(crate) fn family_catalog() -> Catalog {
    generate(&TpchConfig {
        scale_factor: FAMILY_SCALE_FACTOR,
        seed: 11,
        ..TpchConfig::default()
    })
}

/// Morsel workers of the parallel panel.
const PAR_WORKERS: usize = 4;

/// Past-memory scenarios: the sort and the hash join under a quarter of
/// their input, with output equality and the peak bound asserted.
pub(crate) fn spill(_: &ExpConfig) -> Table {
    let title = "Operators: tracked peak memory and spilled bytes under max(input/4, 8 pages)";
    let header = "name,scale_factor,input_bytes,budget_bytes,peak_bytes,peak_over_budget,\
                  in_memory_peak_bytes,spill_bytes";
    let mut table = Table::new(title, "ops_spill.csv", header);
    let cat = spill_kernels::catalog(SCALE_FACTOR);
    for p in [
        spill_kernels::sort_spill(&cat),
        spill_kernels::join_spill(&cat),
        spill_kernels::sort_agg_spill(&cat),
        spill_kernels::join_agg_spill(&cat),
    ] {
        table.rows.push(format!(
            "{},{SCALE_FACTOR},{},{},{},{:.3},{},{}",
            p.name,
            p.input_bytes,
            p.budget_bytes,
            p.peak_bytes,
            p.peak_over_budget(),
            p.in_memory_peak_bytes,
            p.spill_bytes,
        ));
    }
    table
}

/// Serial wiring vs [`PAR_WORKERS`] morsel workers, virtual makespan.
pub(crate) fn parallel(_: &ExpConfig) -> Table {
    let title = "Operators: serial wiring vs morsel workers, virtual makespan";
    let header = "name,scale_factor,rows,workers,serial,parallel,speedup,note";
    let mut table = Table::new(title, "ops_parallel.csv", header);
    let cat = spill_kernels::catalog(SCALE_FACTOR);
    type Plan = fn() -> PhysicalPlan;
    let scenarios: [(&str, Plan, &str); 2] = [
        (
            "par_scan_filter",
            par_kernels::pipeline_plan,
            "morsel-parallel scan+filter+project vs serial wiring; virtual makespan",
        ),
        (
            "par_aggregate",
            par_kernels::aggregate_plan,
            "per-worker partial aggregates merged in worker order; virtual makespan",
        ),
    ];
    for (name, plan, note) in scenarios {
        let p = par_kernels::virtual_pair(&cat, name, &plan(), PAR_WORKERS);
        table.rows.push(format!(
            "{name},{SCALE_FACTOR},{},{PAR_WORKERS},{},{},{:.2},{note}",
            p.rows,
            p.serial,
            p.parallel,
            p.speedup()
        ));
    }
    table
}

/// Distinct-but-nested query families shared through a wide fragment
/// plus residual filters, and the fragment cache's replay path.
pub(crate) fn subsume(_: &ExpConfig) -> Table {
    let title = "Operators: subsumption sharing of nested query families";
    let header = "name,scale_factor,queries,contexts,unshared_vt,shared_vt,speedup,predicted_z,\
                  advisor_agrees,cache_hits,cache_misses,cache_evictions,subsume_joins,note";
    let mut table = Table::new(title, "ops_subsume.csv", header);
    let cat = family_catalog();
    let mut row = |name: &str, p: &subsume_kernels::SubsumePoint, note: &str| {
        let predicted = p.predicted.map_or(String::new(), |s| format!("{:.3}", s.z));
        let agrees = p.advisor_agrees().map_or(String::new(), |a| a.to_string());
        table.rows.push(format!(
            "{name},{FAMILY_SCALE_FACTOR},{},{},{:.0},{:.0},{:.3},{predicted},{agrees},{},{},{},{},\
             {note}",
            p.queries,
            p.contexts,
            p.unshared_vt,
            p.shared_vt,
            p.measured_z(),
            p.hits,
            p.misses,
            p.evictions,
            p.subsume_joins,
        ));
    };
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
        let p = subsume_kernels::group_scenario(&cat, name, &family, contexts);
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
        row(name, &p, note);
    }
    let p = subsume_kernels::cache_replay_scenario(&cat);
    assert!(
        p.measured_z() > 1.0,
        "cache replay must beat the cold run: z = {:.3}",
        p.measured_z()
    );
    let note = "cold wide fragment vs cached replay for late nested arrivals (response time ratio)";
    row("subsume_cache_replay_n1", &p, note);
    table
}

/// The fig6-style policy comparison over two cost profiles that span
/// the paper's win/loss regimes: under paper costs the fragment's
/// per-consumer delivery is cheap and sharing (almost) always wins;
/// under delivery-heavy costs always-share loses at high parallelism
/// and the advisor must decline or downsize the groups.
pub(crate) fn policy(_: &ExpConfig) -> Table {
    let title = "Operators: never / always / model-guided sharing, batch makespan";
    let header = "name,scale_factor,contexts,never_vt,always_vt,model_vt,always_z,speedup,\
                  model_groups";
    let mut table = Table::new(title, "ops_policy.csv", header);
    let cat = family_catalog();
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
    let mut points = Vec::new();
    for (prefix, costs) in &profiles {
        for contexts in [2usize, 8] {
            let p = subsume_kernels::policy_scenario(&cat, costs, &family, contexts);
            let groups: Vec<String> = p.model_groups.iter().map(usize::to_string).collect();
            table.rows.push(format!(
                "{prefix}_n{contexts},{FAMILY_SCALE_FACTOR},{},{:.0},{:.0},{:.0},{:.3},{:.3},{}",
                p.contexts,
                p.never,
                p.always,
                p.model,
                p.always_z(),
                p.model_z(),
                groups.join("+"),
            ));
            points.push(p);
        }
    }
    let wins = &points[0];
    assert!(
        wins.always_z() > 1.0 && wins.model_z() > 1.0,
        "paper costs at n=2 must be a sharing win: {wins:?}"
    );
    let loses = &points[3];
    assert!(
        loses.always_z() < 1.0,
        "delivery-heavy costs at n=8 must be a sharing loss: {loses:?}"
    );
    assert!(
        loses.model_z() >= 1.0,
        "the advisor must decline losing groups: {loses:?}"
    );
    table
}

/// The service loop's scenarios, one row each, with the accounting
/// invariant asserted per run.
pub(crate) fn service(_: &ExpConfig) -> Table {
    let title = "Service loop: tail latency under open-system arrivals";
    let header = "name,suite,scale_factor,contexts,capacity,offered,completed,failed,rejected,\
                  in_flight,makespan,throughput,utilization,mean_group,latency_count,latency_min,\
                  latency_mean,latency_p50,latency_p90,latency_p99,latency_p999,latency_max,note";
    let mut table = Table::new(title, "service_scenarios.csv", header);
    let cat = family_catalog();
    for (name, suite, note, run) in service_kernels::SCENARIOS {
        let (cfg, r) = run(&cat);
        let failed = r.failures.len();
        assert_eq!(
            r.offered,
            r.completed + failed + r.rejected + r.in_flight,
            "{name}: {r:?}"
        );
        let l = r
            .latency()
            .summary()
            .unwrap_or_else(|| panic!("{name}: every scenario must complete something"));
        table.rows.push(format!(
            "{name},{suite},{FAMILY_SCALE_FACTOR},{},{},{},{},{failed},{},{},{},{:.9},{:.4},{:.3},\
             {},{},{:.1},{},{},{},{},{},{note}",
            cfg.engine.contexts,
            cfg.admission_capacity,
            r.offered,
            r.completed,
            r.rejected,
            r.in_flight,
            r.makespan,
            r.throughput(),
            r.stats.utilization(),
            r.mean_group_size(),
            l.count,
            l.min,
            l.mean,
            l.p50,
            l.p90,
            l.p99,
            l.p999,
            l.max,
        ));
    }
    table
}
