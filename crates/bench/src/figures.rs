//! The paper's figures. Each figure is a list of named panels, and a
//! panel is a function from an [`ExpConfig`] to one `Table`: the CSV
//! it writes under `results/`, the chart it prints and its summary
//! lines. `Table::render` is the one place a figure is printed or
//! written. The `figures` binary picks figures and panels ([`Args`]);
//! [`crate::gates::paper`] gates the model-only tables (Figure 4 and
//! Section 4.4) byte for byte as `BENCH_paper.json`.

use crate::engine_cfg;
use crate::experiments::{
    fit_sim_kappa, fit_thread_kappa, model_speedup, optimal_partition, policy_comparison,
    profile_all, query_work, sharing_speedup, speedup_sweep, ExpConfig,
};
use crate::output::{ascii_chart, write_csv, Json};
use cordoba_core::sharing::{SharingEvaluator, WorkerScaling};
use cordoba_core::{NodeId, PlanSpec};
use cordoba_engine::profiling::profile_query;
use cordoba_engine::{measure_throughput, EngineConfig, Policy, QuerySpec};
use cordoba_exec::OpCost;
use cordoba_storage::tpch::{generate, TpchConfig};
use cordoba_workload::synthetic::{eliminated_fraction, five_way_split, three_stage_with_s};
use cordoba_workload::{q1, q13, q4, q6, CostProfile};

/// A chart's label and its `(x, y)` points.
type Series = (String, Vec<(f64, f64)>);

/// What one panel produces.
pub(crate) struct Table {
    title: String,
    /// File name under `results/`.
    csv: &'static str,
    /// The CSV's header line.
    header: &'static str,
    /// The CSV's rows, one line each.
    rows: Vec<String>,
    /// The chart's y label and series, when the panel plots one.
    chart: Option<(&'static str, Vec<Series>)>,
    summary: Vec<String>,
}

impl Table {
    fn new(title: impl Into<String>, csv: &'static str, header: &'static str) -> Self {
        Table {
            title: title.into(),
            csv,
            header,
            rows: Vec::new(),
            chart: None,
            summary: Vec::new(),
        }
    }

    /// Prints the chart (or the title), the CSV and the summary, and
    /// writes the CSV.
    pub(crate) fn render(&self) {
        match &self.chart {
            Some((ylabel, series)) => println!("{}", ascii_chart(&self.title, ylabel, series)),
            None => println!("## {}", self.title),
        }
        println!("{}\n{}", self.header, self.rows.join("\n"));
        for line in &self.summary {
            println!("{line}");
        }
        let path = write_csv(self.csv, self.header, &self.rows);
        println!("wrote {}\n", path.display());
    }

    /// The table as a `BENCH_paper.json` record: its CSV name, header
    /// and rows, one row per line.
    pub(crate) fn json(&self) -> Json {
        let cell = |c: &str| match c.parse::<f64>() {
            Ok(v) if v.is_finite() => Json::Num(c.to_string()),
            _ => c.into(),
        };
        let line = |l: &str| Json::Arr(l.split(',').map(cell).collect());
        let rows = self.rows.iter().map(|r| line(r)).collect();
        let header = self.header.split(',').map(Json::from).collect();
        Json::Obj(vec![
            ("csv", self.csv.into()),
            ("header", Json::Arr(header)),
            ("rows", Json::Arr(rows)),
        ])
    }
}

/// A panel: its name on the command line and the function measuring it.
type Panel = (&'static str, fn(&ExpConfig) -> Table);

/// Every figure and its panels, in the order `all` runs them.
const FIGURES: [(&str, &[Panel]); 7] = [
    ("fig1", &[("q6", fig1)]),
    ("fig2", &[("scan", fig2_scan), ("join", fig2_join)]),
    (
        "fig4",
        &[
            ("cpus", fig4_cpus),
            ("serial", fig4_serial),
            ("fraction", fig4_fraction),
            ("workers", fig4_workers),
        ],
    ),
    (
        "fig5",
        &[
            ("scan", fig5_scan),
            ("join", fig5_join),
            ("workers", fig5_workers),
        ],
    ),
    ("fig6", &[("small", fig6_small), ("large", fig6_large)]),
    ("sec44", &[("params", sec44)]),
    (
        "ablations",
        &[
            ("page", page_size),
            ("buffer", buffer_depth),
            ("fanout", fanout_cost),
            ("groups", group_size),
        ],
    ),
];

/// The model-only tables `BENCH_paper.json` holds: Figure 4's four
/// sweeps and Section 4.4's parameters. Neither reads the scale of an
/// [`ExpConfig`].
pub(crate) fn model_tables() -> Vec<Table> {
    let model_only = FIGURES
        .iter()
        .filter(|(f, _)| matches!(*f, "fig4" | "sec44"));
    let panels = model_only.flat_map(|(_, panels)| panels.iter());
    panels
        .map(|(_, panel)| panel(&ExpConfig::default()))
        .collect()
}

/// The `figures` command line:
/// `<fig1|fig2|fig4|fig5|fig6|sec44|ablations|all> [panel] [--quick]`.
#[derive(Debug, PartialEq)]
pub struct Args {
    /// The figure to run; `None` runs them all.
    pub figure: Option<&'static str>,
    /// One panel of that figure; `None` runs every panel.
    pub panel: Option<&'static str>,
    /// `--quick`: [`ExpConfig::quick`]'s scale.
    pub quick: bool,
}

impl Args {
    /// Parses the arguments after the program name; the error names
    /// what was refused.
    pub(crate) fn parse(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let (flags, words): (Vec<String>, Vec<String>) = args.partition(|a| a.starts_with('-'));
        if let Some(flag) = flags.iter().find(|f| *f != "--quick") {
            return Err(format!("unknown flag '{flag}'"));
        }
        let (figure, panel) = match words.as_slice() {
            [all] if all == "all" => (None, None),
            [figure, panel @ ..] if panel.len() < 2 && figure != "all" => {
                let (figure, panels) = FIGURES
                    .iter()
                    .find(|(name, _)| name == figure)
                    .ok_or(format!("unknown figure '{figure}'"))?;
                let panel = panel.first().map(|p| {
                    let found = panels.iter().find(|(name, _)| name == p);
                    found
                        .map(|(name, _)| *name)
                        .ok_or(format!("unknown panel '{p}' of {figure}"))
                });
                (Some(*figure), panel.transpose()?)
            }
            _ => return Err("name one figure and at most one panel".to_string()),
        };
        let quick = !flags.is_empty();
        Ok(Args {
            figure,
            panel,
            quick,
        })
    }

    /// `Args::parse` over the process arguments; prints the usage line
    /// and exits 2 on misuse.
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
            let figures: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
            let figures = figures.join("|");
            eprintln!("figures: {e} (usage: figures <{figures}|all> [panel] [--quick])");
            std::process::exit(2)
        })
    }

    /// Runs and renders every selected panel.
    pub fn run(&self) {
        let cfg = if self.quick {
            ExpConfig::quick()
        } else {
            ExpConfig::default()
        };
        for (figure, panels) in FIGURES {
            for (panel, run) in panels {
                if self.figure.is_none_or(|f| f == figure) && self.panel.is_none_or(|p| p == *panel)
                {
                    run(&cfg).render();
                }
            }
        }
    }
}

/// Client counts of Figures 1 and 2.
const CLIENTS: [usize; 8] = [1, 2, 4, 8, 16, 24, 32, 48];

/// Processor counts of Figures 1, 2 and 5.
const CONTEXTS: [usize; 4] = [1, 2, 8, 32];

/// Measured sharing speedup over [`CLIENTS`] × [`CONTEXTS`] for each
/// query: one panel of Figure 2.
fn speedups(cfg: &ExpConfig, title: &str, csv: &'static str, specs: &[QuerySpec]) -> Table {
    let title = format!("{title} (SF = {})", cfg.scale_factor);
    let header = "query,contexts,clients,x_shared,x_unshared,z";
    let mut table = Table::new(title, csv, header);
    let mut series = Vec::new();
    let catalog = cfg.catalog();
    for spec in specs {
        let name = &spec.name;
        let points = speedup_sweep(&catalog, spec, &CLIENTS, &CONTEXTS, cfg.measure_floor);
        for n in CONTEXTS {
            let curve = points.iter().filter(|p| p.contexts == n);
            let curve = curve.map(|p| (p.clients as f64, p.z)).collect();
            series.push((format!("{n} cpu {name}"), curve));
        }
        for p in &points {
            let (m, n, shared, unshared) = (p.clients, p.contexts, p.shared, p.unshared);
            let row = format!("{name},{n},{m},{shared:.6},{unshared:.6},{:.6}", p.z);
            table.rows.push(row);
        }
    }
    table.chart = Some(("Z", series));
    table
}

/// Figure 1: Figure 2's panel over Q6 alone. The paper's headline:
/// sharing helps only on the uniprocessor.
fn fig1(cfg: &ExpConfig) -> Table {
    let title = "Figure 1: speedup Z(m, n) of sharing Q6's scan vs never-share";
    let mut table = speedups(cfg, title, "fig1_q6_sharing.csv", &[q6(&cfg.costs)]);
    // One query: the CSV has no query column.
    table.header = table.header.split_once(',').expect("a query column").1;
    for row in &mut table.rows {
        *row = row.split_once(',').expect("a query column").1.to_string();
    }
    table
}

fn fig2_scan(cfg: &ExpConfig) -> Table {
    let specs = [q1(&cfg.costs), q6(&cfg.costs)];
    let title = "Figure 2 left: measured speedup, scan-heavy (Q1, Q6)";
    speedups(cfg, title, "fig2_scan_heavy.csv", &specs)
}

fn fig2_join(cfg: &ExpConfig) -> Table {
    let specs = [q4(&cfg.costs), q13(&cfg.costs)];
    let title = "Figure 2 right: measured speedup, join-heavy (Q4, Q13)";
    speedups(cfg, title, "fig2_join_heavy.csv", &specs)
}

/// One Figure 4 curve: its leading CSV cells, its chart label, the
/// synthetic plan and its pivot, the processors, and the morsel
/// workers (ideal scaling).
type Curve = (String, String, (PlanSpec, NodeId), f64, u32);

/// Figure 4's one sweep (Section 6's sensitivity analysis): the
/// model's `Z` of each curve at every client count.
fn z_sweep(
    title: &str,
    csv: &'static str,
    header: &'static str,
    curves: impl IntoIterator<Item = Curve>,
) -> Table {
    let mut table = Table::new(format!("Figure 4 {title}"), csv, header);
    let mut series = Vec::new();
    for (cells, label, (plan, pivot), n, k) in curves {
        let mut points = Vec::new();
        for m in [1usize, 2, 4, 8, 12, 16, 20, 30, 40] {
            let z = SharingEvaluator::homogeneous(&plan, pivot, m)
                .expect("synthetic plan valid")
                .with_workers(WorkerScaling::ideal(k).expect("k >= 1"))
                .speedup(n);
            table.rows.push(format!("{cells},{m},{z:.6}"));
            points.push((m as f64, z));
        }
        series.push((label, points));
    }
    table.chart = Some(("Z", series));
    table
}

/// The synthetic 3-stage query: bottom p = 10, pivot w = 6 with
/// per-consumer cost `s`, top p = 10.
fn fig4_cpus(_: &ExpConfig) -> Table {
    let curves = [1, 4, 8, 12, 16, 24, 32].map(|n: usize| {
        let (cells, label) = (n.to_string(), format!("{n} CPU"));
        (cells, label, three_stage_with_s(1.0), n as f64, 1)
    });
    let (csv, header) = ("fig4_left_cpus.csv", "contexts,clients,z");
    z_sweep("left: Z vs clients as processors vary", csv, header, curves)
}

fn fig4_serial(_: &ExpConfig) -> Table {
    let curves = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0].map(|s: f64| {
        let (cells, label) = (format!("{s}"), format!("s={s}"));
        (cells, label, three_stage_with_s(s), 32.0, 1)
    });
    let title = "center: Z vs clients as serial cost s varies (32 CPU)";
    z_sweep(title, "fig4_center_serial.csv", "s,clients,z", curves)
}

/// Moves the five split stages below the pivot one at a time (28%…98%
/// of the work eliminated by sharing).
fn fig4_fraction(_: &ExpConfig) -> Table {
    let curves = (0..=5).map(|moved| {
        let pct = format!("{:.0}%", eliminated_fraction(moved) * 100.0);
        let (cells, label) = (format!("{moved},{pct}"), format!("{moved}/5 ({pct})"));
        (cells, label, five_way_split(moved), 8.0, 1)
    });
    let title = "right: Z vs clients as work below pivot varies (8 CPU)";
    let (csv, header) = (
        "fig4_right_fraction.csv",
        "moved_below,eliminated,clients,z",
    );
    z_sweep(title, csv, header, curves)
}

/// Intra-query morsel workers with ideal scaling (κ = 1): the unshared
/// side's pivot scales with k (it serves one consumer), the shared
/// pivot keeps its serial Σ s_mφ, so with processors to spare every
/// added worker erodes Z — the aggressive-scheduling counterargument,
/// priced by the same model.
fn fig4_workers(_: &ExpConfig) -> Table {
    let curves = [1, 2, 4, 8, 16].map(|k: u32| {
        let (cells, label) = (k.to_string(), format!("k={k}"));
        (cells, label, three_stage_with_s(1.0), 32.0, k)
    });
    let title = "workers: Z vs clients as morsel workers vary (32 CPU, ideal scaling)";
    z_sweep(title, "fig4_workers.csv", "workers,clients,z", curves)
}

/// Figure 5's accumulator: the model's relative error and its
/// share-or-not agreement with the measurement, over a panel's points.
#[derive(Default)]
struct Validation {
    errors: Vec<f64>,
    agreed: usize,
}

impl Validation {
    /// Records one point; returns its relative error.
    fn add(&mut self, measured: f64, predicted: f64) -> f64 {
        let err = (predicted - measured).abs() / measured.max(1e-9);
        self.errors.push(err);
        // Binary agreement with a small dead-band around Z = 1 where
        // "share or not" is immaterial (both within noise of parity).
        let deadband = 0.05;
        let material = (measured - 1.0).abs() > deadband || (predicted - 1.0).abs() > deadband;
        if !material || (predicted > 1.0) == (measured > 1.0) {
            self.agreed += 1;
        }
        err
    }

    fn summary(&self, label: &str) -> String {
        let (count, agreed) = (self.errors.len(), self.agreed);
        let mean = self.errors.iter().sum::<f64>() / count as f64 * 100.0;
        let max = self.errors.iter().copied().fold(0.0, f64::max) * 100.0;
        format!("{label}: mean err {mean:.1}%, max {max:.1}%, decisions {agreed}/{count} correct")
    }
}

/// Model validation: predicted vs measured `Z` for each query at
/// [`CONTEXTS`] (the paper: mean error 5.7% / 5.9%, max 22% / 30%, and
/// "the model's recommendations are nearly always correct").
fn validation(cfg: &ExpConfig, label: &str, csv: &'static str, specs: &[QuerySpec]) -> Table {
    let title = format!("Figure 5: model validation, {label}");
    let header = "query,contexts,clients,z_measured,z_model,rel_error";
    let mut table = Table::new(title, csv, header);
    let mut check = Validation::default();
    let catalog = cfg.catalog();
    let models = profile_all(&catalog, specs);
    for spec in specs {
        let name = &spec.name;
        let clients = [2usize, 4, 8, 16, 24, 32, 48];
        for p in speedup_sweep(&catalog, spec, &clients, &CONTEXTS, cfg.measure_floor) {
            let (m, n, z) = (p.clients, p.contexts, p.z);
            let predicted = model_speedup(&models[name], m, n, WorkerScaling::serial());
            let err = check.add(z, predicted);
            table
                .rows
                .push(format!("{name},{n},{m},{z:.6},{predicted:.6},{err:.6}"));
        }
    }
    table.summary.push(check.summary(label));
    table
}

fn fig5_scan(cfg: &ExpConfig) -> Table {
    let specs = [q1(&cfg.costs), q6(&cfg.costs)];
    let label = "scan-heavy (paper: mean 5.7%, max 22%)";
    validation(cfg, label, "fig5_scan_heavy.csv", &specs)
}

fn fig5_join(cfg: &ExpConfig) -> Table {
    let specs = [q4(&cfg.costs), q13(&cfg.costs)];
    let label = "join-heavy (paper: mean 5.9%, max 30%)";
    validation(cfg, label, "fig5_join_heavy.csv", &specs)
}

/// Validation over the (m clients × k morsel workers) grid of Q6 on 8
/// CPUs: κ is fitted from the simulated engine's solo-query throughput
/// at each worker count (the Section 4.1.4 aggregate-bandwidth form,
/// applied within a query), so the model describes the substrate the
/// measurements come from; the host's real-thread κ is reported for
/// contrast.
fn fig5_workers(cfg: &ExpConfig) -> Table {
    let title = "Figure 5: model validation, worker grid (q6, n = 8)";
    let header = "query,workers,clients,kappa_sim,z_measured,z_model,rel_error";
    let mut table = Table::new(title, "fig5_worker_grid.csv", header);
    let mut check = Validation::default();
    let catalog = cfg.catalog();
    let spec = q6(&cfg.costs);
    let name = &spec.name;
    let workers = [1usize, 2, 4];
    let kappa = fit_sim_kappa(&catalog, &spec, &workers);
    let thread_kappa = fit_thread_kappa(&catalog, &spec, &[1, 2, 4]);
    let info = &profile_all(&catalog, std::slice::from_ref(&spec))[name];
    let work = query_work(&catalog, &spec);
    for k in workers {
        let scaling = WorkerScaling::new(k as u32, kappa).expect("fitted κ in (0,1]");
        for m in [2usize, 4, 8, 16] {
            let z = sharing_speedup(&catalog, &spec, m, 8, k, work, cfg.measure_floor).z;
            let predicted = model_speedup(info, m, 8, scaling);
            let err = check.add(z, predicted);
            let row = format!("{name},{k},{m},{kappa:.6},{z:.6},{predicted:.6},{err:.6}");
            table.rows.push(row);
        }
    }
    table.summary.push(format!(
        "sim κ = {kappa:.3}, host thread κ = {thread_kappa:.3}"
    ));
    table.summary.push(check.summary("worker grid"));
    table
}

/// Figure 6: never-share, always-share and model-guided throughput on
/// a Q1/Q4 mix as the Q4 fraction varies.
fn policies(cfg: &ExpConfig, clients: usize, contexts: usize, csv: &'static str) -> Table {
    let title = format!("Figure 6 ({clients} clients, {contexts} CPUs): throughput by policy");
    let mut table = Table::new(title, csv, "q4_fraction,never,always,model");
    let catalog = cfg.catalog();
    let models = profile_all(&catalog, &[q1(&cfg.costs), q4(&cfg.costs)]);
    let points = [0.0, 0.25, 0.5, 0.75, 1.0].map(|frac| {
        let floor = cfg.measure_floor;
        policy_comparison(
            &catalog, &cfg.costs, &models, clients, contexts, frac, floor,
        )
    });
    for p in &points {
        let row = format!(
            "{},{:.6},{:.6},{:.6}",
            p.q4_fraction, p.never, p.always, p.model
        );
        table.rows.push(row);
    }
    let curve = |x: fn(&_) -> f64| {
        let points = points.iter().map(|p| (p.q4_fraction * 100.0, x(p) * 1e6));
        points.collect()
    };
    table.chart = Some((
        "q/Munit",
        vec![
            ("never".to_string(), curve(|p| p.never)),
            ("always".to_string(), curve(|p| p.always)),
            ("model".to_string(), curve(|p| p.model)),
        ],
    ));
    let mean = |ratio: fn(&_) -> f64| points.iter().map(ratio).sum::<f64>() / points.len() as f64;
    let vs_never = mean(|p| p.model / p.never.max(1e-12));
    let vs_always = mean(|p| p.model / p.always.max(1e-12));
    table.summary.push(format!(
        "{contexts} CPUs: model/never = {vs_never:.2}x, model/always = {vs_always:.2}x"
    ));
    table
}

/// Sharing is broadly beneficial: always ≈ model > never.
fn fig6_small(cfg: &ExpConfig) -> Table {
    policies(cfg, 20, 2, "fig6_2cpu.csv")
}

/// Indiscriminate sharing collapses: model > never > always (the paper:
/// model beats never-share by ~1.2x and always-share by ~2.5x). 24
/// clients rather than the paper's 20: the simulated CMP has no cache
/// or bandwidth contention, so it needs slightly more load to saturate
/// the way the paper's T1 did at 20.
fn fig6_large(cfg: &ExpConfig) -> Table {
    policies(cfg, 24, 32, "fig6_32cpu.csv")
}

/// Section 4.4 / Section 3.1: the fitted pivot `(w, s)` and per-operator
/// `p` of the four queries — the analog of the paper's Q6 example
/// (w = 9.66, s = 10.34, p_agg = 0.97) — with the derived group
/// equations at m = 16. Always at [`ExpConfig::default`]'s scale.
fn sec44(_: &ExpConfig) -> Table {
    let cfg = ExpConfig::default();
    let title = format!(
        "Section 4.4: profiled parameters (SF = {})",
        cfg.scale_factor
    );
    let mut table = Table::new(title, "sec44_params.csv", "query,operator,p");
    let catalog = cfg.catalog();
    for spec in cordoba_workload::queries::all(&cfg.costs) {
        let (info, report) = profile_query(&catalog, &spec, &engine_cfg(1, Policy::NeverShare))
            .unwrap_or_else(|e| panic!("profiling {} failed: {e}", spec.name));
        let name = &spec.name;
        let (w, s, rss) = (report.pivot_w, report.pivot_s, report.fit_rss);
        for (label, p) in &report.operators {
            table.rows.push(format!("{name},{label},{p:.6}"));
        }
        table.rows.push(format!("{name},pivot_w,{w:.6}"));
        table.rows.push(format!("{name},pivot_s,{s:.6}"));
        let ev = SharingEvaluator::homogeneous(&info.plan, info.pivot, 16).expect("profiled plan");
        table.summary.push(format!(
            "{name}: pivot w = {w:.3}, s = {s:.3} (fit rss {rss:.2e}); m=16: p_phi = {:.2}, \
             u'_shared = {:.2}, Z(1 cpu) = {:.2}, Z(32 cpu) = {:.2}",
            ev.pivot_p(),
            ev.shared_total_work(),
            ev.speedup(1.0),
            ev.speedup(32.0)
        ));
    }
    table
}

/// With a fixed per-page dispatch overhead, larger pages amortize it
/// (the locality argument of the paper's §3.2 page-based execution).
fn page_size(cfg: &ExpConfig) -> Table {
    let title = "Ablation: page size under per-page overhead (Q6, 8 clients, 8 CPUs)";
    let header = "page_size,x_unshared,z";
    let mut table = Table::new(title, "ablation_page_size.csv", header);
    for page_size in [1024usize, 2048, 4096, 8192, 16384] {
        let catalog = generate(&TpchConfig {
            scale_factor: cfg.scale_factor,
            seed: cfg.seed,
            page_size,
            ..TpchConfig::default()
        });
        // A fixed 200-unit cost per page dispatched: the
        // synchronization the paper's paged execution amortizes.
        let costs = CostProfile {
            scan: OpCost::new(9.66, 10.34).with_per_page(200.0),
            ..cfg.costs
        };
        let spec = q6(&costs);
        let work = query_work(&catalog, &spec);
        let p = sharing_speedup(&catalog, &spec, 8, 8, 1, work, cfg.measure_floor);
        table
            .rows
            .push(format!("{page_size},{:.6},{:.6}", p.unshared, p.z));
    }
    table
}

/// Inter-operator queues from rendezvous-like depth 1 to deep buffering.
fn buffer_depth(cfg: &ExpConfig) -> Table {
    let title = "Ablation: inter-operator buffer depth (Q6, 8 clients, 8 CPUs, shared)";
    let mut table = Table::new(
        title.to_string(),
        "ablation_buffer_depth.csv",
        "depth,x_shared",
    );
    let catalog = cfg.catalog();
    let specs = vec![q6(&cfg.costs); 8];
    let cap = (query_work(&catalog, &specs[0]) * 8 * 16).max(10_000_000);
    for depth in [1usize, 2, 4, 16, 64] {
        let ecfg = EngineConfig {
            queue_capacity: depth,
            ..engine_cfg(8, Policy::AlwaysShare)
        };
        let floor = cfg.measure_floor.max(48);
        let tp = measure_throughput(&catalog, &specs, &ecfg, floor, cap).per_time;
        table.rows.push(format!("{depth},{tp:.6}"));
    }
    table
}

/// The engine-side analog of Figure 4's center panel.
fn fanout_cost(cfg: &ExpConfig) -> Table {
    let title = "Ablation: scan fan-out cost s (Q6-shaped, 16 clients, 32 CPUs)";
    let mut table = Table::new(title, "ablation_fanout_cost.csv", "s,z");
    let catalog = cfg.catalog();
    for s in [0.0, 2.5, 5.0, 10.34, 20.0] {
        let costs = CostProfile {
            scan: OpCost::new(9.66, s),
            ..cfg.costs
        };
        let spec = q6(&costs);
        let work = query_work(&catalog, &spec);
        let z = sharing_speedup(&catalog, &spec, 16, 32, 1, work, cfg.measure_floor).z;
        table.rows.push(format!("{s},{z:.6}"));
    }
    table
}

/// Partitioning 48 clients into bounded sharing groups (paper §8.1),
/// against the model's [`optimal_partition`] recommendation.
fn group_size(cfg: &ExpConfig) -> Table {
    let title = "Ablation: bounded sharing-group size (paper §8.1; Q6, 48 clients, 32 CPUs)";
    let mut table = Table::new(
        title.to_string(),
        "ablation_group_size.csv",
        "max_group,x_shared",
    );
    let catalog = cfg.catalog();
    let spec = q6(&cfg.costs);
    let clients = vec![spec.clone(); 48];
    let cap = (query_work(&catalog, &spec) * 48 * 16).max(10_000_000);
    let mut best: Option<(usize, f64)> = None;
    for max_group in [1usize, 2, 3, 4, 6, 8, 16, 48] {
        let ecfg = EngineConfig {
            max_group,
            ..engine_cfg(32, Policy::AlwaysShare)
        };
        let tp = measure_throughput(&catalog, &clients, &ecfg, 6 * 48, cap).per_time;
        table.rows.push(format!("{max_group},{tp:.6}"));
        if best.is_none_or(|(_, b)| tp > b) {
            best = Some((max_group, tp));
        }
    }
    let info = &profile_all(&catalog, std::slice::from_ref(&spec))[&spec.name];
    let partition = optimal_partition(&info.plan, info.pivot, 48, 32.0).expect("a partition");
    let (best_g, best_tp) = best.expect("at least one point");
    table.summary.push(format!(
        "engine-best group size: {best_g} ({:.4}/Munit); model recommends ~{} (predicted {:.4})",
        best_tp * 1e6,
        partition.group_size(),
        partition.rate
    ));
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figures_args_name_a_figure_a_panel_and_quick() {
        let parse = |args: &[&str]| Args::parse(args.iter().map(|a| a.to_string()));
        let args = |figure, panel, quick| {
            Ok(Args {
                figure,
                panel,
                quick,
            })
        };
        assert_eq!(parse(&["all", "--quick"]), args(None, None, true));
        assert_eq!(
            parse(&["fig5", "workers"]),
            args(Some("fig5"), Some("workers"), false)
        );
        let groups = parse(&["--quick", "ablations", "groups"]);
        assert_eq!(groups, args(Some("ablations"), Some("groups"), true));
        for (bad, refused) in [
            (&["fig9"][..], "unknown figure 'fig9'"),
            (&["fig5", "jion"], "unknown panel 'jion' of fig5"),
            (&["fig1", "--quik"], "unknown flag '--quik'"),
        ] {
            assert_eq!(parse(bad), Err(refused.to_string()));
        }
        for bad in [
            &[][..],
            &["all", "scan"],
            &["fig2", "scan", "join"],
            &["--quick"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }
}
