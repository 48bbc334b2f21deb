//! Ablations for the engine's design choices (README.md, "Vectorized
//! execution pipeline" and "Subsumption-based sharing"):
//!
//! * page-size sweep — with a fixed per-page dispatch overhead, larger
//!   pages amortize it (the locality argument of the paper's §3.2
//!   page-based execution model);
//! * buffer-depth sweep — inter-operator queues from rendezvous-like
//!   depth 1 to deep buffering;
//! * engine-level fan-out cost sweep — the engine-side analog of the
//!   model's Figure 4 center panel;
//! * group-size sweep (paper §8.1) — partitioning m clients into
//!   bounded sharing groups, measured against the model's
//!   `optimal_partition` recommendation.

use cordoba_bench::experiments::{optimal_partition, query_work, sharing_speedup, ExpConfig};
use cordoba_bench::output::{announce, f, write_csv};
use cordoba_engine::profiling::profile_query;
use cordoba_engine::{measure_throughput, EngineConfig, Policy};
use cordoba_exec::OpCost;
use cordoba_storage::tpch::{generate, TpchConfig};
use cordoba_workload::{q6, CostProfile};

fn page_size_sweep(cfg: &ExpConfig) {
    println!("## ablation: page size under per-page overhead (Q6, 8 clients, 8 CPUs, never-share)");
    let mut rows = Vec::new();
    for page_size in [1024usize, 2048, 4096, 8192, 16384] {
        let catalog = generate(&TpchConfig {
            scale_factor: cfg.scale_factor,
            seed: cfg.seed,
            page_size,
            ..TpchConfig::default()
        });
        // A fixed 200-unit cost per page dispatched: the synchronization
        // the paper's paged execution amortizes.
        let costs = CostProfile {
            scan: OpCost::new(9.66, 10.34).with_per_page(200.0),
            ..cfg.costs
        };
        let spec = q6(&costs);
        let work = query_work(&catalog, &spec);
        let p = sharing_speedup(&catalog, &spec, 8, 8, work, cfg.measure_floor);
        println!(
            "  page {page_size:>6}: unshared tp {:.4}/Munit, Z = {:.3}",
            p.unshared * 1e6,
            p.z
        );
        rows.push(vec![page_size.to_string(), f(p.unshared), f(p.z)]);
    }
    announce(&write_csv(
        "ablation_page_size.csv",
        &["page_size", "x_unshared", "z"],
        &rows,
    ));
}

fn buffer_depth_sweep(cfg: &ExpConfig) {
    println!("## ablation: inter-operator buffer depth (Q6, 8 clients, 8 CPUs, shared)");
    let catalog = cfg.catalog();
    let spec = q6(&cfg.costs);
    let work = query_work(&catalog, &spec);
    let cap = work.saturating_mul(8).saturating_mul(16).max(10_000_000);
    let mut rows = Vec::new();
    for depth in [1usize, 2, 4, 16, 64] {
        let ecfg = EngineConfig {
            contexts: 8,
            policy: Policy::AlwaysShare,
            queue_capacity: depth,
            ..EngineConfig::default()
        };
        let tp = measure_throughput(
            &catalog,
            &vec![spec.clone(); 8],
            &ecfg,
            cfg.measure_floor.max(48),
            cap,
        );
        println!(
            "  depth {depth:>3}: shared tp = {:.4}/Munit",
            tp.per_time * 1e6
        );
        rows.push(vec![depth.to_string(), f(tp.per_time)]);
    }
    announce(&write_csv(
        "ablation_buffer_depth.csv",
        &["depth", "x_shared"],
        &rows,
    ));
}

fn fanout_cost_sweep(cfg: &ExpConfig) {
    println!("## ablation: scan fan-out cost s (Q6-shaped, 16 clients, 32 CPUs)");
    let catalog = cfg.catalog();
    let mut rows = Vec::new();
    for s in [0.0, 2.5, 5.0, 10.34, 20.0] {
        let costs = CostProfile {
            scan: OpCost::new(9.66, s),
            ..cfg.costs
        };
        let spec = q6(&costs);
        let work = query_work(&catalog, &spec);
        let p = sharing_speedup(&catalog, &spec, 16, 32, work, cfg.measure_floor);
        println!("  s = {s:>5.2}: Z = {:.3}", p.z);
        rows.push(vec![format!("{s}"), f(p.z)]);
    }
    announce(&write_csv("ablation_fanout_cost.csv", &["s", "z"], &rows));
}

fn group_size_sweep(cfg: &ExpConfig) {
    println!("## ablation: bounded sharing-group size (paper §8.1; Q6, 48 clients, 32 CPUs)");
    let catalog = cfg.catalog();
    let spec = q6(&cfg.costs);
    let work = query_work(&catalog, &spec);
    let clients = vec![spec.clone(); 48];
    let cap = work.saturating_mul(48).saturating_mul(16).max(10_000_000);
    let mut rows = Vec::new();
    let mut best: Option<(usize, f64)> = None;
    for max_group in [1usize, 2, 3, 4, 6, 8, 16, 48] {
        let ecfg = EngineConfig {
            contexts: 32,
            policy: Policy::AlwaysShare,
            max_group,
            ..EngineConfig::default()
        };
        let tp = measure_throughput(&catalog, &clients, &ecfg, 6 * 48, cap).per_time;
        println!("  max_group {max_group:>3}: tp = {:.4}/Munit", tp * 1e6);
        rows.push(vec![max_group.to_string(), f(tp)]);
        if best.is_none_or(|(_, b)| tp > b) {
            best = Some((max_group, tp));
        }
    }
    // Compare with the model's recommended partition.
    let (info, _) =
        profile_query(&catalog, &spec, &EngineConfig::default()).expect("profiling succeeds");
    let partition =
        optimal_partition(&info.plan, info.pivot, 48, 32.0).expect("partition computed");
    let (best_g, best_tp) = best.expect("at least one point");
    println!(
        "  engine-best group size: {best_g} ({:.4}/Munit); model recommends ~{} (predicted {:.4})",
        best_tp * 1e6,
        partition.group_size(),
        partition.rate
    );
    announce(&write_csv(
        "ablation_group_size.csv",
        &["max_group", "x_shared"],
        &rows,
    ));
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let cfg = if quick {
        ExpConfig::quick()
    } else {
        ExpConfig::default()
    };
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    match which.as_str() {
        "page" => page_size_sweep(&cfg),
        "buffer" => buffer_depth_sweep(&cfg),
        "fanout" => fanout_cost_sweep(&cfg),
        "groups" => group_size_sweep(&cfg),
        _ => {
            page_size_sweep(&cfg);
            buffer_depth_sweep(&cfg);
            fanout_cost_sweep(&cfg);
            group_size_sweep(&cfg);
        }
    }
}
