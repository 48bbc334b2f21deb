//! Figure 5: model validation — predicted vs measured sharing speedups
//! for the scan-heavy (Q1, Q6) and join-heavy (Q4, Q13) queries at
//! 1/2/8/32 CPUs. Reports per-point error, the mean/max relative error
//! (the paper: avg 5.7%/5.9%, max 22%/30%), and the binary-decision
//! agreement rate ("the model's recommendations are nearly always
//! correct").
//!
//! The `workers` panel extends validation to the (m clients × k morsel
//! workers) grid: the intra-query scaling exponent κ is re-fitted from
//! solo-query throughput at each worker count (the Section 4.1.4
//! aggregate-bandwidth form, applied within a query), then
//! `Z(m, n, k)` from the evaluator `with_workers` is compared against the
//! engine measured at the same worker counts. The host's real-thread κ
//! is reported alongside for contrast.

use cordoba_bench::experiments::{
    fit_sim_kappa, fit_thread_kappa, model_speedup, profile_all, sharing_speedup_with_workers,
    speedup_sweep, ExpConfig,
};
use cordoba_bench::output::{announce, f, write_csv};
use cordoba_core::sharing::WorkerScaling;
use cordoba_engine::QuerySpec;
use cordoba_workload::{q1, q13, q4, q6};

struct PanelSummary {
    mean_err: f64,
    max_err: f64,
    decisions: usize,
    agreed: usize,
}

fn panel(cfg: &ExpConfig, specs: &[QuerySpec], csv: &str) -> PanelSummary {
    let catalog = cfg.catalog();
    let clients = [2usize, 4, 8, 16, 24, 32, 48];
    let contexts = [1usize, 2, 8, 32];
    let models = profile_all(&catalog, specs);
    let mut rows = Vec::new();
    let mut errs: Vec<f64> = Vec::new();
    let mut decisions = 0usize;
    let mut agreed = 0usize;
    for spec in specs {
        let measured = speedup_sweep(&catalog, spec, &clients, &contexts, cfg.measure_floor);
        let info = &models[&spec.name];
        for p in &measured {
            let predicted = model_speedup(info, p.clients, p.contexts, WorkerScaling::serial());
            let err = (predicted - p.z).abs() / p.z.max(1e-9);
            errs.push(err);
            decisions += 1;
            // Binary agreement with a small dead-band around Z = 1 where
            // "share or not" is immaterial (both within noise of parity).
            let deadband = 0.05;
            let material = (p.z - 1.0).abs() > deadband || (predicted - 1.0).abs() > deadband;
            if !material || ((predicted > 1.0) == (p.z > 1.0)) {
                agreed += 1;
            }
            println!(
                "{:>4} {:>4} {:>8} {:>10.3} {:>10.3} {:>8.1}%",
                spec.name,
                p.contexts,
                p.clients,
                p.z,
                predicted,
                err * 100.0
            );
            rows.push(vec![
                spec.name.clone(),
                p.contexts.to_string(),
                p.clients.to_string(),
                f(p.z),
                f(predicted),
                f(err),
            ]);
        }
    }
    announce(&write_csv(
        csv,
        &[
            "query",
            "contexts",
            "clients",
            "z_measured",
            "z_model",
            "rel_error",
        ],
        &rows,
    ));
    PanelSummary {
        mean_err: errs.iter().sum::<f64>() / errs.len() as f64,
        max_err: errs.iter().copied().fold(0.0, f64::max),
        decisions,
        agreed,
    }
}

/// The (m × k) grid: measured vs modeled Z at `contexts` CPUs as both
/// the client count and the per-query morsel worker count vary.
fn worker_panel(cfg: &ExpConfig, spec: &QuerySpec) -> PanelSummary {
    let catalog = cfg.catalog();
    let clients = [2usize, 4, 8, 16];
    let workers = [1usize, 2, 4];
    let contexts = 8usize;
    // κ of the simulated engine (used for the model series — it must
    // describe the same substrate the measurements come from) ...
    let kappa = fit_sim_kappa(&catalog, spec, &workers);
    // ... and κ of the real-thread executor on this host, for contrast.
    let thread_kappa = fit_thread_kappa(&catalog, spec, &[1, 2, 4]);
    println!(
        "worker grid ({}, n={contexts}): sim κ = {kappa:.3}, host thread κ = {thread_kappa:.3}",
        spec.name
    );
    let models = profile_all(&catalog, std::slice::from_ref(spec));
    let info = &models[&spec.name];
    let work = cordoba_bench::experiments::query_work(&catalog, spec);
    let mut rows = Vec::new();
    let mut errs: Vec<f64> = Vec::new();
    let mut decisions = 0usize;
    let mut agreed = 0usize;
    for &k in &workers {
        let scaling = WorkerScaling::new(k as u32, kappa).expect("fitted κ in (0,1]");
        for &m in &clients {
            let p = sharing_speedup_with_workers(
                &catalog,
                spec,
                m,
                contexts,
                k,
                work,
                cfg.measure_floor,
            );
            let predicted = model_speedup(info, m, contexts, scaling);
            let err = (predicted - p.z).abs() / p.z.max(1e-9);
            errs.push(err);
            decisions += 1;
            let deadband = 0.05;
            let material = (p.z - 1.0).abs() > deadband || (predicted - 1.0).abs() > deadband;
            if !material || ((predicted > 1.0) == (p.z > 1.0)) {
                agreed += 1;
            }
            println!(
                "{:>4} k={:<2} {:>8} {:>10.3} {:>10.3} {:>8.1}%",
                spec.name,
                k,
                m,
                p.z,
                predicted,
                err * 100.0
            );
            rows.push(vec![
                spec.name.clone(),
                k.to_string(),
                m.to_string(),
                f(kappa),
                f(p.z),
                f(predicted),
                f(err),
            ]);
        }
    }
    announce(&write_csv(
        "fig5_worker_grid.csv",
        &[
            "query",
            "workers",
            "clients",
            "kappa_sim",
            "z_measured",
            "z_model",
            "rel_error",
        ],
        &rows,
    ));
    PanelSummary {
        mean_err: errs.iter().sum::<f64>() / errs.len() as f64,
        max_err: errs.iter().copied().fold(0.0, f64::max),
        decisions,
        agreed,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let cfg = if quick {
        ExpConfig::quick()
    } else {
        ExpConfig::default()
    };
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    println!("Figure 5: model validation (predicted vs measured Z)");
    println!(
        "{:>4} {:>4} {:>8} {:>10} {:>10} {:>9}",
        "q", "cpu", "clients", "measured", "model", "error"
    );
    if which == "scan" || which == "all" || which == "--quick" {
        let s = panel(
            &cfg,
            &[q1(&cfg.costs), q6(&cfg.costs)],
            "fig5_scan_heavy.csv",
        );
        println!(
            "scan-heavy: mean err {:.1}% (paper 5.7%), max {:.1}% (paper 22%), decisions {}/{} correct",
            s.mean_err * 100.0,
            s.max_err * 100.0,
            s.agreed,
            s.decisions
        );
    }
    if which == "join" || which == "all" || which == "--quick" {
        let s = panel(
            &cfg,
            &[q4(&cfg.costs), q13(&cfg.costs)],
            "fig5_join_heavy.csv",
        );
        println!(
            "join-heavy: mean err {:.1}% (paper 5.9%), max {:.1}% (paper 30%), decisions {}/{} correct",
            s.mean_err * 100.0,
            s.max_err * 100.0,
            s.agreed,
            s.decisions
        );
    }
    if which == "workers" || which == "all" || which == "--quick" {
        let s = worker_panel(&cfg, &q6(&cfg.costs));
        println!(
            "worker grid: mean err {:.1}%, max {:.1}%, decisions {}/{} correct",
            s.mean_err * 100.0,
            s.max_err * 100.0,
            s.agreed,
            s.decisions
        );
    }
}
