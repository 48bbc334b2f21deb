//! Figure 4: model sensitivity analysis (Section 6) on the synthetic
//! 3-stage query (bottom p=10, pivot w=6 s=1, top p=10):
//!
//! * left — predicted speedup vs clients for n ∈ {1,4,8,12,16,24,32};
//! * center — at 32 CPUs, sweep the pivot's per-consumer cost
//!   s ∈ {0, .25, .5, 1, 2, 4};
//! * right — at 8 CPUs, sweep the fraction of work below the pivot by
//!   moving the five split stages down one at a time (28%…98%);
//! * workers — at 32 CPUs, sweep intra-query morsel workers
//!   k ∈ {1,2,4,8,16} with ideal scaling (κ = 1): the aggressive-
//!   scheduling counterargument, priced by the same model.

use cordoba_bench::output::{announce, ascii_chart, f, write_csv};
use cordoba_core::sharing::{SharingEvaluator, WorkerScaling};
use cordoba_workload::synthetic::{eliminated_fraction, five_way_split, three_stage_with_s};

const CLIENTS: [usize; 9] = [1, 2, 4, 8, 12, 16, 20, 30, 40];

fn z(plan: &cordoba_core::PlanSpec, pivot: cordoba_core::NodeId, m: usize, n: f64) -> f64 {
    SharingEvaluator::homogeneous(plan, pivot, m)
        .expect("synthetic plan valid")
        .speedup(n)
}

fn left() {
    let (plan, pivot) = three_stage_with_s(1.0);
    let mut rows = Vec::new();
    let mut series = Vec::new();
    for n in [1usize, 4, 8, 12, 16, 24, 32] {
        let pts: Vec<(f64, f64)> = CLIENTS
            .iter()
            .map(|&m| (m as f64, z(&plan, pivot, m, n as f64)))
            .collect();
        for &(m, zv) in &pts {
            rows.push(vec![n.to_string(), (m as usize).to_string(), f(zv)]);
        }
        series.push((format!("{n} CPU"), pts));
    }
    println!(
        "{}",
        ascii_chart(
            "Figure 4 left: Z vs clients as processors vary",
            "Z",
            &series
        )
    );
    announce(&write_csv(
        "fig4_left_cpus.csv",
        &["contexts", "clients", "z"],
        &rows,
    ));
}

fn center() {
    let mut rows = Vec::new();
    let mut series = Vec::new();
    for s in [0.0, 0.25, 0.5, 1.0, 2.0, 4.0] {
        let (plan, pivot) = three_stage_with_s(s);
        let pts: Vec<(f64, f64)> = CLIENTS
            .iter()
            .map(|&m| (m as f64, z(&plan, pivot, m, 32.0)))
            .collect();
        for &(m, zv) in &pts {
            rows.push(vec![format!("{s}"), (m as usize).to_string(), f(zv)]);
        }
        series.push((format!("s={s}"), pts));
    }
    println!(
        "{}",
        ascii_chart(
            "Figure 4 center: Z vs clients as serial cost s varies (32 CPU)",
            "Z",
            &series
        )
    );
    announce(&write_csv(
        "fig4_center_serial.csv",
        &["s", "clients", "z"],
        &rows,
    ));
}

fn right() {
    let mut rows = Vec::new();
    let mut series = Vec::new();
    for moved in 0..=5usize {
        let (plan, pivot) = five_way_split(moved);
        let frac = eliminated_fraction(moved);
        let pts: Vec<(f64, f64)> = CLIENTS
            .iter()
            .map(|&m| (m as f64, z(&plan, pivot, m, 8.0)))
            .collect();
        for &(m, zv) in &pts {
            rows.push(vec![
                moved.to_string(),
                format!("{:.0}%", frac * 100.0),
                (m as usize).to_string(),
                f(zv),
            ]);
        }
        series.push((format!("{moved}/5 ({:.0}%)", frac * 100.0), pts));
    }
    println!(
        "{}",
        ascii_chart(
            "Figure 4 right: Z vs clients as work below pivot varies (8 CPU)",
            "Z",
            &series
        )
    );
    announce(&write_csv(
        "fig4_right_fraction.csv",
        &["moved_below", "eliminated", "clients", "z"],
        &rows,
    ));
}

fn workers() {
    // The unshared side's pivot scales with k (it serves one consumer);
    // the shared pivot keeps its serial Σ s_mφ. With processors to
    // spare, every added worker therefore erodes Z — sharing's residual
    // value is whatever the multiplexing floor leaves.
    let (plan, pivot) = three_stage_with_s(1.0);
    let mut rows = Vec::new();
    let mut series = Vec::new();
    for k in [1u32, 2, 4, 8, 16] {
        let scaling = WorkerScaling::ideal(k).expect("k >= 1");
        let pts: Vec<(f64, f64)> = CLIENTS
            .iter()
            .map(|&m| {
                let z = SharingEvaluator::homogeneous(&plan, pivot, m)
                    .expect("synthetic plan valid")
                    .with_workers(scaling)
                    .speedup(32.0);
                (m as f64, z)
            })
            .collect();
        for &(m, zv) in &pts {
            rows.push(vec![k.to_string(), (m as usize).to_string(), f(zv)]);
        }
        series.push((format!("k={k}"), pts));
    }
    println!(
        "{}",
        ascii_chart(
            "Figure 4 workers: Z vs clients as morsel workers vary (32 CPU, ideal scaling)",
            "Z",
            &series
        )
    );
    announce(&write_csv(
        "fig4_workers.csv",
        &["workers", "clients", "z"],
        &rows,
    ));
}

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    println!("Figure 4: predicted speedup of work sharing (analytical model, Section 6)");
    match which.as_str() {
        "cpus" => left(),
        "serial" => center(),
        "fraction" => right(),
        "workers" => workers(),
        _ => {
            left();
            center();
            right();
            workers();
        }
    }
}
