//! Quickstart: the paper's headline result in ~60 lines.
//!
//! Generates a small TPC-H database, runs 8 concurrent copies of Q6
//! with and without work sharing on simulated 1-context and 32-context
//! machines, and compares against the analytical model's predictions.
//!
//! Run with: `cargo run --release --example quickstart`

use cordoba::engine::profiling::profile_query;
use cordoba::engine::{measure_throughput, EngineConfig, OverlapInfo, Policy};
use cordoba::storage::tpch::{generate, TpchConfig};
use cordoba::workload::{q6, CostProfile};
use std::collections::HashMap;

fn main() {
    // 1. A memory-resident TPC-H subset (deterministic).
    let catalog = generate(&TpchConfig::scale(0.002));
    println!(
        "database: {} lineitem rows, {} orders, {} customers ({} KiB)",
        catalog.expect("lineitem").row_count(),
        catalog.expect("orders").row_count(),
        catalog.expect("customer").row_count(),
        catalog.byte_size() / 1024,
    );

    // 2. TPC-H Q6, shareable at its lineitem scan.
    let spec = q6(&CostProfile::paper());
    let clients = vec![spec.clone(); 8];

    // 3. Measure shared vs unshared throughput on 1 and 32 contexts.
    println!(
        "\n{:>9} {:>12} {:>12} {:>9}",
        "contexts", "shared", "unshared", "Z"
    );
    let mut measured = Vec::new();
    for contexts in [1usize, 32] {
        let run = |policy: Policy| {
            let cfg = EngineConfig {
                contexts,
                policy,
                ..EngineConfig::default()
            };
            measure_throughput(&catalog, &clients, &cfg, 24, 2_000_000_000).per_time
        };
        let shared = run(Policy::AlwaysShare);
        let unshared = run(Policy::NeverShare);
        let z = shared / unshared;
        measured.push((contexts, z));
        println!(
            "{contexts:>9} {:>12.4} {:>12.4} {z:>9.3}",
            shared * 1e6,
            unshared * 1e6
        );
    }

    // 4. The model predicts this from profiled parameters (Section 3.1).
    let (info, report) =
        profile_query(&catalog, &spec, &EngineConfig::default()).expect("profiling succeeds");
    println!(
        "\nprofiled scan parameters: w = {:.2}, s = {:.2} (paper: 9.66, 10.34)",
        report.pivot_w, report.pivot_s
    );
    // The engine's model-guided verdict on the 8th client joining the
    // other 7.
    let policy = Policy::model_guided(HashMap::from([(spec.name.clone(), info)]));
    let member = OverlapInfo {
        name: &spec.name,
        coverage: 1.0,
    };
    for (contexts, z_measured) in measured {
        let d = policy
            .decide(&[member; 7], member, contexts as f64)
            .expect("profiled parameters are valid");
        println!(
            "n = {contexts:>2}: measured Z = {z_measured:.3}, model Z = {:.3} -> {}",
            d.speedup.z,
            if d.share { "SHARE" } else { "DON'T SHARE" }
        );
    }
    println!("\nSharing a scan-heavy query helps on a uniprocessor and hurts on a CMP —");
    println!("the trade-off of 'To Share or Not To Share?' (VLDB 2007).");
}
