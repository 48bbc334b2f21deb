//! Policy comparison on a mixed workload (paper Section 8.2 in
//! miniature): always-share vs never-share vs model-guided on a 50/50
//! Q1/Q4 mix, on small and large simulated machines.
//!
//! Run with: `cargo run --release --example policy_comparison`

use cordoba::engine::profiling::profile_query;
use cordoba::engine::{measure_throughput, EngineConfig, Policy};
use cordoba::storage::tpch::{generate, TpchConfig};
use cordoba::workload::mix::q1_q4_mix;
use cordoba::workload::{q1, q4, CostProfile};
use std::collections::HashMap;

fn main() {
    let costs = CostProfile::paper();
    let catalog = generate(&TpchConfig::scale(0.002));

    // Profile Q1 and Q4 once (offline parameter estimation).
    let mut models = HashMap::new();
    for spec in [q1(&costs), q4(&costs)] {
        let (info, _) =
            profile_query(&catalog, &spec, &EngineConfig::default()).expect("profiling succeeds");
        models.insert(spec.name.clone(), info);
    }

    let clients = q1_q4_mix(&costs, 16, 0.5);
    println!("16 clients, 50% Q1 / 50% Q4, throughput in queries per M work units:\n");
    println!(
        "{:>9} {:>12} {:>12} {:>12} {:>10}",
        "contexts", "never", "always", "model", "winner"
    );
    for contexts in [2usize, 8, 32] {
        let run = |policy: Policy| {
            let cfg = EngineConfig {
                contexts,
                policy,
                ..EngineConfig::default()
            };
            measure_throughput(&catalog, &clients, &cfg, 32, 4_000_000_000).per_time * 1e6
        };
        let never = run(Policy::NeverShare);
        let always = run(Policy::AlwaysShare);
        let model = run(Policy::model_guided(models.clone()));
        let winner = if model >= never && model >= always {
            "model"
        } else if always >= never {
            "always"
        } else {
            "never"
        };
        println!("{contexts:>9} {never:>12.3} {always:>12.3} {model:>12.3} {winner:>10}");
    }
    println!("\nSmall machines: sharing everything wins; large machines: indiscriminate");
    println!("sharing collapses. The model-guided policy is the only one good everywhere.");
}
