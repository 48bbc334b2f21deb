//! Open vs closed systems (paper Section 5.1): in an open system,
//! arrivals are independent of response times — sharing opportunities
//! only exist when queries happen to co-arrive, and the benefit of
//! sharing shows up in response times rather than peak throughput.
//!
//! This example drives Poisson arrivals of Q6 through the engine at
//! increasing load and reports mean response time and realized group
//! sizes for always-share vs never-share.
//!
//! Run with: `cargo run --release --example open_system`

use cordoba::engine::{run_service, EngineConfig, Policy, ServiceConfig};
use cordoba::storage::tpch::{generate, TpchConfig};
use cordoba::workload::arrivals::poisson_arrivals;
use cordoba::workload::{q6, CostProfile};

fn main() {
    let catalog = generate(&TpchConfig::scale(0.002));
    let spec = q6(&CostProfile::paper());
    let queries = 40;

    println!("Open system: Poisson arrivals of Q6, 2 contexts, {queries} queries\n");
    println!(
        "{:>14} {:>14} {:>14} {:>11} {:>11}",
        "mean gap", "resp(never)", "resp(always)", "ratio", "avg group"
    );
    // Sweep offered load: long gaps = idle system, short gaps = overload.
    for mean_gap in [2_000_000u64, 500_000, 150_000, 50_000] {
        let run = |policy: Policy| {
            let schedule = poisson_arrivals(&spec, queries, mean_gap, 11);
            // An open system admits every arrival: no admission bound.
            let cfg = ServiceConfig {
                engine: EngineConfig {
                    contexts: 2,
                    policy,
                    ..EngineConfig::default()
                },
                admission_capacity: usize::MAX,
                time_cap: None,
            };
            run_service(&catalog, schedule, &cfg)
        };
        let never = run(Policy::NeverShare);
        let always = run(Policy::AlwaysShare);
        assert_eq!(never.completed, queries);
        assert_eq!(always.completed, queries);
        // Both runs completed every query (asserted above), so the
        // means exist.
        let resp_never = never.mean_response().expect("completions");
        let resp_always = always.mean_response().expect("completions");
        println!(
            "{:>14} {:>14.0} {:>14.0} {:>11.2} {:>11.2}",
            mean_gap,
            resp_never,
            resp_always,
            resp_never / resp_always.max(1.0),
            always.mean_group_size(),
        );
    }
    println!(
        "\nAt low load arrivals rarely overlap (groups ~1, sharing moot); as load\n\
         grows, queueing makes co-arrival common — groups form and sharing cuts\n\
         response times. The paper's point: in an open system, unshared queries\n\
         can be modeled as throttled to the slowest sharer with no loss."
    );
}
