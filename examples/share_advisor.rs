//! Share advisor: profiles the four TPC-H queries and prints a
//! share/don't-share decision matrix over machine sizes and client
//! counts — the model-guided policy's own verdict, exactly as the
//! engine takes it at runtime.
//!
//! Run with: `cargo run --release --example share_advisor`

use cordoba::engine::profiling::profile_query;
use cordoba::engine::{EngineConfig, OverlapInfo, Policy};
use cordoba::storage::tpch::{generate, TpchConfig};
use cordoba::workload::queries::all;
use cordoba::workload::CostProfile;
use std::collections::HashMap;

fn main() {
    let catalog = generate(&TpchConfig::scale(0.002));
    let contexts = [1usize, 2, 8, 32];
    let clients = [2usize, 8, 32];

    println!("Share/don't-share decision matrix (model-guided, profiled parameters)\n");
    for spec in all(&CostProfile::paper()) {
        let (info, report) =
            profile_query(&catalog, &spec, &EngineConfig::default()).expect("profiling succeeds");
        println!(
            "== {} ==  pivot w = {:.2}, s = {:.2}",
            spec.name, report.pivot_w, report.pivot_s
        );
        let policy = Policy::model_guided(HashMap::from([(spec.name.clone(), info)]));
        let member = OverlapInfo {
            name: &spec.name,
            coverage: 1.0,
        };
        print!("{:>12}", "m \\ n");
        for n in contexts {
            print!("{n:>8}");
        }
        println!();
        for m in clients {
            print!("{m:>12}");
            // The m-th client arriving at a group of m - 1.
            let group = vec![member; m - 1];
            for n in contexts {
                let d = policy
                    .decide(&group, member, n as f64)
                    .expect("profiled parameters are valid");
                let verdict = format!("{}{:.2}", if d.share { '+' } else { '-' }, d.speedup.z);
                print!("{verdict:>8}");
            }
            println!();
        }
        println!("  (+Z share, -Z don't; ties share)\n");
    }
}
