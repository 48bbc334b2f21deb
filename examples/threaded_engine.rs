//! Real-thread shared scan: the engine's sharing machinery on OS
//! threads with wall-clock timing (the simulator is the measurement
//! substrate for the paper's figures; this shows the design also runs
//! on real hardware). Unshared, the copies spread over the host's
//! threads, one run loop per query; shared, they form one group whose
//! pivot scans once and fans out to every member in one run loop on one
//! thread — the work saved against the parallelism given up.
//!
//! Run with: `cargo run --release --example threaded_engine`

use cordoba::engine::thread_exec::{run_shared, run_unshared};
use cordoba::storage::tpch::{generate, TpchConfig};
use cordoba::workload::{q6, CostProfile};

fn main() {
    let catalog = generate(&TpchConfig::scale(0.01));
    let spec = q6(&CostProfile::paper());
    let m = 6;
    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2);

    println!("running {m} copies of Q6 over {host_threads} host threads...\n");
    let unshared = run_unshared(&catalog, &spec, m, host_threads);
    let shared = run_shared(&catalog, &spec, m);

    assert_eq!(
        shared.results, unshared.results,
        "shared results must match"
    );
    println!(
        "unshared: {:>10.2?}  ({} queries, each scanning privately)",
        unshared.elapsed, m
    );
    println!(
        "shared:   {:>10.2?}  (one scan fanned out to {} members on one thread)",
        shared.elapsed, m
    );
    let ratio = unshared.elapsed.as_secs_f64() / shared.elapsed.as_secs_f64().max(1e-9);
    println!("\nwall-clock speedup of sharing: {ratio:.2}x on this host");
    println!("(the more idle cores the unshared copies get, the less sharing wins —");
    println!(" the exact trade-off the analytical model predicts)");
}
