//! Open-system service-loop tail-latency gate: drives the release
//! engine through the [`cordoba_bench::service_kernels`] scenarios
//! (Suite A fan-out/fan-in/scalability, Suite B Poisson/burst/chaos/
//! saturation) and records counts, throughput, and p50/p99/p999
//! response-time quantiles. Everything is deterministic simulator
//! virtual time under fixed seeds with morsel workers pinned to 1, so
//! `BENCH_service.json` is gated by reproduction, not by tolerance.
//!
//! Usage (from the repo root):
//! `cargo run --release -p cordoba-bench --bin bench_service`
//! * no arguments — run every scenario and rewrite `BENCH_service.json`.
//! * `-- --check <file>` — render the same document and compare it byte
//!   for byte with the committed file; prints each differing line and
//!   exits 1.
//! * `-- --filter <substr>` — run only the scenarios whose name
//!   contains the substring and print them; writes nothing and cannot
//!   be combined with `--check`.

use cordoba_bench::output::{GateArgs, Json};
use cordoba_bench::service_kernels::{self, ServicePoint};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = GateArgs::from_env("bench_service");
    let cat = service_kernels::catalog();
    let points = service_kernels::run_all(&cat, |name| args.wants(name));
    for p in &points {
        println!(
            "{:<20} [{}] n={} cap={:<2} {:>3} offered: {:>3}c/{}f/{}r/{}i  p50 {:>9} p99 {:>9} p999 {:>9}  util {:.2}  group {:.2}",
            p.name,
            p.suite,
            p.contexts,
            p.capacity,
            p.offered,
            p.completed,
            p.failed,
            p.rejected,
            p.in_flight,
            p.latency.p50,
            p.latency.p99,
            p.latency.p999,
            p.utilization,
            p.mean_group,
        );
    }

    let doc = Json::Obj(vec![
        (
            "suite",
            "open-system service loop: tail-latency scenarios (Suite A fan-out/scale, Suite B Poisson/burst/chaos/saturation)".into(),
        ),
        (
            "harness",
            "crates/bench/src/bin/bench_service.rs; deterministic simulator virtual time, fixed seeds, workers pinned to 1; `--check` reproduces this file byte for byte".into(),
        ),
        ("scale_factor", Json::fixed(service_kernels::SCALE_FACTOR, 3)),
        (
            "invariant",
            "offered == completed + failed + rejected + in_flight, asserted per run".into(),
        ),
        (
            "scenarios",
            Json::Arr(points.iter().map(ServicePoint::json).collect()),
        ),
    ]);
    if args.finish("BENCH_service.json", points.len(), &doc) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
