//! Rewrites `BENCH_service.json`, the service loop's tail-latency
//! trajectory document ([`cordoba_bench::gates::service`]);
//! `tests/gates.rs` is its gate.
//!
//! Usage (from the repo root):
//! `cargo run --release -p cordoba-bench --bin bench_service`
//! * no arguments — run every scenario and rewrite `BENCH_service.json`.
//! * `-- --filter <substr>` — run only the scenarios whose name
//!   contains the substring and print them; writes nothing.

use cordoba_bench::gates;
use cordoba_bench::output::GateArgs;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = GateArgs::from_env("bench_service");
    let (doc, records) = gates::service(&args);
    if args.finish(gates::SERVICE_FILE, records, &doc) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
