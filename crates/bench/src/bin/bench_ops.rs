//! Rewrites `BENCH_ops.json`, the operator-level trajectory document
//! ([`cordoba_bench::gates::ops`]); `tests/gates.rs` is its gate.
//!
//! Usage (from the repo root):
//! `cargo run --release -p cordoba-bench --bin bench_ops`
//! * no arguments — run every scenario and rewrite `BENCH_ops.json`.
//! * `-- --filter <substr>` — run only the scenarios whose name
//!   contains the substring and print them; writes nothing.
//!   `--filter par_hash_join` also prints the one wall-clock pair
//!   (serial vs thread-driver hash join), which never enters the
//!   committed file.

use cordoba_bench::gates;
use cordoba_bench::output::GateArgs;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = GateArgs::from_env("bench_ops");
    let (doc, records) = gates::ops(&args);
    if args.finish(gates::OPS_FILE, records, &doc) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
