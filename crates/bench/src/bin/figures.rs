//! Regenerates the paper's figures ([`cordoba_bench::figures`]): each
//! panel writes `results/<name>.csv` and prints its chart, rows and
//! summary.
//!
//! Usage (from the repo root):
//! `cargo run --release -p cordoba-bench --bin figures -- <figure|all> [panel] [--quick]`
//! * `<figure>` — `fig1`, `fig2`, `fig4`, `fig5`, `fig6`, `sec44` or
//!   `ablations`; `all` runs every figure in turn and rewrites
//!   `BENCH_paper.json` ([`cordoba_bench::gates::paper`]).
//! * `[panel]` — one panel of the figure: `fig2 scan`, `fig5 workers`,
//!   `ablations groups`, …
//! * `--quick` — `ExpConfig::quick`'s smaller scale (`fig4` is the
//!   model alone, and `sec44` always runs at the default scale).
//!
//! Anything else prints the usage line and exits 2.

use cordoba_bench::figures::Args;
use cordoba_bench::gates;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = Args::from_env();
    args.run();
    if args.figure.is_some() {
        return ExitCode::SUCCESS;
    }
    match std::fs::write(gates::PAPER_FILE, gates::paper().render()) {
        Ok(()) => {
            println!("{}: written", gates::PAPER_FILE);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot write {}: {e}", gates::PAPER_FILE);
            ExitCode::FAILURE
        }
    }
}
