//! Regenerates the paper's figures and the operator and service
//! scenarios ([`cordoba_bench::figures`]): each panel writes
//! `results/<name>.csv` and prints its chart, rows and summary.
//!
//! Usage (from the repo root):
//! `cargo run --release -p cordoba-bench --bin figures -- <figure|all> [panel] [--quick]`
//! * `<figure>` — `fig1`, `fig2`, `fig4`, `fig5`, `fig6`, `sec44`,
//!   `ablations`, `ops`, `service` or `size`; `all` runs every figure in
//!   turn.
//! * `[panel]` — one panel of the figure: `fig2 scan`, `fig5 workers`,
//!   `ops spill`, … A single panel only prints.
//! * `--quick` — `ExpConfig::quick`'s smaller scale (`fig4` is the
//!   model alone, and `sec44`, `ops`, `service` and `size` always run at
//!   their own scale).
//!
//! A run that covers every table of a committed document rewrites it
//! ([`cordoba_bench::gates::DOCUMENTS`]): `figures ops` rewrites
//! `BENCH_ops.json`, `figures service` `BENCH_service.json`, `figures
//! size` `BENCH_size.json`, and `figures all` those three and
//! `BENCH_paper.json`. Anything else prints
//! the usage line and exits 2, before running anything.

use cordoba_bench::figures::Args;
use cordoba_bench::gates;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = Args::from_env();
    let ran = args.run();
    let mut status = ExitCode::SUCCESS;
    for doc in gates::DOCUMENTS.iter().filter(|doc| args.covers(doc)) {
        let tables = ran
            .iter()
            .filter(|(figure, _)| doc.figures.contains(figure));
        match std::fs::write(doc.file, doc.render(tables.map(|(_, table)| table))) {
            Ok(()) => println!("{}: written", doc.file),
            Err(e) => {
                eprintln!("cannot write {}: {e}", doc.file);
                status = ExitCode::FAILURE;
            }
        }
    }
    status
}
