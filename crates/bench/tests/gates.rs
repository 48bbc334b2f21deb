//! The byte gates: each committed document must be what this source
//! renders, byte for byte. A changed digit, a renamed or dropped
//! scenario fails its test with every differing line printed
//! (`- line N` committed, `+ line N` fresh). Every scenario pins its own
//! worker count, so the documents must not move under `CORDOBA_WORKERS`
//! either. To move a number on purpose, rewrite the file with
//! `cargo run --release -p cordoba-bench --bin bench_ops` (or
//! `bench_service`, or `figures -- all --quick` for `BENCH_paper.json`)
//! and commit the diff.

use cordoba_bench::gates;
use cordoba_bench::output::{check_file, GateArgs, Json};
use std::path::Path;

fn reproduces(file: &str, doc: Json) {
    let committed = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(file);
    if let Err(report) = check_file(&committed, &doc.render()) {
        panic!("{report}");
    }
}

#[test]
fn bench_ops_json_reproduces_byte_for_byte() {
    reproduces(gates::OPS_FILE, gates::ops(&GateArgs::default()).0);
}

#[test]
fn bench_service_json_reproduces_byte_for_byte() {
    reproduces(gates::SERVICE_FILE, gates::service(&GateArgs::default()).0);
}

#[test]
fn bench_paper_json_reproduces_byte_for_byte() {
    reproduces(gates::PAPER_FILE, gates::paper());
}
