//! The byte gates: each committed document must be what this source
//! renders, byte for byte. A changed digit, a renamed or dropped
//! scenario fails its test with every differing line printed
//! (`- line N` committed, `+ line N` fresh). To move a number on
//! purpose, rewrite the file with `cargo run --release -p cordoba-bench
//! --bin figures -- ops` (or `service`, or `all --quick` for all three,
//! `BENCH_paper.json` included) and commit the diff.

use cordoba_bench::gates::{self, Document};
use cordoba_bench::output::check_file;
use std::path::Path;

fn reproduces(doc: &Document) {
    let committed = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(doc.file);
    if let Err(report) = check_file(&committed, &doc.render(&doc.tables())) {
        panic!("{report}");
    }
}

#[test]
fn bench_ops_json_reproduces_byte_for_byte() {
    reproduces(&gates::OPS);
}

#[test]
fn bench_service_json_reproduces_byte_for_byte() {
    reproduces(&gates::SERVICE);
}

#[test]
fn bench_paper_json_reproduces_byte_for_byte() {
    reproduces(&gates::PAPER);
}
