//! A spill stream's frame is on the broker's books from the call that
//! opens the stream to the one that finishes or drops it, and the sort
//! and the hash join size themselves inside the budget with their
//! frames counted: across budgets from one page to the benchmark's 293
//! they produce what the in-memory operators produce, return every
//! byte, and hold the 1.25 × budget contract from the smallest budget
//! at which the streams they cannot do without fit it.

#![allow(
    clippy::expect_used,
    reason = "test code, exempt from the panic-free rule"
)]

use cordoba_exec::ops::{HashJoinKernel, Kernel, Pages, SortKernel};
use cordoba_exec::{JoinKind, MemoryBroker, OpCost, SpillContext};
use cordoba_storage::spill::frame_bytes;
use cordoba_storage::{DataType, Field, Page, Schema, TableBuilder, Value, PAGE_SIZE};
use std::sync::Arc;

fn kv_schema() -> Arc<Schema> {
    Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("v", DataType::Int),
    ])
}

/// `n` rows `(i * 7919 % keys, i)` as pages of [`kv_schema`], 256 rows
/// to the page.
fn kv_pages(n: usize, keys: usize) -> Vec<Arc<Page>> {
    let mut tb = TableBuilder::new("t", kv_schema());
    for i in 0..n {
        tb.push_row(&[Value::Int((i * 7919 % keys) as i64), Value::Int(i as i64)]);
    }
    tb.finish().pages().to_vec()
}

fn sort(spill: SpillContext) -> SortKernel {
    SortKernel::new(kv_schema(), vec![0], OpCost::default(), spill).expect("valid keys")
}

fn join(spill: SpillContext) -> HashJoinKernel {
    let (s, cost) = (kv_schema(), OpCost::default());
    let out = cordoba_exec::concat_schemas(&s, &s);
    HashJoinKernel::new(0, 0, JoinKind::Inner, s.clone(), s, out, cost, cost, spill)
        .expect("valid keys")
}

/// Feeds `kernel` each input and its end, port after port.
fn feed(kernel: &mut dyn Kernel, inputs: &[&[Arc<Page>]], out: &mut Pages) {
    for (port, pages) in inputs.iter().enumerate() {
        for page in *pages {
            kernel.on_page(port, page, out).expect("consumes");
        }
        kernel.on_close(port, out).expect("closes");
    }
}

/// Runs `kernel` over `inputs` to its end; the rows it emitted.
fn run(kernel: &mut dyn Kernel, inputs: &[&[Arc<Page>]]) -> Vec<(i64, i64, i64)> {
    let mut out = Pages::new();
    feed(kernel, inputs, &mut out);
    while !kernel.drain(&mut out).expect("drains").last {}
    let rows = out.iter().flat_map(|page| {
        let wide = page.schema().len() > 2;
        let row = move |t: cordoba_storage::TupleRef<'_>| {
            (
                t.get_int(0),
                t.get_int(1),
                if wide { t.get_int(3) } else { 0 },
            )
        };
        page.tuples().map(row).collect::<Vec<_>>()
    });
    rows.collect()
}

/// A `pages`-page budget spilling to a directory of its own.
fn budgeted(tag: &str, pages: usize) -> (SpillContext, MemoryBroker, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("cordoba-frames-{tag}-{}", std::process::id()));
    let mut spill = SpillContext::with_budget(pages * PAGE_SIZE);
    spill.dir = dir.clone();
    let broker = spill.broker.clone();
    (spill, broker, dir)
}

#[test]
fn the_cursors_of_a_merge_are_on_the_brokers_books() {
    // 64 pages of budget, 16 of them the run stream's frame: runs of 47
    // pages. Sixteen runs open with 64 / (2 · 16) = two-page frames, a
    // page buffering the file and the page in hand — 16 × 8 KiB that
    // the broker used to see half of (the reader's buffer was
    // nobody's). Thirty-one, the most the budget merges at once, open
    // with the smallest frame, which holds the same two pages: a cursor
    // is never granted less than it holds.
    let run_pages = (64 * PAGE_SIZE - frame_bytes(&kv_schema(), 16)) / PAGE_SIZE;
    assert_eq!(run_pages, 47);
    for runs in [16, 31] {
        let (spill, broker, dir) = budgeted("merge", 64);
        let input = kv_pages(runs * run_pages * 256, 5000);
        let mut sort = sort(spill);
        let mut out = Pages::new();
        feed(&mut sort, &[&input], &mut out);
        let on_disk = std::fs::read_dir(&dir).expect("spill dir").count();
        assert_eq!(on_disk, runs, "runs on disk when the merge opens");
        assert_eq!(broker.used(), runs * frame_bytes(&kv_schema(), 2));
        let held = frame_bytes(&kv_schema(), 1) + PAGE_SIZE;
        assert!(broker.used() >= runs * held, "granted what is held");
        assert!(broker.peak() <= 64 * PAGE_SIZE, "peak {}", broker.peak());
        while !sort.drain(&mut out).expect("drains").last {}
        assert_eq!(
            out.iter().map(|p| p.rows()).sum::<usize>(),
            runs * run_pages * 256
        );
        assert_eq!(broker.used(), 0, "the frames came back with the cursors");
        std::fs::remove_dir(&dir).expect("no run left behind");
    }
}

#[test]
fn an_open_stream_holds_its_frame_until_the_operator_lets_go_of_it() {
    // Mid-build, with partitions spilled: every open stream's frame is
    // granted, and `release` — what a failed query calls — returns them
    // through the streams it drops, whose files go with them.
    let (spill, broker, dir) = budgeted("drop", 8);
    let mut join = join(spill);
    let mut out = Pages::new();
    for page in &kv_pages(31 * 256, 1500) {
        join.on_page(0, page, &mut out).expect("builds");
    }
    let open = std::fs::read_dir(&dir).expect("spill dir").count();
    assert!(open > 0, "partitions have spilled");
    assert!(broker.used() >= open * frame_bytes(&kv_schema(), 1));
    join.release();
    assert_eq!(
        broker.used(),
        0,
        "release returns the frames through the streams"
    );
    std::fs::remove_dir(&dir).expect("no partition left behind");
}

#[test]
fn sort_and_join_stay_inside_every_budget_with_their_frames_counted() {
    let one_page_frame = frame_bytes(&kv_schema(), 1);
    for pages in [1usize, 2, 4, 8, 64, 293] {
        let budget = pages * PAGE_SIZE;
        let contract = |peak: usize| peak * 4 <= budget * 5;

        // Ten times the budget (60 pages at least) through the sort.
        let input = kv_pages((10 * pages).max(60) * 256, 5000);
        let want = run(&mut sort(SpillContext::unbounded()), &[&input]);
        let (spill, broker, dir) = budgeted("sort", pages);
        let got = run(&mut sort(spill), &[&input]);
        assert_eq!(got, want, "{pages} pages: the stable in-memory order");
        assert_eq!(broker.used(), 0, "{pages} pages: sort grants leaked");
        // A merge is two cursors, each a page buffering its run and
        // the page in hand, and in a cascade its output: five one-page
        // frames under any budget, inside the contract from eight pages
        // up.
        let peak = broker.peak();
        assert!(
            if pages >= 8 {
                contract(peak)
            } else {
                peak <= 5 * one_page_frame
            },
            "sort, {pages} pages: peak {peak}"
        );
        std::fs::remove_dir(&dir).expect("no run left behind");

        // A build side of four times the budget (12 pages at least).
        let n = (4 * pages).max(12) * 256;
        let (build, probe) = (kv_pages(n, n / 3), kv_pages(n + n / 5, n / 2));
        let mut want = run(&mut join(SpillContext::unbounded()), &[&build, &probe]);
        let (spill, broker, dir) = budgeted("join", pages);
        let mut got = run(&mut join(spill), &[&build, &probe]);
        // Spilled partitions come back partition by partition.
        want.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, want, "{pages} pages");
        assert_eq!(broker.used(), 0, "{pages} pages: join grants leaked");
        // Splitting a partition takes a frame per output and one for
        // the file being split, however small the budget: the join
        // holds the contract from eight pages up (it peaked at 1.125 ×
        // eight pages before its streams' buffers were counted at all).
        let peak = broker.peak();
        assert!(
            pages < 8 || contract(peak),
            "join, {pages} pages: peak {peak}"
        );
        std::fs::remove_dir(&dir).expect("no partition left behind");
    }
}
