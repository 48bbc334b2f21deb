//! The failure contract of [`OperatorShell`], with the real kernels
//! behind it: whatever fails a query and wherever — a page of a foreign
//! schema on an input, a spill file cut short (to nothing, inside a
//! frame, inside a record header) — the query's fault cell
//! names it, every granted byte is back with the broker, no spill file
//! survives, every input is closed, and downstream sees end-of-stream
//! — after the pages delivered before the fault, and nothing else.

#![allow(
    clippy::expect_used,
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "test code: it plants files to fail spills and fails by panicking"
)]

use cordoba_exec::expr::{Agg, Predicate, ScalarExpr};
use cordoba_exec::ops::{
    AggregateKernel, Fanout, FilterKernel, HashJoinKernel, Kernel, NljKernel, OperatorShell,
    ProjectKernel, SortKernel,
};
use cordoba_exec::{ExecError, JoinKind, MemoryBroker, OpCost, SpillContext};
use cordoba_sim::channel::{self, Recv};
use cordoba_sim::{DetachedCtx, StepStatus, Task};
use cordoba_storage::{DataType, Field, Page, Schema, TableBuilder, Value, PAGE_SIZE};
use std::path::PathBuf;
use std::sync::Arc;

fn kv_schema() -> Arc<Schema> {
    Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("v", DataType::Int),
    ])
}

/// `n` rows `(i * 7919 % keys, i)` as pages of [`kv_schema`].
fn kv_pages(n: i64, keys: i64) -> Vec<Arc<Page>> {
    let mut tb = TableBuilder::new("t", kv_schema());
    for i in 0..n {
        tb.push_row(&[Value::Int(i * 7919 % keys), Value::Int(i)]);
    }
    tb.finish().pages().to_vec()
}

/// A page no operator here was wired for.
fn foreign_page() -> Arc<Page> {
    let schema = Schema::new(vec![Field::new("solo", DataType::Str(3))]);
    let mut tb = TableBuilder::new("w", schema);
    tb.push_row(&[Value::Str("x".into())]);
    tb.finish().pages()[0].clone()
}

/// A budgeted spill context with a spill directory of its own.
fn budgeted(tag: &str, budget: usize) -> (SpillContext, MemoryBroker, PathBuf) {
    let dir = std::env::temp_dir().join(format!("cordoba-failure-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("spill dir");
    let mut spill = SpillContext::with_budget(budget);
    spill.dir = dir.clone();
    let broker = spill.broker.clone();
    (spill, broker, dir)
}

/// Where [`ruin_spill_files`] cuts a file.
#[derive(Debug, Clone, Copy)]
enum Cut {
    /// At its start: nothing is left.
    Everything,
    /// Half-way, inside the rows of a record — part-way through a frame
    /// of whoever reads it.
    MidFrame,
    /// Half-way, two bytes into a record's header.
    MidHeader,
}

/// When [`run_to_fault`] cuts the spill files short.
#[derive(Debug, Clone, Copy)]
enum When {
    /// Before the kernel's step `n` (counted from 0), inputs still
    /// arriving: a stream still being written goes on past the cut,
    /// over a hole its reader finds zeroed.
    Step(usize),
    /// Two steps after the last input ran dry — once the kernel has
    /// been told and has begun to drain.
    Drained,
}

/// Cuts every spill file in `dir` short: what is left to read of an
/// open stream ends before the records its writer counted.
fn ruin_spill_files(dir: &PathBuf, cut: Cut) {
    // A record of `kv_schema` rows: its header and a page of rows.
    let record = 4 + PAGE_SIZE as u64;
    for entry in std::fs::read_dir(dir).expect("spill dir") {
        let path = entry.expect("entry").path();
        let file = std::fs::OpenOptions::new().write(true).open(path);
        let file = file.expect("spill file");
        let len = file.metadata().expect("spill file").len();
        let half = len / record / 2 * record;
        let keep = match cut {
            Cut::Everything => 0,
            Cut::MidFrame => half + 4 + 1000,
            Cut::MidHeader => half + 2,
        };
        file.set_len(keep.min(len.saturating_sub(1)))
            .expect("truncate");
    }
}

/// Runs `kernel` behind a shell over `inputs`, a consumer reading every
/// page as it arrives. With `ruin`, the spill files in its directory are
/// cut as it says, when it says. Returns the fault and how many pages
/// the consumer read, having checked that the inputs are closed and
/// that the consumer was left with end-of-stream.
fn run_to_fault(
    kernel: Box<dyn Kernel>,
    inputs: Vec<Vec<Arc<Page>>>,
    spill: &SpillContext,
    ruin: Option<(&PathBuf, Cut, When)>,
) -> (ExecError, usize) {
    let mut detached = DetachedCtx::new();
    let mut rxs = Vec::new();
    for pages in inputs {
        let (tx, rx) = channel::bounded(pages.len().max(1));
        for page in pages {
            assert!(tx.try_send(page, &mut detached.ctx(0)).is_ok());
        }
        tx.close(&mut detached.ctx(0));
        rxs.push(rx);
    }
    let (tx, out) = channel::bounded(4);
    let fanout = Fanout::new(vec![tx.into()], 0.0);
    let inputs = rxs.iter().map(|rx| rx.clone().into()).collect();
    let mut shell = OperatorShell::new(kernel, inputs, fanout, spill.fault.clone());
    let (mut read, mut steps, mut dry_steps) = (0, 0, 0);
    let mut failed = false;
    // (A step delivers what earlier steps produced before it reads the
    // page that fails it, so the last pages are read after that step.)
    let end = loop {
        match out.try_recv(&mut detached.ctx(1)) {
            Recv::Value(_) => read += 1,
            end if failed => break end,
            _ => {
                if rxs.iter().all(|rx| rx.is_finished()) {
                    dry_steps += 1;
                }
                if let Some((dir, cut, when)) = ruin {
                    let due = match when {
                        When::Step(n) => steps == n,
                        When::Drained => dry_steps == 3,
                    };
                    if due {
                        ruin_spill_files(dir, cut);
                    }
                }
                steps += 1;
                let step = shell.step(&mut detached.ctx(2));
                failed = step.status == StepStatus::Done;
                assert!(!failed || step.cost == 1, "the failure step");
            }
        }
    };
    assert!(matches!(end, Recv::Closed), "no end of stream");
    assert!(rxs.iter().all(|rx| rx.is_finished()), "an input left open");
    (spill.fault.get().expect("the query failed"), read)
}

fn assert_nothing_left(at: &str, broker: &MemoryBroker, dir: &PathBuf) {
    assert!(broker.peak() > 0, "{at}: the operator charged the broker");
    assert_eq!(broker.used(), 0, "{at}: grants leaked");
    let left = std::fs::read_dir(dir).expect("spill dir").count();
    assert_eq!(left, 0, "{at}: spill files left behind");
    std::fs::remove_dir(dir).expect("empty spill dir");
}

/// Inserts the foreign page before page `at` of `pages`.
fn poisoned(mut pages: Vec<Arc<Page>>, at: usize) -> Vec<Arc<Page>> {
    pages.insert(at, foreign_page());
    pages
}

#[test]
fn a_failed_sort_returns_its_memory_and_files() {
    // 16 000 rows (63 pages) under a four-page budget: runs on disk and
    // pages in memory when the foreign page arrives; the final merge
    // under way when the files are cut short.
    let sort = |spill: &SpillContext| {
        let cost = OpCost::default();
        Box::new(SortKernel::new(kv_schema(), vec![0], cost, spill.clone()).expect("valid keys"))
    };
    let pages = kv_pages(16_000, 50);

    let (spill, broker, dir) = budgeted("sort-consume", 4 * PAGE_SIZE);
    let inputs = vec![poisoned(pages.clone(), 42)];
    let (err, read) = run_to_fault(sort(&spill), inputs, &spill, None);
    assert!(
        matches!(err, ExecError::InputPageMismatch { op: "sort", .. }),
        "{err:?}"
    );
    assert_eq!(read, 0, "a sort emits nothing before its input ends");
    assert_nothing_left("mid-consume", &broker, &dir);

    for cut in [Cut::Everything, Cut::MidFrame, Cut::MidHeader] {
        let (spill, broker, dir) = budgeted("sort-merge", 4 * PAGE_SIZE);
        let ruin = Some((&dir, cut, When::Drained));
        let (err, read) = run_to_fault(sort(&spill), vec![pages.clone()], &spill, ruin);
        assert!(
            matches!(err, ExecError::Spill { op: "sort", .. }),
            "{cut:?}: {err:?}"
        );
        assert!(read > 0, "{cut:?}: the merge was emitting");
        assert_nothing_left("mid-merge", &broker, &dir);
    }
}

#[test]
fn a_failed_hash_join_returns_its_memory_and_files() {
    // A 31-page build side under an eight-page budget: partitions have
    // spilled by the time the foreign build page arrives; spilled probe
    // streams are open when the foreign probe page does; and pairs are
    // queued (or one is being probed) when the files go bad.
    let join = |spill: &SpillContext| {
        let (s, cost) = (kv_schema(), OpCost::default());
        let out = cordoba_exec::concat_schemas(&s, &s);
        let spill = spill.clone();
        let join = HashJoinKernel::new(0, 0, JoinKind::Inner, s.clone(), s, out, cost, cost, spill);
        Box::new(join.expect("valid keys"))
    };
    let (build, probe) = (kv_pages(8000, 1500), kv_pages(3000, 2000));

    let (spill, broker, dir) = budgeted("join-build", 8 * PAGE_SIZE);
    let inputs = vec![poisoned(build.clone(), 25), probe.clone()];
    let (err, _) = run_to_fault(join(&spill), inputs, &spill, None);
    let detail = "build input: expected 2 columns / 16 B rows, got 1 columns / 3 B rows";
    let mismatch = |detail: &str| ExecError::InputPageMismatch {
        op: "hash join",
        detail: detail.into(),
    };
    assert_eq!(err, mismatch(detail));
    assert_nothing_left("mid-build", &broker, &dir);

    let (spill, broker, dir) = budgeted("join-probe", 8 * PAGE_SIZE);
    let inputs = vec![build.clone(), poisoned(probe.clone(), 6)];
    let (err, _) = run_to_fault(join(&spill), inputs, &spill, None);
    assert_eq!(err, mismatch(&detail.replace("build", "probe")));
    assert_nothing_left("mid-probe", &broker, &dir);

    for cut in [Cut::Everything, Cut::MidFrame, Cut::MidHeader] {
        let (spill, broker, dir) = budgeted("join-pairs", 8 * PAGE_SIZE);
        let inputs = vec![build.clone(), probe.clone()];
        let ruin = Some((&dir, cut, When::Drained));
        let (err, _) = run_to_fault(join(&spill), inputs, &spill, ruin);
        let spill_fault = matches!(
            err,
            ExecError::Spill {
                op: "hash join",
                ..
            }
        );
        assert!(spill_fault, "{cut:?}: {err:?}");
        assert_nothing_left("mid-spill-join", &broker, &dir);
    }
}

#[test]
fn a_semi_join_whose_key_files_are_cut_returns_its_memory_and_files() {
    // 16 000 distinct scattered build keys, 125 KiB even kept as keys,
    // under an eight-page budget: key-only partitions spill. Their files
    // are cut once mid-build-spill, 40 of 63 build pages in, while the
    // build still writes them (the only spill files there are then),
    // and once mid-spilled-pair, key files among the probe files.
    let semi = |spill: &SpillContext| {
        let (k, s, cost) = (JoinKind::Semi, kv_schema(), OpCost::default());
        let spill = spill.clone();
        let join = HashJoinKernel::new(0, 0, k, s.clone(), s.clone(), s, cost, cost, spill);
        Box::new(join.expect("valid keys"))
    };
    let inputs = vec![kv_pages(16_000, 16_000), kv_pages(3000, 16_000)];
    for (at, cut, when) in [
        ("mid-build-spill", Cut::Everything, When::Step(40)),
        ("mid-spilled-pair", Cut::MidFrame, When::Drained),
    ] {
        let (spill, broker, dir) = budgeted(&format!("semi-{at}"), 8 * PAGE_SIZE);
        let ruin = Some((&dir, cut, when));
        let (err, _) = run_to_fault(semi(&spill), inputs.clone(), &spill, ruin);
        let spill_fault = matches!(
            err,
            ExecError::Spill {
                op: "hash join",
                ..
            }
        );
        assert!(spill_fault, "{at}: {err:?}");
        assert_nothing_left(at, &broker, &dir);
    }
}

#[test]
fn a_foreign_page_faults_every_operator_with_a_typed_error() {
    // Filter, project and aggregate used to panic on such a page (a
    // column gather past the row), the nested-loop join to pack
    // misaligned rows in a release build.
    let s = kv_schema();
    let cost = OpCost::default();
    let pair = cordoba_exec::concat_schemas(&s, &s);
    let out1 = Schema::new(vec![Field::new("n", DataType::Int)]);
    let kernels: Vec<(Box<dyn Kernel>, usize)> = vec![
        (
            Box::new(FilterKernel::new(s.clone(), Predicate::True, cost).expect("compiles")),
            0,
        ),
        (
            Box::new(
                ProjectKernel::new(s.clone(), out1.clone(), vec![ScalarExpr::col(1)], cost)
                    .expect("compiles"),
            ),
            0,
        ),
        (
            Box::new(
                AggregateKernel::new(s.clone(), vec![], vec![Agg::Count], out1, cost)
                    .expect("compiles"),
            ),
            0,
        ),
        (
            Box::new(
                NljKernel::new(s.clone(), s.clone(), Predicate::True, pair.clone(), cost)
                    .expect("compiles"),
            ),
            0,
        ),
        (
            Box::new(NljKernel::new(s.clone(), s, Predicate::True, pair, cost).expect("compiles")),
            1,
        ),
    ];
    for (kernel, bad_port) in kernels {
        let (op, ports) = (kernel.name(), kernel.ports().len());
        let mut inputs = vec![kv_pages(300, 10); ports];
        inputs[bad_port] = poisoned(inputs[bad_port].clone(), 1);
        let spill = SpillContext::unbounded();
        let (err, read) = run_to_fault(kernel, inputs, &spill, None);
        assert!(
            matches!(&err, ExecError::InputPageMismatch { op: o, .. } if *o == op),
            "{op}: {err:?}"
        );
        // Only what the one good page before it produced came through:
        // a filter's page, or 256 outer rows paired with 300 inner ones
        // at 128 pairs a page.
        assert!(read <= 256 * 300 / 128, "{op}: {read} pages");
    }
}
