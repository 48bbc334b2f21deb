//! Shared helpers for operator unit tests.

use crate::cost::OpCost;
use crate::error::{ExecError, FaultCell};
use crate::ops::{Fanout, Kernel, OperatorShell, Pages, ScanKernel};
use crate::wiring::{page_rows, run_and_collect};
use cordoba_sim::channel::{self, Receiver, Recv};
use cordoba_sim::{Simulator, Step, Task, TaskCtx};
use cordoba_storage::{Page, Schema, TableBuilder, Value};
use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;

/// `rows` as pages of `schema`, at the default page size.
pub(crate) fn pages_of(schema: &Arc<Schema>, rows: &[Vec<Value>]) -> Vec<Arc<Page>> {
    let mut tb = TableBuilder::new("t", schema.clone());
    for r in rows {
        tb.push_row(r);
    }
    tb.finish().pages().to_vec()
}

/// Runs a kernel to its end with no task around it, as the shell would
/// call it: each input's pages then its close, port after port, then
/// `drain` until it reports its last call. Returns the emitted rows.
pub(crate) fn drive(
    kernel: &mut dyn Kernel,
    inputs: &[&[Arc<Page>]],
) -> Result<Vec<Vec<Value>>, ExecError> {
    let mut out = Pages::new();
    for (port, pages) in inputs.iter().enumerate() {
        for page in *pages {
            kernel.on_page(port, page, &mut out)?;
        }
        kernel.on_close(port, &mut out)?;
    }
    while !kernel.drain(&mut out)?.last {}
    Ok(page_rows(&out))
}

/// A scan over `pages` behind the shell, delivering to `fanout`.
pub(crate) fn scan_task(pages: Vec<Arc<Page>>, cost: OpCost, fanout: Fanout) -> Box<dyn Task> {
    let scan = Box::new(ScanKernel::new(pages, cost));
    Box::new(OperatorShell::new(
        scan,
        vec![],
        fanout,
        FaultCell::default(),
    ))
}

/// Runs `kernel` behind an [`OperatorShell`] on a two-context
/// simulator, a scan feeding each input and a collecting sink on the
/// output. Returns the rows the sink saw; a failure is in `fault`.
pub(crate) fn run_shell(
    kernel: Box<dyn Kernel>,
    inputs: Vec<Vec<Arc<Page>>>,
    fault: &FaultCell,
) -> Vec<Vec<Value>> {
    let mut sim = Simulator::new(2);
    let mut rxs = Vec::new();
    for (i, pages) in inputs.into_iter().enumerate() {
        let (tx, rx) = channel::bounded(4);
        let fanout = Fanout::new(vec![tx.into()], 0.0);
        sim.spawn(
            format!("scan{i}"),
            scan_task(pages, OpCost::default(), fanout),
        );
        rxs.push(rx.into());
    }
    let (tx, rx) = channel::bounded(4);
    let fanout = Fanout::new(vec![tx.into()], 0.0);
    let shell = OperatorShell::new(kernel, rxs, fanout, fault.clone());
    sim.spawn("op", Box::new(shell));
    // `fault` stays the caller's to read; a stalled graph fails here.
    let rows = run_and_collect(&mut sim, rx, OpCost::default(), &FaultCell::default());
    assert!(rows.is_ok(), "every task finishes: {rows:?}");
    rows.unwrap_or_default()
}

/// Drains a page stream, counting rows.
pub(crate) struct CountingSink {
    pub rx: Receiver<Arc<Page>>,
    pub rows: Rc<Cell<usize>>,
}

impl Task for CountingSink {
    fn step(&mut self, ctx: &mut TaskCtx<'_>) -> Step {
        match self.rx.try_recv(ctx) {
            Recv::Value(p) => {
                self.rows.set(self.rows.get() + p.rows());
                Step::yielded(1)
            }
            Recv::Empty => Step::blocked(0),
            Recv::Closed => Step::done(0),
        }
    }
}
