//! Query sink: the root consumer. Drains result pages, optionally
//! collecting them; the completion callback the engine's closed-system client logic uses to
//! resubmit queries (Little's Law regime, paper §1.2) is the shell's
//! [`OperatorShell::on_done`](crate::ops::OperatorShell::on_done) hook.
//!
//! A kernel with one port and no consumers. Its port declares no
//! schema: the sink never reads a row, and whoever spawns it may hold
//! only the receiver. The close step ends the task, at one tick.

use crate::cost::OpCost;
use crate::error::ExecError;
use crate::ops::shell::{Kernel, PageWork, Pages, Port, PortClosed};
use cordoba_storage::Page;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// Terminal operator of a query instance.
pub struct SinkKernel {
    cost: OpCost,
    collect_into: Option<Rc<RefCell<Vec<Arc<Page>>>>>,
}

impl SinkKernel {
    /// Creates a sink that merely drains, charging `cost`'s input side
    /// per page.
    pub fn new(cost: OpCost) -> Self {
        Self {
            cost,
            collect_into: None,
        }
    }

    /// Also collect result pages into the shared buffer.
    #[must_use]
    pub fn collecting(mut self, into: Rc<RefCell<Vec<Arc<Page>>>>) -> Self {
        self.collect_into = Some(into);
        self
    }
}

impl Kernel for SinkKernel {
    fn name(&self) -> &'static str {
        "sink"
    }

    fn ports(&self) -> Vec<Port> {
        vec![("", None)]
    }

    fn on_page(
        &mut self,
        _: usize,
        page: &Arc<Page>,
        _: &mut Pages,
    ) -> Result<PageWork, ExecError> {
        if let Some(buf) = &self.collect_into {
            buf.borrow_mut().push(page.clone());
        }
        Ok(PageWork {
            cost: self.cost.input_cost(page.rows()),
            progress: page.rows(),
        })
    }

    fn on_close(&mut self, _: usize, _: &mut Pages) -> Result<PortClosed, ExecError> {
        Ok(PortClosed {
            cost: 0,
            min_tick: 1,
            last: true,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::FaultCell;
    use crate::ops::testutil::scan_task;
    use crate::ops::{Fanout, OperatorShell};
    use cordoba_sim::channel::{self, Receiver};
    use cordoba_sim::{Simulator, Step, Task, TaskCtx};
    use cordoba_storage::{DataType, Field, Schema, TableBuilder, Value};
    use std::cell::Cell;

    /// `kernel` behind the shell, reading `rx`.
    fn sink(rx: Receiver<Arc<Page>>, kernel: SinkKernel) -> OperatorShell {
        let fanout = Fanout::none();
        OperatorShell::new(
            Box::new(kernel),
            vec![rx.into()],
            fanout,
            FaultCell::default(),
        )
    }

    fn pages(n: usize) -> Vec<Arc<Page>> {
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
        let mut tb = TableBuilder::with_page_size("t", schema, 64);
        for i in 0..n {
            tb.push_row(&[Value::Int(i as i64)]);
        }
        tb.finish().pages().to_vec()
    }

    #[test]
    fn sink_counts_and_calls_back() {
        let mut sim = Simulator::new(1);
        let (tx, rx) = channel::bounded(4);
        sim.spawn(
            "scan",
            scan_task(
                pages(20),
                OpCost::default(),
                Fanout::new(vec![tx.into()], 0.0),
            ),
        );
        let seen = Rc::new(Cell::new(0u64));
        let seen2 = seen.clone();
        let buf = Rc::new(RefCell::new(Vec::<Arc<Page>>::new()));
        let rows = buf.clone();
        let kernel = SinkKernel::new(OpCost::default()).collecting(buf);
        sim.spawn(
            "sink",
            Box::new(sink(rx, kernel).on_done(Box::new(move |_| {
                seen2.set(rows.borrow().iter().map(|p| p.rows() as u64).sum());
            }))),
        );
        assert!(sim.run_to_idle().completed_all());
        assert_eq!(seen.get(), 20);
    }

    #[test]
    fn collecting_sink_keeps_pages() {
        let mut sim = Simulator::new(1);
        let (tx, rx) = channel::bounded(4);
        sim.spawn(
            "scan",
            scan_task(
                pages(20),
                OpCost::default(),
                Fanout::new(vec![tx.into()], 0.0),
            ),
        );
        let buf = Rc::new(RefCell::new(Vec::new()));
        sim.spawn(
            "sink",
            Box::new(sink(
                rx,
                SinkKernel::new(OpCost::default()).collecting(buf.clone()),
            )),
        );
        assert!(sim.run_to_idle().completed_all());
        let total: usize = buf.borrow().iter().map(|p| p.rows()).sum();
        assert_eq!(total, 20);
    }

    #[test]
    fn callback_can_spawn_replacement_queries() {
        // Closed-system pattern: a finished sink spawns the next query.
        let mut sim = Simulator::new(1);
        let (tx, rx) = channel::bounded(4);
        sim.spawn(
            "scan",
            scan_task(
                pages(4),
                OpCost::default(),
                Fanout::new(vec![tx.into()], 0.0),
            ),
        );
        sim.spawn(
            "sink",
            Box::new(
                sink(rx, SinkKernel::new(OpCost::default())).on_done(Box::new(|ctx| {
                    struct Follow;
                    impl Task for Follow {
                        fn step(&mut self, _: &mut TaskCtx<'_>) -> Step {
                            Step::done(5)
                        }
                    }
                    ctx.spawn("follow-up", Box::new(Follow));
                })),
            ),
        );
        let out = sim.run_to_idle();
        assert!(out.completed_all());
        assert_eq!(sim.all_task_stats().count(), 3);
    }
}
