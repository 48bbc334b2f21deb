//! Streaming filter, vectorized: the predicate is compiled once into a
//! [`CompiledPredicate`] and evaluated page-at-a-time into a selection
//! vector; survivors are repacked densely into fresh pages with bulk
//! row copies ([`PageBuilder::push_selected`], over
//! [`Page::copy_rows_into`], which coalesces consecutive runs).

use crate::cost::OpCost;
use crate::error::ExecError;
use crate::expr::Predicate;
use crate::ops::Fanout;
use crate::vexpr::{CompiledPredicate, ExprScratch};
use cordoba_sim::channel::{Receiver, Recv};
use cordoba_sim::{Step, Task, TaskCtx};
use cordoba_storage::{Page, PageBuilder, Schema};
use std::sync::Arc;

/// Filter task.
pub struct FilterTask {
    rx: Receiver<Arc<Page>>,
    predicate: CompiledPredicate,
    cost: OpCost,
    builder: PageBuilder,
    fanout: Fanout,
    input_closed: bool,
    flushed: bool,
    scratch: ExprScratch,
    sel: Vec<u32>,
}

impl FilterTask {
    /// Creates a filter reading pages of `schema` from `rx`. The
    /// predicate is compiled against `schema` here, once; a predicate
    /// that does not type-check errs before any task is spawned.
    pub fn new(
        rx: Receiver<Arc<Page>>,
        schema: Arc<Schema>,
        predicate: Predicate,
        cost: OpCost,
        fanout: Fanout,
    ) -> Result<Self, ExecError> {
        Ok(Self {
            rx,
            predicate: CompiledPredicate::compile(&predicate, &schema)?,
            cost,
            builder: PageBuilder::new(schema),
            fanout,
            input_closed: false,
            flushed: false,
            scratch: ExprScratch::default(),
            sel: Vec::new(),
        })
    }
}

impl Task for FilterTask {
    fn step(&mut self, ctx: &mut TaskCtx<'_>) -> Step {
        let (mut cost, done) = self.fanout.pump(ctx);
        if !done {
            return Step::blocked(cost);
        }
        if self.input_closed {
            if !self.flushed && !self.builder.is_empty() {
                self.flushed = true;
                let page = self.builder.finish_and_reset();
                self.fanout.begin(page);
                let (c, done) = self.fanout.pump(ctx);
                cost += c;
                if !done {
                    return Step::blocked(cost);
                }
            }
            self.fanout.close(ctx);
            return Step::done(cost);
        }
        match self.rx.try_recv(ctx) {
            Recv::Value(page) => {
                let n = page.rows();
                cost += self.cost.input_cost(n);
                ctx.add_progress(n as f64);
                let mut out_page = None;
                self.predicate
                    .select(&page, &mut self.scratch, &mut self.sel);
                self.builder.push_selected(&page, &self.sel, |full| {
                    debug_assert!(out_page.is_none(), "≤1 output page per input page");
                    out_page = Some(full);
                });
                if self.builder.is_full() && out_page.is_none() {
                    out_page = Some(self.builder.finish_and_reset());
                }
                if let Some(p) = out_page {
                    self.fanout.begin(p);
                    let (c, done) = self.fanout.pump(ctx);
                    cost += c;
                    if !done {
                        return Step::blocked(cost);
                    }
                }
                Step::yielded(cost)
            }
            Recv::Empty => Step::blocked(cost),
            Recv::Closed => {
                self.input_closed = true;
                Step::yielded(cost)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;
    use crate::ops::testutil::CountingSink;
    use crate::ops::ScanTask;
    use cordoba_sim::channel;
    use cordoba_sim::Simulator;
    use cordoba_storage::{DataType, Field, TableBuilder, Value};
    use std::cell::Cell;
    use std::rc::Rc;

    fn run_filter(rows: i64, predicate: Predicate) -> usize {
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
        let mut tb = TableBuilder::with_page_size("t", schema.clone(), 64);
        for i in 0..rows {
            tb.push_row(&[Value::Int(i)]);
        }
        let table = tb.finish();
        let mut sim = Simulator::new(2);
        let (tx1, rx1) = channel::bounded(4);
        let (tx2, rx2) = channel::bounded(4);
        sim.spawn(
            "scan",
            Box::new(ScanTask::new(
                table.pages().to_vec(),
                OpCost::default(),
                Fanout::new(vec![tx1], 0.0),
            )),
        );
        sim.spawn(
            "filter",
            Box::new(
                FilterTask::new(
                    rx1,
                    schema,
                    predicate,
                    OpCost::per_tuple(1.0),
                    Fanout::new(vec![tx2], 0.0),
                )
                .expect("predicate compiles"),
            ),
        );
        let rows_out = Rc::new(Cell::new(0));
        sim.spawn(
            "sink",
            Box::new(CountingSink {
                rx: rx2,
                rows: rows_out.clone(),
            }),
        );
        assert!(sim.run_to_idle().completed_all());
        rows_out.get()
    }

    #[test]
    fn filter_selectivity() {
        assert_eq!(run_filter(100, Predicate::col_cmp(0, CmpOp::Lt, 30i64)), 30);
        assert_eq!(run_filter(100, Predicate::True), 100);
        assert_eq!(
            run_filter(100, Predicate::Not(Box::new(Predicate::True))),
            0
        );
    }

    #[test]
    fn filter_repacks_across_input_pages() {
        // Pages hold 8 rows; a 30/64 selection means output pages are
        // assembled across several input pages and the final partial
        // page is flushed when the input closes.
        let kept = run_filter(
            64,
            Predicate::And(vec![
                Predicate::col_cmp(0, CmpOp::Ge, 10i64),
                Predicate::col_cmp(0, CmpOp::Lt, 40i64),
            ]),
        );
        assert_eq!(kept, 30);
    }

    #[test]
    fn empty_input_produces_no_pages() {
        assert_eq!(run_filter(0, Predicate::True), 0);
    }
}
