//! Streaming projection, vectorized: the expression list compiles once
//! into one [`CompiledExprs`] program (shared columns and
//! sub-expressions evaluate once), each page is evaluated
//! column-at-a-time into a row-major scratch buffer, and finished rows
//! move into output pages as raw bytes — no per-tuple expression
//! dispatch and no [`cordoba_storage::Value`] materialization on the
//! hot path.

use crate::cost::OpCost;
use crate::error::ExecError;
use crate::expr::ScalarExpr;
use crate::ops::{Fanout, Outbox};
use crate::vexpr::{CompiledExprs, ExprScratch};
use cordoba_sim::channel::{Receiver, Recv};
use cordoba_sim::{Step, Task, TaskCtx};
use cordoba_storage::{Page, PageBuilder, Schema};
use std::sync::Arc;

/// Projection task.
pub struct ProjectTask {
    rx: Receiver<Arc<Page>>,
    compiled: CompiledExprs,
    out_schema: Arc<Schema>,
    cost: OpCost,
    builder: PageBuilder,
    outbox: Outbox,
    input_closed: bool,
    flushed_tail: bool,
    scratch: ExprScratch,
    row_bytes: Vec<u8>,
}

impl ProjectTask {
    /// Creates a projection producing `out_schema` rows via `exprs`,
    /// compiled here against the input `in_schema`; expressions that do
    /// not type-check err before any task is spawned.
    pub fn new(
        rx: Receiver<Arc<Page>>,
        in_schema: Arc<Schema>,
        out_schema: Arc<Schema>,
        exprs: Vec<ScalarExpr>,
        cost: OpCost,
        fanout: Fanout,
    ) -> Result<Self, ExecError> {
        if exprs.len() != out_schema.len() {
            return Err(ExecError::plan(format!(
                "projection has {} expressions for {} output fields",
                exprs.len(),
                out_schema.len()
            )));
        }
        Ok(Self {
            rx,
            compiled: CompiledExprs::compile(&exprs, &in_schema)?,
            out_schema: out_schema.clone(),
            cost,
            builder: PageBuilder::new(out_schema),
            outbox: Outbox::new(fanout),
            input_closed: false,
            flushed_tail: false,
            scratch: ExprScratch::default(),
            row_bytes: Vec::new(),
        })
    }

    /// Overrides the output page size (tests and ablations).
    pub fn with_output_page_size(mut self, page_size: usize) -> Self {
        self.builder = PageBuilder::with_page_size(self.out_schema.clone(), page_size);
        self
    }
}

impl Task for ProjectTask {
    fn step(&mut self, ctx: &mut TaskCtx<'_>) -> Step {
        let (mut cost, drained) = self.outbox.flush(ctx);
        if !drained {
            return Step::blocked(cost);
        }
        if self.input_closed {
            if !self.flushed_tail {
                self.flushed_tail = true;
                if !self.builder.is_empty() {
                    let page = self.builder.finish_and_reset();
                    self.outbox.push(page);
                    let (c, drained) = self.outbox.flush(ctx);
                    cost += c;
                    if !drained {
                        return Step::blocked(cost);
                    }
                }
            }
            self.outbox.close(ctx);
            return Step::done(cost);
        }
        match self.rx.try_recv(ctx) {
            Recv::Value(page) => {
                let n = page.rows();
                cost += self.cost.input_cost(n);
                ctx.add_progress(n as f64);
                let w = self.out_schema.row_width();
                self.compiled.encode_rows(
                    &page,
                    &mut self.scratch,
                    &self.out_schema,
                    &mut self.row_bytes,
                );
                for row in self.row_bytes.chunks_exact(w) {
                    if self.builder.is_full() {
                        let full = self.builder.finish_and_reset();
                        self.outbox.push(full);
                    }
                    assert!(self.builder.push_raw(row), "builder cannot be full here");
                }
                if self.builder.is_full() {
                    let full = self.builder.finish_and_reset();
                    self.outbox.push(full);
                }
                let (c, drained) = self.outbox.flush(ctx);
                cost += c;
                if drained {
                    Step::yielded(cost)
                } else {
                    Step::blocked(cost)
                }
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
    use crate::ops::testutil::CollectingSink;
    use crate::ops::ScanTask;
    use cordoba_sim::channel;
    use cordoba_sim::Simulator;
    use cordoba_storage::{DataType, Field, TableBuilder, Value};
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn project_computes_expressions() {
        let schema = Schema::new(vec![
            Field::new("q", DataType::Float),
            Field::new("p", DataType::Float),
        ]);
        let mut tb = TableBuilder::new("t", schema.clone());
        tb.push_row(&[Value::Float(2.0), Value::Float(10.0)]);
        tb.push_row(&[Value::Float(3.0), Value::Float(5.0)]);
        let table = tb.finish();

        let out_schema = Schema::new(vec![Field::new("rev", DataType::Float)]);
        let exprs = vec![ScalarExpr::Mul(
            Box::new(ScalarExpr::col(0)),
            Box::new(ScalarExpr::col(1)),
        )];

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
            "project",
            Box::new(
                ProjectTask::new(
                    rx1,
                    schema,
                    out_schema,
                    exprs,
                    OpCost::default(),
                    Fanout::new(vec![tx2], 0.0),
                )
                .expect("expressions compile"),
            ),
        );
        let rows = Rc::new(RefCell::new(Vec::new()));
        sim.spawn(
            "sink",
            Box::new(CollectingSink {
                rx: rx2,
                rows: rows.clone(),
            }),
        );
        assert!(sim.run_to_idle().completed_all());
        let rows = rows.borrow();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], vec![Value::Float(20.0)]);
        assert_eq!(rows[1], vec![Value::Float(15.0)]);
    }

    #[test]
    fn widening_projection_preserves_all_rows_in_order() {
        // Input rows 8 bytes; output rows 24 bytes on tiny 64-byte pages
        // (2 rows per output page): one input page yields several output
        // pages through the outbox, order preserved even with a slow,
        // small-capacity consumer.
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
        let mut tb = TableBuilder::with_page_size("t", schema.clone(), 64);
        for i in 0..64 {
            tb.push_row(&[Value::Int(i)]);
        }
        let table = tb.finish();
        let out_schema = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Int),
            Field::new("c", DataType::Int),
        ]);
        let exprs = vec![ScalarExpr::col(0), ScalarExpr::col(0), ScalarExpr::col(0)];
        let mut sim = Simulator::new(2);
        let (tx1, rx1) = channel::bounded(2);
        let (tx2, rx2) = channel::bounded(1);
        sim.spawn(
            "scan",
            Box::new(ScanTask::new(
                table.pages().to_vec(),
                OpCost::default(),
                Fanout::new(vec![tx1], 0.0),
            )),
        );
        let task = ProjectTask::new(
            rx1,
            schema,
            out_schema,
            exprs,
            OpCost::default(),
            Fanout::new(vec![tx2], 0.0),
        )
        .expect("expressions compile")
        .with_output_page_size(64);
        sim.spawn("project", Box::new(task));
        let rows = Rc::new(RefCell::new(Vec::new()));
        sim.spawn(
            "sink",
            Box::new(CollectingSink {
                rx: rx2,
                rows: rows.clone(),
            }),
        );
        assert!(sim.run_to_idle().completed_all());
        let rows = rows.borrow();
        assert_eq!(rows.len(), 64);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row, &vec![Value::Int(i as i64); 3]);
        }
    }
}
