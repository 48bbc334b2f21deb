//! Streaming projection kernel, vectorized: the expression list
//! compiles once into one [`CompiledExprs`] program (shared columns and
//! sub-expressions evaluate once), each page is evaluated
//! column-at-a-time into a row-major scratch buffer, and finished rows
//! move into output pages as raw bytes — no per-tuple expression
//! dispatch and no [`cordoba_storage::Value`] materialization on the
//! hot path.
//!
//! What is here is the state (the program, the page being filled) and
//! the page function; [`crate::ops::shell`] runs it as a task, or a
//! morsel worker (`parallel::MorselKernel`) calls it, flushing
//! the tail after every page.

use crate::cost::OpCost;
use crate::error::ExecError;
use crate::expr::ScalarExpr;
use crate::ops::shell::{Drained, Kernel, PageWork, Pages, Port};
use crate::vexpr::{CompiledExprs, ExprScratch};
use cordoba_storage::{Page, PageBuilder, Schema};
use std::sync::Arc;

/// Projection kernel.
pub struct ProjectKernel {
    in_schema: Arc<Schema>,
    compiled: CompiledExprs,
    out_schema: Arc<Schema>,
    cost: OpCost,
    builder: PageBuilder,
    scratch: ExprScratch,
    row_bytes: Vec<u8>,
}

impl ProjectKernel {
    /// Creates a projection producing `out_schema` rows via `exprs`,
    /// compiled here against the input `in_schema`; expressions that do
    /// not type-check err before any task is spawned.
    pub fn new(
        in_schema: Arc<Schema>,
        out_schema: Arc<Schema>,
        exprs: Vec<ScalarExpr>,
        cost: OpCost,
    ) -> Result<Self, ExecError> {
        if exprs.len() != out_schema.len() {
            return Err(ExecError::plan(format!(
                "projection has {} expressions for {} output fields",
                exprs.len(),
                out_schema.len()
            )));
        }
        Ok(Self {
            compiled: CompiledExprs::compile(&exprs, &in_schema)?,
            in_schema,
            builder: PageBuilder::new(out_schema.clone()),
            out_schema,
            cost,
            scratch: ExprScratch::default(),
            row_bytes: Vec::new(),
        })
    }
}

impl Kernel for ProjectKernel {
    fn name(&self) -> &'static str {
        "project"
    }

    fn ports(&self) -> Vec<Port> {
        vec![("", Some(self.in_schema.clone()))]
    }

    fn on_page(
        &mut self,
        _: usize,
        page: &Arc<Page>,
        out: &mut Pages,
    ) -> Result<PageWork, ExecError> {
        let (schema, rows) = (&self.out_schema, &mut self.row_bytes);
        self.compiled
            .encode_rows(page, &mut self.scratch, schema, rows);
        for row in self.row_bytes.chunks_exact(schema.row_width()) {
            if self.builder.is_full() {
                out.push(self.builder.finish_and_reset());
            }
            assert!(self.builder.push_raw(row), "builder cannot be full here");
        }
        if self.builder.is_full() {
            out.push(self.builder.finish_and_reset());
        }
        Ok(PageWork {
            cost: self.cost.input_cost(page.rows()),
            progress: page.rows(),
        })
    }

    /// The partly filled tail page, if any.
    fn drain(&mut self, out: &mut Pages) -> Result<Drained, ExecError> {
        if !self.builder.is_empty() {
            out.push(self.builder.finish_and_reset());
        }
        Ok(Drained::LAST)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::testutil::{drive, pages_of};
    use cordoba_storage::{DataType, Field, Value, PAGE_SIZE};

    #[test]
    fn project_computes_expressions() {
        let schema = Schema::new(vec![
            Field::new("q", DataType::Float),
            Field::new("p", DataType::Float),
        ]);
        let pages = pages_of(
            &schema,
            &[
                vec![Value::Float(2.0), Value::Float(10.0)],
                vec![Value::Float(3.0), Value::Float(5.0)],
            ],
        );
        let out_schema = Schema::new(vec![Field::new("rev", DataType::Float)]);
        let exprs = vec![ScalarExpr::Mul(
            Box::new(ScalarExpr::col(0)),
            Box::new(ScalarExpr::col(1)),
        )];
        let mut project = ProjectKernel::new(schema, out_schema, exprs, OpCost::default())
            .expect("expressions compile");
        let rows = drive(&mut project, &[&pages]).expect("never fails");
        assert_eq!(rows, [[Value::Float(20.0)], [Value::Float(15.0)]]);
    }

    #[test]
    fn widening_projection_preserves_all_rows_in_order() {
        // Input rows 8 bytes, output rows 24: every full input page
        // yields three output pages from one call, order preserved, and
        // only the tail waits for the close.
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
        let n = 2 * (PAGE_SIZE / 8) + 100;
        let rows: Vec<Vec<Value>> = (0..n as i64).map(|i| vec![Value::Int(i)]).collect();
        let pages = pages_of(&schema, &rows);
        let out_schema = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Int),
            Field::new("c", DataType::Int),
        ]);
        let exprs = vec![ScalarExpr::col(0), ScalarExpr::col(0), ScalarExpr::col(0)];
        let mut project = ProjectKernel::new(schema, out_schema, exprs, OpCost::default())
            .expect("expressions compile");
        let mut out = Pages::new();
        project.on_page(0, &pages[0], &mut out).expect("page");
        assert_eq!(out.len(), 3, "one input page widened into three");
        let rows = drive(&mut project, &[&pages[1..]]).expect("never fails");
        let first = crate::wiring::page_rows(&out);
        assert_eq!(first.len() + rows.len(), n);
        for (i, row) in first.iter().chain(&rows).enumerate() {
            assert_eq!(row, &vec![Value::Int(i as i64); 3]);
        }
    }
}
