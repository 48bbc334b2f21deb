//! Streaming filter kernel, vectorized: the predicate is compiled once
//! into a [`CompiledPredicate`] and evaluated page-at-a-time into a
//! selection vector; survivors are repacked densely into fresh pages
//! with bulk row copies ([`PageBuilder::push_selected`], over
//! [`Page::copy_rows_into`], which coalesces consecutive runs).
//!
//! What is here is the state (the compiled predicate, the page being
//! filled) and the page function; [`crate::ops::shell`] runs it as a
//! task, or a morsel worker (`parallel::MorselKernel`) calls
//! it, flushing the tail after every page.

use crate::cost::OpCost;
use crate::error::ExecError;
use crate::expr::Predicate;
use crate::ops::page_builder;
use crate::ops::shell::{Drained, Kernel, PageWork, Pages, Port};
use crate::vexpr::{CompiledPredicate, ExprScratch};
use cordoba_storage::{Page, PageBuilder, Schema};
use std::sync::Arc;

/// Filter kernel.
pub struct FilterKernel {
    schema: Arc<Schema>,
    predicate: CompiledPredicate,
    cost: OpCost,
    builder: PageBuilder,
    scratch: ExprScratch,
    sel: Vec<u32>,
}

impl FilterKernel {
    /// Creates a filter over pages of `schema`. The predicate is
    /// compiled against `schema` here, once; a predicate that does not
    /// type-check errs before any task is spawned.
    pub fn new(schema: Arc<Schema>, predicate: Predicate, cost: OpCost) -> Result<Self, ExecError> {
        Ok(Self {
            predicate: CompiledPredicate::compile(&predicate, &schema)?,
            cost,
            builder: PageBuilder::new(schema.clone()),
            schema,
            scratch: ExprScratch::default(),
            sel: Vec::new(),
        })
    }

    /// The filter with its output pages sized for rows `width` bytes
    /// wide: over a narrowed input, as many rows as the unnarrowed
    /// pages would hold.
    pub(crate) fn paged_as(self, width: usize) -> Self {
        let builder = page_builder(self.schema.clone(), width);
        Self { builder, ..self }
    }
}

impl Kernel for FilterKernel {
    fn name(&self) -> &'static str {
        "filter"
    }

    fn ports(&self) -> Vec<Port> {
        vec![("", Some(self.schema.clone()))]
    }

    fn on_page(
        &mut self,
        _: usize,
        page: &Arc<Page>,
        out: &mut Pages,
    ) -> Result<PageWork, ExecError> {
        self.predicate
            .select(page, &mut self.scratch, &mut self.sel);
        self.builder
            .push_selected(page, &self.sel, |full| out.push(full));
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
    use crate::expr::CmpOp;
    use crate::ops::testutil::drive;
    use cordoba_sim::VTime;
    use cordoba_storage::{DataType, Field, TableBuilder, Value};

    /// Rows kept of `0..rows`, fed in pages of eight.
    fn run_filter(rows: i64, predicate: Predicate) -> usize {
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
        let mut tb = TableBuilder::with_page_size("t", schema.clone(), 64);
        for i in 0..rows {
            tb.push_row(&[Value::Int(i)]);
        }
        let mut filter =
            FilterKernel::new(schema, predicate, OpCost::per_tuple(1.0)).expect("compiles");
        let kept = drive(&mut filter, &[tb.finish().pages()]).expect("never fails");
        kept.len()
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

    #[test]
    fn a_page_costs_its_input_rows_and_repacks_on_the_default_page_size() {
        // 1000 eight-byte rows over two pages, half kept: nothing is
        // emitted until the tail, each call reports its own page.
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
        let mut tb = TableBuilder::new("t", schema.clone());
        for i in 0..1000 {
            tb.push_row(&[Value::Int(i % 2)]);
        }
        let pred = Predicate::col_cmp(0, CmpOp::Eq, 1i64);
        let mut filter = FilterKernel::new(schema, pred, OpCost::per_tuple(2.0)).expect("compiles");
        let mut out = Pages::new();
        for page in tb.finish().pages() {
            let work = filter.on_page(0, page, &mut out).expect("never fails");
            let rows = page.rows();
            assert_eq!((work.cost, work.progress), (2 * rows as VTime, rows));
        }
        assert!(out.is_empty(), "500 rows fit the page in hand");
        assert_eq!(filter.drain(&mut out), Ok(Drained::LAST));
        assert_eq!(out.iter().map(|p| p.rows()).collect::<Vec<_>>(), [500]);
    }
}
