//! Block nested-loop join: materializes the inner side, then streams the
//! outer side, testing an arbitrary predicate over each (outer, inner)
//! pair. Fully general but O(|outer| · |inner|) — used for small inputs
//! and as a join oracle in tests.
//!
//! The predicate compiles **once** into a [`CompiledPredicate`] over the
//! pair schema. Candidate pairs are assembled page-at-a-time into a
//! reused candidate page (outer row bytes ++ inner row bytes), the
//! compiled program evaluates the whole page into a selection vector,
//! and survivors move to the output with bulk row copies — replacing
//! the old one-row-page-per-pair `Predicate::eval` loop. The inner side
//! lands in one contiguous arena (a bulk payload copy per page, no
//! boxed row per tuple).
//!
//! What is here is the kernel: the inner arena, the candidate page and
//! the pairing function. [`crate::ops::shell`] runs it as a task,
//! reading the inner input to its end before the outer one.

use crate::cost::OpCost;
use crate::error::ExecError;
use crate::expr::Predicate;
use crate::ops::shell::{Drained, Kernel, PageWork, Pages, Port, PortClosed};
use crate::vexpr::{CompiledPredicate, ExprScratch};
use cordoba_storage::{Page, PageBuilder, Schema};
use std::sync::Arc;

/// Nested-loop join kernel.
pub struct NljKernel {
    outer_schema: Arc<Schema>,
    inner_schema: Arc<Schema>,
    predicate: CompiledPredicate,
    cost: OpCost,
    /// Materialized inner rows, contiguous.
    inner_arena: Vec<u8>,
    inner_rows: usize,
    builder: PageBuilder,
    /// Reused candidate-pair page under construction.
    candidates: PageBuilder,
    /// The partly filled last page has been emitted.
    flushed: bool,
    scratch: ExprScratch,
    sel: Vec<u32>,
}

impl NljKernel {
    /// Creates a nested-loop join of `outer_schema` rows with
    /// `inner_schema` rows. `pair_schema` is outer ++ inner (the output
    /// schema); the predicate is compiled against it here, once, erring
    /// on type mismatches or out-of-range columns.
    pub fn new(
        outer_schema: Arc<Schema>,
        inner_schema: Arc<Schema>,
        predicate: Predicate,
        pair_schema: Arc<Schema>,
        cost: OpCost,
    ) -> Result<Self, ExecError> {
        Ok(Self {
            outer_schema,
            inner_schema,
            predicate: CompiledPredicate::compile(&predicate, &pair_schema)?,
            cost,
            inner_arena: Vec::new(),
            inner_rows: 0,
            builder: PageBuilder::new(pair_schema.clone()),
            candidates: PageBuilder::new(pair_schema),
            flushed: false,
            scratch: ExprScratch::default(),
            sel: Vec::new(),
        })
    }

    /// Evaluates the buffered candidate page and moves the selected
    /// pairs into the output builder (full output pages go to `out`).
    fn flush_candidates(&mut self, out: &mut Pages) {
        if self.candidates.is_empty() {
            return;
        }
        let page = self.candidates.finish_and_reset();
        self.predicate
            .select(&page, &mut self.scratch, &mut self.sel);
        self.builder
            .push_selected(&page, &self.sel, |full| out.push(full));
        if self.builder.is_full() {
            out.push(self.builder.finish_and_reset());
        }
    }

    /// Pairs one outer page against the whole inner arena through the
    /// candidate page.
    fn stream_page(&mut self, page: &Page, out: &mut Pages) {
        if self.inner_rows == 0 {
            return; // empty inner: inner join emits nothing
        }
        // Detach the arena so the pair loop can borrow it while the
        // candidate builder (also `self`) fills and flushes.
        let arena = std::mem::take(&mut self.inner_arena);
        for t in page.tuples() {
            let outer = t.raw();
            for inner in arena.chunks_exact(self.inner_schema.row_width()) {
                if !self.candidates.push_raw_parts(outer, inner) {
                    self.flush_candidates(out);
                    let pushed = self.candidates.push_raw_parts(outer, inner);
                    debug_assert!(pushed, "candidate page just flushed");
                }
            }
        }
        self.inner_arena = arena;
        self.flush_candidates(out);
    }
}

impl Kernel for NljKernel {
    fn name(&self) -> &'static str {
        "nested-loop join"
    }

    /// The inner input is read to its end before the outer input.
    fn ports(&self) -> Vec<Port> {
        vec![
            ("inner input", Some(self.inner_schema.clone())),
            ("outer input", Some(self.outer_schema.clone())),
        ]
    }

    fn on_page(
        &mut self,
        port: usize,
        page: &Arc<Page>,
        out: &mut Pages,
    ) -> Result<PageWork, ExecError> {
        let n = page.rows();
        if port == 0 {
            // Loading the inner side is no forward progress yet.
            self.inner_rows += n;
            self.inner_arena.extend_from_slice(page.payload());
            return Ok(PageWork {
                cost: self.cost.input_cost(n),
                progress: 0,
            });
        }
        self.stream_page(page, out);
        Ok(PageWork {
            // Pair-examination cost: every (outer, inner) pair.
            cost: self.cost.input_cost(n * self.inner_rows.max(1)),
            progress: n,
        })
    }

    /// Either input's end is a step of its own, a tick at least.
    fn on_close(&mut self, _: usize, _: &mut Pages) -> Result<PortClosed, ExecError> {
        Ok(PortClosed {
            cost: 0,
            min_tick: 1,
            last: false,
        })
    }

    /// The partly filled last page, then the closing call.
    fn drain(&mut self, out: &mut Pages) -> Result<Drained, ExecError> {
        if self.flushed {
            return Ok(Drained::LAST);
        }
        if !self.builder.is_empty() {
            out.push(self.builder.finish_and_reset());
        }
        self.flushed = true;
        Ok(Drained::batch(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{CmpOp, ScalarExpr};
    use crate::ops::testutil::{drive, pages_of};
    use crate::plan::concat_schemas;
    use cordoba_storage::{DataType, Field, Value};

    /// `a <op> b` over every (outer `a`, inner `b`) pair.
    fn run_nlj(op: CmpOp, outer: &[i64], inner: &[i64]) -> Vec<Vec<Value>> {
        let ls = Schema::new(vec![Field::new("a", DataType::Int)]);
        let rs = Schema::new(vec![Field::new("b", DataType::Int)]);
        let rows =
            |vs: &[i64]| -> Vec<Vec<Value>> { vs.iter().map(|&v| vec![Value::Int(v)]).collect() };
        let inputs = [pages_of(&rs, &rows(inner)), pages_of(&ls, &rows(outer))];
        let pred = Predicate::Cmp {
            left: ScalarExpr::col(0),
            op,
            right: ScalarExpr::col(1),
        };
        let pair = concat_schemas(&ls, &rs);
        let mut nlj =
            NljKernel::new(ls, rs, pred, pair, OpCost::default()).expect("predicate compiles");
        drive(&mut nlj, &[&inputs[0], &inputs[1]]).expect("never fails")
    }

    #[test]
    fn equi_predicate_matches_hash_join_inner() {
        let mut got = run_nlj(CmpOp::Eq, &[1, 2, 3], &[2, 3, 4, 3]);
        got.sort_by_key(|r| (r[0].as_int(), r[1].as_int()));
        assert_eq!(
            got,
            vec![
                vec![Value::Int(2), Value::Int(2)],
                vec![Value::Int(3), Value::Int(3)],
                vec![Value::Int(3), Value::Int(3)],
            ]
        );
    }

    #[test]
    fn inequality_predicate_band_join() {
        // a < b: band joins are NLJ's raison d'être.
        let got = run_nlj(CmpOp::Lt, &[1, 5], &[3, 6]);
        // pairs: (1,3),(1,6),(5,6)
        assert_eq!(got.len(), 3);
    }

    #[test]
    fn mistyped_predicate_errors_at_construction() {
        let ls = Schema::new(vec![Field::new("a", DataType::Int)]);
        let rs = Schema::new(vec![Field::new("b", DataType::Str(4))]);
        let pair = concat_schemas(&ls, &rs);
        // Int vs Str comparison: incomparable, caught before any task
        // is spawned.
        let pred = Predicate::Cmp {
            left: ScalarExpr::col(0),
            op: CmpOp::Eq,
            right: ScalarExpr::col(1),
        };
        let err = NljKernel::new(ls, rs, pred, pair, OpCost::default())
            .err()
            .expect("constructor must reject");
        assert!(err.to_string().contains("incomparable"), "{err}");
    }

    #[test]
    fn loading_the_inner_side_is_charged_but_is_no_progress() {
        let s = Schema::new(vec![Field::new("a", DataType::Int)]);
        let pair = concat_schemas(&s, &s);
        let page = &pages_of(&s, &[vec![Value::Int(1)], vec![Value::Int(2)]])[0];
        let mut nlj = NljKernel::new(s.clone(), s, Predicate::True, pair, OpCost::default())
            .expect("compiles");
        let mut out = Pages::new();
        let work = |cost, progress| Ok(PageWork { cost, progress });
        assert_eq!(nlj.on_page(0, page, &mut out), work(2, 0));
        assert_eq!(nlj.on_page(1, page, &mut out), work(4, 2), "2 x 2 pairs");
    }
}
