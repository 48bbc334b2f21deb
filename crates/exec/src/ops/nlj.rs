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

use crate::cost::OpCost;
use crate::error::ExecError;
use crate::expr::Predicate;
use crate::ops::{Fanout, Outbox};
use crate::vexpr::{CompiledPredicate, ExprScratch};
use cordoba_sim::channel::{Receiver, Recv};
use cordoba_sim::{Step, Task, TaskCtx};
use cordoba_storage::{Page, PageBuilder, Schema};
use std::sync::Arc;

enum PhaseState {
    LoadingInner,
    Streaming,
    Flushing,
    Done,
}

/// Nested-loop join task.
pub struct NestedLoopJoinTask {
    rx_outer: Receiver<Arc<Page>>,
    rx_inner: Receiver<Arc<Page>>,
    predicate: CompiledPredicate,
    cost: OpCost,
    /// Materialized inner rows, contiguous.
    inner_arena: Vec<u8>,
    /// Byte width of one inner row (set when the first page arrives).
    inner_width: usize,
    inner_rows: usize,
    builder: PageBuilder,
    /// Reused candidate-pair page under construction.
    candidates: PageBuilder,
    outbox: Outbox,
    state: PhaseState,
    scratch: ExprScratch,
    sel: Vec<u32>,
}

impl NestedLoopJoinTask {
    /// Creates a nested-loop join. `pair_schema` is outer ++ inner (the
    /// output schema); the predicate is compiled against it here, once,
    /// erring on type mismatches or out-of-range columns.
    pub fn new(
        rx_outer: Receiver<Arc<Page>>,
        rx_inner: Receiver<Arc<Page>>,
        predicate: Predicate,
        pair_schema: Arc<Schema>,
        cost: OpCost,
        fanout: Fanout,
    ) -> Result<Self, ExecError> {
        Ok(Self {
            rx_outer,
            rx_inner,
            predicate: CompiledPredicate::compile(&predicate, &pair_schema)?,
            cost,
            inner_arena: Vec::new(),
            inner_width: 0,
            inner_rows: 0,
            builder: PageBuilder::new(pair_schema.clone()),
            candidates: PageBuilder::new(pair_schema),
            outbox: Outbox::new(fanout),
            state: PhaseState::LoadingInner,
            scratch: ExprScratch::default(),
            sel: Vec::new(),
        })
    }

    /// Evaluates the buffered candidate page and moves the selected
    /// pairs into the output builder (full output pages go to the
    /// outbox).
    fn flush_candidates(&mut self) {
        if self.candidates.is_empty() {
            return;
        }
        let page = self.candidates.finish_and_reset();
        self.predicate
            .select(&page, &mut self.scratch, &mut self.sel);
        let outbox = &mut self.outbox;
        self.builder
            .push_selected(&page, &self.sel, |full| outbox.push(full));
        if self.builder.is_full() {
            self.outbox.push(self.builder.finish_and_reset());
        }
    }

    /// Pairs one outer page against the whole inner arena through the
    /// candidate page.
    fn stream_page(&mut self, page: &Page) {
        if self.inner_rows == 0 {
            return; // empty inner: inner join emits nothing
        }
        // Detach the arena so the pair loop can borrow it while the
        // candidate builder (also `self`) fills and flushes.
        let arena = std::mem::take(&mut self.inner_arena);
        for t in page.tuples() {
            let outer = t.raw();
            for inner in arena.chunks_exact(self.inner_width) {
                if !self.candidates.push_raw_parts(outer, inner) {
                    self.flush_candidates();
                    let pushed = self.candidates.push_raw_parts(outer, inner);
                    debug_assert!(pushed, "candidate page just flushed");
                }
            }
        }
        self.inner_arena = arena;
        self.flush_candidates();
    }
}

impl Task for NestedLoopJoinTask {
    fn step(&mut self, ctx: &mut TaskCtx<'_>) -> Step {
        let (mut cost, drained) = self.outbox.flush(ctx);
        if !drained {
            return Step::blocked(cost);
        }
        match self.state {
            PhaseState::LoadingInner => match self.rx_inner.try_recv(ctx) {
                Recv::Value(page) => {
                    let n = page.rows();
                    cost += self.cost.input_cost(n);
                    self.inner_width = page.schema().row_width();
                    self.inner_rows += n;
                    self.inner_arena.extend_from_slice(page.payload());
                    Step::yielded(cost)
                }
                Recv::Empty => Step::blocked(cost),
                Recv::Closed => {
                    self.state = PhaseState::Streaming;
                    Step::yielded(cost.max(1))
                }
            },
            PhaseState::Streaming => match self.rx_outer.try_recv(ctx) {
                Recv::Value(page) => {
                    let n = page.rows();
                    // Pair-examination cost: every (outer, inner) pair.
                    cost += self.cost.input_cost(n * self.inner_rows.max(1));
                    ctx.add_progress(n as f64);
                    self.stream_page(&page);
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
                    self.state = PhaseState::Flushing;
                    Step::yielded(cost.max(1))
                }
            },
            PhaseState::Flushing => {
                if !self.builder.is_empty() {
                    let tail = self.builder.finish_and_reset();
                    self.outbox.push(tail);
                }
                self.state = PhaseState::Done;
                let (c, drained) = self.outbox.flush(ctx);
                cost += c + 1;
                if drained {
                    Step::yielded(cost)
                } else {
                    Step::blocked(cost)
                }
            }
            PhaseState::Done => {
                self.outbox.close(ctx);
                Step::done(cost)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{CmpOp, ScalarExpr};
    use crate::ops::testutil::CollectingSink;
    use crate::ops::ScanTask;
    use crate::plan::concat_schemas;
    use cordoba_sim::channel;
    use cordoba_sim::Simulator;
    use cordoba_storage::{DataType, Field, TableBuilder, Value};
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn equi_predicate_matches_hash_join_inner() {
        let ls = Schema::new(vec![Field::new("a", DataType::Int)]);
        let rs = Schema::new(vec![Field::new("b", DataType::Int)]);
        let mut lt = TableBuilder::new("l", ls.clone());
        for v in [1i64, 2, 3] {
            lt.push_row(&[Value::Int(v)]);
        }
        let mut rt = TableBuilder::new("r", rs.clone());
        for v in [2i64, 3, 4, 3] {
            rt.push_row(&[Value::Int(v)]);
        }
        let pair = concat_schemas(&ls, &rs);
        let pred = Predicate::Cmp {
            left: ScalarExpr::col(0),
            op: CmpOp::Eq,
            right: ScalarExpr::col(1),
        };
        let mut sim = Simulator::new(2);
        let (txo, rxo) = channel::bounded(4);
        let (txi, rxi) = channel::bounded(4);
        let (txout, rxout) = channel::bounded(4);
        sim.spawn(
            "outer",
            Box::new(ScanTask::new(
                lt.finish().pages().to_vec(),
                OpCost::default(),
                Fanout::new(vec![txo], 0.0),
            )),
        );
        sim.spawn(
            "inner",
            Box::new(ScanTask::new(
                rt.finish().pages().to_vec(),
                OpCost::default(),
                Fanout::new(vec![txi], 0.0),
            )),
        );
        sim.spawn(
            "nlj",
            Box::new(
                NestedLoopJoinTask::new(
                    rxo,
                    rxi,
                    pred,
                    pair,
                    OpCost::default(),
                    Fanout::new(vec![txout], 0.0),
                )
                .expect("predicate compiles"),
            ),
        );
        let out = Rc::new(RefCell::new(Vec::new()));
        sim.spawn(
            "sink",
            Box::new(CollectingSink {
                rx: rxout,
                rows: out.clone(),
            }),
        );
        assert!(sim.run_to_idle().completed_all());
        let mut got = out.borrow().clone();
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
        let ls = Schema::new(vec![Field::new("a", DataType::Int)]);
        let rs = Schema::new(vec![Field::new("b", DataType::Int)]);
        let mut lt = TableBuilder::new("l", ls.clone());
        for v in [1i64, 5] {
            lt.push_row(&[Value::Int(v)]);
        }
        let mut rt = TableBuilder::new("r", rs.clone());
        for v in [3i64, 6] {
            rt.push_row(&[Value::Int(v)]);
        }
        let pair = concat_schemas(&ls, &rs);
        let pred = Predicate::Cmp {
            left: ScalarExpr::col(0),
            op: CmpOp::Lt,
            right: ScalarExpr::col(1),
        };
        let mut sim = Simulator::new(1);
        let (txo, rxo) = channel::bounded(4);
        let (txi, rxi) = channel::bounded(4);
        let (txout, rxout) = channel::bounded(4);
        sim.spawn(
            "outer",
            Box::new(ScanTask::new(
                lt.finish().pages().to_vec(),
                OpCost::default(),
                Fanout::new(vec![txo], 0.0),
            )),
        );
        sim.spawn(
            "inner",
            Box::new(ScanTask::new(
                rt.finish().pages().to_vec(),
                OpCost::default(),
                Fanout::new(vec![txi], 0.0),
            )),
        );
        sim.spawn(
            "nlj",
            Box::new(
                NestedLoopJoinTask::new(
                    rxo,
                    rxi,
                    pred,
                    pair,
                    OpCost::default(),
                    Fanout::new(vec![txout], 0.0),
                )
                .expect("predicate compiles"),
            ),
        );
        let out = Rc::new(RefCell::new(Vec::new()));
        sim.spawn(
            "sink",
            Box::new(CollectingSink {
                rx: rxout,
                rows: out.clone(),
            }),
        );
        assert!(sim.run_to_idle().completed_all());
        // pairs: (1,3),(1,6),(5,6)
        assert_eq!(out.borrow().len(), 3);
    }

    #[test]
    fn mistyped_predicate_errors_at_construction() {
        let ls = Schema::new(vec![Field::new("a", DataType::Int)]);
        let rs = Schema::new(vec![Field::new("b", DataType::Str(4))]);
        let pair = concat_schemas(&ls, &rs);
        let (_txo, rxo) = channel::bounded::<Arc<Page>>(1);
        let (_txi, rxi) = channel::bounded::<Arc<Page>>(1);
        // Int vs Str comparison: incomparable, caught before any task
        // is spawned.
        let pred = Predicate::Cmp {
            left: ScalarExpr::col(0),
            op: CmpOp::Eq,
            right: ScalarExpr::col(1),
        };
        let err = NestedLoopJoinTask::new(
            rxo,
            rxi,
            pred,
            pair,
            OpCost::default(),
            Fanout::new(vec![], 0.0),
        )
        .err()
        .expect("constructor must reject");
        assert!(err.to_string().contains("incomparable"), "{err}");
    }
}
