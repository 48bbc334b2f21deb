//! Table scan: streams a table's pages to its consumers.
//!
//! The scan is the natural pivot for scan-heavy sharing (TPC-H Q1/Q6):
//! shared, it reads each page once and delivers it to every consumer —
//! paying the per-consumer output cost `s` that the paper identifies as
//! the serialization bottleneck.
//!
//! A kernel with no ports: the shell calls [`Kernel::drain`] from its
//! first step, and each call emits the next page at the page's input
//! cost, standing for its rows of progress. The call after the last
//! page emits nothing and is the last — the scan's own closing step.

use crate::cost::OpCost;
use crate::error::ExecError;
use crate::ops::shell::{Drained, Kernel, PageWork, Pages, Port};
use cordoba_storage::Page;
use std::sync::Arc;

/// Scan kernel over a snapshot of table pages.
pub struct ScanKernel {
    /// The pages not yet emitted.
    pages: std::vec::IntoIter<Arc<Page>>,
    cost: OpCost,
}

impl ScanKernel {
    /// Creates a scan over `pages`, charging `cost`'s input side per
    /// page (the shell's fan-out charges the output side).
    pub fn new(pages: Vec<Arc<Page>>, cost: OpCost) -> Self {
        let pages = pages.into_iter();
        Self { pages, cost }
    }
}

impl Kernel for ScanKernel {
    fn name(&self) -> &'static str {
        "scan"
    }

    fn ports(&self) -> Vec<Port> {
        Vec::new()
    }

    /// Never called: a scan has no ports.
    fn on_page(&mut self, _: usize, _: &Arc<Page>, _: &mut Pages) -> Result<PageWork, ExecError> {
        Ok(PageWork::default())
    }

    fn drain(&mut self, out: &mut Pages) -> Result<Drained, ExecError> {
        let Some(page) = self.pages.next() else {
            return Ok(Drained::LAST);
        };
        let (cost, progress) = (self.cost.input_cost(page.rows()), page.rows());
        out.push(page);
        Ok(Drained {
            progress,
            ..Drained::batch(cost)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::testutil::scan_task;
    use crate::ops::Fanout;
    use cordoba_sim::channel::{self, Recv};
    use cordoba_sim::{Simulator, Step, Task, TaskCtx};
    use cordoba_storage::{DataType, Field, Schema, TableBuilder, Value};

    fn table_pages(rows: usize) -> Vec<Arc<Page>> {
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
        let mut b = TableBuilder::with_page_size("t", schema, 64);
        for i in 0..rows {
            b.push_row(&[Value::Int(i as i64)]);
        }
        b.finish().pages().to_vec()
    }

    use crate::ops::testutil::CountingSink;

    #[test]
    fn scan_streams_all_rows() {
        let mut sim = Simulator::new(2);
        let (tx, rx) = channel::bounded(4);
        let rows = std::rc::Rc::new(std::cell::Cell::new(0));
        sim.spawn(
            "scan",
            scan_task(
                table_pages(37),
                OpCost::per_tuple(2.0),
                Fanout::new(vec![tx.into()], 0.5),
            ),
        );
        sim.spawn(
            "sink",
            Box::new(CountingSink {
                rx,
                rows: rows.clone(),
            }),
        );
        assert!(sim.run_to_idle().completed_all());
        assert_eq!(rows.get(), 37);
    }

    #[test]
    fn scan_cost_matches_w_plus_s() {
        // 37 rows: input cost 2/tuple + output 0.5/tuple to one consumer.
        let mut sim = Simulator::new(2);
        let (tx, rx) = channel::bounded(100);
        let rows = std::rc::Rc::new(std::cell::Cell::new(0));
        let scan = sim.spawn(
            "scan",
            scan_task(
                table_pages(37),
                OpCost::new(2.0, 0.5),
                Fanout::new(vec![tx.into()], 0.5),
            ),
        );
        sim.spawn("sink", Box::new(CountingSink { rx, rows }));
        sim.run_to_idle();
        // 5 pages of 8 rows + 1 page of 5 rows on a 64-byte page of
        // 8-byte rows; per page: 2*n + round(0.5*n).
        let expected: u64 = [8, 8, 8, 8, 5]
            .iter()
            .map(|&n: &u64| 2 * n + (n as f64 * 0.5).round() as u64)
            .sum();
        assert_eq!(sim.task_stats(scan).active, expected);
        assert_eq!(sim.task_stats(scan).progress, 37.0);
    }

    #[test]
    fn shared_scan_pays_per_consumer_output() {
        // Fan out to 3 consumers: output cost triples, input cost doesn't.
        let mut sim = Simulator::new(4);
        let mut rxs = Vec::new();
        let mut txs = Vec::new();
        for _ in 0..3 {
            let (tx, rx) = channel::bounded(100);
            txs.push(tx.into());
            rxs.push(rx);
        }
        let scan = sim.spawn(
            "scan",
            scan_task(
                table_pages(32),
                OpCost::new(2.0, 1.0),
                Fanout::new(txs, 1.0),
            ),
        );
        let counts: Vec<_> = rxs
            .into_iter()
            .map(|rx| {
                let rows = std::rc::Rc::new(std::cell::Cell::new(0));
                sim.spawn(
                    "sink",
                    Box::new(CountingSink {
                        rx,
                        rows: rows.clone(),
                    }),
                );
                rows
            })
            .collect();
        assert!(sim.run_to_idle().completed_all());
        for c in &counts {
            assert_eq!(c.get(), 32);
        }
        // active = 32*2 (w) + 3*32*1 (s to each of 3 consumers).
        assert_eq!(sim.task_stats(scan).active, 64 + 96);
    }

    #[test]
    fn empty_table_closes_immediately() {
        let mut sim = Simulator::new(1);
        let (tx, rx) = channel::bounded(4);
        let rows = std::rc::Rc::new(std::cell::Cell::new(0));
        sim.spawn(
            "scan",
            scan_task(vec![], OpCost::default(), Fanout::new(vec![tx.into()], 0.0)),
        );
        sim.spawn(
            "sink",
            Box::new(CountingSink {
                rx,
                rows: rows.clone(),
            }),
        );
        assert!(sim.run_to_idle().completed_all());
        assert_eq!(rows.get(), 0);
    }

    #[test]
    fn bounded_consumer_throttles_scan() {
        // Slow sink (cost 100/step), capacity-1 channel: scan cannot run
        // ahead by more than the buffer.
        struct SlowSink {
            rx: channel::Receiver<Arc<Page>>,
        }
        impl Task for SlowSink {
            fn step(&mut self, ctx: &mut TaskCtx<'_>) -> Step {
                match self.rx.try_recv(ctx) {
                    Recv::Value(_) => Step::yielded(1000),
                    Recv::Empty => Step::blocked(0),
                    Recv::Closed => Step::done(0),
                }
            }
        }
        let mut sim = Simulator::new(2);
        let (tx, rx) = channel::bounded(1);
        let scan = sim.spawn(
            "scan",
            scan_task(
                table_pages(32),
                OpCost::per_tuple(1.0),
                Fanout::new(vec![tx.into()], 0.0),
            ),
        );
        sim.spawn("sink", Box::new(SlowSink { rx }));
        assert!(sim.run_to_idle().completed_all());
        // 4 pages * 1000 dominates; scan finishes around the 3rd sink
        // step, far later than its unthrottled ~32 units of work.
        assert!(sim.task_stats(scan).completed_at.unwrap() > 2000);
    }
}
