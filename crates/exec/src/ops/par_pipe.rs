//! Morsel-driven parallel operator groups — the one implementation,
//! on both substrates.
//!
//! When [`crate::wiring::WiringConfig::parallel`] asks for more than
//! one worker, the wiring replaces a {filter | project}* chain over a
//! scan with `k` fused worker tasks plus one merge task, and an
//! aggregate above such a chain with `k` folding workers plus one
//! merge/emit task:
//!
//! * workers claim page-range morsels from a shared
//!   [`MorselDispenser`] and run a privately compiled
//!   [`WorkerPipeline`] one page per step, charging the *sum* of the
//!   fused stages' input costs on the rows each stage actually sees —
//!   the same total work as the serial task-per-operator wiring,
//!   split `k` ways;
//! * a pipe worker hands its merge task one message per finished
//!   morsel — `(morsel index, every page the morsel produced)` — and
//!   the merge task releases the morsels in index order, so the
//!   delivered row stream is identical to the serial wiring for any
//!   worker count (page boundaries may differ, row order never does);
//! * aggregate workers fold their morsels into private [`AggCore`]s
//!   which the merge task combines in worker-index order and emits
//!   sorted — row-identical to the serial aggregate.
//!
//! The chain root's per-consumer output cost (`s`) is charged by the
//! merge task's fan-out exactly once per delivered page, as in the
//! serial wiring; the internal worker→merge channel is an artifact of
//! parallelization and carries no modeled cost.
//!
//! That channel is the only thing that differs between substrates, so
//! its endpoints are a type parameter ([`GroupTx`] / [`GroupRx`]):
//!
//! * **simulator** — `cordoba_sim::channel`: a full channel blocks the
//!   worker *task* and all `k + 1` tasks share the caller's simulator;
//! * **OS threads** ([`crate::wiring::run_local`]) —
//!   `std::sync::mpsc::sync_channel`: each worker task runs to
//!   completion in a private run loop on its own thread and a full
//!   channel blocks that *thread*; the merge task stays in the plan's
//!   run loop and parks it in `recv` until a worker delivers. A
//!   receiver never reports `Empty` and a dropped endpoint is a
//!   hang-up: the merge task sees `Closed`, a worker finishes with the
//!   morsel it holds.
//!
//! Either way a hand-off costs one channel operation (on OS threads a
//! lock and often a futex wake) per morsel, not per page, and a morsel
//! arrives whole or not at all: a worker that dies mid-morsel leaves a
//! gap in the index sequence, on which the merge task finishes once the
//! channel closes.
//!
//! **Merge buffer bound.** The pipe merge task holds the morsels that
//! finished ahead of the one it must release next, and the channel up
//! to `queue_capacity` more. In the simulator round-robin fairness
//! keeps workers within a few morsels of each other; on real threads
//! nothing does (one descheduled worker holds morsel `i` while its
//! peers run ahead), so the bound is the group's whole output — what
//! materialising the fragment would cost, and no more. It is not
//! charged to the query's broker.

use crate::cost::OpCost;
use crate::error::ExecError;
use crate::expr::Agg;
use crate::ops::aggregate::AggCore;
use crate::ops::{Fanout, Outbox, Outlet};
use crate::parallel::{MorselDispenser, ParallelConfig, StageSpec, WorkerPipeline};
use cordoba_sim::channel::{Receiver, Recv, Sender};
use cordoba_sim::{Step, Task, TaskCtx, VTime};
use cordoba_storage::{Morsel, Page, Schema};
use std::collections::BTreeMap;
use std::sync::{mpsc, Arc};

/// Why a group-internal send did not go through.
pub(crate) enum Refused<T> {
    /// The channel is full (simulator only): the caller registered as a
    /// waiter and should keep the message and return [`Step::blocked`].
    Full(T),
    /// The merge task is gone (OS threads only): nobody will read this
    /// worker's output, so it should finish.
    HungUp,
}

/// Producer end of a group's worker → merge channel.
pub(crate) trait GroupTx<T> {
    /// Hands `msg` to the merge task.
    fn send(&self, msg: T, ctx: &mut TaskCtx<'_>) -> Result<(), Refused<T>>;
    /// Marks this worker finished; the channel closes with the last one.
    fn close(&self, ctx: &mut TaskCtx<'_>);
}

/// Consumer end of a group's worker → merge channel.
pub(crate) trait GroupRx<T> {
    /// The next message, [`Recv::Closed`] once every worker finished.
    fn recv(&self, ctx: &mut TaskCtx<'_>) -> Recv<T>;
}

impl<T> GroupTx<T> for Sender<T> {
    fn send(&self, msg: T, ctx: &mut TaskCtx<'_>) -> Result<(), Refused<T>> {
        self.try_send(msg, ctx).map_err(Refused::Full)
    }
    fn close(&self, ctx: &mut TaskCtx<'_>) {
        Sender::close(self, ctx);
    }
}

impl<T> GroupRx<T> for Receiver<T> {
    fn recv(&self, ctx: &mut TaskCtx<'_>) -> Recv<T> {
        self.try_recv(ctx)
    }
}

impl<T> GroupTx<T> for mpsc::SyncSender<T> {
    fn send(&self, msg: T, _: &mut TaskCtx<'_>) -> Result<(), Refused<T>> {
        mpsc::SyncSender::send(self, msg).map_err(|_| Refused::HungUp)
    }
    /// The sender is dropped with its task when that returns `Done`.
    fn close(&self, _: &mut TaskCtx<'_>) {}
}

impl<T> GroupRx<T> for mpsc::Receiver<T> {
    fn recv(&self, _: &mut TaskCtx<'_>) -> Recv<T> {
        mpsc::Receiver::recv(self).map_or(Recv::Closed, Recv::Value)
    }
}

/// A fused scan + stage chain detected in a plan — what a parallel
/// group's workers execute.
pub(crate) struct ParChain {
    /// The scanned table's name, used to label the group's merge task
    /// so task stats still show which table one parallel group scans.
    pub table: String,
    /// The scanned table's pages, shared by all workers.
    pub pages: Arc<[Arc<Page>]>,
    /// Schema of the scanned pages.
    pub in_schema: Arc<Schema>,
    /// Scan cost, charged per input page.
    pub scan_cost: OpCost,
    /// Stages above the scan, bottom-up, with their plan costs.
    pub stages: Vec<(StageSpec, OpCost)>,
}

impl ParChain {
    /// Number of plan nodes the chain covers (scan + stages).
    pub fn node_count(&self) -> usize {
        1 + self.stages.len()
    }

    /// The chain root's per-consumer output cost (`s`).
    pub fn root_out_per_tuple(&self) -> f64 {
        self.stages
            .last()
            .map(|(_, c)| c.out_per_tuple)
            .unwrap_or(self.scan_cost.out_per_tuple)
    }

    /// The schema the chain produces.
    pub fn out_schema(&self) -> Arc<Schema> {
        self.stages
            .iter()
            .rev()
            .find_map(|(s, _)| match s {
                StageSpec::Project { out_schema, .. } => Some(out_schema.clone()),
                StageSpec::Filter(_) => None,
            })
            .unwrap_or_else(|| self.in_schema.clone())
    }

    fn costs(&self) -> Vec<OpCost> {
        self.stages.iter().map(|(_, c)| *c).collect()
    }
}

/// One worker's half-consumed view of the shared scan: claims morsels,
/// runs the fused pipeline one page per step, and reports the virtual
/// cost of each page as the sum of the fused stages' input costs.
struct FusedScan {
    pages: Arc<[Arc<Page>]>,
    dispenser: Arc<MorselDispenser>,
    pipe: WorkerPipeline,
    scan_cost: OpCost,
    stage_costs: Vec<OpCost>,
    stage_rows: Vec<usize>,
    current: Option<(usize, Morsel, usize)>,
}

impl FusedScan {
    fn new(chain: &ParChain, dispenser: Arc<MorselDispenser>) -> Result<Self, ExecError> {
        Ok(FusedScan {
            pages: chain.pages.clone(),
            dispenser,
            pipe: WorkerPipeline::new(&chain.in_schema, &chain.stages)?,
            scan_cost: chain.scan_cost,
            stage_costs: chain.costs(),
            stage_rows: Vec::new(),
            current: None,
        })
    }

    /// The next unprocessed page: `(morsel index, last page of its
    /// morsel, page)`, claiming a fresh morsel when needed. `None`
    /// when the dispenser is exhausted.
    fn next_page(&mut self) -> Option<(usize, bool, Arc<Page>)> {
        if self.current.is_none() {
            let (idx, m) = self.dispenser.claim()?;
            self.current = Some((idx, m, 0));
        }
        let (idx, m, off) = self.current.as_mut().expect("claimed above"); // lint: allow(filled two lines up)
        let page = self.pages[m.start + *off].clone();
        let morsel_idx = *idx;
        *off += 1;
        let last = m.start + *off >= m.end;
        if last {
            self.current = None;
        }
        Some((morsel_idx, last, page))
    }

    /// Runs one page through the fused stages, returning the produced
    /// pages (for the caller to drain) and the virtual cost of the
    /// fused work.
    fn run_page(&mut self, page: &Arc<Page>) -> (&mut Vec<Arc<Page>>, VTime) {
        let out = self
            .pipe
            .run_pages_counted(std::slice::from_ref(page), &mut self.stage_rows);
        let mut cost = self.scan_cost.input_cost(page.rows());
        for (c, &rows) in self.stage_costs.iter().zip(&self.stage_rows) {
            cost += c.input_cost(rows);
        }
        (out, cost)
    }
}

/// A worker's message to its merge task: a finished morsel's index and
/// every page it produced, in order.
type PipeMsg = (usize, Vec<Arc<Page>>);

/// One fused pipeline worker: claims morsels, processes a page per
/// step, and hands each finished morsel's output to the group's merge
/// task in one message.
pub(crate) struct ParPipeWorker<S> {
    scan: FusedScan,
    tx: S,
    /// Output of the morsel in progress.
    out: Vec<Arc<Page>>,
    /// A finished morsel the channel had no room for.
    pending: Option<PipeMsg>,
}

impl<S: GroupTx<PipeMsg>> ParPipeWorker<S> {
    /// Sends the finished morsel, if any; `Err` carries the step that
    /// ends this turn (throttled by the channel, or finished by a
    /// hang-up).
    fn send_pending(&mut self, cost: VTime, ctx: &mut TaskCtx<'_>) -> Result<(), Step> {
        let Some(msg) = self.pending.take() else {
            return Ok(());
        };
        match self.tx.send(msg, ctx) {
            Ok(()) => Ok(()),
            Err(Refused::Full(msg)) => {
                self.pending = Some(msg);
                Err(Step::blocked(cost))
            }
            Err(Refused::HungUp) => Err(Step::done(cost)),
        }
    }
}

impl<S: GroupTx<PipeMsg>> Task for ParPipeWorker<S> {
    fn step(&mut self, ctx: &mut TaskCtx<'_>) -> Step {
        if let Err(step) = self.send_pending(0, ctx) {
            return step;
        }
        let Some((idx, last, page)) = self.scan.next_page() else {
            self.tx.close(ctx);
            return Step::done(0);
        };
        ctx.add_progress(page.rows() as f64);
        let (out, cost) = self.scan.run_page(&page);
        self.out.append(out);
        if last {
            self.pending = Some((idx, std::mem::take(&mut self.out)));
        }
        match self.send_pending(cost, ctx) {
            Ok(()) => Step::yielded(cost.max(1)),
            Err(step) => step,
        }
    }
}

/// Reassembles per-morsel worker outputs in morsel-index order and
/// delivers them downstream, charging the chain root's `s` once per
/// page — the serial wiring's exact output contract.
pub(crate) struct ParPipeMerge<R> {
    rx: R,
    /// Morsels that finished ahead of `next_morsel` (see the module docs
    /// for its bound).
    buffer: BTreeMap<usize, Vec<Arc<Page>>>,
    next_morsel: usize,
    outbox: Outbox,
}

impl<R: GroupRx<PipeMsg>> Task for ParPipeMerge<R> {
    fn step(&mut self, ctx: &mut TaskCtx<'_>) -> Step {
        let (mut cost, drained) = self.outbox.flush(ctx);
        if !drained {
            return Step::blocked(cost);
        }
        // Release at most one morsel per step (bounded work).
        if let Some(pages) = self.buffer.remove(&self.next_morsel) {
            self.next_morsel += 1;
            for page in pages {
                self.outbox.push(page);
            }
            cost += 1;
            let (c, drained) = self.outbox.flush(ctx);
            cost += c;
            return if drained {
                Step::yielded(cost)
            } else {
                Step::blocked(cost)
            };
        }
        match self.rx.recv(ctx) {
            Recv::Value((idx, pages)) => {
                self.buffer.insert(idx, pages);
                Step::yielded(cost.max(1))
            }
            Recv::Empty => Step::blocked(cost),
            Recv::Closed => {
                // Drained — or a worker died with its morsel (its
                // thread's panic surfaces when the driver joins it): the
                // gap at `next_morsel` never fills, and what is buffered
                // behind it can never be released in order.
                self.outbox.close(ctx);
                Step::done(cost)
            }
        }
    }
}

/// What an aggregate worker deposits: its index and its folded core.
type AggMsg = (usize, AggCore);

/// One parallel aggregate worker: folds its morsels (after the fused
/// chain) into a private [`AggCore`], then deposits the core with the
/// merge task.
pub(crate) struct ParAggWorker<S> {
    widx: usize,
    scan: FusedScan,
    agg_cost: OpCost,
    core: Option<AggCore>,
    tx: S,
}

impl<S: GroupTx<AggMsg>> Task for ParAggWorker<S> {
    fn step(&mut self, ctx: &mut TaskCtx<'_>) -> Step {
        let Some((_, _, page)) = self.scan.next_page() else {
            if let Some(core) = self.core.take() {
                if let Err(Refused::Full((_, core))) = self.tx.send((self.widx, core), ctx) {
                    self.core = Some(core);
                    return Step::blocked(0);
                }
            }
            self.tx.close(ctx);
            return Step::done(0);
        };
        ctx.add_progress(page.rows() as f64);
        let (out, mut cost) = self.scan.run_page(&page);
        // lint: allow(core is only taken when the consume phase ends)
        let core = self.core.as_mut().expect("core present while consuming");
        for p in out.drain(..) {
            cost += self.agg_cost.input_cost(p.rows());
            core.consume_page(&p);
        }
        Step::yielded(cost.max(1))
    }
}

/// Merges deposited cores in worker-index order and emits sorted
/// groups — the same emission order and page batching as the serial
/// [`crate::ops::AggregateKernel`].
pub(crate) struct ParAggMerge<R> {
    rx: R,
    /// Deposits that make the set complete: one per worker.
    expected: usize,
    deposited: Vec<AggMsg>,
    /// The merged core, once it is emitting.
    emit: Option<AggCore>,
    outbox: Outbox,
}

impl<R: GroupRx<AggMsg>> Task for ParAggMerge<R> {
    fn step(&mut self, ctx: &mut TaskCtx<'_>) -> Step {
        let (mut cost, drained) = self.outbox.flush(ctx);
        if !drained {
            return Step::blocked(cost);
        }
        if let Some(core) = &mut self.emit {
            let exhausted = core.emit_step(|page| self.outbox.push(page));
            cost += 1;
            let (c, drained) = self.outbox.flush(ctx);
            cost += c;
            if exhausted && drained {
                self.outbox.close(ctx);
                return Step::done(cost);
            }
            return if drained {
                Step::yielded(cost)
            } else {
                Step::blocked(cost)
            };
        }
        // With every worker's core in hand nothing more can arrive, so
        // the hang-up is not waited for: on an OS channel that wait is
        // one more sleep and wake-up on the query's critical path. (In
        // the simulator a worker closes in the step that deposits, so
        // the channel reads `Closed` here either way.)
        let next = if self.deposited.len() == self.expected {
            Recv::Closed
        } else {
            self.rx.recv(ctx)
        };
        match next {
            Recv::Value(pair) => {
                self.deposited.push(pair);
                Step::yielded(cost.max(1))
            }
            Recv::Empty => Step::blocked(cost),
            Recv::Closed => {
                let mut cores = std::mem::take(&mut self.deposited);
                cores.sort_by_key(|&(w, _)| w);
                let mut iter = cores.into_iter();
                let Some((_, mut core)) = iter.next() else {
                    self.outbox.close(ctx);
                    return Step::done(cost);
                };
                for (_, other) in iter {
                    core.merge(other);
                }
                core.start_emit();
                self.emit = Some(core);
                Step::yielded(cost.max(1))
            }
        }
    }
}

/// Hands out exactly `n` senders: the original plus `n - 1` clones,
/// so the channel closes when every worker has closed (or dropped) its
/// own.
fn senders_for<S: Clone>(tx: S, n: usize) -> Vec<S> {
    let mut senders = vec![tx.clone(); n.saturating_sub(1)];
    senders.push(tx);
    senders
}

/// Builds the `k` fused pipeline workers plus merge task for `chain`,
/// delivering to `outs`. `link` makes the group-internal channel and
/// thereby picks the substrate: `cordoba_sim::channel::bounded` or
/// `std::sync::mpsc::sync_channel`.
#[allow(clippy::type_complexity)]
pub(crate) fn pipe_group<S, R>(
    chain: &ParChain,
    outs: Vec<Outlet>,
    cfg: &ParallelConfig,
    queue_capacity: usize,
    link: fn(usize) -> (S, R),
) -> Result<(Vec<ParPipeWorker<S>>, ParPipeMerge<R>), ExecError>
where
    S: GroupTx<PipeMsg> + Clone,
{
    let dispenser = Arc::new(MorselDispenser::new(chain.pages.len(), cfg.morsel_pages));
    let (tx, rx) = link(queue_capacity.max(1));
    let workers = senders_for(tx, cfg.effective_workers())
        .into_iter()
        .map(|tx| {
            Ok(ParPipeWorker {
                scan: FusedScan::new(chain, dispenser.clone())?,
                tx,
                out: Vec::new(),
                pending: None,
            })
        })
        .collect::<Result<_, ExecError>>()?;
    let merge = ParPipeMerge {
        rx,
        buffer: BTreeMap::new(),
        next_morsel: 0,
        outbox: Outbox::new(Fanout::new(outs, chain.root_out_per_tuple())),
    };
    Ok((workers, merge))
}

/// The aggregate a folding group computes above its chain.
pub(crate) struct AggSpec {
    /// Group-by columns of the chain's output.
    pub group_by: Vec<usize>,
    /// Aggregate functions, in output order.
    pub aggs: Vec<Agg>,
    /// Schema of the emitted groups.
    pub out_schema: Arc<Schema>,
    /// The aggregate node's plan cost.
    pub cost: OpCost,
}

/// Builds the `k` aggregate workers plus merge/emit task for `agg` over
/// `chain`, delivering to `outs`; `link` as in [`pipe_group`].
#[allow(clippy::type_complexity)]
pub(crate) fn agg_group<S, R>(
    chain: &ParChain,
    agg: &AggSpec,
    outs: Vec<Outlet>,
    cfg: &ParallelConfig,
    link: fn(usize) -> (S, R),
) -> Result<(Vec<ParAggWorker<S>>, ParAggMerge<R>), ExecError>
where
    S: GroupTx<AggMsg> + Clone,
{
    let k = cfg.effective_workers();
    let agg_in = chain.out_schema();
    let dispenser = Arc::new(MorselDispenser::new(chain.pages.len(), cfg.morsel_pages));
    // Room for every worker's one deposit: nobody waits to hand it over.
    let (tx, rx) = link(k);
    let workers = senders_for(tx, k)
        .into_iter()
        .enumerate()
        .map(|(widx, tx)| {
            Ok(ParAggWorker {
                widx,
                scan: FusedScan::new(chain, dispenser.clone())?,
                agg_cost: agg.cost,
                core: Some(AggCore::new(
                    &agg_in,
                    agg.group_by.clone(),
                    agg.aggs.clone(),
                    agg.out_schema.clone(),
                )?),
                tx,
            })
        })
        .collect::<Result<_, ExecError>>()?;
    let merge = ParAggMerge {
        rx,
        expected: k,
        deposited: Vec::new(),
        emit: None,
        outbox: Outbox::new(Fanout::new(outs, agg.cost.out_per_tuple)),
    };
    Ok((workers, merge))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{CmpOp, Predicate};
    use cordoba_sim::{DetachedCtx, StepStatus};
    use cordoba_storage::{DataType, Field, TableBuilder, Value};

    /// `k < 1000` over 40 sixteen-row pages of `k = 0..640`: every page
    /// produces output.
    fn chain() -> ParChain {
        let schema = Schema::new(vec![Field::new("k", DataType::Int)]);
        let mut b = TableBuilder::with_page_size("t", schema.clone(), 128);
        for i in 0..640 {
            b.push_row(&[Value::Int(i)]);
        }
        ParChain {
            table: "t".into(),
            pages: b.finish().pages().into(),
            in_schema: schema,
            scan_cost: OpCost::default(),
            stages: vec![(
                StageSpec::Filter(Predicate::col_cmp(0, CmpOp::Lt, 1000i64)),
                OpCost::default(),
            )],
        }
    }

    /// Two workers and their merge task over an OS channel, delivering
    /// to the returned receiver.
    #[allow(clippy::type_complexity)]
    fn os_group(
        morsel_pages: usize,
    ) -> (
        Vec<ParPipeWorker<mpsc::SyncSender<PipeMsg>>>,
        ParPipeMerge<mpsc::Receiver<PipeMsg>>,
        Receiver<Arc<Page>>,
    ) {
        let cfg = ParallelConfig {
            workers: 2,
            morsel_pages,
        };
        let (out_tx, out_rx) = cordoba_sim::channel::bounded(64);
        let (workers, merge) =
            pipe_group(&chain(), vec![out_tx.into()], &cfg, 64, mpsc::sync_channel)
                .expect("chain compiles");
        (workers, merge, out_rx)
    }

    #[test]
    fn a_worker_sends_one_message_per_finished_morsel() {
        // 40 pages in morsels of 3, all claimed by one worker: nothing
        // crosses the channel until a morsel ends, then all of it does —
        // 13 full morsels and the one-page tail, 14 messages.
        let (mut workers, merge, _out) = os_group(3);
        let mut detached = DetachedCtx::new();
        let ctx = &mut detached.ctx(0);
        for _ in 0..2 {
            assert_eq!(workers[0].step(ctx).status, StepStatus::Yield);
            assert!(merge.rx.try_recv().is_err());
        }
        assert_eq!(workers[0].step(ctx).status, StepStatus::Yield);
        let (idx, pages) = merge.rx.try_recv().expect("morsel 0 is over");
        assert_eq!((idx, pages.len()), (0, 3));
        while workers[0].step(ctx).status != StepStatus::Done {}
        let rest: Vec<_> = merge.rx.try_iter().map(|(_, pages)| pages.len()).collect();
        assert_eq!(rest, [&[3; 12][..], &[1]].concat());
    }

    #[test]
    fn a_hung_up_worker_stops_claiming_morsels() {
        let (mut workers, merge, _out) = os_group(2);
        let mut detached = DetachedCtx::new();
        let ctx = &mut detached.ctx(0);
        // With its merge task listening, a worker hands over morsel 0
        // and goes on ...
        for _ in 0..2 {
            assert_eq!(workers[0].step(ctx).status, StepStatus::Yield);
        }
        // ... and once that is gone, the send that ends the morsel it
        // holds ends the worker: of the 20 morsels the two workers
        // claimed three.
        drop(merge);
        for worker in &mut workers {
            assert_eq!(worker.step(ctx).status, StepStatus::Yield);
            assert_eq!(worker.step(ctx).status, StepStatus::Done);
        }
        let (next, _) = workers[0].scan.dispenser.claim().expect("morsels left");
        assert_eq!(next, 3);
    }

    #[test]
    fn merge_finishes_when_a_worker_dies_mid_morsel() {
        // Worker 0 dies one page into morsel 0 (a panicked thread drops
        // its sender, and with it the morsel's output so far); worker 1
        // delivers morsel 1 whole. The merge task must finish on the gap,
        // not wait for a morsel that can never arrive, and must not
        // release morsel 1 as if it were the start of the stream.
        let (mut workers, mut merge, out) = os_group(2);
        let mut detached = DetachedCtx::new();
        let ctx = &mut detached.ctx(0);
        assert_eq!(workers[0].step(ctx).status, StepStatus::Yield);
        for _ in 0..2 {
            assert_eq!(workers[1].step(ctx).status, StepStatus::Yield);
        }
        drop(workers);
        assert_eq!(
            merge.step(ctx).status,
            StepStatus::Yield,
            "buffers morsel 1"
        );
        assert_eq!(merge.step(ctx).status, StepStatus::Done);
        assert!(matches!(out.try_recv(ctx), Recv::Closed));
    }

    #[test]
    fn agg_merge_does_not_wait_for_the_hang_up() {
        // Both cores are in while the workers (and their senders) are
        // still alive: the merge task must go on to emit; a `recv` here
        // would sleep until the worker threads had exited.
        let cfg = ParallelConfig {
            workers: 2,
            morsel_pages: 40,
        };
        let agg = AggSpec {
            group_by: Vec::new(),
            aggs: vec![Agg::Count],
            out_schema: Schema::new(vec![Field::new("n", DataType::Int)]),
            cost: OpCost::default(),
        };
        let (out_tx, out_rx) = cordoba_sim::channel::bounded(4);
        let (mut workers, mut merge): (Vec<ParAggWorker<mpsc::SyncSender<AggMsg>>>, _) = agg_group(
            &chain(),
            &agg,
            vec![out_tx.into()],
            &cfg,
            mpsc::sync_channel,
        )
        .expect("chain compiles");
        let mut detached = DetachedCtx::new();
        let ctx = &mut detached.ctx(0);
        for worker in &mut workers {
            while worker.core.is_some() {
                worker.step(ctx);
            }
        }
        while merge.step(ctx).status != StepStatus::Done {}
        let Recv::Value(page) = out_rx.try_recv(ctx) else {
            panic!("one group emitted");
        };
        assert_eq!(
            page.tuples().next().map(|t| t.to_values()),
            Some(vec![Value::Int(640)])
        );
        drop(workers);
    }
}
