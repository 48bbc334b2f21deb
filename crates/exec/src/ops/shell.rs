//! The one operator task: a [`Kernel`] behind the page-exchange
//! protocol.
//!
//! The paper prices every operator with the same two numbers over one
//! protocol (Section 3.2): work `w` per unit of forward progress and a
//! per-consumer output cost `s`, exchanged a page at a time. That
//! protocol is written here, once. An operator is a [`Kernel`] — state
//! plus a page function, no channels, no scheduler — and
//! [`OperatorShell`] is the [`Task`] that runs it. Every operator is
//! one, the ends of a plan included: the scan is a kernel with no
//! ports, the sink one with no consumers, and the merge join one that
//! reads its two ports interleaved.
//!
//! * **Flush first.** A step begins by delivering what earlier steps
//!   produced. A full consumer ends the step ([`Step::blocked`]) before
//!   anything new is read, so pages are neither lost nor reordered and
//!   at most one kernel call's output is ever queued.
//! * **A page per call.** With nothing left to deliver the shell
//!   reads one page from the port [`Kernel::next_port`] names — by
//!   default the first open one in the order of [`Kernel::ports`]
//!   (build before probe, inner before outer), so ports are read to
//!   their end one after the other; the merge join names the side its
//!   merge is starved on — checks its schema, and hands it to
//!   [`Kernel::on_page`]. An empty channel registers the task as a
//!   waiter and blocks (an input from another thread blocks the thread
//!   instead: see [`port`](super::port)). A closed one calls
//!   [`Kernel::on_close`], for at least the `min_tick` the kernel asks
//!   of the step (the blocking operators' close step always advances
//!   virtual time, the streaming ones' costs nothing). A kernel that
//!   answers `last` there (the sink) is done: the shell closes its
//!   consumers and finishes in that same step, at no less than
//!   `min_tick`.
//! * **Drain.** With every port closed — from the first step, for a
//!   kernel with none (the scan and a morsel worker, a page per call)
//!   — the shell calls [`Kernel::drain`] until it reports `last`; once
//!   that output is delivered the shell closes its consumers and is
//!   done — in the same step when nothing is left to deliver. (The
//!   operators that emit in batches answer a final [`Drained::LAST`].)
//! * **A morsel per step.** A step makes up to
//!   [`OperatorShell::morsel_pages`] such calls, one after the other
//!   while everything is delivered, and reports the sum of their costs
//!   and deliveries as one step; the wiring sizes it by
//!   `ParallelConfig::morsel_pages`, so a scan or a morsel worker moves
//!   a morsel a step. A step ends early when the fan-out could not
//!   deliver everything (blocked, one call's output queued), when a
//!   call answers `last` (done), when a call sets a `min_tick` (so a
//!   blocking operator's close keeps a step of its own), and when the
//!   port the next call would read has no page in hand
//!   ([`Inlet::is_ready`]): only a step's first read may wait, so a
//!   port that runs dry mid-step ends it as a yield and registers no
//!   waiter. An input from another thread goes on only through the
//!   hand-off it holds. Rows and every call's charge do not depend on
//!   the size; at one page per step the schedule is the one-page
//!   protocol's, step for step.
//! * **Who charges what.** The kernel returns the work (`w` side) of
//!   each call and the progress it stands for; the shell adds the
//!   delivery cost (`s` side) its [`Fanout`] charges per consumer, and
//!   reports both to the scheduler. Nothing else costs virtual time.
//! * **Input check.** A page is accepted when its schema is the very
//!   `Arc` last accepted on that port, else when it equals the port's
//!   expected schema (and becomes the remembered `Arc`): one deep
//!   compare per upstream schema object, a pointer compare per page.
//!   Anything else is [`ExecError::InputPageMismatch`]. A port that
//!   declares no schema (the sink's, whose rows nobody reads) is not
//!   checked.
//! * **Failure, in one place.** An error from the input check, from
//!   any kernel call or from an input's producer on another thread ends
//!   the task the same way: the query's [`FaultCell`] takes the error,
//!   every input is closed (upstream runs out into the void instead of
//!   blocking; a producer on another thread stops serving this query),
//!   [`Kernel::release`] returns the kernel's grants and files,
//!   undelivered output is abandoned, the consumers see end-of-stream,
//!   and the step is [`Step::done`] at cost 1.
//! * **Nobody listening.** Once every consumer is an OS link found hung
//!   up ([`Fanout::is_unheard`]) the call whose delivery found it ends
//!   the step and the task the same way, but sets no fault and keeps
//!   its cost: a pivot whose consumer threads have all failed stops
//!   within a morsel instead of running on for nobody. A simulator
//!   channel never reports this; there a consumer's abort is the
//!   engine's to propagate.
//! * **Done, once.** The hook set with [`OperatorShell::on_done`] runs
//!   in the step that returns [`Step::done`], on the failure path too:
//!   the engine's query accounting hangs off its sinks'.
//!
//! The ports and the fan-out are the one channel layer's [`Inlet`]s and
//! [`Outlet`](super::Outlet)s, so the same shell runs on either side of
//! a thread boundary: the engine's sharing seam on threads is a pivot
//! whose root fans out to consumers on other threads, each reading the
//! pivot's pages through its own port. A morsel group is shells too: a
//! worker is a kernel with no ports whose calls each report the morsel
//! they finish ([`Drained::morsel`]), and its outlet hands each morsel to
//! the group's merge whole; the merge is a kernel reading the group's
//! link through one port.

use crate::error::{ExecError, FaultCell};
use crate::ops::{Fanout, Inlet};
use cordoba_sim::channel::Recv;
#[expect(
    clippy::disallowed_types,
    reason = "the one operator shell: every operator is a Kernel it steps"
)]
use cordoba_sim::{Step, Task, TaskCtx, VTime};
use cordoba_storage::{Page, Schema};
use std::sync::Arc;

/// Pages a kernel call produced, in delivery order.
pub type Pages = Vec<Arc<Page>>;

/// One input of a kernel: what a mismatch fault calls it (`"build
/// input"`; empty for an operator with one input) and the schema every
/// page on it must have — `None` for a port whose pages the kernel
/// never reads, which is not checked.
pub(crate) type Port = (&'static str, Option<Arc<Schema>>);

/// Runs once, in the step the shell finishes (see
/// [`OperatorShell::on_done`]).
type OnDone = Box<dyn FnOnce(&mut TaskCtx<'_>)>;

/// What [`Kernel::on_page`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PageWork {
    /// Virtual work of the call.
    pub(crate) cost: VTime,
    /// Rows of forward progress it stands for (0 while an operator only
    /// loads the side it will later be probed with).
    pub(crate) progress: usize,
}

/// What [`Kernel::on_close`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PortClosed {
    /// Virtual work of the call (the sort itself, a merge cascade).
    pub(crate) cost: VTime,
    /// The least this step may cost in all.
    pub(crate) min_tick: VTime,
    /// The kernel is done: no `drain` follows, and the task finishes
    /// once this call's output is delivered.
    pub(crate) last: bool,
}

/// What [`Kernel::drain`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Drained {
    /// Virtual work of the call.
    pub(crate) cost: VTime,
    /// Rows of forward progress it stands for (a scan's page).
    pub(crate) progress: usize,
    /// It was the last call.
    pub last: bool,
    /// The call finished the producer's morsel with this index: the
    /// shell tells its consumers after the call's pages
    /// ([`Outlet::end_morsel`](super::Outlet::end_morsel)).
    pub(crate) morsel: Option<usize>,
}

impl Drained {
    /// The last call, emitting nothing at no cost.
    pub(crate) const LAST: Drained = Drained {
        cost: 0,
        progress: 0,
        last: true,
        morsel: None,
    };

    /// A call that is not the last, costing `cost`.
    pub(crate) const fn batch(cost: VTime) -> Self {
        Drained {
            cost,
            progress: 0,
            last: false,
            morsel: None,
        }
    }
}

/// An operator: state plus a page function, called by the
/// [`OperatorShell`] that runs it.
pub trait Kernel {
    /// The operator's name in faults.
    fn name(&self) -> &'static str;

    /// The inputs (none for a scan).
    fn ports(&self) -> Vec<Port>;

    /// The port to read next, given which are still `open` (at least
    /// one is); it must name an open one. By default they are read to
    /// their end one after the other, in [`Kernel::ports`] order.
    fn next_port(&self, open: &[bool]) -> usize {
        open.iter().position(|&open| open).unwrap_or_default()
    }

    /// Takes one page of input `port`.
    fn on_page(
        &mut self,
        port: usize,
        page: &Arc<Page>,
        out: &mut Pages,
    ) -> Result<PageWork, ExecError>;

    /// Input `port` has ended.
    fn on_close(&mut self, _port: usize, _out: &mut Pages) -> Result<PortClosed, ExecError> {
        Ok(PortClosed::default())
    }

    /// Produces output after the last input ended. The default emits
    /// nothing and is the last call.
    fn drain(&mut self, _out: &mut Pages) -> Result<Drained, ExecError> {
        Ok(Drained::LAST)
    }

    /// Returns every memory grant and spill file the kernel holds — the
    /// only teardown. The shell calls it once, when the query fails; a
    /// kernel may call it itself when it has emitted everything, so it
    /// must be harmless to repeat.
    fn release(&mut self) {}
}

/// One input as the shell reads it.
struct Input {
    rx: Inlet,
    port: Port,
    /// The schema `Arc` last accepted here.
    accepted: Option<Arc<Schema>>,
}

impl Input {
    fn check(&mut self, page: &Page, op: &'static str) -> Result<(), ExecError> {
        let ((what, Some(want)), got) = (&self.port, page.schema()) else {
            return Ok(());
        };
        if self.accepted.as_ref().is_some_and(|a| Arc::ptr_eq(got, a)) {
            return Ok(());
        }
        if **got == **want {
            self.accepted = Some(got.clone());
            return Ok(());
        }
        let which = match *what {
            "" => String::new(),
            what => format!("{what}: "),
        };
        Err(ExecError::InputPageMismatch {
            op,
            detail: format!(
                "{which}expected {} columns / {} B rows, got {} columns / {} B rows",
                want.len(),
                want.row_width(),
                got.len(),
                got.row_width()
            ),
        })
    }
}

/// The task that runs a [`Kernel`] behind the page-exchange protocol
/// (see the [`ops`](crate::ops) module docs).
pub struct OperatorShell {
    kernel: Box<dyn Kernel>,
    inputs: Vec<Input>,
    /// Which inputs have not ended yet, in port order.
    open: Vec<bool>,
    /// The kernel reported its last call: close once the fan-out has
    /// delivered everything.
    last: bool,
    out: Pages,
    fanout: Fanout,
    fault: FaultCell,
    on_done: Option<OnDone>,
    /// The most kernel calls one step makes.
    morsel_pages: usize,
}

impl OperatorShell {
    /// Runs `kernel` over `inputs` — one per [`Kernel::ports`] entry,
    /// in that order — delivering to `fanout` and reporting a failure to
    /// `fault`.
    ///
    /// # Panics
    ///
    /// Panics if the input count differs from the kernel's ports.
    pub fn new(
        kernel: Box<dyn Kernel>,
        inputs: Vec<Inlet>,
        fanout: Fanout,
        fault: FaultCell,
    ) -> Self {
        let ports = kernel.ports();
        assert_eq!(inputs.len(), ports.len(), "{}: inputs", kernel.name());
        let inputs = inputs.into_iter().zip(ports).map(|(rx, port)| Input {
            rx,
            accepted: port.1.clone(),
            port,
        });
        OperatorShell {
            open: vec![true; inputs.len()],
            inputs: inputs.collect(),
            kernel,
            last: false,
            out: Pages::new(),
            fanout,
            fault,
            on_done: None,
            morsel_pages: 1,
        }
    }

    /// Makes up to `pages` kernel calls per step (`0` treated as `1`)
    /// instead of one, so a step moves a morsel of pages; see the `ops`
    /// module's shell docs for when a step ends early.
    #[must_use]
    pub fn morsel_pages(mut self, pages: usize) -> Self {
        self.morsel_pages = pages.max(1);
        self
    }

    /// Runs `f` once, in the step this task finishes — whether the
    /// kernel ended or failed.
    #[must_use]
    pub fn on_done(mut self, f: OnDone) -> Self {
        self.on_done = Some(f);
        self
    }

    /// Whether the next kernel call can be made without waiting: every
    /// input has ended (the call drains), or the port it reads has a
    /// page in hand. Registers nothing.
    fn ready(&self) -> bool {
        if !self.open.contains(&true) {
            return true;
        }
        self.inputs[self.kernel.next_port(&self.open)].rx.is_ready()
    }

    /// The next kernel call of this step; `None` when the input it reads
    /// has nothing yet. Returns the call's cost and the step's floor.
    fn call_kernel(&mut self, ctx: &mut TaskCtx<'_>) -> Result<Option<(VTime, VTime)>, ExecError> {
        if !self.open.contains(&true) {
            let drained = self.kernel.drain(&mut self.out)?;
            ctx.add_progress(drained.progress as f64);
            self.last = drained.last;
            if let Some(index) = drained.morsel {
                self.fanout.end_morsel(index);
            }
            return Ok(Some((drained.cost, 0)));
        }
        let port = self.kernel.next_port(&self.open);
        let input = &mut self.inputs[port];
        match input.rx.recv(ctx)? {
            Recv::Value(page) => {
                input.check(&page, self.kernel.name())?;
                let work = self.kernel.on_page(port, &page, &mut self.out)?;
                ctx.add_progress(work.progress as f64);
                Ok(Some((work.cost, 0)))
            }
            Recv::Empty => Ok(None),
            Recv::Closed => {
                let closed = self.kernel.on_close(port, &mut self.out)?;
                self.open[port] = false;
                self.last = closed.last;
                Ok(Some((closed.cost, closed.min_tick)))
            }
        }
    }

    /// The failure path (see the [module docs](self)).
    #[expect(
        clippy::disallowed_types,
        reason = "the one operator shell: every operator is a Kernel it steps"
    )]
    fn fail(&mut self, ctx: &mut TaskCtx<'_>, err: ExecError) -> Step {
        self.fault.set(err);
        self.out.clear();
        self.fanout.abandon();
        self.stop(ctx, 1)
    }

    /// Ends the task before its inputs have: they close, so upstream
    /// runs out into the void, and the kernel returns its grants and
    /// files.
    #[expect(
        clippy::disallowed_types,
        reason = "the one operator shell: every operator is a Kernel it steps"
    )]
    fn stop(&mut self, ctx: &mut TaskCtx<'_>, cost: VTime) -> Step {
        for input in &mut self.inputs {
            input.rx.close(ctx);
        }
        self.kernel.release();
        self.finish(ctx, cost)
    }

    /// Ends the stream downstream, runs the `on_done` hook, and ends
    /// the task at `cost`.
    #[expect(
        clippy::disallowed_types,
        reason = "the one operator shell: every operator is a Kernel it steps"
    )]
    fn finish(&mut self, ctx: &mut TaskCtx<'_>, cost: VTime) -> Step {
        self.fanout.close(ctx);
        if let Some(on_done) = self.on_done.take() {
            on_done(ctx);
        }
        Step::done(cost)
    }
}

#[expect(
    clippy::disallowed_types,
    reason = "the one operator shell: every operator is a Kernel it steps"
)]
impl Task for OperatorShell {
    fn step(&mut self, ctx: &mut TaskCtx<'_>) -> Step {
        let (mut cost, mut drained) = self.fanout.flush(ctx);
        let mut min_tick = 0;
        let mut calls = 0;
        while drained && !self.last && calls < self.morsel_pages {
            // Only the first read of a step may wait; a later one needs a
            // page in hand.
            if calls > 0 && !self.ready() {
                break;
            }
            match self.call_kernel(ctx) {
                Ok(Some((work, floor))) => {
                    cost += work;
                    if !self.out.is_empty() {
                        self.fanout.extend(&mut self.out);
                    }
                    let (delivery, all) = self.fanout.flush(ctx);
                    (cost, drained) = (cost + delivery, all);
                    calls += 1;
                    if floor > 0 {
                        min_tick = floor;
                        break;
                    }
                    if self.fanout.is_unheard() {
                        break;
                    }
                }
                Ok(None) => return Step::blocked(cost),
                Err(err) => return self.fail(ctx, err),
            }
        }
        if !drained {
            Step::blocked(cost)
        } else if self.last {
            self.finish(ctx, cost.max(min_tick))
        } else if self.fanout.is_unheard() {
            self.stop(ctx, cost.max(min_tick))
        } else {
            Step::yielded(cost.max(min_tick))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::QueryResources;
    use crate::ops::testutil::{pages_of, CountingSink};
    use crate::ops::Outlet;
    use cordoba_sim::channel::{self, Receiver, Sender};
    use cordoba_sim::{DetachedCtx, StepStatus};
    use cordoba_storage::spill::SpillFile;
    use cordoba_storage::{DataType, Field, Value};
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    /// The shell's task id in these tests.
    const SHELL: usize = 7;

    /// A kernel that does what its fields say and logs every call.
    struct Scripted {
        ports: usize,
        calls: Rc<RefCell<Vec<String>>>,
        /// The call that fails: `"page"`, `"close"` or `"drain"`.
        fails: &'static str,
        /// How many times `on_page` emits the page it was given.
        copies: usize,
        /// `drain` calls that emit a page before the last one.
        batches: usize,
        /// The last `drain` call emits a page too.
        tail: bool,
        min_tick: VTime,
        /// `on_close` answers `last`.
        close_last: bool,
        /// `next_port` names the last open port, not the first.
        reversed: bool,
        /// What a running operator holds: a grant and a spill file.
        held: Option<(QueryResources, SpillFile)>,
    }

    impl Scripted {
        /// One port, one copy per page, a lone closing `drain`, no
        /// failure; every call logged to `calls`.
        fn new(calls: &Rc<RefCell<Vec<String>>>) -> Self {
            Scripted {
                ports: 1,
                calls: calls.clone(),
                fails: "",
                copies: 1,
                batches: 0,
                tail: false,
                min_tick: 0,
                close_last: false,
                reversed: false,
                held: None,
            }
        }

        fn call(&self, name: String) -> Result<(), ExecError> {
            let failing = name.starts_with(self.fails) && !self.fails.is_empty();
            self.calls.borrow_mut().push(name);
            if failing {
                let detail = self.fails.into();
                return Err(ExecError::Injected { detail });
            }
            Ok(())
        }
    }

    impl Kernel for Scripted {
        fn name(&self) -> &'static str {
            "scripted"
        }
        fn ports(&self) -> Vec<Port> {
            let names = &["first input", "second input"][..self.ports];
            names.iter().map(|&what| (what, Some(schema()))).collect()
        }
        fn next_port(&self, open: &[bool]) -> usize {
            match self.reversed {
                true => open.iter().rposition(|&open| open).expect("one is open"),
                false => open.iter().position(|&open| open).expect("one is open"),
            }
        }
        fn on_page(
            &mut self,
            port: usize,
            page: &Arc<Page>,
            out: &mut Pages,
        ) -> Result<PageWork, ExecError> {
            self.call(format!("page{port}"))?;
            out.extend(std::iter::repeat_n(page.clone(), self.copies));
            Ok(PageWork {
                cost: 10,
                progress: page.rows(),
            })
        }
        fn on_close(&mut self, port: usize, _: &mut Pages) -> Result<PortClosed, ExecError> {
            self.call(format!("close{port}"))?;
            Ok(PortClosed {
                cost: 3,
                min_tick: self.min_tick,
                last: self.close_last,
            })
        }
        /// Each page emitted stands for its one row of progress.
        fn drain(&mut self, out: &mut Pages) -> Result<Drained, ExecError> {
            self.call("drain".into())?;
            let last = self.batches == 0;
            let emits = !last || self.tail;
            if emits {
                out.push(page(-1));
            }
            self.batches = self.batches.saturating_sub(1);
            Ok(Drained {
                cost: if last { 0 } else { 2 },
                progress: usize::from(emits),
                last,
                morsel: None,
            })
        }
        fn release(&mut self) {
            self.calls.borrow_mut().push("release".into());
            if let Some((spill, _file)) = self.held.take() {
                spill.broker.release(64);
            }
        }
    }

    fn schema() -> Arc<Schema> {
        Schema::new(vec![Field::new("x", DataType::Int)])
    }

    /// A one-row page holding `x`.
    fn page(x: i64) -> Arc<Page> {
        pages_of(&schema(), &[vec![Value::Int(x)]])[0].clone()
    }

    /// Both ends of an input channel.
    type Ends = (Sender<Arc<Page>>, Receiver<Arc<Page>>);

    /// A shell over a [`Scripted`] kernel, with both ends of its
    /// channels and the context it is stepped in.
    struct Rig {
        shell: OperatorShell,
        inputs: Vec<Ends>,
        out: Receiver<Arc<Page>>,
        calls: Rc<RefCell<Vec<String>>>,
        fault: FaultCell,
        /// How often the `on_done` hook has run.
        done: Rc<Cell<usize>>,
        detached: DetachedCtx,
    }

    impl Rig {
        /// `script` adjusts the default kernel: one port, one copy per
        /// page, a lone closing `drain`, no failure. The consumer's
        /// channel holds `capacity` pages.
        fn new(capacity: usize, script: impl FnOnce(&mut Scripted)) -> Self {
            let calls = Rc::new(RefCell::new(Vec::new()));
            let mut kernel = Scripted::new(&calls);
            script(&mut kernel);
            let inputs: Vec<_> = (0..kernel.ports).map(|_| channel::bounded(8)).collect();
            let (tx, out) = channel::bounded(capacity);
            let fault = FaultCell::default();
            let rxs = inputs.iter().map(|(_, rx)| rx.clone().into()).collect();
            let fanout = Fanout::new(vec![tx.into()], 1.0);
            let done = Rc::new(Cell::new(0));
            let count = done.clone();
            let shell = OperatorShell::new(Box::new(kernel), rxs, fanout, fault.clone())
                .on_done(Box::new(move |_| count.set(count.get() + 1)));
            Rig {
                shell,
                inputs,
                out,
                calls,
                fault,
                done,
                detached: DetachedCtx::new(),
            }
        }

        /// Steps of up to `pages` kernel calls.
        fn morsel(mut self, pages: usize) -> Self {
            self.shell = self.shell.morsel_pages(pages);
            self
        }

        fn step(&mut self) -> Step {
            self.shell.step(&mut self.detached.ctx(SHELL))
        }

        /// Sends `xs` as one-row pages into input `port`, as another task.
        fn feed(&mut self, port: usize, xs: &[i64]) {
            for &x in xs {
                let sent = self.inputs[port]
                    .0
                    .try_send(page(x), &mut self.detached.ctx(0));
                assert!(sent.is_ok());
            }
        }

        fn close(&mut self, port: usize) {
            self.inputs[port].0.close(&mut self.detached.ctx(0));
        }

        /// What the consumer reads next: `Ok(x)` for a page, else
        /// whether the stream has ended.
        fn read(&mut self) -> Result<i64, bool> {
            match self.out.try_recv(&mut self.detached.ctx(1)) {
                Recv::Value(page) => Ok(page.tuple(0).get_int(0)),
                Recv::Empty => Err(false),
                Recv::Closed => Err(true),
            }
        }

        fn calls(&self) -> String {
            self.calls.borrow().join(" ")
        }
    }

    #[test]
    fn a_full_consumer_blocks_without_losing_or_reordering_pages() {
        // Three copies of each page into a one-page channel: the shell
        // blocks mid-delivery and reads nothing new until the consumer
        // has taken all three.
        let mut rig = Rig::new(1, |k| k.copies = 3);
        rig.feed(0, &[1, 2]);
        rig.close(0);
        let first = rig.step();
        assert_eq!((first.cost, first.status), (10 + 1, StepStatus::Blocked));
        let mut seen = Vec::new();
        loop {
            match rig.read() {
                Ok(x) => seen.push(x),
                Err(true) => break,
                Err(false) => {
                    rig.step();
                }
            }
            if seen.len() < 2 {
                // Two read, the third in the channel: only then is the
                // fan-out empty and the next page read.
                assert_eq!(rig.calls(), "page0", "page 2 waits for page 1's copies");
            }
        }
        assert_eq!(seen, [1, 1, 1, 2, 2, 2]);
        assert_eq!(rig.calls(), "page0 page0 close0 drain");
    }

    #[test]
    fn an_empty_input_registers_a_waiter() {
        let mut rig = Rig::new(4, |_| ());
        let step = rig.step();
        assert_eq!((step.cost, step.status), (0, StepStatus::Blocked));
        assert_eq!(rig.calls(), "");
        rig.feed(0, &[5]);
        let woken: Vec<usize> = rig
            .detached
            .drain_wakes()
            .iter()
            .map(|t| t.index())
            .collect();
        assert_eq!(woken, [SHELL], "the send wakes the blocked shell");
        assert_eq!(rig.step().status, StepStatus::Yield);
        assert_eq!(rig.read(), Ok(5));
    }

    #[test]
    fn ports_are_read_in_the_order_asked() {
        // The second input is ready from the start; the shell still
        // waits on the first, and turns to the second only at its end.
        let mut rig = Rig::new(8, |k| k.ports = 2);
        rig.feed(1, &[20, 21]);
        rig.close(1);
        assert_eq!(rig.step().status, StepStatus::Blocked);
        assert_eq!(rig.inputs[1].1.len(), 2, "untouched");
        rig.feed(0, &[10]);
        rig.close(0);
        while rig.step().status != StepStatus::Done {}
        assert_eq!(rig.calls(), "page0 close0 page1 page1 close1 drain");
        assert_eq!(
            [rig.read(), rig.read(), rig.read()],
            [Ok(10), Ok(20), Ok(21)]
        );
        assert_eq!(rig.read(), Err(true));
    }

    #[test]
    fn min_tick_and_last_are_honoured() {
        let mut rig = Rig::new(1, |k| {
            k.min_tick = 5;
            k.batches = 2;
        });
        rig.close(0);
        // The close step costs the kernel's 3, raised to its floor of 5.
        let close = rig.step();
        assert_eq!((close.cost, close.status), (5, StepStatus::Yield));
        // A batch: 2 of work, 1 to deliver its one row to one consumer.
        let batch = rig.step();
        assert_eq!((batch.cost, batch.status), (3, StepStatus::Yield));
        // The next finds the consumer full; its page waits in the
        // fan-out and `drain` is not called again until it has left.
        let blocked = rig.step();
        assert_eq!((blocked.cost, blocked.status), (2, StepStatus::Blocked));
        assert_eq!(rig.step().status, StepStatus::Blocked);
        assert_eq!(rig.calls(), "close0 drain drain");
        assert_eq!(rig.read(), Ok(-1));
        assert_eq!(rig.done.get(), 0, "not before the step that ends it");
        // Delivered; the call that reports `last` also closes.
        let last = rig.step();
        assert_eq!((last.cost, last.status), (1, StepStatus::Done));
        assert_eq!(rig.calls(), "close0 drain drain drain");
        assert_eq!([rig.read(), rig.read()], [Ok(-1), Err(true)]);
        assert_eq!(rig.done.get(), 1, "on_done ran in the step that ended");
    }

    #[test]
    fn next_port_is_the_port_read() {
        // A kernel that reads its second port first: the first is
        // ready from the start but waits until the second has ended.
        let mut rig = Rig::new(8, |k| {
            k.ports = 2;
            k.reversed = true;
        });
        rig.feed(0, &[10]);
        rig.close(0);
        assert_eq!(rig.step().status, StepStatus::Blocked);
        assert_eq!(rig.inputs[0].1.len(), 1, "untouched");
        assert_eq!(rig.calls(), "");
        rig.feed(1, &[20, 21]);
        rig.close(1);
        while rig.step().status != StepStatus::Done {}
        assert_eq!(rig.calls(), "page1 page1 close1 page0 close0 drain");
        assert_eq!(
            [rig.read(), rig.read(), rig.read()],
            [Ok(20), Ok(21), Ok(10)]
        );
        assert_eq!(rig.read(), Err(true));
        assert_eq!(rig.done.get(), 1);
    }

    #[test]
    fn last_at_close_finishes_in_the_close_step_at_min_tick() {
        let mut rig = Rig::new(8, |k| {
            k.close_last = true;
            k.min_tick = 5;
        });
        rig.feed(0, &[1]);
        rig.close(0);
        assert_eq!(rig.step(), Step::yielded(10 + 1));
        // The close costs the kernel's 3, raised to 5; no `drain` call.
        assert_eq!(rig.step(), Step::done(5));
        assert_eq!(rig.calls(), "page0 close0");
        assert_eq!([rig.read(), rig.read()], [Ok(1), Err(true)]);
        assert_eq!(rig.done.get(), 1);
    }

    #[test]
    fn a_kernel_without_ports_drains_from_the_first_step_with_progress() {
        // Three batches then a bare last call, as a scan emits: each
        // batch costs 2 of work plus 1 to deliver its one row, and
        // stands for one row of progress.
        let Rig {
            shell,
            out,
            calls,
            done,
            ..
        } = Rig::new(8, |k| {
            k.ports = 0;
            k.batches = 3;
        });
        let mut sim = cordoba_sim::Simulator::new(2);
        let id = sim.spawn("shell", Box::new(shell));
        let rows = Rc::new(Cell::new(0));
        let sink = CountingSink {
            rx: out,
            rows: rows.clone(),
        };
        sim.spawn("sink", Box::new(sink));
        assert!(sim.run_to_idle().completed_all());
        assert_eq!(calls.borrow().join(" "), "drain drain drain drain");
        assert_eq!(rows.get(), 3);
        let stats = sim.task_stats(id);
        assert_eq!((stats.active, stats.progress), (3 * (2 + 1), 3.0));
        assert_eq!(done.get(), 1);
    }

    #[test]
    fn last_with_output_still_queued_closes_without_another_call() {
        // A kernel whose last call emits (a streaming operator's tail)
        // into a full consumer: blocked, then done — no second call.
        let mut rig = Rig::new(1, |k| k.tail = true);
        rig.feed(0, &[1]);
        rig.close(0);
        assert_eq!(rig.step().status, StepStatus::Yield);
        assert_eq!(rig.step().status, StepStatus::Yield, "the close");
        assert_eq!(rig.step().status, StepStatus::Blocked, "tail behind page 1");
        assert_eq!(rig.read(), Ok(1));
        assert_eq!(rig.step().status, StepStatus::Done);
        assert_eq!(rig.calls(), "page0 close0 drain");
        assert_eq!([rig.read(), rig.read()], [Ok(-1), Err(true)]);
    }

    #[test]
    fn a_kernel_error_at_any_call_runs_the_failure_path_exactly_once() {
        for fails in ["page", "close", "drain"] {
            let dir =
                std::env::temp_dir().join(format!("cordoba-shell-{fails}-{}", std::process::id()));
            let mut spill = QueryResources::with_budget(1 << 20);
            spill.dir = dir.clone();
            let io = spill.io("scripted");
            let mut stream = io.create(schema(), 1).expect("spill dir");
            io.push(&mut stream, page(1).payload()).expect("row");
            let file = io.finish(stream).expect("sealed");
            spill.broker.grant(64);
            let broker = spill.broker.clone();
            let mut rig = Rig::new(8, |k| {
                k.ports = 2;
                k.fails = fails;
                k.held = Some((spill, file));
                k.copies = 3;
            });
            // A failure on the first input leaves the second with
            // pages queued that nobody will read.
            match fails {
                "page" => {
                    rig.feed(1, &[7, 8]);
                    rig.feed(0, &[1]);
                }
                "close" => {
                    rig.feed(1, &[7, 8]);
                    rig.close(0);
                }
                _ => {
                    rig.close(0);
                    rig.close(1);
                }
            }
            let failed = loop {
                let step = rig.step();
                if step.status == StepStatus::Done {
                    break step;
                }
                assert_eq!(rig.read(), Err(false), "{fails}: nothing was emitted");
            };
            assert_eq!(failed.cost, 1, "{fails}");
            let injected = ExecError::Injected {
                detail: fails.into(),
            };
            assert_eq!(rig.fault.get(), Some(injected), "{fails}");
            let calls = rig.calls();
            assert!(
                calls.ends_with(" release") || calls == "release",
                "{fails}: {calls}"
            );
            assert_eq!(calls.matches("release").count(), 1, "{fails}: {calls}");
            assert_eq!(rig.done.get(), 1, "{fails}: on_done ran once");
            assert_eq!(broker.used(), 0, "{fails}: the grant came back");
            let left = std::fs::read_dir(&dir).expect("spill dir").count();
            assert_eq!(left, 0, "{fails}: spill files left behind");
            std::fs::remove_dir(&dir).expect("empty spill dir");
            for (_, rx) in &rig.inputs {
                assert!(rx.is_finished(), "{fails}: an input was left open");
            }
            assert_eq!(rig.read(), Err(true), "{fails}: end of stream, no page");
        }
    }

    #[test]
    fn an_input_from_another_thread_fails_the_query_with_its_producers_error() {
        // A link from a producer on another thread: one hand-off of two
        // pages, morsel 0, then the error that ended the producer.
        let (link, rx) = std::sync::mpsc::sync_channel(4);
        let broke = ExecError::plan("producer broke");
        assert!(link.send(Ok(Some((0, vec![page(1), page(2)])))).is_ok());
        assert!(link.send(Err(broke.clone())).is_ok());
        let calls = Rc::new(RefCell::new(Vec::new()));
        let (tx, out) = channel::bounded(8);
        let fault = FaultCell::default();
        let kernel = Box::new(Scripted::new(&calls));
        let fanout = Fanout::new(vec![tx.into()], 1.0);
        let mut shell =
            OperatorShell::new(kernel, vec![Inlet::os(rx, &fault)], fanout, fault.clone());
        let mut detached = DetachedCtx::new();
        // A page per step, whatever the hand-off held ...
        for _ in 0..2 {
            assert_eq!(shell.step(&mut detached.ctx(SHELL)), Step::yielded(10 + 1));
        }
        // ... then the producer's error is the query's, through the one
        // failure path, which hangs the link up.
        assert_eq!(shell.step(&mut detached.ctx(SHELL)), Step::done(1));
        assert_eq!(fault.get(), Some(broke));
        assert_eq!(calls.borrow().join(" "), "page0 page0 release");
        assert!(link.send(Ok(Some((1, vec![page(3)])))).is_err(), "hung up");
        let ctx = &mut detached.ctx(1);
        let read = [out.try_recv(ctx), out.try_recv(ctx)];
        assert!(matches!(read, [Recv::Value(_), Recv::Value(_)]));
        assert!(matches!(out.try_recv(ctx), Recv::Closed));
    }

    #[test]
    fn a_shell_whose_consumers_on_other_threads_all_hung_up_stops_within_a_morsel() {
        // Two consumers on other threads, two pages per hand-off; the
        // first is gone from the start.
        let (gone, _) = std::sync::mpsc::sync_channel(4);
        let (link, peer) = std::sync::mpsc::sync_channel(4);
        let calls = Rc::new(RefCell::new(Vec::new()));
        let fault = FaultCell::default();
        let outs = [gone, link].map(|tx| Outlet::os(tx, 2, &fault));
        let (tx, rx) = channel::bounded(8);
        let mut shell = OperatorShell::new(
            Box::new(Scripted::new(&calls)),
            vec![rx.clone().into()],
            Fanout::new(outs.into(), 1.0),
            fault.clone(),
        );
        let mut detached = DetachedCtx::new();
        for x in 0..5 {
            assert!(tx.try_send(page(x), &mut detached.ctx(0)).is_ok());
        }
        // The first hand-off finds one consumer gone; its peer is served.
        for _ in 0..2 {
            assert_eq!(shell.step(&mut detached.ctx(SHELL)), Step::yielded(10 + 2));
        }
        assert_eq!(peer.try_iter().count(), 1);
        // The peer goes too: nothing tells the shell until the next
        // hand-off, and then it stops, unfaulted, its input closed with a
        // page unread and its kernel released.
        drop(peer);
        assert_eq!(shell.step(&mut detached.ctx(SHELL)), Step::yielded(10 + 2));
        assert!(!rx.is_finished());
        assert_eq!(shell.step(&mut detached.ctx(SHELL)), Step::done(10 + 2));
        assert!(rx.is_finished(), "the producer is cancelled");
        assert_eq!(calls.borrow().join(" "), "page0 page0 page0 page0 release");
        assert!(!fault.is_set());
    }

    #[test]
    fn a_foreign_page_is_a_typed_fault_and_a_schema_is_compared_deeply_once() {
        let mut rig = Rig::new(8, |k| k.ports = 2);
        // Equal schemas behind two different `Arc`s are both accepted ...
        rig.feed(0, &[1, 2]);
        assert_eq!(rig.step().status, StepStatus::Yield);
        let input = &rig.shell.inputs[0];
        let (accepted, want) = (input.accepted.clone(), input.port.1.clone());
        let accepted = accepted.expect("a checked port");
        assert!(!Arc::ptr_eq(&accepted, &want.expect("a schema")));
        // ... a page of the remembered `Arc` by pointer alone ...
        let mut same = cordoba_storage::PageBuilder::new(accepted.clone());
        assert!(same.push_row(&[Value::Int(3)]));
        let same = same.finish();
        assert!(rig.inputs[0]
            .0
            .try_send(same, &mut rig.detached.ctx(0))
            .is_ok());
        assert_eq!(rig.step().status, StepStatus::Yield);
        assert_eq!(rig.step().status, StepStatus::Yield);
        let still = rig.shell.inputs[0].accepted.as_ref();
        assert!(still.is_some_and(|a| Arc::ptr_eq(&accepted, a)));
        // ... and a wider one fails the query, naming the port.
        let wide = Schema::new(vec![
            Field::new("x", DataType::Int),
            Field::new("y", DataType::Int),
        ]);
        let foreign = pages_of(&wide, &[vec![Value::Int(1), Value::Int(2)]])[0].clone();
        assert!(rig.inputs[0]
            .0
            .try_send(foreign, &mut rig.detached.ctx(0))
            .is_ok());
        assert_eq!(rig.step(), Step::done(1));
        assert_eq!(
            rig.fault.get(),
            Some(ExecError::InputPageMismatch {
                op: "scripted",
                detail: "first input: expected 1 columns / 8 B rows, got 2 columns / 16 B rows"
                    .into()
            })
        );
        assert_eq!(rig.calls(), "page0 page0 page0 release");
        assert_eq!(rig.done.get(), 1, "the input check's failure path too");
    }

    #[test]
    fn a_multi_page_step_charges_the_sum_of_its_calls() {
        // Six pages in hand, four calls a step: 4 then 2, each call 10 of
        // work plus 1 to deliver its one row; the rows stay in order.
        let mut rig = Rig::new(8, |_| ()).morsel(4);
        rig.feed(0, &[1, 2, 3, 4, 5, 6]);
        assert_eq!(rig.step(), Step::yielded(4 * (10 + 1)));
        assert_eq!(rig.calls(), "page0 page0 page0 page0");
        assert_eq!(rig.step(), Step::yielded(2 * (10 + 1)));
        assert_eq!(rig.calls().matches("page0").count(), 6);
        let read: Vec<_> = (0..6).map(|_| rig.read()).collect();
        assert_eq!(read, [1, 2, 3, 4, 5, 6].map(Ok));
    }

    #[test]
    fn a_full_consumer_ends_a_multi_page_step_with_one_calls_output_queued() {
        // Three copies of each page into a two-page channel: the first
        // call's third copy finds it full, so the step ends blocked
        // after one call, not four, with that copy queued.
        let mut rig = Rig::new(2, |k| k.copies = 3).morsel(4);
        rig.feed(0, &[1, 2]);
        assert_eq!(rig.step(), Step::blocked(10 + 2));
        assert_eq!(rig.calls(), "page0");
        assert_eq!(
            [rig.read(), rig.read(), rig.read()],
            [Ok(1), Ok(1), Err(false)]
        );
        // The queued copy goes first; page 2's three copies fill the
        // channel again.
        assert_eq!(rig.step(), Step::blocked(1 + 10 + 1));
        assert_eq!(rig.calls(), "page0 page0");
        assert_eq!([rig.read(), rig.read()], [Ok(1), Ok(2)]);
    }

    #[test]
    fn a_dry_port_ends_a_multi_page_step_as_a_yield_registering_no_waiter() {
        let mut rig = Rig::new(8, |_| ()).morsel(4);
        rig.feed(0, &[1, 2]);
        assert_eq!(rig.step(), Step::yielded(2 * (10 + 1)));
        assert_eq!(rig.calls(), "page0 page0");
        rig.detached.drain_wakes();
        rig.feed(0, &[3]);
        assert!(
            rig.detached.drain_wakes().is_empty(),
            "no waiter registered"
        );
        // Only a step's first read waits: an empty port then blocks it.
        assert_eq!(rig.step(), Step::yielded(10 + 1));
        assert_eq!(rig.step(), Step::blocked(0));
        rig.feed(0, &[4]);
        let woken = rig.detached.drain_wakes();
        assert_eq!(woken.iter().map(|t| t.index()).collect::<Vec<_>>(), [SHELL]);
    }

    #[test]
    fn a_close_with_a_min_tick_ends_its_multi_page_step() {
        // The close (3, raised to its floor of 5) is a step of its own;
        // the two batches and the last call then share one.
        let mut rig = Rig::new(8, |k| {
            k.min_tick = 5;
            k.batches = 2;
        })
        .morsel(4);
        rig.feed(0, &[1]);
        rig.close(0);
        assert_eq!(
            rig.step(),
            Step::yielded(10 + 1),
            "a closed port is no page"
        );
        assert_eq!(rig.step(), Step::yielded(5));
        assert_eq!(rig.calls(), "page0 close0");
        assert_eq!(rig.step(), Step::done(2 * (2 + 1)));
        assert_eq!(rig.calls(), "page0 close0 drain drain drain");
        assert_eq!(rig.done.get(), 1);
    }

    #[test]
    fn a_close_without_a_min_tick_drains_in_the_same_multi_page_step() {
        let mut rig = Rig::new(8, |k| k.tail = true).morsel(4);
        rig.close(0);
        // The close costs 3; the last call's tail costs 1 to deliver.
        assert_eq!(rig.step(), Step::done(3 + 1));
        assert_eq!(rig.calls(), "close0 drain");
        assert_eq!([rig.read(), rig.read()], [Ok(-1), Err(true)]);
    }

    #[test]
    fn last_mid_step_finishes_in_that_step() {
        // Two batches and the last call of a kernel without ports, four
        // calls a step: one step, three calls, done.
        let mut rig = Rig::new(8, |k| {
            k.ports = 0;
            k.batches = 2;
        })
        .morsel(4);
        assert_eq!(rig.step(), Step::done(2 * (2 + 1)));
        assert_eq!(rig.calls(), "drain drain drain");
        assert_eq!(rig.done.get(), 1);
        assert_eq!(
            [rig.read(), rig.read(), rig.read()],
            [Ok(-1), Ok(-1), Err(true)]
        );
    }

    #[test]
    fn a_link_from_another_thread_is_read_through_its_hand_off_only() {
        // A hand-off of two pages, morsel 0, four calls a step: the step
        // ends when the hand-off does, without waiting on the link.
        let (link, rx) = std::sync::mpsc::sync_channel(4);
        assert!(link.send(Ok(Some((0, vec![page(1), page(2)])))).is_ok());
        let calls = Rc::new(RefCell::new(Vec::new()));
        let (tx, _out) = channel::bounded(8);
        let fault = FaultCell::default();
        let kernel = Box::new(Scripted::new(&calls));
        let fanout = Fanout::new(vec![tx.into()], 1.0);
        let mut shell =
            OperatorShell::new(kernel, vec![Inlet::os(rx, &fault)], fanout, fault).morsel_pages(4);
        let mut detached = DetachedCtx::new();
        assert_eq!(
            shell.step(&mut detached.ctx(SHELL)),
            Step::yielded(2 * (10 + 1))
        );
        assert_eq!(calls.borrow().join(" "), "page0 page0");
        // The next step's first read may wait on the link: it reads the
        // producer's end hand-off.
        assert!(link.send(Ok(None)).is_ok());
        assert_eq!(shell.step(&mut detached.ctx(SHELL)), Step::done(3));
        assert_eq!(calls.borrow().join(" "), "page0 page0 close0 drain");
    }

    #[test]
    fn a_multi_page_shell_whose_consumers_on_other_threads_all_hung_up_stops_within_a_morsel() {
        // As the one-page case, four calls a step over hand-offs of two
        // pages: the call whose hand-off finds the last consumer gone
        // ends the task mid-step.
        let (gone, _) = std::sync::mpsc::sync_channel(4);
        let (link, peer) = std::sync::mpsc::sync_channel(4);
        let calls = Rc::new(RefCell::new(Vec::new()));
        let fault = FaultCell::default();
        let outs = [gone, link].map(|tx| Outlet::os(tx, 2, &fault));
        let (tx, rx) = channel::bounded(8);
        let mut shell = OperatorShell::new(
            Box::new(Scripted::new(&calls)),
            vec![rx.clone().into()],
            Fanout::new(outs.into(), 1.0),
            fault.clone(),
        )
        .morsel_pages(4);
        let mut detached = DetachedCtx::new();
        for x in 0..7 {
            assert!(tx.try_send(page(x), &mut detached.ctx(0)).is_ok());
        }
        assert_eq!(
            shell.step(&mut detached.ctx(SHELL)),
            Step::yielded(4 * (10 + 2))
        );
        assert_eq!(peer.try_iter().count(), 2);
        drop(peer);
        assert_eq!(
            shell.step(&mut detached.ctx(SHELL)),
            Step::done(2 * (10 + 2))
        );
        assert!(rx.is_finished(), "the producer is cancelled");
        let calls = calls.borrow().join(" ");
        assert_eq!(calls, "page0 page0 page0 page0 page0 page0 release");
        assert!(!fault.is_set());
    }
}
