//! The one channel layer: what an operator's ports read from and its
//! fan-out writes to, on either substrate.
//!
//! * **Simulator** — `cordoba_sim::channel`, a page per message: a full
//!   channel blocks the sending *task* and an empty one the receiving
//!   task (each registers as a waiter), all in one run loop.
//! * **OS threads** — `std::sync::mpsc::sync_channel` between run loops
//!   on two threads: a full channel blocks the sending *thread* and an
//!   empty one the receiving thread, so neither end ever reports full or
//!   empty, and a dropped end is a hang-up.
//!
//! [`Inlet`] and [`Outlet`] are the page ports: the shell reads every
//! input through an `Inlet` and its [`Fanout`](super::Fanout) delivers
//! through `Outlet`s, so an operator is wired across a thread boundary
//! exactly as within one run loop.
//!
//! **Links.** A plan's operators, and a shared pivot's fan-out to its
//! members, meet over simulator channels in one run loop, on either
//! substrate. The one link between run loops is a morsel group's, from
//! its workers to its merge: in the simulator a channel of the merge's
//! run loop, on threads an OS link from each worker's thread. It carries
//! one [`Handoff`]: a numbered morsel of pages, so crossing costs one
//! lock (often a futex wake) per morsel, not per page; the end of one
//! worker's stream; or the error that ended it. A worker hands off each
//! morsel its kernel finishes ([`Drained::morsel`](super::shell::Drained::morsel))
//! whole, tagged with the morsel's index — empty if the chain kept no
//! row of it — and a simulator channel with no room blocks the worker
//! until the merge reads. The inlet releases morsels in index order, so
//! a group's rows are the serial wiring's for any worker count. It
//! reads as closed once every worker has ended its stream (a simulator
//! channel closes with its last outlet; on an OS link each outlet's last
//! hand-off says so), in the step that ends the last worker, not when
//! its thread exits.
//!
//! Order is the link's contract:
//! * an outlet hands off each morsel whole, and what it gathered past
//!   the last one when its stream closes;
//! * once the worker has faulted it hands nothing more off and discards
//!   the pages in hand; on threads its driver sends the error down the
//!   link after them, so the merge never mistakes a truncated stream for
//!   end-of-stream;
//! * a merge hangs up once its query has failed, whichever of its
//!   operators failed, and stops being served at each worker's next
//!   hand-off; a worker whose every consumer is gone ends its stream
//!   early (see [`Fanout::is_unheard`](super::Fanout::is_unheard)).
//!
//! **Reorder bound.** The inlet holds the morsels that finished ahead
//! of the one it must release next, and the link up to its capacity
//! more. In the simulator round-robin fairness keeps workers within a
//! few morsels of each other; on real threads nothing does (one
//! descheduled worker holds morsel `i` while its peers run ahead), so
//! the bound is the group's whole output — what materialising the
//! fragment would cost, and no more. There is no knob for it, and it is
//! not charged to the query's broker.

use crate::error::{ExecError, FaultCell};
use cordoba_sim::channel::{Receiver, Recv, Sender};
use cordoba_sim::TaskCtx;
use cordoba_storage::Page;
use std::collections::BTreeMap;
use std::sync::{mpsc, Arc};

/// One hand-off on a link: a morsel a worker finished — its index and
/// every page of it — or `None`, the end of that worker's stream; or
/// the error that ended the worker early.
pub(crate) type Handoff = Result<Option<(usize, Vec<Arc<Page>>)>, ExecError>;

/// Where an operator reads one input from.
pub struct Inlet(In);

/// A link is boxed, so the simulator's hot path keeps a small port.
enum In {
    Sim(Receiver<Arc<Page>>),
    Link(Box<Feed>),
}

/// The reading end of a link, as a [`Feed`] reads it.
pub(crate) enum LinkRx {
    /// Workers on other threads.
    Os(mpsc::Receiver<Handoff>),
    /// Workers in the same run loop.
    Sim(Receiver<Handoff>),
}

/// A link being read.
struct Feed {
    /// `None` once the link ended or was hung up.
    rx: Option<LinkRx>,
    /// The hand-off being unpacked.
    morsel: std::vec::IntoIter<Arc<Page>>,
    /// Morsels that arrived ahead of `next` (see the module docs for the
    /// bound).
    ahead: BTreeMap<usize, Vec<Arc<Page>>>,
    /// The index of the morsel to release next.
    next: usize,
    /// Workers that have not ended their stream yet.
    open: usize,
    /// The reading query's fault.
    fault: FaultCell,
}

impl Feed {
    fn recv(&mut self, ctx: &mut TaskCtx<'_>) -> Result<Recv<Arc<Page>>, ExecError> {
        if self.fault.is_set() {
            self.hang_up(ctx);
        }
        loop {
            if let Some(page) = self.morsel.next() {
                return Ok(Recv::Value(page));
            }
            if let Some(pages) = self.ahead.remove(&self.next) {
                self.next += 1;
                self.morsel = pages.into_iter();
                continue;
            }
            let handoff = match &self.rx {
                None => return Ok(Recv::Closed),
                Some(LinkRx::Os(rx)) => rx.recv(),
                Some(LinkRx::Sim(rx)) => match rx.try_recv(ctx) {
                    Recv::Value(handoff) => Ok(handoff),
                    Recv::Empty => return Ok(Recv::Empty),
                    Recv::Closed => Err(mpsc::RecvError),
                },
            };
            match handoff {
                Ok(Ok(Some((index, pages)))) if index == self.next => {
                    self.next += 1;
                    self.morsel = pages.into_iter();
                }
                Ok(Ok(Some((index, pages)))) => {
                    self.ahead.insert(index, pages);
                }
                Ok(Ok(None)) => {
                    self.open -= 1;
                    if self.open == 0 {
                        self.rx = None;
                    }
                }
                Ok(Err(err)) => {
                    self.hang_up(ctx);
                    return Err(err);
                }
                // Every worker closed and hung up: end of stream. (On an
                // OS link that is a worker thread that panicked, which
                // its driver re-raises.)
                Err(mpsc::RecvError) => self.rx = None,
            }
        }
    }

    /// Whether `recv` would return a page without reading the link. A
    /// faulted query's reads as closed.
    fn holds_page(&self) -> bool {
        let ahead = || self.ahead.get(&self.next).is_some_and(|p| !p.is_empty());
        !self.fault.is_set() && (!self.morsel.as_slice().is_empty() || ahead())
    }

    fn hang_up(&mut self, ctx: &mut TaskCtx<'_>) {
        if let Some(LinkRx::Sim(rx)) = &self.rx {
            rx.close(ctx);
        }
        self.rx = None;
        self.morsel = Vec::new().into_iter();
        self.ahead.clear();
    }
}

impl From<Receiver<Arc<Page>>> for Inlet {
    fn from(rx: Receiver<Arc<Page>>) -> Self {
        Inlet(In::Sim(rx))
    }
}

impl Inlet {
    /// Reads a morsel group's link from its `producers` (the group's
    /// workers), one page per call whatever each hand-off holds,
    /// releasing their morsels in index order, for the query whose fault
    /// is `fault`: once that is set the query needs no more input, so
    /// the link hangs up and reads as closed.
    pub(crate) fn group(rx: LinkRx, producers: usize, fault: &FaultCell) -> Self {
        Inlet(In::Link(Box::new(Feed {
            rx: Some(rx),
            morsel: Vec::new().into_iter(),
            ahead: BTreeMap::new(),
            next: 0,
            open: producers,
            fault: fault.clone(),
        })))
    }

    /// The next page. [`Recv::Empty`] (simulator only) registered the
    /// caller as a waiter; an OS link blocks the thread instead. `Err`
    /// is a worker's error, after which the link reads as closed.
    #[inline]
    pub fn recv(&mut self, ctx: &mut TaskCtx<'_>) -> Result<Recv<Arc<Page>>, ExecError> {
        match &mut self.0 {
            In::Sim(rx) => Ok(rx.try_recv(ctx)),
            In::Link(feed) => feed.recv(ctx),
        }
    }

    /// Whether [`Inlet::recv`] would return a page now, without waiting:
    /// a simulator channel holds one, or a link one of the hand-off it
    /// is unpacking (or of the next in order, already arrived). Registers
    /// nothing and never blocks; `false` for an input that has ended.
    #[inline]
    pub(crate) fn is_ready(&self) -> bool {
        match &self.0 {
            In::Sim(rx) => !rx.is_empty(),
            In::Link(feed) => feed.holds_page(),
        }
    }

    /// Stops reading (the query failed): a simulator channel swallows
    /// whatever is sent from now on, and a link hangs up, so its
    /// workers stop serving this merge.
    pub(crate) fn close(&mut self, ctx: &mut TaskCtx<'_>) {
        match &mut self.0 {
            In::Sim(rx) => rx.close(ctx),
            In::Link(feed) => feed.hang_up(ctx),
        }
    }
}

/// Where an operator delivers its pages to one consumer.
pub struct Outlet(Out);

/// A link is boxed, as in `In`.
enum Out {
    Sim(Sender<Arc<Page>>),
    Link(Box<Link>),
}

/// The sending end of a link.
pub(crate) enum LinkTx {
    Os(mpsc::SyncSender<Handoff>),
    Sim(Sender<Handoff>),
}

/// A worker's end of its group's link.
struct Link {
    /// `None` once the merge hung up or the stream closed.
    tx: Option<LinkTx>,
    /// The pages of the morsel in progress.
    morsel: Vec<Arc<Page>>,
    /// The index of the morsel in progress.
    index: usize,
    /// The worker's fault.
    fault: FaultCell,
}

impl Link {
    /// Hands morsel `index` off, whole; `false` when a simulator channel
    /// had no room (the worker is registered as a waiter and keeps the
    /// pages). A faulted worker hands nothing more off, and a merge found
    /// hung up stops being served.
    fn hand_off(&mut self, index: usize, ctx: &mut TaskCtx<'_>) -> bool {
        let pages = std::mem::take(&mut self.morsel);
        self.index = index + 1;
        if self.fault.is_set() {
            return true;
        }
        match &self.tx {
            Some(LinkTx::Sim(tx)) => match tx.try_send(Ok(Some((index, pages))), ctx) {
                Ok(()) => true,
                Err(back) => {
                    if let Ok(Some((_, pages))) = back {
                        self.morsel = pages;
                    }
                    false
                }
            },
            Some(LinkTx::Os(tx)) => {
                if tx.send(Ok(Some((index, pages)))).is_err() {
                    self.tx = None;
                }
                true
            }
            None => true,
        }
    }

    /// Hands off what was gathered past the last morsel, if anything, and
    /// ends the stream: a simulator channel closes with its last outlet;
    /// an OS link says so in a last hand-off, unless the worker faulted
    /// (its driver sends the error instead).
    fn close(&mut self, ctx: &mut TaskCtx<'_>) {
        if !self.morsel.is_empty() {
            self.hand_off(self.index, ctx);
        }
        match self.tx.take() {
            Some(LinkTx::Sim(tx)) => tx.close(ctx),
            Some(LinkTx::Os(tx)) if !self.fault.is_set() => {
                // A merge that hung up has no use for it.
                let _ = tx.send(Ok(None));
            }
            _ => {}
        }
    }
}

impl From<Sender<Arc<Page>>> for Outlet {
    fn from(tx: Sender<Arc<Page>>) -> Self {
        Outlet(Out::Sim(tx))
    }
}

impl Outlet {
    /// A morsel group worker's end of its group's link: each morsel the
    /// worker ends goes to the merge whole, until `fault` — the
    /// worker's — is set.
    pub(crate) fn group(tx: LinkTx, fault: &FaultCell) -> Self {
        Outlet(Out::Link(Box::new(Link {
            tx: Some(tx),
            morsel: Vec::new(),
            index: 0,
            fault: fault.clone(),
        })))
    }

    /// Hands `page` on; `Err` gives it back when a simulator channel is
    /// full (the caller is registered as a waiter). A link gathers it
    /// into the morsel in progress; one whose merge hung up, like a
    /// closed simulator channel, swallows the page.
    #[inline]
    pub(crate) fn send(&mut self, page: Arc<Page>, ctx: &mut TaskCtx<'_>) -> Result<(), Arc<Page>> {
        match &mut self.0 {
            Out::Sim(tx) => tx.try_send(page, ctx),
            Out::Link(link) => {
                if link.tx.is_some() {
                    link.morsel.push(page);
                }
                Ok(())
            }
        }
    }

    /// The worker finished its morsel `index` with the pages sent so
    /// far: its link hands the morsel off, and says `false` when a
    /// simulator channel had no room (the caller is registered as a
    /// waiter and asks again). A simulator channel has nothing to do.
    pub(crate) fn end_morsel(&mut self, index: usize, ctx: &mut TaskCtx<'_>) -> bool {
        match &mut self.0 {
            Out::Link(link) => link.hand_off(index, ctx),
            Out::Sim(_) => true,
        }
    }

    /// Whether this is a link whose merge was found hung up (or whose
    /// stream has closed): nothing sent here is read. A simulator
    /// channel never says so.
    #[inline]
    pub(crate) fn is_hung_up(&self) -> bool {
        match &self.0 {
            Out::Sim(_) => false,
            Out::Link(link) => link.tx.is_none(),
        }
    }

    /// Ends the stream: a simulator channel closes; a link hands off
    /// what it gathered past its last morsel and ends the worker's
    /// stream.
    pub(crate) fn close(&mut self, ctx: &mut TaskCtx<'_>) {
        match &mut self.0 {
            Out::Sim(tx) => tx.close(ctx),
            Out::Link(link) => link.close(ctx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Fanout;
    use cordoba_sim::{channel, DetachedCtx};
    use cordoba_storage::{DataType, Field, PageBuilder, Schema, Value};

    /// Pages per morsel of the links below.
    const MORSEL: usize = 4;

    /// `n` distinct one-row pages.
    fn pivot_pages(n: usize) -> Vec<Arc<Page>> {
        let schema = Schema::new(vec![Field::new("k", DataType::Int)]);
        (0..n)
            .map(|i| {
                let mut b = PageBuilder::new(schema.clone());
                b.push_row(&[Value::Int(i as i64)]);
                b.finish()
            })
            .collect()
    }

    /// A morsel worker stepped by hand: its shell's fan-out over its
    /// group's OS link, its fault cell, and its driver's sender; the
    /// merge's end of the link goes to the caller.
    struct Stepped {
        fanout: Fanout,
        fault: FaultCell,
        tx: mpsc::SyncSender<Handoff>,
    }

    fn stepped() -> (Stepped, mpsc::Receiver<Handoff>) {
        let (tx, rx) = mpsc::sync_channel(16);
        let fault = FaultCell::default();
        let outlet = Outlet::group(LinkTx::Os(tx.clone()), &fault);
        let fanout = Fanout::new(vec![outlet], 0.0);
        (Stepped { fanout, fault, tx }, rx)
    }

    impl Stepped {
        /// The worker's kernel emits `pages`, ending morsel `index` with
        /// them if given.
        fn emit(&mut self, pages: &[Arc<Page>], index: Option<usize>, ctx: &mut TaskCtx<'_>) {
            self.fanout.extend(&mut pages.to_vec());
            if let Some(index) = index {
                self.fanout.end_morsel(index);
            }
            assert!(self.fanout.flush(ctx).1, "an OS link is never full");
        }

        /// As its driver ends: the shell closes its stream, then the run's
        /// ports go, then the worker's error follows if it failed.
        fn finish(mut self, ctx: &mut TaskCtx<'_>) {
            self.fanout.close(ctx);
            drop(self.fanout);
            if let Some(err) = self.fault.take() {
                let _ = self.tx.send(Err(err));
            }
        }
    }

    /// Reads `inlet` to its end as the port of a consumer's operator:
    /// the pages it fed, how many reads that took, and the producer's
    /// error if one ended it.
    fn read_all(
        mut inlet: Inlet,
        ctx: &mut TaskCtx<'_>,
    ) -> (Vec<Arc<Page>>, usize, Option<ExecError>) {
        let (mut fed, mut reads) = (Vec::new(), 0);
        loop {
            reads += 1;
            match inlet.recv(ctx) {
                Ok(Recv::Value(page)) => fed.push(page),
                Ok(Recv::Closed) => return (fed, reads, None),
                Ok(Recv::Empty) => panic!("an OS link blocks instead"),
                Err(err) => return (fed, reads, Some(err)),
            }
        }
    }

    fn same_pages(got: &[Arc<Page>], want: &[Arc<Page>]) -> bool {
        got.len() == want.len() && got.iter().zip(want).all(|(g, w)| Arc::ptr_eq(g, w))
    }

    /// The pages of a link's morsel hand-offs, in the order they came.
    fn handed_pages(handoffs: Vec<Option<(usize, Vec<Arc<Page>>)>>) -> Vec<Arc<Page>> {
        handoffs
            .into_iter()
            .flatten()
            .flat_map(|(_, p)| p)
            .collect()
    }

    #[test]
    fn the_seam_hands_off_whole_morsels_and_the_partial_tail() {
        // A group link across threads: the worker ends a morsel with each
        // full `MORSEL` pages; the tail it emits ends no morsel, and its
        // close hands that off too.
        let mut detached = DetachedCtx::new();
        let ctx = &mut detached.ctx(0);
        for n in [
            0,
            1,
            MORSEL - 1,
            MORSEL,
            MORSEL + 1,
            2 * MORSEL - 1,
            2 * MORSEL,
        ] {
            let pages = pivot_pages(n);
            let (mut worker, raw) = stepped();
            let (full, tail) = pages.split_at(n / MORSEL * MORSEL);
            for (i, morsel) in full.chunks(MORSEL).enumerate() {
                worker.emit(morsel, Some(i), ctx);
            }
            worker.emit(tail, None, ctx);
            worker.finish(ctx);
            // The raw link: full morsels numbered from 0, then the tail,
            // never an empty hand-off, then exactly one end.
            let mut handoffs: Vec<_> = raw.try_iter().map(|h| h.expect("no fault")).collect();
            assert!(matches!(handoffs.pop(), Some(None)), "n={n}: the end");
            let numbered: Vec<_> = handoffs
                .iter()
                .map(|h| h.as_ref().map(|(i, p)| (*i, p.len())))
                .collect();
            let mut want = vec![MORSEL; n / MORSEL];
            want.extend((n % MORSEL > 0).then_some(n % MORSEL));
            let want: Vec<_> = want.into_iter().enumerate().map(Some).collect();
            assert_eq!(numbered, want, "n={n}");
            assert!(same_pages(&handed_pages(handoffs.clone()), &pages), "n={n}");
            // The merge's port over the same hand-offs: the same pages
            // (not copies), one per read, then end-of-stream.
            let (wire, rx) = mpsc::sync_channel(16);
            for handoff in handoffs.into_iter().chain([None]) {
                assert!(wire.send(Ok(handoff)).is_ok());
            }
            let port = Inlet::group(LinkRx::Os(rx), 1, &FaultCell::default());
            let (fed, reads, fault) = read_all(port, ctx);
            assert!(same_pages(&fed, &pages), "n={n}");
            assert_eq!(reads, n + 1, "n={n}");
            assert!(fault.is_none(), "n={n}");
        }
    }

    #[test]
    fn a_hung_up_consumer_is_dropped_at_the_next_hand_off() {
        let mut detached = DetachedCtx::new();
        let ctx = &mut detached.ctx(0);
        let pages = pivot_pages(2 * MORSEL);
        // How many outlets are gathering a page: its strong count less
        // the test's own.
        let gathering = |page: &Arc<Page>| Arc::strong_count(page) - 1;
        let (mut worker, rx) = stepped();
        let failed = FaultCell::default();
        let mut port = Inlet::group(LinkRx::Os(rx), 1, &failed);
        worker.emit(&pages[..MORSEL], Some(0), ctx);
        assert!(matches!(port.recv(ctx), Ok(Recv::Value(_))));
        // The merge's query fails after the first hand-off, in an
        // operator other than the one reading the link: its port reads as
        // closed, the morsel in hand unread, and hangs up. Nothing tells
        // the worker until its next hand-off, which finds nobody: from
        // then on nothing is gathered, and its fan-out is unheard.
        failed.set(ExecError::plan("merge broke"));
        assert!(matches!(port.recv(ctx), Ok(Recv::Closed)));
        worker.emit(&pages[MORSEL..2 * MORSEL - 1], None, ctx);
        assert_eq!(gathering(&pages[MORSEL]), 1);
        assert!(!worker.fanout.is_unheard());
        worker.emit(&pages[2 * MORSEL - 1..], Some(1), ctx);
        assert_eq!(gathering(&pages[MORSEL]), 0);
        assert!(worker.fanout.is_unheard(), "the worker is cancelled");
        worker.finish(ctx);
    }

    #[test]
    fn a_pivot_fault_discards_the_morsel_in_hand() {
        let mut detached = DetachedCtx::new();
        let ctx = &mut detached.ctx(0);
        let pages = pivot_pages(MORSEL + 2);
        let (mut worker, rx) = stepped();
        let inlet = Inlet::group(LinkRx::Os(rx), 1, &FaultCell::default());
        // One morsel is out and two pages of the next are in hand when
        // the worker faults and its shell ends the stream, as a failing
        // operator's shell does; its driver then sends the error.
        worker.emit(&pages[..MORSEL], Some(0), ctx);
        worker.emit(&pages[MORSEL..], None, ctx);
        let err = ExecError::plan("worker broke");
        worker.fault.set(err.clone());
        worker.finish(ctx);
        // The merge was fed the first morsel and nothing of the second,
        // and its query fails with the worker's error.
        let (fed, _, fault) = read_all(inlet, ctx);
        assert!(same_pages(&fed, &pages[..MORSEL]));
        assert_eq!(fault, Some(err));
    }

    /// Model checks in the manner of `crates/sim/tests/model_channel.rs`:
    /// every merge order of the steps of a few step machines must leave
    /// each consumer that stayed with either its producers' complete
    /// page sequence, in order, then end-of-stream — or a producer's
    /// error. A truncated stream that reads as complete is the bug these
    /// guard against. The machines are a shared pivot's root fanning out
    /// to two member sinks in the group's one run loop, and a morsel
    /// group's two workers on threads of their own feeding one merge over
    /// an OS link.
    mod seam_model {
        use super::*;
        use shuttle_lite::explore::{count, interleavings};

        /// Pages a healthy pivot emits, and its feeds' capacity: a member
        /// that falls behind blocks the pivot, whose last pages then wait
        /// in its fan-out until its close flushes them.
        const PAGES: usize = 3;
        const FEED: usize = 1;

        /// The pivot's root in the group's run loop: `emitted` pages, a
        /// page a step, then it ends its stream — after it faulted, if
        /// `faulty`. A step whose delivery finds a full feed retries the
        /// delivery alone, as a blocked task's next step does.
        struct Pivot {
            fanout: Fanout,
            fault: FaultCell,
            pages: Vec<Arc<Page>>,
            emitted: usize,
            faulty: bool,
            op: usize,
            done: bool,
        }

        impl Pivot {
            fn step(&mut self, ctx: &mut TaskCtx<'_>) {
                if self.done || !self.fanout.flush(ctx).1 {
                    return;
                }
                if self.op < self.emitted {
                    self.fanout.extend(&mut vec![self.pages[self.op].clone()]);
                    self.fanout.flush(ctx);
                } else {
                    if self.faulty {
                        // The failure path: nothing undelivered goes out.
                        self.fault.set(ExecError::plan("pivot broke"));
                        self.fanout.abandon();
                    }
                    self.fanout.close(ctx);
                    self.done = true;
                }
                self.op += 1;
            }
        }

        /// A member's sink reading its feed through its port, a read a
        /// step; at end-of-stream it fails if its pivot's fault is set.
        struct Member {
            port: Inlet,
            pivot: FaultCell,
            fed: Vec<Arc<Page>>,
            fault: Option<ExecError>,
            done: bool,
        }

        impl Member {
            fn step(&mut self, ctx: &mut TaskCtx<'_>) {
                if self.done {
                    return;
                }
                match self.port.recv(ctx) {
                    Ok(Recv::Value(page)) => self.fed.push(page),
                    Ok(Recv::Empty) => {}
                    Ok(Recv::Closed) => (self.fault, self.done) = (self.pivot.get(), true),
                    Err(err) => panic!("a simulator channel carries no error: {err}"),
                }
            }
        }

        /// Explores every interleaving of the pivot (`emitted + 2` ops)
        /// and two members; member 0 hangs up at its op `hang_up`, if
        /// given. Returns how many were explored.
        fn explore(emitted: usize, faulty: bool, hang_up: Option<usize>) -> usize {
            let lens = [emitted + 2, 3, 4];
            let pages = pivot_pages(PAGES);
            let (explored, exhausted) = interleavings(&lens, usize::MAX, |seq| {
                let mut detached = DetachedCtx::new();
                let ctx = &mut detached.ctx(0);
                let fault = FaultCell::default();
                let (outs, feeds): (Vec<Outlet>, Vec<_>) = (0..2)
                    .map(|_| {
                        let (tx, rx) = channel::bounded(FEED);
                        (tx.into(), rx)
                    })
                    .unzip();
                let mut pivot = Pivot {
                    fanout: Fanout::new(outs, 0.0),
                    fault: fault.clone(),
                    pages: pages.clone(),
                    emitted,
                    faulty,
                    op: 0,
                    done: false,
                };
                let mut members: Vec<_> = feeds
                    .into_iter()
                    .map(|rx| Member {
                        port: rx.into(),
                        pivot: fault.clone(),
                        fed: Vec::new(),
                        fault: None,
                        done: false,
                    })
                    .collect();
                let mut ops = [0usize; 3];
                for &t in seq {
                    match t {
                        0 => pivot.step(ctx),
                        m => {
                            let member = &mut members[m - 1];
                            if m == 1 && hang_up == Some(ops[1]) && !member.done {
                                // Its own failure: its fragment stops
                                // reading, and its feed swallows the rest.
                                member.port.close(ctx);
                                member.done = true;
                            }
                            member.step(ctx);
                        }
                    }
                    ops[t] += 1;
                }
                // Nothing is left to race: run the loop to its end.
                while !(pivot.done && members.iter().all(|m| m.done)) {
                    pivot.step(ctx);
                    members.iter_mut().for_each(|m| m.step(ctx));
                }
                let stayed = members.iter().skip(usize::from(hang_up.is_some()));
                for member in stayed {
                    let fed = &member.fed;
                    match &member.fault {
                        Some(err) => assert!(faulty, "seq {seq:?}: {err} from a healthy pivot"),
                        None => {
                            assert!(!faulty, "seq {seq:?}: a failed pivot read as end-of-stream");
                            assert!(
                                same_pages(fed, &pages[..emitted]),
                                "seq {seq:?}: truncated or reordered: {} of {emitted} pages",
                                fed.len()
                            );
                        }
                    }
                    // Whatever was fed is a prefix of the pivot's output.
                    assert!(same_pages(fed, &pages[..fed.len()]), "seq {seq:?}");
                }
            });
            assert!(exhausted);
            assert_eq!(explored, count(&lens));
            explored
        }

        /// The acceptance floor per scenario, as in the channel suite.
        const MIN_INTERLEAVINGS: usize = 1_000;

        #[test]
        fn flush_on_close_delivers_the_partial_tail_to_everyone() {
            assert!(explore(PAGES, false, None) >= MIN_INTERLEAVINGS);
        }

        #[test]
        fn a_consumer_hang_up_leaves_its_peer_exact() {
            // Before its first read, after it, and after two.
            for at in 0..3 {
                assert!(explore(PAGES, false, Some(at)) >= MIN_INTERLEAVINGS);
            }
        }

        #[test]
        fn a_pivot_fault_reaches_every_consumer_as_an_error() {
            // With nothing, one page, and every page in the fan-out's
            // hand or out; and with a member leaving too.
            for emitted in 0..=PAGES {
                assert!(explore(emitted, true, None) >= MIN_INTERLEAVINGS);
            }
            assert!(explore(PAGES, true, Some(1)) >= MIN_INTERLEAVINGS);
        }

        /// One merge thread, reading its group's link through its port. A
        /// thread blocked in `recv` makes no progress, so a step that
        /// would park is skipped; to know which steps would, the link ends
        /// at `tap` and a hand-off crosses to the port's own link (`wire`)
        /// only at the step that needs it.
        struct Consumer {
            tap: mpsc::Receiver<Handoff>,
            wire: Option<mpsc::SyncSender<Handoff>>,
            port: Inlet,
            /// Pages of each morsel crossed so far, by index.
            crossed: BTreeMap<usize, usize>,
            /// Workers, and the end hand-offs crossed so far.
            producers: usize,
            ends: usize,
            /// Whether an error has crossed.
            failed: bool,
            fed: Vec<Arc<Page>>,
            fault: Option<ExecError>,
            done: bool,
        }

        impl Consumer {
            fn new(tap: mpsc::Receiver<Handoff>, producers: usize) -> Self {
                let (wire, rx) = mpsc::sync_channel(16);
                Consumer {
                    tap,
                    wire: Some(wire),
                    port: Inlet::group(LinkRx::Os(rx), producers, &FaultCell::default()),
                    crossed: BTreeMap::new(),
                    producers,
                    ends: 0,
                    failed: false,
                    fed: Vec::new(),
                    fault: None,
                    done: false,
                }
            }

            /// Whether the port's next read returns without parking,
            /// judged by the index order the link promises: the morsel
            /// of the next page has crossed, or an error, or every end
            /// (or the tap hung up).
            fn ready(&self) -> bool {
                let in_order = (0..).map_while(|i| self.crossed.get(&i)).sum::<usize>();
                self.fed.len() < in_order
                    || self.failed
                    || self.ends == self.producers
                    || self.wire.is_none()
            }

            fn step(&mut self, ctx: &mut TaskCtx<'_>) {
                if self.done {
                    return;
                }
                if !self.ready() {
                    match self.tap.try_recv() {
                        Ok(handoff) => {
                            match &handoff {
                                Ok(Some((index, pages))) => {
                                    self.crossed.insert(*index, pages.len());
                                }
                                Ok(None) => self.ends += 1,
                                Err(_) => self.failed = true,
                            }
                            let wire = self.wire.as_ref().expect("the producers have not hung up");
                            wire.send(handoff).expect("the port listens");
                        }
                        Err(mpsc::TryRecvError::Empty) => return,
                        Err(mpsc::TryRecvError::Disconnected) => self.wire = None,
                    }
                    if !self.ready() {
                        return;
                    }
                }
                match self.port.recv(ctx) {
                    Ok(Recv::Value(page)) => self.fed.push(page),
                    Ok(Recv::Closed) => {
                        let ended = self.ends == self.producers || self.wire.is_none();
                        assert!(ended, "end-of-stream before every producer's end");
                        self.done = true;
                    }
                    Ok(Recv::Empty) => panic!("an OS link blocks instead"),
                    Err(err) => (self.fault, self.done) = (Some(err), true),
                }
            }
        }

        /// One worker thread of a morsel group: a worker's shell ends
        /// each of its morsels, one page each, through its fan-out, then
        /// its stream — after it faulted, at op `fails`, if given — and
        /// then its driver's tail (`wiring::run_worker`'s).
        struct Worker {
            fanout: Option<Fanout>,
            fault: FaultCell,
            tx: mpsc::SyncSender<Handoff>,
            /// Its morsels' indexes, which are also its pages'.
            morsels: [usize; 2],
            fails: Option<usize>,
            op: usize,
        }

        impl Worker {
            fn new(
                tx: &mpsc::SyncSender<Handoff>,
                morsels: [usize; 2],
                fails: Option<usize>,
            ) -> Self {
                let fault = FaultCell::default();
                let outlet = Outlet::group(LinkTx::Os(tx.clone()), &fault);
                Worker {
                    fanout: Some(Fanout::new(vec![outlet], 0.0)),
                    fault,
                    tx: tx.clone(),
                    morsels,
                    fails,
                    op: 0,
                }
            }

            fn step(&mut self, pages: &[Arc<Page>], ctx: &mut TaskCtx<'_>) {
                let Some(fanout) = &mut self.fanout else {
                    return;
                };
                if self.fails == Some(self.op) {
                    self.fault.set(ExecError::plan("worker broke"));
                }
                match self.morsels.get(self.op) {
                    Some(&index) => {
                        fanout.extend(&mut vec![pages[index].clone()]);
                        fanout.end_morsel(index);
                        assert!(fanout.flush(ctx).1, "an OS link is never full");
                    }
                    None if self.op == self.morsels.len() => fanout.close(ctx),
                    None => {
                        self.fanout = None;
                        if let Some(err) = self.fault.take() {
                            let _ = self.tx.send(Err(err));
                        }
                    }
                }
                self.op += 1;
            }
        }

        /// Explores every interleaving of a group's two workers (four
        /// ops each; worker 0 ends morsels 0 and 2, worker 1 morsels 1
        /// and 3, and worker 0 faults at its op `fails`, if given) and
        /// the merge reading their link. Returns how many were explored.
        fn explore_group(fails: Option<usize>) -> usize {
            let lens = [4, 4, 4];
            let pages = pivot_pages(4);
            let (explored, exhausted) = interleavings(&lens, usize::MAX, |seq| {
                let mut detached = DetachedCtx::new();
                let ctx = &mut detached.ctx(0);
                let (tx, tap) = mpsc::sync_channel(16);
                let mut workers = [
                    Worker::new(&tx, [0, 2], fails),
                    Worker::new(&tx, [1, 3], None),
                ];
                drop(tx);
                let mut merge = Consumer::new(tap, 2);
                for &t in seq {
                    match t {
                        2 => merge.step(ctx),
                        w => workers[w].step(&pages, ctx),
                    }
                }
                // Nothing is left to race: run each thread to its end.
                for worker in &mut workers {
                    while worker.fanout.is_some() {
                        worker.step(&pages, ctx);
                    }
                }
                while !merge.done {
                    merge.step(ctx);
                }
                let fed = &merge.fed;
                match (&merge.fault, fails) {
                    (Some(err), None) => panic!("seq {seq:?}: {err} from healthy workers"),
                    (None, Some(_)) => panic!("seq {seq:?}: a failed worker read as end-of-stream"),
                    (None, None) => assert!(
                        same_pages(fed, &pages),
                        "seq {seq:?}: truncated or out of index order: {} of 4 pages",
                        fed.len()
                    ),
                    (Some(_), Some(_)) => {}
                }
                // Whatever was fed is a prefix of the group's output.
                assert!(same_pages(fed, &pages[..fed.len()]), "seq {seq:?}");
            });
            assert!(exhausted);
            assert_eq!(explored, count(&lens));
            explored
        }

        #[test]
        fn a_group_link_releases_morsels_in_index_order_after_both_workers_end() {
            assert!(explore_group(None) >= MIN_INTERLEAVINGS);
        }

        #[test]
        fn a_worker_fault_reaches_the_merge_as_an_error() {
            // Before its first morsel, between its two, and at its close.
            for at in 0..3 {
                assert!(explore_group(Some(at)) >= MIN_INTERLEAVINGS);
            }
        }
    }
}
