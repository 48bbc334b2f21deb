//! The one channel layer: what an operator's ports read from and its
//! fan-out writes to, on either substrate.
//!
//! * **Simulator** — `cordoba_sim::channel`, a page per message: a full
//!   channel blocks the sending *task* and an empty one the receiving
//!   task (each registers as a waiter), all in one run loop.
//! * **OS threads** — `std::sync::mpsc::sync_channel` between run loops
//!   on two threads: a full channel blocks the sending *thread* and an
//!   empty one the receiving thread, so neither end ever reports full or
//!   empty, and a dropped end is a hang-up. A page link carries a
//!   [`Handoff`] — a morsel of pages, so crossing costs one lock (often
//!   a futex wake) per morsel, not per page — or the error that ended
//!   the producer.
//!
//! [`Inlet`] and [`Outlet`] are the page ports: the shell reads every
//! input through an `Inlet` and its [`Fanout`](super::Fanout) delivers
//! through `Outlet`s, so an operator is wired across a thread boundary
//! exactly as within one run loop.
//!
//! Across threads, order is the contract:
//! * an outlet gathers `morsel_pages` pages per hand-off and flushes the
//!   partial last one when its stream closes — never an empty one;
//! * once the producer's query has faulted it hands nothing more off and
//!   discards the pages in hand; the driver sends the error down the
//!   link after them (`wiring::run_feeding`), so no consumer mistakes a
//!   truncated stream for end-of-stream;
//! * a consumer hangs up once its query has failed, whichever of its
//!   operators failed, and stops being served at the producer's next
//!   hand-off, while its peers go on; once every consumer is gone the
//!   producer's shell ends the stream early (see
//!   [`Fanout::is_unheard`](super::Fanout::is_unheard)).
//!
//! **Group links.** The workers of a morsel group share one link to
//! their merge, a simulator channel or an OS one, carrying
//! `GroupHandoff`s. A worker's kernel reports each morsel it finishes
//! ([`Drained::morsel`](super::shell::Drained::morsel)); its outlet
//! hands the morsel off whole, tagged with its index — empty if the
//! chain kept no row of it — and a simulator channel with no room
//! blocks the worker until the merge reads. The inlet releases morsels
//! in index order, so the rows are the serial wiring's for any worker
//! count. It reads as closed once every worker has ended its stream
//! (the simulator channel closes with the last worker's outlet; on an
//! OS link each outlet's last hand-off says so), in the step that ends
//! the last worker, not when its thread exits.
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

/// One hand-off across threads: a morsel of pages, or the error that
/// ended the producer early.
pub type Handoff = Result<Vec<Arc<Page>>, ExecError>;

/// One hand-off on a morsel group's link: a morsel a worker finished —
/// its index and every page it produced — or `None`, the end of that
/// worker's stream; or the error that ended the worker.
pub(crate) type GroupHandoff = Result<Option<(usize, Vec<Arc<Page>>)>, ExecError>;

/// Where an operator reads one input from.
pub struct Inlet(In);

/// A link is boxed, so the simulator's hot path keeps a small port.
enum In {
    Sim(Receiver<Arc<Page>>),
    Link(Box<Feed>),
}

/// The reading end of a link, as a [`Feed`] reads it.
pub(crate) enum LinkRx {
    /// A producer on another thread: its hand-offs come in order.
    Os(mpsc::Receiver<Handoff>),
    /// A morsel group on other threads.
    GroupOs(mpsc::Receiver<GroupHandoff>),
    /// A morsel group in the same run loop.
    GroupSim(Receiver<GroupHandoff>),
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
    /// Producers that have not ended their stream yet.
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
            let next = self.next;
            let handoff = match &self.rx {
                None => return Ok(Recv::Closed),
                Some(LinkRx::Os(rx)) => rx.recv().map(|h| h.map(|pages| Some((next, pages)))),
                Some(LinkRx::GroupOs(rx)) => rx.recv(),
                Some(LinkRx::GroupSim(rx)) => match rx.try_recv(ctx) {
                    Recv::Value(handoff) => Ok(handoff),
                    Recv::Empty => return Ok(Recv::Empty),
                    Recv::Closed => Err(mpsc::RecvError),
                },
            };
            match handoff {
                Ok(Ok(Some((index, pages)))) if index == next => {
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
                // Every producer closed and hung up: end of stream. (A
                // gap left in a group's morsels is a worker thread that
                // panicked, which its driver re-raises.)
                Err(mpsc::RecvError) => self.rx = None,
            }
        }
    }

    fn hang_up(&mut self, ctx: &mut TaskCtx<'_>) {
        if let Some(LinkRx::GroupSim(rx)) = &self.rx {
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
    /// Reads the OS link `rx`, one page per call whatever each hand-off
    /// holds, for the query whose fault is `fault`: once that is set
    /// the query needs no more input, so the link hangs up and reads as
    /// closed.
    pub fn os(rx: mpsc::Receiver<Handoff>, fault: &FaultCell) -> Self {
        Self::link(LinkRx::Os(rx), 1, fault)
    }

    /// Reads a morsel group's link from its `workers` workers, releasing
    /// their morsels in index order; `fault` as in [`Inlet::os`].
    pub(crate) fn group(rx: LinkRx, workers: usize, fault: &FaultCell) -> Self {
        Self::link(rx, workers, fault)
    }

    fn link(rx: LinkRx, open: usize, fault: &FaultCell) -> Self {
        Inlet(In::Link(Box::new(Feed {
            rx: Some(rx),
            morsel: Vec::new().into_iter(),
            ahead: BTreeMap::new(),
            next: 0,
            open,
            fault: fault.clone(),
        })))
    }

    /// The next page. [`Recv::Empty`] (simulator only) registered the
    /// caller as a waiter; an OS link blocks the thread instead. `Err`
    /// is a producer's error, after which the link reads as closed.
    #[inline]
    pub fn recv(&mut self, ctx: &mut TaskCtx<'_>) -> Result<Recv<Arc<Page>>, ExecError> {
        match &mut self.0 {
            In::Sim(rx) => Ok(rx.try_recv(ctx)),
            In::Link(feed) => feed.recv(ctx),
        }
    }

    /// Stops reading (the query failed): a simulator channel swallows
    /// whatever is sent from now on, and an OS link hangs up, so its
    /// producers stop serving this consumer.
    pub(crate) fn close(&mut self, ctx: &mut TaskCtx<'_>) {
        match &mut self.0 {
            In::Sim(rx) => rx.close(ctx),
            In::Link(feed) => feed.hang_up(ctx),
        }
    }
}

/// Where an operator delivers its pages to one consumer.
pub struct Outlet(Out);

/// The links are boxed, as in `In`.
enum Out {
    Sim(Sender<Arc<Page>>),
    Os(Box<Link>),
    Group(Box<GroupLink>),
}

/// The producing end of an OS link.
struct Link {
    /// `None` once the consumer hung up or the stream closed.
    tx: Option<mpsc::SyncSender<Handoff>>,
    /// The morsel being gathered, handed off at `morsel_pages`.
    morsel: Vec<Arc<Page>>,
    morsel_pages: usize,
    /// The producing query's fault.
    fault: FaultCell,
}

impl Link {
    /// Gathers `page`, handing the morsel off once it is full; a link
    /// whose consumer hung up swallows it.
    fn push(&mut self, page: Arc<Page>) {
        if self.tx.is_some() {
            self.morsel.push(page);
            if self.morsel.len() >= self.morsel_pages {
                self.flush();
            }
        }
    }

    /// Hands the gathered morsel off, unless the producer has faulted;
    /// a consumer found hung up stops being served.
    fn flush(&mut self) {
        let handoff = std::mem::take(&mut self.morsel);
        if handoff.is_empty() || self.fault.is_set() {
            return;
        }
        if let Some(tx) = &self.tx {
            if tx.send(Ok(handoff)).is_err() {
                self.tx = None;
            }
        }
    }
}

/// The sending end of a morsel group's link.
pub(crate) enum LinkTx {
    Os(mpsc::SyncSender<GroupHandoff>),
    Sim(Sender<GroupHandoff>),
}

/// A group worker's end of its group's link.
struct GroupLink {
    /// `None` once the merge hung up or the stream closed.
    tx: Option<LinkTx>,
    /// The pages of the morsel in progress.
    morsel: Vec<Arc<Page>>,
    /// The worker's fault.
    fault: FaultCell,
}

impl GroupLink {
    /// Hands morsel `index` off, whole; `false` when a simulator channel
    /// had no room (the worker is registered as a waiter and keeps the
    /// pages). A faulted worker hands nothing more off, and a merge
    /// found hung up stops being served.
    fn end_morsel(&mut self, index: usize, ctx: &mut TaskCtx<'_>) -> bool {
        let pages = std::mem::take(&mut self.morsel);
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

    /// Ends the worker's stream: the simulator channel closes with the
    /// group's last outlet; an OS link says so in a last hand-off, unless
    /// the worker faulted (its driver sends the error instead).
    fn close(&mut self, ctx: &mut TaskCtx<'_>) {
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
    /// Feeds the OS link `tx` in hand-offs of `morsel_pages` pages (`0`
    /// treated as `1`) until `fault` — the producing query's — is set.
    pub fn os(tx: mpsc::SyncSender<Handoff>, morsel_pages: usize, fault: &FaultCell) -> Self {
        Outlet(Out::Os(Box::new(Link {
            tx: Some(tx),
            morsel: Vec::new(),
            morsel_pages: morsel_pages.max(1),
            fault: fault.clone(),
        })))
    }

    /// A morsel group worker's end of its group's link: each morsel the
    /// worker finishes goes to the merge whole, until `fault` — the
    /// worker's — is set.
    pub(crate) fn group(tx: LinkTx, fault: &FaultCell) -> Self {
        Outlet(Out::Group(Box::new(GroupLink {
            tx: Some(tx),
            morsel: Vec::new(),
            fault: fault.clone(),
        })))
    }

    /// Hands `page` on; `Err` gives it back when a simulator channel is
    /// full (the caller is registered as a waiter). A full OS link
    /// blocks the thread until the consumer takes a hand-off; one whose
    /// consumer hung up, like a closed simulator channel, swallows the
    /// page. A group link gathers it into the morsel in progress.
    #[inline]
    pub(crate) fn send(&mut self, page: Arc<Page>, ctx: &mut TaskCtx<'_>) -> Result<(), Arc<Page>> {
        match &mut self.0 {
            Out::Sim(tx) => tx.try_send(page, ctx),
            Out::Os(link) => {
                link.push(page);
                Ok(())
            }
            Out::Group(link) => {
                if link.tx.is_some() {
                    link.morsel.push(page);
                }
                Ok(())
            }
        }
    }

    /// The producer finished its morsel `index` with the pages sent so
    /// far: a group link hands the morsel off, and says `false` when a
    /// simulator channel had no room (the caller is registered as a
    /// waiter and asks again). Any other outlet has nothing to do.
    pub(crate) fn end_morsel(&mut self, index: usize, ctx: &mut TaskCtx<'_>) -> bool {
        match &mut self.0 {
            Out::Group(link) => link.end_morsel(index, ctx),
            Out::Sim(_) | Out::Os(_) => true,
        }
    }

    /// Whether this is a link whose consumer was found hung up (or
    /// whose stream has closed): nothing sent here is read. A simulator
    /// channel never says so.
    #[inline]
    pub(crate) fn is_hung_up(&self) -> bool {
        match &self.0 {
            Out::Sim(_) => false,
            Out::Os(link) => link.tx.is_none(),
            Out::Group(link) => link.tx.is_none(),
        }
    }

    /// Ends the stream: a simulator channel closes; an OS link hands off
    /// the partial last morsel and lets go of its end (the driver that
    /// made the link hangs up, after the error if the producer failed);
    /// a group link ends its worker's stream.
    pub(crate) fn close(&mut self, ctx: &mut TaskCtx<'_>) {
        match &mut self.0 {
            Out::Sim(tx) => tx.close(ctx),
            Out::Os(link) => {
                link.flush();
                link.tx = None;
            }
            Out::Group(link) => link.close(ctx),
        }
    }
}
