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
//!   link after them (see `engine::thread_exec`), so no consumer mistakes
//!   a truncated stream for end-of-stream;
//! * a consumer hangs up once its query has failed, whichever of its
//!   operators failed, and stops being served at the producer's next
//!   hand-off, while its peers go on; once every consumer is gone the
//!   producer's shell ends the stream early (see
//!   [`Fanout::is_unheard`](super::Fanout::is_unheard)).

use crate::error::{ExecError, FaultCell};
use cordoba_sim::channel::{Receiver, Recv, Sender};
use cordoba_sim::TaskCtx;
use cordoba_storage::Page;
use std::sync::{mpsc, Arc};

/// One hand-off across threads: a morsel of pages, or the error that
/// ended the producer early.
pub type Handoff = Result<Vec<Arc<Page>>, ExecError>;

/// Where an operator reads one input from.
pub struct Inlet(In);

/// An OS link is boxed, so the simulator's hot path keeps a small
/// port.
enum In {
    Sim(Receiver<Arc<Page>>),
    Os(Box<Feed>),
}

/// The reading end of an OS link.
struct Feed {
    /// `None` once the link ended or was hung up.
    rx: Option<mpsc::Receiver<Handoff>>,
    /// The hand-off being unpacked.
    morsel: std::vec::IntoIter<Arc<Page>>,
    /// The reading query's fault.
    fault: FaultCell,
}

impl Feed {
    fn recv(&mut self) -> Result<Recv<Arc<Page>>, ExecError> {
        if self.fault.is_set() {
            self.hang_up();
        }
        loop {
            if let Some(page) = self.morsel.next() {
                return Ok(Recv::Value(page));
            }
            let Some(rx) = &self.rx else {
                return Ok(Recv::Closed);
            };
            match rx.recv() {
                Ok(Ok(pages)) => self.morsel = pages.into_iter(),
                Ok(Err(err)) => {
                    self.rx = None;
                    return Err(err);
                }
                // The producer closed and hung up: end of stream.
                Err(mpsc::RecvError) => self.rx = None,
            }
        }
    }

    fn hang_up(&mut self) {
        self.rx = None;
        self.morsel = Vec::new().into_iter();
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
        Inlet(In::Os(Box::new(Feed {
            rx: Some(rx),
            morsel: Vec::new().into_iter(),
            fault: fault.clone(),
        })))
    }

    /// The next page. [`Recv::Empty`] (simulator only) registered the
    /// caller as a waiter; an OS link blocks the thread instead. `Err`
    /// is the producer's error, after which the link reads as closed.
    #[inline]
    pub fn recv(&mut self, ctx: &mut TaskCtx<'_>) -> Result<Recv<Arc<Page>>, ExecError> {
        match &mut self.0 {
            In::Sim(rx) => Ok(rx.try_recv(ctx)),
            In::Os(feed) => feed.recv(),
        }
    }

    /// Stops reading (the query failed): a simulator channel swallows
    /// whatever is sent from now on, and an OS link hangs up, so its
    /// producer stops serving this consumer.
    pub fn close(&mut self, ctx: &mut TaskCtx<'_>) {
        match &mut self.0 {
            In::Sim(rx) => rx.close(ctx),
            In::Os(feed) => feed.hang_up(),
        }
    }
}

/// Where an operator delivers its pages to one consumer.
pub struct Outlet(Out);

/// The OS link is boxed, as in `In`.
enum Out {
    Sim(Sender<Arc<Page>>),
    Os(Box<Link>),
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

    /// Hands `page` on; `Err` gives it back when a simulator channel is
    /// full (the caller is registered as a waiter). A full OS link
    /// blocks the thread until the consumer takes a hand-off; one whose
    /// consumer hung up, like a closed simulator channel, swallows the
    /// page.
    #[inline]
    pub fn send(&mut self, page: Arc<Page>, ctx: &mut TaskCtx<'_>) -> Result<(), Arc<Page>> {
        match &mut self.0 {
            Out::Sim(tx) => tx.try_send(page, ctx),
            Out::Os(link) => {
                link.push(page);
                Ok(())
            }
        }
    }

    /// Whether this is an OS link whose consumer was found hung up (or
    /// whose stream has closed): nothing sent here is read. A simulator
    /// channel never says so.
    #[inline]
    pub fn is_hung_up(&self) -> bool {
        matches!(&self.0, Out::Os(link) if link.tx.is_none())
    }

    /// Ends the stream: a simulator channel closes; an OS link hands off
    /// the partial last morsel and lets go of its end (the driver that
    /// made the link hangs up, after the error if the producer failed).
    pub fn close(&mut self, ctx: &mut TaskCtx<'_>) {
        match &mut self.0 {
            Out::Sim(tx) => tx.close(ctx),
            Out::Os(link) => {
                link.flush();
                link.tx = None;
            }
        }
    }
}
