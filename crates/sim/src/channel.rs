//! Bounded single-threaded channels with blocking semantics.
//!
//! These model the finite inter-operator buffers of the paper's engine
//! ("We assume that buffering between operators is sufficient to smooth
//! out burstiness" — but *finite*, so "slow consumers throttle
//! producers"). A full channel makes `try_send` fail and registers the
//! producer as a waiter; a successful `try_recv` then wakes it, and vice
//! versa.
//!
//! The simulator is single-threaded, so channels are `Rc<RefCell<..>>`
//! handles. Senders and receivers may both be cloned: a stage can have
//! several upstream producers, and the engine's shared pivot keeps one
//! dedicated output channel per consumer.

use crate::task::{TaskCtx, TaskId};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

struct Inner<T> {
    queue: VecDeque<T>,
    capacity: usize,
    closed: bool,
    senders: usize,
    waiting_senders: Vec<TaskId>,
    waiting_receivers: Vec<TaskId>,
}

/// Producer half of a bounded channel.
pub struct Sender<T> {
    inner: Rc<RefCell<Inner<T>>>,
}

/// Consumer half of a bounded channel.
pub struct Receiver<T> {
    inner: Rc<RefCell<Inner<T>>>,
}

/// Result of a receive attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recv<T> {
    /// A value was dequeued.
    Value(T),
    /// Channel currently empty; the caller was registered as a waiter
    /// and should return [`crate::Step::blocked`].
    Empty,
    /// Channel closed and drained; no more values will ever arrive.
    Closed,
}

/// Creates a bounded channel with room for `capacity` in-flight items.
///
/// # Panics
///
/// Panics if `capacity` is zero (a zero-capacity channel can never make
/// progress under step-granularity rendezvous).
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    assert!(capacity > 0, "channel capacity must be at least 1");
    let inner = Rc::new(RefCell::new(Inner {
        queue: VecDeque::with_capacity(capacity),
        capacity,
        closed: false,
        senders: 1,
        waiting_senders: Vec::new(),
        waiting_receivers: Vec::new(),
    }));
    (
        Sender {
            inner: inner.clone(),
        },
        Receiver { inner },
    )
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.inner.borrow_mut().senders += 1;
        Sender {
            inner: self.inner.clone(),
        }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        Receiver {
            inner: self.inner.clone(),
        }
    }
}

impl<T> Sender<T> {
    /// Attempts to enqueue `value`. On failure (channel full) the calling
    /// task is registered as a waiter and gets the value back; it should
    /// stash it and return [`crate::Step::blocked`].
    ///
    /// Sending on a closed channel drops the value silently and reports
    /// success; this only happens when a consumer aborted early, in
    /// which case producers are expected to notice via engine-level
    /// cancellation.
    pub fn try_send(&self, value: T, ctx: &mut TaskCtx<'_>) -> Result<(), T> {
        let mut inner = self.inner.borrow_mut();
        if inner.closed {
            return Ok(());
        }
        if inner.queue.len() >= inner.capacity {
            let id = ctx.task_id();
            if !inner.waiting_senders.contains(&id) {
                inner.waiting_senders.push(id);
            }
            return Err(value);
        }
        inner.queue.push_back(value);
        for id in inner.waiting_receivers.drain(..) {
            ctx.wake(id);
        }
        Ok(())
    }

    /// Marks this producer as finished. When the last clone of the
    /// sender closes, the channel is closed and waiting receivers are
    /// woken so they can observe [`Recv::Closed`].
    pub fn close(&self, ctx: &mut TaskCtx<'_>) {
        let mut inner = self.inner.borrow_mut();
        inner.senders = inner.senders.saturating_sub(1);
        if inner.senders == 0 {
            inner.closed = true;
            for id in inner.waiting_receivers.drain(..) {
                ctx.wake(id);
            }
        }
    }
}

impl<T> Receiver<T> {
    /// Attempts to dequeue a value. On [`Recv::Empty`] the calling task
    /// is registered as a waiter and should return
    /// [`crate::Step::blocked`].
    pub fn try_recv(&self, ctx: &mut TaskCtx<'_>) -> Recv<T> {
        let mut inner = self.inner.borrow_mut();
        match inner.queue.pop_front() {
            Some(v) => {
                for id in inner.waiting_senders.drain(..) {
                    ctx.wake(id);
                }
                Recv::Value(v)
            }
            None if inner.closed => Recv::Closed,
            None => {
                let id = ctx.task_id();
                if !inner.waiting_receivers.contains(&id) {
                    inner.waiting_receivers.push(id);
                }
                Recv::Empty
            }
        }
    }

    /// Peeks at queue length (for diagnostics / adaptive operators).
    pub fn len(&self) -> usize {
        self.inner.borrow().queue.len()
    }

    /// Whether the queue is currently empty (the channel may still be
    /// open and receive more values).
    pub fn is_empty(&self) -> bool {
        self.inner.borrow().queue.is_empty()
    }

    /// Whether the channel is closed *and* drained.
    pub fn is_finished(&self) -> bool {
        let inner = self.inner.borrow();
        inner.closed && inner.queue.is_empty()
    }

    /// Closes the channel from the consumer side (query abort): buffered
    /// values are dropped, subsequent sends succeed-and-drop (producers
    /// run to completion into the void instead of blocking on a reader
    /// that will never come), and every waiter — sender or receiver
    /// clone — is woken so it can observe the closure.
    pub fn close(&self, ctx: &mut TaskCtx<'_>) {
        let mut inner = self.inner.borrow_mut();
        inner.closed = true;
        inner.queue.clear();
        for id in inner.waiting_senders.drain(..) {
            ctx.wake(id);
        }
        for id in inner.waiting_receivers.drain(..) {
            ctx.wake(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{Task, TaskId};

    /// Builds a TaskCtx over scratch buffers for direct channel testing.
    fn with_ctx<R>(id: usize, f: impl FnOnce(&mut TaskCtx<'_>) -> R) -> (R, Vec<TaskId>) {
        let mut wakes = Vec::new();
        let mut spawns: Vec<(String, Box<dyn Task>)> = Vec::new();
        let mut progress = 0.0;
        let mut ctx = TaskCtx {
            task_id: TaskId(id),
            now: 0,
            wakes: &mut wakes,
            spawns: &mut spawns,
            progress: &mut progress,
        };
        let r = f(&mut ctx);
        assert!(spawns.is_empty(), "channel tests never spawn");
        (r, wakes)
    }

    #[test]
    fn send_recv_round_trip() {
        let (tx, rx) = bounded(2);
        let (res, _) = with_ctx(0, |ctx| tx.try_send(42u32, ctx));
        assert!(res.is_ok());
        let (got, _) = with_ctx(1, |ctx| rx.try_recv(ctx));
        assert_eq!(got, Recv::Value(42));
    }

    #[test]
    fn full_channel_blocks_and_registers_sender() {
        let (tx, rx) = bounded(1);
        let (_, _) = with_ctx(0, |ctx| tx.try_send(1u32, ctx));
        let (res, _) = with_ctx(0, |ctx| tx.try_send(2u32, ctx));
        assert_eq!(res, Err(2));
        // Receiving wakes the registered sender.
        let (got, wakes) = with_ctx(1, |ctx| rx.try_recv(ctx));
        assert_eq!(got, Recv::Value(1));
        assert_eq!(wakes, vec![TaskId(0)]);
    }

    #[test]
    fn empty_channel_blocks_and_send_wakes_receiver() {
        let (tx, rx) = bounded(1);
        let (got, _) = with_ctx(5, |ctx| rx.try_recv(ctx));
        assert_eq!(got, Recv::<u32>::Empty);
        let (_, wakes) = with_ctx(0, |ctx| tx.try_send(7u32, ctx));
        assert_eq!(wakes, vec![TaskId(5)]);
    }

    #[test]
    fn close_wakes_receivers_and_drains() {
        let (tx, rx) = bounded(2);
        let (_, _) = with_ctx(0, |ctx| tx.try_send(1u32, ctx));
        let (got, _) = with_ctx(1, |ctx| rx.try_recv(ctx));
        assert_eq!(got, Recv::Value(1));
        let (_, _) = with_ctx(1, |ctx| rx.try_recv(ctx)); // registers waiter
        let ((), wakes) = with_ctx(0, |ctx| tx.close(ctx));
        assert_eq!(wakes, vec![TaskId(1)]);
        let (got, _) = with_ctx(1, |ctx| rx.try_recv(ctx));
        assert_eq!(got, Recv::<u32>::Closed);
    }

    #[test]
    fn close_waits_for_all_sender_clones() {
        let (tx, rx) = bounded::<u32>(1);
        let tx2 = tx.clone();
        let ((), _) = with_ctx(0, |ctx| tx.close(ctx));
        assert!(!rx.is_finished());
        let ((), _) = with_ctx(1, |ctx| tx2.close(ctx));
        assert!(rx.is_finished());
    }

    #[test]
    fn send_after_close_is_dropped() {
        let (tx, rx) = bounded(1);
        let tx2 = tx.clone();
        let ((), _) = with_ctx(0, |ctx| {
            tx.close(ctx);
            tx2.close(ctx);
        });
        let (res, _) = with_ctx(0, |ctx| tx2.try_send(9u32, ctx));
        assert!(res.is_ok());
        assert!(rx.is_finished());
    }

    #[test]
    fn waiter_registered_once() {
        let (tx, rx) = bounded(1);
        let (_, _) = with_ctx(0, |ctx| tx.try_send(1u32, ctx));
        // Two failed sends from the same task register a single waiter.
        let (_, _) = with_ctx(0, |ctx| {
            let _ = tx.try_send(2u32, ctx);
            let _ = tx.try_send(2u32, ctx);
        });
        let (_, wakes) = with_ctx(1, |ctx| rx.try_recv(ctx));
        assert_eq!(wakes, vec![TaskId(0)]);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = bounded::<u32>(0);
    }

    #[test]
    fn receiver_close_cancels_producers() {
        let (tx, rx) = bounded(1);
        // Fill the channel; a second send registers the producer waiter.
        let (_, _) = with_ctx(0, |ctx| tx.try_send(1u32, ctx));
        let (res, _) = with_ctx(0, |ctx| tx.try_send(2u32, ctx));
        assert_eq!(res, Err(2));
        // Consumer aborts: buffered value dropped, producer woken.
        let ((), wakes) = with_ctx(1, |ctx| rx.close(ctx));
        assert_eq!(wakes, vec![TaskId(0)]);
        // The retried send now succeeds (and is dropped).
        let (res, _) = with_ctx(0, |ctx| tx.try_send(2u32, ctx));
        assert!(res.is_ok());
        assert!(rx.is_finished());
        let (got, _) = with_ctx(1, |ctx| rx.try_recv(ctx));
        assert_eq!(got, Recv::<u32>::Closed);
    }

    #[test]
    fn receiver_double_close_is_idempotent() {
        let (tx, rx) = bounded::<u32>(1);
        let ((), wakes) = with_ctx(1, |ctx| {
            rx.close(ctx);
            rx.close(ctx); // second abort: no panic, no underflow
        });
        assert!(wakes.is_empty(), "no waiters were registered");
        assert!(rx.is_finished());
        // The producer side still shuts down cleanly afterwards.
        let ((), _) = with_ctx(0, |ctx| tx.close(ctx));
        let (got, _) = with_ctx(1, |ctx| rx.try_recv(ctx));
        assert_eq!(got, Recv::<u32>::Closed);
    }

    #[test]
    fn receiver_close_races_waiting_receiver_clone() {
        // A receiver clone parked on an empty channel must be woken by
        // a sibling clone's abort, and then observe Closed — the abort
        // path wakes *both* waiter lists.
        let (_tx, rx) = bounded::<u32>(1);
        let rx2 = rx.clone();
        let (got, _) = with_ctx(7, |ctx| rx2.try_recv(ctx));
        assert_eq!(got, Recv::<u32>::Empty);
        let ((), wakes) = with_ctx(1, |ctx| rx.close(ctx));
        assert_eq!(wakes, vec![TaskId(7)]);
        let (got, _) = with_ctx(7, |ctx| rx2.try_recv(ctx));
        assert_eq!(got, Recv::<u32>::Closed);
    }

    #[test]
    fn sender_close_after_receiver_abort_does_not_reopen() {
        // Consumer aborts first; the surviving producer's own close must
        // leave the channel closed (no counter underflow resurrecting
        // it) and later sends still succeed-and-drop.
        let (tx, rx) = bounded(1);
        let ((), _) = with_ctx(1, |ctx| rx.close(ctx));
        let ((), _) = with_ctx(0, |ctx| tx.close(ctx));
        let (res, _) = with_ctx(0, |ctx| tx.try_send(3u32, ctx));
        assert!(res.is_ok(), "send into the corpse succeeds-and-drops");
        assert!(rx.is_finished());
    }

    #[test]
    fn len_tracks_queue() {
        let (tx, rx) = bounded(3);
        assert!(rx.is_empty());
        let (_, _) = with_ctx(0, |ctx| {
            tx.try_send(1u32, ctx).unwrap();
            tx.try_send(2u32, ctx).unwrap();
        });
        assert_eq!(rx.len(), 2);
    }
}
