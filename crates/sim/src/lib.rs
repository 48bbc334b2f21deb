//! # cordoba-sim — a deterministic discrete-event CMP simulator
//!
//! The paper's experiments run on a Sun UltraSparc T1: 8 cores × 4
//! hardware contexts, round-robin instruction issue, "guaranteeing
//! fairness of execution". This crate substitutes that machine with a
//! discrete-event simulator so the workspace can sweep 1–32 (or more)
//! contexts on any host, deterministically.
//!
//! ## Execution model
//!
//! * A [`Task`] is a cooperative state machine. Each [`Task::step`]
//!   performs a bounded amount of real computation (e.g. filtering one
//!   page of tuples) and reports its **virtual cost** in abstract work
//!   units, plus whether it can continue, is blocked on a channel, or is
//!   finished.
//! * The [`Simulator`] schedules tasks on `n` contexts. Ready tasks wait
//!   in a FIFO run queue (round-robin fairness, like the T1); each
//!   context repeatedly pops a task, executes one step, and becomes free
//!   again `cost` virtual time units later.
//! * A step's effects (re-queue, wake-ups, spawns, freeing the context)
//!   land at its end through an event heap — or *in place*, skipping
//!   the heap, when no context is idle, nothing queued lands at or
//!   before that end, the end is within the run's limit and the step
//!   is not a sleep. The run loop would pop exactly those effects next,
//!   in the same order, and no step can start between them, so the
//!   schedule is the same either way. A one-context simulator (each
//!   thread of the wall-clock substrate runs one) rarely touches the
//!   heap.
//! * Tasks communicate through bounded [`channel`]s. A full channel
//!   throttles its producer and an empty one parks its consumer — the
//!   finite-buffering assumption of the paper's model ("slow consumers
//!   throttle producers").
//!
//! Virtual time is completely decoupled from wall-clock time: the
//! simulated 32-context machine runs fine on a 2-core laptop, and two
//! runs with the same inputs produce bit-identical schedules.
//!
//! ## Example
//!
//! ```
//! use cordoba_sim::{Simulator, Task, TaskCtx, Step, channel};
//!
//! struct Producer { tx: channel::Sender<u64>, left: u64 }
//! impl Task for Producer {
//!     fn step(&mut self, ctx: &mut TaskCtx<'_>) -> Step {
//!         if self.left == 0 {
//!             self.tx.close(ctx);
//!             return Step::done(0);
//!         }
//!         match self.tx.try_send(self.left, ctx) {
//!             Ok(()) => { self.left -= 1; Step::yielded(10) }
//!             Err(_) => Step::blocked(0),
//!         }
//!     }
//! }
//! struct Consumer { rx: channel::Receiver<u64>, seen: u64 }
//! impl Task for Consumer {
//!     fn step(&mut self, ctx: &mut TaskCtx<'_>) -> Step {
//!         match self.rx.try_recv(ctx) {
//!             channel::Recv::Value(_) => { self.seen += 1; Step::yielded(10) }
//!             channel::Recv::Empty => Step::blocked(0),
//!             channel::Recv::Closed => Step::done(0),
//!         }
//!     }
//! }
//!
//! let mut sim = Simulator::new(2);
//! let (tx, rx) = channel::bounded(4);
//! sim.spawn("producer", Box::new(Producer { tx, left: 100 }));
//! sim.spawn("consumer", Box::new(Consumer { rx, seen: 0 }));
//! let outcome = sim.run_to_idle();
//! assert!(outcome.completed_all());
//! // Two contexts overlap the 10-unit producer and consumer steps.
//! assert!(sim.now() < 2100);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod channel;
pub mod sched;
pub mod stats;
pub mod task;
pub mod trace;

pub use sched::{RunOutcome, SimConfig, Simulator, StopReason};
pub use stats::{Histogram, LatencySummary, SimStats, TaskStats};
pub use task::{DetachedCtx, Spawner, Step, StepStatus, Task, TaskCtx, TaskId};

/// Virtual time / work units. One unit is an abstract "cost unit"; the
/// engine calibrates operator costs in these units.
pub type VTime = u64;
