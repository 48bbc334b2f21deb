//! The event-driven scheduler: `n` contexts, FIFO run queue
//! (round-robin fairness, like the UltraSparc T1), per-step cost
//! accounting in virtual time.
//!
//! A step's effects — its task re-queued if it yielded, each woken and
//! each spawned task made ready, its context freed — land at its `end`,
//! queued on the event heap in that order. They are applied *in place*
//! instead (clock to `end`, effects at once, same order) when no context
//! is idle, every queued event is strictly later than `end` (an
//! equal-time one has a smaller `seq` and lands first), `end` is within
//! the run's limit and the step is not a `Sleep`: those effects are
//! what the run loop would pop next, and with no idle context `dispatch`
//! does nothing between them, so the schedule is unchanged. A
//! one-context simulator touches the heap only when a task sleeps or a
//! step ends past the run's limit.

use crate::stats::{SimStats, TaskStats};
use crate::task::{Step, StepStatus, Task, TaskCtx, TaskId};
use crate::VTime;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Simulator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Number of hardware contexts (the paper sweeps 1, 2, 8, 32).
    pub contexts: usize,
    /// Safety valve: a task yielding this many consecutive zero-cost
    /// steps is considered buggy and aborts the simulation with a panic.
    pub max_zero_cost_spins: u32,
    /// Record per-step busy intervals for [`Simulator::trace`] /
    /// [`crate::trace::render_gantt`]. Off by default (long experiment
    /// runs would accumulate millions of spans).
    pub trace: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            contexts: 1,
            max_zero_cost_spins: 1_000_000,
            trace: false,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskState {
    Ready,
    Running,
    Blocked,
    Done,
}

struct TaskSlot {
    task: Option<Box<dyn Task>>,
    state: TaskState,
    stats: TaskStats,
    zero_spins: u32,
}

/// Heap order is `(time, seq)`; `seq` is unique, so `Ord` here never decides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    ContextFree(usize),
    TaskReady(TaskId),
}

/// Why a [`Simulator::run`] call returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// No events remain and no task is runnable: all tasks completed.
    Idle,
    /// The virtual-time limit was reached with work still pending.
    TimeLimit,
    /// Live tasks remain but none can ever run again (all blocked).
    Deadlock,
}

/// Result of a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// Why the run stopped.
    pub reason: StopReason,
    /// Virtual time when it stopped.
    pub now: VTime,
    /// Number of tasks still alive (not `Done`).
    pub live_tasks: usize,
}

impl RunOutcome {
    /// True when every spawned task ran to completion.
    pub fn completed_all(&self) -> bool {
        self.reason == StopReason::Idle && self.live_tasks == 0
    }
}

/// Deterministic discrete-event simulator of an `n`-context CMP.
pub struct Simulator {
    config: SimConfig,
    slots: Vec<TaskSlot>,
    names: Vec<String>,
    run_queue: VecDeque<TaskId>,
    events: BinaryHeap<Reverse<(VTime, u64, Event)>>,
    idle_contexts: Vec<usize>, // kept sorted descending; pop() yields smallest
    now: VTime,
    /// The current `run`'s limit (`VTime::MAX` for none).
    limit: VTime,
    seq: u64, // one per heap push, so also their count
    busy: Vec<VTime>,
    live_tasks: usize,
    trace: Vec<crate::trace::Span>,
    #[cfg(test)]
    force_heap: bool, // apply every step through the heap
}

impl crate::task::Spawner for Simulator {
    fn spawn_task(&mut self, name: String, task: Box<dyn Task>) -> Option<TaskId> {
        Some(self.spawn(name, task))
    }
}

impl Simulator {
    /// Creates a simulator with `contexts` hardware contexts.
    pub fn new(contexts: usize) -> Self {
        Self::with_config(SimConfig {
            contexts,
            ..SimConfig::default()
        })
    }

    /// Creates a simulator from a full configuration.
    pub fn with_config(config: SimConfig) -> Self {
        assert!(config.contexts > 0, "need at least one context");
        let mut idle: Vec<usize> = (0..config.contexts).collect();
        idle.reverse();
        Self {
            config,
            slots: Vec::new(),
            names: Vec::new(),
            run_queue: VecDeque::new(),
            events: BinaryHeap::new(),
            idle_contexts: idle,
            now: 0,
            limit: VTime::MAX,
            seq: 0,
            busy: vec![0; config.contexts],
            live_tasks: 0,
            trace: Vec::new(),
            #[cfg(test)]
            force_heap: false,
        }
    }

    /// Registers a task; it becomes runnable immediately (at the current
    /// virtual time once `run` is called).
    pub fn spawn(&mut self, name: impl Into<String>, task: Box<dyn Task>) -> TaskId {
        let id = TaskId(self.slots.len());
        self.slots.push(TaskSlot {
            task: Some(task),
            state: TaskState::Ready,
            stats: TaskStats::default(),
            zero_spins: 0,
        });
        self.names.push(name.into());
        self.run_queue.push_back(id);
        self.live_tasks += 1;
        id
    }

    /// Current virtual time.
    pub fn now(&self) -> VTime {
        self.now
    }

    /// Number of contexts being simulated.
    pub fn contexts(&self) -> usize {
        self.config.contexts
    }

    /// Per-task statistics (active time, steps, forward progress).
    pub fn task_stats(&self, id: TaskId) -> &TaskStats {
        &self.slots[id.0].stats
    }

    /// The name a task was spawned with.
    pub fn task_name(&self, id: TaskId) -> &str {
        &self.names[id.0]
    }

    /// Iterates over `(id, name, stats)` for every task ever spawned.
    pub fn all_task_stats(&self) -> impl Iterator<Item = (TaskId, &str, &TaskStats)> {
        self.slots
            .iter()
            .enumerate()
            .map(|(i, s)| (TaskId(i), self.names[i].as_str(), &s.stats))
    }

    /// Recorded busy intervals (empty unless [`SimConfig::trace`] is on).
    pub fn trace(&self) -> &[crate::trace::Span] {
        &self.trace
    }

    /// Aggregate machine statistics so far.
    pub fn stats(&self) -> SimStats {
        SimStats {
            makespan: self.now,
            contexts: self.config.contexts,
            busy: self.busy.clone(),
        }
    }

    /// Runs until idle, deadlock, or (if given) a virtual-time limit.
    pub fn run(&mut self, limit: Option<VTime>) -> RunOutcome {
        self.limit = limit.unwrap_or(VTime::MAX);
        loop {
            self.dispatch();
            let Some(&Reverse((t, _, _))) = self.events.peek() else {
                let reason = if self.live_tasks == 0 {
                    StopReason::Idle
                } else {
                    StopReason::Deadlock
                };
                return RunOutcome {
                    reason,
                    now: self.now,
                    live_tasks: self.live_tasks,
                };
            };
            if t > self.limit {
                // A limit already behind the clock must not rewind it.
                self.now = self.now.max(self.limit);
                return RunOutcome {
                    reason: StopReason::TimeLimit,
                    now: self.now,
                    live_tasks: self.live_tasks,
                };
            }
            let Reverse((t, _, ev)) = self.events.pop().expect("peeked");
            debug_assert!(t >= self.now, "time must be monotone");
            self.now = t;
            self.apply_event(ev);
        }
    }

    /// Runs until all tasks complete (or deadlock).
    pub fn run_to_idle(&mut self) -> RunOutcome {
        self.run(None)
    }

    fn push_event(&mut self, time: VTime, event: Event) {
        self.seq += 1;
        self.events.push(Reverse((time, self.seq, event)));
    }

    /// Lands one effect of a step ending at `end`: at once when the step
    /// is applied in place (the clock is already at `end`), else queued.
    fn land(&mut self, in_place: bool, end: VTime, event: Event) {
        if in_place {
            self.apply_event(event);
        } else {
            self.push_event(end, event);
        }
    }

    fn apply_event(&mut self, event: Event) {
        match event {
            Event::ContextFree(ctx) => self.free_context(ctx),
            Event::TaskReady(id) => self.make_ready(id),
        }
    }

    fn free_context(&mut self, ctx: usize) {
        // Descending order, so pop() yields the lowest-numbered context.
        let pos = self
            .idle_contexts
            .binary_search_by(|&c| ctx.cmp(&c))
            .unwrap_err();
        self.idle_contexts.insert(pos, ctx);
    }

    /// Re-queues a parked task (a no-op for one that is not parked).
    fn make_ready(&mut self, id: TaskId) {
        let slot = &mut self.slots[id.0];
        if slot.state == TaskState::Blocked {
            slot.state = TaskState::Ready;
            self.run_queue.push_back(id);
        }
    }

    /// Starts as many ready tasks as there are idle contexts, at the
    /// current virtual time.
    fn dispatch(&mut self) {
        while !self.run_queue.is_empty() && !self.idle_contexts.is_empty() {
            let id = self.run_queue.pop_front().expect("non-empty");
            if self.slots[id.0].state != TaskState::Ready {
                continue;
            }
            let ctx_id = self.idle_contexts.pop().expect("non-empty");
            self.execute_step(id, ctx_id);
        }
    }

    fn execute_step(&mut self, id: TaskId, ctx_id: usize) {
        self.slots[id.0].state = TaskState::Running;
        let mut task = self.slots[id.0].task.take().expect("running task present");
        let mut wakes = Vec::new();
        let mut spawns = Vec::new();
        let mut progress = 0.0;
        let step = {
            let mut ctx = TaskCtx {
                task_id: id,
                now: self.now,
                wakes: &mut wakes,
                spawns: &mut spawns,
                progress: &mut progress,
            };
            task.step(&mut ctx)
        };
        self.apply_step(id, ctx_id, task, step, wakes, spawns, progress);
    }

    #[allow(clippy::too_many_arguments)]
    fn apply_step(
        &mut self,
        id: TaskId,
        ctx_id: usize,
        task: Box<dyn Task>,
        step: Step,
        wakes: Vec<TaskId>,
        spawns: Vec<(String, Box<dyn Task>)>,
        progress: f64,
    ) {
        let end = self.now + step.cost;
        let slot = &mut self.slots[id.0];
        slot.stats.active += step.cost;
        slot.stats.steps += 1;
        slot.stats.progress += progress;
        if step.cost == 0 && step.status == StepStatus::Yield {
            slot.zero_spins += 1;
            assert!(
                slot.zero_spins <= self.config.max_zero_cost_spins,
                "task '{}' spun {} zero-cost yields: livelock bug",
                self.names[id.0],
                slot.zero_spins
            );
        } else {
            slot.zero_spins = 0;
        }
        self.busy[ctx_id] += step.cost;
        if self.config.trace && step.cost > 0 {
            self.trace.push(crate::trace::Span {
                task: id,
                context: ctx_id,
                start: self.now,
                end,
            });
        }
        // In place: nothing else can happen before `end` (module docs).
        let in_place = !matches!(step.status, StepStatus::Sleep(_))
            && self.idle_contexts.is_empty()
            && end <= self.limit
            && self.events.peek().is_none_or(|&Reverse((t, ..))| t > end);
        #[cfg(test)]
        let in_place = in_place && !self.force_heap;
        if in_place {
            self.now = end;
        }
        match step.status {
            StepStatus::Yield => {
                // The task becomes runnable again when its step's cost
                // has elapsed; park it as Blocked so the TaskReady event
                // re-queues it (the uniform wake-up path).
                slot.task = Some(task);
                slot.state = TaskState::Blocked;
                self.land(in_place, end, Event::TaskReady(id));
            }
            StepStatus::Blocked => {
                slot.task = Some(task);
                slot.state = TaskState::Blocked;
            }
            StepStatus::Sleep(delay) => {
                // Parked like Blocked, but with a guaranteed wake-up
                // timer; an explicit wake() delivers earlier.
                slot.task = Some(task);
                slot.state = TaskState::Blocked;
                self.push_event(end + delay, Event::TaskReady(id));
            }
            StepStatus::Done => {
                slot.state = TaskState::Done;
                slot.stats.completed_at = Some(end);
                self.live_tasks -= 1;
                drop(task);
            }
        }
        // Effects (wake-ups, spawns) land when the step's work completes.
        for w in wakes {
            self.land(in_place, end, Event::TaskReady(w));
        }
        for (name, t) in spawns {
            let new_id = TaskId(self.slots.len());
            self.slots.push(TaskSlot {
                task: Some(t),
                state: TaskState::Blocked, // made Ready by the event below
                stats: TaskStats::default(),
                zero_spins: 0,
            });
            self.names.push(name);
            self.live_tasks += 1;
            self.land(in_place, end, Event::TaskReady(new_id));
        }
        self.land(in_place, end, Event::ContextFree(ctx_id));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{self, Recv};

    /// A task that performs `steps` steps of `cost` units each.
    struct Burn {
        steps: u32,
        cost: VTime,
    }
    impl Task for Burn {
        fn step(&mut self, ctx: &mut TaskCtx<'_>) -> Step {
            ctx.add_progress(1.0);
            if self.steps == 0 {
                return Step::done(0);
            }
            self.steps -= 1;
            if self.steps == 0 {
                Step::done(self.cost)
            } else {
                Step::yielded(self.cost)
            }
        }
    }

    #[test]
    fn single_task_single_context_time_adds_up() {
        let mut sim = Simulator::new(1);
        let id = sim.spawn("burn", Box::new(Burn { steps: 10, cost: 7 }));
        let out = sim.run_to_idle();
        assert!(out.completed_all());
        assert_eq!(sim.now(), 70);
        assert_eq!(sim.task_stats(id).active, 70);
        assert_eq!(sim.task_stats(id).completed_at, Some(70));
    }

    #[test]
    fn two_tasks_one_context_serialize() {
        let mut sim = Simulator::new(1);
        sim.spawn("a", Box::new(Burn { steps: 5, cost: 10 }));
        sim.spawn("b", Box::new(Burn { steps: 5, cost: 10 }));
        let out = sim.run_to_idle();
        assert!(out.completed_all());
        assert_eq!(sim.now(), 100);
    }

    #[test]
    fn two_tasks_two_contexts_run_in_parallel() {
        let mut sim = Simulator::new(2);
        sim.spawn("a", Box::new(Burn { steps: 5, cost: 10 }));
        sim.spawn("b", Box::new(Burn { steps: 5, cost: 10 }));
        let out = sim.run_to_idle();
        assert!(out.completed_all());
        assert_eq!(sim.now(), 50);
        let stats = sim.stats();
        assert_eq!(stats.busy, vec![50, 50]);
        assert!((stats.utilization() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn round_robin_interleaves_fairly() {
        // Two equal tasks on one context should finish at (almost) the
        // same time, not one after the other, thanks to per-step
        // round-robin.
        let mut sim = Simulator::new(1);
        let a = sim.spawn(
            "a",
            Box::new(Burn {
                steps: 100,
                cost: 1,
            }),
        );
        let b = sim.spawn(
            "b",
            Box::new(Burn {
                steps: 100,
                cost: 1,
            }),
        );
        sim.run_to_idle();
        let fa = sim.task_stats(a).completed_at.unwrap();
        let fb = sim.task_stats(b).completed_at.unwrap();
        assert!((fa as i64 - fb as i64).abs() <= 1, "fa={fa} fb={fb}");
    }

    #[test]
    fn time_limit_stops_midway() {
        let mut sim = Simulator::new(1);
        sim.spawn(
            "burn",
            Box::new(Burn {
                steps: 100,
                cost: 10,
            }),
        );
        let out = sim.run(Some(500));
        assert_eq!(out.reason, StopReason::TimeLimit);
        assert_eq!(out.live_tasks, 1);
        assert_eq!(sim.now(), 500);
        // Resume to completion.
        let out = sim.run_to_idle();
        assert!(out.completed_all());
        assert_eq!(sim.now(), 1000);
    }

    struct Pipe {
        rx: channel::Receiver<u64>,
        tx: Option<channel::Sender<u64>>,
        cost: VTime,
        stash: Option<u64>,
        forwarded: u64,
    }
    impl Task for Pipe {
        fn step(&mut self, ctx: &mut TaskCtx<'_>) -> Step {
            if let Some(v) = self.stash.take() {
                if let Some(tx) = &self.tx {
                    if let Err(v) = tx.try_send(v, ctx) {
                        self.stash = Some(v);
                        return Step::blocked(0);
                    }
                }
                self.forwarded += 1;
                return Step::yielded(self.cost);
            }
            match self.rx.try_recv(ctx) {
                Recv::Value(v) => {
                    self.stash = Some(v);
                    Step::yielded(0)
                }
                Recv::Empty => Step::blocked(0),
                Recv::Closed => {
                    if let Some(tx) = &self.tx {
                        tx.close(ctx);
                    }
                    Step::done(0)
                }
            }
        }
    }

    struct Source {
        tx: channel::Sender<u64>,
        n: u64,
        cost: VTime,
    }
    impl Task for Source {
        fn step(&mut self, ctx: &mut TaskCtx<'_>) -> Step {
            if self.n == 0 {
                self.tx.close(ctx);
                return Step::done(0);
            }
            match self.tx.try_send(self.n, ctx) {
                Ok(()) => {
                    self.n -= 1;
                    Step::yielded(self.cost)
                }
                Err(_) => Step::blocked(0),
            }
        }
    }

    /// Builds source -> pipe -> sink with the given per-stage costs, runs
    /// it to completion and returns the makespan.
    fn run_pipeline(contexts: usize, items: u64, costs: &[VTime], cap: usize) -> VTime {
        pipeline(contexts, items, costs, cap).now()
    }

    /// [`run_pipeline`]'s simulator after the run.
    fn pipeline(contexts: usize, items: u64, costs: &[VTime], cap: usize) -> Simulator {
        let mut sim = Simulator::new(contexts);
        let (tx0, mut rx_prev) = channel::bounded(cap);
        sim.spawn(
            "source",
            Box::new(Source {
                tx: tx0,
                n: items,
                cost: costs[0],
            }),
        );
        for (i, &c) in costs[1..].iter().enumerate() {
            let last = i == costs.len() - 2;
            if last {
                sim.spawn(
                    format!("stage{i}"),
                    Box::new(Pipe {
                        rx: rx_prev.clone(),
                        tx: None,
                        cost: c,
                        stash: None,
                        forwarded: 0,
                    }),
                );
            } else {
                let (tx, rx) = channel::bounded(cap);
                sim.spawn(
                    format!("stage{i}"),
                    Box::new(Pipe {
                        rx: rx_prev.clone(),
                        tx: Some(tx),
                        cost: c,
                        stash: None,
                        forwarded: 0,
                    }),
                );
                rx_prev = rx;
            }
        }
        let out = sim.run_to_idle();
        assert!(out.completed_all(), "{out:?}");
        sim
    }

    #[test]
    fn pipeline_rate_bounded_by_slowest_stage_when_parallel() {
        // Stages cost 10 / 30 / 10 per item; with 3 contexts the
        // pipeline runs at the bottleneck rate 1/30 (+ fill time).
        let t = run_pipeline(3, 200, &[10, 30, 10], 8);
        let ideal = 200 * 30;
        assert!(t >= ideal as VTime, "t={t}");
        assert!(t < (ideal as f64 * 1.05) as VTime, "t={t} ideal={ideal}");
    }

    #[test]
    fn pipeline_on_one_context_costs_total_work() {
        // One context: rate = 1 / Σp, i.e. makespan ≈ items * 50.
        let t = run_pipeline(1, 200, &[10, 30, 10], 8);
        let total = 200 * 50;
        assert!(t >= total as VTime);
        assert!(t < (total as f64 * 1.02) as VTime, "t={t}");
    }

    #[test]
    fn bounded_buffer_throttles_fast_producer() {
        // Producer cost 1, consumer cost 100, tiny buffer: producer must
        // finish at ~ the consumer's pace, not at its own.
        let mut sim = Simulator::new(2);
        let (tx, rx) = channel::bounded(2);
        let p = sim.spawn("producer", Box::new(Source { tx, n: 50, cost: 1 }));
        sim.spawn(
            "consumer",
            Box::new(Pipe {
                rx,
                tx: None,
                cost: 100,
                stash: None,
                forwarded: 0,
            }),
        );
        sim.run_to_idle();
        let p_done = sim.task_stats(p).completed_at.unwrap();
        // Unthrottled the producer would finish at ~50; throttled it
        // finishes within a few buffer-slots of the consumer's pace.
        assert!(p_done > 45 * 100, "producer finished too early: {p_done}");
    }

    #[test]
    fn deadlock_detected() {
        // A lone consumer on a channel nobody writes to (sender alive
        // but never stepped because it blocks on another empty channel).
        struct Waiter {
            rx: channel::Receiver<u64>,
            _tx_keepalive: channel::Sender<u64>,
        }
        impl Task for Waiter {
            fn step(&mut self, ctx: &mut TaskCtx<'_>) -> Step {
                match self.rx.try_recv(ctx) {
                    Recv::Value(_) => Step::yielded(1),
                    Recv::Empty => Step::blocked(0),
                    Recv::Closed => Step::done(0),
                }
            }
        }
        let mut sim = Simulator::new(2);
        let (tx_a, rx_a) = channel::bounded(1);
        let (tx_b, rx_b) = channel::bounded(1);
        sim.spawn(
            "w1",
            Box::new(Waiter {
                rx: rx_a,
                _tx_keepalive: tx_b,
            }),
        );
        sim.spawn(
            "w2",
            Box::new(Waiter {
                rx: rx_b,
                _tx_keepalive: tx_a,
            }),
        );
        let out = sim.run_to_idle();
        assert_eq!(out.reason, StopReason::Deadlock);
        assert_eq!(out.live_tasks, 2);
    }

    #[test]
    fn determinism_identical_runs() {
        let t1 = run_pipeline(4, 300, &[7, 13, 5, 11], 6);
        let t2 = run_pipeline(4, 300, &[7, 13, 5, 11], 6);
        assert_eq!(t1, t2);
    }

    #[test]
    fn spawned_tasks_execute() {
        struct Parent {
            spawned: bool,
        }
        impl Task for Parent {
            fn step(&mut self, ctx: &mut TaskCtx<'_>) -> Step {
                if !self.spawned {
                    self.spawned = true;
                    ctx.spawn("child", Box::new(Burn { steps: 3, cost: 5 }));
                }
                Step::done(1)
            }
        }
        let mut sim = Simulator::new(1);
        sim.spawn("parent", Box::new(Parent { spawned: false }));
        let out = sim.run_to_idle();
        assert!(out.completed_all());
        assert_eq!(sim.now(), 1 + 15);
        assert_eq!(sim.all_task_stats().count(), 2);
    }

    #[test]
    fn sleeping_task_wakes_on_timer_without_occupying_context() {
        // A sleeper plus a burner on ONE context: the burner must run at
        // full speed while the sleeper is parked.
        struct Sleeper {
            naps: u32,
        }
        impl Task for Sleeper {
            fn step(&mut self, _: &mut TaskCtx<'_>) -> Step {
                if self.naps == 0 {
                    return Step::done(0);
                }
                self.naps -= 1;
                Step::sleep(1, 100)
            }
        }
        let mut sim = Simulator::new(1);
        let s = sim.spawn("sleeper", Box::new(Sleeper { naps: 3 }));
        let b = sim.spawn("burn", Box::new(Burn { steps: 50, cost: 5 }));
        let out = sim.run_to_idle();
        assert!(out.completed_all());
        // Sleeper: 3 naps * (1 busy + 100 idle) + final 0-cost step.
        assert!(sim.task_stats(s).completed_at.unwrap() >= 303);
        assert_eq!(sim.task_stats(s).active, 3);
        // Burner unimpeded by the parked sleeper: ~250 units of work
        // finishing around t=253 (3 units stolen by sleeper steps).
        assert!(sim.task_stats(b).completed_at.unwrap() <= 260);
    }

    #[test]
    fn sleeping_task_can_be_woken_early() {
        struct LongSleeper;
        impl Task for LongSleeper {
            fn step(&mut self, ctx: &mut TaskCtx<'_>) -> Step {
                if ctx.now() == 0 {
                    Step::sleep(0, 1_000_000)
                } else {
                    Step::done(0)
                }
            }
        }
        struct Waker {
            target: TaskId,
        }
        impl Task for Waker {
            fn step(&mut self, ctx: &mut TaskCtx<'_>) -> Step {
                ctx.wake(self.target);
                Step::done(10)
            }
        }
        let mut sim = Simulator::new(2);
        let sleeper = sim.spawn("sleeper", Box::new(LongSleeper));
        sim.spawn("waker", Box::new(Waker { target: sleeper }));
        let out = sim.run_to_idle();
        assert!(out.completed_all());
        // Woken at t=10, not at t=1'000'000.
        assert_eq!(sim.task_stats(sleeper).completed_at, Some(10));
    }

    #[test]
    #[should_panic(expected = "livelock")]
    fn zero_cost_spin_panics() {
        struct Spinner;
        impl Task for Spinner {
            fn step(&mut self, _: &mut TaskCtx<'_>) -> Step {
                Step::yielded(0)
            }
        }
        let mut sim = Simulator::with_config(SimConfig {
            contexts: 1,
            max_zero_cost_spins: 100,
            ..SimConfig::default()
        });
        sim.spawn("spinner", Box::new(Spinner));
        sim.run_to_idle();
    }

    #[test]
    fn trace_records_busy_intervals_when_enabled() {
        let mut sim = Simulator::with_config(SimConfig {
            contexts: 2,
            trace: true,
            ..SimConfig::default()
        });
        sim.spawn("a", Box::new(Burn { steps: 3, cost: 10 }));
        sim.spawn("b", Box::new(Burn { steps: 2, cost: 10 }));
        sim.run_to_idle();
        let spans = sim.trace();
        assert_eq!(spans.len(), 5, "one span per costed step");
        assert!(spans.iter().all(|s| s.end - s.start == 10));
        let gantt = crate::trace::render_gantt(spans, 2, 20);
        assert!(gantt.contains("ctx  0"));
        assert!(gantt.contains("ctx  1"));
        // Disabled by default.
        let mut quiet = Simulator::new(1);
        quiet.spawn("a", Box::new(Burn { steps: 2, cost: 5 }));
        quiet.run_to_idle();
        assert!(quiet.trace().is_empty());
    }

    #[test]
    fn utilization_counts_only_busy_time() {
        let mut sim = Simulator::new(4);
        sim.spawn(
            "a",
            Box::new(Burn {
                steps: 10,
                cost: 10,
            }),
        );
        sim.run_to_idle();
        // One task on four contexts: utilization = 1/4.
        assert!((sim.stats().utilization() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn time_limit_behind_the_clock_does_not_rewind_it() {
        let mut sim = Simulator::new(1);
        sim.spawn(
            "burn",
            Box::new(Burn {
                steps: 100,
                cost: 10,
            }),
        );
        assert_eq!(sim.run(Some(550)).now, 550);
        let out = sim.run(Some(200));
        assert_eq!(out.reason, StopReason::TimeLimit);
        assert_eq!((out.now, sim.now()), (550, 550));
        assert!(sim.run_to_idle().completed_all());
        assert_eq!(sim.now(), 1000);
    }

    #[test]
    fn one_context_pipeline_never_touches_the_heap() {
        let sim = pipeline(1, 200, &[10, 30, 10], 2);
        assert_eq!(sim.seq, 0, "seq counts heap pushes");
        assert_eq!(sim.stats().busy, vec![sim.now()]);
    }

    #[test]
    fn two_context_lockstep_still_goes_through_the_heap() {
        let mut sim = Simulator::new(2);
        sim.spawn("a", Box::new(Burn { steps: 5, cost: 10 }));
        sim.spawn("b", Box::new(Burn { steps: 5, cost: 10 }));
        assert!(sim.run_to_idle().completed_all());
        assert!(sim.seq > 0);
        assert_eq!(sim.stats().busy, vec![50, 50]);
    }

    /// Deterministic test RNG (SplitMix64).
    #[derive(Clone)]
    struct Rng(u64);
    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }
        /// A step cost: small, often zero, so equal-time events collide.
        fn cost(&mut self) -> VTime {
            [0, 0, 1, 2, 3, 5, 8, 13][self.below(8) as usize]
        }
    }

    /// One instruction of a [`Scripted`] task.
    #[derive(Clone)]
    enum Op {
        Work(VTime),
        Nap(VTime, VTime),
        /// Sends one value on channel `.0`, blocking while it is full.
        Send(usize, VTime),
        /// Receives from channel `.0` until it is closed.
        Drain(usize, VTime),
        Spawn(Vec<Op>, VTime),
    }

    /// Runs its script, then closes the channels it sends on and
    /// finishes with a step of cost `finish`.
    struct Scripted {
        ops: Vec<Op>,
        pc: usize,
        finish: VTime,
        txs: Vec<(usize, channel::Sender<u64>)>,
        rxs: Vec<(usize, channel::Receiver<u64>)>,
    }
    impl Scripted {
        fn new(ops: Vec<Op>, finish: VTime) -> Self {
            Self {
                ops,
                pc: 0,
                finish,
                txs: Vec::new(),
                rxs: Vec::new(),
            }
        }
    }
    impl Task for Scripted {
        fn step(&mut self, ctx: &mut TaskCtx<'_>) -> Step {
            ctx.add_progress(1.0);
            let Some(op) = self.ops.get(self.pc).cloned() else {
                for (_, tx) in &self.txs {
                    tx.close(ctx);
                }
                return Step::done(self.finish);
            };
            match op {
                Op::Work(c) => {
                    self.pc += 1;
                    Step::yielded(c)
                }
                Op::Nap(c, d) => {
                    self.pc += 1;
                    Step::sleep(c, d)
                }
                Op::Send(ch, c) => {
                    let tx = &self.txs.iter().find(|(i, _)| *i == ch).expect("sender").1;
                    match tx.try_send(self.pc as u64, ctx) {
                        Ok(()) => {
                            self.pc += 1;
                            Step::yielded(c)
                        }
                        Err(_) => Step::blocked(0),
                    }
                }
                Op::Drain(ch, c) => {
                    let rx = &self.rxs.iter().find(|(i, _)| *i == ch).expect("receiver").1;
                    match rx.try_recv(ctx) {
                        Recv::Value(_) => Step::yielded(c),
                        Recv::Empty => Step::blocked(0),
                        Recv::Closed => {
                            self.pc += 1;
                            Step::yielded(0)
                        }
                    }
                }
                Op::Spawn(child, c) => {
                    self.pc += 1;
                    ctx.spawn("child", Box::new(Scripted::new(child, c)));
                    Step::yielded(c)
                }
            }
        }
    }

    /// A random task set: contexts, `(capacity, producer, consumer)`
    /// per channel, and each task's script and final cost.
    struct Spec {
        contexts: usize,
        channels: Vec<(usize, usize, usize)>,
        tasks: Vec<(Vec<Op>, VTime)>,
    }

    fn random_ops(rng: &mut Rng, len: u64, depth: u32) -> Vec<Op> {
        let kinds = if depth > 0 { 4 } else { 3 };
        (0..len)
            .map(|_| match rng.below(kinds) {
                0 | 1 => Op::Work(rng.cost()),
                2 => Op::Nap(rng.cost(), [0, 0, 1, 7, 40][rng.below(5) as usize]),
                _ => {
                    let len = rng.below(4);
                    Op::Spawn(random_ops(rng, len, depth - 1), rng.cost())
                }
            })
            .collect()
    }

    fn random_spec(rng: &mut Rng) -> Spec {
        let contexts = 1 + rng.below(4) as usize;
        let n = 1 + rng.below(5) as usize;
        let mut scripts: Vec<Vec<Op>> = (0..n)
            .map(|_| {
                let len = rng.below(8);
                random_ops(rng, len, 2)
            })
            .collect();
        let mut channels = Vec::new();
        let n_channels = if n > 1 { rng.below(4) as usize } else { 0 };
        for ch in 0..n_channels {
            let producer = rng.below(n as u64) as usize;
            let consumer = (producer + 1 + rng.below(n as u64 - 1) as usize) % n;
            channels.push((1 + rng.below(3) as usize, producer, consumer));
            for _ in 0..rng.below(7) {
                let at = rng.below(scripts[producer].len() as u64 + 1) as usize;
                scripts[producer].insert(at, Op::Send(ch, rng.cost()));
            }
            let at = rng.below(scripts[consumer].len() as u64 + 1) as usize;
            scripts[consumer].insert(at, Op::Drain(ch, rng.cost()));
        }
        let tasks = scripts.into_iter().map(|s| (s, rng.cost())).collect();
        Spec {
            contexts,
            channels,
            tasks,
        }
    }

    /// Everything a schedule determines: each run's outcome, per-task
    /// stats, per-context busy time and the trace.
    type Observed = (
        Vec<RunOutcome>,
        Vec<(String, TaskStats)>,
        Vec<VTime>,
        Vec<crate::trace::Span>,
    );

    /// Builds `spec`, runs it in slices cut by `rng` (some limits behind
    /// the clock) and then to idle; returns what it observed and the
    /// heap pushes it took.
    fn observe(spec: &Spec, mut rng: Rng, force_heap: bool) -> (Observed, u64) {
        let mut sim = Simulator::with_config(SimConfig {
            contexts: spec.contexts,
            trace: true,
            ..SimConfig::default()
        });
        sim.force_heap = force_heap;
        let mut tasks: Vec<Scripted> = spec
            .tasks
            .iter()
            .map(|(ops, finish)| Scripted::new(ops.clone(), *finish))
            .collect();
        for (ch, &(cap, producer, consumer)) in spec.channels.iter().enumerate() {
            let (tx, rx) = channel::bounded(cap);
            tasks[producer].txs.push((ch, tx));
            tasks[consumer].rxs.push((ch, rx));
        }
        for (i, t) in tasks.into_iter().enumerate() {
            sim.spawn(format!("t{i}"), Box::new(t));
        }
        let mut outcomes = Vec::new();
        for _ in 0..rng.below(12) {
            let limit = (sim.now() + rng.below(60)).saturating_sub(10);
            let out = sim.run(Some(limit));
            outcomes.push(out);
            if out.reason != StopReason::TimeLimit {
                break;
            }
        }
        outcomes.push(sim.run_to_idle());
        let stats = sim
            .all_task_stats()
            .map(|(_, name, s)| (name.to_string(), *s))
            .collect();
        let observed = (outcomes, stats, sim.stats().busy, sim.trace().to_vec());
        (observed, sim.seq)
    }

    #[test]
    fn in_place_steps_schedule_exactly_like_the_heap() {
        let (mut heap_pushes, mut in_place_pushes) = (0, 0);
        for case in 0..2000u64 {
            let mut rng = Rng(case);
            let spec = random_spec(&mut rng);
            let (heap, pushed) = observe(&spec, rng.clone(), true);
            heap_pushes += pushed;
            let (in_place, pushed) = observe(&spec, rng, false);
            in_place_pushes += pushed;
            assert_eq!(in_place, heap, "case {case}");
        }
        // Both paths were exercised, side by side in the same runs.
        assert!(
            0 < in_place_pushes && in_place_pushes < heap_pushes,
            "{in_place_pushes} of {heap_pushes} pushes left"
        );
    }
}
