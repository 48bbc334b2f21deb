//! Cooperative tasks: the unit of scheduling in the simulator.

use crate::VTime;

/// Identifier of a spawned task, unique within one [`crate::Simulator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub(crate) usize);

impl TaskId {
    /// Raw index (stable for the simulator's lifetime).
    pub fn index(self) -> usize {
        self.0
    }
}

/// What a task did during one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepStatus {
    /// Made progress and can run again immediately.
    Yield,
    /// Cannot proceed until another task wakes it (registered itself as
    /// a waiter on some channel during the step).
    Blocked,
    /// Parks without occupying a context for the given virtual duration
    /// (after the step's cost elapses), then becomes ready again. An
    /// explicit wake-up delivers earlier. Used by timer-driven control
    /// tasks like the engine's group dispatcher.
    Sleep(VTime),
    /// Finished; the task is removed from the simulator.
    Done,
}

/// Result of one [`Task::step`] call: the virtual cost of the work just
/// performed plus the task's continuation status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// Virtual work units consumed by this step. May be zero (e.g. a
    /// step that only discovered it was blocked).
    pub cost: VTime,
    /// Continuation status.
    pub status: StepStatus,
}

impl Step {
    /// A step that did `cost` work and can continue.
    pub fn yielded(cost: VTime) -> Self {
        Self {
            cost,
            status: StepStatus::Yield,
        }
    }

    /// A step after which the task is blocked on a channel.
    pub fn blocked(cost: VTime) -> Self {
        Self {
            cost,
            status: StepStatus::Blocked,
        }
    }

    /// A step after which the task idles (off-context) for `delay`.
    pub fn sleep(cost: VTime, delay: VTime) -> Self {
        Self {
            cost,
            status: StepStatus::Sleep(delay),
        }
    }

    /// A step after which the task is finished.
    pub fn done(cost: VTime) -> Self {
        Self {
            cost,
            status: StepStatus::Done,
        }
    }
}

/// Per-step context handed to tasks: identifies the running task,
/// exposes virtual time, and collects wake-ups and spawns produced
/// during the step (applied when the step's cost has elapsed).
pub struct TaskCtx<'a> {
    pub(crate) task_id: TaskId,
    pub(crate) now: VTime,
    pub(crate) wakes: &'a mut Vec<TaskId>,
    pub(crate) spawns: &'a mut Vec<(String, Box<dyn Task>)>,
    pub(crate) progress: &'a mut f64,
}

impl TaskCtx<'_> {
    /// The id of the currently running task.
    pub(crate) fn task_id(&self) -> TaskId {
        self.task_id
    }

    /// Virtual time at the start of this step.
    pub fn now(&self) -> VTime {
        self.now
    }

    /// Requests that `id` be moved from blocked to ready when this step
    /// completes. Waking a task that is not blocked is a no-op (spurious
    /// wake-ups are harmless). Channels call this internally; tasks
    /// rarely need it directly.
    pub fn wake(&mut self, id: TaskId) {
        self.wakes.push(id);
    }

    /// Spawns a new task when this step completes. Used by closed-system
    /// client logic: a finished query's root spawns its replacement.
    pub fn spawn(&mut self, name: impl Into<String>, task: Box<dyn Task>) {
        self.spawns.push((name.into(), task));
    }

    /// Records `units` of forward progress for the running task. The
    /// profiler divides accumulated active time by accumulated progress
    /// to estimate the model's `p` parameters (paper Section 3.1).
    pub fn add_progress(&mut self, units: f64) {
        *self.progress += units;
    }
}

/// Owned backing storage for a [`TaskCtx`] outside a simulator run.
///
/// Channel endpoints take a `&mut TaskCtx` so the simulator can route
/// wake-ups, but harness code — unit tests, the model-check suite
/// enumerating close-vs-send interleavings — drives them directly with
/// no simulator in sight. A `DetachedCtx` owns the buffers a context
/// borrows; [`DetachedCtx::ctx`] mints a context impersonating any
/// task id, and the recorded wakes stay inspectable afterwards.
#[derive(Default)]
pub struct DetachedCtx {
    wakes: Vec<TaskId>,
    spawns: Vec<(String, Box<dyn Task>)>,
    progress: f64,
}

impl DetachedCtx {
    /// Fresh storage with no recorded wakes, spawns, or progress.
    pub fn new() -> Self {
        Self::default()
    }

    /// A context impersonating task `id` at virtual time zero.
    pub fn ctx(&mut self, id: usize) -> TaskCtx<'_> {
        TaskCtx {
            task_id: TaskId(id),
            now: 0,
            wakes: &mut self.wakes,
            spawns: &mut self.spawns,
            progress: &mut self.progress,
        }
    }

    /// Drains and returns the wake requests recorded so far.
    pub fn drain_wakes(&mut self) -> Vec<TaskId> {
        std::mem::take(&mut self.wakes)
    }
}

/// Anything that can register new tasks: the [`crate::Simulator`] itself
/// (before or between runs, returning the new id) or a [`TaskCtx`]
/// (mid-run, applied when the current step completes; no id available).
pub trait Spawner {
    /// Registers a task for execution.
    fn spawn_task(&mut self, name: String, task: Box<dyn Task>) -> Option<TaskId>;
}

impl Spawner for TaskCtx<'_> {
    fn spawn_task(&mut self, name: String, task: Box<dyn Task>) -> Option<TaskId> {
        self.spawn(name, task);
        None
    }
}

/// A cooperative task executed by the simulator.
///
/// Implementations should do a bounded amount of work per step (the
/// engine uses one page of tuples) so that scheduling granularity stays
/// fine enough for round-robin fairness to matter, mirroring the T1's
/// per-cycle thread switching at a coarser grain.
pub trait Task {
    /// Performs one unit of work, returning its virtual cost and status.
    ///
    /// A task returning [`StepStatus::Blocked`] must have registered
    /// itself as a waiter on some channel during the step (via a failed
    /// `try_send` / `try_recv`); otherwise it will never run again and
    /// the simulator will report a deadlock.
    fn step(&mut self, ctx: &mut TaskCtx<'_>) -> Step;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_constructors() {
        assert_eq!(
            Step::yielded(5),
            Step {
                cost: 5,
                status: StepStatus::Yield
            }
        );
        assert_eq!(
            Step::blocked(0),
            Step {
                cost: 0,
                status: StepStatus::Blocked
            }
        );
        assert_eq!(
            Step::done(2),
            Step {
                cost: 2,
                status: StepStatus::Done
            }
        );
    }

    #[test]
    fn ctx_collects_wakes_spawns_progress() {
        struct Nop;
        impl Task for Nop {
            fn step(&mut self, _: &mut TaskCtx<'_>) -> Step {
                Step::done(0)
            }
        }
        let mut wakes = Vec::new();
        let mut spawns = Vec::new();
        let mut progress = 0.0;
        let mut ctx = TaskCtx {
            task_id: TaskId(3),
            now: 17,
            wakes: &mut wakes,
            spawns: &mut spawns,
            progress: &mut progress,
        };
        assert_eq!(ctx.task_id(), TaskId(3));
        assert_eq!(ctx.now(), 17);
        ctx.wake(TaskId(9));
        ctx.spawn("child", Box::new(Nop));
        ctx.add_progress(2.5);
        ctx.add_progress(0.5);
        assert_eq!(wakes, vec![TaskId(9)]);
        assert_eq!(spawns.len(), 1);
        assert_eq!(spawns[0].0, "child");
        assert_eq!(progress, 3.0);
    }
}
