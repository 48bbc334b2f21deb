//! Execution traces: per-step busy intervals, for debugging schedules
//! and illustrating the serialization the paper analyzes (a shared
//! pivot shows up as one long lane while the other contexts idle).

use crate::{TaskId, VTime};

/// One busy interval: a task occupying a context for `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The executing task.
    pub(crate) task: TaskId,
    /// The context it ran on.
    pub(crate) context: usize,
    /// Step start (virtual time).
    pub(crate) start: VTime,
    /// Step end (`start + cost`).
    pub(crate) end: VTime,
}
