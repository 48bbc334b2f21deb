// Rule 8: an operator and a seam bridge that step themselves; a task's
// `step` returns a `Step`, however the type is reached.
use cordoba_sim::{Step as Stepped, Task, TaskCtx}; //~ clippy::disallowed_types
struct LimitTask;
impl Task for LimitTask { fn step(&mut self, _: &mut TaskCtx<'_>) -> Stepped { Stepped::blocked(0) } } //~ clippy::disallowed_types clippy::disallowed_types
struct SeamBridge<T>(T);
impl<T> Task for SeamBridge<T> { fn step(&mut self, _: &mut TaskCtx<'_>) -> cordoba_sim::Step { todo!() } } //~ clippy::disallowed_types clippy::todo
