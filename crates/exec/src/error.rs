//! Typed errors for plan compilation and operator input validation.
//!
//! A malformed plan (string arithmetic, incomparable operand types, a
//! join key that is not an `Int` column, an out-of-range column index)
//! is caught **before** any task is spawned: expression compilation and
//! operator constructors return [`ExecError`] instead of panicking, and
//! the wiring layer propagates it to the query issuer. Runtime input
//! contracts that cannot be checked statically — a merge join fed an
//! unsorted stream — are reported through a per-query [`FaultCell`]:
//! the failing task cancels its inputs, closes its outputs, and records
//! the error, so the query fails while the process (and every other
//! query sharing the simulator) keeps running.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// An execution-layer error: either a plan that does not type-check
/// (caught at compile/instantiation time) or an operator input that
/// violated its contract (caught at run time, per query).
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// The plan failed validation: expression type errors, unknown
    /// tables, out-of-range columns, mistyped join/sort keys.
    PlanType(String),
    /// A merge-join input stream violated its sorted-ascending
    /// contract.
    UnsortedMergeInput {
        /// Which input (`"left"` or `"right"`).
        side: &'static str,
        /// The key that preceded the violation.
        prev: i64,
        /// The out-of-order key.
        key: i64,
    },
    /// An operator received a page whose schema does not match the
    /// schema it was wired for — a malformed input that would otherwise
    /// decode rows at the wrong width.
    InputPageMismatch {
        /// The operator that rejected the page.
        op: &'static str,
        /// What was expected vs. what arrived.
        detail: String,
    },
    /// A spill-path disk operation failed (create, write, or read of a
    /// spill file).
    Spill {
        /// The operator that was spilling.
        op: &'static str,
        /// The underlying I/O error text.
        detail: String,
    },
    /// The memory budget could not be honoured even after exhausting
    /// the spill strategy (e.g. hash-join repartitioning hit its
    /// recursion cap and a partition still exceeds the budget).
    BudgetExhausted {
        /// The operator that gave up.
        op: &'static str,
        /// Why no further spilling can help.
        detail: String,
    },
    /// The batch/run stopped (time cap or deadlock) while this query was
    /// still in flight; the query never produced a result.
    Stalled {
        /// Why the run stopped (`"time cap"` or `"deadlock"`).
        reason: &'static str,
        /// Tasks still live when the run stopped.
        live_tasks: usize,
    },
    /// A fault injected by the harness (chaos testing) — the query is
    /// failed deliberately to exercise the failure path.
    Injected {
        /// Describes the injection site/campaign.
        detail: String,
    },
}

impl ExecError {
    /// Shorthand for a [`ExecError::PlanType`] from anything printable.
    pub fn plan(msg: impl fmt::Display) -> Self {
        ExecError::PlanType(msg.to_string())
    }

    /// Shorthand for a [`ExecError::Spill`] from an I/O error.
    pub(crate) fn spill(op: &'static str, err: impl fmt::Display) -> Self {
        ExecError::Spill {
            op,
            detail: err.to_string(),
        }
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::PlanType(msg) => write!(f, "plan does not type-check: {msg}"),
            ExecError::UnsortedMergeInput { side, prev, key } => write!(
                f,
                "merge join {side} input must be sorted ascending: key {key} after {prev}"
            ),
            ExecError::InputPageMismatch { op, detail } => {
                write!(f, "{op} received a page with a mismatched schema: {detail}")
            }
            ExecError::Spill { op, detail } => {
                write!(f, "{op} spill I/O failed: {detail}")
            }
            ExecError::BudgetExhausted { op, detail } => {
                write!(f, "{op} exhausted its memory budget: {detail}")
            }
            ExecError::Stalled { reason, live_tasks } => {
                write!(
                    f,
                    "query still in flight when the run stopped ({reason}, {live_tasks} live tasks)"
                )
            }
            ExecError::Injected { detail } => write!(f, "injected fault: {detail}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Shared per-query fault slot (the simulator is single-threaded, so a
/// plain `Rc<RefCell<..>>` suffices). Operator tasks record the first
/// runtime failure here; the harness checks it after the run.
#[derive(Debug, Clone, Default)]
pub struct FaultCell(Rc<RefCell<Option<ExecError>>>);

impl FaultCell {
    /// Records `err` unless a fault was already recorded (first error
    /// wins — later failures are usually cascades of the first).
    pub fn set(&self, err: ExecError) {
        let mut slot = self.0.borrow_mut();
        if slot.is_none() {
            *slot = Some(err);
        }
    }

    /// Whether a fault has been recorded.
    pub(crate) fn is_set(&self) -> bool {
        self.0.borrow().is_some()
    }

    /// The recorded fault, if any.
    pub fn get(&self) -> Option<ExecError> {
        self.0.borrow().clone()
    }

    /// Removes and returns the recorded fault, if any.
    pub fn take(&self) -> Option<ExecError> {
        self.0.borrow_mut().take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_both_variants() {
        let e = ExecError::plan("string column 3 in a numeric expression");
        assert!(e.to_string().contains("does not type-check"));
        let e = ExecError::UnsortedMergeInput {
            side: "left",
            prev: 9,
            key: 3,
        };
        assert!(e.to_string().contains("sorted ascending"));
        assert!(e.to_string().contains("3 after 9"));
        let e = ExecError::Stalled {
            reason: "time cap",
            live_tasks: 3,
        };
        assert!(e.to_string().contains("time cap"));
        assert!(e.to_string().contains("3 live tasks"));
        let e = ExecError::Injected {
            detail: "chaos campaign 7".into(),
        };
        assert!(e.to_string().contains("injected"));
        assert!(e.to_string().contains("campaign 7"));
    }

    #[test]
    fn fault_cell_keeps_first_error() {
        let cell = FaultCell::default();
        assert!(!cell.is_set());
        cell.set(ExecError::plan("first"));
        cell.set(ExecError::plan("second"));
        assert_eq!(cell.get(), Some(ExecError::plan("first")));
        assert_eq!(cell.take(), Some(ExecError::plan("first")));
        assert!(!cell.is_set());
    }

    #[test]
    fn clones_share_the_slot() {
        let cell = FaultCell::default();
        let other = cell.clone();
        other.set(ExecError::plan("shared"));
        assert!(cell.is_set());
    }
}
