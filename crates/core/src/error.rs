//! Error type shared across the model crate.

use std::fmt;

/// Convenient result alias for model operations.
pub type Result<T> = std::result::Result<T, ModelError>;

/// Errors produced while building or evaluating model structures.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// A cost parameter was negative or not finite.
    InvalidCost {
        /// Human-readable description of the offending parameter.
        what: String,
        /// The rejected value.
        value: f64,
    },
    /// A node id did not belong to the plan it was used with.
    UnknownNode(usize),
    /// The plan has no operators.
    EmptyPlan,
    /// The designated root does not dominate all nodes (disconnected plan).
    DisconnectedPlan {
        /// Number of nodes reachable from the root.
        reachable: usize,
        /// Total number of nodes in the arena.
        total: usize,
    },
    /// A node was used as a child of two different parents.
    DuplicateChild(usize),
    /// A sharing group must contain at least one query.
    EmptyGroup,
    /// The processor count must be positive.
    InvalidProcessors(f64),
    /// Parameter estimation was given insufficient or degenerate data.
    Estimation(String),
    /// Queries in a group have structurally incompatible shared sub-plans.
    IncompatiblePivot(String),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::InvalidCost { what, value } => {
                write!(
                    f,
                    "invalid cost for {what}: {value} (must be finite and >= 0)"
                )
            }
            ModelError::UnknownNode(id) => write!(f, "node id {id} does not belong to this plan"),
            ModelError::EmptyPlan => write!(f, "plan contains no operators"),
            ModelError::DisconnectedPlan { reachable, total } => write!(
                f,
                "plan is disconnected: {reachable} of {total} nodes reachable from root"
            ),
            ModelError::DuplicateChild(id) => {
                write!(f, "node id {id} was attached to more than one parent")
            }
            ModelError::EmptyGroup => write!(f, "sharing group must contain at least one query"),
            ModelError::InvalidProcessors(n) => {
                write!(f, "processor count must be positive and finite, got {n}")
            }
            ModelError::Estimation(msg) => write!(f, "parameter estimation failed: {msg}"),
            ModelError::IncompatiblePivot(msg) => write!(f, "incompatible sharing group: {msg}"),
        }
    }
}

impl std::error::Error for ModelError {}

/// Validates that a cost parameter is finite and non-negative. `what`
/// is only rendered for the error (pass `format_args!`, not `format!`).
pub(crate) fn check_cost(what: impl fmt::Display, value: f64) -> Result<f64> {
    if value.is_finite() && value >= 0.0 {
        Ok(value)
    } else {
        Err(ModelError::InvalidCost {
            what: what.to_string(),
            value,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_cost_accepts_zero_and_positive() {
        assert_eq!(check_cost("w", 0.0), Ok(0.0));
        assert_eq!(check_cost("w", 1.5), Ok(1.5));
    }

    #[test]
    fn check_cost_rejects_negative_nan_inf() {
        assert!(check_cost("w", -1.0).is_err());
        assert!(check_cost("w", f64::NAN).is_err());
        assert!(check_cost("w", f64::INFINITY).is_err());
    }

    #[test]
    fn errors_display_mentions_key_info() {
        let e = ModelError::InvalidCost {
            what: "s".into(),
            value: -2.0,
        };
        assert!(e.to_string().contains("s"));
        assert!(e.to_string().contains("-2"));
        let e = ModelError::UnknownNode(7);
        assert!(e.to_string().contains('7'));
    }
}
