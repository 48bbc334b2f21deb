//! Per-operator work parameters (`w`, `s`, `p` from the paper's Table 1).

use crate::error::{check_cost, Result};

/// Work parameters of a single operator in a query plan.
///
/// All streams carry *units of forward progress* rather than tuples, so
/// operators with different selectivities are directly comparable (paper
/// Section 4.1.1). For each unit of overall forward progress:
///
/// * input stream `i` requires `input_work[i]` units of work (`w_i`), and
/// * each consumer `j` requires `output_cost[j]` units of work to receive
///   its copy of the output (`s_j`).
///
/// The total work per unit of forward progress is
/// `p = Σ_i w_i + Σ_j s_j`.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatorSpec {
    /// Human-readable operator name (used in reports and errors only).
    pub name: String,
    /// `w_i`: work per unit of forward progress for each input stream.
    /// Leaf operators (scans) conventionally carry their entire private
    /// work in a single pseudo-input entry.
    pub input_work: Vec<f64>,
    /// `s_j`: work to output one unit of forward progress to each
    /// consumer. Most operators have exactly one consumer.
    pub output_cost: Vec<f64>,
    /// Whether the operator is stop-&-go (sort, hash-build): it must
    /// consume its entire input before producing output, which decouples
    /// the rates of the plan below it from the plan above it
    /// (paper Section 5.2).
    pub(crate) blocking: bool,
}

impl OperatorSpec {
    /// Creates a fully-pipelinable operator and validates all costs.
    ///
    /// # Panics
    ///
    /// Panics if any cost is negative or non-finite; use
    /// [`OperatorSpec::try_new`] for fallible construction.
    pub fn new(name: impl Into<String>, input_work: Vec<f64>, output_cost: Vec<f64>) -> Self {
        Self::try_new(name, input_work, output_cost).expect("invalid operator cost")
    }

    /// Fallible constructor: validates that every cost is finite and
    /// non-negative.
    pub fn try_new(
        name: impl Into<String>,
        input_work: Vec<f64>,
        output_cost: Vec<f64>,
    ) -> Result<Self> {
        let name = name.into();
        for (i, w) in input_work.iter().enumerate() {
            check_cost(format_args!("{name}.w[{i}]"), *w)?;
        }
        for (j, s) in output_cost.iter().enumerate() {
            check_cost(format_args!("{name}.s[{j}]"), *s)?;
        }
        Ok(Self {
            name,
            input_work,
            output_cost,
            blocking: false,
        })
    }

    /// Marks the operator as stop-&-go (sort, hash build, ...).
    #[must_use]
    pub fn blocking(mut self) -> Self {
        self.blocking = true;
        self
    }

    /// Total input-side work per unit of forward progress, `Σ_i w_i`.
    pub fn w(&self) -> f64 {
        self.input_work.iter().sum()
    }

    /// Total output-side work per unit of forward progress, `Σ_j s_j`.
    fn s_total(&self) -> f64 {
        self.output_cost.iter().sum()
    }

    /// Per-consumer output cost, assuming a single (or uniform) consumer.
    ///
    /// This is the `s` that grows with the number of sharers when the
    /// operator becomes a pivot: with `M` sharers the pivot pays
    /// `w + M·s` per unit of forward progress.
    pub fn s_per_consumer(&self) -> f64 {
        if self.output_cost.is_empty() {
            0.0
        } else {
            self.s_total() / self.output_cost.len() as f64
        }
    }

    /// Total work per unit of forward progress, `p = Σw + Σs`
    /// (paper Section 4.1.1).
    pub fn p(&self) -> f64 {
        self.w() + self.s_total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p_is_sum_of_w_and_s() {
        let op = OperatorSpec::new("scan", vec![9.66], vec![10.34]);
        assert!((op.p() - 20.0).abs() < 1e-12);
        assert!((op.w() - 9.66).abs() < 1e-12);
        assert!((op.s_total() - 10.34).abs() < 1e-12);
    }

    #[test]
    fn multiple_inputs_and_outputs_sum() {
        let op = OperatorSpec::new("join", vec![2.0, 3.0], vec![1.0, 0.5]);
        assert!((op.w() - 5.0).abs() < 1e-12);
        assert!((op.s_total() - 1.5).abs() < 1e-12);
        assert!((op.p() - 6.5).abs() < 1e-12);
        assert!((op.s_per_consumer() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn operator_with_no_outputs_has_zero_s() {
        let root = OperatorSpec::new("agg", vec![0.97], vec![]);
        assert_eq!(root.s_per_consumer(), 0.0);
        assert!((root.p() - 0.97).abs() < 1e-12);
    }

    #[test]
    fn try_new_rejects_bad_costs() {
        assert!(OperatorSpec::try_new("x", vec![-1.0], vec![]).is_err());
        assert!(OperatorSpec::try_new("x", vec![1.0], vec![f64::NAN]).is_err());
    }

    #[test]
    fn blocking_flag_round_trips() {
        let sort = OperatorSpec::new("sort", vec![5.0], vec![1.0]).blocking();
        assert!(sort.blocking);
        let scan = OperatorSpec::new("scan", vec![1.0], vec![1.0]);
        assert!(!scan.blocking);
    }
}
