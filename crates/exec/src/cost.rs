//! Calibrated virtual-cost parameters for operators.
//!
//! Virtual costs decouple the simulated machine from host speed: an
//! operator's real computation (filtering a page, probing a hash table)
//! executes on the host, but the *simulated* time it takes is
//! `per_page + per_tuple · n_in` work units, plus
//! `out_per_tuple · n_out` for every consumer it delivers a page to.
//! These are exactly the `w` and `s` parameters of the paper's model, so
//! profiled simulations recover them (Section 3.1).

use cordoba_sim::VTime;

/// Cost parameters of one operator instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpCost {
    /// Work units per input tuple processed (the model's `w`).
    pub per_tuple: f64,
    /// Fixed work units per input page (header/dispatch overhead).
    per_page: f64,
    /// Work units per output tuple *per consumer* (the model's `s`).
    pub out_per_tuple: f64,
}

impl OpCost {
    /// A cost spec with only per-input-tuple work.
    pub const fn per_tuple(w: f64) -> Self {
        Self {
            per_tuple: w,
            per_page: 0.0,
            out_per_tuple: 0.0,
        }
    }

    /// A cost spec with input work and per-consumer output cost.
    pub const fn new(per_tuple: f64, out_per_tuple: f64) -> Self {
        Self {
            per_tuple,
            per_page: 0.0,
            out_per_tuple,
        }
    }

    /// Adds a fixed per-page overhead.
    #[must_use]
    pub const fn with_per_page(mut self, per_page: f64) -> Self {
        self.per_page = per_page;
        self
    }

    /// Virtual cost of consuming `tuples` input tuples from one page.
    pub fn input_cost(&self, tuples: usize) -> VTime {
        (self.per_page + self.per_tuple * tuples as f64)
            .round()
            .max(0.0) as VTime
    }

    /// Virtual cost of delivering `tuples` output tuples to one consumer.
    pub fn output_cost(&self, tuples: usize) -> VTime {
        (self.out_per_tuple * tuples as f64).round().max(0.0) as VTime
    }
}

impl Default for OpCost {
    /// One work unit per tuple, free output: a neutral default used by
    /// tests; real workloads calibrate explicitly.
    fn default() -> Self {
        Self {
            per_tuple: 1.0,
            per_page: 0.0,
            out_per_tuple: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn input_cost_rounds() {
        let c = OpCost {
            per_tuple: 1.5,
            per_page: 2.0,
            out_per_tuple: 0.0,
        };
        assert_eq!(c.input_cost(0), 2);
        assert_eq!(c.input_cost(3), 7); // 2 + 4.5 rounds to 7 (6.5 -> 7)
    }

    #[test]
    fn output_cost_per_consumer() {
        let c = OpCost::new(1.0, 0.25);
        assert_eq!(c.output_cost(100), 25);
        assert_eq!(c.output_cost(0), 0);
    }

    #[test]
    fn zero_costs_allowed() {
        let c = OpCost {
            per_tuple: 0.0,
            per_page: 0.0,
            out_per_tuple: 0.0,
        };
        assert_eq!(c.input_cost(1000), 0);
        assert_eq!(c.output_cost(1000), 0);
    }

    #[test]
    fn builders_compose() {
        let c = OpCost::per_tuple(2.0).with_per_page(5.0);
        assert_eq!(c.input_cost(10), 25);
        assert_eq!(OpCost::new(1.0, 3.0).output_cost(2), 6);
    }
}
