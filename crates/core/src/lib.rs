//! # cordoba-core — the work-sharing vs. parallelism analytical model
//!
//! This crate implements the analytical model from *"To Share or Not To
//! Share?"* (Johnson et al., VLDB 2007). The model predicts whether
//! sharing a common sub-plan among `m` concurrent queries on `n`
//! processors is a net win, capturing the trade-off between
//!
//! * **eliminated redundant work** (the shared sub-plan executes once), and
//! * **serialization at the pivot operator** (the root of the shared
//!   sub-plan must emit results to every consumer, which throttles all
//!   sharers to a common, possibly slower, rate).
//!
//! ## Model vocabulary (paper Table 1)
//!
//! | Term | Meaning | Here |
//! |------|---------|------|
//! | `w`  | work an operator performs per unit of forward progress (per input stream) | [`OperatorSpec::input_work`] |
//! | `s`  | work to output a unit of forward progress to each consumer | [`OperatorSpec::output_cost`] |
//! | `p`  | total work per unit of forward progress, `Σw + Σs` | [`OperatorSpec::p`] |
//! | `r`  | peak rate of forward progress of a query, `1 / p_max` | [`QueryModel::peak_rate`] |
//! | `u`  | maximum processor utilization of a query, `u' / p_max` | [`QueryModel::peak_utilization`] |
//! | `u'` | total work per unit of forward progress, `Σ_k p_k` | [`QueryModel::total_work`] |
//! | `φ`  | the pivot operator: highest node where sharing is possible | [`plan::PivotedPlan`] |
//! | `x(m,n)` | group rate of forward progress | [`sharing::SharingEvaluator::unshared_rate`], [`sharing::SharingEvaluator::shared_rate`] |
//! | `Z(m,n)` | benefit of sharing, `x_shared / x_unshared` | [`sharing::SharingEvaluator::speedup`], all of it in [`sharing::SharingEvaluator::evaluate`] |
//! | `r_unshared`, `u_unshared` | an unshared group's peak rate and utilization, closed or open system (Section 5.1); queries sharing nothing are the degenerate group (nothing below a zero-cost pivot) | [`sharing::SharingEvaluator::unshared_rate`] / [`unshared_utilization`](sharing::SharingEvaluator::unshared_utilization) |
//! | `e(k) = k^κ` | the one contention term (Section 4.1.4's `n^κ`): effective speedup of `k` morsel workers; divides every `w`-derived term, never `s`; `κ` from [`estimate::estimate_k`] | [`WorkerScaling`](sharing::WorkerScaling), taken by [`sharing::SharingEvaluator::with_workers`] |
//! | share? | `Z ≥ 1 + hysteresis`, ties share — the one comparison | [`sharing::Speedup::favors_sharing`], taken by `cordoba-engine`'s `Policy::decide` |
//!
//! Each equation is written once: one evaluator family serves the
//! serial model and the worker-scaled one, contention is the one
//! [`WorkerScaling`](sharing::WorkerScaling) term, and the one advisor
//! — the engine's `Policy::decide` — takes its verdict over the
//! [`Speedup`](sharing::Speedup) assembled here.
//!
//! ## Quick start
//!
//! ```
//! use cordoba_core::{OperatorSpec, PlanSpec, sharing::SharingEvaluator};
//!
//! // TPC-H Q6 as profiled in the paper (Section 4.4): a table scan with
//! // w = 9.66 and s = 10.34 feeding a p = 0.97 aggregate.
//! let mut plan = PlanSpec::new();
//! let scan = plan.add_leaf(OperatorSpec::new("scan", vec![9.66], vec![10.34]));
//! let agg = plan.add_node(OperatorSpec::new("agg", vec![0.97], vec![]), vec![scan]);
//! let plan = plan.finish(agg).unwrap();
//!
//! let eval = SharingEvaluator::homogeneous(&plan, scan, 16).unwrap();
//! // On one processor sharing 16 identical Q6 queries is a win ...
//! assert!(eval.speedup(1.0) > 1.0);
//! // ... but on 32 processors it is a large loss.
//! assert!(eval.speedup(32.0) < 0.5);
//! ```
//!
//! The extensions of Section 5 are in [`sharing`] (open/closed systems,
//! mismatched rates: [`sharing::SystemKind`]), [`phases`] (stop-&-go
//! operators) and [`joins`] (NLJ / merge / hash join decomposition).
//! Parameter estimation from profiled operator active times (Section
//! 3.1) and the contention exponent are in [`estimate`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(unreachable_pub)]

mod error;
pub mod estimate;
mod fxhash;
pub mod joins;
mod linalg;
mod operator;
pub mod phases;
pub mod plan;
mod query;
pub mod sharing;

pub use error::{ModelError, Result};
pub use fxhash::{FxHashMap, FxHasher};
pub use operator::OperatorSpec;
pub use plan::{NodeId, PlanSpec};
pub use query::QueryModel;
