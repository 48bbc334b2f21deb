//! # cordoba-workload — the paper's query workloads
//!
//! * [`queries`] — physical plans for TPC-H Q1 and Q6 (scan-heavy,
//!   shareable at the `lineitem` scan) and Q4 and Q13 (join-heavy,
//!   shareable at the join sub-plan), with the fixed predicates the
//!   paper uses (Section 3.1: "we fix the query predicates to constant
//!   values").
//! * [`CostProfile`] — the calibrated per-operator virtual costs. The
//!   scan is calibrated to the paper's measured Q6 parameters
//!   (w = 9.66, s = 10.34 per scanned tuple, Section 4.4).
//! * [`synthetic`] — the 3-stage model query of Section 6
//!   (p=10 / w=6,s=1 / p=10) and the 5-way-split variant of Section 6.3,
//!   used by the sensitivity-analysis figures.
//! * [`family_specs`] over a [`FamilyConfig`] — seeded parameterized
//!   query families: distinct but strictly nested Q6/Q1-style selection
//!   windows, the workload for the subsumption-sharing experiments (no
//!   two queries byte-identical).
//! * [`arrivals`] — seeded arrival-schedule generators for the service
//!   loop: Poisson mixes, bursty on/off sources, saturation ramps, and
//!   chaos (fault-injection) campaigns.
//! * [`mix`] — client mixes for the policy comparison of Section 8.2.
//! * [`naive`] — straight-line reimplementations of each query over raw
//!   rows, independent of the operator layer: the ground truth the
//!   plans are tested against.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(unreachable_pub)]

pub mod arrivals;
mod costs;
mod family;
pub mod mix;
pub mod naive;
pub mod queries;
pub mod synthetic;

pub use costs::CostProfile;
pub use family::{family_specs, FamilyConfig};
pub use queries::{q1, q13, q4, q6, q6_with_params, Q6Params};
