//! # cordoba-exec — paged relational operators
//!
//! The operator layer of the reproduced engine. Every operator:
//!
//! * consumes and produces whole [`cordoba_storage::Page`]s (the paper's
//!   Section 3.2 execution model: intermediate results packed into 4 K
//!   pages, improving locality and amortizing producer-consumer
//!   synchronization);
//! * runs as a cooperative [`cordoba_sim::Task`], doing one page of real
//!   computation per step and charging a **calibrated virtual cost**
//!   ([`OpCost`]): `per_tuple` input work (the model's `w`) plus
//!   `out_per_tuple` per consumer delivered (the model's `s`) — that
//!   task is the one [`ops::OperatorShell`], and the operator itself an
//!   [`ops::Kernel`]: state plus a page function;
//! * can fan its output out to *multiple* consumers ([`ops::Fanout`]) —
//!   the mechanism work sharing uses, and precisely the serialization
//!   point the paper analyzes: a pivot with `M` consumers pays
//!   `M · s` per tuple.
//!
//! [`PhysicalPlan`] describes executable plans; [`wiring::instantiate`]
//! spawns one task per operator into a simulator (unshared wiring — the
//! engine crate adds sharing). the [`mod@reference`] module executes the same plans
//! synchronously as a correctness oracle: simulator execution must
//! produce identical results.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cost;
pub mod error;
pub mod expr;
pub mod memory;
pub mod ops;
pub mod parallel;
pub mod plan;
pub mod reference;
pub mod subsume;
pub mod vexpr;
pub mod wiring;

pub use cost::OpCost;
pub use error::{ExecError, FaultCell};
pub use expr::{Agg, CmpOp, Predicate, ScalarExpr};
pub use memory::{MemoryBroker, MemoryConfig, QueryResources, SpillContext};
pub use parallel::{MorselDispenser, ParallelConfig};
pub use plan::{JoinKind, PhysicalPlan};
pub use subsume::{coverage_estimate, fingerprint, subsume_residual, NormPred};
pub use vexpr::{CompiledExpr, CompiledExprs, CompiledPredicate, ExprScratch};
