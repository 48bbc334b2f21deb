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
#![warn(unreachable_pub)]
// Test code may call the oracle, start threads and touch files: the
// workspace policy (`clippy.toml`) binds the library, not its tests.
#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types))]

mod cost;
mod error;
pub mod expr;
mod memory;
pub mod ops;
mod parallel;
mod plan;
pub mod reference;
pub mod subsume;
mod vexpr;
pub mod wiring;

pub use cost::OpCost;
pub use error::{ExecError, FaultCell};
pub use memory::{MemoryBroker, MemoryConfig, QueryResources, SpillContext};
pub use parallel::{MorselDispenser, ParallelConfig};
pub use plan::{concat_schemas, JoinKind, PhysicalPlan, SchemaRef};
pub use vexpr::{CompiledExpr, CompiledPredicate, ExprScratch};
