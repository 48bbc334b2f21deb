//! # cordoba-storage — paged in-memory tables + TPC-H generator
//!
//! The paper's engine ("Cordoba", Section 3.2) packs intermediate
//! results into pages "of typical size of 4K" and runs against a
//! memory-resident 1 GB TPC-H database. This crate provides that
//! substrate:
//!
//! * fixed-width row [`Page`]s (default 4 KiB) described by a [`Schema`],
//!   their cells encoded, decoded and ordered by one codec ([`Value`],
//!   [`NumCell`]),
//! * immutable in-memory [`Table`]s composed of shared pages,
//! * a [`Catalog`] of named tables,
//! * [`spill`] files that operators over their memory budget write and
//!   read back a frame at a time, and
//! * a deterministic, seeded [`tpch`] generator for the `customer`,
//!   `orders` and `lineitem` tables with the value distributions that
//!   queries Q1, Q6, Q4 and Q13 depend on.
//!
//! The generator is a from-scratch substitute for the official `dbgen`
//! (README.md's crate map): experiments measure *relative* throughput, which
//! depends on selectivities and cost ratios rather than absolute scale,
//! so a scaled-down, distribution-faithful generator preserves the
//! paper's behaviour.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(unreachable_pub)]
// Test code may call the oracle, start threads and touch files: the
// workspace policy (`clippy.toml`) binds the library, not its tests.
#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types))]

mod catalog;
mod date;
mod morsel;
// The one module with `unsafe`: the gather's unchecked read and the
// prefetch hint, each block under a `// SAFETY:` proof
// (`clippy::undocumented_unsafe_blocks`); Miri runs this crate's tests.
#[expect(
    unsafe_code,
    reason = "the gather's unchecked read, proved in bounds, and the prefetch hint"
)]
mod page;
mod schema;
pub mod spill;
mod table;
pub mod tpch;
mod value;

pub use catalog::Catalog;
pub use date::Date;
pub use morsel::{morsel_at, Morsel};
pub use page::{Page, PageBuilder, TupleRef, PAGE_SIZE};
pub use schema::{DataType, Field, Schema};
pub use table::{Table, TableBuilder};
pub use value::{CellError, NumCell, Value};
