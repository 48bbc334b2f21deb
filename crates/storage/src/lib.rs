//! # cordoba-storage — paged in-memory tables + TPC-H generator
//!
//! The paper's engine ("Cordoba", Section 3.2) packs intermediate
//! results into pages "of typical size of 4K" and runs against a
//! memory-resident 1 GB TPC-H database. This crate provides that
//! substrate:
//!
//! * fixed-width row [`Page`]s (default 4 KiB) described by a [`Schema`],
//! * immutable in-memory [`Table`]s composed of shared pages,
//! * a [`Catalog`] of named tables, and
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

pub mod catalog;
pub mod date;
pub mod morsel;
pub mod page;
pub mod schema;
pub mod spill;
pub mod table;
pub mod tpch;
pub mod value;

pub use catalog::Catalog;
pub use date::Date;
pub use morsel::{morsel_at, morsel_count, morsels, Morsel};
pub use page::{Page, PageBuilder, TupleRef, PAGE_SIZE};
pub use schema::{DataType, Field, Schema};
pub use spill::{SpillFile, SpillReader, SpillWriter};
pub use table::{Table, TableBuilder};
pub use value::Value;
