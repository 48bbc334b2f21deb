//! # Cordoba — work-sharing-aware staged query engine
//!
//! A from-scratch Rust reproduction of *"To Share or Not To Share?"*
//! (Johnson, Harizopoulos, Hardavellas, Sabirli, Pandis, Ailamaki,
//! Mancheril, Falsafi — VLDB 2007).
//!
//! The paper shows that aggressive work sharing between concurrent
//! queries can *hurt* throughput on multi-core hardware, because the
//! shared pivot operator serializes its consumers; it contributes an
//! analytical model that predicts when sharing wins, and a staged engine
//! ("Cordoba") that applies the model at runtime.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`model`] (`cordoba-core`) — the analytical model: `Z(m, n)`,
//!   stop-&-go phases, join decomposition, parameter estimation.
//! * [`sim`] (`cordoba-sim`) — a deterministic discrete-event CMP
//!   simulator standing in for the paper's 32-context UltraSparc T1.
//! * [`storage`] (`cordoba-storage`) — paged in-memory tables and a
//!   deterministic TPC-H-subset generator.
//! * [`exec`] (`cordoba-exec`) — paged relational operators
//!   (scan/filter/aggregate/sort/joins) with calibrated cost functions.
//! * [`engine`] (`cordoba-engine`) — the staged engine: packets, stages,
//!   work-sharing merges, and the always/never/model-guided policies.
//! * [`workload`] (`cordoba-workload`) — TPC-H Q1/Q6/Q4/Q13 plans and
//!   the synthetic workloads of the paper's sensitivity analysis.
//!
//! Each crate exports only what the others, the tests, the examples and
//! the wall-clock benchmark call; paths are those crates' own (e.g.
//! `cordoba::exec::ops::OperatorShell`, `cordoba::model::sharing`).
//!
//! See `examples/quickstart.rs` for a five-minute tour.

pub use cordoba_core as model;
pub use cordoba_engine as engine;
pub use cordoba_exec as exec;
pub use cordoba_sim as sim;
pub use cordoba_storage as storage;
pub use cordoba_workload as workload;
