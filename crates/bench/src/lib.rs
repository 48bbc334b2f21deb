//! # cordoba-bench — experiment harness
//!
//! One module per concern:
//!
//! * [`experiments`] — measurement routines behind every figure of the
//!   paper (shared/unshared throughput sweeps, model validation, policy
//!   comparison) over the simulated CMP.
//! * [`figures`] — every figure of the paper as named panels, each a
//!   table with its CSV, chart and summary, the operator and service
//!   scenarios as two more figures (`ops`, `service`), and the
//!   `figures` binary's command line.
//! * [`output`] — CSV emission and ASCII charts; the ordered JSON
//!   emitter and the byte-for-byte comparison.
//! * [`gates`] — the three committed documents, `BENCH_ops.json`,
//!   `BENCH_service.json` and `BENCH_paper.json`, each a list of
//!   figure tables that `tests/gates.rs` reproduces byte for byte, and
//!   the simulator-virtual-time panels behind the first two
//!   (morsel-parallel wiring, subsumption sharing and policy points,
//!   spill peak memory, the open-system service loop).
//!
//! One binary, `figures` (`figures <fig1|fig2|fig4|fig5|fig6|sec44|ablations|ops|service|all>
//! [panel] [--quick]`, writes `results/*.csv`; see README.md's "Quick
//! tour"); a run that covers every table of a committed document
//! rewrites it. The paper's claims are asserted in
//! `tests/paper_claims.rs` through the same measurement the figures
//! use. Wall-clock measurement is `benchmark/`'s job.

#![warn(unreachable_pub)]

use cordoba_engine::{EngineConfig, Policy};

pub mod experiments;
pub mod figures;
pub mod gates;
pub mod output;
mod par_kernels;
mod service_kernels;
mod spill_kernels;
mod subsume_kernels;

/// The crate's one engine configuration: explicit contexts and policy
/// over the defaults (one morsel worker). Scenarios that want more
/// workers set `parallel` over this base.
pub fn engine_cfg(contexts: usize, policy: Policy) -> EngineConfig {
    EngineConfig {
        contexts,
        policy,
        ..EngineConfig::default()
    }
}
