//! # cordoba-bench — experiment harness
//!
//! One module per concern:
//!
//! * [`experiments`] — measurement routines behind every figure of the
//!   paper (shared/unshared throughput sweeps, model validation, policy
//!   comparison) over the simulated CMP.
//! * [`figures`] — every figure of the paper as named panels, each a
//!   table with its CSV, chart and summary, and the `figures` binary's
//!   command line.
//! * [`output`] — CSV emission and ASCII charts; the ordered JSON
//!   emitter, the byte-for-byte comparison and the command line of the
//!   two trajectory binaries.
//! * [`gates`] — the three committed documents, `BENCH_ops.json`,
//!   `BENCH_service.json` and `BENCH_paper.json`, which `tests/gates.rs`
//!   reproduces byte for byte, and the simulator-virtual-time scenarios
//!   behind them (morsel-parallel wiring, subsumption sharing and policy
//!   points, spill peak memory, the open-system service loop).
//!
//! Binaries: `figures` (`figures <fig1|fig2|fig4|fig5|fig6|sec44|ablations|all>
//! [panel] [--quick]`, writes `results/*.csv`; see README.md's "Quick
//! tour"), and `bench_ops` and `bench_service`, which rewrite their
//! committed documents. The paper's claims are asserted in
//! `tests/paper_claims.rs` through the same measurement the figures
//! use. Wall-clock measurement is `benchmark/`'s job.

use cordoba_engine::{EngineConfig, ParallelConfig, Policy};

pub mod experiments;
pub mod figures;
pub mod gates;
pub mod output;
mod par_kernels;
mod service_kernels;
mod spill_kernels;
mod subsume_kernels;

/// The crate's one engine configuration: explicit contexts and policy,
/// morsel workers pinned to 1 so `CORDOBA_WORKERS` in the environment
/// cannot perturb a committed number (`EngineConfig::default()` reads
/// it). Scenarios that want more set the field over this base.
pub fn engine_cfg(contexts: usize, policy: Policy) -> EngineConfig {
    EngineConfig {
        contexts,
        policy,
        parallel: ParallelConfig::with_workers(1),
        ..EngineConfig::default()
    }
}
