//! # cordoba-bench — experiment harness
//!
//! One module per concern:
//!
//! * [`experiments`] — measurement routines behind every figure of the
//!   paper (shared/unshared throughput sweeps, model validation, policy
//!   comparison) over the simulated CMP.
//! * [`output`] — CSV emission and quick ASCII charts so each figure
//!   binary prints the same series the paper plots; the ordered JSON
//!   emitter, the byte-for-byte comparison and the command line of the
//!   two trajectory binaries.
//! * [`gates`] — the two committed trajectory documents,
//!   `BENCH_ops.json` and `BENCH_service.json`, which `tests/gates.rs`
//!   reproduces byte for byte.
//! * [`par_kernels`], [`subsume_kernels`], [`spill_kernels`] — the
//!   deterministic simulator-virtual-time scenarios of `BENCH_ops.json`
//!   (morsel-parallel wiring, subsumption sharing and policy points,
//!   spill peak memory).
//! * [`service_kernels`] — the open-system tail-latency scenarios of
//!   `BENCH_service.json`.
//!
//! Binaries: one per table/figure (see README.md's "Quick tour") —
//! `fig1_q6_sharing`, `fig2_speedups`, `fig4_sensitivity`,
//! `fig5_validation`, `fig6_policies`, `sec44_params`, `ablations`, and
//! `all_figures` (runs everything, writes `results/*.csv`) — plus
//! `bench_ops` and `bench_service`, which rewrite the two committed
//! documents. Wall-clock measurement is `benchmark/`'s job.

use cordoba_engine::{EngineConfig, ParallelConfig, Policy};

pub mod experiments;
pub mod gates;
pub mod output;
pub mod par_kernels;
pub mod service_kernels;
pub mod spill_kernels;
pub mod subsume_kernels;

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
