//! # cordoba-bench — experiment harness
//!
//! One module per concern:
//!
//! * [`experiments`] — measurement routines behind every figure of the
//!   paper (shared/unshared throughput sweeps, model validation, policy
//!   comparison) over the simulated CMP.
//! * [`output`] — CSV emission and quick ASCII charts so each figure
//!   binary prints the same series the paper plots; the ordered JSON
//!   emitter, command line and byte-for-byte `--check` gate shared by
//!   the two trajectory binaries.
//! * [`par_kernels`], [`subsume_kernels`], [`spill_kernels`] — the
//!   deterministic simulator-virtual-time scenarios `bench_ops` records
//!   in `BENCH_ops.json` (morsel-parallel wiring, subsumption sharing
//!   and policy points, spill peak memory).
//! * [`service_kernels`] — the open-system tail-latency scenarios
//!   `bench_service` records in `BENCH_service.json`.
//!
//! Binaries: one per table/figure (see README.md's "Quick tour") —
//! `fig1_q6_sharing`, `fig2_speedups`, `fig4_sensitivity`,
//! `fig5_validation`, `fig6_policies`, `sec44_params`, `ablations`, and
//! `all_figures` (runs everything, writes `results/*.csv`) — plus the
//! two gates, `bench_ops` and `bench_service`. Wall-clock measurement
//! is `benchmark/`'s job.

use cordoba_engine::{EngineConfig, ParallelConfig, Policy};

pub mod experiments;
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
