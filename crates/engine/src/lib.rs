//! # cordoba-engine — the staged, work-sharing query engine
//!
//! Reproduction of the paper's prototype ("Cordoba", Section 3.2): a
//! staged engine where concurrent queries' overlapping sub-plans are
//! detected at submission time and **merged** — the shared sub-plan (its
//! root is the *pivot* operator φ) executes once and multiplexes its
//! output pages to every consumer, paying the per-consumer cost `s` that
//! creates the work-sharing/parallelism trade-off. Detection is
//! semantic, not just structural: fingerprints and the predicate
//! subsumption lattice of [`cordoba_exec::subsume`] let a wide
//! `σ[a ≤ x < b]` fragment serve narrower consumers through residual
//! filters, and [`fragment_cache`] replays recently completed fragments
//! for late arrivals.
//!
//! Pieces:
//!
//! * [`QuerySpec`] — a physical plan plus its designated shareable
//!   sub-plan.
//! * [`sharing`] — sub-plan splitting: member plans are grafted onto a
//!   shared pivot's output channels via [`cordoba_exec::PhysicalPlan::Source`].
//! * [`Policy`] — `AlwaysShare`, `NeverShare`, and `ModelGuided`
//!   (paper Section 8): the model-guided policy admits a query into a
//!   sharing group only if the analytical model predicts the expanded
//!   group does not lose ([`policy::sharing_group`] is the one pricing,
//!   [`Policy::decide`] the one advisor: its [`policy::Decision`] carries
//!   `cordoba-core`'s one verdict, `Speedup::favors_sharing`, with the
//!   predicted `Z` behind it).
//! * [`Run`] — the one run loop and its one [`Report`]: its dispatcher
//!   decides what to share, and its groups run in one of two places,
//!   the simulated CMP or OS threads ([`run_once_on_threads`], a batch
//!   whose dispatched groups run through the wiring's local driver;
//!   wall-clock, host-bound, rows bit-identical to [`run_once`]'s). A
//!   [`Run`] is parameterised by arrival source, admission bound,
//!   capture and stop condition: [`run_once`] (a batch),
//!   [`ClosedLoop`]/[`measure_throughput`] (every completion is
//!   resubmitted — the Little's Law regime of Section 1.2) and
//!   [`run_service`] (the open system of Section 5.1: arrivals pass a
//!   bounded admission queue with typed rejection when full, the
//!   sharing policy acts as a per-arrival merge controller) are
//!   configurations of it. Every offered query gets an explicit
//!   disposition (completed / failed / rejected / in flight), so
//!   tail-latency accounting always balances.
//! * [`profiling`] — the paper's Section 3.1 parameter estimation:
//!   profile a query with and without sharing, solve for each
//!   operator's `p` and the pivot's `(w, s)`, and emit a
//!   [`cordoba_core::PlanSpec`] the policy can evaluate.
//! * [`thread_exec`] — batches of copies of one query on OS threads
//!   (unshared, morsel-parallel, shared), each a configuration of
//!   [`run_once_on_threads`]: the shapes the benchmark, the examples
//!   and the contention re-fit time.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(unreachable_pub)]
// Test code may call the oracle, start threads and touch files: the
// workspace policy (`clippy.toml`) binds the library, not its tests.
#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod fragment_cache;
pub mod policy;
pub mod profiling;
mod query;
mod run;
pub mod sharing;
pub mod thread_exec;

pub use cordoba_exec::{ExecError, MemoryConfig, ParallelConfig};
pub use policy::{OverlapInfo, Policy, QueryModelInfo};
pub use query::QuerySpec;
pub use run::{
    measure_throughput, run_once, run_once_on_threads, run_open_loop_collecting, run_service,
    ArrivalSchedule, ClosedLoop, Disposition, EngineConfig, OnceOutcome, Report, Run,
    ServiceConfig, ServiceReport, SharingCounters, Source, Stop, Throughput,
};
