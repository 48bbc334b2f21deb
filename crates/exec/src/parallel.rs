//! The shared pieces of morsel-driven intra-query parallelism.
//!
//! A {filter | project}* chain over a scan is split into page-range
//! [morsels](cordoba_storage::morsel) claimed from a shared atomic
//! [`MorselDispenser`]; each worker owns a fused `WorkerPipeline` (its
//! own compiled programs, scratch and output buffers — no shared
//! mutable state). This module holds exactly those pieces plus the
//! [`ParallelConfig`] knob. The worker and merge *tasks* built from
//! them live in `ops::par_pipe`, and there is one implementation of
//! them: the simulator schedules the group on virtual contexts
//! ([`crate::wiring::instantiate`]), and [`crate::wiring::run_local`]
//! runs the same worker tasks on OS threads.
//!
//! [`ParallelConfig::default`] is one worker: the wiring is then the
//! classic one-task-per-operator layout and nothing here runs.

use crate::cost::OpCost;
use crate::error::ExecError;
use crate::expr::{Predicate, ScalarExpr};
use crate::ops::{FilterKernel, Kernel, Pages, ProjectKernel};
use cordoba_storage::{morsel_at, Morsel, Page, Schema};
// std re-exports in normal builds; model-checked shims under
// `--features model` (see tests/model_check.rs).
use shuttle_lite::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Pages per claimed morsel when the config does not override it:
/// large enough to amortize a dispenser round-trip, small enough to
/// balance skewed filters across workers.
pub const DEFAULT_MORSEL_PAGES: usize = 4;

/// Intra-query parallelism knob, threaded from the engine config down
/// to the wiring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Morsel workers per parallelizable fragment. `1` (the default)
    /// is the serial one-task-per-operator wiring; `0` is treated as
    /// `1`.
    pub workers: usize,
    /// Pages per claimed morsel (`0` treated as `1`).
    pub morsel_pages: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            workers: 1,
            morsel_pages: DEFAULT_MORSEL_PAGES,
        }
    }
}

impl ParallelConfig {
    /// A config with `workers` morsel workers and default granularity.
    pub fn with_workers(workers: usize) -> Self {
        ParallelConfig {
            workers,
            ..Self::default()
        }
    }

    /// Reads `CORDOBA_WORKERS` from the environment, falling back to
    /// the default single worker. `ParallelConfig::default()` never
    /// consults the environment; the engine-facing configs
    /// (`WiringConfig`, `EngineConfig`) construct their parallel knob
    /// through here so a CI leg can force intra-query parallelism on
    /// for an entire test run.
    pub fn from_env() -> Self {
        let workers = std::env::var("CORDOBA_WORKERS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&w| w >= 1)
            .unwrap_or(1);
        Self::with_workers(workers)
    }

    /// The worker count with the zero case normalized away.
    pub fn effective_workers(&self) -> usize {
        self.workers.max(1)
    }
}

/// Shared atomic hand-out of morsels: workers race on one counter and
/// each morsel index is claimed exactly once, in increasing order.
#[derive(Debug)]
pub struct MorselDispenser {
    page_count: usize,
    granularity: usize,
    next: AtomicUsize,
}

impl MorselDispenser {
    /// A dispenser over `page_count` pages in morsels of `granularity`
    /// pages (`0` treated as `1`).
    pub fn new(page_count: usize, granularity: usize) -> Self {
        MorselDispenser {
            page_count,
            granularity: granularity.max(1),
            next: AtomicUsize::new(0),
        }
    }

    /// Claims the next unclaimed morsel, or `None` when the page list
    /// is exhausted. Returns the morsel's index so callers can restore
    /// sequential order when reassembling per-morsel outputs.
    pub fn claim(&self) -> Option<(usize, Morsel)> {
        let idx = self.next.fetch_add(1, Ordering::Relaxed);
        morsel_at(self.page_count, self.granularity, idx).map(|m| (idx, m))
    }
}

/// One pipeline stage above a scan, in execution order — the plan
/// fragment each worker compiles privately.
#[derive(Debug, Clone)]
pub enum StageSpec {
    /// Row filter.
    Filter(Predicate),
    /// Projection to `out_schema` via the expressions.
    Project {
        /// Output expressions, one per output field.
        exprs: Vec<ScalarExpr>,
        /// Schema the stage produces.
        out_schema: Arc<Schema>,
    },
}

/// One worker's fused pipeline: the chain's stages as privately
/// compiled kernels — the [`FilterKernel`] and [`ProjectKernel`] the
/// serial wiring runs behind a shell, here called back to back — plus
/// reusable page lists, so steady-state calls allocate nothing but the
/// output pages themselves.
pub(crate) struct WorkerPipeline {
    stages: Vec<Box<dyn Kernel + Send>>,
    /// The stage input in hand and the output being produced; swapped
    /// after every stage.
    bufs: [Pages; 2],
}

impl WorkerPipeline {
    pub(crate) fn new(
        in_schema: &Arc<Schema>,
        stages: &[(StageSpec, OpCost)],
    ) -> Result<Self, ExecError> {
        let mut cur = in_schema.clone();
        let mut kernels: Vec<Box<dyn Kernel + Send>> = Vec::with_capacity(stages.len());
        for (stage, cost) in stages {
            kernels.push(match stage {
                StageSpec::Filter(p) => Box::new(FilterKernel::new(cur.clone(), p.clone(), *cost)?),
                StageSpec::Project { exprs, out_schema } => {
                    let (input, out) = (cur, out_schema.clone());
                    cur = out_schema.clone();
                    Box::new(ProjectKernel::new(input, out, exprs.clone(), *cost)?)
                }
            });
        }
        Ok(WorkerPipeline {
            stages: kernels,
            bufs: [Vec::new(), Vec::new()],
        })
    }

    /// Runs `pages` through every stage, repacking densely per stage
    /// (each stage's tail is drained at the end of the call, so output
    /// page boundaries depend only on this call's row stream), and
    /// records into `stage_rows` the number of rows entering each stage
    /// — the input sizes the fused workers charge their virtual costs
    /// on (one charge per stage per call; the per-page work the kernels
    /// report is not used here). The caller drains the returned list.
    pub(crate) fn run_pages_counted(
        &mut self,
        pages: &[Arc<Page>],
        stage_rows: &mut Vec<usize>,
    ) -> &mut Pages {
        stage_rows.clear();
        let [cur, next] = &mut self.bufs;
        cur.clear();
        cur.extend_from_slice(pages);
        for stage in &mut self.stages {
            stage_rows.push(cur.iter().map(|p| p.rows()).sum());
            next.clear();
            let mut run = || {
                for page in cur.iter() {
                    stage.on_page(0, page, next)?;
                }
                stage.drain(next)
            };
            let ran = run();
            assert!(
                ran.is_ok(),
                "filter and project kernels do not fail: {ran:?}"
            );
            std::mem::swap(cur, next);
        }
        cur
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispenser_hands_out_each_morsel_exactly_once() {
        let dispenser = MorselDispenser::new(100, 3);
        let claims = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    while let Some((idx, m)) = dispenser.claim() {
                        claims.lock().unwrap().push((idx, m));
                    }
                });
            }
        });
        let mut claims = claims.into_inner().unwrap();
        claims.sort_by_key(|&(i, _)| i);
        assert_eq!(claims.len(), 34);
        let mut covered = 0;
        for (i, (idx, m)) in claims.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(m.start, covered);
            covered = m.end;
        }
        assert_eq!(covered, 100);
    }

    #[test]
    fn config_normalizes_workers() {
        assert_eq!(ParallelConfig::default().workers, 1);
        assert_eq!(ParallelConfig::with_workers(0).effective_workers(), 1);
        assert_eq!(ParallelConfig::with_workers(8).effective_workers(), 8);
    }
}
