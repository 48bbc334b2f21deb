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

use crate::error::ExecError;
use crate::expr::{Predicate, ScalarExpr};
use crate::vexpr::{CompiledExprs, CompiledPredicate, ExprScratch};
use cordoba_storage::{morsel_at, Morsel, Page, PageBuilder, Schema};
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

enum CompiledStage {
    Filter {
        pred: CompiledPredicate,
        builder: PageBuilder,
    },
    Project {
        progs: CompiledExprs,
        out_schema: Arc<Schema>,
        builder: PageBuilder,
    },
}

/// One worker's fused pipeline: privately compiled programs plus
/// reusable scratch, builders and page lists, so steady-state calls
/// allocate nothing but the output pages themselves.
pub(crate) struct WorkerPipeline {
    stages: Vec<CompiledStage>,
    scratch: ExprScratch,
    sel: Vec<u32>,
    row_bytes: Vec<u8>,
    /// The stage input in hand and the output being produced; swapped
    /// after every stage.
    bufs: [Vec<Arc<Page>>; 2],
}

impl WorkerPipeline {
    pub(crate) fn new(in_schema: &Arc<Schema>, stages: &[StageSpec]) -> Result<Self, ExecError> {
        let mut cur = in_schema.clone();
        let mut compiled = Vec::with_capacity(stages.len());
        for stage in stages {
            match stage {
                StageSpec::Filter(p) => compiled.push(CompiledStage::Filter {
                    pred: CompiledPredicate::compile(p, &cur)?,
                    builder: PageBuilder::new(cur.clone()),
                }),
                StageSpec::Project { exprs, out_schema } => {
                    compiled.push(CompiledStage::Project {
                        progs: CompiledExprs::compile(exprs, &cur)?,
                        out_schema: out_schema.clone(),
                        builder: PageBuilder::new(out_schema.clone()),
                    });
                    cur = out_schema.clone();
                }
            }
        }
        Ok(WorkerPipeline {
            stages: compiled,
            scratch: ExprScratch::default(),
            sel: Vec::new(),
            row_bytes: Vec::new(),
            bufs: [Vec::new(), Vec::new()],
        })
    }

    /// Runs `pages` through every stage, repacking densely per stage
    /// (each stage flushes its builder at the end of the call, so output
    /// page boundaries depend only on this call's row stream), and
    /// records into `stage_rows` the number of rows entering each stage
    /// — the input sizes the fused workers charge their virtual costs
    /// on. The caller drains the returned list.
    pub(crate) fn run_pages_counted(
        &mut self,
        pages: &[Arc<Page>],
        stage_rows: &mut Vec<usize>,
    ) -> &mut Vec<Arc<Page>> {
        stage_rows.clear();
        let [cur, next] = &mut self.bufs;
        cur.clear();
        cur.extend_from_slice(pages);
        for stage in &mut self.stages {
            stage_rows.push(cur.iter().map(|p| p.rows()).sum());
            next.clear();
            match stage {
                CompiledStage::Filter { pred, builder } => {
                    filter_pages(pred, builder, &mut self.scratch, &mut self.sel, cur, next)
                }
                CompiledStage::Project {
                    progs,
                    out_schema,
                    builder,
                } => project_pages(
                    progs,
                    out_schema,
                    builder,
                    &mut self.scratch,
                    &mut self.row_bytes,
                    cur,
                    next,
                ),
            }
            std::mem::swap(cur, next);
        }
        cur
    }
}

fn filter_pages(
    pred: &CompiledPredicate,
    builder: &mut PageBuilder,
    scratch: &mut ExprScratch,
    sel: &mut Vec<u32>,
    pages: &[Arc<Page>],
    out: &mut Vec<Arc<Page>>,
) {
    for page in pages {
        pred.select(page, scratch, sel);
        builder.push_selected(page, sel, |full| out.push(full));
    }
    if !builder.is_empty() {
        out.push(builder.finish_and_reset());
    }
}

fn project_pages(
    progs: &CompiledExprs,
    out_schema: &Arc<Schema>,
    builder: &mut PageBuilder,
    scratch: &mut ExprScratch,
    row_bytes: &mut Vec<u8>,
    pages: &[Arc<Page>],
    out: &mut Vec<Arc<Page>>,
) {
    let w = out_schema.row_width();
    for page in pages {
        progs.encode_rows(page, scratch, out_schema, row_bytes);
        for row in row_bytes.chunks_exact(w) {
            if builder.is_full() {
                out.push(builder.finish_and_reset());
            }
            assert!(builder.push_raw(row));
        }
    }
    if !builder.is_empty() {
        out.push(builder.finish_and_reset());
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
