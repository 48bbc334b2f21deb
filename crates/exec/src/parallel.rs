//! Morsel-driven intra-query parallelism over real OS threads.
//!
//! The simulator models the paper's hardware; this module runs plans on
//! the actual machine. A query fragment is split into page-range
//! [morsels](cordoba_storage::morsel) claimed from a shared atomic
//! [`MorselDispenser`]; each worker owns a fused scan → filter →
//! project pipeline (its own compiled programs and [`ExprScratch`], no
//! shared mutable state) and the stop-&-go operators merge per-worker
//! partial state at the sink:
//!
//! * **pipelines** — per-morsel outputs are reassembled in morsel-index
//!   order, so the emitted row stream equals the sequential one for any
//!   worker count (page boundaries may differ, row order never does);
//! * **aggregation** — each worker folds its morsels into a private
//!   [`AggCore`] (the same packed-u64 fast path as the serial
//!   operator); cores merge in worker-index order and emit sorted, so
//!   grouped results are row-identical to the serial path;
//! * **hash join** — workers build per-worker partition sets routed by
//!   [`partition_of`]; partitions are [absorbed](BuildTable::absorb)
//!   into one `BuildTable` (partition-major, worker-minor — the same
//!   table layout the spill path consumes) and the probe side fans out
//!   across morsels against the shared immutable table. Join output is
//!   multiset-equal to the serial path; chain order inside a key may
//!   reflect which worker claimed which morsel.
//!
//! [`ParallelConfig::default`] is one worker: every kernel then runs on
//! the calling thread, claiming morsels in order — behaviour-identical
//! to the sequential executor. The build path charges the query's
//! [`MemoryBroker`] from all workers concurrently, which is safe
//! because the broker's accounting is a single atomic compare-exchange
//! per grant.

use crate::cost::OpCost;
use crate::error::ExecError;
use crate::expr::{Agg, Predicate, ScalarExpr};
use crate::memory::{MemoryBroker, QueryResources};
use crate::ops::aggregate::AggCore;
use crate::ops::hash_join::{partition_of, BuildTable};
use crate::ops::{default_row_bytes, int_key};
use crate::plan::{JoinKind, PhysicalPlan};
use crate::vexpr::{CompiledExpr, CompiledPredicate, ExprScratch};
use crate::wiring;
use cordoba_storage::{morsel_at, Catalog, Morsel, Page, PageBuilder, Schema, Table, Value};
// std re-exports in normal builds; model-checked shims under
// `--features model` (see tests/model_check.rs).
use shuttle_lite::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Pages per claimed morsel when the config does not override it:
/// large enough to amortize a dispenser round-trip, small enough to
/// balance skewed filters across workers.
pub const DEFAULT_MORSEL_PAGES: usize = 4;

/// Intra-query parallelism knob, threaded from the engine config down
/// to the kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Morsel workers per parallelizable fragment. `1` (the default)
    /// runs everything on the calling thread and is behaviour-identical
    /// to the sequential executor; `0` is treated as `1`.
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

/// The schema a stage chain produces over `in_schema` rows.
pub fn stages_out_schema(in_schema: &Arc<Schema>, stages: &[StageSpec]) -> Arc<Schema> {
    stages
        .iter()
        .rev()
        .find_map(|s| match s {
            StageSpec::Project { out_schema, .. } => Some(out_schema.clone()),
            StageSpec::Filter(_) => None,
        })
        .unwrap_or_else(|| in_schema.clone())
}

enum CompiledStage {
    Filter {
        pred: CompiledPredicate,
        schema: Arc<Schema>,
    },
    Project {
        progs: Vec<CompiledExpr>,
        out_schema: Arc<Schema>,
    },
}

/// One worker's fused pipeline: privately compiled programs plus
/// reusable scratch, applied morsel-at-a-time. Shared with the
/// sim-side parallel tasks (`ops::par_pipe`), which fuse the same
/// stages into cooperative workers.
pub(crate) struct WorkerPipeline {
    stages: Vec<CompiledStage>,
    scratch: ExprScratch,
    sel: Vec<u32>,
    row_bytes: Vec<u8>,
}

impl WorkerPipeline {
    pub(crate) fn new(in_schema: &Arc<Schema>, stages: &[StageSpec]) -> Result<Self, ExecError> {
        let mut cur = in_schema.clone();
        let mut compiled = Vec::with_capacity(stages.len());
        for stage in stages {
            match stage {
                StageSpec::Filter(p) => compiled.push(CompiledStage::Filter {
                    pred: CompiledPredicate::compile(p, &cur)?,
                    schema: cur.clone(),
                }),
                StageSpec::Project { exprs, out_schema } => {
                    let progs = exprs
                        .iter()
                        .map(|e| CompiledExpr::compile(e, &cur))
                        .collect::<Result<Vec<_>, _>>()?;
                    compiled.push(CompiledStage::Project {
                        progs,
                        out_schema: out_schema.clone(),
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
        })
    }

    /// Runs one morsel's pages through every stage, repacking densely
    /// per stage (the builder persists across the morsel's pages, so
    /// output page boundaries depend only on the morsel's row stream).
    pub(crate) fn run_pages(&mut self, pages: Vec<Arc<Page>>) -> Vec<Arc<Page>> {
        let mut rows = Vec::new();
        self.run_pages_counted(pages, &mut rows)
    }

    /// As [`Self::run_pages`], recording into `stage_rows` the number
    /// of rows entering each stage — the per-stage input sizes the
    /// sim's fused workers charge their virtual costs on.
    pub(crate) fn run_pages_counted(
        &mut self,
        mut pages: Vec<Arc<Page>>,
        stage_rows: &mut Vec<usize>,
    ) -> Vec<Arc<Page>> {
        stage_rows.clear();
        for stage in &self.stages {
            stage_rows.push(pages.iter().map(|p| p.rows()).sum());
            pages = match stage {
                CompiledStage::Filter { pred, schema } => {
                    filter_pages(pred, schema, &mut self.scratch, &mut self.sel, &pages)
                }
                CompiledStage::Project { progs, out_schema } => project_pages(
                    progs,
                    out_schema,
                    &mut self.scratch,
                    &mut self.row_bytes,
                    &pages,
                ),
            };
        }
        pages
    }
}

fn filter_pages(
    pred: &CompiledPredicate,
    schema: &Arc<Schema>,
    scratch: &mut ExprScratch,
    sel: &mut Vec<u32>,
    pages: &[Arc<Page>],
) -> Vec<Arc<Page>> {
    let mut out = Vec::new();
    let mut builder = PageBuilder::new(schema.clone());
    for page in pages {
        pred.select(page, scratch, sel);
        let mut taken = 0;
        while taken < sel.len() {
            if builder.is_full() {
                out.push(builder.finish_and_reset());
            }
            taken += page.copy_rows_into(&sel[taken..], &mut builder);
        }
    }
    if !builder.is_empty() {
        out.push(builder.finish_and_reset());
    }
    out
}

fn project_pages(
    progs: &[CompiledExpr],
    out_schema: &Arc<Schema>,
    scratch: &mut ExprScratch,
    row_bytes: &mut Vec<u8>,
    pages: &[Arc<Page>],
) -> Vec<Arc<Page>> {
    let mut out = Vec::new();
    let mut builder = PageBuilder::new(out_schema.clone());
    let w = out_schema.row_width();
    for page in pages {
        let n = page.rows();
        if row_bytes.len() != n * w {
            row_bytes.resize(n * w, 0);
        }
        for (i, ce) in progs.iter().enumerate() {
            ce.encode_column(
                page,
                scratch,
                out_schema.fields()[i].dtype,
                row_bytes,
                out_schema.offset(i),
                w,
            );
        }
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
    out
}

/// Runs `f(worker_index)` on `workers` scoped threads (or inline for a
/// single worker) and returns the results in worker-index order — the
/// fixed merge order every deterministic sink relies on.
fn run_workers<T, F>(workers: usize, f: F) -> Result<Vec<T>, ExecError>
where
    T: Send,
    F: Fn(usize) -> Result<T, ExecError> + Sync,
{
    if workers <= 1 {
        return Ok(vec![f(0)?]);
    }
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = (0..workers).map(|w| scope.spawn(move || f(w))).collect();
        handles
            .into_iter()
            // lint: allow(a worker panic must propagate; join is the propagation point)
            .map(|h| h.join().expect("parallel worker panicked"))
            .collect()
    })
}

/// Runs a fused {filter | project}* pipeline over `pages` with
/// `cfg.workers` morsel workers. The returned page stream carries the
/// same rows in the same order as the sequential pipeline for any
/// worker count; only page boundaries may differ.
pub fn par_pipeline(
    pages: &[Arc<Page>],
    in_schema: &Arc<Schema>,
    stages: &[StageSpec],
    cfg: &ParallelConfig,
) -> Result<Vec<Arc<Page>>, ExecError> {
    let dispenser = MorselDispenser::new(pages.len(), cfg.morsel_pages);
    let outs = run_workers(cfg.effective_workers(), |_| {
        let mut pipe = WorkerPipeline::new(in_schema, stages)?;
        let mut out: Vec<(usize, Vec<Arc<Page>>)> = Vec::new();
        while let Some((idx, m)) = dispenser.claim() {
            out.push((idx, pipe.run_pages(pages[m.start..m.end].to_vec())));
        }
        Ok(out)
    })?;
    let mut chunks: Vec<_> = outs.into_iter().flatten().collect();
    chunks.sort_by_key(|&(i, _)| i);
    Ok(chunks.into_iter().flat_map(|(_, p)| p).collect())
}

/// Parallel hash aggregation: each worker folds its morsels (after the
/// fused pipeline) into a private [`AggCore`]; cores merge in
/// worker-index order and emit sorted by group key, so the result is
/// row-identical to the serial aggregate for any worker count.
pub fn par_aggregate(
    pages: &[Arc<Page>],
    in_schema: &Arc<Schema>,
    stages: &[StageSpec],
    group_by: &[usize],
    aggs: &[Agg],
    out_schema: &Arc<Schema>,
    cfg: &ParallelConfig,
) -> Result<Vec<Arc<Page>>, ExecError> {
    let agg_in = stages_out_schema(in_schema, stages);
    let dispenser = MorselDispenser::new(pages.len(), cfg.morsel_pages);
    let mut cores = run_workers(cfg.effective_workers(), |_| {
        let mut pipe = WorkerPipeline::new(in_schema, stages)?;
        let mut core = AggCore::new(
            &agg_in,
            group_by.to_vec(),
            aggs.to_vec(),
            out_schema.clone(),
        )?;
        while let Some((_, m)) = dispenser.claim() {
            for page in pipe.run_pages(pages[m.start..m.end].to_vec()) {
                core.consume_page(&page);
            }
        }
        Ok(core)
    })?;
    let mut merged = cores.remove(0);
    for core in cores {
        merged.merge(core);
    }
    let ordered = merged.drain_emit_order();
    let mut out = Vec::new();
    let mut builder = PageBuilder::new(out_schema.clone());
    let mut scratch = Vec::new();
    for (key, accs) in &ordered {
        merged.encode_row(key, accs, &mut scratch);
        if builder.is_full() {
            out.push(builder.finish_and_reset());
        }
        assert!(builder.push_raw(&scratch));
    }
    if !builder.is_empty() {
        out.push(builder.finish_and_reset());
    }
    Ok(out)
}

/// Parallel partitioned hash-join build: each worker routes its
/// morsels' rows (after the fused pipeline) into a private set of
/// [`partition_of`]-keyed tables; the sets are absorbed into one
/// [`BuildTable`] partition-major, worker-minor. Arena bytes are
/// charged to `broker` from all workers concurrently; the caller owns
/// releasing the returned grant once the probe is done.
pub fn par_build(
    pages: &[Arc<Page>],
    in_schema: &Arc<Schema>,
    stages: &[StageSpec],
    key_col: usize,
    cfg: &ParallelConfig,
    broker: &MemoryBroker,
) -> Result<(BuildTable, usize), ExecError> {
    let build_out = stages_out_schema(in_schema, stages);
    int_key("parallel hash join build", &build_out, key_col)?;
    let workers = cfg.effective_workers();
    let parts = workers;
    let row_width = build_out.row_width();
    let dispenser = MorselDispenser::new(pages.len(), cfg.morsel_pages);
    let results = run_workers(workers, |_| {
        let mut pipe = WorkerPipeline::new(in_schema, stages)?;
        let mut tables: Vec<BuildTable> = (0..parts).map(|_| BuildTable::new(row_width)).collect();
        let mut keys: Vec<i64> = Vec::new();
        let mut granted = 0usize;
        while let Some((_, m)) = dispenser.claim() {
            for page in pipe.run_pages(pages[m.start..m.end].to_vec()) {
                // Account the arena growth before buffering it. The
                // thread kernels have no spill path, so a refused grant
                // falls back to a forced one — the peak still records
                // the overshoot honestly.
                let bytes = page.byte_len();
                if !broker.try_grant(bytes) {
                    broker.grant(bytes);
                }
                granted += bytes;
                if parts == 1 {
                    tables[0].insert_page(&page, key_col);
                } else {
                    page.gather_i64(key_col, &mut keys);
                    for (raw, &key) in page.raw_rows().zip(&keys) {
                        tables[partition_of(key, 0, parts)].insert_row(key, raw);
                    }
                }
            }
        }
        Ok((tables, granted))
    })?;
    let mut table = BuildTable::new(row_width);
    let mut granted_total = 0usize;
    let mut per_worker: Vec<Vec<BuildTable>> = Vec::with_capacity(workers);
    for (tables, granted) in results {
        granted_total += granted;
        per_worker.push(tables);
    }
    for p in 0..parts {
        for worker_tables in &mut per_worker {
            table.absorb(std::mem::replace(
                &mut worker_tables[p],
                BuildTable::new(row_width),
            ));
        }
    }
    Ok((table, granted_total))
}

/// Parallel probe of a shared immutable [`BuildTable`]: workers claim
/// probe-side morsels, run the fused pipeline, and join each row with
/// the serial operator's per-kind semantics. Per-morsel outputs are
/// reassembled in morsel order; match order within a key reflects the
/// build table's chain order.
#[allow(clippy::too_many_arguments)]
pub fn par_probe(
    table: &BuildTable,
    pages: &[Arc<Page>],
    in_schema: &Arc<Schema>,
    stages: &[StageSpec],
    probe_key: usize,
    kind: JoinKind,
    build_schema: &Arc<Schema>,
    out_schema: &Arc<Schema>,
    cfg: &ParallelConfig,
) -> Result<Vec<Arc<Page>>, ExecError> {
    let probe_out = stages_out_schema(in_schema, stages);
    int_key("parallel hash join probe", &probe_out, probe_key)?;
    let build_defaults = default_row_bytes(build_schema);
    let dispenser = MorselDispenser::new(pages.len(), cfg.morsel_pages);
    let outs = run_workers(cfg.effective_workers(), |_| {
        let mut pipe = WorkerPipeline::new(in_schema, stages)?;
        let mut keys: Vec<i64> = Vec::new();
        let mut out: Vec<(usize, Vec<Arc<Page>>)> = Vec::new();
        while let Some((idx, m)) = dispenser.claim() {
            let mut builder = PageBuilder::new(out_schema.clone());
            let mut emitted = Vec::new();
            for page in pipe.run_pages(pages[m.start..m.end].to_vec()) {
                page.gather_i64(probe_key, &mut keys);
                for (probe_raw, &key) in page.raw_rows().zip(&keys) {
                    probe_one(
                        kind,
                        table,
                        key,
                        probe_raw,
                        &build_defaults,
                        &mut builder,
                        &mut emitted,
                    );
                }
            }
            if !builder.is_empty() {
                emitted.push(builder.finish_and_reset());
            }
            out.push((idx, emitted));
        }
        Ok(out)
    })?;
    let mut chunks: Vec<_> = outs.into_iter().flatten().collect();
    chunks.sort_by_key(|&(i, _)| i);
    Ok(chunks.into_iter().flat_map(|(_, p)| p).collect())
}

/// Joins one probe row, mirroring the serial operator's semantics.
fn probe_one(
    kind: JoinKind,
    table: &BuildTable,
    key: i64,
    probe_raw: &[u8],
    build_defaults: &[u8],
    builder: &mut PageBuilder,
    out: &mut Vec<Arc<Page>>,
) {
    fn emit(
        builder: &mut PageBuilder,
        out: &mut Vec<Arc<Page>>,
        probe_raw: &[u8],
        build_raw: &[u8],
    ) {
        if builder.is_full() {
            out.push(builder.finish_and_reset());
        }
        assert!(builder.push_raw_parts(probe_raw, build_raw));
    }
    match kind {
        JoinKind::Inner => {
            for build_raw in table.matches(key) {
                emit(builder, out, probe_raw, build_raw);
            }
        }
        JoinKind::Semi => {
            if table.contains(key) {
                emit(builder, out, probe_raw, &[]);
            }
        }
        JoinKind::Anti => {
            if !table.contains(key) {
                emit(builder, out, probe_raw, &[]);
            }
        }
        JoinKind::LeftOuter => {
            let mut m = table.matches(key).peekable();
            if m.peek().is_none() {
                emit(builder, out, probe_raw, build_defaults);
            } else {
                for build_raw in m {
                    emit(builder, out, probe_raw, build_raw);
                }
            }
        }
    }
}

/// Executes `plan` with morsel-driven parallel kernels wherever the
/// plan shape allows (scan/filter/project chains, aggregation, hash
/// joins); sorts, nested-loop joins and merge joins run as the engine's
/// serial operator tasks ([`wiring::run_serial`]) over
/// parallel-materialized children. With the default single-worker
/// config every kernel runs inline on the calling thread.
pub fn execute_plan(
    catalog: &Catalog,
    plan: &PhysicalPlan,
    cfg: &ParallelConfig,
) -> Result<Vec<Vec<Value>>, ExecError> {
    execute_plan_with_broker(catalog, plan, cfg, &MemoryBroker::unbounded())
}

/// As [`execute_plan`], charging hash-join build memory and the serial
/// sort/join operators to `broker` (released before returning).
pub fn execute_plan_with_broker(
    catalog: &Catalog,
    plan: &PhysicalPlan,
    cfg: &ParallelConfig,
    broker: &MemoryBroker,
) -> Result<Vec<Vec<Value>>, ExecError> {
    let mut scratch = catalog.clone();
    let table = materialize(&mut scratch, plan, cfg, broker, &mut 0)?;
    Ok(table.scan_values().collect())
}

/// The pipeline-able fragment rooted at `plan`: the scanned table name
/// plus the stage chain above it, or `None` when the root is not a
/// {filter | project}* chain over a scan.
fn pipeline_of(
    catalog: &Catalog,
    plan: &PhysicalPlan,
) -> Result<Option<(String, Vec<StageSpec>)>, ExecError> {
    match plan {
        PhysicalPlan::Scan { table, .. } => Ok(Some((table.clone(), Vec::new()))),
        PhysicalPlan::Filter {
            input, predicate, ..
        } => Ok(pipeline_of(catalog, input)?.map(|(t, mut stages)| {
            stages.push(StageSpec::Filter(predicate.clone()));
            (t, stages)
        })),
        PhysicalPlan::Project { input, exprs, .. } => match pipeline_of(catalog, input)? {
            Some((t, mut stages)) => {
                let out_schema = plan.try_output_schema(catalog)?;
                stages.push(StageSpec::Project {
                    exprs: exprs.iter().map(|(_, e)| e.clone()).collect(),
                    out_schema,
                });
                Ok(Some((t, stages)))
            }
            None => Ok(None),
        },
        _ => Ok(None),
    }
}

/// A lowered pipeline input: the pages to feed, their schema, and the
/// stage chain to run over them.
type LoweredChain = (Vec<Arc<Page>>, Arc<Schema>, Vec<StageSpec>);

/// Lowers `plan` into (input pages, input schema, stage chain): a
/// pipeline-able chain scans its table directly; anything else is
/// materialized first and fed through an empty chain.
fn lower_chain(
    catalog: &mut Catalog,
    plan: &PhysicalPlan,
    cfg: &ParallelConfig,
    broker: &MemoryBroker,
    tmp: &mut usize,
) -> Result<LoweredChain, ExecError> {
    if let Some((table_name, stages)) = pipeline_of(catalog, plan)? {
        let table = catalog
            .get(&table_name)
            .cloned()
            .ok_or_else(|| ExecError::plan(format!("no table '{table_name}' in catalog")))?;
        Ok((table.pages().to_vec(), table.schema().clone(), stages))
    } else {
        let table = materialize(catalog, plan, cfg, broker, tmp)?;
        Ok((table.pages().to_vec(), table.schema().clone(), Vec::new()))
    }
}

/// Registers `table`'s pages under a fresh temporary name and returns
/// a scan of it, so a serially executed plan node can read a
/// parallel-materialized child.
fn tmp_scan(catalog: &mut Catalog, tmp: &mut usize, table: Arc<Table>) -> Box<PhysicalPlan> {
    let name = format!("__par_tmp_{tmp}");
    *tmp += 1;
    catalog.register(Table::from_pages(
        name.clone(),
        table.schema().clone(),
        table.pages().to_vec(),
    ));
    Box::new(PhysicalPlan::Scan {
        table: name,
        cost: OpCost::default(),
    })
}

/// Runs one plan node over its materialized (temporary-table) children
/// as the serial operator graph, charging `broker`.
fn run_node(
    catalog: &Catalog,
    node: &PhysicalPlan,
    broker: &MemoryBroker,
) -> Result<Arc<Table>, ExecError> {
    let pages = wiring::run_serial(catalog, node, &QueryResources::charging(broker))?;
    Ok(Table::from_pages(
        "__par_serial",
        node.try_output_schema(catalog)?,
        pages,
    ))
}

fn materialize(
    catalog: &mut Catalog,
    plan: &PhysicalPlan,
    cfg: &ParallelConfig,
    broker: &MemoryBroker,
    tmp: &mut usize,
) -> Result<Arc<Table>, ExecError> {
    match plan {
        PhysicalPlan::Source { .. } => Err(ExecError::plan(
            "parallel executor cannot run plans with Source leaves".to_string(),
        )),
        PhysicalPlan::Scan { .. } | PhysicalPlan::Filter { .. } | PhysicalPlan::Project { .. } => {
            let (pages, in_schema, stages) = lower_chain(catalog, plan, cfg, broker, tmp)?;
            let out_schema = stages_out_schema(&in_schema, &stages);
            let out = par_pipeline(&pages, &in_schema, &stages, cfg)?;
            Ok(Table::from_pages("__par_pipeline", out_schema, out))
        }
        PhysicalPlan::Aggregate {
            input,
            group_by,
            aggs,
            ..
        } => {
            let out_schema = plan.try_output_schema(catalog)?;
            let (pages, in_schema, stages) = lower_chain(catalog, input, cfg, broker, tmp)?;
            let agg_fns: Vec<Agg> = aggs.iter().map(|(_, a)| a.clone()).collect();
            let out = par_aggregate(
                &pages,
                &in_schema,
                &stages,
                group_by,
                &agg_fns,
                &out_schema,
                cfg,
            )?;
            Ok(Table::from_pages("__par_aggregate", out_schema, out))
        }
        PhysicalPlan::HashJoin {
            build,
            probe,
            build_key,
            probe_key,
            kind,
            ..
        } => {
            let out_schema = plan.try_output_schema(catalog)?;
            let (bpages, bschema, bstages) = lower_chain(catalog, build, cfg, broker, tmp)?;
            let (ppages, pschema, pstages) = lower_chain(catalog, probe, cfg, broker, tmp)?;
            let build_out = stages_out_schema(&bschema, &bstages);
            let (table, granted) = par_build(&bpages, &bschema, &bstages, *build_key, cfg, broker)?;
            let result = par_probe(
                &table,
                &ppages,
                &pschema,
                &pstages,
                *probe_key,
                *kind,
                &build_out,
                &out_schema,
                cfg,
            );
            broker.release(granted);
            Ok(Table::from_pages("__par_hash_join", out_schema, result?))
        }
        // Sorts and the order-sensitive joins are not morsel-parallel:
        // their (parallel-materialized) children become scans of
        // temporary tables and the node itself runs as the engine's own
        // operator task — spilling and broker-charged like any other.
        PhysicalPlan::Sort { input, keys, cost } => {
            let input = materialize(catalog, input, cfg, broker, tmp)?;
            let node = PhysicalPlan::Sort {
                input: tmp_scan(catalog, tmp, input),
                keys: keys.clone(),
                cost: *cost,
            };
            run_node(catalog, &node, broker)
        }
        PhysicalPlan::NestedLoopJoin {
            outer,
            inner,
            predicate,
            cost,
        } => {
            let outer = materialize(catalog, outer, cfg, broker, tmp)?;
            let inner = materialize(catalog, inner, cfg, broker, tmp)?;
            let node = PhysicalPlan::NestedLoopJoin {
                outer: tmp_scan(catalog, tmp, outer),
                inner: tmp_scan(catalog, tmp, inner),
                predicate: predicate.clone(),
                cost: *cost,
            };
            run_node(catalog, &node, broker)
        }
        PhysicalPlan::MergeJoin {
            left,
            right,
            left_key,
            right_key,
            cost,
        } => {
            let left = materialize(catalog, left, cfg, broker, tmp)?;
            let right = materialize(catalog, right, cfg, broker, tmp)?;
            let node = PhysicalPlan::MergeJoin {
                left: tmp_scan(catalog, tmp, left),
                right: tmp_scan(catalog, tmp, right),
                left_key: *left_key,
                right_key: *right_key,
                cost: *cost,
            };
            run_node(catalog, &node, broker)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;
    use crate::reference::{self, canonicalize};
    use cordoba_storage::{DataType, Field, TableBuilder};

    fn catalog() -> Catalog {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Float),
        ]);
        // Small pages so even this fixture spans many morsels.
        let mut b = TableBuilder::with_page_size("t", schema, 256);
        for i in 0..3000i64 {
            b.push_row(&[Value::Int(i % 97), Value::Float((i % 13) as f64)]);
        }
        let mut c = Catalog::new();
        c.register(b.finish());
        c
    }

    fn scan() -> Box<PhysicalPlan> {
        Box::new(PhysicalPlan::Scan {
            table: "t".into(),
            cost: OpCost::default(),
        })
    }

    fn filtered() -> Box<PhysicalPlan> {
        Box::new(PhysicalPlan::Filter {
            input: scan(),
            predicate: Predicate::col_cmp(0, CmpOp::Lt, 60i64),
            cost: OpCost::default(),
        })
    }

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
    fn pipeline_rows_match_reference_for_all_worker_counts() {
        let cat = catalog();
        let plan = PhysicalPlan::Project {
            input: filtered(),
            exprs: vec![
                ("k".into(), ScalarExpr::col(0)),
                (
                    "scaled".into(),
                    ScalarExpr::Mul(
                        Box::new(ScalarExpr::col(1)),
                        Box::new(ScalarExpr::FloatLit(2.0)),
                    ),
                ),
            ],
            cost: OpCost::default(),
        };
        let want = reference::execute(&cat, &plan);
        for workers in [1, 2, 4, 8] {
            let got =
                execute_plan(&cat, &plan, &ParallelConfig::with_workers(workers)).expect("runs");
            assert_eq!(got, want, "workers={workers}: row-for-row");
        }
    }

    #[test]
    fn aggregate_matches_reference_for_all_worker_counts() {
        let cat = catalog();
        let plan = PhysicalPlan::Aggregate {
            input: filtered(),
            group_by: vec![0],
            aggs: vec![
                ("n".into(), Agg::Count),
                ("s".into(), Agg::Sum(ScalarExpr::col(1))),
            ],
            cost: OpCost::default(),
        };
        let want = reference::execute(&cat, &plan);
        for workers in [1, 2, 4, 8] {
            let got =
                execute_plan(&cat, &plan, &ParallelConfig::with_workers(workers)).expect("runs");
            assert_eq!(got, want, "workers={workers}: sorted groups");
        }
    }

    #[test]
    fn hash_join_multiset_matches_reference_for_all_kinds() {
        let cat = catalog();
        for kind in [
            JoinKind::Inner,
            JoinKind::Semi,
            JoinKind::Anti,
            JoinKind::LeftOuter,
        ] {
            let plan = PhysicalPlan::HashJoin {
                build: filtered(),
                probe: scan(),
                build_key: 0,
                probe_key: 0,
                kind,
                build_cost: OpCost::default(),
                probe_cost: OpCost::default(),
            };
            let want = canonicalize(reference::execute(&cat, &plan));
            for workers in [1, 2, 4] {
                let got = execute_plan(&cat, &plan, &ParallelConfig::with_workers(workers))
                    .expect("runs");
                assert_eq!(canonicalize(got), want, "{kind:?} workers={workers}");
            }
        }
    }

    #[test]
    fn join_build_charges_and_releases_the_broker() {
        let cat = catalog();
        let plan = PhysicalPlan::HashJoin {
            build: scan(),
            probe: scan(),
            build_key: 0,
            probe_key: 0,
            kind: JoinKind::Semi,
            build_cost: OpCost::default(),
            probe_cost: OpCost::default(),
        };
        let broker = MemoryBroker::unbounded();
        let got = execute_plan_with_broker(&cat, &plan, &ParallelConfig::with_workers(4), &broker)
            .expect("runs");
        assert_eq!(got.len(), 3000);
        assert!(broker.peak() > 0, "build memory was tracked");
        assert_eq!(broker.used(), 0, "build memory fully released");
    }

    #[test]
    fn sort_over_parallel_input_matches_reference() {
        let cat = catalog();
        let plan = PhysicalPlan::Sort {
            input: filtered(),
            keys: vec![0, 1],
            cost: OpCost::default(),
        };
        let want = reference::execute(&cat, &plan);
        let got = execute_plan(&cat, &plan, &ParallelConfig::with_workers(4)).expect("runs");
        assert_eq!(got, want);
    }

    #[test]
    fn source_leaves_err_instead_of_panicking() {
        let cat = catalog();
        let schema = cat.expect("t").schema().clone();
        let plan = PhysicalPlan::Source {
            schema: crate::plan::SchemaRef(schema),
        };
        let err = execute_plan(&cat, &plan, &ParallelConfig::default());
        assert!(matches!(err, Err(ExecError::PlanType(_))), "got {err:?}");
    }

    #[test]
    fn config_normalizes_workers() {
        assert_eq!(ParallelConfig::default().workers, 1);
        assert_eq!(ParallelConfig::with_workers(0).effective_workers(), 1);
        assert_eq!(ParallelConfig::with_workers(8).effective_workers(), 8);
    }
}
