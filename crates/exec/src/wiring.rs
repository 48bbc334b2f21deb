//! Spawns a physical plan into a simulator: one task per operator — an
//! [`OperatorShell`] around the operator's kernel, the relay of a bare
//! `Source` root included — with bounded channels between them
//! (unshared wiring — the engine crate layers packet merging and shared
//! pivots on top of these pieces).
//!
//! Instantiation is **two-phase and fallible**: every operator task is
//! constructed first (compiling expressions, validating key columns),
//! and only when the whole plan type-checks is anything spawned. A
//! malformed plan therefore returns a typed [`ExecError`] with zero
//! tasks running — never a half-wired query or a worker panic. Runtime
//! input-contract violations (an unsorted merge input) are reported
//! through the per-query [`FaultCell`] threaded to the tasks here.
//!
//! `group` is the single definition of what gets parallelised: with
//! more than one worker configured, each such fragment becomes a morsel
//! group — worker shells and a merge shell, linked by one of the
//! channel layer's links, as the sharing seam's pivot and members are.
//! [`instantiate_into`] puts the whole group into the caller's
//! simulator; [`run_local`] — the one local driver, how real threads run
//! a plan — keeps the serial operators and each group's merge in one run
//! loop on the calling thread and builds every worker's shell on an OS
//! thread of its own, driven as any producer feeding another thread is
//! ([`run_feeding`]).
//!
//! A plan's ends are the channel layer's ports ([`Inlet`], [`Outlet`]):
//! `Source` leaves read inlets and the root delivers to outlets, each
//! either a simulator channel or a link to another thread. A plan on
//! one thread therefore feeds or reads a plan on another through the
//! same operators, with no task in between ([`run_local_between`]).
//!
//! # Live columns
//!
//! `Wiring::wire` hands each node the set of its output columns its
//! consumer reads and gets back the columns the node's pages actually
//! carry (its layout). Each node remaps its own column references — filter
//! predicates, project expressions, aggregate keys and arguments, sort
//! and join keys — through its child's layout (`Layout::remap`, over
//! the one column visitor of each expression type). Only sorts and hash
//! joins carry less than all of their output: what is read of them,
//! plus their keys. A plan root (and so a shared pivot's root, whose
//! consumers are `Source` feeds and the fragment cache), a `Source`
//! leaf, a merge join and a nested-loop join carry every column, and a
//! filter carries what its input does. Every count that divides by a
//! row width divides by the unnarrowed one, so pages hold the same
//! rows, steps are the same and virtual time does not depend on what is
//! carried. Plans, their fingerprints and the reference executor never
//! see a layout.

use crate::cost::OpCost;
use crate::error::{ExecError, FaultCell};
use crate::expr::{Agg, Columns, ScalarExpr};
use crate::memory::{MemoryConfig, QueryResources};
use crate::ops::aggregate::{AggCore, Deposit};
use crate::ops::port::{Handoff, LinkRx, LinkTx};
use crate::ops::shell::{PageWork, Port, PortClosed};
use crate::ops::{
    AggregateKernel, Carry, Fanout, FilterKernel, HashJoinKernel, Inlet, Kernel, MergeJoinKernel,
    NljKernel, OperatorShell, Outlet, Pages, ProjectKernel, ScanKernel, SinkKernel, SortKernel,
};
use crate::parallel::{Fold, MorselDispenser, MorselKernel, ParallelConfig};
use crate::plan::{JoinKind, PhysicalPlan};
use cordoba_sim::channel::{self, Receiver};
use cordoba_sim::{RunOutcome, Simulator, Spawner, StopReason, Task, TaskId};
use cordoba_storage::{Catalog, Page, Schema, Value};
use std::cell::RefCell;
use std::collections::{BTreeSet, VecDeque};
use std::rc::Rc;
use std::sync::{mpsc, Arc};
use std::thread;

/// Wiring parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WiringConfig {
    /// Channel capacity in pages between adjacent operators. Finite so
    /// slow consumers throttle producers, as the model assumes.
    pub queue_capacity: usize,
    /// Per-query memory policy (budget, spill directory), what each
    /// query's [`QueryResources`] are made from. The default is
    /// unbounded — no spilling.
    pub memory: MemoryConfig,
    /// Intra-query parallelism. With the default single worker the
    /// wiring is exactly the classic one-task-per-operator layout;
    /// with more, {filter | project}* chains over scans (and
    /// aggregates directly above them) become morsel groups, which
    /// preserve the serial row order.
    pub parallel: ParallelConfig,
}

impl Default for WiringConfig {
    /// 16-page queues, unbounded memory and one worker: one task per
    /// operator. Real-thread executors start from this and set
    /// `parallel` explicitly.
    fn default() -> Self {
        Self {
            queue_capacity: 16,
            memory: MemoryConfig::default(),
            parallel: ParallelConfig::default(),
        }
    }
}

/// Tasks spawned for one plan, labeled `"{label}/{preorder}:{op}"`.
/// Ids are `None` when spawned mid-run through a
/// [`TaskCtx`](cordoba_sim::TaskCtx).
type SpawnedOps = Vec<(Option<TaskId>, String)>;

/// Instantiates `plan`, delivering root output to every outlet in
/// `outs` (the root's `cost.out_per_tuple` is charged per consumer).
/// [`PhysicalPlan::Source`] leaves consume inlets from `sources` in
/// plan preorder. Every operator runs in `resources`: runtime faults
/// land in its `fault`, and buffering operators charge its `broker` and
/// spill to its `dir`.
///
/// Construction is all-or-nothing: on `Err`, no task has been spawned.
#[allow(clippy::too_many_arguments)]
pub fn instantiate_into(
    sim: &mut dyn Spawner,
    catalog: &Catalog,
    plan: &PhysicalPlan,
    outs: Vec<Outlet>,
    sources: &mut VecDeque<Inlet>,
    label: &str,
    cfg: &WiringConfig,
    resources: &QueryResources,
) -> Result<SpawnedOps, ExecError> {
    let wiring = Wiring::new(catalog, cfg, resources, label, sources, false);
    let (built, _) = wiring.build(plan, outs)?;
    Ok(built
        .into_iter()
        .map(|(name, task)| (sim.spawn_task(name.clone(), task), name))
        .collect())
}

/// Operator tasks built for one plan, named, in spawn order.
type Built = Vec<(String, Box<dyn Task>)>;

/// Morsel-group workers bound for OS threads, each with its end of its
/// group's link (see [`run_local`]).
type ThreadWorkers = Vec<(Box<dyn Kernel + Send>, mpsc::SyncSender<Handoff>)>;

/// One plan being wired: what every node is built from, and the tasks
/// built so far, in spawn order, named `"{label}/{preorder}:{op}"`.
struct Wiring<'a> {
    catalog: &'a Catalog,
    cfg: &'a WiringConfig,
    /// The query's context, every operator's.
    res: &'a QueryResources,
    label: &'a str,
    /// Inlets for the plan's `Source` leaves, in preorder.
    sources: &'a mut VecDeque<Inlet>,
    /// The preorder index of the next plan node.
    preorder: usize,
    built: Built,
    /// `Some` when morsel groups are linked by OS channels: their
    /// workers land here instead of among the built tasks.
    threads: Option<ThreadWorkers>,
}

/// Instantiates `plan` and returns the root output receiver, the
/// spawned operator tasks, and the query's resources — check
/// `resources.fault` after the run (a set fault means the query failed
/// mid-flight) and `resources.broker` for its memory footprint.
pub fn instantiate(
    sim: &mut Simulator,
    catalog: &Catalog,
    plan: &PhysicalPlan,
    label: &str,
    cfg: &WiringConfig,
) -> Result<(Receiver<Arc<Page>>, SpawnedOps, QueryResources), ExecError> {
    let (tx, rx) = channel::bounded(cfg.queue_capacity);
    let resources = QueryResources::for_config(&cfg.memory);
    let mut sources = VecDeque::new();
    let spawned = instantiate_into(
        sim,
        catalog,
        plan,
        vec![tx.into()],
        &mut sources,
        label,
        cfg,
        &resources,
    )?;
    Ok((rx, spawned, resources))
}

/// Pages passed through unchanged, at no cost, the task ending in the
/// step that sees its input end: a [`PhysicalPlan::Source`] as the plan
/// root, and the merge of a pipe group (its port releases the workers'
/// morsels in order).
struct Relay(Arc<Schema>);

impl Kernel for Relay {
    fn name(&self) -> &'static str {
        "relay"
    }

    fn ports(&self) -> Vec<Port> {
        vec![("", Some(self.0.clone()))]
    }

    fn on_page(
        &mut self,
        _: usize,
        page: &Arc<Page>,
        out: &mut Pages,
    ) -> Result<PageWork, ExecError> {
        out.push(page.clone());
        Ok(PageWork {
            cost: 0,
            progress: page.rows(),
        })
    }

    fn on_close(&mut self, _: usize, _: &mut Pages) -> Result<PortClosed, ExecError> {
        Ok(PortClosed {
            last: true,
            ..PortClosed::default()
        })
    }
}

/// A {filter | project}* chain over a scan — what a morsel group's
/// workers run.
struct Chain<'p> {
    /// The scanned table's name.
    table: &'p str,
    /// The scanned table's pages, shared by all workers.
    pages: Arc<[Arc<Page>]>,
    /// Scan cost, charged per input page.
    scan_cost: OpCost,
    /// The nodes above the scan, bottom-up, each with the columns it
    /// reads (all of its input's) and the schema it produces (one `Arc`
    /// each, shared by every worker).
    stages: Vec<(&'p PhysicalPlan, Layout, Arc<Schema>)>,
    /// The schema the chain produces.
    schema: Arc<Schema>,
    /// The chain root's per-consumer output cost (`s`).
    out_per_tuple: f64,
}

/// The chain rooted at `plan`, when it is one; `None` for any other
/// plan shape (including `Source` leaves, which stay on the serial
/// wiring).
fn chain<'p>(catalog: &Catalog, plan: &'p PhysicalPlan) -> Result<Option<Chain<'p>>, ExecError> {
    let (input, cost) = match plan {
        PhysicalPlan::Scan { table, cost } => {
            let t = catalog
                .get(table)
                .ok_or_else(|| ExecError::plan(format!("no table '{table}' in catalog")))?;
            return Ok(Some(Chain {
                table,
                pages: t.pages().into(),
                scan_cost: *cost,
                stages: Vec::new(),
                schema: t.schema().clone(),
                out_per_tuple: cost.out_per_tuple,
            }));
        }
        PhysicalPlan::Filter { input, cost, .. } | PhysicalPlan::Project { input, cost, .. } => {
            (input, cost)
        }
        _ => return Ok(None),
    };
    let Some(mut chain) = chain(catalog, input)? else {
        return Ok(None);
    };
    let output = match plan {
        PhysicalPlan::Project { .. } => plan.try_output_schema(catalog)?,
        _ => chain.schema.clone(),
    };
    let input = std::mem::replace(&mut chain.schema, output.clone());
    chain.stages.push((plan, Layout::full(&input), output));
    chain.out_per_tuple = cost.out_per_tuple;
    Ok(Some(chain))
}

impl Chain<'_> {
    /// Plan nodes the chain covers (scan + stages).
    fn nodes(&self) -> usize {
        1 + self.stages.len()
    }

    /// The group's workers, sharing one dispenser, each with private
    /// copies of the chain's kernels; worker `w` folds into `fold(w)`,
    /// if any.
    fn workers(
        &self,
        par: &ParallelConfig,
        fold: impl Fn(usize) -> Result<Option<Fold>, ExecError>,
    ) -> Result<Vec<Box<dyn Kernel + Send>>, ExecError> {
        let dispenser = Arc::new(MorselDispenser::new(self.pages.len(), par.morsel_pages));
        (0..par.effective_workers())
            .map(|w| {
                let stages = self.stages.iter();
                let stages = stages.map(|(node, input, output)| row_kernel(node, input, output));
                let (pages, scan) = (self.pages.clone(), self.scan_cost);
                let stages = stages.collect::<Result<_, ExecError>>()?;
                let kernel = MorselKernel::new(pages, dispenser.clone(), scan, stages, fold(w)?);
                Ok(Box::new(kernel) as Box<dyn Kernel + Send>)
            })
            .collect()
    }
}

/// A morsel group's kernels, before they are placed.
struct Group {
    /// One per configured worker.
    workers: Vec<Box<dyn Kernel + Send>>,
    merge: Box<dyn Kernel>,
    /// The merge's per-consumer output cost (`s`).
    out_per_tuple: f64,
    /// What the workers are called: `par_pipe` or `par_agg`.
    kind: &'static str,
    /// The merge task's name. It carries the scanned table's, so each
    /// group counts as exactly one scan instance in task stats, like a
    /// serial scan task does.
    merge_name: String,
    /// Plan nodes the group covers.
    nodes: usize,
}

/// The morsel group rooted at `plan`: a pipe group for a chain, a
/// folding one for an aggregate directly above a chain, `None` for any
/// other plan.
fn group(
    catalog: &Catalog,
    plan: &PhysicalPlan,
    par: &ParallelConfig,
) -> Result<Option<Group>, ExecError> {
    let PhysicalPlan::Aggregate {
        input,
        group_by,
        aggs,
        cost,
    } = plan
    else {
        let Some(chain) = chain(catalog, plan)? else {
            return Ok(None);
        };
        return Ok(Some(Group {
            workers: chain.workers(par, |_| Ok(None))?,
            merge: Box::new(Relay(chain.schema.clone())),
            out_per_tuple: chain.out_per_tuple,
            kind: "par_pipe",
            merge_name: format!("par_merge(scan({}))", chain.table),
            nodes: chain.nodes(),
        }));
    };
    let Some(chain) = chain(catalog, input)? else {
        return Ok(None);
    };
    let out_schema = plan.try_output_schema(catalog)?;
    let aggs: Vec<Agg> = aggs.iter().map(|(_, a)| a.clone()).collect();
    let deposit = Deposit::new(par.effective_workers());
    let workers = chain.workers(par, |worker| {
        let (by, aggs, out) = (group_by.clone(), aggs.clone(), out_schema.clone());
        Ok(Some(Fold {
            core: AggCore::new(&chain.schema, by, aggs, out)?,
            cost: *cost,
            worker,
            deposit: deposit.clone(),
        }))
    })?;
    let (input, by) = (chain.schema.clone(), group_by.clone());
    let merge = AggregateKernel::new(input, by, aggs, out_schema, *cost)?.merging(deposit);
    Ok(Some(Group {
        workers,
        merge: Box::new(merge),
        out_per_tuple: cost.out_per_tuple,
        kind: "par_agg",
        merge_name: format!("par_agg_merge(scan({}))", chain.table),
        nodes: 1 + chain.nodes(),
    }))
}

/// The task that runs `kernel`: an [`OperatorShell`] reading `inputs`
/// (in the kernel's port order) and delivering to `outs` at
/// `out_per_tuple` per consumer, up to `morsel_pages` pages a step, its
/// failure the query's `fault`.
fn shell(
    kernel: Box<dyn Kernel>,
    inputs: Vec<Inlet>,
    outs: Vec<Outlet>,
    out_per_tuple: f64,
    morsel_pages: usize,
    fault: &FaultCell,
) -> Box<dyn Task> {
    let fanout = Fanout::new(outs, out_per_tuple);
    let shell = OperatorShell::new(kernel, inputs, fanout, fault.clone());
    Box::new(shell.morsel_pages(morsel_pages))
}

/// Output columns a consumer reads, ascending; `None` is every one.
type Live = Option<BTreeSet<usize>>;

/// A wired node: its kernel, its inputs in the kernel's port order, its
/// per-consumer output cost and what its pages carry.
type Node = (Box<dyn Kernel>, Vec<Inlet>, f64, Layout);

/// What a node's pages carry: `cols[j]`, ascending, is the node's
/// output column at position `j` of its rows, whose schema is
/// `schema`. Every node carries what its consumer reads; only sorts and
/// hash joins carry less than all of their output.
struct Layout {
    /// The node's output schema, the plan's.
    logical: Arc<Schema>,
    /// `None`: every column, in order.
    cols: Option<Vec<usize>>,
    schema: Arc<Schema>,
}

impl Layout {
    /// Every column of `schema`.
    fn full(schema: &Arc<Schema>) -> Self {
        Layout {
            logical: schema.clone(),
            cols: None,
            schema: schema.clone(),
        }
    }

    /// The columns `cols` (ascending) of the output schema `logical`.
    fn of(logical: &Arc<Schema>, cols: Vec<usize>) -> Self {
        if cols.len() == logical.len() {
            return Layout::full(logical);
        }
        let fields = cols.iter().map(|&c| logical.fields()[c].clone());
        Layout {
            schema: Schema::new(fields.collect()),
            logical: logical.clone(),
            cols: Some(cols),
        }
    }

    /// The unnarrowed row width: every count that divides by a row
    /// width divides by this one.
    fn width(&self) -> usize {
        self.logical.row_width()
    }

    /// Where output column `col` sits in the rows. A column the pages
    /// do not carry is one the output does not have.
    fn at(&self, col: usize) -> Result<usize, ExecError> {
        let at = match &self.cols {
            None if col < self.logical.len() => Some(col),
            None => None,
            Some(cols) => cols.binary_search(&col).ok(),
        };
        at.ok_or_else(|| crate::plan::column_range_error("column", col, &self.logical))
    }

    /// What a narrowing node over these pages keeps of their rows: the
    /// output columns `cols`.
    fn carry(&self, cols: &Live) -> Result<Carry, ExecError> {
        let Some(cols) = cols else {
            return Ok(Carry::all(&self.schema));
        };
        let at = cols.iter().map(|&col| self.at(col));
        Carry::new(&self.schema, at.collect::<Result<_, _>>()?)
    }

    /// `x` with each column it reads replaced by where that column sits
    /// in the rows: what a node runs over its child's pages.
    fn remap<T: Columns>(&self, x: &T) -> Result<T, ExecError> {
        let mut x = x.clone();
        if self.cols.is_some() {
            let mut failed = None;
            x.visit_cols(&mut |col| match self.at(*col) {
                Ok(at) => *col = at,
                Err(e) => failed = Some(e),
            });
            failed.map_or(Ok(()), Err)?;
        }
        Ok(x)
    }
}

/// `live` with the columns `x` reads added.
fn reading<T: Columns>(live: &Live, x: &T) -> Live {
    let mut live = live.clone()?;
    x.clone().visit_cols(&mut |col| {
        live.insert(*col);
    });
    Some(live)
}

/// The columns `x` reads.
fn reads<T: Columns>(x: &T) -> Live {
    reading(&Some(BTreeSet::new()), x)
}

/// What a narrowing node carries of `width` output columns: what its
/// consumer reads plus `keys`, `None` when that is every column (or
/// none: a row must carry something).
fn carried(live: &Live, keys: &[usize], width: usize) -> Live {
    let cols = reading(live, &keys.to_vec())?;
    (!cols.is_empty() && cols.len() < width).then_some(cols)
}

/// `cols` in order, or every one of `width` columns.
fn every(cols: Live, width: usize) -> Vec<usize> {
    cols.map_or_else(|| (0..width).collect(), |cols| cols.into_iter().collect())
}

impl<'a> Wiring<'a> {
    /// Wiring for one plan labelled `label`, its `Source` leaves fed
    /// from `sources`; with `threaded`, morsel groups are linked by OS
    /// channels and their workers kept for OS threads.
    fn new(
        catalog: &'a Catalog,
        cfg: &'a WiringConfig,
        res: &'a QueryResources,
        label: &'a str,
        sources: &'a mut VecDeque<Inlet>,
        threaded: bool,
    ) -> Self {
        Wiring {
            catalog,
            cfg,
            res,
            label,
            sources,
            preorder: 0,
            built: Built::new(),
            threads: threaded.then(ThreadWorkers::new),
        }
    }

    /// Constructs every task of `plan`, delivering to `outs`, without
    /// spawning any; returns them with the workers bound for threads.
    fn build(
        mut self,
        plan: &PhysicalPlan,
        outs: Vec<Outlet>,
    ) -> Result<(Built, ThreadWorkers), ExecError> {
        // The root's consumers — a collector, a shared pivot's `Source`
        // feeds, the fragment cache — read every column.
        self.wire(plan, &None, outs)?;
        Ok((self.built, self.threads.unwrap_or_default()))
    }

    /// The inlet of the next `Source` leaf in preorder.
    fn source(&mut self) -> Result<Inlet, ExecError> {
        let rx = self.sources.pop_front();
        rx.ok_or_else(|| ExecError::plan("a receiver per Source leaf, in preorder"))
    }

    /// Wires the morsel group rooted at `plan`, if more than one worker
    /// is configured and it is one, delivering to `outs` (which are
    /// given back otherwise). Its workers are named `{base}:{kind}[w]`,
    /// its merge `{base}:{merge_name}`. The group is the same on both
    /// substrates; this only decides where the worker shells run: in the
    /// caller's simulator, linked to the merge by a simulator channel,
    /// or — with `threads` — each on an OS thread of its own, linked by
    /// an OS one.
    fn try_parallel(
        &mut self,
        plan: &PhysicalPlan,
        outs: Vec<Outlet>,
    ) -> Result<Option<Vec<Outlet>>, ExecError> {
        let (par, fault) = (&self.cfg.parallel, &self.res.fault);
        let group = match par.effective_workers() > 1 {
            true => group(self.catalog, plan, par)?,
            false => None,
        };
        let Some(group) = group else {
            return Ok(Some(outs));
        };
        let base = format!("{}/{}", self.label, self.preorder);
        self.preorder += group.nodes;
        let (k, morsel) = (group.workers.len(), par.morsel_pages);
        let inlet = match &mut self.threads {
            None => {
                let (tx, rx) = channel::bounded(self.cfg.queue_capacity);
                let links = std::iter::repeat_n(tx, k);
                for (w, (kernel, tx)) in group.workers.into_iter().zip(links).enumerate() {
                    let outlet = Outlet::group(LinkTx::Sim(tx), fault);
                    let worker = shell(kernel, vec![], vec![outlet], 0.0, morsel, fault);
                    let name = format!("{base}:{}[{w}]", group.kind);
                    self.built.push((name, worker));
                }
                Inlet::group(LinkRx::Sim(rx), k, fault)
            }
            Some(threads) => {
                let (tx, rx) = mpsc::sync_channel(self.cfg.queue_capacity);
                threads.extend(group.workers.into_iter().zip(std::iter::repeat_n(tx, k)));
                Inlet::group(LinkRx::Os(rx), k, fault)
            }
        };
        let (merge, per_tuple) = (group.merge, group.out_per_tuple);
        let merge = shell(merge, vec![inlet], outs, per_tuple, morsel, fault);
        let name = format!("{base}:{}", group.merge_name);
        self.built.push((name, merge));
        Ok(None)
    }

    /// The inlet a node reads `child` through, the child's pages
    /// carrying at least its output columns in `live`, and what they
    /// carry. A node wires its children before it builds its own task,
    /// so `Source` inlets are taken in preorder.
    fn input(&mut self, child: &PhysicalPlan, live: &Live) -> Result<(Inlet, Layout), ExecError> {
        if let PhysicalPlan::Source { schema } = child {
            self.preorder += 1;
            return Ok((self.source()?, Layout::full(&schema.0)));
        }
        let (tx, rx) = channel::bounded(self.cfg.queue_capacity);
        let layout = self.wire(child, live, vec![tx.into()])?;
        Ok((rx.into(), layout))
    }

    /// Wires `plan` delivering to `outs`, its pages carrying at least the
    /// output columns in `live`, and returns what they carry.
    fn wire(
        &mut self,
        plan: &PhysicalPlan,
        live: &Live,
        outs: Vec<Outlet>,
    ) -> Result<Layout, ExecError> {
        let catalog = self.catalog;
        let Some(outs) = self.try_parallel(plan, outs)? else {
            return Ok(Layout::full(&plan.try_output_schema(catalog)?));
        };
        let name = format!("{}/{}:{}", self.label, self.preorder, plan.op_name());
        self.preorder += 1;
        let (kernel, inputs, out_per_tuple, layout): Node = match plan {
            PhysicalPlan::Scan { table, cost } => {
                let table = catalog
                    .get(table)
                    .ok_or_else(|| ExecError::plan(format!("no table '{table}' in catalog")))?;
                let kernel = ScanKernel::new(table.pages().to_vec(), *cost);
                let layout = Layout::full(table.schema());
                (Box::new(kernel), vec![], cost.out_per_tuple, layout)
            }
            PhysicalPlan::Source { schema } => {
                // Source as root: relay external pages to the consumers.
                let layout = Layout::full(&schema.0);
                (
                    Box::new(Relay(schema.0.clone())),
                    vec![self.source()?],
                    0.0,
                    layout,
                )
            }
            PhysicalPlan::Filter {
                input,
                predicate,
                cost,
            } => {
                let live = reading(live, predicate);
                let (rx, layout) = self.input(input, &live)?;
                let kernel = row_kernel(plan, &layout, &layout.schema)?;
                (kernel, vec![rx], cost.out_per_tuple, layout)
            }
            PhysicalPlan::Project { input, exprs, cost } => {
                let exprs: Vec<ScalarExpr> = exprs.iter().map(|(_, e)| e.clone()).collect();
                let out_schema = plan.try_output_schema(catalog)?;
                let (rx, child) = self.input(input, &reads(&exprs))?;
                let kernel = row_kernel(plan, &child, &out_schema)?;
                let layout = Layout::full(&out_schema);
                (kernel, vec![rx], cost.out_per_tuple, layout)
            }
            PhysicalPlan::Aggregate {
                input,
                group_by,
                aggs,
                cost,
            } => {
                let out_schema = plan.try_output_schema(catalog)?;
                let aggs: Vec<Agg> = aggs.iter().map(|(_, a)| a.clone()).collect();
                let live = reading(&reads(group_by), &aggs);
                let (rx, child) = self.input(input, &live)?;
                let (by, aggs) = (child.remap(group_by)?, child.remap(&aggs)?);
                let layout = Layout::full(&out_schema);
                let kernel = AggregateKernel::new(child.schema, by, aggs, out_schema, *cost)?;
                (Box::new(kernel), vec![rx], cost.out_per_tuple, layout)
            }
            PhysicalPlan::Sort { input, keys, cost } => {
                let logical = plan.try_output_schema(catalog)?;
                let carried = carried(live, keys, logical.len());
                let (rx, child) = self.input(input, &carried)?;
                let carry = child.carry(&carried)?;
                let layout = Layout::of(&logical, every(carried, logical.len()));
                // Over a full layout, keys out of range fail the kernel's check.
                let keys = layout.remap(keys)?;
                let width = layout.width();
                let kernel = SortKernel::carrying(carry, keys, *cost, self.res.clone(), width)?;
                (Box::new(kernel), vec![rx], cost.out_per_tuple, layout)
            }
            PhysicalPlan::HashJoin {
                build,
                probe,
                build_key,
                probe_key,
                kind,
                build_cost,
                probe_cost,
            } => {
                let logical = plan.try_output_schema(catalog)?;
                let probe_width = probe.try_output_schema(catalog)?.len();
                let build_width = build.try_output_schema(catalog)?.len();
                // What the consumer reads of each side: the output is the
                // probe's columns, then for an inner or left outer join
                // the build's.
                let (probe_live, build_live) = match live {
                    None => (None, None),
                    Some(live) => {
                        let (probe, build): (BTreeSet<usize>, _) =
                            live.iter().partition(|&&c| c < probe_width);
                        let build = build.into_iter().map(|c| c - probe_width).collect();
                        (Some(probe), Some(build))
                    }
                };
                // A join that reads no build column keeps keys alone.
                let keys_only = match kind {
                    JoinKind::Semi | JoinKind::Anti => true,
                    JoinKind::Inner | JoinKind::LeftOuter => {
                        build_live.as_ref().is_some_and(BTreeSet::is_empty)
                    }
                };
                let build_carried = match keys_only {
                    true => Some(BTreeSet::from([*build_key])),
                    false => carried(&build_live, &[*build_key], build_width),
                };
                let probe_carried = carried(&probe_live, &[*probe_key], probe_width);
                let (rx_build, build_in) = self.input(build, &build_carried)?;
                let (rx_probe, probe_in) = self.input(probe, &probe_carried)?;
                let sides = [
                    (build_in.carry(&build_carried)?, build_in.at(*build_key)?),
                    (probe_in.carry(&probe_carried)?, probe_in.at(*probe_key)?),
                ];
                let mut cols = every(probe_carried, probe_width);
                if !keys_only {
                    let build_cols = every(build_carried, build_width).into_iter();
                    cols.extend(build_cols.map(|c| c + probe_width));
                }
                let layout = Layout::of(&logical, cols);
                let kernel = HashJoinKernel::carrying(
                    *kind,
                    sides,
                    keys_only,
                    layout.schema.clone(),
                    layout.width(),
                    (*build_cost, *probe_cost),
                    self.res.clone(),
                )?;
                let inputs = vec![rx_build, rx_probe];
                (Box::new(kernel), inputs, probe_cost.out_per_tuple, layout)
            }
            PhysicalPlan::NestedLoopJoin {
                outer,
                inner,
                predicate,
                cost,
            } => {
                let pair_schema = plan.try_output_schema(catalog)?;
                let (rx_outer, outer) = self.input(outer, &None)?;
                let (rx_inner, inner) = self.input(inner, &None)?;
                let predicate = predicate.clone();
                let layout = Layout::full(&pair_schema);
                let kernel =
                    NljKernel::new(outer.schema, inner.schema, predicate, pair_schema, *cost)?;
                let inputs = vec![rx_inner, rx_outer];
                (Box::new(kernel), inputs, cost.out_per_tuple, layout)
            }
            PhysicalPlan::MergeJoin {
                left,
                right,
                left_key,
                right_key,
                cost,
            } => {
                let out_schema = plan.try_output_schema(catalog)?;
                let (rx_left, left) = self.input(left, &None)?;
                let (rx_right, right) = self.input(right, &None)?;
                let layout = Layout::full(&out_schema);
                let kernel = MergeJoinKernel::new(
                    left.schema,
                    right.schema,
                    *left_key,
                    *right_key,
                    out_schema,
                    *cost,
                )?;
                let inputs = vec![rx_left, rx_right];
                (Box::new(kernel), inputs, cost.out_per_tuple, layout)
            }
        };
        let (morsel, fault) = (self.cfg.parallel.morsel_pages, &self.res.fault);
        let task = shell(kernel, inputs, outs, out_per_tuple, morsel, fault);
        self.built.push((name, task));
        Ok(layout)
    }
}

/// The kernel of a filter or project `node`, reading `input` pages and
/// producing `output` ones: the serial wiring's task, or one stage of a
/// morsel worker.
fn row_kernel(
    node: &PhysicalPlan,
    input: &Layout,
    output: &Arc<Schema>,
) -> Result<Box<dyn Kernel + Send>, ExecError> {
    let schema = input.schema.clone();
    match node {
        PhysicalPlan::Filter {
            predicate, cost, ..
        } => {
            let filter = FilterKernel::new(schema, input.remap(predicate)?, *cost)?;
            Ok(Box::new(filter.paged_as(input.width())))
        }
        PhysicalPlan::Project { exprs, cost, .. } => {
            let exprs: Vec<ScalarExpr> = exprs.iter().map(|(_, e)| e.clone()).collect();
            let exprs = input.remap(&exprs)?;
            Ok(Box::new(ProjectKernel::new(
                schema,
                output.clone(),
                exprs,
                *cost,
            )?))
        }
        other => Err(ExecError::plan(format!(
            "{} is no row stage",
            other.op_name()
        ))),
    }
}

/// Runs `sim` to idle with a collecting sink on `rx` and returns the
/// result pages. The query's fault (e.g. an unsorted merge input) comes
/// back as `Err`, and so does a graph that wedged
/// ([`ExecError::Stalled`]).
fn run_and_collect_pages(
    sim: &mut Simulator,
    rx: Receiver<Arc<Page>>,
    sink_cost: OpCost,
    fault: &FaultCell,
) -> Result<Vec<Arc<Page>>, ExecError> {
    let buf = spawn_collector(sim, rx, sink_cost, fault);
    let outcome = sim.run_to_idle();
    failure_of(&outcome, fault)?;
    Ok(buf.take())
}

/// Spawns a sink that collects the pages on `rx` into the returned
/// buffer.
fn spawn_collector(
    sim: &mut Simulator,
    rx: Receiver<Arc<Page>>,
    sink_cost: OpCost,
    fault: &FaultCell,
) -> Rc<RefCell<Vec<Arc<Page>>>> {
    let buf = Rc::new(RefCell::new(Vec::new()));
    let sink = Box::new(SinkKernel::new(sink_cost).collecting(buf.clone()));
    let collector = OperatorShell::new(sink, vec![rx.into()], Fanout::none(), fault.clone());
    sim.spawn("collector", Box::new(collector));
    buf
}

/// How a finished run failed, if it did: the query's fault, else the
/// typed stall of a run that stopped with tasks still live — a wedged
/// graph or a time cap fails the queries in flight, never the process.
fn failure_of(outcome: &RunOutcome, fault: &FaultCell) -> Result<(), ExecError> {
    if let Some(err) = fault.take() {
        return Err(err);
    }
    let reason = match outcome.reason {
        StopReason::TimeLimit => "time cap",
        StopReason::Deadlock => "deadlock",
        // `Idle` means every task finished; nothing can be stalled.
        StopReason::Idle => return Ok(()),
    };
    Err(ExecError::Stalled {
        reason,
        live_tasks: outcome.live_tasks,
    })
}

/// As `run_and_collect_pages`, decoded to rows — convenience for
/// tests and harnesses.
pub fn run_and_collect(
    sim: &mut Simulator,
    rx: Receiver<Arc<Page>>,
    sink_cost: OpCost,
    fault: &FaultCell,
) -> Result<Vec<Vec<Value>>, ExecError> {
    Ok(page_rows(&run_and_collect_pages(
        sim, rx, sink_cost, fault,
    )?))
}

/// Decodes result pages to rows, in page order.
pub fn page_rows(pages: &[Arc<Page>]) -> Vec<Vec<Value>> {
    pages
        .iter()
        .flat_map(|p| p.tuples().map(|t| t.to_values()))
        .collect()
}

/// Runs `plan` to completion on real threads — the one local driver,
/// the same `ops/*` kernels as any simulated run — in `resources`, the
/// query's context: its broker's budget bounds the query and its
/// operators spill to its `dir`. `cfg.memory` is read only by whoever
/// made `resources` ([`QueryResources::for_config`]).
///
/// The plan is wired once: serial operators and each morsel group's
/// merge run in a private single-context run loop on the calling
/// thread, and every group worker's shell is built on a scoped OS
/// thread of its own, in a run loop of its own, feeding its group's
/// merge over a bounded OS link ([`run_feeding`]). With one worker
/// configured there are no groups and no threads.
pub fn run_local(
    catalog: &Catalog,
    plan: &PhysicalPlan,
    cfg: &WiringConfig,
    resources: &QueryResources,
) -> Result<Vec<Arc<Page>>, ExecError> {
    run_local_between(catalog, plan, Vec::new(), Vec::new(), cfg, resources)
}

/// [`run_local`] between ports of the caller's — typically links to
/// plans on other threads ([`Inlet::os`], [`Outlet::os`]): `sources`
/// feed the plan's `Source` leaves in preorder, and the root delivers
/// to `outs` or, when there are none, into the pages returned. Either
/// way the run has ended, and dropped every port, when this returns.
/// The plan runs in `resources`, as in [`run_local`].
#[expect(
    clippy::disallowed_methods,
    reason = "the local run: each group worker's shell on a scoped thread of its own"
)]
pub fn run_local_between(
    catalog: &Catalog,
    plan: &PhysicalPlan,
    sources: Vec<Inlet>,
    outs: Vec<Outlet>,
    cfg: &WiringConfig,
    resources: &QueryResources,
) -> Result<Vec<Arc<Page>>, ExecError> {
    let mut sim = Simulator::new(1);
    let mut collect = None;
    let outs = if outs.is_empty() {
        let (tx, rx) = channel::bounded(cfg.queue_capacity);
        collect = Some(rx);
        vec![tx.into()]
    } else {
        outs
    };
    let mut sources = sources.into();
    let wiring = Wiring::new(catalog, cfg, resources, "q", &mut sources, true);
    let (built, workers) = wiring.build(plan, outs)?;
    for (name, task) in built {
        sim.spawn(name, task);
    }
    let collected = collect.map(|rx| {
        let fault = &resources.fault;
        spawn_collector(&mut sim, rx, OpCost::default(), fault)
    });
    // The scope joins every worker before returning and re-raises a
    // worker's panic.
    thread::scope(|scope| {
        for (kernel, link) in workers {
            scope.spawn(move || run_worker(kernel, link, cfg.parallel.morsel_pages));
        }
        let outcome = sim.run_to_idle();
        // A run that stopped with merges still live (a stall) must hang
        // up on their workers, or the scope's join would wait on a full
        // link forever.
        drop(sim);
        failure_of(&outcome, &resources.fault)?;
        Ok(collected.map(|buf| buf.take()).unwrap_or_default())
    })
}

/// Runs a producer on this thread whose consumers are on other threads,
/// each reading one of `links`. `run` is the producer's whole run: when
/// it returns, its outlets over `links` are gone, with whatever they
/// were gathering. A producer that failed then sends its error down
/// every link, after everything it handed off, so no consumer mistakes
/// a truncated stream for end-of-stream. (A consumer that already hung
/// up has an error of its own.)
pub fn run_feeding<R>(
    links: &[mpsc::SyncSender<Handoff>],
    run: impl FnOnce() -> Result<R, ExecError>,
) {
    if let Err(err) = run() {
        for tx in links {
            let _ = tx.send(Err(err.clone()));
        }
    }
}

/// Runs one morsel worker on this thread: its shell is built here, with
/// a fault cell of its own, and runs to its end in a run loop of its own,
/// up to `morsel_pages` pages a step, feeding its group's `link`.
fn run_worker(
    kernel: Box<dyn Kernel + Send>,
    link: mpsc::SyncSender<Handoff>,
    morsel_pages: usize,
) {
    run_feeding(std::slice::from_ref(&link), || {
        let fault = FaultCell::default();
        let outlet = Outlet::group(LinkTx::Os(link.clone()), &fault);
        let mut sim = Simulator::new(1);
        let worker = shell(kernel, vec![], vec![outlet], 0.0, morsel_pages, &fault);
        sim.spawn("worker", worker);
        failure_of(&sim.run_to_idle(), &fault)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{CmpOp, Predicate, ScalarExpr};
    use cordoba_sim::StepStatus;
    use cordoba_storage::{DataType, Field, Schema, TableBuilder, Value};

    fn catalog() -> Catalog {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Float),
        ]);
        let mut b = TableBuilder::new("t", schema);
        for i in 0..100 {
            b.push_row(&[Value::Int(i), Value::Float(i as f64)]);
        }
        let mut c = Catalog::new();
        c.register(b.finish());
        c
    }

    #[test]
    fn scan_filter_agg_pipeline_end_to_end() {
        let cat = catalog();
        let plan = PhysicalPlan::Aggregate {
            input: Box::new(PhysicalPlan::Filter {
                input: Box::new(PhysicalPlan::Scan {
                    table: "t".into(),
                    cost: OpCost::default(),
                }),
                predicate: Predicate::col_cmp(0, CmpOp::Lt, 10i64),
                cost: OpCost::default(),
            }),
            group_by: vec![],
            aggs: vec![
                ("n".into(), Agg::Count),
                ("sum".into(), Agg::Sum(ScalarExpr::col(1))),
            ],
            cost: OpCost::default(),
        };
        let cfg = WiringConfig::default();
        let mut sim = Simulator::new(2);
        let (rx, spawned, res) = instantiate(&mut sim, &cat, &plan, "q0", &cfg).expect("wires");
        assert_eq!(spawned.len(), 3);
        assert!(spawned.iter().any(|(_, n)| n == "q0/0:aggregate"));
        assert!(spawned.iter().any(|(_, n)| n == "q0/1:filter"));
        assert!(spawned.iter().any(|(_, n)| n == "q0/2:scan(t)"));
        let rows = run_and_collect(&mut sim, rx, OpCost::default(), &res.fault).expect("no fault");
        assert_eq!(rows, vec![vec![Value::Int(10), Value::Float(45.0)]]);
    }

    /// A catalog whose table spans many pages, so parallel wiring
    /// actually splits work across morsels.
    fn paged_catalog() -> Catalog {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Float),
        ]);
        let mut b = TableBuilder::with_page_size("t", schema, 256);
        for i in 0..3000i64 {
            b.push_row(&[Value::Int(i % 97), Value::Float((i % 13) as f64)]);
        }
        let mut c = Catalog::new();
        c.register(b.finish());
        c
    }

    fn run_plan(cat: &Catalog, plan: &PhysicalPlan, workers: usize) -> Vec<Vec<Value>> {
        let cfg = WiringConfig {
            parallel: crate::parallel::ParallelConfig::with_workers(workers),
            ..WiringConfig::default()
        };
        let mut sim = Simulator::new(workers.max(2));
        let (rx, _spawned, res) = instantiate(&mut sim, cat, plan, "q", &cfg).expect("plan wires");
        run_and_collect(&mut sim, rx, OpCost::default(), &res.fault).expect("no fault")
    }

    #[test]
    fn parallel_chain_wiring_matches_serial_rows() {
        let cat = paged_catalog();
        let plan = PhysicalPlan::Project {
            input: Box::new(PhysicalPlan::Filter {
                input: Box::new(PhysicalPlan::Scan {
                    table: "t".into(),
                    cost: OpCost::default(),
                }),
                predicate: Predicate::col_cmp(0, CmpOp::Lt, 60i64),
                cost: OpCost::default(),
            }),
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
        let want = run_plan(&cat, &plan, 1);
        assert_eq!(want, crate::reference::execute(&cat, &plan));
        for workers in [2, 4, 8] {
            assert_eq!(run_plan(&cat, &plan, workers), want, "workers={workers}");
        }
    }

    #[test]
    fn parallel_aggregate_wiring_matches_serial_rows() {
        let cat = paged_catalog();
        let plan = PhysicalPlan::Aggregate {
            input: Box::new(PhysicalPlan::Filter {
                input: Box::new(PhysicalPlan::Scan {
                    table: "t".into(),
                    cost: OpCost::default(),
                }),
                predicate: Predicate::col_cmp(0, CmpOp::Lt, 60i64),
                cost: OpCost::default(),
            }),
            group_by: vec![0],
            aggs: vec![
                ("n".into(), Agg::Count),
                ("s".into(), Agg::Sum(ScalarExpr::col(1))),
            ],
            cost: OpCost::default(),
        };
        let want = run_plan(&cat, &plan, 1);
        assert_eq!(want, crate::reference::execute(&cat, &plan));
        for workers in [2, 4, 8] {
            assert_eq!(run_plan(&cat, &plan, workers), want, "workers={workers}");
        }
    }

    #[test]
    fn parallel_join_inputs_match_serial_rows() {
        // The hash join itself stays a single task; both of its chain
        // inputs become worker groups, and since the merge preserves
        // row order the join output is row-identical to serial.
        let cat = paged_catalog();
        let plan = PhysicalPlan::HashJoin {
            build: Box::new(PhysicalPlan::Filter {
                input: Box::new(PhysicalPlan::Scan {
                    table: "t".into(),
                    cost: OpCost::default(),
                }),
                predicate: Predicate::col_cmp(0, CmpOp::Lt, 10i64),
                cost: OpCost::default(),
            }),
            probe: Box::new(PhysicalPlan::Scan {
                table: "t".into(),
                cost: OpCost::default(),
            }),
            build_key: 0,
            probe_key: 0,
            kind: crate::plan::JoinKind::Semi,
            build_cost: OpCost::default(),
            probe_cost: OpCost::default(),
        };
        let want = run_plan(&cat, &plan, 1);
        for workers in [2, 4] {
            assert_eq!(run_plan(&cat, &plan, workers), want, "workers={workers}");
        }
    }

    #[test]
    fn parallel_wiring_spawns_worker_groups() {
        let cat = paged_catalog();
        let plan = PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::Scan {
                table: "t".into(),
                cost: OpCost::default(),
            }),
            predicate: Predicate::col_cmp(0, CmpOp::Lt, 60i64),
            cost: OpCost::default(),
        };
        let cfg = WiringConfig {
            parallel: crate::parallel::ParallelConfig::with_workers(4),
            ..WiringConfig::default()
        };
        let mut sim = Simulator::new(4);
        let (_rx, spawned, _res) =
            instantiate(&mut sim, &cat, &plan, "q0", &cfg).expect("plan wires");
        let names: Vec<&str> = spawned.iter().map(|(_, n)| n.as_str()).collect();
        assert_eq!(spawned.len(), 5, "{names:?}");
        for w in 0..4 {
            assert!(names.contains(&format!("q0/0:par_pipe[{w}]").as_str()));
        }
        assert!(names.contains(&"q0/0:par_merge(scan(t))"));
    }

    #[test]
    fn single_worker_config_keeps_classic_wiring() {
        let cat = paged_catalog();
        let plan = PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::Scan {
                table: "t".into(),
                cost: OpCost::default(),
            }),
            predicate: Predicate::col_cmp(0, CmpOp::Lt, 60i64),
            cost: OpCost::default(),
        };
        let cfg = WiringConfig::default();
        let mut sim = Simulator::new(1);
        let (_rx, spawned, _res) = instantiate(&mut sim, &cat, &plan, "q0", &cfg).expect("wires");
        let mut names: Vec<&str> = spawned.iter().map(|(_, n)| n.as_str()).collect();
        names.sort_unstable();
        assert_eq!(names, vec!["q0/0:filter", "q0/1:scan(t)"]);
    }

    #[test]
    fn malformed_plans_error_before_spawning() {
        let cat = catalog();
        let mut sim = Simulator::new(1);
        let cases = [
            // Unknown table.
            PhysicalPlan::Scan {
                table: "nope".into(),
                cost: OpCost::default(),
            },
            // Arithmetic over a float/str mismatch: col 1 is Float,
            // compared against a string literal.
            PhysicalPlan::Filter {
                input: Box::new(PhysicalPlan::Scan {
                    table: "t".into(),
                    cost: OpCost::default(),
                }),
                predicate: Predicate::col_cmp(1, CmpOp::Eq, "x"),
                cost: OpCost::default(),
            },
            // Projection referencing a column that does not exist.
            PhysicalPlan::Project {
                input: Box::new(PhysicalPlan::Scan {
                    table: "t".into(),
                    cost: OpCost::default(),
                }),
                exprs: vec![("e".into(), ScalarExpr::col(9))],
                cost: OpCost::default(),
            },
            // Sort key out of range.
            PhysicalPlan::Sort {
                input: Box::new(PhysicalPlan::Scan {
                    table: "t".into(),
                    cost: OpCost::default(),
                }),
                keys: vec![5],
                cost: OpCost::default(),
            },
            // Merge join keyed on a Float column.
            PhysicalPlan::MergeJoin {
                left: Box::new(PhysicalPlan::Scan {
                    table: "t".into(),
                    cost: OpCost::default(),
                }),
                right: Box::new(PhysicalPlan::Scan {
                    table: "t".into(),
                    cost: OpCost::default(),
                }),
                left_key: 1,
                right_key: 0,
                cost: OpCost::default(),
            },
            // Aggregate over a non-numeric (out-of-range) input.
            PhysicalPlan::Aggregate {
                input: Box::new(PhysicalPlan::Scan {
                    table: "t".into(),
                    cost: OpCost::default(),
                }),
                group_by: vec![7],
                aggs: vec![("n".into(), Agg::Count)],
                cost: OpCost::default(),
            },
        ];
        // Serial, and with scan chains wired as morsel groups.
        for cfg in [WiringConfig::default(), threaded(4)] {
            for plan in &cases {
                let err = instantiate(&mut sim, &cat, plan, "bad", &cfg)
                    .err()
                    .unwrap_or_else(|| panic!("plan must be rejected: {plan:?}"));
                assert!(matches!(err, ExecError::PlanType(_)), "{plan:?}: {err}");
            }
        }
        // Nothing was spawned by any failed instantiation.
        assert!(sim.run_to_idle().completed_all());
        assert_eq!(sim.all_task_stats().count(), 0);
    }

    #[test]
    fn source_substitution_grafts_external_pages() {
        // A fragment `agg(source)` fed by a manually wired scan.
        let cat = catalog();
        let schema = cat.expect("t").schema().clone();
        let fragment = PhysicalPlan::Aggregate {
            input: Box::new(PhysicalPlan::Source {
                schema: crate::plan::SchemaRef(schema),
            }),
            group_by: vec![],
            aggs: vec![("n".into(), Agg::Count)],
            cost: OpCost::default(),
        };
        let mut sim = Simulator::new(2);
        let (scan_tx, scan_rx) = channel::bounded(8);
        sim.spawn(
            "ext-scan",
            crate::ops::testutil::scan_task(
                cat.expect("t").pages().to_vec(),
                OpCost::default(),
                Fanout::new(vec![scan_tx.into()], 0.0),
            ),
        );
        let (out_tx, out_rx) = channel::bounded(8);
        let mut sources = VecDeque::from([scan_rx.into()]);
        let res = QueryResources::default();
        instantiate_into(
            &mut sim,
            &cat,
            &fragment,
            vec![out_tx.into()],
            &mut sources,
            "frag",
            &WiringConfig::default(),
            &res,
        )
        .expect("wires");
        let rows =
            run_and_collect(&mut sim, out_rx, OpCost::default(), &res.fault).expect("no fault");
        assert_eq!(rows, vec![vec![Value::Int(100)]]);
    }

    #[test]
    fn wedged_graph_is_a_typed_stall() {
        // A Source root whose upstream neither sends nor closes: the
        // relay and the collector block forever.
        let cat = catalog();
        let fragment = PhysicalPlan::Source {
            schema: crate::plan::SchemaRef(cat.expect("t").schema().clone()),
        };
        let mut sim = Simulator::new(1);
        let (_never_sends, upstream) = channel::bounded(4);
        let (out_tx, out_rx) = channel::bounded(4);
        let res = QueryResources::default();
        instantiate_into(
            &mut sim,
            &cat,
            &fragment,
            vec![out_tx.into()],
            &mut VecDeque::from([upstream.into()]),
            "wedged",
            &WiringConfig::default(),
            &res,
        )
        .expect("wires");
        let err = run_and_collect(&mut sim, out_rx, OpCost::default(), &res.fault).unwrap_err();
        assert_eq!(
            err,
            ExecError::Stalled {
                reason: "deadlock",
                live_tasks: 2
            }
        );
    }

    #[test]
    fn default_run_local_is_one_worker_and_returns_its_grants() {
        // The default config is the one-worker wiring: its rows, and a
        // broker that saw the sort's grants and got them all back.
        let cat = paged_catalog();
        let plan = PhysicalPlan::Sort {
            input: Box::new(PhysicalPlan::Scan {
                table: "t".into(),
                cost: OpCost::default(),
            }),
            keys: vec![0, 1],
            cost: OpCost::default(),
        };
        let res = QueryResources::default();
        let cfg = WiringConfig::default();
        assert_eq!(cfg.parallel.workers, 1);
        let pages = run_local(&cat, &plan, &cfg, &res).expect("runs");
        assert_eq!(page_rows(&pages), run_plan(&cat, &plan, 1));
        assert!(res.broker.peak() > 0, "the sort charged the broker");
        assert_eq!(res.broker.used(), 0);
    }

    fn low_keys(cutoff: i64) -> Box<PhysicalPlan> {
        Box::new(PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::Scan {
                table: "t".into(),
                cost: OpCost::default(),
            }),
            predicate: Predicate::col_cmp(0, CmpOp::Lt, cutoff),
            cost: OpCost::default(),
        })
    }

    fn threaded(workers: usize) -> WiringConfig {
        WiringConfig {
            parallel: crate::parallel::ParallelConfig {
                workers,
                morsel_pages: 1,
            },
            ..WiringConfig::default()
        }
    }

    #[test]
    fn thread_driver_is_row_identical_to_the_serial_wiring() {
        // Chains, aggregates, sorts and hash joins of every kind over
        // worker groups on real threads: the same rows in the same
        // order as one run loop on one thread.
        use crate::plan::JoinKind;
        let cat = paged_catalog();
        let mut plans = vec![
            *low_keys(60),
            PhysicalPlan::Aggregate {
                input: low_keys(60),
                group_by: vec![0],
                aggs: vec![
                    ("n".into(), Agg::Count),
                    ("s".into(), Agg::Sum(ScalarExpr::col(1))),
                ],
                cost: OpCost::default(),
            },
            PhysicalPlan::Sort {
                input: low_keys(60),
                keys: vec![0, 1],
                cost: OpCost::default(),
            },
        ];
        for kind in [
            JoinKind::Inner,
            JoinKind::Semi,
            JoinKind::Anti,
            JoinKind::LeftOuter,
        ] {
            plans.push(PhysicalPlan::HashJoin {
                build: low_keys(10),
                probe: low_keys(80),
                build_key: 0,
                probe_key: 0,
                kind,
                build_cost: OpCost::default(),
                probe_cost: OpCost::default(),
            });
        }
        for plan in &plans {
            let res = QueryResources::default();
            let want =
                page_rows(&run_local(&cat, plan, &WiringConfig::default(), &res).expect("runs"));
            assert_eq!(want, crate::reference::execute(&cat, plan));
            for workers in [2, 4, 8] {
                let got = run_local(&cat, plan, &threaded(workers), &res).expect("runs");
                assert_eq!(
                    page_rows(&got),
                    want,
                    "{} workers={workers}",
                    plan.op_name()
                );
            }
            assert_eq!(res.broker.used(), 0, "{}: grants leaked", plan.op_name());
        }
    }

    #[test]
    fn thread_driver_join_honours_its_budget() {
        // A six-page build side (the semi join carries its 3 000 8-byte
        // keys alone) under a budget: the join is the serial wiring's
        // `HashJoinKernel`, so it spills into the configured directory
        // instead of forcing grants, and cleans up after itself.
        use cordoba_storage::PAGE_SIZE;
        let cat = paged_catalog();
        let join = |input: fn() -> Box<PhysicalPlan>| PhysicalPlan::HashJoin {
            build: input(),
            probe: input(),
            build_key: 0,
            probe_key: 0,
            kind: crate::plan::JoinKind::Semi,
            build_cost: OpCost::default(),
            probe_cost: OpCost::default(),
        };
        let plan = join(|| low_keys(97));
        // Every row passes `k < 97`, so the workers' one-page morsels
        // hand the join the table's own 16-row pages in table order.
        // The serial wiring's filter would repack them sixteen to a
        // page, and inside a budget the peak follows the size of the
        // steps it is approached in; over the bare scans the serial
        // join sees the pages the workers deliver.
        let same_pages = join(|| {
            Box::new(PhysicalPlan::Scan {
                table: "t".into(),
                cost: OpCost::default(),
            })
        });
        // Spilled partitions come back partition by partition: the
        // multiset is the contract under a budget.
        let want = crate::reference::canonicalize(crate::reference::execute(&cat, &plan));
        let dir = std::env::temp_dir().join(format!("cordoba-wiring-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("spill dir");
        // At two pages the operator's fixed per-partition buffers
        // dominate (the serial wiring itself peaks at 2.5x); at six it
        // still spills and holds its 1.25x contract. From seven pages
        // up the build side fits and nothing spills.
        for budget in [2 * PAGE_SIZE, 6 * PAGE_SIZE] {
            let serial = QueryResources::with_budget(budget);
            run_local(&cat, &same_pages, &WiringConfig::default(), &serial).expect("serial join");
            let serial = serial.broker;
            for workers in [2, 4] {
                let at = format!("budget={budget} workers={workers}");
                let mut cfg = threaded(workers);
                cfg.memory.query_budget = Some(budget);
                cfg.memory.spill_dir = Some(dir.clone());
                let res = QueryResources::for_config(&cfg.memory);
                let got = run_local(&cat, &plan, &cfg, &res).expect("join runs under budget");
                let broker = res.broker;
                let got = crate::reference::canonicalize(page_rows(&got));
                assert_eq!(got, want, "{at}");
                assert!(
                    broker.peak() > budget / 2,
                    "{at}: the build charged the broker"
                );
                assert!(
                    broker.peak() <= serial.peak(),
                    "{at}: peak {} over the serial wiring's {}",
                    broker.peak(),
                    serial.peak()
                );
                if budget == 6 * PAGE_SIZE {
                    assert!(
                        broker.peak() * 4 <= budget * 5,
                        "{at}: peak {} over 1.25 x budget",
                        broker.peak()
                    );
                }
                assert!(broker.spilled() > 0, "{at}: the join spilled into `dir`");
                assert_eq!(broker.used(), 0, "{at}: grants leaked");
                let left = std::fs::read_dir(&dir).expect("spill dir").count();
                assert_eq!(left, 0, "{at}: spill files left behind");
            }
        }
        std::fs::remove_dir(&dir).expect("empty spill dir");
    }

    #[test]
    fn wired_sort_spills_to_the_configured_dir_on_both_drivers() {
        // A file stands where the spill directory should be: a sort
        // over budget fails creating its first run, on the simulator and
        // on threads alike, so the config's `spill_dir` is what the
        // operator spilled to.
        use cordoba_storage::PAGE_SIZE;
        let blocker =
            std::env::temp_dir().join(format!("cordoba-wiring-blocker-{}", std::process::id()));
        std::fs::write(&blocker, b"not a directory").expect("create blocker");
        let cat = paged_catalog();
        let plan = PhysicalPlan::Sort {
            input: Box::new(PhysicalPlan::Scan {
                table: "t".into(),
                cost: OpCost::default(),
            }),
            keys: vec![0, 1],
            cost: OpCost::default(),
        };
        let cfg = WiringConfig {
            memory: MemoryConfig {
                query_budget: Some(2 * PAGE_SIZE),
                spill_dir: Some(blocker.clone()),
            },
            ..WiringConfig::default()
        };
        let mut sim = Simulator::new(1);
        let (rx, _, res) = instantiate(&mut sim, &cat, &plan, "q", &cfg).expect("wires");
        let simulated = run_and_collect(&mut sim, rx, OpCost::default(), &res.fault);
        assert_eq!(res.broker.used(), 0, "simulator: grants leaked");
        let res = QueryResources::for_config(&cfg.memory);
        let threaded = run_local(&cat, &plan, &cfg, &res).map(|pages| page_rows(&pages));
        assert_eq!(res.broker.used(), 0, "threads: grants leaked");
        let _ = std::fs::remove_file(&blocker);
        for (on, got) in [("simulator", simulated), ("threads", threaded)] {
            let err = got.expect_err(on);
            assert!(
                matches!(err, ExecError::Spill { op: "sort", .. }),
                "{on}: {err:?}"
            );
        }
    }

    #[test]
    fn thread_driver_fault_joins_every_worker() {
        // `t`'s keys wrap after 97 rows, so a merge join over it faults
        // within the first few pages, while both input groups' workers
        // (188 one-page morsels each) are still producing.
        let cat = paged_catalog();
        let plan = PhysicalPlan::MergeJoin {
            left: low_keys(90),
            right: low_keys(80),
            left_key: 0,
            right_key: 0,
            cost: OpCost::default(),
        };
        let page = cat.expect("t").pages()[0].clone();
        let held = Arc::strong_count(&page);
        let res = QueryResources::default();
        let err = run_local(&cat, &plan, &threaded(4), &res).expect_err("unsorted input");
        assert!(
            matches!(err, ExecError::UnsortedMergeInput { .. }),
            "{err:?}"
        );
        assert_eq!(res.broker.used(), 0);
        // Returning at all means no worker deadlocked on its channel;
        // every worker shared the table's page list, so the count is
        // back only if all eight threads are gone.
        assert_eq!(Arc::strong_count(&page), held, "a worker outlived the run");
    }

    #[test]
    fn thread_driver_wires_all_or_nothing() {
        // A malformed plan (and a `Source` leaf nobody feeds) is a typed
        // error before any thread starts.
        let cat = paged_catalog();
        let res = QueryResources::default();
        let bad = PhysicalPlan::HashJoin {
            build: low_keys(10),
            probe: Box::new(PhysicalPlan::Source {
                schema: crate::plan::SchemaRef(cat.expect("t").schema().clone()),
            }),
            build_key: 0,
            probe_key: 0,
            kind: crate::plan::JoinKind::Inner,
            build_cost: OpCost::default(),
            probe_cost: OpCost::default(),
        };
        let err = run_local(&cat, &bad, &threaded(4), &res).expect_err("unfed source");
        assert!(matches!(err, ExecError::PlanType(_)), "{err:?}");
    }

    /// `t40`: `k = 0..640` in forty sixteen-row pages.
    fn forty_pages() -> Catalog {
        let schema = Schema::new(vec![Field::new("k", DataType::Int)]);
        let mut b = TableBuilder::with_page_size("t40", schema, 128);
        for i in 0..640 {
            b.push_row(&[Value::Int(i)]);
        }
        let mut c = Catalog::new();
        c.register(b.finish());
        c
    }

    /// `k >= from` over `t40`.
    fn from_key(from: i64) -> PhysicalPlan {
        PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::Scan {
                table: "t40".into(),
                cost: OpCost::default(),
            }),
            predicate: Predicate::col_cmp(0, CmpOp::Ge, from),
            cost: OpCost::default(),
        }
    }

    /// The morsel group `plan` becomes at `workers` workers and morsels
    /// of `morsel_pages` pages.
    fn group_of(cat: &Catalog, plan: &PhysicalPlan, workers: usize, morsel_pages: usize) -> Group {
        let par = ParallelConfig {
            workers,
            morsel_pages,
        };
        group(cat, plan, &par).expect("wires").expect("a group")
    }

    /// A worker's shell feeding its end of a group's OS link, up to
    /// `morsel_pages` pages a step.
    fn os_worker(
        kernel: Box<dyn Kernel + Send>,
        link: &mpsc::SyncSender<Handoff>,
        morsel_pages: usize,
    ) -> Box<dyn Task> {
        let fault = FaultCell::default();
        let outlet = Outlet::group(LinkTx::Os(link.clone()), &fault);
        shell(kernel, vec![], vec![outlet], 0.0, morsel_pages, &fault)
    }

    #[test]
    fn morsel_group_worker_hands_off_each_finished_morsel_whole() {
        // Forty pages in morsels of 3, all claimed by one worker, under
        // `k >= 48`: nothing crosses the link until a morsel ends, then
        // all of it does — morsel 0 with no row kept, 12 full morsels,
        // the one-page tail, and the end of the worker's stream.
        let mut group = group_of(&forty_pages(), &from_key(48), 1, 3);
        let (link, rx) = mpsc::sync_channel(64);
        let mut worker = os_worker(group.workers.remove(0), &link, 1);
        let mut detached = cordoba_sim::DetachedCtx::new();
        let ctx = &mut detached.ctx(0);
        for _ in 0..2 {
            assert_eq!(worker.step(ctx).status, StepStatus::Yield);
            assert!(rx.try_recv().is_err());
        }
        assert_eq!(worker.step(ctx).status, StepStatus::Yield);
        let first = rx.try_recv().expect("morsel 0 is over");
        assert!(matches!(first, Ok(Some((0, ref pages))) if pages.is_empty()));
        while worker.step(ctx).status != StepStatus::Done {}
        let rest: Vec<_> = rx.try_iter().map(|h| h.expect("no fault")).collect();
        let sizes: Vec<_> = rest.iter().flatten().map(|(i, p)| (*i, p.len())).collect();
        let want: Vec<_> = (1..13).map(|i| (i, 3)).chain([(13, 1)]).collect();
        assert_eq!(sizes, want);
        assert!(rest.last().is_some_and(Option::is_none), "the stream's end");
    }

    #[test]
    fn morsel_group_worker_moves_a_morsel_per_step_at_its_morsel_size() {
        // The same worker, three pages a step: each step claims a morsel,
        // runs it and hands it off; the step that runs the one-page tail
        // also finds the dispenser empty and ends the worker.
        let mut group = group_of(&forty_pages(), &from_key(48), 1, 3);
        let (link, rx) = mpsc::sync_channel(64);
        let mut worker = os_worker(group.workers.remove(0), &link, 3);
        let mut detached = cordoba_sim::DetachedCtx::new();
        let ctx = &mut detached.ctx(0);
        for i in 0..13 {
            assert_eq!(worker.step(ctx).status, StepStatus::Yield);
            let handoff = rx.try_recv().expect("a morsel a step");
            let pages = if i == 0 { 0 } else { 3 };
            assert!(matches!(handoff, Ok(Some((at, ref p))) if at == i && p.len() == pages));
        }
        assert_eq!(worker.step(ctx).status, StepStatus::Done);
        let rest: Vec<_> = rx.try_iter().map(|h| h.expect("no fault")).collect();
        assert!(matches!(rest[..], [Some((13, ref tail)), None] if tail.len() == 1));
    }

    #[test]
    fn morsel_group_worker_stops_within_a_morsel_of_its_merge_hanging_up() {
        let cat = forty_pages();
        let pages: Arc<[Arc<Page>]> = cat.expect("t40").pages().into();
        let schema = cat.expect("t40").schema().clone();
        let dispenser = Arc::new(MorselDispenser::new(pages.len(), 2));
        let (link, merge) = mpsc::sync_channel(64);
        let mut workers: Vec<_> = (0..2)
            .map(|_| {
                let filter = FilterKernel::new(schema.clone(), Predicate::True, OpCost::default());
                let stages: Vec<Box<dyn Kernel + Send>> = vec![Box::new(filter.expect("compiles"))];
                let (pages, dispenser) = (pages.clone(), dispenser.clone());
                let kernel = MorselKernel::new(pages, dispenser, OpCost::default(), stages, None);
                os_worker(Box::new(kernel), &link, 1)
            })
            .collect();
        let mut detached = cordoba_sim::DetachedCtx::new();
        let ctx = &mut detached.ctx(0);
        // With its merge listening, a worker hands over morsel 0 and
        // goes on ...
        for _ in 0..2 {
            assert_eq!(workers[0].step(ctx).status, StepStatus::Yield);
        }
        // ... and once that is gone, the hand-off that ends the morsel
        // it holds ends the worker: of the 20 morsels the two workers
        // claimed three.
        drop(merge);
        for worker in &mut workers {
            assert_eq!(worker.step(ctx).status, StepStatus::Yield);
            assert_eq!(worker.step(ctx).status, StepStatus::Done);
        }
        assert_eq!(dispenser.claim().map(|(next, _)| next), Some(3));
    }

    #[test]
    fn morsel_group_aggregate_merge_emits_after_the_last_worker_step() {
        // Both workers have run their last step while their threads —
        // here, the test's own clone of the link — are still alive: the
        // merge must go on to emit, not wait for the link to hang up.
        let cat = forty_pages();
        let plan = PhysicalPlan::Aggregate {
            input: Box::new(from_key(0)),
            group_by: Vec::new(),
            aggs: vec![("n".into(), Agg::Count)],
            cost: OpCost::default(),
        };
        let group = group_of(&cat, &plan, 2, 40);
        let (link, rx) = mpsc::sync_channel(4);
        let mut detached = cordoba_sim::DetachedCtx::new();
        let ctx = &mut detached.ctx(0);
        for kernel in group.workers {
            let mut worker = os_worker(kernel, &link, 1);
            while worker.step(ctx).status != StepStatus::Done {}
        }
        let fault = FaultCell::default();
        let (out, emitted) = channel::bounded(4);
        let inlet = Inlet::group(LinkRx::Os(rx), 2, &fault);
        let mut merge = shell(group.merge, vec![inlet], vec![out.into()], 0.0, 1, &fault);
        while merge.step(ctx).status != StepStatus::Done {}
        let cordoba_sim::channel::Recv::Value(page) = emitted.try_recv(ctx) else {
            panic!("one group emitted");
        };
        assert_eq!(page_rows(&[page]), [[Value::Int(640)]]);
        drop(link);
    }

    /// A stage that fails on the page after the first `pages` its group
    /// runs, whichever worker runs it: the countdown is shared.
    struct FailsAfter(Arc<std::sync::atomic::AtomicUsize>);

    impl Kernel for FailsAfter {
        fn name(&self) -> &'static str {
            "fails"
        }
        fn ports(&self) -> Vec<Port> {
            vec![("", None)]
        }
        fn on_page(
            &mut self,
            _: usize,
            page: &Arc<Page>,
            out: &mut Pages,
        ) -> Result<PageWork, ExecError> {
            let relaxed = std::sync::atomic::Ordering::Relaxed;
            let countdown = self.0.fetch_update(relaxed, relaxed, |n| n.checked_sub(1));
            if countdown.is_err() {
                let detail = "worker broke".into();
                return Err(ExecError::Injected { detail });
            }
            out.push(page.clone());
            Ok(PageWork::default())
        }
    }

    #[test]
    fn morsel_group_worker_error_fails_the_query_on_both_substrates() {
        // Three workers over four-page morsels feed a sort (which holds
        // grants) through the group's link; whichever worker runs the
        // group's 31st page (of 188) fails on it. (A countdown of one
        // worker's own could go untouched on threads, its peers taking
        // every morsel first.)
        let cat = paged_catalog();
        let t = cat.expect("t");
        let pages: Arc<[Arc<Page>]> = t.pages().into();
        let workers = || -> Vec<Box<dyn Kernel + Send>> {
            let dispenser = Arc::new(MorselDispenser::new(pages.len(), 4));
            let countdown = Arc::new(std::sync::atomic::AtomicUsize::new(30));
            (0..3)
                .map(|_| {
                    let stage = FailsAfter(countdown.clone());
                    let stages: Vec<Box<dyn Kernel + Send>> = vec![Box::new(stage)];
                    let (pages, dispenser) = (pages.clone(), dispenser.clone());
                    let kernel =
                        MorselKernel::new(pages, dispenser, OpCost::default(), stages, None);
                    Box::new(kernel) as Box<dyn Kernel + Send>
                })
                .collect()
        };
        let sort = PhysicalPlan::Sort {
            input: Box::new(PhysicalPlan::Source {
                schema: crate::plan::SchemaRef(t.schema().clone()),
            }),
            keys: vec![0, 1],
            cost: OpCost::default(),
        };
        let broke = ExecError::Injected {
            detail: "worker broke".into(),
        };
        let cfg = WiringConfig::default();
        let morsel = cfg.parallel.morsel_pages;
        // The simulator: the workers' shells beside the sort's, their
        // fault the query's.
        let res = QueryResources::default();
        let mut sim = Simulator::new(2);
        let (link, rx) = channel::bounded(4);
        for (w, (kernel, tx)) in workers()
            .into_iter()
            .zip(std::iter::repeat_n(link, 3))
            .enumerate()
        {
            let outlet = Outlet::group(LinkTx::Sim(tx), &res.fault);
            sim.spawn(
                format!("w{w}"),
                shell(kernel, vec![], vec![outlet], 0.0, morsel, &res.fault),
            );
        }
        let mut sources = VecDeque::from([Inlet::group(LinkRx::Sim(rx), 3, &res.fault)]);
        let (out, collected) = channel::bounded(4);
        instantiate_into(
            &mut sim,
            &cat,
            &sort,
            vec![out.into()],
            &mut sources,
            "q",
            &cfg,
            &res,
        )
        .expect("wires");
        let got = run_and_collect(&mut sim, collected, OpCost::default(), &res.fault);
        assert_eq!(got, Err(broke.clone()), "simulator");
        assert!(res.broker.peak() > 0, "the sort charged the broker");
        assert_eq!(res.broker.used(), 0, "simulator: grants leaked");
        // OS threads: each worker driven as `run_local` drives it.
        let held = Arc::strong_count(&pages[0]);
        let res = QueryResources::default();
        let (link, rx) = mpsc::sync_channel(4);
        thread::scope(|scope| {
            for (kernel, link) in workers().into_iter().zip(std::iter::repeat_n(link, 3)) {
                scope.spawn(move || run_worker(kernel, link, morsel));
            }
            let sources = vec![Inlet::group(LinkRx::Os(rx), 3, &res.fault)];
            let got = run_local_between(&cat, &sort, sources, vec![], &cfg, &res);
            assert_eq!(got.map(|pages| pages.len()), Err(broke), "threads");
        });
        assert_eq!(res.broker.used(), 0, "threads: grants leaked");
        assert_eq!(
            Arc::strong_count(&pages[0]),
            held,
            "a worker outlived the run"
        );
    }

    #[test]
    fn bare_source_root_relays() {
        let cat = catalog();
        let schema = cat.expect("t").schema().clone();
        let fragment = PhysicalPlan::Source {
            schema: crate::plan::SchemaRef(schema),
        };
        let mut sim = Simulator::new(1);
        let (scan_tx, scan_rx) = channel::bounded(4);
        sim.spawn(
            "ext-scan",
            crate::ops::testutil::scan_task(
                cat.expect("t").pages().to_vec(),
                OpCost::default(),
                Fanout::new(vec![scan_tx.into()], 0.0),
            ),
        );
        let (out_tx, out_rx) = channel::bounded(4);
        let mut sources = VecDeque::from([scan_rx.into()]);
        let res = QueryResources::default();
        instantiate_into(
            &mut sim,
            &cat,
            &fragment,
            vec![out_tx.into()],
            &mut sources,
            "relay",
            &WiringConfig::default(),
            &res,
        )
        .expect("wires");
        let rows =
            run_and_collect(&mut sim, out_rx, OpCost::default(), &res.fault).expect("no fault");
        assert_eq!(rows.len(), 100);
    }
}
