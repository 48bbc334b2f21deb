//! Spawns a physical plan into a simulator: one task per operator — an
//! [`OperatorShell`] around the operator's kernel, the relay of a bare
//! `Source` root included — with bounded channels between them
//! (unshared wiring — the engine crate layers packet merging and shared
//! pivots on top of these pieces). Tasks of its own it holds none: the
//! morsel groups' are `par_pipe`'s.
//!
//! Instantiation is **two-phase and fallible**: every operator task is
//! constructed first (compiling expressions, validating key columns),
//! and only when the whole plan type-checks is anything spawned. A
//! malformed plan therefore returns a typed [`ExecError`] with zero
//! tasks running — never a half-wired query or a worker panic. Runtime
//! input-contract violations (an unsorted merge input) are reported
//! through the per-query [`FaultCell`] threaded to the tasks here.
//!
//! `par_chain` is the single definition of what gets parallelised:
//! with more than one worker configured, each such fragment becomes a
//! morsel worker group (`ops::par_pipe`). [`instantiate_into`] puts the
//! whole group into the caller's simulator; [`run_local`] — the one
//! local driver, how real threads run a plan — keeps the serial
//! operators and each group's merge task in one run loop on the
//! calling thread and gives every worker task a private run loop on an
//! OS thread of its own.
//!
//! A plan's ends are the channel layer's ports ([`Inlet`], [`Outlet`]):
//! `Source` leaves read inlets and the root delivers to outlets, each
//! either a simulator channel or a link to another thread. A plan on
//! one thread therefore feeds or reads a plan on another through the
//! same operators, with no task in between ([`run_local_between`]).

use crate::cost::OpCost;
use crate::error::{ExecError, FaultCell};
use crate::memory::{MemoryConfig, QueryResources, SpillContext};
use crate::ops::par_pipe::{self, AggSpec, ParChain};
use crate::ops::shell::{PageWork, Port, PortClosed};
use crate::ops::{
    AggregateKernel, Fanout, FilterKernel, HashJoinKernel, Inlet, Kernel, MergeJoinKernel,
    NljKernel, OperatorShell, Outlet, Pages, ProjectKernel, ScanKernel, SinkKernel, SortKernel,
};
use crate::parallel::{ParallelConfig, StageSpec};
use crate::plan::PhysicalPlan;
use cordoba_sim::channel::{self, Receiver};
use cordoba_sim::{RunOutcome, Simulator, Spawner, StopReason, Task, TaskId};
use cordoba_storage::{Catalog, Page, Schema, Value};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::{mpsc, Arc};
use std::thread;

/// Wiring parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WiringConfig {
    /// Channel capacity in pages between adjacent operators. Finite so
    /// slow consumers throttle producers, as the model assumes.
    pub queue_capacity: usize,
    /// Per-query memory policy (budget, spill directory, recursion
    /// cap). The default is unbounded — no spilling.
    pub memory: MemoryConfig,
    /// Intra-query parallelism. With the default single worker the
    /// wiring is exactly the classic one-task-per-operator layout;
    /// with more, {filter | project}* chains over scans (and
    /// aggregates directly above them) become morsel-parallel worker
    /// groups (see [`crate::ops`]' `par_pipe`), which preserve the
    /// serial row order.
    pub parallel: ParallelConfig,
}

impl Default for WiringConfig {
    fn default() -> Self {
        Self {
            // Consults CORDOBA_WORKERS so a CI leg (or a user) can force
            // intra-query parallelism across every default-configured
            // run; unset, this is the single-worker serial wiring.
            parallel: ParallelConfig::from_env(),
            ..Self::serial()
        }
    }
}

impl WiringConfig {
    /// The default wiring with intra-query parallelism pinned off,
    /// whatever `CORDOBA_WORKERS` says: one task per operator. Real-
    /// thread executors start from this and set `parallel` explicitly.
    pub fn serial() -> Self {
        Self {
            queue_capacity: 16,
            memory: MemoryConfig::default(),
            parallel: ParallelConfig::with_workers(1),
        }
    }
}

/// Tasks spawned for one plan, labeled `"{label}/{preorder}:{op}"`.
/// Ids are `None` when spawned mid-run through a [`TaskCtx`].
pub type SpawnedOps = Vec<(Option<TaskId>, String)>;

/// Instantiates `plan`, delivering root output to every outlet in
/// `outs` (the root's `cost.out_per_tuple` is charged per consumer).
/// [`PhysicalPlan::Source`] leaves consume inlets from `sources` in
/// plan preorder. Runtime faults land in `resources.fault`; buffering
/// operators charge `resources.broker` and spill per `cfg.memory`.
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
    let built = build(catalog, plan, outs, sources, label, cfg, resources, None)?;
    Ok(built
        .into_iter()
        .map(|(name, task)| (sim.spawn_task(name.clone(), task), name))
        .collect())
}

/// Operator tasks built for one plan, named, in spawn order.
type Built = Vec<(String, Box<dyn Task>)>;

/// Morsel-group worker tasks bound for OS threads (see [`run_local`]).
type ThreadWorkers = Vec<Box<dyn Task + Send>>;

/// Constructs every task of `plan` without spawning any. With
/// `threads`, morsel groups are linked by OS channels and their worker
/// tasks land there instead of among the returned tasks.
#[allow(clippy::too_many_arguments)]
fn build(
    catalog: &Catalog,
    plan: &PhysicalPlan,
    outs: Vec<Outlet>,
    sources: &mut VecDeque<Inlet>,
    label: &str,
    cfg: &WiringConfig,
    resources: &QueryResources,
    mut threads: Option<&mut ThreadWorkers>,
) -> Result<Built, ExecError> {
    let mut built = Built::new();
    let sctx = SpillContext::new(
        &cfg.memory,
        resources.broker.clone(),
        resources.fault.clone(),
    );
    wire(
        catalog,
        plan,
        outs,
        sources,
        label,
        cfg,
        &sctx,
        &mut 0,
        &mut built,
        &mut threads,
    )?;
    Ok(built)
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

/// A [`PhysicalPlan::Source`] as the plan root: its pages pass through
/// unchanged, at no cost, and the task ends in the step that sees its
/// input end.
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

/// The fused scan + stage chain rooted at `plan`, when it is a
/// {filter | project}* chain over a scan — the shape the parallel
/// worker groups execute. `None` for any other plan shape (including
/// `Source` leaves, which stay on the serial wiring).
fn par_chain(catalog: &Catalog, plan: &PhysicalPlan) -> Result<Option<ParChain>, ExecError> {
    match plan {
        PhysicalPlan::Scan { table, cost } => {
            let t = catalog
                .get(table)
                .ok_or_else(|| ExecError::plan(format!("no table '{table}' in catalog")))?;
            Ok(Some(ParChain {
                table: table.clone(),
                pages: t.pages().into(),
                in_schema: t.schema().clone(),
                scan_cost: *cost,
                stages: Vec::new(),
            }))
        }
        PhysicalPlan::Filter {
            input,
            predicate,
            cost,
        } => Ok(par_chain(catalog, input)?.map(|mut c| {
            c.stages.push((StageSpec::Filter(predicate.clone()), *cost));
            c
        })),
        PhysicalPlan::Project { input, exprs, cost } => match par_chain(catalog, input)? {
            Some(mut c) => {
                let out_schema = plan.try_output_schema(catalog)?;
                c.stages.push((
                    StageSpec::Project {
                        exprs: exprs.iter().map(|(_, e)| e.clone()).collect(),
                        out_schema,
                    },
                    *cost,
                ));
                Ok(Some(c))
            }
            None => Ok(None),
        },
        _ => Ok(None),
    }
}

/// Names a simulator-side group's workers `{base}:{kind}[w]`, ahead of
/// their merge task.
fn name_workers<W: Task + 'static>(built: &mut Built, base: &str, kind: &str, workers: Vec<W>) {
    for (w, task) in workers.into_iter().enumerate() {
        built.push((format!("{base}:{kind}[{w}]"), Box::new(task)));
    }
}

/// Replaces parallelizable fragments rooted at `plan` with morsel
/// worker groups. Returns `None` when the fragment was handled, or
/// gives `outs` back for the serial wiring. A group's merge task is
/// named `{base}:par_merge(scan(<table>))` /
/// `{base}:par_agg_merge(scan(<table>))` — it carries the scanned
/// table's name so each group counts as exactly one scan instance in
/// task stats, like a serial scan task does.
#[allow(clippy::too_many_arguments, clippy::type_complexity)]
fn try_wire_parallel(
    catalog: &Catalog,
    plan: &PhysicalPlan,
    outs: Vec<Outlet>,
    label: &str,
    cfg: &WiringConfig,
    preorder: &mut usize,
    built: &mut Built,
    threads: &mut Option<&mut ThreadWorkers>,
) -> Result<Option<Vec<Outlet>>, ExecError> {
    let base = format!("{label}/{}", *preorder);
    let par = &cfg.parallel;
    if let Some(chain) = par_chain(catalog, plan)? {
        *preorder += chain.node_count();
        let cap = cfg.queue_capacity;
        let merge: Box<dyn Task> = match threads {
            None => {
                let (workers, merge) =
                    par_pipe::pipe_group(&chain, outs, par, cap, channel::bounded)?;
                name_workers(built, &base, "par_pipe", workers);
                Box::new(merge)
            }
            Some(threads) => {
                let (workers, merge) =
                    par_pipe::pipe_group(&chain, outs, par, cap, mpsc::sync_channel)?;
                threads.extend(workers.into_iter().map(|w| Box::new(w) as _));
                Box::new(merge)
            }
        };
        built.push((format!("{base}:par_merge(scan({}))", chain.table), merge));
        return Ok(None);
    }
    if let PhysicalPlan::Aggregate {
        input,
        group_by,
        aggs,
        cost,
    } = plan
    {
        if let Some(chain) = par_chain(catalog, input)? {
            let agg = AggSpec {
                group_by: group_by.clone(),
                aggs: aggs.iter().map(|(_, a)| a.clone()).collect(),
                out_schema: plan.try_output_schema(catalog)?,
                cost: *cost,
            };
            *preorder += 1 + chain.node_count();
            let merge: Box<dyn Task> = match threads {
                None => {
                    let (workers, merge) =
                        par_pipe::agg_group(&chain, &agg, outs, par, channel::bounded)?;
                    name_workers(built, &base, "par_agg", workers);
                    Box::new(merge)
                }
                Some(threads) => {
                    let (workers, merge) =
                        par_pipe::agg_group(&chain, &agg, outs, par, mpsc::sync_channel)?;
                    threads.extend(workers.into_iter().map(|w| Box::new(w) as _));
                    Box::new(merge)
                }
            };
            built.push((
                format!("{base}:par_agg_merge(scan({}))", chain.table),
                merge,
            ));
            return Ok(None);
        }
    }
    Ok(Some(outs))
}

/// The task that runs `kernel`: an [`OperatorShell`] reading `inputs`
/// (in the kernel's port order) and delivering to `outs` at the
/// per-consumer output cost of `cost`.
fn shell(
    kernel: impl Kernel + 'static,
    inputs: Vec<Inlet>,
    outs: Vec<Outlet>,
    cost: &OpCost,
    sctx: &SpillContext,
) -> Box<dyn Task> {
    let fanout = Fanout::new(outs, cost.out_per_tuple);
    let fault = sctx.fault.clone();
    Box::new(OperatorShell::new(Box::new(kernel), inputs, fanout, fault))
}

#[allow(clippy::too_many_arguments)]
fn wire(
    catalog: &Catalog,
    plan: &PhysicalPlan,
    outs: Vec<Outlet>,
    sources: &mut VecDeque<Inlet>,
    label: &str,
    cfg: &WiringConfig,
    sctx: &SpillContext,
    preorder: &mut usize,
    built: &mut Built,
    threads: &mut Option<&mut ThreadWorkers>,
) -> Result<(), ExecError> {
    let outs = if cfg.parallel.effective_workers() > 1 {
        match try_wire_parallel(catalog, plan, outs, label, cfg, preorder, built, threads)? {
            None => return Ok(()),
            Some(outs) => outs,
        }
    } else {
        outs
    };
    let my_idx = *preorder;
    *preorder += 1;
    let name = format!("{label}/{my_idx}:{}", plan.op_name());
    // Child receivers are created before this node's task so that
    // Source receivers are consumed in preorder.
    let mut child_input = |child: &PhysicalPlan,
                           sources: &mut VecDeque<Inlet>,
                           preorder: &mut usize,
                           built: &mut Built|
     -> Result<Inlet, ExecError> {
        if let PhysicalPlan::Source { .. } = child {
            *preorder += 1;
            return sources
                .pop_front()
                .ok_or_else(|| ExecError::plan("a receiver per Source leaf, in preorder"));
        }
        let (tx, rx) = channel::bounded(cfg.queue_capacity);
        wire(
            catalog,
            child,
            vec![tx.into()],
            sources,
            label,
            cfg,
            sctx,
            preorder,
            built,
            threads,
        )?;
        Ok(rx.into())
    };

    match plan {
        PhysicalPlan::Scan { table, cost } => {
            let pages = catalog
                .get(table)
                .ok_or_else(|| ExecError::plan(format!("no table '{table}' in catalog")))?
                .pages()
                .to_vec();
            let kernel = ScanKernel::new(pages, *cost);
            built.push((name, shell(kernel, vec![], outs, cost, sctx)));
        }
        PhysicalPlan::Source { schema } => {
            // Source as root: relay external pages to the consumers.
            let rx = sources
                .pop_front()
                .ok_or_else(|| ExecError::plan("a receiver per Source leaf, in preorder"))?;
            let free = OpCost::per_tuple(0.0);
            built.push((
                name,
                shell(Relay(schema.0.clone()), vec![rx], outs, &free, sctx),
            ));
        }
        PhysicalPlan::Filter {
            input,
            predicate,
            cost,
        } => {
            let schema = input.try_output_schema(catalog)?;
            let rx = child_input(input, sources, preorder, built)?;
            let kernel = FilterKernel::new(schema, predicate.clone(), *cost)?;
            built.push((name, shell(kernel, vec![rx], outs, cost, sctx)));
        }
        PhysicalPlan::Project { input, exprs, cost } => {
            let in_schema = input.try_output_schema(catalog)?;
            let out_schema = plan.try_output_schema(catalog)?;
            let rx = child_input(input, sources, preorder, built)?;
            let exprs = exprs.iter().map(|(_, e)| e.clone()).collect();
            let kernel = ProjectKernel::new(in_schema, out_schema, exprs, *cost)?;
            built.push((name, shell(kernel, vec![rx], outs, cost, sctx)));
        }
        PhysicalPlan::Aggregate {
            input,
            group_by,
            aggs,
            cost,
        } => {
            let in_schema = input.try_output_schema(catalog)?;
            let out_schema = plan.try_output_schema(catalog)?;
            let rx = child_input(input, sources, preorder, built)?;
            let aggs = aggs.iter().map(|(_, a)| a.clone()).collect();
            let kernel =
                AggregateKernel::new(in_schema, group_by.clone(), aggs, out_schema, *cost)?;
            built.push((name, shell(kernel, vec![rx], outs, cost, sctx)));
        }
        PhysicalPlan::Sort { input, keys, cost } => {
            let schema = input.try_output_schema(catalog)?;
            let rx = child_input(input, sources, preorder, built)?;
            let kernel = SortKernel::new(schema, keys.clone(), *cost, sctx.clone())?;
            built.push((name, shell(kernel, vec![rx], outs, cost, sctx)));
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
            let build_schema = build.try_output_schema(catalog)?;
            let probe_schema = probe.try_output_schema(catalog)?;
            let out_schema = plan.try_output_schema(catalog)?;
            let rx_build = child_input(build, sources, preorder, built)?;
            let rx_probe = child_input(probe, sources, preorder, built)?;
            let kernel = HashJoinKernel::new(
                *build_key,
                *probe_key,
                *kind,
                build_schema,
                probe_schema,
                out_schema,
                *build_cost,
                *probe_cost,
                sctx.clone(),
            )?;
            built.push((
                name,
                shell(kernel, vec![rx_build, rx_probe], outs, probe_cost, sctx),
            ));
        }
        PhysicalPlan::NestedLoopJoin {
            outer,
            inner,
            predicate,
            cost,
        } => {
            let outer_schema = outer.try_output_schema(catalog)?;
            let inner_schema = inner.try_output_schema(catalog)?;
            let pair_schema = plan.try_output_schema(catalog)?;
            let rx_outer = child_input(outer, sources, preorder, built)?;
            let rx_inner = child_input(inner, sources, preorder, built)?;
            let predicate = predicate.clone();
            let kernel = NljKernel::new(outer_schema, inner_schema, predicate, pair_schema, *cost)?;
            built.push((
                name,
                shell(kernel, vec![rx_inner, rx_outer], outs, cost, sctx),
            ));
        }
        PhysicalPlan::MergeJoin {
            left,
            right,
            left_key,
            right_key,
            cost,
        } => {
            let left_schema = left.try_output_schema(catalog)?;
            let right_schema = right.try_output_schema(catalog)?;
            let out_schema = plan.try_output_schema(catalog)?;
            let rx_left = child_input(left, sources, preorder, built)?;
            let rx_right = child_input(right, sources, preorder, built)?;
            let kernel = MergeJoinKernel::new(
                left_schema,
                right_schema,
                *left_key,
                *right_key,
                out_schema,
                *cost,
            )?;
            built.push((
                name,
                shell(kernel, vec![rx_left, rx_right], outs, cost, sctx),
            ));
        }
    }
    Ok(())
}

/// Runs `sim` to idle with a collecting sink on `rx` and returns the
/// result pages. The query's fault (e.g. an unsorted merge input) comes
/// back as `Err`, and so does a graph that wedged
/// ([`ExecError::Stalled`]).
pub fn run_and_collect_pages(
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

/// As [`run_and_collect_pages`], decoded to rows — convenience for
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
/// the same `ops/*` tasks as any simulated run — charging
/// `resources.broker` (its budget is what bounds the query;
/// `cfg.memory` contributes the spill policy).
///
/// The plan is wired once: serial operators and each morsel group's
/// merge task run in a private single-context run loop on the calling
/// thread, and every group worker task runs to completion in a run
/// loop of its own on a scoped OS thread, feeding its merge task over a
/// bounded OS channel. With one worker configured there are no groups
/// and no threads: see [`run_serial`].
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
    let mut workers = ThreadWorkers::new();
    let (sources, threads) = (&mut sources.into(), Some(&mut workers));
    let built = build(catalog, plan, outs, sources, "q", cfg, resources, threads)?;
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
        for worker in workers {
            scope.spawn(move || {
                let mut sim = Simulator::new(1);
                sim.spawn("worker", worker);
                sim.run_to_idle();
            });
        }
        let outcome = sim.run_to_idle();
        // A run that stopped with merge tasks still live (a stall) must
        // hang up on their workers, or the scope's join would wait on a
        // full channel forever.
        drop(sim);
        failure_of(&outcome, &resources.fault)?;
        Ok(collected.map(|buf| buf.take()).unwrap_or_default())
    })
}

/// [`run_local`] at one worker, whatever `CORDOBA_WORKERS` says: the
/// serial one-task-per-operator wiring ([`WiringConfig::serial`]) in
/// one run loop on the calling thread.
pub fn run_serial(
    catalog: &Catalog,
    plan: &PhysicalPlan,
    resources: &QueryResources,
) -> Result<Vec<Arc<Page>>, ExecError> {
    run_local(catalog, plan, &WiringConfig::serial(), resources)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{Agg, CmpOp, Predicate, ScalarExpr};
    use crate::memory::MemoryBroker;
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
        // Pinned serial (Default consults CORDOBA_WORKERS): the
        // assertions below name the task-per-operator wiring.
        let cfg = WiringConfig::serial();
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
        // Pinned to one worker (not Default, which consults
        // CORDOBA_WORKERS): this test is *about* the serial wiring.
        let cfg = WiringConfig::serial();
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
        for plan in cases {
            let err = instantiate(&mut sim, &cat, &plan, "bad", &WiringConfig::default())
                .err()
                .unwrap_or_else(|| panic!("plan must be rejected: {plan:?}"));
            assert!(matches!(err, ExecError::PlanType(_)), "{plan:?}: {err}");
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
    fn run_serial_ignores_the_worker_environment() {
        // Whatever CORDOBA_WORKERS says, the serial helper reproduces
        // the one-worker wiring's rows.
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
        let pages = run_serial(&cat, &plan, &res).expect("runs");
        assert_eq!(page_rows(&pages), run_plan(&cat, &plan, 1));
        assert!(res.broker.peak() > 0, "the sort charged the broker");
        assert_eq!(res.broker.used(), 0);
        assert_eq!(WiringConfig::serial().parallel.workers, 1);
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
            ..WiringConfig::serial()
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
            let want = page_rows(&run_serial(&cat, plan, &res).expect("runs"));
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
        // A 12-page build side under a budget: the join is the serial
        // wiring's `HashJoinKernel`, so it spills instead of forcing
        // grants and cleans up after itself.
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
        // dominate (the serial wiring itself peaks at 6x); from six
        // pages up it holds its 1.25x contract, which forced grants for
        // the whole build side (1.5x at eight pages) would break.
        for budget in [2 * PAGE_SIZE, 8 * PAGE_SIZE] {
            let serial = MemoryBroker::with_budget(budget);
            run_serial(&cat, &same_pages, &QueryResources::charging(&serial)).expect("serial join");
            for workers in [2, 4] {
                let at = format!("budget={budget} workers={workers}");
                let mut cfg = threaded(workers);
                cfg.memory.spill_dir = Some(dir.clone());
                let broker = MemoryBroker::with_budget(budget);
                let got = run_local(&cat, &plan, &cfg, &QueryResources::charging(&broker))
                    .expect("join runs under budget");
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
                if budget == 8 * PAGE_SIZE {
                    assert!(
                        broker.peak() * 4 <= budget * 5,
                        "{at}: peak {} over 1.25 x budget",
                        broker.peak()
                    );
                }
                assert_eq!(broker.used(), 0, "{at}: grants leaked");
                let left = std::fs::read_dir(&dir).expect("spill dir").count();
                assert_eq!(left, 0, "{at}: spill files left behind");
            }
        }
        std::fs::remove_dir(&dir).expect("empty spill dir");
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
        let broker = MemoryBroker::unbounded();
        let err = run_local(
            &cat,
            &plan,
            &threaded(4),
            &QueryResources::charging(&broker),
        )
        .expect_err("unsorted input");
        assert!(
            matches!(err, ExecError::UnsortedMergeInput { .. }),
            "{err:?}"
        );
        assert_eq!(broker.used(), 0);
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
