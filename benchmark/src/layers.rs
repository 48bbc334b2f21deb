//! Per-layer measurements, taken from outside the program.
//!
//! Two instruments share the kernels in this file:
//!
//! * **Probes** time one layer's public functions in isolation over the
//!   workload's own catalog (so `ns/row` figures are at that workload's
//!   working-set size). Operator costs are *differential*: a plan is run
//!   through `wiring::instantiate` + `run_and_collect` and the
//!   `scan → count` floor is subtracted.
//! * The **ladder** replays, inside the traced pass, the layers beneath
//!   one iteration over the same data — the wiring path without the
//!   engine, then the kernels without operators — so each rung's self
//!   time is its span minus the rung beneath it.
//!
//! Layer names are module names: `storage`, `vexpr`, `ops`, `memory`,
//! `wiring`, `subsume`, `fragment_cache`, `policy`, `engine`,
//! `profiling`, `workload`, `reference`, `sim`, `thread_exec`.

use crate::host::{median_secs, try_median_secs};
use crate::inputs::{self, li, Kind, Seeds, Sizing};
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{spill_budget, threads, Prepared};
use cordoba_engine::fragment_cache::{CachedFragment, FragmentCache};
use cordoba_engine::profiling::profile_query;
use cordoba_engine::thread_exec;
use cordoba_engine::{run_once, EngineConfig, MemoryConfig, ParallelConfig, Policy, QuerySpec};
use cordoba_exec::expr::{Agg, Predicate, ScalarExpr};
use cordoba_exec::ops::BuildTable;
use cordoba_exec::subsume::{fingerprint, subsume_residual};
use cordoba_exec::wiring::{self, WiringConfig};
use cordoba_exec::{reference, CompiledExpr, CompiledPredicate, ExprScratch, OpCost, PhysicalPlan};
use cordoba_sim::channel::{self, Receiver, Recv, Sender};
use cordoba_sim::{Simulator, Step, Task, TaskCtx};
use cordoba_storage::spill::{SpillFile, SpillWriter};
use cordoba_storage::{Catalog, Page, PageBuilder, Schema};
use cordoba_workload::{q1, q6, CostProfile};
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One probe result: metric name and value (units live in `report`).
pub type Measured = (&'static str, f64);

// ------------------------------------------------------------ kernels

/// `Page::gather_*` over the five columns Q1 and Q6 read.
fn gather_columns(pages: &[Arc<Page>], ints: &mut Vec<i32>, floats: &mut Vec<f64>) {
    for page in pages {
        page.gather_date(li::SHIPDATE, ints);
        black_box(&*ints);
        for col in [li::QUANTITY, li::EXTENDEDPRICE, li::DISCOUNT, li::TAX] {
            page.gather_f64(col, floats);
            black_box(&*floats);
        }
    }
}

/// Compiled predicate to selection vectors; returns rows kept.
fn select_pages(pages: &[Arc<Page>], pred: &CompiledPredicate, sel: &mut Vec<u32>) -> usize {
    let mut scratch = ExprScratch::default();
    let mut kept = 0;
    for page in pages {
        pred.select(page, &mut scratch, sel);
        kept += sel.len();
    }
    kept
}

/// What a filter does after selecting: `copy_rows_into` fresh pages.
fn copy_selected(
    pages: &[Arc<Page>],
    selections: &[Vec<u32>],
    schema: &Arc<Schema>,
) -> Vec<Arc<Page>> {
    let mut out = Vec::new();
    let mut builder = PageBuilder::new(schema.clone());
    for (page, sel) in pages.iter().zip(selections) {
        let mut done = 0;
        while done < sel.len() {
            done += page.copy_rows_into(&sel[done..], &mut builder);
            if builder.is_full() {
                out.push(builder.finish_and_reset());
            }
        }
    }
    if !builder.is_empty() {
        out.push(builder.finish());
    }
    out
}

/// Compiled expression into a reused `f64` column per page.
fn eval_pages(pages: &[Arc<Page>], expr: &CompiledExpr, col: &mut Vec<f64>) {
    let mut scratch = ExprScratch::default();
    for page in pages {
        expr.eval_f64_into(page, &mut scratch, col);
        black_box(&*col);
    }
}

fn build_table(pages: &[Arc<Page>], key_col: usize, row_width: usize) -> BuildTable {
    let mut table = BuildTable::new(row_width);
    for page in pages {
        table.insert_page(page, key_col);
    }
    table
}

fn probe_table(table: &BuildTable, pages: &[Arc<Page>], key_col: usize) -> usize {
    let mut keys = Vec::new();
    let mut matched = 0;
    for page in pages {
        page.gather_i64(key_col, &mut keys);
        for &key in &keys {
            matched += table.matches(key).count();
        }
    }
    matched
}

/// Writes `pages` to one spill file (which deletes itself on drop).
fn spill_write(dir: &Path, pages: &[Arc<Page>], schema: &Arc<Schema>) -> Result<SpillFile, String> {
    let io = |e: std::io::Error| format!("spill write: {e}");
    let mut w = SpillWriter::create(dir, schema.clone()).map_err(io)?;
    for page in pages {
        w.write_page(page).map_err(io)?;
    }
    w.finish().map_err(io)
}

/// Reads a spill file back; returns the rows seen.
fn spill_read(file: SpillFile) -> Result<usize, String> {
    let io = |e: std::io::Error| format!("spill read: {e}");
    let mut reader = file.into_reader().map_err(io)?;
    let mut rows = 0;
    while let Some(page) = reader.next_page().map_err(io)? {
        rows += page.rows();
    }
    Ok(rows)
}

// ------------------------------------------------------- wiring runs

fn wiring_cfg(engine: &EngineConfig, memory: MemoryConfig) -> WiringConfig {
    WiringConfig {
        queue_capacity: engine.queue_capacity,
        memory,
        parallel: ParallelConfig::with_workers(1),
    }
}

/// Instantiates and runs `plan` without the engine; returns result
/// rows and the broker's peak.
fn run_wired(
    catalog: &Catalog,
    plan: &PhysicalPlan,
    cfg: &WiringConfig,
    contexts: usize,
    sink: OpCost,
) -> Result<(usize, usize), String> {
    let mut sim = Simulator::new(contexts);
    let (rx, _ops, res) = wiring::instantiate(&mut sim, catalog, plan, "bench", cfg)
        .map_err(|e| format!("wiring: {e}"))?;
    let rows = wiring::run_and_collect(&mut sim, rx, sink, &res.fault)
        .map_err(|e| format!("wired run: {e}"))?;
    Ok((rows.len(), res.broker.peak()))
}

fn count_over(input: PhysicalPlan, costs: &CostProfile) -> PhysicalPlan {
    PhysicalPlan::Aggregate {
        input: Box::new(input),
        group_by: vec![],
        aggs: vec![("rows".into(), Agg::Count)],
        cost: costs.aggregate,
    }
}

fn lineitem_scan(costs: &CostProfile) -> PhysicalPlan {
    PhysicalPlan::Scan {
        table: "lineitem".into(),
        cost: costs.scan,
    }
}

// -------------------------------------------------------- sim probes

/// A task that only yields: the scheduler's cost per step.
struct Spinner {
    left: u32,
}

impl Task for Spinner {
    fn step(&mut self, _: &mut TaskCtx<'_>) -> Step {
        if self.left == 0 {
            return Step::done(0);
        }
        self.left -= 1;
        Step::yielded(1)
    }
}

struct PageProducer {
    tx: Sender<Arc<Page>>,
    page: Arc<Page>,
    left: u32,
}

impl Task for PageProducer {
    fn step(&mut self, ctx: &mut TaskCtx<'_>) -> Step {
        if self.left == 0 {
            self.tx.close(ctx);
            return Step::done(0);
        }
        match self.tx.try_send(self.page.clone(), ctx) {
            Ok(()) => {
                self.left -= 1;
                Step::yielded(1)
            }
            Err(_) => Step::blocked(0),
        }
    }
}

struct PageConsumer {
    rx: Receiver<Arc<Page>>,
}

impl Task for PageConsumer {
    fn step(&mut self, ctx: &mut TaskCtx<'_>) -> Step {
        match self.rx.try_recv(ctx) {
            Recv::Value(page) => {
                black_box(page.rows());
                Step::yielded(1)
            }
            Recv::Empty => Step::blocked(0),
            Recv::Closed => Step::done(0),
        }
    }
}

// ------------------------------------------------------------ probes

/// Shared state of the probes: the prepared workload whose catalog they
/// run over, the time budget per timed kernel, and the results so far.
struct Probes<'a> {
    p: &'a Prepared,
    budget: Duration,
    costs: CostProfile,
    /// The workload crate's Q6 and Q1: the probes time the predicate
    /// and the aggregate inputs the workloads really run.
    q6: QuerySpec,
    q1: QuerySpec,
    out: Vec<Measured>,
}

fn ns_per(secs: f64, n: f64) -> f64 {
    secs * 1e9 / n.max(1.0)
}

/// Runs every probe over `p`'s catalog, spending about `budget` per
/// timed kernel. Every time-valued per-layer metric is measured on
/// every workload; counts that a workload does not exercise are 0.
pub fn probe_all(p: &Prepared, seed: u64, budget: Duration) -> Result<Vec<Measured>, String> {
    let costs = CostProfile::paper();
    let mut probes = Probes {
        p,
        budget,
        costs,
        q6: q6(&costs),
        q1: q1(&costs),
        out: Vec::new(),
    };
    probes.storage()?;
    probes.vexpr()?;
    probes.join_kernels();
    probes.operators()?;
    probes.engine()?;
    probes.sharing(Seeds::from_seed(seed))?;
    probes.sim();
    probes.threads();
    Ok(probes.out)
}

impl Probes<'_> {
    fn lineitem(&self) -> (&[Arc<Page>], &Arc<Schema>, f64) {
        let t = self.p.catalog.expect("lineitem");
        (t.pages(), t.schema(), t.row_count() as f64)
    }

    /// Q6's selection, compiled.
    fn q6_predicate(&self) -> Result<CompiledPredicate, String> {
        let (predicate, _) = scan_agg_shape(&self.q6.plan)
            .ok_or("q6 is no longer Aggregate(Filter(Scan lineitem))")?;
        CompiledPredicate::compile(predicate, self.lineitem().1)
            .map_err(|e| format!("compile q6 predicate: {e}"))
    }

    fn storage(&mut self) -> Result<(), String> {
        let (pages, schema, rows) = self.lineitem();
        let (mut ints, mut floats) = (Vec::new(), Vec::new());
        let gather_s = median_secs(self.budget, || {
            gather_columns(pages, &mut ints, &mut floats);
        });

        let pred = self.q6_predicate()?;
        let (mut scratch, mut sel) = (ExprScratch::default(), Vec::new());
        let selections: Vec<Vec<u32>> = pages
            .iter()
            .map(|page| {
                pred.select(page, &mut scratch, &mut sel);
                sel.clone()
            })
            .collect();
        let selected: usize = selections.iter().map(Vec::len).sum();
        let copy_s = median_secs(self.budget, || {
            black_box(copy_selected(pages, &selections, schema));
        });

        let (mut writes, mut reads, mut bytes) = (Vec::new(), Vec::new(), 0);
        try_median_secs(self.budget, || {
            let t = Instant::now();
            let file = spill_write(&self.p.spill_dir, pages, schema)?;
            writes.push(t.elapsed().as_secs_f64());
            bytes = file.bytes();
            let t = Instant::now();
            black_box(spill_read(file)?);
            reads.push(t.elapsed().as_secs_f64());
            Ok(())
        })?;
        let mb_per_s = |secs: &[f64]| bytes as f64 / 1e6 / stats::median(secs).unwrap_or(f64::NAN);

        self.out.extend([
            ("storage.gather_ns_per_row", ns_per(gather_s, rows)),
            (
                "storage.copy_rows_ns_per_row",
                ns_per(copy_s, selected as f64),
            ),
            ("storage.spill_write_mb_per_s", mb_per_s(&writes)),
            ("storage.spill_read_mb_per_s", mb_per_s(&reads)),
        ]);
        Ok(())
    }

    /// Q6's selection and all of Q1's aggregate inputs (seven
    /// expressions per row, `sum_charge` the deepest).
    fn vexpr(&mut self) -> Result<(), String> {
        let (pages, schema, rows) = self.lineitem();
        let pred = self.q6_predicate()?;
        let (_, inputs) = scan_agg_shape(&self.q1.plan)
            .ok_or("q1 is no longer Aggregate(Filter(Scan lineitem))")?;
        let compile_inputs = || -> Result<Vec<CompiledExpr>, String> {
            inputs
                .iter()
                .map(|e| CompiledExpr::compile_f64(e, schema))
                .collect::<Result<_, _>>()
                .map_err(|e| format!("compile q1 aggregate inputs: {e}"))
        };
        let progs = compile_inputs()?;
        let (mut sel, mut col) = (Vec::new(), Vec::new());
        let select_s = median_secs(self.budget, || {
            black_box(select_pages(pages, &pred, &mut sel));
        });
        let eval_s = median_secs(self.budget, || {
            for prog in &progs {
                eval_pages(pages, prog, &mut col);
            }
        });
        let compile_s = median_secs(self.budget, || {
            black_box(self.q6_predicate().is_ok());
            black_box(compile_inputs().is_ok());
        });
        self.out.extend([
            ("vexpr.select_ns_per_row", ns_per(select_s, rows)),
            ("vexpr.eval_ns_per_row", ns_per(eval_s, rows)),
            ("vexpr.compile_us", compile_s * 1e6),
        ]);
        Ok(())
    }

    /// The two operator kernels with a public entry point.
    fn join_kernels(&mut self) {
        let (pages, _, rows) = self.lineitem();
        let orders = self.p.catalog.expect("orders");
        let width = orders.schema().row_width();
        let build_s = median_secs(self.budget, || {
            black_box(build_table(orders.pages(), 0, width).rows());
        });
        let table = build_table(orders.pages(), 0, width);
        let probe_s = median_secs(self.budget, || {
            black_box(probe_table(&table, pages, li::ORDERKEY));
        });
        self.out.extend([
            (
                "ops.join_build_ns_per_row",
                ns_per(build_s, orders.row_count() as f64),
            ),
            ("ops.join_probe_ns_per_row", ns_per(probe_s, rows)),
        ]);
    }

    /// Median seconds of `plan` through wiring under `memory`, and the
    /// broker's highest peak.
    fn wired(&self, plan: &PhysicalPlan, memory: MemoryConfig) -> Result<(f64, usize), String> {
        let cfg = wiring_cfg(&self.p.engine, memory);
        let mut peak = 0;
        let secs = try_median_secs(self.budget, || {
            let (_, p) = run_wired(&self.p.catalog, plan, &cfg, 1, self.p.engine.sink_cost)?;
            peak = peak.max(p);
            Ok(())
        })?;
        Ok((secs, peak))
    }

    /// Operator costs, differentially above the `scan → count` floor.
    fn operators(&mut self) -> Result<(), String> {
        let costs = self.costs;
        let rows = self.lineitem().2;
        let unbounded = MemoryConfig::default;
        let budget_bytes = spill_budget(&self.p.catalog);
        let bounded = || MemoryConfig {
            query_budget: Some(budget_bytes),
            spill_dir: Some(self.p.spill_dir.clone()),
            ..MemoryConfig::default()
        };

        let (floor_s, _) = self.wired(&count_over(lineitem_scan(&costs), &costs), unbounded())?;
        let above_floor = |secs: f64| ns_per(secs - floor_s, rows);
        let PhysicalPlan::Aggregate { input, .. } = &self.q6.plan else {
            return Err("q6 is no longer an aggregate".into());
        };
        let filter = count_over(input.as_ref().clone(), &costs);
        let PhysicalPlan::Aggregate { group_by, aggs, .. } = self.q1.plan.clone() else {
            return Err("q1 is no longer an aggregate".into());
        };
        let aggregate = PhysicalPlan::Aggregate {
            input: Box::new(lineitem_scan(&costs)),
            group_by,
            aggs,
            cost: costs.heavy_aggregate,
        };
        let join = inputs::join_agg(&costs).plan;
        let sort = inputs::sort_agg(&costs).plan;
        let (join_spill_s, join_peak) = self.wired(&join, bounded())?;
        let (sort_spill_s, sort_peak) = self.wired(&sort, bounded())?;
        let measured = [
            ("ops.scan_floor_ns_per_row", ns_per(floor_s, rows)),
            (
                "ops.filter_ns_per_row",
                above_floor(self.wired(&filter, unbounded())?.0),
            ),
            (
                "ops.aggregate_ns_per_row",
                above_floor(self.wired(&aggregate, unbounded())?.0),
            ),
            (
                "ops.hash_join_ns_per_row",
                above_floor(self.wired(&join, unbounded())?.0),
            ),
            (
                "ops.sort_ns_per_row",
                above_floor(self.wired(&sort, unbounded())?.0),
            ),
            ("ops.hash_join_spill_ns_per_row", above_floor(join_spill_s)),
            ("ops.sort_spill_ns_per_row", above_floor(sort_spill_s)),
            (
                "memory.peak_over_budget",
                join_peak.max(sort_peak) as f64 / budget_bytes as f64,
            ),
        ];
        self.out.extend(measured);
        Ok(())
    }

    /// `wiring::instantiate`, the engine's cost over plain wiring,
    /// `profile_query`, and the policy's (that is, `core`'s Z) decision.
    fn engine(&mut self) -> Result<(), String> {
        let catalog = &self.p.catalog;
        let q6_spec = &self.q6;
        let cfg = wiring_cfg(&self.p.engine, MemoryConfig::default());
        let instantiate_s = median_secs(self.budget, || {
            let mut sim = Simulator::new(1);
            black_box(wiring::instantiate(&mut sim, catalog, &q6_spec.plan, "bench", &cfg).is_ok());
        });
        let (wired_s, _) = self.wired(&q6_spec.plan, MemoryConfig::default())?;
        let engine_s = median_secs(self.budget, || {
            black_box(run_once(catalog, std::slice::from_ref(q6_spec), &self.p.engine).makespan);
        });

        let mut models = HashMap::new();
        // Three profiling passes (each is six `run_once` calls).
        let profile_s = try_median_secs(Duration::ZERO, || {
            let (info, _) = profile_query(catalog, q6_spec, &self.p.engine)
                .map_err(|e| format!("profiling q6: {e}"))?;
            models.insert(q6_spec.name.clone(), info);
            Ok(())
        })?;
        let policy = Policy::model_guided(models);
        let group = vec![q6_spec.name.clone(); 3];
        const CALLS: usize = 64;
        let admit_s = median_secs(self.budget, || {
            for _ in 0..CALLS {
                black_box(policy.admit(&group, &q6_spec.name, 2.0));
            }
        });
        self.out.extend([
            ("wiring.instantiate_us", instantiate_s * 1e6),
            ("engine.run_once_overhead_us", (engine_s - wired_s) * 1e6),
            ("profiling.profile_query_ms", profile_s * 1e3),
            ("policy.admit_ns", ns_per(admit_s, CALLS as f64)),
        ]);
        Ok(())
    }

    /// The family generator, the arrival generator, `subsume` and the
    /// fragment cache, over this seed's family pool.
    fn sharing(&mut self, seeds: Seeds) -> Result<(), String> {
        let specs_s = median_secs(self.budget, || {
            black_box(inputs::family_pool(seeds).len());
        });
        let pool = inputs::family_pool(seeds);
        let schedule_s = median_secs(self.budget, || {
            black_box(inputs::schedule(&pool, seeds, Sizing::FULL).len());
        });

        let pivots: Vec<&PhysicalPlan> = pool.iter().filter_map(|s| s.pivot.as_ref()).collect();
        let fingerprint_s = median_secs(self.budget, || {
            for pivot in &pivots {
                black_box(fingerprint(pivot));
            }
        });
        // Member j of a family contains member j + 1; the pool interleaves
        // families round-robin, so the next member is FAMILIES further on.
        let pairs: Vec<(&PhysicalPlan, &PhysicalPlan)> = pivots
            .iter()
            .zip(pivots.iter().skip(inputs::FAMILIES))
            .map(|(wide, narrow)| (*wide, *narrow))
            .collect();
        if pairs.iter().any(|(w, n)| subsume_residual(w, n).is_none()) {
            return Err("family members are no longer nested".into());
        }
        let residual_s = median_secs(self.budget, || {
            for (wide, narrow) in &pairs {
                black_box(subsume_residual(wide, narrow).is_some());
            }
        });

        let mut cache = FragmentCache::new(2);
        for pivot in pivots.iter().take(2) {
            let entry = CachedFragment::in_flight(fingerprint(pivot), (*pivot).clone());
            entry.ready.set(true);
            cache.insert(entry);
        }
        let narrow = pivots[inputs::FAMILIES];
        let narrow_fp = fingerprint(narrow);
        if cache.lookup(narrow_fp, narrow).is_none() {
            return Err("fragment cache no longer serves a subsumed pivot".into());
        }
        const CALLS: usize = 64;
        let lookup_s = median_secs(self.budget, || {
            for _ in 0..CALLS {
                black_box(cache.lookup(narrow_fp, narrow).is_some());
            }
        });

        self.out.extend([
            ("workload.family_specs_us", specs_s * 1e6),
            ("workload.schedule_us", schedule_s * 1e6),
            (
                "subsume.fingerprint_ns",
                ns_per(fingerprint_s, pivots.len() as f64),
            ),
            (
                "subsume.residual_ns",
                ns_per(residual_s, pairs.len() as f64),
            ),
            ("fragment_cache.lookup_ns", ns_per(lookup_s, CALLS as f64)),
        ]);
        Ok(())
    }

    /// The scheduler's cost per step and the channel's per page.
    fn sim(&mut self) {
        const STEPS: u32 = 20_000;
        let step_s = median_secs(self.budget, || {
            let mut sim = Simulator::new(2);
            for i in 0..4 {
                sim.spawn(format!("spin{i}"), Box::new(Spinner { left: STEPS / 4 }));
            }
            black_box(sim.run_to_idle().now);
        });
        const PAGES: u32 = 10_000;
        let page = self.lineitem().0[0].clone();
        let channel_s = median_secs(self.budget, || {
            let mut sim = Simulator::new(2);
            let (tx, rx) = channel::bounded(self.p.engine.queue_capacity);
            let producer = PageProducer {
                tx,
                page: page.clone(),
                left: PAGES,
            };
            sim.spawn("producer", Box::new(producer));
            sim.spawn("consumer", Box::new(PageConsumer { rx }));
            black_box(sim.run_to_idle().now);
        });
        self.out.extend([
            ("sim.step_ns", ns_per(step_s, f64::from(STEPS))),
            (
                "sim.channel_ns_per_page",
                ns_per(channel_s, f64::from(PAGES)),
            ),
        ]);
    }

    /// The three `thread_exec` entry points, by their own `elapsed`.
    fn threads(&mut self) {
        let catalog = &self.p.catalog;
        let (q6_spec, q1_spec) = (&self.q6, &self.q1);
        let median_ms = |f: &mut dyn FnMut() -> Duration| {
            let mut elapsed = Vec::new();
            median_secs(self.budget, || elapsed.push(f().as_secs_f64() * 1e3));
            stats::median(&elapsed).unwrap_or(f64::NAN)
        };
        let unshared_ms = median_ms(&mut || {
            let (m, threads) = (threads::UNSHARED_M, threads::UNSHARED_THREADS);
            thread_exec::run_unshared(catalog, q6_spec, m, threads).elapsed
        });
        let shared_ms =
            median_ms(&mut || thread_exec::run_shared(catalog, q6_spec, threads::SHARED_M).elapsed);
        let parallel_ms = |workers: usize| {
            let cfg = ParallelConfig::with_workers(workers);
            median_ms(&mut || {
                thread_exec::run_unshared_parallel(catalog, q1_spec, 1, 1, &cfg)
                    .map_or(Duration::ZERO, |r| r.elapsed)
            })
        };
        let (w1_ms, w2_ms) = (parallel_ms(1), parallel_ms(2));
        self.out.extend([
            ("thread_exec.unshared_ms", unshared_ms),
            ("thread_exec.shared_ms", shared_ms),
            ("thread_exec.par_w1_ms", w1_ms),
            ("thread_exec.par_w2_ms", w2_ms),
            ("thread_exec.par_speedup_w2", w1_ms / w2_ms),
            // Wall time per query, shared ÷ unshared: the wall-clock
            // analogue of 1/Z. Below 1, sharing won on this host.
            (
                "thread_exec.shared_over_unshared",
                (shared_ms / threads::SHARED_M as f64) / (unshared_ms / threads::UNSHARED_M as f64),
            ),
        ]);
    }
}

/// Scheduler steps per query, from the task statistics `run_once`
/// already returns: each distinct spec run alone and unshared under the
/// workload's engine configuration. `thread_share` uses no simulator: 0.
pub fn steps_per_query(p: &Prepared) -> f64 {
    if p.kind == Kind::ThreadShare {
        return 0.0;
    }
    let engine = EngineConfig {
        policy: Policy::NeverShare,
        ..p.service_cfg().map_or(&p.engine, |c| &c.engine).clone()
    };
    let steps: u64 = p
        .specs
        .iter()
        .flat_map(|s| run_once(&p.catalog, std::slice::from_ref(s), &engine).task_stats)
        .map(|(_, stats)| stats.steps)
        .sum();
    steps as f64 / p.specs.len() as f64
}

// ------------------------------------------------------------ ladder

/// The predicate and aggregate inputs of a plan of the shape
/// `Aggregate(Filter(Scan lineitem))` — Q1, Q6 and every family
/// member. Other shapes have no kernel replay.
fn scan_agg_shape(plan: &PhysicalPlan) -> Option<(&Predicate, Vec<&ScalarExpr>)> {
    let PhysicalPlan::Aggregate { input, aggs, .. } = plan else {
        return None;
    };
    let PhysicalPlan::Filter {
        input, predicate, ..
    } = input.as_ref()
    else {
        return None;
    };
    if !matches!(input.as_ref(), PhysicalPlan::Scan { table, .. } if table == "lineitem") {
        return None;
    }
    let exprs = aggs
        .iter()
        .filter_map(|(_, agg)| match agg {
            Agg::Count => None,
            Agg::Sum(e) | Agg::Avg(e) | Agg::Min(e) | Agg::Max(e) => Some(e),
        })
        .collect();
    Some((predicate, exprs))
}

/// Replays the kernels of one `Aggregate(Filter(Scan))` query the way
/// the operators stream them: per input page, select, repack the
/// survivors, and evaluate the aggregate inputs over each output page
/// as it fills. Group-key hashing and accumulation have no public
/// kernel and stay in the operator rung.
fn replay_scan_agg(
    t: &mut Tracer,
    pages: &[Arc<Page>],
    schema: &Arc<Schema>,
    predicate: &Predicate,
    exprs: &[&ScalarExpr],
) -> Result<(), String> {
    let (pred, progs) = t.span("vexpr.compile", |_| {
        let progs: Result<Vec<_>, _> = exprs
            .iter()
            .map(|e| CompiledExpr::compile_f64(e, schema))
            .collect();
        (CompiledPredicate::compile(predicate, schema), progs)
    });
    let pred = pred.map_err(|e| format!("replay compile: {e}"))?;
    let progs = progs.map_err(|e| format!("replay compile: {e}"))?;

    let (mut scratch, mut sel, mut col) = (ExprScratch::default(), Vec::new(), Vec::new());
    let mut builder = PageBuilder::new(schema.clone());
    let [mut select_t, mut copy_t, mut eval_t] = [Duration::ZERO; 3];
    let mut eval = |page: &Page, scratch: &mut ExprScratch| {
        for prog in &progs {
            prog.eval_f64_into(page, scratch, &mut col);
            black_box(&col);
        }
    };
    for page in pages {
        let t0 = Instant::now();
        pred.select(page, &mut scratch, &mut sel);
        let t1 = Instant::now();
        let mut full = None;
        let mut taken = 0;
        while taken < sel.len() {
            if builder.is_full() {
                full = Some(builder.finish_and_reset());
            }
            taken += page.copy_rows_into(&sel[taken..], &mut builder);
        }
        let t2 = Instant::now();
        if let Some(out) = full {
            eval(&out, &mut scratch);
        }
        select_t += t1 - t0;
        copy_t += t2 - t1;
        eval_t += t2.elapsed();
    }
    if !builder.is_empty() {
        let t2 = Instant::now();
        eval(&builder.finish(), &mut scratch);
        eval_t += t2.elapsed();
    }
    t.record_totals(&[
        ("vexpr.select", select_t),
        ("storage.copy_rows", copy_t),
        ("vexpr.eval", eval_t),
    ]);
    Ok(())
}

/// Records the rungs beneath one iteration of `p`: the wiring path
/// (`wiring.instantiate` + `sim.run` per query, no engine) and the
/// kernel replays (no operators). On `thread_share`, whose executor is
/// the oracle, the middle rung is a serial `reference.execute` of the
/// same queries and there is no kernel rung.
pub fn ladder_replay(p: &Prepared, t: &mut Tracer) -> Result<(), String> {
    let lineitem = p.catalog.expect("lineitem");
    let (li_pages, li_schema) = (lineitem.pages(), lineitem.schema());

    if p.kind == Kind::ThreadShare {
        let copies = [
            (0, threads::UNSHARED_M + threads::SHARED_M),
            (1, threads::PARALLEL_M),
        ];
        t.span("ladder.wiring", |t| {
            for (spec, n) in copies {
                for _ in 0..n {
                    t.span("reference.execute", |_| {
                        black_box(reference::execute(&p.catalog, &p.specs[spec].plan).len());
                    });
                }
            }
        });
        return Ok(());
    }

    // The queries one iteration runs, in order.
    let (queries, engine): (Vec<&QuerySpec>, &EngineConfig) =
        match (p.service_schedule(), p.service_cfg()) {
            (Some(schedule), Some(cfg)) => (schedule.iter().map(|(_, s)| s).collect(), &cfg.engine),
            _ => (p.specs.iter().collect(), &p.engine),
        };
    let cfg = wiring_cfg(engine, engine.memory.clone());

    t.span("ladder.wiring", |t| {
        for spec in &queries {
            let mut sim = Simulator::new(engine.contexts);
            let wired = t.span("wiring.instantiate", |_| {
                wiring::instantiate(&mut sim, &p.catalog, &spec.plan, "ladder", &cfg)
            });
            let (rx, _ops, res) = wired.map_err(|e| format!("ladder wiring: {e}"))?;
            t.span("sim.run", |_| {
                wiring::run_and_collect(&mut sim, rx, engine.sink_cost, &res.fault)
            })
            .map_err(|e| format!("ladder run: {e}"))?;
        }
        Ok::<(), String>(())
    })?;

    t.span("ladder.kernels", |t| {
        for spec in &queries {
            if let Some((predicate, exprs)) = scan_agg_shape(&spec.plan) {
                replay_scan_agg(t, li_pages, li_schema, predicate, &exprs)?;
            }
        }
        if matches!(p.kind, Kind::JoinSort | Kind::JoinSortSpill) {
            // `join_agg`'s build and probe; Q4's and Q13's joins and the
            // sort have no public kernel and stay in the operator rung.
            let orders = p.catalog.expect("orders");
            let table = t.span("ops.join_build", |_| {
                build_table(orders.pages(), 0, orders.schema().row_width())
            });
            t.span("ops.join_probe", |_| {
                black_box(probe_table(&table, li_pages, li::ORDERKEY));
            });
        }
        if p.kind == Kind::JoinSortSpill {
            // One `lineitem` of spill I/O; `storage.spill_bytes_per_input_byte`
            // says how many the operators really wrote.
            let file = t.span("storage.spill_write", |_| {
                spill_write(&p.spill_dir, li_pages, li_schema)
            })?;
            black_box(t.span("storage.spill_read", |_| spill_read(file))?);
        }
        Ok::<(), String>(())
    })
}
