//! Morsel-parallelism benchmarks: the same TPC-H plan executed with
//! the classic one-task-per-operator wiring and with `k` morsel
//! workers.
//!
//! Pipeline-shaped plans (scan → filter → project, scan → filter →
//! aggregate) are measured in **simulator virtual time**: the morsel
//! wiring spreads per-tuple work across `k` worker shells on `k`
//! contexts, so the virtual makespan contracts by roughly the work
//! split — a deterministic, host-independent record of what the
//! threading model buys on a `k`-context machine. (Wall clock would be
//! meaningless here: CI containers often pin this harness to one core.)
//!
//! The hash-join pair is the honest counterpoint: it runs the same
//! worker shells on OS threads ([`wiring::run_local`]) against the
//! serial wiring and reports wall clock, whatever the host actually
//! delivers — printed by `bench_ops --filter par_hash_join`, never
//! committed.

use crate::output::Json;
use cordoba_exec::expr::{Agg, CmpOp, Predicate, ScalarExpr};
use cordoba_exec::wiring::{self, WiringConfig};
use cordoba_exec::{OpCost, ParallelConfig, PhysicalPlan, QueryResources};
use cordoba_sim::Simulator;
use cordoba_storage::{Catalog, Date, Value};
use std::hint::black_box;
use std::time::Instant;

/// One serial-vs-parallel measurement pair.
pub(crate) struct ParPair {
    /// Scenario name (stable across PRs).
    pub name: &'static str,
    /// Input rows processed.
    pub rows: usize,
    /// Morsel workers on the parallel side.
    pub workers: usize,
    /// Serial measurement (virtual time units or nanoseconds).
    pub serial: f64,
    /// Parallel measurement in the same units.
    pub parallel: f64,
    /// `"sim-vtime"` or `"wall-clock"`.
    pub substrate: &'static str,
    /// One-line description.
    pub note: &'static str,
}

impl ParPair {
    /// Serial / parallel — how much the morsel wiring contracts the
    /// measurement.
    pub(crate) fn speedup(&self) -> f64 {
        self.serial / self.parallel
    }

    /// The pair's `BENCH_ops.json` record.
    pub(crate) fn json(&self) -> Json {
        Json::Obj(vec![
            ("name", self.name.into()),
            ("rows", self.rows.into()),
            ("workers", self.workers.into()),
            ("substrate", self.substrate.into()),
            ("serial", Json::fixed(self.serial, 0)),
            ("parallel", Json::fixed(self.parallel, 0)),
            ("speedup", Json::fixed(self.speedup(), 2)),
            ("note", self.note.into()),
        ])
    }
}

/// Row equality up to float-summation reassociation: merging
/// per-worker partial sums adds `f64` values in a different order than
/// one serial stream, so aggregate outputs may differ in the last few
/// ulps over real TPC-H data. (The proptest equivalence suites pin
/// bit-exact equality separately, using integer-valued floats.)
fn rows_approx_eq(a: &[Vec<Value>], b: &[Vec<Value>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(ra, rb)| {
            ra.len() == rb.len()
                && ra.iter().zip(rb).all(|(va, vb)| match (va, vb) {
                    (Value::Float(x), Value::Float(y)) => {
                        let scale = x.abs().max(y.abs()).max(1.0);
                        (x - y).abs() <= 1e-9 * scale
                    }
                    _ => va == vb,
                })
        })
}

/// TPC-H Q6's selection over `lineitem` (date window, discount band,
/// quantity bound) — the canonical scan predicate.
fn q6_predicate() -> Predicate {
    Predicate::And(vec![
        Predicate::col_cmp(7, CmpOp::Ge, Date::from_ymd(1994, 1, 1)),
        Predicate::col_cmp(7, CmpOp::Lt, Date::from_ymd(1995, 1, 1)),
        Predicate::col_cmp(3, CmpOp::Ge, 0.05),
        Predicate::col_cmp(3, CmpOp::Le, 0.07),
        Predicate::col_cmp(1, CmpOp::Lt, 24.0),
    ])
}

/// Q6/Q1's revenue expression: `l_extendedprice * (1 - l_discount)`.
fn revenue_expr() -> ScalarExpr {
    ScalarExpr::Mul(
        Box::new(ScalarExpr::col(2)),
        Box::new(ScalarExpr::Sub(
            Box::new(ScalarExpr::FloatLit(1.0)),
            Box::new(ScalarExpr::col(3)),
        )),
    )
}

/// Q1's `(l_returnflag, l_linestatus)` grouping.
fn q1_group_by() -> Vec<usize> {
    vec![5, 6]
}

fn scan(table: &str) -> Box<PhysicalPlan> {
    // Scan-dominant costs: reading and filtering the pages is the bulk
    // of the work, which is exactly the shape morsel parallelism
    // targets (the paper's below-pivot `w`).
    Box::new(PhysicalPlan::Scan {
        table: table.into(),
        cost: OpCost::new(4.0, 1.0),
    })
}

/// `σ_q6(lineitem)` projected to revenue — the parallel pipeline shape.
pub(crate) fn pipeline_plan() -> PhysicalPlan {
    PhysicalPlan::Project {
        input: Box::new(PhysicalPlan::Filter {
            input: scan("lineitem"),
            predicate: q6_predicate(),
            cost: OpCost::new(1.0, 0.5),
        }),
        exprs: vec![("revenue".into(), revenue_expr())],
        cost: OpCost::new(1.0, 0.5),
    }
}

/// Q1-style grouped sum over the Q6 selection — the partial-aggregate
/// merge shape.
pub(crate) fn aggregate_plan() -> PhysicalPlan {
    PhysicalPlan::Aggregate {
        input: Box::new(PhysicalPlan::Filter {
            input: scan("lineitem"),
            predicate: q6_predicate(),
            cost: OpCost::new(1.0, 0.5),
        }),
        group_by: q1_group_by(),
        aggs: vec![("revenue".into(), Agg::Sum(revenue_expr()))],
        cost: OpCost::new(1.0, 0.5),
    }
}

/// Runs `plan` to completion under `workers` morsel workers on
/// `contexts` simulated contexts; returns `(rows, virtual makespan)`.
///
/// # Panics
///
/// Panics if the plan fails to wire or faults mid-run.
fn run_virtual(
    catalog: &Catalog,
    plan: &PhysicalPlan,
    workers: usize,
    contexts: usize,
) -> (Vec<Vec<Value>>, u64) {
    let cfg = WiringConfig {
        parallel: ParallelConfig {
            workers,
            morsel_pages: 1,
        },
        ..WiringConfig::default()
    };
    let mut sim = Simulator::new(contexts);
    let (rx, _ops, res) =
        wiring::instantiate(&mut sim, catalog, plan, "par-bench", &cfg).expect("plan wires");
    let rows = wiring::run_and_collect(&mut sim, rx, OpCost::default(), &res.fault)
        .expect("parallel bench plan must complete");
    (rows, sim.now())
}

/// Measures one virtual-time pair: serial wiring vs `workers` morsel
/// workers, both on `workers` contexts (same machine, different
/// wiring). Asserts the two runs return identical rows.
pub(crate) fn virtual_pair(
    catalog: &Catalog,
    name: &'static str,
    plan: &PhysicalPlan,
    workers: usize,
    note: &'static str,
) -> ParPair {
    let contexts = workers.max(2);
    let (serial_rows, serial_t) = run_virtual(catalog, plan, 1, contexts);
    let (par_rows, par_t) = run_virtual(catalog, plan, workers, contexts);
    assert!(
        rows_approx_eq(&serial_rows, &par_rows),
        "{name}: parallel wiring changed the result rows"
    );
    ParPair {
        name,
        rows: catalog
            .expect("lineitem")
            .pages()
            .iter()
            .map(|p| p.rows())
            .sum(),
        workers,
        serial: serial_t as f64,
        parallel: par_t as f64,
        substrate: "sim-vtime",
        note,
    }
}

/// Measures the real-thread hash-join pair: `orders ⋈ lineitem` through
/// the serial wiring vs the thread driver with `workers` morsel worker
/// threads per join input, wall clock. Both inputs are bare scans, so
/// the workers have no per-tuple work to split and the join itself is
/// one task: the pair prices the thread seam (one bounded-channel
/// hand-off per morsel of 4 KiB pages) rather than a speedup, and sits
/// below 1× wherever threads outnumber cores — the honest counterpart
/// of the virtual-time pairs.
pub(crate) fn join_wall_clock_pair(catalog: &Catalog, workers: usize, samples: usize) -> ParPair {
    let plan = crate::spill_kernels::join_plan();
    let serial_cfg = WiringConfig::serial();
    let par_cfg = WiringConfig {
        parallel: ParallelConfig::with_workers(workers),
        ..WiringConfig::serial()
    };
    let run = |cfg: &WiringConfig| {
        wiring::run_local(catalog, &plan, cfg, &QueryResources::default()).expect("join runs")
    };
    assert_eq!(
        wiring::page_rows(&run(&serial_cfg)),
        wiring::page_rows(&run(&par_cfg)),
        "the thread driver changed the join's rows"
    );
    let time_ns = |cfg: &WiringConfig| {
        let mut best = f64::INFINITY;
        for _ in 0..samples.max(1) {
            let t = Instant::now();
            black_box(run(cfg));
            best = best.min(t.elapsed().as_secs_f64() * 1e9);
        }
        best
    };
    let rows = ["lineitem", "orders"]
        .iter()
        .map(|t| {
            catalog
                .expect(t)
                .pages()
                .iter()
                .map(|p| p.rows())
                .sum::<usize>()
        })
        .sum();
    ParPair {
        name: "par_hash_join",
        rows,
        workers,
        serial: time_ns(&serial_cfg),
        parallel: time_ns(&par_cfg),
        substrate: "wall-clock",
        note: "serial wiring vs morsel worker groups on real threads feeding one hash join; bare-scan inputs leave the workers nothing but the per-morsel hand-off, so < 1x when threads outnumber cores",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spill_kernels::catalog;

    #[test]
    fn virtual_pairs_show_parallel_contraction() {
        let cat = catalog(0.002);
        for (name, plan) in [
            ("par_scan_filter", pipeline_plan()),
            ("par_aggregate", aggregate_plan()),
        ] {
            let pair = virtual_pair(&cat, name, &plan, 4, "");
            assert!(
                pair.speedup() >= 2.0,
                "{name}: expected >= 2x virtual contraction at 4 workers, got {:.2}x \
                 (serial {} parallel {})",
                pair.speedup(),
                pair.serial,
                pair.parallel
            );
        }
    }

    #[test]
    fn morsel_workers_do_the_pinned_work() {
        // The summed virtual active time of a pair's four worker tasks
        // at the committed scale, pinned to the unit: a worker charges
        // the scan's and each kernel's input cost of the page it runs
        // (at least 1 a page) and nothing for its hand-offs, so the sum
        // does not depend on how the schedule spreads the morsels.
        let cat = catalog(0.02);
        for (name, plan) in [
            ("par_scan_filter", pipeline_plan()),
            ("par_aggregate", aggregate_plan()),
        ] {
            let cfg = WiringConfig {
                parallel: ParallelConfig {
                    workers: 4,
                    morsel_pages: 1,
                },
                ..WiringConfig::default()
            };
            let mut sim = Simulator::new(4);
            let (rx, tasks, res) =
                wiring::instantiate(&mut sim, &cat, &plan, name, &cfg).expect("plan wires");
            wiring::run_and_collect(&mut sim, rx, OpCost::default(), &res.fault).expect("runs");
            let workers = tasks.iter().filter(|(_, n)| n.ends_with(']'));
            let ids: Vec<_> = workers.filter_map(|(id, _)| *id).collect();
            let active: u64 = ids.iter().map(|&id| sim.task_stats(id).active).sum();
            assert_eq!((ids.len(), active), (4, 602_953), "{name}");
        }
    }

    #[test]
    fn join_pair_preserves_results() {
        let cat = catalog(0.002);
        let pair = join_wall_clock_pair(&cat, 4, 1);
        assert!(pair.serial > 0.0 && pair.parallel > 0.0);
        assert_eq!(pair.substrate, "wall-clock");
    }
}
