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

use cordoba_exec::expr::{Agg, CmpOp, Predicate, ScalarExpr};
use cordoba_exec::wiring::{self, WiringConfig};
use cordoba_exec::{OpCost, ParallelConfig, PhysicalPlan};
use cordoba_sim::Simulator;
use cordoba_storage::{Catalog, Date, Value};

/// One serial-vs-parallel virtual-time pair.
pub(crate) struct ParPair {
    /// Input rows processed.
    pub rows: usize,
    /// Serial virtual makespan.
    pub serial: u64,
    /// Virtual makespan with the morsel workers.
    pub parallel: u64,
}

impl ParPair {
    /// Serial / parallel — how much the morsel wiring contracts the
    /// makespan.
    pub(crate) fn speedup(&self) -> f64 {
        self.serial as f64 / self.parallel as f64
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
    name: &str,
    plan: &PhysicalPlan,
    workers: usize,
) -> ParPair {
    let contexts = workers.max(2);
    let (serial_rows, serial_t) = run_virtual(catalog, plan, 1, contexts);
    let (par_rows, par_t) = run_virtual(catalog, plan, workers, contexts);
    assert!(
        rows_approx_eq(&serial_rows, &par_rows),
        "{name}: parallel wiring changed the result rows"
    );
    ParPair {
        rows: catalog
            .expect("lineitem")
            .pages()
            .iter()
            .map(|p| p.rows())
            .sum(),
        serial: serial_t,
        parallel: par_t,
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
            let pair = virtual_pair(&cat, name, &plan, 4);
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
}
