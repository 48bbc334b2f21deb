//! The simulator and the analytical model must agree on pipelined
//! execution rates: a synthetic pipeline with known per-tuple costs,
//! run under the simulator, must achieve the model's x(n) within a few
//! percent (pipeline-fill and page-granularity effects).

use cordoba::exec::ops::{Fanout, FilterKernel, OperatorShell, ScanKernel, SinkKernel};
use cordoba::exec::{FaultCell, OpCost};
use cordoba::model::{OperatorSpec, PlanSpec, QueryModel};
use cordoba::sim::{channel, Simulator};
use cordoba::storage::{DataType, Field, Schema, TableBuilder, Value};

const ROWS: usize = 20_000;

/// Builds scan -> filterless relay stages with given per-tuple costs,
/// runs on `contexts`, returns tuples per virtual time.
fn simulated_rate(stage_costs: &[f64], contexts: usize) -> f64 {
    let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
    let mut tb = TableBuilder::new("t", schema.clone());
    for i in 0..ROWS {
        tb.push_row(&[Value::Int(i as i64)]);
    }
    let table = tb.finish();
    let mut sim = Simulator::new(contexts);
    let (tx0, mut prev_rx) = channel::bounded(16);
    let scan = ScanKernel::new(table.pages().to_vec(), OpCost::per_tuple(stage_costs[0]));
    let fanout = Fanout::new(vec![tx0.into()], 0.0);
    let scan = OperatorShell::new(Box::new(scan), vec![], fanout, FaultCell::default());
    sim.spawn("scan", Box::new(scan));
    // Middle stages: pass-through filters with the given per-tuple work
    // (exec's Source relay costs nothing, so a filter kernel with
    // `Predicate::True` and the exact cost, behind the operator shell).
    for (i, &c) in stage_costs[1..].iter().enumerate() {
        let (tx, rx) = channel::bounded(16);
        let pass = cordoba::exec::expr::Predicate::True;
        let filter = FilterKernel::new(schema.clone(), pass, OpCost::per_tuple(c))
            .expect("True predicate compiles");
        let fanout = Fanout::new(vec![tx.into()], 0.0);
        let stage = OperatorShell::new(
            Box::new(filter),
            vec![prev_rx.into()],
            fanout,
            FaultCell::default(),
        );
        sim.spawn(format!("stage{i}"), Box::new(stage));
        prev_rx = rx;
    }
    let sink = Box::new(SinkKernel::new(OpCost::per_tuple(0.0)));
    let none = Fanout::none();
    let sink = OperatorShell::new(sink, vec![prev_rx.into()], none, FaultCell::default());
    sim.spawn("sink", Box::new(sink));
    let out = sim.run_to_idle();
    assert!(out.completed_all(), "{out:?}");
    ROWS as f64 / sim.now() as f64
}

fn model_rate(stage_costs: &[f64], contexts: usize) -> f64 {
    let plan = PlanSpec::pipeline(
        stage_costs
            .iter()
            .enumerate()
            .map(|(i, &c)| OperatorSpec::new(format!("s{i}"), vec![c], vec![]))
            .collect(),
    )
    .unwrap();
    QueryModel::new(&plan).rate(contexts as f64).unwrap()
}

fn assert_close(stage_costs: &[f64], contexts: usize, tolerance: f64) {
    let sim = simulated_rate(stage_costs, contexts);
    let model = model_rate(stage_costs, contexts);
    let rel = (sim - model).abs() / model;
    assert!(
        rel < tolerance,
        "costs {stage_costs:?} n={contexts}: sim {sim:.6} vs model {model:.6} ({:.1}% off)",
        rel * 100.0
    );
}

#[test]
fn single_context_rate_is_one_over_total_work() {
    assert_close(&[10.0, 30.0, 10.0], 1, 0.03);
}

#[test]
fn saturated_pipeline_runs_at_bottleneck_rate() {
    // u = 50/30 < 2 contexts: peak rate 1/30.
    assert_close(&[10.0, 30.0, 10.0], 2, 0.05);
    assert_close(&[10.0, 30.0, 10.0], 8, 0.05);
}

#[test]
fn balanced_pipeline_time_shares_fairly() {
    // u = 3 balanced stages; n = 2 -> x = 2/u' (time-sharing regime).
    assert_close(&[10.0, 10.0, 10.0], 2, 0.06);
}

#[test]
fn deep_pipeline_tracks_model_across_context_counts() {
    // Uneven stages in the time-sharing regime accumulate round-robin
    // granularity effects; ~10% agreement is the realistic bound here
    // (the paper's own model carries 5-30% error against hardware).
    let costs = [4.0, 8.0, 2.0, 16.0, 6.0];
    for n in [1usize, 2, 3, 4, 8] {
        assert_close(&costs, n, 0.12);
    }
}

#[test]
fn shared_fanout_matches_model_pivot_equation() {
    // A scan with out_per_tuple = s serving M consumers must be active
    // exactly (w + M s) per tuple — the model's p_phi(M).
    let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
    let mut tb = TableBuilder::new("t", schema.clone());
    for i in 0..5000 {
        tb.push_row(&[Value::Int(i)]);
    }
    let table = tb.finish();
    for m in [1usize, 2, 4, 8] {
        let mut sim = Simulator::new(m + 1);
        let mut txs = Vec::new();
        for _ in 0..m {
            let (tx, rx) = channel::bounded(16);
            txs.push(tx.into());
            let sink = Box::new(SinkKernel::new(OpCost::per_tuple(0.0)));
            let none = Fanout::none();
            let sink = OperatorShell::new(sink, vec![rx.into()], none, FaultCell::default());
            sim.spawn("sink", Box::new(sink));
        }
        let scan = ScanKernel::new(table.pages().to_vec(), OpCost::new(9.66, 10.34));
        let fanout = Fanout::new(txs, 10.34);
        let scan = OperatorShell::new(Box::new(scan), vec![], fanout, FaultCell::default());
        let scan = sim.spawn("scan", Box::new(scan));
        sim.run_to_idle();
        let stats = sim.task_stats(scan);
        let p = stats.active as f64 / stats.progress;
        let expected = 9.66 + 10.34 * m as f64;
        assert!(
            (p - expected).abs() / expected < 0.01,
            "m={m}: p={p:.3} vs w+Ms={expected:.3}"
        );
    }
}
