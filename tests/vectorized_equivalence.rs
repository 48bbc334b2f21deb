//! The vectorized execution path agrees with the tree walk: compiled
//! predicate and expression programs with the tree-walking evaluators,
//! row for row and bit for bit, over the differential fuzzer's (`fuzz`)
//! tables and expressions; and each vectorized operator task with
//! `exec::reference`, over fuzzer slices whose plans hold it. A failing
//! plan case prints its number for `REGRESSIONS` in
//! `tests/equivalence.rs`. The kernels' own checks (compiled `LIKE`,
//! radix order, `BuildTable` lookups, typed errors) are in
//! `crates/exec/tests/vectorized_equivalence.rs`.

mod fuzz;

use cordoba::exec::expr::Agg;
use cordoba::exec::PhysicalPlan;
use cordoba::exec::{CompiledExpr, CompiledPredicate, ExprScratch};
use fuzz::Case;
use fuzz::Substrate::{self, Batch, Threads};

/// Cases per operator slice.
const CASES: u64 = 4;

/// Runs `cases` cases on `substrate` whose plans hold `op`.
fn op_slice(op: &'static str, substrate: Substrate, cases: u64, floor: &[&str]) {
    let (name, keep) = (format!("vectorized {op}"), move |c: &Case| c.has(op));
    fuzz::run_slice(&name, substrate, cases, fuzz::any, keep, floor);
}

/// `CompiledPredicate::select` picks exactly the rows the tree-walking
/// `Predicate::eval` accepts, page by page.
#[test]
fn compiled_predicate_matches_tree_walk() {
    let mut scratch = ExprScratch::default();
    for n in 0..256 {
        let (table, pred, _) = fuzz::expressions(n);
        let compiled = CompiledPredicate::compile(&pred, table.schema()).expect("compiles");
        let mut sel = Vec::new();
        for page in table.pages() {
            compiled.select(page, &mut scratch, &mut sel);
            let rows = page.tuples().enumerate();
            let want: Vec<u32> = rows
                .filter_map(|(r, t)| pred.eval(&t).then_some(r as u32))
                .collect();
            assert_eq!(sel, want, "seed {n}: {pred:?}");
        }
    }
}

/// `CompiledExpr::eval_f64_into` agrees bit for bit with the
/// tree-walking `ScalarExpr::eval` coerced to `f64`.
#[test]
fn compiled_expr_matches_tree_walk() {
    let mut scratch = ExprScratch::default();
    for n in 0..64 {
        let (table, _, expr) = fuzz::expressions(n);
        let compiled = CompiledExpr::compile(&expr, table.schema()).expect("compiles");
        let mut out = Vec::new();
        for page in table.pages() {
            compiled.eval_f64_into(page, &mut scratch, &mut out);
            assert_eq!(out.len(), page.rows());
            for (got, t) in out.iter().zip(page.tuples()) {
                let want = expr.eval(&t).as_f64().expect("numeric expression");
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "seed {n}: {expr:?}: {got} vs {want}"
                );
            }
        }
    }
}

#[test]
fn vectorized_filter_matches_reference() {
    op_slice("filter", Batch, CASES, &["filter"]);
}

/// Pass-through, numeric, string and date literal columns.
#[test]
fn vectorized_project_matches_reference() {
    op_slice("project", Batch, CASES, &["project"]);
}

/// No group, one key and two keys of every type.
#[test]
fn vectorized_aggregate_matches_reference() {
    op_slice("aggregate", Batch, CASES, &["aggregate"]);
}

/// Aggregate lists whose entries share an input, the list program's
/// merge, bit for bit, grouped on floats holding `0.0`, `-0.0` and NaN
/// among other keys.
#[test]
fn vectorized_aggregate_with_shared_inputs_matches_reference() {
    let input = |a: &Agg| match a {
        Agg::Count => None,
        Agg::Sum(e) | Agg::Avg(e) | Agg::Min(e) | Agg::Max(e) => Some(e.clone()),
    };
    let shares = |p: &PhysicalPlan| match p {
        PhysicalPlan::Aggregate { aggs, .. } => {
            let inputs: Vec<_> = aggs.iter().filter_map(|(_, a)| input(a)).collect();
            (1..inputs.len()).any(|i| inputs[..i].contains(&inputs[i]))
        }
        _ => false,
    };
    let keep = |c: &Case| c.nodes().into_iter().any(shares);
    let name = "vectorized_aggregate_with_shared_inputs_matches_reference";
    fuzz::run_slice(name, Batch, CASES, fuzz::any, keep, &["aggregate"]);
}

/// The arena-backed hash join, every kind.
#[test]
fn vectorized_hash_join_matches_reference() {
    op_slice("hashjoin", Threads, CASES, &fuzz::JOIN_KINDS);
}

/// Sorted scans on 64 B to 4 KiB pages and sorts, hot keys included: an
/// equal-key group spans pages.
#[test]
fn vectorized_merge_join_matches_reference() {
    let floor = ["mergejoin", "merge-span"];
    op_slice("mergejoin", Batch, 2 * CASES, &floor);
}

/// Equi and random predicates over candidate pages.
#[test]
fn vectorized_nlj_matches_reference() {
    op_slice("nlj", Batch, CASES, &["nlj"]);
}

/// One or two keys of every type, floats in total order, ties stable.
#[test]
fn vectorized_sort_matches_reference() {
    op_slice("sort", Batch, CASES, &["sort"]);
}
