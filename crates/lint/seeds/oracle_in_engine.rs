// Rule 5 from the engine, the oracle renamed on the way in.
use cordoba_exec::{expr::Predicate, expr::ScalarExpr, reference as oracle, PhysicalPlan};
use cordoba_storage::{Catalog, TupleRef};
fn slow(c: &Catalog, p: &PhysicalPlan) -> usize { oracle::execute(c, p).len() + oracle::execute_table(c, p).row_count() } //~ clippy::disallowed_methods clippy::disallowed_methods
fn keep(p: &Predicate, e: &ScalarExpr, t: &TupleRef<'_>) -> bool { p.eval(t) && e.eval(t).as_f64().is_some() } //~ clippy::disallowed_methods clippy::disallowed_methods
fn special(comment: &str) -> bool { oracle::like_match(comment, "%special%requests%") } //~ clippy::disallowed_methods
