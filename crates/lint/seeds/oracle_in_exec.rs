// Rule 5: the oracle, its tree walk and its per-row LIKE as a code path.
use crate::{expr::Predicate, expr::ScalarExpr, reference, PhysicalPlan};
use cordoba_storage::{Catalog, TupleRef};
fn slow(c: &Catalog, p: &PhysicalPlan) -> usize { reference::execute(c, p).len() + reference::execute_table(c, p).row_count() } //~ clippy::disallowed_methods clippy::disallowed_methods
fn keep(p: &Predicate, e: &ScalarExpr, t: &TupleRef<'_>) -> bool { p.eval(t) && e.eval(t).as_f64().is_some() } //~ clippy::disallowed_methods clippy::disallowed_methods
fn special(comment: &str) -> bool { reference::like_match(comment, "%special%requests%") } //~ clippy::disallowed_methods
