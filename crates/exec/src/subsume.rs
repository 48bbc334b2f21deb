//! Semantic fragment matching: plan fingerprints, a predicate-
//! subsumption lattice, and residual predicates.
//!
//! Structural equality (`PhysicalPlan == PhysicalPlan`) only detects
//! byte-identical sub-plans. Real shared-scan wins come from *overlap*:
//! `σ[1994 ≤ shipdate < 1995](lineitem)` is entirely contained in
//! `σ[1993 ≤ shipdate < 1996](lineitem)`, so a consumer of the narrow
//! fragment can be fed from the wide one through a cheap *residual*
//! filter (the clauses of the narrow predicate not already implied by
//! the wide one, evaluated with selection vectors on the shared pivot's
//! output).
//!
//! Three pieces:
//!
//! * [`fingerprint`] — a canonical hash of a fragment's *shape*: the
//!   sub-plan with its root filter chain peeled off and the predicate
//!   constants hoisted out. Equal fingerprints are a necessary
//!   condition for subsumption, so the engine's fragment cache can
//!   bucket in-flight and completed fragments by fingerprint and only
//!   run the full lattice test within a bucket.
//! * `NormPred` — a conjunction normalized into per-column intervals
//!   over `Int`/`Float`/`Date` columns plus an opaque "rest" (clauses
//!   the lattice cannot order, compared structurally). Interval
//!   containment per column gives the subsumption partial order.
//! * [`subsume_residual`] — the complete test: `wide` subsumes `narrow`
//!   iff their filter-peeled bases are structurally equal and every
//!   constraint of `wide` is implied by `narrow`; on success it returns
//!   the minimal residual predicate ([`Predicate::True`] for an exact
//!   match, so exact sharing wires identically to the historic path).

use crate::expr::{CmpOp, Predicate, ScalarExpr};
use crate::plan::PhysicalPlan;
use crate::OpCost;
use cordoba_storage::Date;
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

/// A typed constant a range clause compares a column against. Only
/// `Int`, `Float` and `Date` participate in the lattice; string
/// comparisons stay in the structural "rest".
#[derive(Debug, Clone, Copy, PartialEq)]
enum BoundValue {
    /// Integer constant.
    Int(i64),
    /// Float constant.
    Float(f64),
    /// Date constant.
    Date(Date),
}

impl BoundValue {
    /// Same-type ordering; values of different types are incomparable
    /// (a clause mixing types falls back to the structural rest).
    fn cmp_same(&self, other: &Self) -> Option<Ordering> {
        match (self, other) {
            (BoundValue::Int(a), BoundValue::Int(b)) => Some(a.cmp(b)),
            (BoundValue::Float(a), BoundValue::Float(b)) => a.partial_cmp(b),
            (BoundValue::Date(a), BoundValue::Date(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Numeric view for coverage-width estimates (dates in days).
    fn as_f64(&self) -> f64 {
        match self {
            BoundValue::Int(v) => *v as f64,
            BoundValue::Float(v) => *v,
            BoundValue::Date(d) => d.0 as f64,
        }
    }
}

/// One side of a column interval: the constant plus whether it is
/// attained (`<=`/`>=` vs `<`/`>`).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Bound {
    /// The constant.
    value: BoundValue,
    /// Whether the endpoint itself satisfies the clause.
    inclusive: bool,
}

/// Whether a lower bound `wide` admits everything a lower bound
/// `narrow` admits (i.e. the half-space `{x ≥/> wide}` contains
/// `{x ≥/> narrow}`). `None` on either side means "unbounded".
fn lo_covers(wide: Option<Bound>, narrow: Option<Bound>) -> bool {
    match (wide, narrow) {
        (None, _) => true,
        (Some(_), None) => false,
        (Some(w), Some(n)) => match w.value.cmp_same(&n.value) {
            Some(Ordering::Less) => true,
            Some(Ordering::Equal) => w.inclusive || !n.inclusive,
            _ => false,
        },
    }
}

/// Mirror of [`lo_covers`] for upper bounds.
fn hi_covers(wide: Option<Bound>, narrow: Option<Bound>) -> bool {
    match (wide, narrow) {
        (None, _) => true,
        (Some(_), None) => false,
        (Some(w), Some(n)) => match w.value.cmp_same(&n.value) {
            Some(Ordering::Greater) => true,
            Some(Ordering::Equal) => w.inclusive || !n.inclusive,
            _ => false,
        },
    }
}

/// The interval a conjunction pins one column into.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct ColInterval {
    /// Greatest lower bound seen, if any.
    lo: Option<Bound>,
    /// Least upper bound seen, if any.
    hi: Option<Bound>,
}

impl ColInterval {
    /// Narrows the lower bound to `b` where `b` is tighter. Returns
    /// `false`, changing nothing, when `b` cannot be ordered against the
    /// bound in place (a literal of another type).
    fn tighten_lo(&mut self, b: Bound) -> bool {
        match self.lo {
            Some(old) if old.value.cmp_same(&b.value).is_none() => return false,
            // The new bound is tighter iff the old one covers it.
            Some(old) if !lo_covers(Some(old), Some(b)) => {}
            _ => self.lo = Some(b),
        }
        true
    }

    /// Mirror of [`ColInterval::tighten_lo`] for the upper bound.
    fn tighten_hi(&mut self, b: Bound) -> bool {
        match self.hi {
            Some(old) if old.value.cmp_same(&b.value).is_none() => return false,
            Some(old) if !hi_covers(Some(old), Some(b)) => {}
            _ => self.hi = Some(b),
        }
        true
    }

    /// Whether `self` (the wide interval) contains `other` (the narrow
    /// one): every row admitted by `other` is admitted by `self`.
    fn contains(&self, other: &ColInterval) -> bool {
        lo_covers(self.lo, other.lo) && hi_covers(self.hi, other.hi)
    }
}

/// A conjunction in normal form: per-column intervals plus the clauses
/// the lattice cannot order (`Or`, `Not`, `Like`, `Ne`, expression
/// comparisons), kept whole and compared structurally.
#[derive(Debug, Clone, Default, PartialEq)]
struct NormPred {
    /// Interval per constrained column index.
    bounds: BTreeMap<usize, ColInterval>,
    /// Conjuncts outside the lattice, in flattening order.
    rest: Vec<Predicate>,
}

impl NormPred {
    /// Normalizes a predicate treated as a conjunction. A range clause
    /// its column's interval cannot order (a literal of another type
    /// than the bound in place, or NaN) stays whole in `rest`.
    fn normalize(pred: &Predicate) -> Self {
        let mut norm = NormPred::default();
        for clause in flatten_conjuncts(pred) {
            let ordered = range_clause(clause).is_some_and(|(col, side)| {
                let iv = norm.bounds.entry(col).or_default();
                match side {
                    Side::Lo(b) => iv.tighten_lo(b),
                    Side::Hi(b) => iv.tighten_hi(b),
                    Side::Point(b) => iv.tighten_lo(b) && iv.tighten_hi(b),
                }
            });
            if !ordered {
                norm.rest.push(clause.clone());
            }
        }
        norm
    }

    /// Whether `self` (wide) subsumes `other` (narrow): every row
    /// satisfying `other` satisfies `self`. Interval containment per
    /// column; rest clauses of the wide side must appear structurally
    /// in the narrow side.
    fn subsumes(&self, other: &NormPred) -> bool {
        for (col, wide_iv) in &self.bounds {
            let narrow_iv = other.bounds.get(col).copied().unwrap_or_default();
            if !wide_iv.contains(&narrow_iv) {
                return false;
            }
        }
        self.rest.iter().all(|w| other.rest.contains(w))
    }
}

/// Which side of an interval a single range clause pins.
enum Side {
    Lo(Bound),
    Hi(Bound),
    Point(Bound),
}

/// Flattens nested `And`s into a clause list, dropping `True`.
fn flatten_conjuncts(pred: &Predicate) -> Vec<&Predicate> {
    fn walk<'a>(p: &'a Predicate, out: &mut Vec<&'a Predicate>) {
        match p {
            Predicate::True => {}
            Predicate::And(ps) => ps.iter().for_each(|p| walk(p, out)),
            other => out.push(other),
        }
    }
    let mut out = Vec::new();
    walk(pred, &mut out);
    out
}

fn literal(expr: &ScalarExpr) -> Option<BoundValue> {
    match expr {
        ScalarExpr::IntLit(v) => Some(BoundValue::Int(*v)),
        // NaN orders against no bound: the clause stays whole.
        ScalarExpr::FloatLit(v) if !v.is_nan() => Some(BoundValue::Float(*v)),
        ScalarExpr::DateLit(d) => Some(BoundValue::Date(*d)),
        _ => None,
    }
}

/// `col <op> literal` (or the mirrored `literal <op> col`) as an
/// interval side; anything else is outside the lattice.
fn range_clause(pred: &Predicate) -> Option<(usize, Side)> {
    let Predicate::Cmp { left, op, right } = pred else {
        return None;
    };
    let (col, op, value) = match (left, right) {
        (ScalarExpr::Col(c), _) => (*c, *op, literal(right)?),
        // `lit op col` is `col (mirror op) lit`.
        (_, ScalarExpr::Col(c)) => (*c, op.mirrored(), literal(left)?),
        _ => return None,
    };
    let side = match op {
        CmpOp::Ge => Side::Lo(Bound {
            value,
            inclusive: true,
        }),
        CmpOp::Gt => Side::Lo(Bound {
            value,
            inclusive: false,
        }),
        CmpOp::Le => Side::Hi(Bound {
            value,
            inclusive: true,
        }),
        CmpOp::Lt => Side::Hi(Bound {
            value,
            inclusive: false,
        }),
        CmpOp::Eq => Side::Point(Bound {
            value,
            inclusive: true,
        }),
        CmpOp::Ne => return None,
    };
    Some((col, side))
}

/// A pivot fragment decomposed for matching: the filter chain at its
/// root (conjoined into one predicate) over a base sub-plan.
#[derive(Debug, Clone)]
pub struct PeeledPivot<'a> {
    /// Every predicate of the root filter chain, outermost first.
    predicates: Vec<&'a Predicate>,
    /// The sub-plan below the filter chain.
    base: &'a PhysicalPlan,
    /// Cost of the innermost peeled filter (the natural cost to charge
    /// a residual filter), if the chain is non-empty.
    pub filter_cost: Option<OpCost>,
}

/// Peels the chain of `Filter` nodes at the root of `plan`. Filters are
/// the only row-preserving, schema-preserving operators, so residual
/// predicates are sound exactly when the differing clauses live in this
/// chain; anything below it must match structurally.
pub fn peel_filters(plan: &PhysicalPlan) -> PeeledPivot<'_> {
    let mut predicates = Vec::new();
    let mut filter_cost = None;
    let mut cur = plan;
    while let PhysicalPlan::Filter {
        input,
        predicate,
        cost,
    } = cur
    {
        predicates.push(predicate);
        filter_cost = Some(*cost);
        cur = input;
    }
    PeeledPivot {
        predicates,
        base: cur,
        filter_cost,
    }
}

/// Canonical fingerprint of a fragment's shareable shape: the base
/// sub-plan below the root filter chain, with the chain's predicate
/// constants (and the chain itself) hoisted out. Two fragments can only
/// subsume one another if their fingerprints are equal, so this is the
/// cache/bucket key for in-flight and completed shared fragments.
pub fn fingerprint(plan: &PhysicalPlan) -> u64 {
    let peeled = peel_filters(plan);
    let mut h = DefaultHasher::new();
    // Debug form is injective enough for a bucket key: structural
    // equality of the base is re-checked inside each bucket, so a
    // collision can never cause an unsound merge.
    format!("{:?}", peeled.base).hash(&mut h);
    h.finish()
}

/// The complete subsumption test. Returns the *residual* predicate a
/// consumer of `narrow` must apply to the output of `wide` — the
/// conjuncts of `narrow`'s filter chain not already implied by `wide` —
/// or `None` when `wide` does not subsume `narrow`.
///
/// `Some(Predicate::True)` means an exact match (no residual needed).
/// Soundness: `narrow ⊆ wide` row-wise, so re-applying the un-implied
/// clauses of `narrow` on `wide`'s output yields exactly the rows the
/// private `narrow` fragment would have produced, in the same order.
pub fn subsume_residual(wide: &PhysicalPlan, narrow: &PhysicalPlan) -> Option<Predicate> {
    let wide_p = peel_filters(wide);
    let narrow_p = peel_filters(narrow);
    if wide_p.base != narrow_p.base {
        return None;
    }
    let wide_np = NormPred::normalize(&conjoin(&wide_p.predicates));
    let narrow_pred = conjoin(&narrow_p.predicates);
    let narrow_np = NormPred::normalize(&narrow_pred);
    if !wide_np.subsumes(&narrow_np) {
        return None;
    }
    Some(residual_clauses(&wide_np, &wide_p.predicates, &narrow_pred))
}

fn conjoin(preds: &[&Predicate]) -> Predicate {
    match preds {
        [] => Predicate::True,
        [one] => (*one).clone(),
        many => Predicate::And(many.iter().map(|p| (*p).clone()).collect()),
    }
}

/// The minimal residual: every conjunct of `narrow` not implied by the
/// wide side's bounds (for range clauses) or present structurally (for
/// rest clauses).
fn residual_clauses(
    wide_np: &NormPred,
    wide_preds: &[&Predicate],
    narrow_pred: &Predicate,
) -> Predicate {
    let wide_rest: Vec<&Predicate> = wide_preds
        .iter()
        .flat_map(|p| flatten_conjuncts(p))
        .collect();
    let mut keep: Vec<Predicate> = Vec::new();
    for clause in flatten_conjuncts(narrow_pred) {
        let implied = match range_clause(clause) {
            Some((col, side)) => {
                let wide_iv = wide_np.bounds.get(&col).copied().unwrap_or_default();
                match side {
                    // The clause's half-space must contain the wide
                    // interval for the wide output to already satisfy it.
                    Side::Lo(b) => lo_covers(Some(b), wide_iv.lo),
                    Side::Hi(b) => hi_covers(Some(b), wide_iv.hi),
                    Side::Point(b) => {
                        lo_covers(Some(b), wide_iv.lo) && hi_covers(Some(b), wide_iv.hi)
                    }
                }
            }
            None => wide_rest.contains(&clause),
        };
        if !implied {
            keep.push(clause.clone());
        }
    }
    match <[_; 1]>::try_from(keep) {
        Ok([only]) => only,
        Err(keep) if keep.is_empty() => Predicate::True,
        Err(keep) => Predicate::And(keep),
    }
}

/// Floor for coverage estimates: keeps downstream `1/c` scalings finite.
pub const MIN_COVERAGE: f64 = 0.01;

/// Per-side default selectivity when the wide fragment leaves a column
/// unconstrained that the narrow one pins (the textbook 1/2 guess).
const HALF: f64 = 0.5;

/// Estimated fraction of `wide`'s output that satisfies `narrow` — the
/// coverage `c_m` the partial-overlap model prices. The estimate
/// multiplies per-column interval-width ratios where both sides pin
/// both ends, and charges the default selectivity ½ per
/// constraint side the narrow fragment adds over the wide one. Clamped
/// to `[MIN_COVERAGE, 1]`; exact matches return exactly 1.
pub fn coverage_estimate(wide: &PhysicalPlan, narrow: &PhysicalPlan) -> f64 {
    let wide_np = NormPred::normalize(&conjoin(&peel_filters(wide).predicates));
    let narrow_np = NormPred::normalize(&conjoin(&peel_filters(narrow).predicates));
    let mut c = 1.0_f64;
    for (col, niv) in &narrow_np.bounds {
        let wiv = wide_np.bounds.get(col).copied().unwrap_or_default();
        if wiv == *niv {
            continue;
        }
        match (width(&wiv), width(niv)) {
            (Some(w), Some(n)) if w > 0.0 => c *= (n / w).clamp(0.0, 1.0),
            _ => {
                // Count the sides the narrow fragment newly constrains.
                if niv.lo.is_some() && !bound_eq(niv.lo, wiv.lo) {
                    c *= HALF;
                }
                if niv.hi.is_some() && !bound_eq(niv.hi, wiv.hi) {
                    c *= HALF;
                }
            }
        }
    }
    // Rest clauses the narrow side adds beyond the wide side.
    let extra_rest = narrow_np
        .rest
        .iter()
        .filter(|r| !wide_np.rest.contains(r))
        .count();
    c *= HALF.powi(extra_rest as i32);
    c.clamp(MIN_COVERAGE, 1.0)
}

fn bound_eq(a: Option<Bound>, b: Option<Bound>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => a == b,
        (None, None) => true,
        _ => false,
    }
}

fn width(iv: &ColInterval) -> Option<f64> {
    match (iv.lo, iv.hi) {
        (Some(lo), Some(hi)) => {
            // Only same-type pairs have a width.
            lo.value.cmp_same(&hi.value)?;
            Some((hi.value.as_f64() - lo.value.as_f64()).max(0.0))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OpCost;

    fn scan(table: &str) -> PhysicalPlan {
        PhysicalPlan::Scan {
            table: table.into(),
            cost: OpCost::default(),
        }
    }

    fn filtered(table: &str, pred: Predicate) -> PhysicalPlan {
        PhysicalPlan::Filter {
            input: Box::new(scan(table)),
            predicate: pred,
            cost: OpCost::per_tuple(1.0),
        }
    }

    fn band(col: usize, lo: i64, hi: i64) -> Predicate {
        Predicate::And(vec![
            Predicate::col_cmp(col, CmpOp::Ge, lo),
            Predicate::col_cmp(col, CmpOp::Lt, hi),
        ])
    }

    #[test]
    fn fingerprint_ignores_filter_constants_but_not_base() {
        let a = filtered("t", band(0, 10, 20));
        let b = filtered("t", band(0, 12, 15));
        let c = filtered("u", band(0, 10, 20));
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert_ne!(fingerprint(&a), fingerprint(&c));
        // The bare base hashes like its filtered forms (scan ⊒ σ(scan)).
        assert_eq!(fingerprint(&a), fingerprint(&scan("t")));
    }

    #[test]
    fn nested_ranges_subsume_with_minimal_residual() {
        let wide = filtered("t", band(0, 10, 20));
        let narrow = filtered(
            "t",
            Predicate::And(vec![
                Predicate::col_cmp(0, CmpOp::Ge, 12i64),
                Predicate::col_cmp(0, CmpOp::Lt, 20i64), // implied hi
                Predicate::col_cmp(1, CmpOp::Lt, 5i64),  // new column
            ]),
        );
        let residual = subsume_residual(&wide, &narrow).expect("wide subsumes narrow");
        // Only the un-implied clauses survive: lo=12 and the new column.
        assert_eq!(
            residual,
            Predicate::And(vec![
                Predicate::col_cmp(0, CmpOp::Ge, 12i64),
                Predicate::col_cmp(1, CmpOp::Lt, 5i64),
            ])
        );
        // Not the other way round.
        assert!(subsume_residual(&narrow, &wide).is_none());
    }

    #[test]
    fn exact_match_has_true_residual() {
        let a = filtered("t", band(0, 10, 20));
        assert_eq!(subsume_residual(&a, &a.clone()), Some(Predicate::True));
        // Identical plans without filters too.
        assert_eq!(
            subsume_residual(&scan("t"), &scan("t")),
            Some(Predicate::True)
        );
    }

    #[test]
    fn bare_base_subsumes_any_filtered_form() {
        let narrow = filtered("t", band(0, 10, 20));
        let residual = subsume_residual(&scan("t"), &narrow).expect("scan is widest");
        assert_eq!(residual, band(0, 10, 20));
        assert!(subsume_residual(&narrow, &scan("t")).is_none());
    }

    #[test]
    fn disjoint_and_crossing_ranges_do_not_subsume() {
        let a = filtered("t", band(0, 10, 20));
        let b = filtered("t", band(0, 15, 25)); // crosses the hi edge
        assert!(subsume_residual(&a, &b).is_none());
        assert!(subsume_residual(&b, &a).is_none());
        let c = filtered("t", band(0, 30, 40)); // disjoint
        assert!(subsume_residual(&a, &c).is_none());
    }

    #[test]
    fn inclusivity_at_equal_endpoints_is_respected() {
        let ge = filtered("t", Predicate::col_cmp(0, CmpOp::Ge, 10i64));
        let gt = filtered("t", Predicate::col_cmp(0, CmpOp::Gt, 10i64));
        // x ≥ 10 admits everything x > 10 admits…
        assert!(subsume_residual(&ge, &gt).is_some());
        // …but not vice versa (10 itself).
        assert!(subsume_residual(&gt, &ge).is_none());
        // The implied-clause test honors it too: `> 10` is NOT implied
        // by wide `≥ 10`, so it stays in the residual.
        assert_eq!(
            subsume_residual(&ge, &gt),
            Some(Predicate::col_cmp(0, CmpOp::Gt, 10i64))
        );
    }

    #[test]
    fn float_and_date_bounds_participate() {
        let wide = filtered(
            "t",
            Predicate::And(vec![
                Predicate::col_cmp(3, CmpOp::Ge, 0.02f64),
                Predicate::col_cmp(7, CmpOp::Ge, Date::from_ymd(1993, 1, 1)),
                Predicate::col_cmp(7, CmpOp::Lt, Date::from_ymd(1996, 1, 1)),
            ]),
        );
        let narrow = filtered(
            "t",
            Predicate::And(vec![
                Predicate::col_cmp(3, CmpOp::Ge, 0.05f64),
                Predicate::col_cmp(3, CmpOp::Le, 0.07f64),
                Predicate::col_cmp(7, CmpOp::Ge, Date::from_ymd(1994, 1, 1)),
                Predicate::col_cmp(7, CmpOp::Lt, Date::from_ymd(1995, 1, 1)),
            ]),
        );
        let residual = subsume_residual(&wide, &narrow).expect("subsumes");
        // Every narrow clause is strictly tighter than the wide side,
        // so all four survive.
        assert_eq!(flatten_conjuncts(&residual).len(), 4);
    }

    #[test]
    fn a_bound_the_interval_cannot_order_stays_in_rest() {
        // `k <= 10 AND k < 3.5`: the float bound cannot be ordered
        // against the int one, so it is kept whole instead of lost.
        let float = Predicate::col_cmp(0, CmpOp::Lt, 3.5f64);
        let wide = Predicate::And(vec![Predicate::col_cmp(0, CmpOp::Le, 10i64), float.clone()]);
        let norm = NormPred::normalize(&wide);
        let ten = BoundValue::Int(10);
        assert_eq!(norm.bounds[&0].hi.map(|b| b.value), Some(ten));
        assert_eq!(norm.rest, vec![float]);
        // So a member filtering `10 >= k` is not served from it with
        // residual `True`: the wide side lacks its rows with 3.5 <= k.
        let narrow = Predicate::Cmp {
            left: ScalarExpr::IntLit(10),
            op: CmpOp::Ge,
            right: ScalarExpr::Col(0),
        };
        assert_eq!(
            subsume_residual(&filtered("t", wide), &filtered("t", narrow)),
            None
        );
        // A NaN literal orders against nothing either, so the clause
        // is matched by its form.
        let nan = Predicate::col_cmp(0, CmpOp::Ge, f64::NAN);
        let both = Predicate::And(vec![Predicate::col_cmp(0, CmpOp::Ge, 1.0f64), nan.clone()]);
        let norm = NormPred::normalize(&both);
        assert_eq!(format!("{:?}", norm.rest), format!("{:?}", [nan]));
        assert_eq!(
            norm.bounds[&0].lo.map(|b| b.value),
            Some(BoundValue::Float(1.0))
        );
    }

    #[test]
    fn rest_clauses_compare_structurally() {
        let like = Predicate::Like {
            col: 2,
            pattern: "%x%".into(),
        };
        let wide = filtered("t", like.clone());
        let narrow = filtered(
            "t",
            Predicate::And(vec![like.clone(), Predicate::col_cmp(0, CmpOp::Lt, 5i64)]),
        );
        // Wide's LIKE appears in narrow: subsumed, residual is only the
        // range clause.
        assert_eq!(
            subsume_residual(&wide, &narrow),
            Some(Predicate::col_cmp(0, CmpOp::Lt, 5i64))
        );
        // A wide rest clause missing from narrow blocks subsumption.
        let other = filtered("t", Predicate::col_cmp(0, CmpOp::Lt, 5i64));
        assert!(subsume_residual(&wide, &other).is_none());
    }

    #[test]
    fn mismatched_bases_never_subsume() {
        let a = filtered("t", band(0, 0, 100));
        let b = filtered("u", band(0, 10, 20));
        assert!(subsume_residual(&a, &b).is_none());
        // Same table, different scan cost: different base, no match.
        let costly = PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::Scan {
                table: "t".into(),
                cost: OpCost::per_tuple(123.0),
            }),
            predicate: band(0, 10, 20),
            cost: OpCost::per_tuple(1.0),
        };
        assert!(subsume_residual(&a, &costly).is_none());
    }

    #[test]
    fn equality_points_are_contained_ranges() {
        let wide = filtered("t", band(0, 10, 20));
        let point = filtered("t", Predicate::col_cmp(0, CmpOp::Eq, 15i64));
        let residual = subsume_residual(&wide, &point).expect("point inside band");
        assert_eq!(residual, Predicate::col_cmp(0, CmpOp::Eq, 15i64));
        // A point outside the band is not subsumed.
        let outside = filtered("t", Predicate::col_cmp(0, CmpOp::Eq, 25i64));
        assert!(subsume_residual(&wide, &outside).is_none());
    }

    #[test]
    fn coverage_scales_with_interval_width() {
        let wide = filtered("t", band(0, 0, 100));
        let half = filtered("t", band(0, 0, 50));
        let tenth = filtered("t", band(0, 40, 50));
        assert!((coverage_estimate(&wide, &half) - 0.5).abs() < 1e-12);
        assert!((coverage_estimate(&wide, &tenth) - 0.1).abs() < 1e-12);
        // Exact match: exactly 1.
        assert_eq!(coverage_estimate(&wide, &wide.clone()), 1.0);
        // Extra columns charge the default selectivity per side.
        let extra = filtered(
            "t",
            Predicate::And(vec![
                Predicate::col_cmp(0, CmpOp::Ge, 0i64),
                Predicate::col_cmp(0, CmpOp::Lt, 100i64),
                Predicate::col_cmp(1, CmpOp::Lt, 7i64),
            ]),
        );
        assert!((coverage_estimate(&wide, &extra) - 0.5).abs() < 1e-12);
        // Clamped away from zero.
        let sliver = filtered("t", band(0, 50, 50));
        assert!(coverage_estimate(&wide, &sliver) >= MIN_COVERAGE);
    }

    #[test]
    fn filter_chains_conjoin_before_matching() {
        // σ[a](σ[b](scan)) must match σ[a ∧ b](scan).
        let chained = PhysicalPlan::Filter {
            input: Box::new(filtered("t", Predicate::col_cmp(0, CmpOp::Ge, 10i64))),
            predicate: Predicate::col_cmp(0, CmpOp::Lt, 20i64),
            cost: OpCost::per_tuple(1.0),
        };
        let flat = filtered("t", band(0, 10, 20));
        assert_eq!(subsume_residual(&chained, &flat), Some(Predicate::True));
        assert_eq!(subsume_residual(&flat, &chained), Some(Predicate::True));
    }

    #[test]
    fn peel_reports_filter_cost() {
        let f = filtered("t", band(0, 1, 2));
        let peeled = peel_filters(&f);
        assert_eq!(peeled.filter_cost, Some(OpCost::per_tuple(1.0)));
        assert_eq!(peeled.predicates.len(), 1);
        assert!(peel_filters(&scan("t")).filter_cost.is_none());
    }
}
