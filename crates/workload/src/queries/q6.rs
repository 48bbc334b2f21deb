//! TPC-H Q6 — forecasting revenue change (scan-heavy).
//!
//! ```sql
//! SELECT sum(l_extendedprice * l_discount) AS revenue
//! FROM lineitem
//! WHERE l_shipdate >= date '1994-01-01'
//!   AND l_shipdate < date '1995-01-01'
//!   AND l_discount BETWEEN 0.05 AND 0.07
//!   AND l_quantity < 24
//! ```
//!
//! The paper's running example: dominated by the `lineitem` scan, with a
//! tiny private predicate+aggregate — the workload for which sharing is
//! only attractive on a uniprocessor (Figure 1, Section 4.4).

use super::li;
use crate::costs::CostProfile;
use cordoba_engine::QuerySpec;
use cordoba_exec::expr::{Agg, CmpOp, Predicate, ScalarExpr};
use cordoba_exec::PhysicalPlan;
use cordoba_storage::Date;

/// The shareable pivot: the full `lineitem` scan.
pub(crate) fn lineitem_scan(costs: &CostProfile) -> PhysicalPlan {
    PhysicalPlan::Scan {
        table: "lineitem".into(),
        cost: costs.scan,
    }
}

/// Per-client Q6 predicate parameters. The paper's Figure 1 experiment
/// has every client use *different* predicate constants while sharing
/// the common scan — the predicates live above the pivot, so parameter
/// variation does not break group formation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Q6Params {
    /// Ship-date window start year (window is one calendar year).
    year: i32,
    /// Discount band center (±0.01, like the official query's `0.06`).
    discount: f64,
    /// Quantity upper bound (exclusive).
    max_quantity: f64,
}

impl Default for Q6Params {
    /// The official validation parameters (1994 / 0.06 / 24).
    fn default() -> Self {
        Self {
            year: 1994,
            discount: 0.06,
            max_quantity: 24.0,
        }
    }
}

impl Q6Params {
    /// A deterministic per-client variation, cycling years 1993–1997,
    /// discount bands 0.03–0.08 and quantity bounds 20–30.
    pub fn for_client(client: usize) -> Self {
        Self {
            year: 1993 + (client % 5) as i32,
            discount: 0.03 + (client % 6) as f64 / 100.0,
            max_quantity: 20.0 + (client % 11) as f64,
        }
    }
}

/// Builds Q6 with the official validation parameters.
pub fn q6(costs: &CostProfile) -> QuerySpec {
    q6_with_params(costs, Q6Params::default())
}

/// Builds Q6 with explicit predicate parameters. All parameterizations
/// share the identical `lineitem` scan pivot.
pub fn q6_with_params(costs: &CostProfile, params: Q6Params) -> QuerySpec {
    let scan = lineitem_scan(costs);
    let predicate = Predicate::And(vec![
        Predicate::col_cmp(li::SHIPDATE, CmpOp::Ge, Date::from_ymd(params.year, 1, 1)),
        Predicate::col_cmp(
            li::SHIPDATE,
            CmpOp::Lt,
            Date::from_ymd(params.year + 1, 1, 1),
        ),
        // Epsilon guards keep the ±0.01 band closed under f64 rounding
        // (generated discounts are multiples of 0.01, far above 1e-9).
        Predicate::col_cmp(li::DISCOUNT, CmpOp::Ge, params.discount - 0.01 - 1e-9),
        Predicate::col_cmp(li::DISCOUNT, CmpOp::Le, params.discount + 0.01 + 1e-9),
        Predicate::col_cmp(li::QUANTITY, CmpOp::Lt, params.max_quantity),
    ]);
    let revenue = ScalarExpr::Mul(
        Box::new(ScalarExpr::Col(li::EXTENDEDPRICE)),
        Box::new(ScalarExpr::Col(li::DISCOUNT)),
    );
    let plan = PhysicalPlan::Aggregate {
        input: Box::new(PhysicalPlan::Filter {
            input: Box::new(scan.clone()),
            predicate,
            cost: costs.filter,
        }),
        group_by: vec![],
        aggs: vec![("revenue".into(), Agg::Sum(revenue))],
        cost: costs.aggregate,
    };
    QuerySpec::shared_at("q6", plan, scan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cordoba_exec::reference;
    use cordoba_storage::tpch::{generate, TpchConfig};

    #[test]
    fn q6_matches_naive_computation() {
        let catalog = generate(&TpchConfig {
            scale_factor: 0.002,
            seed: 11,
            ..TpchConfig::default()
        });
        let spec = q6(&CostProfile::paper());
        let got = reference::execute(&catalog, &spec.plan);
        let want = crate::naive::q6(&catalog);
        match (&got[..], want) {
            ([row], naive) => {
                let revenue = row[0].as_float().unwrap();
                assert!((revenue - naive).abs() < 1e-6 * naive.abs().max(1.0));
                assert!(revenue > 0.0, "predicates must select something");
            }
            other => panic!("expected one row, got {other:?}"),
        }
    }

    #[test]
    fn q6_selectivity_is_low() {
        // Scan-heavy: the aggregate sees ~2% of lineitem.
        let catalog = generate(&TpchConfig {
            scale_factor: 0.002,
            seed: 11,
            ..TpchConfig::default()
        });
        let spec = q6(&CostProfile::paper());
        let PhysicalPlan::Aggregate { input, .. } = &spec.plan else {
            panic!()
        };
        let selected = reference::execute(&catalog, input).len();
        let total = catalog.expect("lineitem").row_count();
        let sel = selected as f64 / total as f64;
        assert!(sel < 0.05, "selectivity {sel}");
    }
}
