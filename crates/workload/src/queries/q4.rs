//! TPC-H Q4 — order priority checking (join-heavy).
//!
//! ```sql
//! SELECT o_orderpriority, count(*) AS order_count
//! FROM orders
//! WHERE o_orderdate >= date '1993-07-01'
//!   AND o_orderdate < date '1993-10-01'
//!   AND EXISTS (SELECT * FROM lineitem
//!               WHERE l_orderkey = o_orderkey
//!                 AND l_commitdate < l_receiptdate)
//! GROUP BY o_orderpriority
//! ```
//!
//! The EXISTS subquery is a semi hash join: build the set of order keys
//! with a late lineitem, probe with the date-filtered orders. The pivot
//! is the whole join sub-plan — per the paper, its per-sharer output
//! cost is insignificant next to the scans and the join itself, so
//! sharing Q4 always wins (Figure 2 right).

use super::{li, ord};
use crate::costs::CostProfile;
use cordoba_engine::QuerySpec;
use cordoba_exec::expr::{Agg, CmpOp, Predicate, ScalarExpr};
use cordoba_exec::{JoinKind, PhysicalPlan};
use cordoba_storage::Date;

/// The shareable join sub-plan (EXISTS semi join of filtered orders
/// against late lineitems).
fn q4_join(costs: &CostProfile) -> PhysicalPlan {
    let late_lineitems = PhysicalPlan::Filter {
        input: Box::new(PhysicalPlan::Scan {
            table: "lineitem".into(),
            cost: costs.scan,
        }),
        predicate: Predicate::cmp(
            ScalarExpr::Col(li::COMMITDATE),
            CmpOp::Lt,
            ScalarExpr::Col(li::RECEIPTDATE),
        ),
        cost: costs.filter,
    };
    let quarter_orders = PhysicalPlan::Filter {
        input: Box::new(PhysicalPlan::Scan {
            table: "orders".into(),
            cost: costs.scan,
        }),
        predicate: Predicate::And(vec![
            Predicate::col_cmp(ord::ORDERDATE, CmpOp::Ge, Date::from_ymd(1993, 7, 1)),
            Predicate::col_cmp(ord::ORDERDATE, CmpOp::Lt, Date::from_ymd(1993, 10, 1)),
        ]),
        cost: costs.filter,
    };
    PhysicalPlan::HashJoin {
        build: Box::new(late_lineitems),
        probe: Box::new(quarter_orders),
        build_key: li::ORDERKEY,
        probe_key: ord::ORDERKEY,
        kind: JoinKind::Semi,
        build_cost: costs.join_build,
        probe_cost: costs.join_probe,
    }
}

/// Builds Q4, shareable at the join.
pub fn q4(costs: &CostProfile) -> QuerySpec {
    let join = q4_join(costs);
    let plan = PhysicalPlan::Aggregate {
        input: Box::new(join.clone()),
        group_by: vec![ord::ORDERPRIORITY],
        aggs: vec![("order_count".into(), Agg::Count)],
        cost: costs.aggregate,
    };
    QuerySpec::shared_at("q4", plan, join)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cordoba_exec::reference;
    use cordoba_storage::tpch::{generate, TpchConfig};
    use cordoba_storage::Value;

    #[test]
    fn q4_matches_naive_computation() {
        let catalog = generate(&TpchConfig {
            scale_factor: 0.002,
            seed: 21,
            ..TpchConfig::default()
        });
        let got = reference::execute(&catalog, &q4(&CostProfile::paper()).plan);
        let want = crate::naive::q4(&catalog);
        assert_eq!(got.len(), want.len());
        for (g, (priority, count)) in got.iter().zip(&want) {
            assert_eq!(g[0], Value::Str(priority.clone()));
            assert_eq!(g[1], Value::Int(*count));
        }
        // All five priorities appear at this scale.
        assert_eq!(got.len(), 5);
    }

    #[test]
    fn q4_exists_semantics_counts_orders_once() {
        // An order with several late lineitems must count once: total
        // order_count <= orders in the date window.
        let catalog = generate(&TpchConfig {
            scale_factor: 0.002,
            seed: 21,
            ..TpchConfig::default()
        });
        let got = reference::execute(&catalog, &q4(&CostProfile::paper()).plan);
        let counted: i64 = got.iter().map(|r| r[1].as_int().unwrap()).sum();
        let lo = Date::from_ymd(1993, 7, 1);
        let hi = Date::from_ymd(1993, 10, 1);
        let in_window = catalog
            .expect("orders")
            .scan_values()
            .filter(|r| {
                let d = r[ord::ORDERDATE].as_date().unwrap();
                d >= lo && d < hi
            })
            .count() as i64;
        assert!(counted <= in_window);
        assert!(counted > 0);
    }
}
