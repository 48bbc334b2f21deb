//! TPC-H Q13 — customer distribution (join-heavy).
//!
//! ```sql
//! SELECT c_count, count(*) AS custdist
//! FROM (SELECT c_custkey, count(o_orderkey) AS c_count
//!       FROM customer LEFT OUTER JOIN orders
//!         ON c_custkey = o_custkey
//!        AND o_comment NOT LIKE '%special%requests%'
//!       GROUP BY c_custkey) AS c_orders
//! GROUP BY c_count
//! ```
//!
//! Implemented as: count qualifying orders per customer key (hash
//! aggregate), LEFT OUTER hash join onto `customer` (a customer with no
//! qualifying orders joins the type-default count 0), then aggregate the
//! distribution. The pivot is the join sub-plan including the per-key
//! counting.

use super::{cust, ord};
use crate::costs::CostProfile;
use cordoba_engine::QuerySpec;
use cordoba_exec::expr::{Agg, Predicate};
use cordoba_exec::{JoinKind, PhysicalPlan};

/// The shareable sub-plan: per-customer qualifying-order counts,
/// outer-joined onto the customer table.
fn q13_join(costs: &CostProfile) -> PhysicalPlan {
    let qualifying_orders = PhysicalPlan::Filter {
        input: Box::new(PhysicalPlan::Scan {
            table: "orders".into(),
            cost: costs.scan,
        }),
        predicate: Predicate::Not(Box::new(Predicate::Like {
            col: ord::COMMENT,
            pattern: "%special%requests%".into(),
        })),
        cost: costs.filter,
    };
    let per_customer_counts = PhysicalPlan::Aggregate {
        input: Box::new(qualifying_orders),
        group_by: vec![ord::CUSTKEY],
        aggs: vec![("c_count".into(), Agg::Count)],
        cost: costs.aggregate,
    };
    PhysicalPlan::HashJoin {
        build: Box::new(per_customer_counts),
        probe: Box::new(PhysicalPlan::Scan {
            table: "customer".into(),
            cost: costs.scan,
        }),
        build_key: 0, // o_custkey in the counts schema
        probe_key: cust::CUSTKEY,
        kind: JoinKind::LeftOuter,
        build_cost: costs.join_build,
        probe_cost: costs.join_probe,
    }
}

/// Index of `c_count` in the join output (customer columns, then
/// build-side `[o_custkey, c_count]`).
pub(crate) const C_COUNT_IDX: usize = cust::WIDTH + 1;

/// Builds Q13, shareable at the join.
pub fn q13(costs: &CostProfile) -> QuerySpec {
    let join = q13_join(costs);
    let plan = PhysicalPlan::Aggregate {
        input: Box::new(join.clone()),
        group_by: vec![C_COUNT_IDX],
        aggs: vec![("custdist".into(), Agg::Count)],
        cost: costs.aggregate,
    };
    QuerySpec::shared_at("q13", plan, join)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cordoba_exec::reference;
    use cordoba_storage::tpch::{generate, TpchConfig};
    use cordoba_storage::Value;

    #[test]
    fn q13_matches_naive_computation() {
        let catalog = generate(&TpchConfig {
            scale_factor: 0.002,
            seed: 31,
            ..TpchConfig::default()
        });
        let got = reference::execute(&catalog, &q13(&CostProfile::paper()).plan);
        let want = crate::naive::q13(&catalog);
        let got_pairs: Vec<(i64, i64)> = got
            .iter()
            .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
            .collect();
        assert_eq!(got_pairs, want);
    }

    #[test]
    fn q13_distribution_covers_all_customers() {
        let catalog = generate(&TpchConfig {
            scale_factor: 0.002,
            seed: 31,
            ..TpchConfig::default()
        });
        let got = reference::execute(&catalog, &q13(&CostProfile::paper()).plan);
        let total: i64 = got.iter().map(|r| r[1].as_int().unwrap()).sum();
        assert_eq!(total, catalog.expect("customer").row_count() as i64);
    }

    #[test]
    fn q13_zero_bucket_when_special_rate_high() {
        // With most comments special, many customers end with 0
        // qualifying orders: the c_count = 0 bucket must exist (the
        // LEFT OUTER part of the query).
        let catalog = generate(&TpchConfig {
            scale_factor: 0.002,
            seed: 31,
            special_comment_rate: 0.95,
            ..TpchConfig::default()
        });
        let got = reference::execute(&catalog, &q13(&CostProfile::paper()).plan);
        let zero = got
            .iter()
            .find(|r| r[0] == Value::Int(0))
            .map(|r| r[1].as_int().unwrap())
            .unwrap_or(0);
        assert!(zero > 0, "expected a non-empty c_count=0 bucket");
    }
}
