//! Physical plans for the paper's four TPC-H queries.
//!
//! Plans are hand-built (the paper fixes plans and predicates, and
//! allows sharing only at one selected node per query: the `lineitem`
//! scan for Q1/Q6, the join for Q4/Q13).

mod q1;
mod q13;
mod q4;
mod q6;

pub use q1::q1;
pub use q13::q13;
pub use q4::q4;
pub use q6::{q6, q6_with_params, Q6Params};

pub(crate) use q6::lineitem_scan;

use crate::costs::CostProfile;
use cordoba_engine::QuerySpec;

/// Builds all four queries under one cost profile.
pub fn all(costs: &CostProfile) -> Vec<QuerySpec> {
    vec![q1(costs), q6(costs), q4(costs), q13(costs)]
}

/// Column indices of the generated `lineitem` schema
/// (see `cordoba_storage::tpch::lineitem_schema`).
pub(crate) mod li {
    pub(crate) const ORDERKEY: usize = 0;
    pub(crate) const QUANTITY: usize = 1;
    pub(crate) const EXTENDEDPRICE: usize = 2;
    pub(crate) const DISCOUNT: usize = 3;
    pub(crate) const TAX: usize = 4;
    pub(crate) const RETURNFLAG: usize = 5;
    pub(crate) const LINESTATUS: usize = 6;
    pub(crate) const SHIPDATE: usize = 7;
    pub(crate) const COMMITDATE: usize = 8;
    pub(crate) const RECEIPTDATE: usize = 9;
}

/// Column indices of the generated `orders` schema.
mod ord {
    pub(crate) const ORDERKEY: usize = 0;
    pub(crate) const CUSTKEY: usize = 1;
    pub(crate) const ORDERDATE: usize = 2;
    pub(crate) const ORDERPRIORITY: usize = 3;
    pub(crate) const COMMENT: usize = 4;
}

/// Column indices of the generated `customer` schema.
mod cust {
    pub(crate) const CUSTKEY: usize = 0;
    /// Width of the customer schema (Q13's join output places the
    /// build-side columns after these).
    pub(crate) const WIDTH: usize = 4;
}

#[cfg(test)]
mod tests {
    use super::*;
    use cordoba_storage::tpch::{generate, TpchConfig};

    #[test]
    fn all_queries_have_pivots_and_valid_schemas() {
        let catalog = generate(&TpchConfig {
            scale_factor: 0.001,
            ..TpchConfig::default()
        });
        for spec in all(&CostProfile::paper()) {
            assert!(spec.pivot.is_some(), "{} must be shareable", spec.name);
            // Schema derivation must succeed for plan and pivot.
            let _ = spec.plan.output_schema(&catalog);
            let _ = spec.pivot.as_ref().unwrap().output_schema(&catalog);
        }
    }

    #[test]
    fn scan_heavy_queries_share_the_same_pivot() {
        // Q1 and Q6 share at the identical lineitem scan: the engine can
        // merge them into one group.
        let costs = CostProfile::paper();
        assert_eq!(q1(&costs).pivot, q6(&costs).pivot);
    }

    #[test]
    fn parameterized_q6_variants_share_the_same_pivot() {
        // The paper's Figure 1 setup: different clients, different
        // predicate constants, one shared scan.
        let costs = CostProfile::paper();
        let base = q6(&costs);
        for client in 0..8 {
            let variant = q6_with_params(&costs, Q6Params::for_client(client));
            assert_eq!(variant.pivot, base.pivot, "client {client}");
            if client % 5 != 1 || client % 6 != 3 || client % 11 != 4 {
                assert_ne!(variant.plan, base.plan, "client {client} predicate differs");
            }
        }
    }

    #[test]
    fn join_heavy_pivots_differ_from_scans() {
        let costs = CostProfile::paper();
        assert_ne!(q4(&costs).pivot, q1(&costs).pivot);
        assert_ne!(q4(&costs).pivot, q13(&costs).pivot);
    }
}
