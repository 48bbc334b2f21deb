//! Straight-line ground-truth implementations of the four queries,
//! computed directly over raw table rows with none of the operator
//! machinery. The plan-based executors (reference and simulator) are
//! tested against these.

use cordoba_storage::tpch::matches_special_requests;
use cordoba_storage::{Catalog, Date};
use std::collections::BTreeMap;

/// One Q1 output group.
#[derive(Debug, Clone, PartialEq)]
pub struct Q1Group {
    /// `l_returnflag`.
    pub(crate) returnflag: String,
    /// `l_linestatus`.
    pub(crate) linestatus: String,
    /// `sum(l_quantity)`.
    pub sum_qty: f64,
    /// `sum(l_extendedprice)`.
    pub(crate) sum_base_price: f64,
    /// `sum(l_extendedprice * (1 - l_discount))`.
    pub(crate) sum_disc_price: f64,
    /// `sum(l_extendedprice * (1 - l_discount) * (1 + l_tax))`.
    pub(crate) sum_charge: f64,
    /// `avg(l_quantity)`.
    pub(crate) avg_qty: f64,
    /// `avg(l_extendedprice)`.
    pub(crate) avg_price: f64,
    /// `avg(l_discount)`.
    pub(crate) avg_disc: f64,
    /// `count(*)`.
    pub count: i64,
}

/// Q1 ground truth, sorted by (returnflag, linestatus).
pub fn q1(catalog: &Catalog) -> Vec<Q1Group> {
    /// (sum_qty, sum_price, sum_disc_price, sum_charge, sum_disc, count)
    type Acc = (f64, f64, f64, f64, f64, i64);
    let cutoff = Date::from_ymd(1998, 12, 1).plus_days(-90);
    let li = catalog.expect("lineitem");
    let mut groups: BTreeMap<(String, String), Acc> = BTreeMap::new();
    for row in li.scan_values() {
        let shipdate = row[7].as_date().unwrap();
        if shipdate > cutoff {
            continue;
        }
        let qty = row[1].as_float().unwrap();
        let price = row[2].as_float().unwrap();
        let disc = row[3].as_float().unwrap();
        let tax = row[4].as_float().unwrap();
        let key = (
            row[5].as_str().unwrap().to_string(),
            row[6].as_str().unwrap().to_string(),
        );
        let acc = groups.entry(key).or_insert((0.0, 0.0, 0.0, 0.0, 0.0, 0));
        acc.0 += qty;
        acc.1 += price;
        acc.2 += price * (1.0 - disc);
        acc.3 += price * (1.0 - disc) * (1.0 + tax);
        acc.4 += disc;
        acc.5 += 1;
    }
    groups
        .into_iter()
        .map(|((rf, ls), (sq, sp, sdp, sc, sd, n))| Q1Group {
            returnflag: rf,
            linestatus: ls,
            sum_qty: sq,
            sum_base_price: sp,
            sum_disc_price: sdp,
            sum_charge: sc,
            avg_qty: sq / n as f64,
            avg_price: sp / n as f64,
            avg_disc: sd / n as f64,
            count: n,
        })
        .collect()
}

/// Q6 ground truth: the revenue sum.
pub fn q6(catalog: &Catalog) -> f64 {
    let lo = Date::from_ymd(1994, 1, 1);
    let hi = Date::from_ymd(1995, 1, 1);
    let li = catalog.expect("lineitem");
    let mut revenue = 0.0;
    for row in li.scan_values() {
        let shipdate = row[7].as_date().unwrap();
        let disc = row[3].as_float().unwrap();
        let qty = row[1].as_float().unwrap();
        if shipdate >= lo && shipdate < hi && (0.05..=0.07).contains(&disc) && qty < 24.0 {
            revenue += row[2].as_float().unwrap() * disc;
        }
    }
    revenue
}

/// Q4 ground truth: `(o_orderpriority, order_count)` sorted by priority.
pub fn q4(catalog: &Catalog) -> Vec<(String, i64)> {
    let lo = Date::from_ymd(1993, 7, 1);
    let hi = Date::from_ymd(1993, 10, 1);
    let late: std::collections::HashSet<i64> = catalog
        .expect("lineitem")
        .scan_values()
        .filter(|row| row[8].as_date().unwrap() < row[9].as_date().unwrap())
        .map(|row| row[0].as_int().unwrap())
        .collect();
    let mut counts: BTreeMap<String, i64> = BTreeMap::new();
    for row in catalog.expect("orders").scan_values() {
        let d = row[2].as_date().unwrap();
        if d < lo || d >= hi {
            continue;
        }
        if late.contains(&row[0].as_int().unwrap()) {
            *counts
                .entry(row[3].as_str().unwrap().to_string())
                .or_insert(0) += 1;
        }
    }
    counts.into_iter().collect()
}

/// Q13 ground truth: `(c_count, custdist)` sorted by c_count.
pub fn q13(catalog: &Catalog) -> Vec<(i64, i64)> {
    let mut per_customer: BTreeMap<i64, i64> = catalog
        .expect("customer")
        .scan_values()
        .map(|row| (row[0].as_int().unwrap(), 0))
        .collect();
    for row in catalog.expect("orders").scan_values() {
        if matches_special_requests(row[4].as_str().unwrap()) {
            continue;
        }
        if let Some(n) = per_customer.get_mut(&row[1].as_int().unwrap()) {
            *n += 1;
        }
    }
    let mut dist: BTreeMap<i64, i64> = BTreeMap::new();
    for (_, n) in per_customer {
        *dist.entry(n).or_insert(0) += 1;
    }
    dist.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cordoba_storage::tpch::{generate, TpchConfig};

    fn catalog() -> Catalog {
        generate(&TpchConfig {
            scale_factor: 0.002,
            seed: 77,
            ..TpchConfig::default()
        })
    }

    #[test]
    fn q1_groups_are_consistent() {
        let groups = q1(&catalog());
        assert_eq!(groups.len(), 4);
        for g in &groups {
            assert!(g.count > 0);
            assert!((g.avg_qty - g.sum_qty / g.count as f64).abs() < 1e-9);
            // disc_price <= base_price (discounts are non-negative).
            assert!(g.sum_disc_price <= g.sum_base_price + 1e-9);
            // charge >= disc_price (taxes are non-negative).
            assert!(g.sum_charge >= g.sum_disc_price - 1e-9);
        }
    }

    #[test]
    fn q6_revenue_positive_and_bounded() {
        let cat = catalog();
        let rev = q6(&cat);
        assert!(rev > 0.0);
        // Upper bound: total extendedprice * max discount.
        let total: f64 = cat
            .expect("lineitem")
            .scan_values()
            .map(|r| r[2].as_float().unwrap())
            .sum();
        assert!(rev < total * 0.07);
    }

    #[test]
    fn q4_counts_bounded_by_quarter_orders() {
        let cat = catalog();
        let counts = q4(&cat);
        assert!(!counts.is_empty());
        let total: i64 = counts.iter().map(|(_, c)| c).sum();
        assert!(total > 0);
        assert!(total <= cat.expect("orders").row_count() as i64);
    }

    #[test]
    fn q13_distribution_sums_to_customers() {
        let cat = catalog();
        let dist = q13(&cat);
        let total: i64 = dist.iter().map(|(_, c)| c).sum();
        assert_eq!(total, cat.expect("customer").row_count() as i64);
        // Mean orders per customer ~ 10 (1.5M orders / 150k customers):
        // the distribution must have mass beyond count 5.
        assert!(dist.iter().any(|(k, _)| *k > 5));
    }
}
