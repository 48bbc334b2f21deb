//! Deterministic TPC-H-subset data generator.
//!
//! Generates the three tables the paper's query mix needs — `customer`,
//! `orders`, `lineitem` — with the value distributions that determine
//! the selectivities of Q1, Q6, Q4 and Q13 (see each field's comment).
//! This is a from-scratch substitute for the official `dbgen` (see
//! the crate docs): the experiments measure
//! relative throughput, which depends on selectivities and per-tuple
//! costs, not on absolute scale.
//!
//! Everything is seeded and deterministic: the same
//! [`TpchConfig`] always yields byte-identical tables.

pub mod text;

pub use text::{matches_special_requests, CommentGenerator};

use crate::catalog::Catalog;
use crate::date::Date;
use crate::schema::{DataType, Field, Schema};
use crate::table::{Table, TableBuilder};
use crate::value::Value;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// TPC-H's five order priorities (uniformly distributed in `o_orderpriority`).
pub const ORDER_PRIORITIES: [&str; 5] = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECI", "5-LOW"];

/// TPC-H's seven ship modes (uniform in `l_shipmode`).
pub const SHIP_MODES: [&str; 7] = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];

/// First order date in the population.
pub fn start_date() -> Date {
    Date::from_ymd(1992, 1, 1)
}

/// `CURRENTDATE` used by dbgen to derive `l_returnflag`.
pub fn current_date() -> Date {
    Date::from_ymd(1995, 6, 17)
}

/// Last admissible order date (dbgen: 1998-12-01 minus 121 days, so all
/// derived lineitem dates stay inside 1998).
pub fn end_order_date() -> Date {
    Date::from_ymd(1998, 8, 2)
}

/// Generator configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TpchConfig {
    /// Scale factor: SF 1 ≈ 150 k customers / 1.5 M orders / ~6 M
    /// lineitems. The experiments default to SF 0.01.
    pub scale_factor: f64,
    /// RNG seed; every derived stream is a pure function of it.
    pub seed: u64,
    /// Page size for the built tables.
    pub page_size: usize,
    /// Fraction of `o_comment`s containing the `%special%requests%`
    /// pattern that Q13 filters out.
    pub special_comment_rate: f64,
}

impl Default for TpchConfig {
    fn default() -> Self {
        Self {
            scale_factor: 0.01,
            seed: 0xC0DB_BA5E,
            page_size: crate::page::PAGE_SIZE,
            special_comment_rate: 0.05,
        }
    }
}

impl TpchConfig {
    /// Config at the given scale factor with defaults elsewhere.
    pub fn scale(scale_factor: f64) -> Self {
        Self {
            scale_factor,
            ..Self::default()
        }
    }

    /// Number of customers at this scale.
    pub fn customers(&self) -> usize {
        ((150_000.0 * self.scale_factor).round() as usize).max(1)
    }

    /// Number of orders at this scale.
    pub fn orders(&self) -> usize {
        ((1_500_000.0 * self.scale_factor).round() as usize).max(1)
    }
}

/// Schema of the generated `customer` table.
pub fn customer_schema() -> Arc<Schema> {
    Schema::new(vec![
        Field::new("c_custkey", DataType::Int),
        Field::new("c_nationkey", DataType::Int),
        Field::new("c_acctbal", DataType::Float),
        Field::new("c_mktsegment", DataType::Str(10)),
    ])
}

/// Schema of the generated `orders` table.
pub fn orders_schema() -> Arc<Schema> {
    Schema::new(vec![
        Field::new("o_orderkey", DataType::Int),
        Field::new("o_custkey", DataType::Int),
        Field::new("o_orderdate", DataType::Date),
        Field::new("o_orderpriority", DataType::Str(15)),
        Field::new("o_comment", DataType::Str(48)),
    ])
}

/// Schema of the generated `lineitem` table.
pub fn lineitem_schema() -> Arc<Schema> {
    Schema::new(vec![
        Field::new("l_orderkey", DataType::Int),
        Field::new("l_quantity", DataType::Float),
        Field::new("l_extendedprice", DataType::Float),
        Field::new("l_discount", DataType::Float),
        Field::new("l_tax", DataType::Float),
        Field::new("l_returnflag", DataType::Str(1)),
        Field::new("l_linestatus", DataType::Str(1)),
        Field::new("l_shipdate", DataType::Date),
        Field::new("l_commitdate", DataType::Date),
        Field::new("l_receiptdate", DataType::Date),
        Field::new("l_shipmode", DataType::Str(10)),
    ])
}

/// Generates the full catalog (`customer`, `orders`, `lineitem`).
pub fn generate(config: &TpchConfig) -> Catalog {
    let mut catalog = Catalog::new();
    catalog.register(generate_customer(config));
    let (orders, lineitem) = generate_orders_and_lineitem(config);
    catalog.register(orders);
    catalog.register(lineitem);
    catalog
}

/// Generates the `customer` table.
pub fn generate_customer(config: &TpchConfig) -> Arc<Table> {
    let mut rng = SmallRng::seed_from_u64(config.seed ^ 0x01);
    let segments = [
        "AUTOMOBILE",
        "BUILDING",
        "FURNITURE",
        "MACHINERY",
        "HOUSEHOLD",
    ];
    let mut b = TableBuilder::with_page_size("customer", customer_schema(), config.page_size);
    for key in 1..=config.customers() as i64 {
        b.push_row(&[
            Value::Int(key),
            Value::Int(rng.gen_range(0..25)),
            Value::Float(rng.gen_range(-999.99..9999.99)),
            Value::Str(segments[rng.gen_range(0..segments.len())].into()),
        ]);
    }
    b.finish()
}

/// Generates `orders` and its dependent `lineitem` rows together so the
/// foreign-key relationship and date derivations match dbgen's.
pub fn generate_orders_and_lineitem(config: &TpchConfig) -> (Arc<Table>, Arc<Table>) {
    let mut rng = SmallRng::seed_from_u64(config.seed ^ 0x02);
    let mut comments = CommentGenerator::new(config.seed ^ 0x03, config.special_comment_rate);
    let customers = config.customers() as i64;
    let order_span = end_order_date().days_since(start_date());
    let current = current_date();

    let mut orders = TableBuilder::with_page_size("orders", orders_schema(), config.page_size);
    let mut items = TableBuilder::with_page_size("lineitem", lineitem_schema(), config.page_size);

    for orderkey in 1..=config.orders() as i64 {
        let custkey = rng.gen_range(1..=customers);
        let orderdate = start_date().plus_days(rng.gen_range(0..=order_span));
        let priority = ORDER_PRIORITIES[rng.gen_range(0..ORDER_PRIORITIES.len())];
        orders.push_row(&[
            Value::Int(orderkey),
            Value::Int(custkey),
            Value::Date(orderdate),
            Value::Str(priority.into()),
            Value::Str(comments.next_comment(&mut rng)),
        ]);

        // dbgen: 1–7 lineitems per order.
        for _ in 0..rng.gen_range(1..=7) {
            let quantity = rng.gen_range(1..=50) as f64;
            // dbgen prices derive from part retail prices (~900–101000);
            // uniform is selectivity-equivalent for our queries.
            let extendedprice = quantity * rng.gen_range(900.0..=101_000.0) / 100.0;
            let discount = rng.gen_range(0..=10) as f64 / 100.0;
            let tax = rng.gen_range(0..=8) as f64 / 100.0;
            let shipdate = orderdate.plus_days(rng.gen_range(1..=121));
            let commitdate = orderdate.plus_days(rng.gen_range(30..=90));
            let receiptdate = shipdate.plus_days(rng.gen_range(1..=30));
            let returnflag = if receiptdate <= current {
                if rng.gen_bool(0.5) {
                    "R"
                } else {
                    "A"
                }
            } else {
                "N"
            };
            let linestatus = if shipdate > current { "O" } else { "F" };
            items.push_row(&[
                Value::Int(orderkey),
                Value::Float(quantity),
                Value::Float(extendedprice),
                Value::Float(discount),
                Value::Float(tax),
                Value::Str(returnflag.into()),
                Value::Str(linestatus.into()),
                Value::Date(shipdate),
                Value::Date(commitdate),
                Value::Date(receiptdate),
                Value::Str(SHIP_MODES[rng.gen_range(0..SHIP_MODES.len())].into()),
            ]);
        }
    }
    (orders.finish(), items.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> TpchConfig {
        TpchConfig {
            scale_factor: 0.002,
            seed: 42,
            ..TpchConfig::default()
        }
    }

    #[test]
    fn row_counts_scale() {
        let cfg = small();
        assert_eq!(cfg.customers(), 300);
        assert_eq!(cfg.orders(), 3000);
        let catalog = generate(&cfg);
        assert_eq!(catalog.expect("customer").row_count(), 300);
        assert_eq!(catalog.expect("orders").row_count(), 3000);
        let li = catalog.expect("lineitem").row_count();
        // 1..=7 per order, expectation 4: allow generous slack.
        assert!((9000..=15000).contains(&li), "lineitem rows = {li}");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&small());
        let b = generate(&small());
        for name in ["customer", "orders", "lineitem"] {
            let (ta, tb) = (a.expect(name), b.expect(name));
            assert_eq!(ta.row_count(), tb.row_count());
            let rows_a: Vec<_> = ta.scan_values().collect();
            let rows_b: Vec<_> = tb.scan_values().collect();
            assert_eq!(rows_a, rows_b, "table {name} differs across runs");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&small());
        let b = generate(&TpchConfig {
            seed: 43,
            ..small()
        });
        let rows_a: Vec<_> = a.expect("orders").scan_values().take(10).collect();
        let rows_b: Vec<_> = b.expect("orders").scan_values().take(10).collect();
        assert_ne!(rows_a, rows_b);
    }

    #[test]
    fn lineitem_dates_are_consistent() {
        let catalog = generate(&small());
        let orders = catalog.expect("orders");
        let odate: std::collections::HashMap<i64, Date> = orders
            .scan_values()
            .map(|r| (r[0].as_int().unwrap(), r[2].as_date().unwrap()))
            .collect();
        let li = catalog.expect("lineitem");
        let s = li.schema().clone();
        let (k, ship, commit, receipt) = (
            s.index_of("l_orderkey"),
            s.index_of("l_shipdate"),
            s.index_of("l_commitdate"),
            s.index_of("l_receiptdate"),
        );
        for page in li.pages() {
            for t in page.tuples() {
                let od = odate[&t.get_int(k)];
                assert!(t.get_date(ship) > od);
                assert!(t.get_date(receipt) > t.get_date(ship));
                assert!(t.get_date(commit) > od);
            }
        }
    }

    #[test]
    fn returnflag_linestatus_follow_dbgen_rules() {
        let catalog = generate(&small());
        let li = catalog.expect("lineitem");
        let s = li.schema().clone();
        let (rf, ls, ship, receipt) = (
            s.index_of("l_returnflag"),
            s.index_of("l_linestatus"),
            s.index_of("l_shipdate"),
            s.index_of("l_receiptdate"),
        );
        let current = current_date();
        let mut seen = std::collections::BTreeSet::new();
        for page in li.pages() {
            for t in page.tuples() {
                let flag = t.get_str(rf);
                seen.insert(flag.to_string());
                if t.get_date(receipt) <= current {
                    assert!(flag == "R" || flag == "A");
                } else {
                    assert_eq!(flag, "N");
                }
                let status = t.get_str(ls);
                if t.get_date(ship) > current {
                    assert_eq!(status, "O");
                } else {
                    assert_eq!(status, "F");
                }
            }
        }
        // Q1 groups by (returnflag, linestatus): all three flags occur.
        assert_eq!(
            seen.into_iter().collect::<Vec<_>>(),
            vec!["A".to_string(), "N".to_string(), "R".to_string()]
        );
    }

    #[test]
    fn q6_predicate_selectivity_near_tpch() {
        // Official Q6 (year 1994, discount 0.06±0.01, qty < 24) selects
        // ~1.9% of lineitem.
        let catalog = generate(&TpchConfig {
            scale_factor: 0.01,
            seed: 7,
            ..TpchConfig::default()
        });
        let li = catalog.expect("lineitem");
        let s = li.schema().clone();
        let (ship, disc, qty) = (
            s.index_of("l_shipdate"),
            s.index_of("l_discount"),
            s.index_of("l_quantity"),
        );
        let lo = Date::from_ymd(1994, 1, 1);
        let hi = Date::from_ymd(1995, 1, 1);
        let mut hits = 0usize;
        let mut total = 0usize;
        for page in li.pages() {
            for t in page.tuples() {
                total += 1;
                let d = t.get_float(disc);
                if t.get_date(ship) >= lo
                    && t.get_date(ship) < hi
                    && (0.05 - 1e-9..=0.07 + 1e-9).contains(&d)
                    && t.get_float(qty) < 24.0
                {
                    hits += 1;
                }
            }
        }
        let sel = hits as f64 / total as f64;
        assert!((0.008..=0.035).contains(&sel), "Q6 selectivity {sel}");
    }

    #[test]
    fn special_comment_rate_respected() {
        let cfg = TpchConfig {
            special_comment_rate: 0.10,
            ..small()
        };
        let catalog = generate(&cfg);
        let orders = catalog.expect("orders");
        let idx = orders.schema().index_of("o_comment");
        let mut special = 0usize;
        for page in orders.pages() {
            for t in page.tuples() {
                let c = t.get_str(idx);
                if text::matches_special_requests(c) {
                    special += 1;
                }
            }
        }
        let rate = special as f64 / orders.row_count() as f64;
        assert!((0.06..=0.14).contains(&rate), "special rate {rate}");
    }

    #[test]
    fn custkeys_reference_customer_table() {
        let catalog = generate(&small());
        let n = catalog.expect("customer").row_count() as i64;
        let orders = catalog.expect("orders");
        for row in orders.scan_values() {
            let ck = row[1].as_int().unwrap();
            assert!((1..=n).contains(&ck));
        }
    }
}
