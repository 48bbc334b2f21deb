//! The load generator's inputs: everything a workload feeds the
//! program is derived here from `--seed`, and the program under test
//! only ever sees the generated catalog, plans and schedules.

use cordoba_engine::{ArrivalSchedule, QuerySpec};
use cordoba_exec::expr::{Agg, ScalarExpr};
use cordoba_exec::{JoinKind, PhysicalPlan};
use cordoba_storage::tpch::{generate, TpchConfig};
use cordoba_storage::Catalog;
use cordoba_workload::arrivals::bursty;
use cordoba_workload::{family_specs, q1, q13, q4, q6, CostProfile, FamilyConfig};

/// `lineitem` column indices used by the benchmark's own plans and
/// kernel replays (see `cordoba_storage::tpch::lineitem_schema`).
pub mod li {
    /// `l_orderkey` (Int).
    pub const ORDERKEY: usize = 0;
    /// `l_quantity` (Float).
    pub const QUANTITY: usize = 1;
    /// `l_extendedprice` (Float).
    pub const EXTENDEDPRICE: usize = 2;
    /// `l_discount` (Float).
    pub const DISCOUNT: usize = 3;
    /// `l_tax` (Float).
    pub const TAX: usize = 4;
    /// `l_shipdate` (Date).
    pub const SHIPDATE: usize = 7;
}

/// The five workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Q1 + Q6 in one batch: gathers, compiled expressions, filter and
    /// aggregate; no join, sort, spill or sharing.
    ScanAgg,
    /// Q4, Q13, a sort-aggregate and a join-aggregate, in memory.
    JoinSort,
    /// The same four plans under a budget of `lineitem / 16`.
    JoinSortSpill,
    /// 1024 bursty arrivals of nested-window family queries through
    /// the service loop with model-guided sharing and a fragment cache.
    ServiceShared,
    /// The real-thread executor: unshared, shared and morsel-parallel.
    ThreadShare,
}

impl Kind {
    /// Every workload, in reporting order.
    pub const ALL: [Kind; 5] = [
        Kind::ScanAgg,
        Kind::JoinSort,
        Kind::JoinSortSpill,
        Kind::ServiceShared,
        Kind::ThreadShare,
    ];

    /// The workload's name in `BENCHMARK.json` and on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::ScanAgg => "scan_agg",
            Kind::JoinSort => "join_sort",
            Kind::JoinSortSpill => "join_sort_spill",
            Kind::ServiceShared => "service_shared",
            Kind::ThreadShare => "thread_share",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Whether the workload runs on the small service catalog.
    fn is_service(self) -> bool {
        self == Kind::ServiceShared
    }
}

/// Input sizes. `--quick` shrinks them for smoke runs; quick numbers
/// are never comparable with the committed configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizing {
    /// TPC-H scale factor of the batch and thread workloads.
    pub batch_scale: f64,
    /// TPC-H scale factor of the service workload.
    pub service_scale: f64,
    /// Bursts in the service schedule (8 arrivals each).
    pub bursts: usize,
}

impl Sizing {
    /// The committed configuration: `lineitem` at sf 0.05 is 300 k rows
    /// / 19 MB, past the 4 MiB L2; the service catalog (12 k rows) fits
    /// it, so per-query fixed cost and not kernels dominates there.
    pub const FULL: Sizing = Sizing {
        batch_scale: 0.05,
        service_scale: 0.002,
        bursts: 128,
    };
    /// Smoke sizing for `--quick` and the tests.
    pub const QUICK: Sizing = Sizing {
        batch_scale: 0.004,
        service_scale: 0.002,
        bursts: 8,
    };
}

/// Arrivals per burst of the service schedule.
pub const BURST_SIZE: usize = 8;
/// Families × members of the service query pool.
pub const FAMILIES: usize = 4;
/// Members per family.
pub const PER_FAMILY: usize = 8;

/// The three generator seeds derived from `--seed`: the default seed 1
/// gives the 1 / 17 / 23 triple the sizing runs were made with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    /// `TpchConfig::seed`.
    pub tpch: u64,
    /// `FamilyConfig::seed`.
    pub family: u64,
    /// Arrival-process seed.
    pub arrivals: u64,
}

impl Seeds {
    /// Derives the generator seeds from the command-line seed.
    pub fn from_seed(seed: u64) -> Seeds {
        Seeds {
            tpch: seed,
            family: seed.wrapping_add(16),
            arrivals: seed.wrapping_add(22),
        }
    }
}

/// Generates the workload's catalog.
pub fn catalog(kind: Kind, seeds: Seeds, sizing: Sizing) -> Catalog {
    generate(&TpchConfig {
        scale_factor: if kind.is_service() {
            sizing.service_scale
        } else {
            sizing.batch_scale
        },
        seed: seeds.tpch,
        ..TpchConfig::default()
    })
}

fn scan(table: &str, costs: &CostProfile) -> Box<PhysicalPlan> {
    Box::new(PhysicalPlan::Scan {
        table: table.into(),
        cost: costs.scan,
    })
}

/// `count(*), sum(l_extendedprice)` over `lineitem` sorted by
/// `l_shipdate`: a full sort whose output is aggregated away, so result
/// collection stays out of the measurement. The sum is taken in sorted
/// order, so a sort that is not stable shows as a float mismatch.
pub fn sort_agg(costs: &CostProfile) -> QuerySpec {
    let plan = PhysicalPlan::Aggregate {
        input: Box::new(PhysicalPlan::Sort {
            input: scan("lineitem", costs),
            keys: vec![li::SHIPDATE],
            cost: costs.sort,
        }),
        group_by: vec![],
        aggs: vec![
            ("rows".into(), Agg::Count),
            (
                "sum_price".into(),
                Agg::Sum(ScalarExpr::col(li::EXTENDEDPRICE)),
            ),
        ],
        cost: costs.aggregate,
    };
    QuerySpec::unshared("sort_agg", plan)
}

/// `count(*)` over `orders ⋈ lineitem` on the order key, `orders` as
/// the build side: the whole build arena must fit or spill.
pub fn join_agg(costs: &CostProfile) -> QuerySpec {
    let plan = PhysicalPlan::Aggregate {
        input: Box::new(PhysicalPlan::HashJoin {
            build: scan("orders", costs),
            probe: scan("lineitem", costs),
            build_key: 0,
            probe_key: li::ORDERKEY,
            kind: JoinKind::Inner,
            build_cost: costs.join_build,
            probe_cost: costs.join_probe,
        }),
        group_by: vec![],
        aggs: vec![("rows".into(), Agg::Count)],
        cost: costs.aggregate,
    };
    QuerySpec::unshared("join_agg", plan)
}

/// The distinct query specs a workload runs, in oracle order.
pub fn specs(kind: Kind, seeds: Seeds) -> Vec<QuerySpec> {
    let costs = CostProfile::paper();
    match kind {
        Kind::ScanAgg => vec![q1(&costs), q6(&costs)],
        Kind::JoinSort | Kind::JoinSortSpill => {
            vec![q4(&costs), q13(&costs), sort_agg(&costs), join_agg(&costs)]
        }
        Kind::ServiceShared => family_pool(seeds),
        Kind::ThreadShare => vec![q6(&costs), q1(&costs)],
    }
}

/// The seeded pool of nested-window Q6/Q1-style queries.
pub fn family_pool(seeds: Seeds) -> Vec<QuerySpec> {
    family_specs(
        &CostProfile::paper(),
        &FamilyConfig {
            seed: seeds.family,
            families: FAMILIES,
            per_family: PER_FAMILY,
        },
    )
}

/// The open-loop arrival schedule of `service_shared`: tight bursts of
/// eight (whole bursts co-reside in the formation window, so groups
/// form) separated by exponential idle gaps (so fragments complete and
/// the cache is consulted across bursts). Specs cycle round-robin
/// through `pool`: arrival `i` is `pool[i % pool.len()]`.
pub fn schedule(pool: &[QuerySpec], seeds: Seeds, sizing: Sizing) -> ArrivalSchedule {
    bursty(
        pool,
        sizing.bursts,
        BURST_SIZE,
        100,
        600_000,
        seeds.arrivals,
    )
}

/// Stored bytes of `table`.
pub fn table_bytes(catalog: &Catalog, table: &str) -> usize {
    catalog.expect(table).byte_size()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row_counts(c: &Catalog) -> Vec<(String, usize)> {
        let mut v: Vec<_> = c
            .iter()
            .map(|(n, t)| (n.to_string(), t.row_count()))
            .collect();
        v.sort();
        v
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = Seeds::from_seed(1);
        assert_eq!(
            a,
            Seeds {
                tpch: 1,
                family: 17,
                arrivals: 23
            }
        );
        let b = Seeds::from_seed(2);
        let pool_a = family_pool(a);
        assert_eq!(pool_a, family_pool(a));
        assert_ne!(pool_a, family_pool(b), "family windows follow the seed");
        let times = |s: &ArrivalSchedule| s.iter().map(|(at, _)| *at).collect::<Vec<_>>();
        let sched_a = schedule(&pool_a, a, Sizing::QUICK);
        assert_eq!(sched_a.len(), Sizing::QUICK.bursts * BURST_SIZE);
        assert_eq!(sched_a, schedule(&pool_a, a, Sizing::QUICK));
        assert_ne!(times(&sched_a), times(&schedule(&pool_a, b, Sizing::QUICK)));
        for (i, (_, spec)) in sched_a.iter().enumerate() {
            assert_eq!(spec, &pool_a[i % pool_a.len()], "round-robin pool order");
        }
        let cat_a = catalog(Kind::ScanAgg, a, Sizing::QUICK);
        assert_eq!(
            row_counts(&cat_a),
            row_counts(&catalog(Kind::ScanAgg, a, Sizing::QUICK))
        );
        // Same generator, other seed: other values (row counts may
        // coincide; the first lineitem page must not).
        let first = |c: &Catalog| c.expect("lineitem").pages()[0].payload().to_vec();
        assert_ne!(
            first(&cat_a),
            first(&catalog(Kind::ScanAgg, b, Sizing::QUICK))
        );
    }

    #[test]
    fn names_round_trip_and_every_workload_has_specs() {
        for kind in Kind::ALL {
            assert_eq!(Kind::from_name(kind.name()), Some(kind));
            assert!(!specs(kind, Seeds::from_seed(1)).is_empty());
        }
        assert_eq!(Kind::from_name("nope"), None);
        assert_eq!(
            specs(Kind::ServiceShared, Seeds::from_seed(1)).len(),
            FAMILIES * PER_FAMILY
        );
    }
}
