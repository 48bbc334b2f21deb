//! Property tests for the out-of-core operator paths: on random
//! inputs, a query run under a tiny memory budget (forcing the external
//! sort and the spilling hybrid hash join out of core) must produce
//! exactly the rows the unbounded in-memory path produces.
//!
//! The sort comparison is row-for-row — the external merge reproduces
//! the in-memory stable sort order bit-for-bit, including `f64`
//! payloads compared by their bit patterns (so `-0.0` vs `0.0` and
//! every NaN-free value must round-trip through spill files exactly).
//! The join comparison is a sorted multiset: spilled partitions
//! legitimately reorder output across partitions.
//!
//! Existence (semi and anti) joins keep only their build keys, and are
//! held to more: across a product of budgets and build-key shapes, the
//! output equals the reference row for row once stably ordered by key —
//! every key's rows in probe order — and in probe order outright when
//! the run opened no spill file; every grant comes back, and the spill
//! directory is left empty.

use cordoba_exec::wiring::{self, WiringConfig};
use cordoba_exec::{reference, JoinKind, MemoryBroker, MemoryConfig, OpCost, PhysicalPlan};
use cordoba_sim::Simulator;
use cordoba_storage::{Catalog, DataType, Field, Schema, TableBuilder, Value, PAGE_SIZE};
use proptest::prelude::*;

/// Runs `plan` through the simulator under `memory` and returns the
/// collected rows and the query's broker; panics on any fault (these
/// plans must never fail, only spill).
fn run_under(
    catalog: &Catalog,
    plan: &PhysicalPlan,
    memory: MemoryConfig,
) -> (Vec<Vec<Value>>, MemoryBroker) {
    let cfg = WiringConfig {
        memory,
        ..WiringConfig::default()
    };
    let mut sim = Simulator::new(2);
    let (rx, _ops, res) =
        wiring::instantiate(&mut sim, catalog, plan, "spill-eq", &cfg).expect("plan wires");
    let rows = wiring::run_and_collect(&mut sim, rx, OpCost::default(), &res.fault)
        .expect("query must spill, not fail");
    (rows, res.broker)
}

/// [`run_under`] the given budget, spilling to the system temp dir.
fn run_with_budget(
    catalog: &Catalog,
    plan: &PhysicalPlan,
    budget: Option<usize>,
) -> Vec<Vec<Value>> {
    let memory = MemoryConfig {
        query_budget: budget,
        ..MemoryConfig::default()
    };
    run_under(catalog, plan, memory).0
}

/// Maps rows to a bit-exact representation: floats by `to_bits`, so
/// equality is byte equality rather than IEEE `==`.
fn bit_exact(rows: &[Vec<Value>]) -> Vec<Vec<(u8, u64)>> {
    rows.iter()
        .map(|row| {
            row.iter()
                .map(|v| match v {
                    Value::Int(i) => (0u8, *i as u64),
                    Value::Float(f) => (1u8, f.to_bits()),
                    other => (2u8, format!("{other:?}").len() as u64),
                })
                .collect()
        })
        .collect()
}

/// One-table catalog of `(k: Int, v: Float)` rows.
fn kf_catalog(rows: &[(i64, f64)]) -> Catalog {
    let schema = Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("v", DataType::Float),
    ]);
    let mut tb = TableBuilder::new("t", schema);
    for (k, v) in rows {
        tb.push_row(&[Value::Int(*k), Value::Float(*v)]);
    }
    let mut c = Catalog::new();
    c.register(tb.finish());
    c
}

/// Two-table catalog of `(k: Int, v: Int)` rows for joins.
fn kv_catalog(left: &[(i64, i64)], right: &[(i64, i64)]) -> Catalog {
    let mut catalog = Catalog::new();
    for (name, rows) in [("l", left), ("r", right)] {
        let schema = Schema::new(vec![
            Field::new(format!("{name}k"), DataType::Int),
            Field::new(format!("{name}v"), DataType::Int),
        ]);
        let mut tb = TableBuilder::new(name, schema);
        for (k, v) in rows {
            tb.push_row(&[Value::Int(*k), Value::Int(*v)]);
        }
        catalog.register(tb.finish());
    }
    catalog
}

fn scan(table: &str) -> Box<PhysicalPlan> {
    Box::new(PhysicalPlan::Scan {
        table: table.into(),
        cost: OpCost::default(),
    })
}

/// Float payloads with awkward bit patterns (`-0.0`, subnormal-ish
/// fractions, large magnitudes) that IEEE `==` would conflate or that
/// naive text round-trips would corrupt.
fn payload() -> impl Strategy<Value = f64> {
    (0u8..4, -1_000_000_000i64..1_000_000_000).prop_map(|(shape, m)| match shape {
        0 => -0.0,
        1 => 0.0,
        2 => m as f64 * 1.0e3,
        _ => m as f64 / 1.0e9,
    })
}

/// Duplicate-heavy keyed float rows — enough of them that a few-page
/// budget forces multiple spilled runs.
fn sort_rows() -> impl Strategy<Value = Vec<(i64, f64)>> {
    proptest::collection::vec((0i64..32, payload()), 0..2000)
}

/// Duplicate-heavy int pairs; small key domains force collisions.
fn join_rows(max: usize) -> impl Strategy<Value = Vec<(i64, i64)>> {
    proptest::collection::vec((0i64..64, 0i64..1000), 0..max)
}

/// An existence join of `r` (build, keyed by its second column: what a
/// key-only partition stores is then not where the key was) and `l`
/// (probe, keyed by its first).
fn existence_join(kind: JoinKind) -> PhysicalPlan {
    PhysicalPlan::HashJoin {
        build: scan("r"),
        probe: scan("l"),
        build_key: 1,
        probe_key: 0,
        kind,
        build_cost: OpCost::default(),
        probe_cost: OpCost::default(),
    }
}

/// The build-key shapes an existence join meets.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Runs of one key, as `lineitem` on its order key: a run keeps one.
    Clustered,
    /// The same rows with the runs broken up: every row keeps its key.
    Scattered,
    /// Every row on one key.
    HotKey,
    /// No build rows at all.
    Empty,
}

/// Build rows `(i, key)` of `shape`, one run of `len` rows per
/// `(key, len)` of `runs`.
fn shaped(shape: Shape, runs: &[(i64, usize)]) -> Vec<(i64, i64)> {
    let keys = runs
        .iter()
        .flat_map(|&(key, len)| std::iter::repeat_n(key, len));
    let clustered: Vec<(i64, i64)> = (0..).zip(keys).collect();
    let n = clustered.len();
    match shape {
        Shape::Clustered => clustered,
        // 7919 is a prime above any `n` here, so this is a permutation.
        Shape::Scattered => (0..n).map(|i| clustered[i * 7919 % n]).collect(),
        Shape::HotKey => clustered.iter().map(|&(i, _)| (i, 7)).collect(),
        Shape::Empty => Vec::new(),
    }
}

/// Rows stably ordered by their first column: each key's rows keep the
/// order they came in.
fn by_key(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort_by_key(|row| row[0].as_int());
    rows
}

/// Runs an existence join under a budget of `pages` pages with a spill
/// directory of its own (`tag` names it) and checks it against the
/// reference: row for row by key, and in probe order outright if no
/// spill file was opened. Checks too that every grant came back and no
/// spill file survived.
fn check_existence_join(catalog: &Catalog, kind: JoinKind, pages: usize, tag: &str) {
    let case = format!("{tag}: {kind:?} at {pages} pages");
    let name = format!("cordoba-existence-{tag}-{}", std::process::id());
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    let plan = existence_join(kind);
    let memory = MemoryConfig {
        query_budget: Some(pages * PAGE_SIZE),
        spill_dir: Some(dir.clone()),
    };
    let (got, broker) = run_under(catalog, &plan, memory);
    let want = reference::execute(catalog, &plan);
    assert_eq!(broker.used(), 0, "{case}: grants leaked");
    // The first spill file a run opens creates the directory.
    if dir.exists() {
        let left = std::fs::read_dir(&dir).expect("spill dir").count();
        assert_eq!(left, 0, "{case}: spill files left behind");
        std::fs::remove_dir(&dir).expect("empty spill dir");
    } else {
        assert_eq!(got, want, "{case}: nothing spilled, so probe order holds");
    }
    assert_eq!(by_key(got), by_key(want), "{case}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// External sort under a two-page budget ≡ in-memory sort,
    /// row-for-row, floats compared by bit pattern.
    #[test]
    fn spilled_sort_is_bit_identical_to_in_memory(rows in sort_rows()) {
        let catalog = kf_catalog(&rows);
        let plan = PhysicalPlan::Sort {
            input: scan("t"),
            keys: vec![0],
            cost: OpCost::default(),
        };
        let in_memory = run_with_budget(&catalog, &plan, None);
        let spilled = run_with_budget(&catalog, &plan, Some(2 * PAGE_SIZE));
        prop_assert_eq!(bit_exact(&spilled), bit_exact(&in_memory));
    }

    /// Spilling hybrid hash join under a two-page budget ≡ in-memory
    /// join as a multiset, and both equal the synchronous reference.
    #[test]
    fn spilled_join_matches_in_memory_join(
        left in join_rows(1200),
        right in join_rows(1200),
    ) {
        let catalog = kv_catalog(&left, &right);
        let plan = PhysicalPlan::HashJoin {
            build: scan("r"),
            probe: scan("l"),
            build_key: 0,
            probe_key: 0,
            kind: JoinKind::Inner,
            build_cost: OpCost::default(),
            probe_cost: OpCost::default(),
        };
        let in_memory = reference::canonicalize(run_with_budget(&catalog, &plan, None));
        let spilled =
            reference::canonicalize(run_with_budget(&catalog, &plan, Some(2 * PAGE_SIZE)));
        let oracle = reference::canonicalize(reference::execute(&catalog, &plan));
        prop_assert_eq!(&spilled, &in_memory, "spilled vs in-memory");
        prop_assert_eq!(&spilled, &oracle, "spilled vs reference");
    }

    /// Semi/anti/left-outer joins survive spilling too: each kind's
    /// spilled output equals its unbounded output as a multiset.
    #[test]
    fn spilled_join_kinds_match_in_memory(
        left in join_rows(600),
        right in join_rows(600),
        kind_ix in 0usize..3,
    ) {
        let kind = [JoinKind::Semi, JoinKind::Anti, JoinKind::LeftOuter][kind_ix];
        let catalog = kv_catalog(&left, &right);
        let plan = PhysicalPlan::HashJoin {
            build: scan("r"),
            probe: scan("l"),
            build_key: 0,
            probe_key: 0,
            kind,
            build_cost: OpCost::default(),
            probe_cost: OpCost::default(),
        };
        let in_memory = reference::canonicalize(run_with_budget(&catalog, &plan, None));
        let spilled =
            reference::canonicalize(run_with_budget(&catalog, &plan, Some(2 * PAGE_SIZE)));
        prop_assert_eq!(&spilled, &in_memory);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Semi and anti joins over every build-key shape, at budgets of
    /// 1, 2, 4, 8 and 64 pages, each against the reference.
    #[test]
    fn existence_joins_match_the_reference_at_every_budget_and_shape(
        runs in proptest::collection::vec((0i64..400, 1usize..24), 1..120),
        probe in proptest::collection::vec((0i64..400, 0i64..1000), 0..800),
    ) {
        for shape in [Shape::Clustered, Shape::Scattered, Shape::HotKey, Shape::Empty] {
            let catalog = kv_catalog(&probe, &shaped(shape, &runs));
            for kind in [JoinKind::Semi, JoinKind::Anti] {
                for pages in [1, 2, 4, 8, 64] {
                    check_existence_join(&catalog, kind, pages, &format!("{shape:?}"));
                }
            }
        }
    }
}

/// 6 000 distinct scattered keys are 47 KiB, and every one of them is
/// probed: a key lost on its way to or from a key file shows. Victims
/// spill what they hold from two pages up; under one page, two
/// partitions of them do not fit when their pairs start, and each key
/// file is split by the next level's hash (the kernel's own tests watch
/// that happen) before the pairs join.
#[test]
fn distinct_key_files_spill_and_repartition_without_losing_a_key() {
    let runs: Vec<(i64, usize)> = (0..6000).map(|key| (key, 1)).collect();
    let probe: Vec<(i64, i64)> = (0..9000).map(|i| (i * 7 % 9000, i)).collect();
    let catalog = kv_catalog(&probe, &shaped(Shape::Scattered, &runs));
    for kind in [JoinKind::Semi, JoinKind::Anti] {
        for pages in [1, 2, 4, 8] {
            check_existence_join(&catalog, kind, pages, "distinct");
        }
    }
}
