//! Vectorized operator pieces held to definitions written without the
//! engine: compiled `LIKE` against the oracle's matcher, the radix sort
//! against a stable `sort_by`, and `BuildTable` lookups against "the
//! rows with this key, in insertion order". Typed-error behavior rides
//! along: malformed plans are rejected at instantiation and unsorted
//! merge inputs fail the query with an [`ExecError`], not the process.
//! Compiled programs against the tree walk, and whole plans against the
//! reference executor, are the root differential fuzzer's (the root
//! `tests/vectorized_equivalence.rs` and `tests/equivalence.rs`).

#![allow(
    clippy::expect_used,
    clippy::panic,
    clippy::disallowed_methods,
    reason = "test code: it compares against the oracle's evaluator and fails by panicking"
)]

use cordoba_exec::expr::{Agg, CmpOp, Predicate, ScalarExpr};
use cordoba_exec::ops::BuildTable;
use cordoba_exec::{reference, wiring, ExecError, JoinKind, OpCost, ParallelConfig, PhysicalPlan};
use cordoba_exec::{CompiledPredicate, ExprScratch};
use cordoba_sim::Simulator;
use cordoba_storage::tpch::{self, TpchConfig};
use cordoba_storage::{
    Catalog, DataType, Date, Field, NumCell, Schema, Table, TableBuilder, Value,
};
use proptest::prelude::*;

fn scan(table: &str) -> Box<PhysicalPlan> {
    let (table, cost) = (table.into(), OpCost::default());
    Box::new(PhysicalPlan::Scan { table, cost })
}

/// Morsel workers every simulated run is made at: the serial wiring and
/// one whose scan chains become morsel groups.
const WORKERS: [usize; 2] = [1, 4];

/// Runs `plan` through the simulator wiring at `workers` morsel workers;
/// `Err` carries either an instantiation rejection or a runtime fault.
fn try_run_sim(
    cat: &Catalog,
    plan: &PhysicalPlan,
    workers: usize,
) -> Result<Vec<Vec<Value>>, ExecError> {
    let parallel = ParallelConfig::with_workers(workers);
    let cfg = wiring::WiringConfig {
        parallel,
        ..Default::default()
    };
    let mut sim = Simulator::new(3);
    let (rx, _ops, res) = wiring::instantiate(&mut sim, cat, plan, "vq", &cfg)?;
    wiring::run_and_collect(&mut sim, rx, OpCost::default(), &res.fault)
}

/// Selects `LIKE pattern` and its negation on column `col` of `table`
/// and compares each page with the oracle's `like_match` over the
/// trimmed field. Returns how many rows `LIKE` selected.
fn assert_like_matches_oracle_on(table: &Table, col: usize, pattern: &str) -> usize {
    let like = Predicate::Like {
        col,
        pattern: pattern.to_string(),
    };
    let (mut scratch, mut sel) = (ExprScratch::default(), Vec::new());
    let mut matched = 0;
    for (pred, want) in [
        (like.clone(), true),
        (Predicate::Not(Box::new(like)), false),
    ] {
        let compiled = CompiledPredicate::compile(&pred, table.schema()).expect("compiles");
        for page in table.pages() {
            compiled.select(page, &mut scratch, &mut sel);
            let expected: Vec<u32> = page
                .tuples()
                .enumerate()
                .filter(|(_, t)| reference::like_match(t.get_str(col), pattern) == want)
                .map(|(r, _)| r as u32)
                .collect();
            assert_eq!(sel, expected, "{pred:?} on {}", table.name());
            matched += usize::from(want) * sel.len();
        }
    }
    matched
}

/// [`assert_like_matches_oracle_on`] a one-column `Str(4)` table of
/// `strings`.
fn assert_like_matches_oracle(strings: &[String], pattern: &str) {
    let schema = Schema::new(vec![Field::new("s", DataType::Str(4))]);
    let mut tb = TableBuilder::with_page_size("t", schema, 64);
    for s in strings {
        tb.push_row(&[Value::Str(s.clone())]);
    }
    assert_like_matches_oracle_on(&tb.finish(), 0, pattern);
}

/// The shapes a random pattern rarely hits: no, leading, trailing and
/// doubled `%`, the empty pattern, a repeated fragment that must not
/// overlap, a fragment longer than the field — against empty,
/// full-width and padded fields.
#[test]
fn compiled_like_edge_cases_match_oracle() {
    let strings: Vec<String> = [
        "", "a", "b", "ab", "ba", "abb", "bab", "abab", "aabb", "a b",
    ]
    .map(String::from)
    .to_vec();
    for pattern in [
        "", "%", "%%", "a", "ab", "abab", "ababa", "a%", "%b", "a%b", "a%%b", "ab%b", "%ab%b%",
        "%ab%ab%", "%b%b", "ab%ab", "%ababa%", "ababa%", "%a%b%a%", "% %", "a %", "%a",
    ] {
        assert_like_matches_oracle(&strings, pattern);
    }
}

/// Q13's filter and the shapes around it over the generated
/// `orders.o_comment`: a `Str(48)` column of space-padded pseudo-text,
/// some of it planted with `special … requests`, which the short `[ab ]`
/// strings never are.
#[test]
fn compiled_like_on_padded_comments_matches_oracle() {
    let catalog = tpch::generate(&TpchConfig::scale(0.002));
    let orders = catalog.get("orders").expect("orders is generated");
    let fields = orders.schema().fields();
    let col = fields.iter().position(|f| f.name == "o_comment");
    let col = col.expect("orders has o_comment");
    assert_eq!(fields[col].dtype, DataType::Str(48));
    for pattern in [
        "%special%requests%",
        "%",
        "%%",
        "",
        "special%",
        "%requests",
        "% %",
    ] {
        let matched = assert_like_matches_oracle_on(orders, col, pattern);
        match pattern {
            "%" | "%%" => assert_eq!(matched, orders.row_count(), "{pattern}"),
            "%special%requests%" => assert!(matched > 0, "the generator plants {pattern}"),
            _ => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A LIKE pattern compiled once into byte fragments accepts exactly
    /// the fields the oracle's per-row `like_match` accepts, plain and
    /// under `Not`. One to four fragments joined by `%` give 0–3 `%`s,
    /// an empty fragment a leading, trailing or doubled one; together
    /// they may exceed the field, which is empty, full-width or padded.
    #[test]
    fn compiled_like_matches_oracle(
        strings in proptest::collection::vec("[ab ]{0,4}", 0..40),
        fragments in proptest::collection::vec("[ab ]{0,2}", 1..5),
    ) {
        assert_like_matches_oracle(&strings, &fragments.join("%"));
    }
}

/// Registers `l` and `r` as two-column (Int key, Int payload) tables on
/// pages of `page_size` bytes — small ones (128 B is eight rows) so
/// non-trivial inputs span several pages.
fn kv_catalog(left: &[(i64, i64)], right: &[(i64, i64)], page_size: usize) -> Catalog {
    let mut cat = Catalog::new();
    for (name, rows) in [("l", left), ("r", right)] {
        let schema = Schema::new(vec![
            Field::new(format!("{name}k"), DataType::Int),
            Field::new(format!("{name}v"), DataType::Int),
        ]);
        let mut tb = TableBuilder::with_page_size(name, schema, page_size);
        rows.iter()
            .for_each(|&(k, v)| tb.push_row(&[Value::Int(k), Value::Int(v)]));
        cat.register(tb.finish());
    }
    cat
}

/// The sort keys of one adversarial shape, one `Vec<Value>` per row,
/// drawn from `raw`: what a byte-skipping radix sort could get wrong.
fn adversarial_keys(shape: u8, raw: &[i64]) -> (Vec<Field>, Vec<Vec<Value>>) {
    let int = |f: &dyn Fn(i64) -> i64| {
        let keys = raw.iter().map(|&x| vec![Value::Int(f(x))]).collect();
        (vec![Field::new("k", DataType::Int)], keys)
    };
    let float = |f: &dyn Fn(i64) -> f64| {
        let keys = raw.iter().map(|&x| vec![Value::Float(f(x))]).collect();
        (vec![Field::new("k", DataType::Float)], keys)
    };
    let pick = |x: i64, n: usize| (x.unsigned_abs() % n as u64) as usize;
    match shape {
        // Every key equal: no byte position differs, no pass runs.
        0 => int(&|_| 42),
        // Keys differing only in the top byte, only in the bottom byte.
        1 => int(&|x| (x << 56) | 0x1234),
        2 => int(&|x| (x & 0xFF) | 0x1234_0000),
        3 => int(&|x| [i64::MIN, i64::MAX, -1, 0, 1][pick(x, 5)]),
        // All eight byte positions differ.
        4 => int(&|x| x),
        5 => float(&|x| {
            let specials = [
                f64::NAN,
                -f64::NAN,
                -0.0,
                0.0,
                f64::INFINITY,
                f64::NEG_INFINITY,
                1.5,
                -1.5,
                f64::MIN_POSITIVE,
                f64::MAX,
            ];
            specials[pick(x, 10)]
        }),
        6 => float(&|x| f64::from_bits(x as u64)),
        // A spread that exactly fills the bits the row's place leaves in
        // the sort's word, and one a bit wider: the widest spread a word
        // holds and the narrowest that takes an entry, each end of it
        // drawn for a quarter of the rows.
        8 | 9 => {
            let spread = (1u64 << place_room(raw.len())) - u64::from(shape == 8);
            let low = -(1i64 << 58);
            let offset = move |x: i64| match pick(x, 4) {
                0 => 0,
                1 => spread,
                _ => (x as u64) % spread,
            };
            int(&|x| low.wrapping_add_unsigned(offset(x)))
        }
        // A packed composite: Str(2) major, Date minor.
        _ => {
            let fields = vec![
                Field::new("s", DataType::Str(2)),
                Field::new("d", DataType::Date),
            ];
            let keys = raw.iter().map(|&x| {
                let s = ["", "a", "ab", "b", "zz"][pick(x, 5)];
                let d = [i32::MIN, -1, 0, 1, i32::MAX, (x >> 8) as i32][pick(x >> 4, 6)];
                vec![Value::Str(s.into()), Value::Date(Date(d))]
            });
            (fields, keys.collect())
        }
    }
}

/// The key bits a row's place leaves in the sort's 64-bit word when
/// `n` rows arrive on `sorted_stamps`' pages: as many bits as the page
/// count needs, and as each page's 16 rows of 16 B need.
fn place_room(n: usize) -> u32 {
    let bits = |count: usize| usize::BITS - count.saturating_sub(1).leading_zeros();
    64 - bits(n.div_ceil(16)) - bits(16)
}

/// The order the sort operator must realize on key tuples, written
/// without the engine: integers and dates numerically, floats by IEEE
/// total order, strings bytewise, major column first.
fn key_order(a: &[Value], b: &[Value]) -> std::cmp::Ordering {
    let pairs = a.iter().zip(b).map(|pair| match pair {
        (Value::Int(x), Value::Int(y)) => x.cmp(y),
        (Value::Float(x), Value::Float(y)) => x.total_cmp(y),
        (Value::Date(x), Value::Date(y)) => x.0.cmp(&y.0),
        (Value::Str(x), Value::Str(y)) => x.cmp(y),
        other => panic!("mixed key columns {other:?}"),
    });
    pairs.fold(std::cmp::Ordering::Equal, std::cmp::Ordering::then)
}

/// Runs `keys` (with an arrival stamp appended to each row) through the
/// sort operator at `workers` morsel workers; the stamps in output order.
fn sorted_stamps(mut fields: Vec<Field>, keys: &[Vec<Value>], workers: usize) -> Vec<usize> {
    let ncols = fields.len();
    fields.push(Field::new("seq", DataType::Int));
    let mut tb = TableBuilder::with_page_size("t", Schema::new(fields), 256);
    for (seq, key) in keys.iter().enumerate() {
        tb.push_row(&[key.clone(), vec![Value::Int(seq as i64)]].concat());
    }
    let mut cat = Catalog::new();
    cat.register(tb.finish());
    let plan = PhysicalPlan::Sort {
        input: scan("t"),
        keys: (0..ncols).collect(),
        cost: OpCost::default(),
    };
    let stamp = |row: &Vec<Value>| row[ncols].as_int().expect("seq is Int") as usize;
    let rows = try_run_sim(&cat, &plan, workers).expect("sort runs");
    rows.iter().map(stamp).collect()
}

/// What `BuildTable::matches` / `contains` must answer for each of
/// `probes`: the payloads of the `(key, payload)` rows with that key,
/// in insertion order.
fn assert_lookups(table: &BuildTable, rows: &[(i64, i64)], probes: &[i64]) {
    for &key in probes {
        let want: Vec<i64> = rows.iter().filter(|r| r.0 == key).map(|r| r.1).collect();
        let payload = |raw: &[u8]| i64::from_cell(raw[8..16].try_into().expect("8 bytes"));
        let got: Vec<i64> = table.matches(key).map(payload).collect();
        assert_eq!(got, want, "key {key}");
        assert_eq!(table.contains(key), !want.is_empty(), "key {key}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The packed-key radix sort orders rows exactly as a stable
    /// `sort_by` on the key does — every adversarial key shape at every
    /// size around the 256-bucket histogram's edges.
    #[test]
    fn radix_order_is_the_stable_sort_by_key(
        raw in proptest::collection::vec(any::<i64>(), 3000..3001),
    ) {
        for shape in 0u8..10 {
            for n in [0usize, 1, 2, 255, 256, 257, 1000 + raw[0].unsigned_abs() as usize % 2000] {
                let (fields, keys) = adversarial_keys(shape, &raw[..n]);
                let mut want: Vec<usize> = (0..n).collect();
                want.sort_by(|&a, &b| key_order(&keys[a], &keys[b]));
                for workers in WORKERS {
                    let got = sorted_stamps(fields.clone(), &keys, workers);
                    prop_assert_eq!(&got, &want, "shape {} n {} workers {}", shape, n, workers);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `BuildTable::matches(k)` is "the rows with key k, in insertion
    /// order" — on an empty table, with one hot key on every row, with
    /// far more distinct keys than buckets (so chains mix keys), and
    /// again after further inserts (the directory must be rebuilt) —
    /// and a table built row by row equals one built page by page.
    #[test]
    fn build_table_lookups_match_definition(
        raw in proptest::collection::vec((any::<i64>(), 0i64..1000), 0..200),
        shape in 0u8..4,
    ) {
        let rows: Vec<(i64, i64)> = raw
            .iter()
            .map(|&(k, v)| match shape {
                0 => (k % 8, v),  // few keys, long same-key chains
                1 => (7, v),      // one hot key on every row
                2 => (k << 40, v), // low bits all zero
                _ => (k, v),      // all distinct, all 64 bits in use
            })
            .collect();
        let mut probes: Vec<i64> = rows.iter().flat_map(|r| [r.0, r.0 ^ 1, !r.0]).collect();
        probes.extend(-10..10);

        let cat = kv_catalog(&rows, &[], 128);
        let pages = cat.expect("l").pages();
        let first = pages.len() / 2;
        let first_rows: usize = pages[..first].iter().map(|p| p.rows()).sum();
        let mut by_page = BuildTable::new(16);
        assert_lookups(&by_page, &[], &probes);
        for page in &pages[..first] {
            by_page.insert_page(page, 0);
        }
        assert_lookups(&by_page, &rows[..first_rows], &probes);
        for page in &pages[first..] {
            by_page.insert_page(page, 0);
        }
        assert_lookups(&by_page, &rows, &probes);

        let mut by_row = BuildTable::new(16);
        for &(k, v) in &rows {
            by_row.insert_row(k, &[k.to_cell(), v.to_cell()].concat());
        }
        prop_assert_eq!(by_row.arena(), by_page.arena());
        prop_assert_eq!(by_row.rows(), rows.len());
        assert_lookups(&by_row, &rows, &probes);
    }
}

/// An unsorted merge input fails the query with a typed error — the
/// worker thread (simulator) and sibling tasks keep running.
#[test]
fn unsorted_merge_input_returns_typed_error() {
    let cat = kv_catalog(&[(5, 1), (2, 2), (9, 3)], &[(1, 1), (2, 2)], 128);
    // No sorts below the merge join: the left scan violates the
    // contract at runtime, after instantiation succeeded.
    let plan = PhysicalPlan::MergeJoin {
        left: scan("l"),
        right: scan("r"),
        left_key: 0,
        right_key: 0,
        cost: OpCost::default(),
    };
    for workers in WORKERS {
        let err = try_run_sim(&cat, &plan, workers).expect_err("unsorted input must fail");
        let (side, prev, key) = ("left", 5, 2);
        assert_eq!(err, ExecError::UnsortedMergeInput { side, prev, key });
    }
}

/// Malformed plans come back as typed instantiation errors — every
/// operator constructor validates, nothing is spawned, nothing panics.
#[test]
fn malformed_plans_return_typed_errors() {
    let schema = Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("v", DataType::Float),
        Field::new("d", DataType::Date),
        Field::new("s", DataType::Str(3)),
    ]);
    let mut tb = TableBuilder::new("t", schema);
    let date = Value::Date(Date(3));
    tb.push_row(&[Value::Int(1), Value::Float(1.0), date, "a".into()]);
    let mut cat = Catalog::new();
    cat.register(tb.finish());
    let cost = OpCost::default();
    let filter = |predicate| PhysicalPlan::Filter {
        input: scan("t"),
        predicate,
        cost,
    };
    let add = |a, b| ScalarExpr::Add(Box::new(a), Box::new(b));
    let cases: Vec<PhysicalPlan> = vec![
        // String column in arithmetic.
        PhysicalPlan::Project {
            input: scan("t"),
            exprs: vec![("e".into(), add(ScalarExpr::col(3), ScalarExpr::IntLit(1)))],
            cost,
        },
        // String literal in a numeric filter expression.
        filter(Predicate::cmp(
            add(ScalarExpr::col(0), ScalarExpr::StrLit("x".into())),
            CmpOp::Eq,
            ScalarExpr::IntLit(1),
        )),
        // Date vs float comparison.
        filter(Predicate::col_cmp(2, CmpOp::Lt, 3.0)),
        // LIKE over a numeric column.
        filter(Predicate::Like {
            col: 0,
            pattern: "%a%".into(),
        }),
        // Aggregate over a string input.
        PhysicalPlan::Aggregate {
            input: scan("t"),
            group_by: vec![],
            aggs: vec![("s".into(), Agg::Sum(ScalarExpr::col(3)))],
            cost,
        },
        // Hash join keyed on a non-Int column.
        PhysicalPlan::HashJoin {
            build: scan("t"),
            probe: scan("t"),
            build_key: 1,
            probe_key: 0,
            kind: JoinKind::Inner,
            build_cost: cost,
            probe_cost: cost,
        },
        // NLJ predicate referencing an out-of-range pair column.
        PhysicalPlan::NestedLoopJoin {
            outer: scan("t"),
            inner: scan("t"),
            predicate: Predicate::col_cmp(99, CmpOp::Eq, 1i64),
            cost,
        },
    ];
    for (plan, workers) in cases.iter().flat_map(|p| WORKERS.map(|w| (p, w))) {
        let err = try_run_sim(&cat, plan, workers).expect_err("malformed plan must be rejected");
        assert!(
            matches!(err, ExecError::PlanType(_)),
            "{plan:?} at {workers}: {err}"
        );
    }
}
