//! Property tests for the vectorized execution path: compiled
//! expression/predicate programs must agree with the tree-walking
//! evaluators row for row, and the vectorized operator tasks (filter,
//! project, aggregate, sort, hash join, merge join, nested-loop join)
//! must reproduce the tuple-at-a-time reference executor on randomized
//! schemas, pages, and plans. Typed-error behavior rides along:
//! malformed plans are rejected at instantiation and unsorted merge
//! inputs fail the query with an [`ExecError`], not the process.

use cordoba_exec::expr::{Agg, CmpOp, Predicate, ScalarExpr};
use cordoba_exec::ops::BuildTable;
use cordoba_exec::vexpr::{CompiledExpr, CompiledPredicate, ExprScratch};
use cordoba_exec::{reference, wiring, ExecError, JoinKind, OpCost, PhysicalPlan};
use cordoba_sim::Simulator;
use cordoba_storage::{Catalog, DataType, Date, Field, Schema, TableBuilder, Value};
use proptest::prelude::*;
use std::sync::Arc;

/// One random row: (Int, Float source, Date day, short string).
type RowSpec = (i64, i64, i64, String);

/// A stream of random recipe triples driving expression/predicate
/// construction; runs out gracefully (defaults end recursion).
struct Recipe<'a> {
    items: &'a [(u8, u8, i64)],
    at: usize,
}

impl<'a> Recipe<'a> {
    fn new(items: &'a [(u8, u8, i64)]) -> Self {
        Self { items, at: 0 }
    }

    fn next(&mut self) -> (u8, u8, i64) {
        let item = self.items.get(self.at).copied().unwrap_or((3, 0, 1));
        self.at += 1;
        item
    }
}

fn cmp_op(sel: u8) -> CmpOp {
    [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ][(sel % 6) as usize]
}

/// Builds a random well-typed numeric expression over columns 0 (Int)
/// and 1 (Float).
fn gen_num_expr(r: &mut Recipe<'_>, depth: u32) -> ScalarExpr {
    let (kind, _, lit) = r.next();
    match kind % 8 {
        0..=2 if depth > 0 => {
            let a = Box::new(gen_num_expr(r, depth - 1));
            let b = Box::new(gen_num_expr(r, depth - 1));
            match kind % 3 {
                0 => ScalarExpr::Add(a, b),
                1 => ScalarExpr::Sub(a, b),
                _ => ScalarExpr::Mul(a, b),
            }
        }
        0 | 4 => ScalarExpr::col(0),
        1 | 5 => ScalarExpr::col(1),
        2 | 6 => ScalarExpr::IntLit(lit),
        _ => ScalarExpr::FloatLit(lit as f64 * 0.5),
    }
}

/// Builds a random well-typed predicate over the test schema.
fn gen_pred(r: &mut Recipe<'_>, depth: u32) -> Predicate {
    let (kind, op_sel, lit) = r.next();
    let op = cmp_op(op_sel);
    match kind % 13 {
        0 if depth > 0 => {
            let n = 1 + (lit.unsigned_abs() % 3) as usize;
            Predicate::And((0..n).map(|_| gen_pred(r, depth - 1)).collect())
        }
        1 if depth > 0 => {
            let n = 1 + (lit.unsigned_abs() % 3) as usize;
            Predicate::Or((0..n).map(|_| gen_pred(r, depth - 1)).collect())
        }
        2 if depth > 0 => Predicate::Not(Box::new(gen_pred(r, depth - 1))),
        3 => Predicate::True,
        4 => Predicate::col_cmp(0, op, lit),
        5 => Predicate::col_cmp(1, op, lit as f64 * 0.5),
        6 => Predicate::col_cmp(2, op, Date(lit as i32)),
        7 => Predicate::col_cmp(
            3,
            op,
            ["", "a", "ab", "bca", "c"][(lit.unsigned_abs() % 5) as usize],
        ),
        8 => Predicate::Like {
            col: 3,
            pattern: ["%a%", "b%", "%c", "%a%b%", "abc", "%"][(lit.unsigned_abs() % 6) as usize]
                .to_string(),
        },
        9 => {
            // `lit op col`: compiled as `col op' lit`.
            let (left, col) = match lit.rem_euclid(4) {
                0 => (ScalarExpr::IntLit(lit), 0),
                1 => (ScalarExpr::FloatLit(lit as f64 * 0.5), 1),
                2 => (ScalarExpr::DateLit(Date(lit as i32)), 2),
                _ => (ScalarExpr::StrLit("ab".into()), 3),
            };
            Predicate::cmp(left, op, ScalarExpr::col(col))
        }
        10 => {
            // Column vs column: Date/Date, Int/Int, Float/Int, Str/Str.
            let (l, r) = [(2, 4), (0, 5), (1, 0), (3, 3)][(lit.unsigned_abs() % 4) as usize];
            Predicate::cmp(ScalarExpr::col(l), op, ScalarExpr::col(r))
        }
        _ => Predicate::cmp(gen_num_expr(r, 1), op, gen_num_expr(r, 1)),
    }
}

/// Columns 4 and 5 are derived from the others (a second Date and a
/// second Int for the column-vs-column shapes).
fn test_schema() -> Arc<Schema> {
    Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("v", DataType::Float),
        Field::new("d", DataType::Date),
        Field::new("s", DataType::Str(3)),
        Field::new("d2", DataType::Date),
        Field::new("k2", DataType::Int),
    ])
}

/// Registers the random rows as table `t` with small (128 B) pages so
/// non-trivial inputs span several pages.
fn catalog(rows: &[RowSpec]) -> Catalog {
    let mut tb = TableBuilder::with_page_size("t", test_schema(), 128);
    for (k, v, d, s) in rows {
        tb.push_row(&[
            Value::Int(*k),
            Value::Float(*v as f64 * 0.5),
            Value::Date(Date(*d as i32)),
            Value::Str(s.clone()),
            Value::Date(Date((*d + *k) as i32)),
            Value::Int(*v / 2),
        ]);
    }
    let mut c = Catalog::new();
    c.register(tb.finish());
    c
}

/// As [`catalog`], each row with two 1-byte flags (columns 6 and 7)
/// and a float (column 8) whose values include both zeros and NaN.
fn flagged_catalog(rows: &[RowSpec]) -> Catalog {
    let mut fields = test_schema().fields().to_vec();
    fields.push(Field::new("a", DataType::Str(1)));
    fields.push(Field::new("b", DataType::Str(1)));
    fields.push(Field::new("f", DataType::Float));
    let mut tb = TableBuilder::with_page_size("t", Schema::new(fields), 128);
    let base = catalog(rows);
    let base_rows = base.expect("t").pages().iter().flat_map(|p| p.tuples());
    for (t, (k, v, ..)) in base_rows.zip(rows) {
        let mut row = t.to_values();
        row.push(Value::Str(["x", "y", ""][k.rem_euclid(3) as usize].into()));
        row.push(Value::Str(["p", "q"][v.rem_euclid(2) as usize].into()));
        row.push(Value::Float(
            [0.0, -0.0, f64::NAN, 1.5][(k + v).rem_euclid(4) as usize],
        ));
        tb.push_row(&row);
    }
    let mut c = Catalog::new();
    c.register(tb.finish());
    c
}

/// What an aggregate list with shared inputs draws from: three
/// generated expressions with their operands and operand-swapped forms,
/// and fixed forms that differ only in operand order or type.
fn shared_input_pool(r: &mut Recipe<'_>) -> Vec<ScalarExpr> {
    use ScalarExpr::{Add, FloatLit, IntLit, Mul, Sub};
    let op = |f: fn(Box<ScalarExpr>, Box<ScalarExpr>) -> ScalarExpr,
              a: &ScalarExpr,
              b: &ScalarExpr| { f(Box::new(a.clone()), Box::new(b.clone())) };
    let (k, v, k2) = (ScalarExpr::col(0), ScalarExpr::col(1), ScalarExpr::col(5));
    let big = op(Mul, &k, &IntLit(1 << 58));
    let mut pool = vec![
        op(Add, &v, &IntLit(1)),
        op(Add, &IntLit(1), &v),
        op(Sub, &v, &IntLit(1)),
        op(Sub, &IntLit(1), &v),
        // Int ⊕ Int: through f64 and truncated back.
        op(Add, &k, &IntLit(1)),
        op(Add, &IntLit(1), &k),
        op(Mul, &k, &k2),
        op(Add, &big, &k2),
        // An Int column against Float operands.
        op(Mul, &k, &FloatLit(0.5)),
        op(Sub, &k, &v),
        op(Sub, &v, &k),
    ];
    for _ in 0..3 {
        let e = gen_num_expr(r, 2);
        if let Add(a, b) | Sub(a, b) | Mul(a, b) = &e {
            let swapped = match &e {
                Add(..) => op(Add, b, a),
                Sub(..) => op(Sub, b, a),
                _ => op(Mul, b, a),
            };
            pool.extend([(**a).clone(), (**b).clone(), swapped]);
        }
        pool.push(e);
    }
    pool
}

fn scan() -> Box<PhysicalPlan> {
    Box::new(PhysicalPlan::Scan {
        table: "t".into(),
        cost: OpCost::default(),
    })
}

/// Runs `plan` through the simulator wiring; `Err` carries either an
/// instantiation rejection or a runtime fault.
fn try_run_sim(cat: &Catalog, plan: &PhysicalPlan) -> Result<Vec<Vec<Value>>, ExecError> {
    let mut sim = Simulator::new(3);
    let (rx, _ops, res) =
        wiring::instantiate(&mut sim, cat, plan, "vq", &wiring::WiringConfig::default())?;
    wiring::run_and_collect(&mut sim, rx, OpCost::default(), &res.fault)
}

/// Runs `plan` through the simulator wiring and collects result rows.
fn run_sim(cat: &Catalog, plan: &PhysicalPlan) -> Vec<Vec<Value>> {
    try_run_sim(cat, plan).expect("plan wires and runs")
}

fn rows_strategy() -> impl Strategy<Value = Vec<RowSpec>> {
    proptest::collection::vec((-20i64..20, -40i64..40, 0i64..30, "[a-c]{0,3}"), 0..100)
}

fn recipe_strategy() -> impl Strategy<Value = Vec<(u8, u8, i64)>> {
    proptest::collection::vec((0u8..=255, 0u8..=255, -30i64..30), 1..40)
}

/// Selects `LIKE pattern` and its negation over a one-column `Str(4)`
/// table of `strings` and compares each page with the oracle's
/// `like_match` over the trimmed field.
fn assert_like_matches_oracle(strings: &[String], pattern: &str) {
    let schema = Schema::new(vec![Field::new("s", DataType::Str(4))]);
    let mut tb = TableBuilder::with_page_size("t", schema.clone(), 64);
    for s in strings {
        tb.push_row(&[Value::Str(s.clone())]);
    }
    let table = tb.finish();
    let like = Predicate::Like {
        col: 0,
        pattern: pattern.to_string(),
    };
    let (mut scratch, mut sel) = (ExprScratch::default(), Vec::new());
    for (pred, want) in [
        (like.clone(), true),
        (Predicate::Not(Box::new(like)), false),
    ] {
        let compiled = CompiledPredicate::compile(&pred, &schema).expect("compiles");
        for page in table.pages() {
            compiled.select(page, &mut scratch, &mut sel);
            let expected: Vec<u32> = page
                .tuples()
                .enumerate()
                .filter(|(_, t)| reference::like_match(t.get_str(0), pattern) == want)
                .map(|(r, _)| r as u32)
                .collect();
            assert_eq!(sel, expected, "{pred:?} over {strings:?}");
        }
    }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// CompiledPredicate::select picks exactly the rows the
    /// tree-walking Predicate::eval accepts, page by page.
    #[test]
    fn compiled_predicate_matches_tree_walk(rows in rows_strategy(), seed in recipe_strategy()) {
        let cat = catalog(&rows);
        let pred = gen_pred(&mut Recipe::new(&seed), 3);
        let table = cat.expect("t");
        let compiled = CompiledPredicate::compile(&pred, table.schema()).expect("compiles");
        let mut scratch = ExprScratch::default();
        let mut sel = Vec::new();
        for page in table.pages() {
            compiled.select(page, &mut scratch, &mut sel);
            let expected: Vec<u32> = page
                .tuples()
                .enumerate()
                .filter_map(|(r, t)| pred.eval(&t).then_some(r as u32))
                .collect();
            prop_assert_eq!(&sel, &expected, "predicate {:?}", pred);
        }
    }

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// CompiledExpr::eval_f64_into agrees bit-for-bit with the
    /// tree-walking ScalarExpr::eval coerced to f64 (same per-row
    /// operation order, so float results are identical, not just close).
    #[test]
    fn compiled_expr_matches_tree_walk(rows in rows_strategy(), seed in recipe_strategy()) {
        let cat = catalog(&rows);
        let expr = gen_num_expr(&mut Recipe::new(&seed), 3);
        let table = cat.expect("t");
        let compiled = CompiledExpr::compile(&expr, table.schema()).expect("compiles");
        let mut scratch = ExprScratch::default();
        let mut out = Vec::new();
        for page in table.pages() {
            compiled.eval_f64_into(page, &mut scratch, &mut out);
            prop_assert_eq!(out.len(), page.rows());
            for (r, t) in page.tuples().enumerate() {
                let expected = expr.eval(&t).as_f64().expect("numeric expression");
                prop_assert_eq!(
                    out[r].to_bits(), expected.to_bits(),
                    "expr {:?} row {}: {} vs {}", expr, r, out[r], expected
                );
            }
        }
    }

    /// The vectorized filter task reproduces the reference executor.
    #[test]
    fn vectorized_filter_matches_reference(rows in rows_strategy(), seed in recipe_strategy()) {
        let cat = catalog(&rows);
        let plan = PhysicalPlan::Filter {
            input: scan(),
            predicate: gen_pred(&mut Recipe::new(&seed), 2),
            cost: OpCost::default(),
        };
        let expected = reference::execute(&cat, &plan);
        let got = run_sim(&cat, &plan);
        prop_assert_eq!(got, expected);
    }

    /// The vectorized projection task reproduces the reference
    /// executor, including string pass-through and literal columns.
    #[test]
    fn vectorized_project_matches_reference(rows in rows_strategy(), seed in recipe_strategy()) {
        let cat = catalog(&rows);
        let mut r = Recipe::new(&seed);
        let plan = PhysicalPlan::Project {
            input: scan(),
            exprs: vec![
                ("e0".into(), gen_num_expr(&mut r, 2)),
                ("e1".into(), gen_num_expr(&mut r, 2)),
                ("s".into(), ScalarExpr::col(3)),
                ("lit".into(), ScalarExpr::StrLit("xy".into())),
            ],
            cost: OpCost::default(),
        };
        let expected = reference::execute(&cat, &plan);
        let got = run_sim(&cat, &plan);
        prop_assert_eq!(got, expected);
    }

    /// The vectorized aggregate task reproduces the reference executor
    /// across all key paths: no groups, packed narrow keys (Int,
    /// string), and wide keys on the general path.
    #[test]
    fn vectorized_aggregate_matches_reference(
        rows in rows_strategy(),
        seed in recipe_strategy(),
        group_sel in 0u8..4,
    ) {
        let cat = catalog(&rows);
        let mut r = Recipe::new(&seed);
        let group_by = match group_sel {
            0 => vec![],         // packed: zero-width key
            1 => vec![0],        // packed: single Int
            2 => vec![3],        // packed: 3-byte string
            _ => vec![0, 1],     // general: 16-byte key
        };
        let plan = PhysicalPlan::Aggregate {
            input: scan(),
            group_by,
            aggs: vec![
                ("n".into(), Agg::Count),
                ("sum".into(), Agg::Sum(gen_num_expr(&mut r, 2))),
                ("avg".into(), Agg::Avg(gen_num_expr(&mut r, 2))),
                ("min".into(), Agg::Min(gen_num_expr(&mut r, 2))),
                ("max".into(), Agg::Max(gen_num_expr(&mut r, 2))),
            ],
            cost: OpCost::default(),
        };
        let expected = reference::execute(&cat, &plan);
        let got = run_sim(&cat, &plan);
        prop_assert_eq!(got, expected);
    }

    /// Aggregate lists whose entries share inputs, sub-expressions and
    /// columns — what the list program merges — reproduce the reference
    /// executor bit for bit on every key path, including a two-field
    /// 2-byte key and a float key holding `0.0`, `-0.0` and NaN.
    #[test]
    fn vectorized_aggregate_with_shared_inputs_matches_reference(
        rows in rows_strategy(),
        seed in recipe_strategy(),
        len in 1usize..=8,
        group_sel in 0u8..6,
    ) {
        let cat = flagged_catalog(&rows);
        let mut r = Recipe::new(&seed);
        let pool = shared_input_pool(&mut r);
        let mut aggs = Vec::new();
        while aggs.len() < len {
            let (kind, pick, _) = r.next();
            let e = || pool[pick as usize % pool.len()].clone();
            match kind % 6 {
                0 => aggs.push(Agg::Count),
                1 => aggs.push(Agg::Sum(e())),
                2 => aggs.push(Agg::Avg(e())),
                3 => aggs.push(Agg::Min(e())),
                4 => aggs.push(Agg::Max(e())),
                // Every function over one input.
                _ => aggs.extend([Agg::Sum(e()), Agg::Avg(e()), Agg::Min(e()), Agg::Max(e()), Agg::Count]),
            }
        }
        aggs.truncate(len);
        let group_by = match group_sel {
            0 => vec![],         // no key: slot 0
            1 => vec![0],        // packed: single Int
            2 => vec![3],        // packed: 3-byte string
            3 => vec![0, 1],     // wide: 16-byte key
            4 => vec![6, 7],     // packed: two 1-byte fields
            _ => vec![8],        // packed: Float, by bit pattern
        };
        let plan = PhysicalPlan::Aggregate {
            input: scan(),
            group_by,
            aggs: (0..).map(|i| format!("a{i}")).zip(aggs).collect(),
            cost: OpCost::default(),
        };
        let bits = |rows: Vec<Vec<Value>>| -> Vec<Vec<Value>> {
            let exact = |v| match v {
                Value::Float(x) => Value::Int(x.to_bits() as i64),
                other => other,
            };
            rows.into_iter().map(|row| row.into_iter().map(exact).collect()).collect()
        };
        let expected = reference::execute(&cat, &plan);
        let got = run_sim(&cat, &plan);
        prop_assert_eq!(bits(got), bits(expected), "{:?}", plan);
    }

    /// The arena-backed hash join reproduces the reference executor for
    /// every join kind.
    #[test]
    fn vectorized_hash_join_matches_reference(
        left in proptest::collection::vec((0i64..8, 0i64..100), 0..40),
        right in proptest::collection::vec((0i64..8, 0i64..100), 0..40),
        kind_sel in 0u8..4,
    ) {
        let kind = [JoinKind::Inner, JoinKind::Semi, JoinKind::Anti, JoinKind::LeftOuter]
            [kind_sel as usize];
        let mut cat = Catalog::new();
        for (name, rows) in [("l", &left), ("r", &right)] {
            let schema = Schema::new(vec![
                Field::new(format!("{name}k"), DataType::Int),
                Field::new(format!("{name}v"), DataType::Int),
            ]);
            let mut tb = TableBuilder::with_page_size(name, schema, 128);
            for (k, v) in rows {
                tb.push_row(&[Value::Int(*k), Value::Int(*v)]);
            }
            cat.register(tb.finish());
        }
        let plan = PhysicalPlan::HashJoin {
            build: Box::new(PhysicalPlan::Scan { table: "r".into(), cost: OpCost::default() }),
            probe: Box::new(PhysicalPlan::Scan { table: "l".into(), cost: OpCost::default() }),
            build_key: 0,
            probe_key: 0,
            kind,
            build_cost: OpCost::default(),
            probe_cost: OpCost::default(),
        };
        let expected = reference::canonicalize(reference::execute(&cat, &plan));
        let got = reference::canonicalize(run_sim(&cat, &plan));
        prop_assert_eq!(got, expected, "{:?}", kind);
    }

    /// The vectorized sort task (packed-u64 fast path and the wide-key
    /// fallback alike) reproduces the reference executor, including
    /// duplicate keys (stability) and empty inputs.
    #[test]
    fn vectorized_sort_matches_reference(rows in rows_strategy(), key_sel in 0u8..8) {
        let cat = catalog(&rows);
        let keys = match key_sel {
            0 => vec![0],        // packed: Int
            1 => vec![1],        // packed: Float (total order)
            2 => vec![2],        // packed: Date
            3 => vec![3],        // packed: Str(3)
            4 => vec![2, 3],     // packed: 7-byte Date+Str composite
            5 => vec![3, 2],     // packed: Str-major composite
            6 => vec![0, 1],     // general: 16-byte key
            _ => vec![3, 0],     // general: 11-byte key
        };
        let plan = PhysicalPlan::Sort {
            input: scan(),
            keys,
            cost: OpCost::default(),
        };
        let expected = reference::execute(&cat, &plan);
        let got = run_sim(&cat, &plan);
        prop_assert_eq!(got, expected);
    }

    /// The vectorized merge join (gathered key columns, pages buffered
    /// behind row cursors) reproduces the reference executor on sorted
    /// random inputs with duplicate keys and empty sides, on tables of
    /// every power-of-two page size from 64 B (four rows) up to the
    /// default: equal-key groups then span pages and the join switches
    /// ports mid-group.
    /// With `hot`, both sides carry one key over three or more 64-byte
    /// pages. Inputs are sorted either by the (vectorized) sort operator,
    /// which pins the sort → merge composition, or beforehand, so the
    /// join reads the table's own pages.
    #[test]
    fn vectorized_merge_join_matches_reference(
        left in proptest::collection::vec((0i64..6, 0i64..100), 0..40),
        right in proptest::collection::vec((0i64..6, 0i64..100), 0..40),
        page_size in (6u32..=12).prop_map(|log| 1usize << log),
        hot in any::<bool>(),
        sort_op in any::<bool>(),
    ) {
        let (mut left, mut right, mut page_size) = (left, right, page_size);
        if hot {
            for side in [&mut left, &mut right] {
                side.resize(side.len().max(12), (0, 0));
                side.iter_mut().for_each(|row| row.0 = 3);
            }
            page_size = 64;
        }
        if !sort_op {
            left.sort_by_key(|row| row.0);
            right.sort_by_key(|row| row.0);
        }
        let cat = kv_catalog(&left, &right, page_size);
        let input = |table: &str| {
            let scan = Box::new(PhysicalPlan::Scan { table: table.into(), cost: OpCost::default() });
            match sort_op {
                true => Box::new(PhysicalPlan::Sort { input: scan, keys: vec![0], cost: OpCost::default() }),
                false => scan,
            }
        };
        let plan = PhysicalPlan::MergeJoin {
            left: input("l"),
            right: input("r"),
            left_key: 0,
            right_key: 0,
            cost: OpCost::default(),
        };
        let expected = reference::execute(&cat, &plan);
        let got = run_sim(&cat, &plan);
        prop_assert_eq!(got, expected);
    }

    /// The vectorized nested-loop join (compiled predicate over
    /// candidate pages with selection vectors) reproduces the reference
    /// executor on random inputs and random predicates — including
    /// always-false predicates and empty sides.
    #[test]
    fn vectorized_nlj_matches_reference(
        left in proptest::collection::vec((0i64..6, -20i64..20), 0..12),
        right in proptest::collection::vec((0i64..6, -20i64..20), 0..12),
        seed in recipe_strategy(),
    ) {
        let cat = kv_catalog(&left, &right, 128);
        let plan = PhysicalPlan::NestedLoopJoin {
            outer: Box::new(PhysicalPlan::Scan { table: "l".into(), cost: OpCost::default() }),
            inner: Box::new(PhysicalPlan::Scan { table: "r".into(), cost: OpCost::default() }),
            // Predicate over the concatenated 4-Int-column pair schema.
            predicate: gen_int_pred(&mut Recipe::new(&seed), 2, 4),
            cost: OpCost::default(),
        };
        let expected = reference::execute(&cat, &plan);
        let got = run_sim(&cat, &plan);
        prop_assert_eq!(got, expected, "{:?}", plan);
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
        for (k, v) in rows {
            tb.push_row(&[Value::Int(*k), Value::Int(*v)]);
        }
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
/// sort operator; the stamps in output order.
fn sorted_stamps(mut fields: Vec<Field>, keys: &[Vec<Value>]) -> Vec<usize> {
    let ncols = fields.len();
    fields.push(Field::new("seq", DataType::Int));
    let mut tb = TableBuilder::with_page_size("t", Schema::new(fields), 256);
    for (seq, key) in keys.iter().enumerate() {
        let mut row = key.clone();
        row.push(Value::Int(seq as i64));
        tb.push_row(&row);
    }
    let mut cat = Catalog::new();
    cat.register(tb.finish());
    let plan = PhysicalPlan::Sort {
        input: scan(),
        keys: (0..ncols).collect(),
        cost: OpCost::default(),
    };
    let stamp = |row: &Vec<Value>| row[ncols].as_int().expect("seq is Int") as usize;
    run_sim(&cat, &plan).iter().map(stamp).collect()
}

/// What `BuildTable::matches` / `contains` must answer for each of
/// `probes`: the payloads of the `(key, payload)` rows with that key,
/// in insertion order.
fn assert_lookups(table: &BuildTable, rows: &[(i64, i64)], probes: &[i64]) {
    for &key in probes {
        let want: Vec<i64> = rows.iter().filter(|r| r.0 == key).map(|r| r.1).collect();
        let payload = |raw: &[u8]| i64::from_le_bytes(raw[8..16].try_into().expect("8 bytes"));
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
        for shape in 0u8..8 {
            for n in [0usize, 1, 2, 255, 256, 257, 1000 + raw[0].unsigned_abs() as usize % 2000] {
                let (fields, keys) = adversarial_keys(shape, &raw[..n]);
                let mut want: Vec<usize> = (0..n).collect();
                want.sort_by(|&a, &b| key_order(&keys[a], &keys[b]));
                prop_assert_eq!(sorted_stamps(fields, &keys), want, "shape {} n {}", shape, n);
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
            by_row.insert_row(k, &[k.to_le_bytes(), v.to_le_bytes()].concat());
        }
        prop_assert_eq!(by_row.arena(), by_page.arena());
        prop_assert_eq!(by_row.rows(), rows.len());
        assert_lookups(&by_row, &rows, &probes);
    }
}

/// Builds a random well-typed predicate over `ncols` Int columns.
fn gen_int_pred(r: &mut Recipe<'_>, depth: u32, ncols: usize) -> Predicate {
    let (kind, op_sel, lit) = r.next();
    let op = cmp_op(op_sel);
    let col = |sel: i64| ScalarExpr::col(sel.unsigned_abs() as usize % ncols);
    match kind % 8 {
        0 if depth > 0 => {
            let n = 1 + (lit.unsigned_abs() % 3) as usize;
            Predicate::And((0..n).map(|_| gen_int_pred(r, depth - 1, ncols)).collect())
        }
        1 if depth > 0 => {
            let n = 1 + (lit.unsigned_abs() % 3) as usize;
            Predicate::Or((0..n).map(|_| gen_int_pred(r, depth - 1, ncols)).collect())
        }
        2 if depth > 0 => Predicate::Not(Box::new(gen_int_pred(r, depth - 1, ncols))),
        3 => Predicate::True,
        4 | 5 => Predicate::cmp(col(lit), op, ScalarExpr::IntLit(lit)),
        _ => Predicate::cmp(col(lit), op, col(lit.wrapping_add(op_sel as i64))),
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
        left: Box::new(PhysicalPlan::Scan {
            table: "l".into(),
            cost: OpCost::default(),
        }),
        right: Box::new(PhysicalPlan::Scan {
            table: "r".into(),
            cost: OpCost::default(),
        }),
        left_key: 0,
        right_key: 0,
        cost: OpCost::default(),
    };
    let err = try_run_sim(&cat, &plan).expect_err("unsorted input must fail");
    assert_eq!(
        err,
        ExecError::UnsortedMergeInput {
            side: "left",
            prev: 5,
            key: 2
        }
    );
}

/// Malformed plans come back as typed instantiation errors — every
/// operator constructor validates, nothing is spawned, nothing panics.
#[test]
fn malformed_plans_return_typed_errors() {
    let cat = catalog(&[(1, 2, 3, "a".into())]);
    let cases: Vec<PhysicalPlan> = vec![
        // String column in arithmetic.
        PhysicalPlan::Project {
            input: scan(),
            exprs: vec![(
                "e".into(),
                ScalarExpr::Add(
                    Box::new(ScalarExpr::col(3)),
                    Box::new(ScalarExpr::IntLit(1)),
                ),
            )],
            cost: OpCost::default(),
        },
        // String literal in a numeric filter expression.
        PhysicalPlan::Filter {
            input: scan(),
            predicate: Predicate::cmp(
                ScalarExpr::Add(
                    Box::new(ScalarExpr::col(0)),
                    Box::new(ScalarExpr::StrLit("x".into())),
                ),
                CmpOp::Eq,
                ScalarExpr::IntLit(1),
            ),
            cost: OpCost::default(),
        },
        // Date vs float comparison.
        PhysicalPlan::Filter {
            input: scan(),
            predicate: Predicate::col_cmp(2, CmpOp::Lt, 3.0),
            cost: OpCost::default(),
        },
        // LIKE over a numeric column.
        PhysicalPlan::Filter {
            input: scan(),
            predicate: Predicate::Like {
                col: 0,
                pattern: "%a%".into(),
            },
            cost: OpCost::default(),
        },
        // Aggregate over a string input.
        PhysicalPlan::Aggregate {
            input: scan(),
            group_by: vec![],
            aggs: vec![("s".into(), Agg::Sum(ScalarExpr::col(3)))],
            cost: OpCost::default(),
        },
        // Hash join keyed on a non-Int column.
        PhysicalPlan::HashJoin {
            build: scan(),
            probe: scan(),
            build_key: 1,
            probe_key: 0,
            kind: JoinKind::Inner,
            build_cost: OpCost::default(),
            probe_cost: OpCost::default(),
        },
        // NLJ predicate referencing an out-of-range pair column.
        PhysicalPlan::NestedLoopJoin {
            outer: scan(),
            inner: scan(),
            predicate: Predicate::col_cmp(99, CmpOp::Eq, 1i64),
            cost: OpCost::default(),
        },
    ];
    for plan in cases {
        let err = try_run_sim(&cat, &plan).expect_err("malformed plan must be rejected");
        assert!(matches!(err, ExecError::PlanType(_)), "{plan:?}: {err}");
    }
}
