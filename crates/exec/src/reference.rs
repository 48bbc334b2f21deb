//! Synchronous reference executor: the correctness oracle.
//!
//! Executes [`PhysicalPlan`]s directly (no simulator, no pipelining),
//! with semantics defined to match the operator tasks exactly. Every
//! integration test compares simulator output against this executor.
//! The tree-walk evaluator it runs on ([`ScalarExpr::eval`],
//! [`Predicate::eval`], [`Scalar`]) is defined here too, so it is the
//! oracle's and the tests', not a second evaluation path for operators.
//!
//! A row that is an input row, or two input rows end to end, is copied
//! as its encoded bytes: the rows filter, sort and the semi and anti
//! joins keep, and the `probe ++ build` (`left ++ right`, `outer ++
//! inner`) rows of the joins. A left-outer miss's build side is one row
//! of zero cells ([`Value::zero`]), encoded once per join. What the
//! oracle decides still decodes, tuple at a time, through the tree
//! walk: predicates, sort, group and join keys (`key_of`, ordered by
//! [`Value::total_cmp`]), projections and aggregates, whose rows are the
//! only ones built from [`Value`]s.

use crate::expr::{Agg, CmpOp, Predicate, ScalarExpr};
use crate::ops::{key_of, zero_row, Key};
use crate::plan::{JoinKind, PhysicalPlan};
use cordoba_core::FxHashMap;
use cordoba_storage::{Catalog, DataType, Date, PageBuilder, Table, TableBuilder, TupleRef, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Executes a plan, returning materialized result rows.
#[expect(clippy::disallowed_methods, reason = "the oracle's own entry point")]
pub fn execute(catalog: &Catalog, plan: &PhysicalPlan) -> Vec<Vec<Value>> {
    let table = execute_table(catalog, plan);
    table.scan_values().collect()
}

/// Executes a plan into an intermediate table (page-backed, so nested
/// operators reuse the same tuple machinery as the simulator tasks).
#[expect(
    clippy::disallowed_methods,
    reason = "the oracle recurses into itself and runs on its own tree walk"
)]
pub fn execute_table(catalog: &Catalog, plan: &PhysicalPlan) -> Arc<Table> {
    match plan {
        PhysicalPlan::Scan { table, .. } => catalog.expect(table).clone(),
        #[expect(
            clippy::panic,
            reason = "documented oracle limitation: Source leaves only exist in engine wiring"
        )]
        PhysicalPlan::Source { .. } => {
            panic!("reference executor cannot run plans with Source leaves")
        }
        PhysicalPlan::Filter {
            input, predicate, ..
        } => {
            let input = execute_table(catalog, input);
            let mut out = TableBuilder::new("filter", input.schema().clone());
            for page in input.pages() {
                for t in page.tuples() {
                    if predicate.eval(&t) {
                        out.push_raw(t.raw());
                    }
                }
            }
            out.finish()
        }
        PhysicalPlan::Project { input, exprs, .. } => {
            let input = execute_table(catalog, input);
            let schema = plan.output_schema(catalog);
            let mut out = TableBuilder::new("project", schema);
            for page in input.pages() {
                for t in page.tuples() {
                    let row: Vec<Value> =
                        exprs.iter().map(|(_, e)| e.eval(&t).to_value()).collect();
                    out.push_row(&row);
                }
            }
            out.finish()
        }
        PhysicalPlan::Aggregate {
            input,
            group_by,
            aggs,
            ..
        } => {
            let input = execute_table(catalog, input);
            let schema = plan.output_schema(catalog);
            let mut groups: BTreeMap<Key, Vec<RefAcc>> = BTreeMap::new();
            for page in input.pages() {
                for t in page.tuples() {
                    let key = key_of(&t, group_by);
                    let accs = groups
                        .entry(key)
                        .or_insert_with(|| aggs.iter().map(|(_, a)| RefAcc::new(a)).collect());
                    for (acc, (_, agg)) in accs.iter_mut().zip(aggs) {
                        acc.update(agg, &t);
                    }
                }
            }
            let mut out = TableBuilder::new("aggregate", schema.clone());
            for (Key(mut row), accs) in groups {
                row.extend(accs.iter().map(RefAcc::finish));
                out.push_row(&row);
            }
            out.finish()
        }
        PhysicalPlan::Sort { input, keys, .. } => {
            let input = execute_table(catalog, input);
            let mut rows: Vec<(Key, &[u8])> = Vec::new();
            for page in input.pages() {
                for t in page.tuples() {
                    rows.push((key_of(&t, keys), t.raw()));
                }
            }
            rows.sort_by(|a, b| a.0.cmp(&b.0));
            let mut out = TableBuilder::new("sort", input.schema().clone());
            for (_, row) in rows {
                out.push_raw(row);
            }
            out.finish()
        }
        PhysicalPlan::HashJoin {
            build,
            probe,
            build_key,
            probe_key,
            kind,
            ..
        } => {
            let build_t = execute_table(catalog, build);
            let probe_t = execute_table(catalog, probe);
            let schema = plan.output_schema(catalog);
            let mut map: FxHashMap<i64, Vec<&[u8]>> = FxHashMap::default();
            for page in build_t.pages() {
                for t in page.tuples() {
                    map.entry(t.get_int(*build_key)).or_default().push(t.raw());
                }
            }
            #[expect(clippy::expect_used, reason = "a zero cell fits its own field")]
            let defaults = zero_row(build_t.schema()).expect("zero cells fit");
            let mut out = TableBuilder::new("hashjoin", schema);
            let mut row = Vec::new();
            for page in probe_t.pages() {
                for t in page.tuples() {
                    match (kind, map.get(&t.get_int(*probe_key))) {
                        (JoinKind::Semi, Some(_)) | (JoinKind::Anti, None) => out.push_raw(t.raw()),
                        (JoinKind::Inner | JoinKind::LeftOuter, Some(builds)) => {
                            for b in builds {
                                out.push_raw(joined(&mut row, t.raw(), b));
                            }
                        }
                        (JoinKind::LeftOuter, None) => {
                            out.push_raw(joined(&mut row, t.raw(), &defaults));
                        }
                        (JoinKind::Inner | JoinKind::Semi, None) | (JoinKind::Anti, Some(_)) => {}
                    }
                }
            }
            out.finish()
        }
        PhysicalPlan::MergeJoin {
            left,
            right,
            left_key,
            right_key,
            ..
        } => {
            // Reference semantics: inner equi-join (order given by the
            // sorted inputs). Implemented via the same grouping logic.
            let left_t = execute_table(catalog, left);
            let right_t = execute_table(catalog, right);
            let schema = plan.output_schema(catalog);
            let mut left_rows: Vec<(i64, &[u8])> = Vec::new();
            for page in left_t.pages() {
                for t in page.tuples() {
                    left_rows.push((t.get_int(*left_key), t.raw()));
                }
            }
            let mut right_rows: Vec<(i64, &[u8])> = Vec::new();
            for page in right_t.pages() {
                for t in page.tuples() {
                    right_rows.push((t.get_int(*right_key), t.raw()));
                }
            }
            assert!(
                left_rows.windows(2).all(|w| w[0].0 <= w[1].0),
                "left input sorted"
            );
            assert!(
                right_rows.windows(2).all(|w| w[0].0 <= w[1].0),
                "right input sorted"
            );
            let mut out = TableBuilder::new("mergejoin", schema);
            let mut row = Vec::new();
            let (mut i, mut j) = (0usize, 0usize);
            while i < left_rows.len() && j < right_rows.len() {
                match left_rows[i].0.cmp(&right_rows[j].0) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        let key = left_rows[i].0;
                        let li = i;
                        while i < left_rows.len() && left_rows[i].0 == key {
                            i += 1;
                        }
                        let rj = j;
                        while j < right_rows.len() && right_rows[j].0 == key {
                            j += 1;
                        }
                        for (_, l) in &left_rows[li..i] {
                            for (_, r) in &right_rows[rj..j] {
                                out.push_raw(joined(&mut row, l, r));
                            }
                        }
                    }
                }
            }
            out.finish()
        }
        PhysicalPlan::NestedLoopJoin {
            outer,
            inner,
            predicate,
            ..
        } => {
            let outer_t = execute_table(catalog, outer);
            let inner_t = execute_table(catalog, inner);
            let schema = plan.output_schema(catalog);
            let mut out = TableBuilder::new("nlj", schema.clone());
            // Materialize candidate pairs through a one-row page so the
            // predicate sees exactly what the task sees.
            let mut probe = PageBuilder::new(schema);
            let mut row = Vec::new();
            for opage in outer_t.pages() {
                for ot in opage.tuples() {
                    for ipage in inner_t.pages() {
                        for it in ipage.tuples() {
                            let pair = joined(&mut row, ot.raw(), it.raw());
                            assert!(probe.push_raw(pair));
                            let candidate = probe.finish_and_reset();
                            if predicate.eval(&candidate.tuple(0)) {
                                out.push_raw(pair);
                            }
                        }
                    }
                }
            }
            out.finish()
        }
    }
}

/// Reference accumulator — kept in sync with
/// `ops::aggregate::Acc` by the cross-executor equivalence tests.
#[derive(Debug)]
enum RefAcc {
    Count(i64),
    Sum(f64),
    Avg { sum: f64, count: i64 },
    Min(Option<f64>),
    Max(Option<f64>),
}

impl RefAcc {
    fn new(agg: &Agg) -> Self {
        match agg {
            Agg::Count => RefAcc::Count(0),
            Agg::Sum(_) => RefAcc::Sum(0.0),
            Agg::Avg(_) => RefAcc::Avg { sum: 0.0, count: 0 },
            Agg::Min(_) => RefAcc::Min(None),
            Agg::Max(_) => RefAcc::Max(None),
        }
    }

    #[expect(
        clippy::disallowed_methods,
        clippy::expect_used,
        reason = "the oracle's tree walk; aggregate inputs type-check as numeric before execution"
    )]
    fn update(&mut self, agg: &Agg, tuple: &TupleRef<'_>) {
        match (self, agg) {
            (RefAcc::Count(n), Agg::Count) => *n += 1,
            (RefAcc::Sum(s), Agg::Sum(e)) => *s += e.eval(tuple).as_f64().expect("numeric"),
            (RefAcc::Avg { sum, count }, Agg::Avg(e)) => {
                *sum += e.eval(tuple).as_f64().expect("numeric");
                *count += 1;
            }
            (RefAcc::Min(m), Agg::Min(e)) => {
                let v = e.eval(tuple).as_f64().expect("numeric");
                *m = Some(m.map_or(v, |c| c.min(v)));
            }
            (RefAcc::Max(m), Agg::Max(e)) => {
                let v = e.eval(tuple).as_f64().expect("numeric");
                *m = Some(m.map_or(v, |c| c.max(v)));
            }
            #[expect(
                clippy::panic,
                reason = "accumulators were built from this same spec list"
            )]
            _ => panic!("accumulator/spec mismatch"),
        }
    }

    fn finish(&self) -> Value {
        match self {
            RefAcc::Count(n) => Value::Int(*n),
            RefAcc::Sum(s) => Value::Float(*s),
            RefAcc::Avg { sum, count } => Value::Float(if *count == 0 {
                0.0
            } else {
                sum / *count as f64
            }),
            RefAcc::Min(m) => Value::Float(m.unwrap_or(0.0)),
            RefAcc::Max(m) => Value::Float(m.unwrap_or(0.0)),
        }
    }
}

/// The row `head ++ tail`, assembled in `buf` (reused across rows).
fn joined<'b>(buf: &'b mut Vec<u8>, head: &[u8], tail: &[u8]) -> &'b [u8] {
    buf.clear();
    buf.extend_from_slice(head);
    buf.extend_from_slice(tail);
    buf
}

/// Sorts rows into a canonical order for multiset comparison in tests:
/// lexicographic under [`Value::total_cmp`], so equal multisets
/// canonicalise to the same rows, NaNs and signed zeros included.
pub fn canonicalize(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort_unstable_by(|a, b| Key::order(a, b));
    rows
}

/// A scalar the tree walk evaluated from a tuple.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scalar<'a> {
    /// Integer.
    Int(i64),
    /// Float.
    Float(f64),
    /// Date.
    Date(Date),
    /// Borrowed string.
    Str(&'a str),
}

impl Scalar<'_> {
    /// Numeric view (ints coerce to float); `None` for dates/strings.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Scalar::Int(v) => Some(*v as f64),
            Scalar::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// Owned [`Value`] (results, tests).
    pub(crate) fn to_value(self) -> Value {
        match self {
            Scalar::Int(v) => Value::Int(v),
            Scalar::Float(v) => Value::Float(v),
            Scalar::Date(v) => Value::Date(v),
            Scalar::Str(v) => Value::Str(v.to_string()),
        }
    }
}

/// The tuple-at-a-time tree walk the oracle and the tests run; engine
/// code evaluates [`crate::CompiledExpr`] programs instead (the
/// policy's rule 5: `clippy.toml` disallows this `eval` in exec and
/// engine).
impl ScalarExpr {
    /// Evaluates against a tuple.
    ///
    /// # Panics
    ///
    /// Panics on type errors (e.g. arithmetic on strings) — plans are
    /// validated by construction and tests; expression typing bugs are
    /// programming errors.
    #[expect(
        clippy::disallowed_methods,
        reason = "the tree walk recurses into itself"
    )]
    pub fn eval<'a>(&'a self, tuple: &TupleRef<'a>) -> Scalar<'a> {
        match self {
            ScalarExpr::Col(i) => match tuple.schema().fields()[*i].dtype {
                DataType::Int => Scalar::Int(tuple.get_int(*i)),
                DataType::Float => Scalar::Float(tuple.get_float(*i)),
                DataType::Date => Scalar::Date(tuple.get_date(*i)),
                DataType::Str(_) => Scalar::Str(tuple.get_str(*i)),
            },
            ScalarExpr::IntLit(v) => Scalar::Int(*v),
            ScalarExpr::FloatLit(v) => Scalar::Float(*v),
            ScalarExpr::DateLit(v) => Scalar::Date(*v),
            ScalarExpr::StrLit(v) => Scalar::Str(v),
            ScalarExpr::Add(a, b) => numeric(a.eval(tuple), b.eval(tuple), "+", |x, y| x + y),
            ScalarExpr::Sub(a, b) => numeric(a.eval(tuple), b.eval(tuple), "-", |x, y| x - y),
            ScalarExpr::Mul(a, b) => numeric(a.eval(tuple), b.eval(tuple), "*", |x, y| x * y),
        }
    }
}

fn numeric<'a>(a: Scalar<'a>, b: Scalar<'a>, op: &str, f: impl Fn(f64, f64) -> f64) -> Scalar<'a> {
    match (a, b) {
        (Scalar::Int(x), Scalar::Int(y)) => {
            // Integer-preserving fast path for +,-,*.
            let r = f(x as f64, y as f64);
            Scalar::Int(r as i64)
        }
        (x, y) => {
            #[expect(
                clippy::panic,
                reason = "plans type-check before execution; a non-numeric operand here is a checker bug"
            )]
            let (Some(x), Some(y)) = (x.as_f64(), y.as_f64()) else {
                panic!("non-numeric operands for '{op}': {x:?}, {y:?}")
            };
            Scalar::Float(f(x, y))
        }
    }
}

impl Predicate {
    /// Evaluates against a tuple.
    #[expect(
        clippy::disallowed_methods,
        reason = "the tree walk recurses into itself and matches LIKE per row"
    )]
    pub fn eval(&self, tuple: &TupleRef<'_>) -> bool {
        match self {
            Predicate::True => true,
            Predicate::Cmp { left, op, right } => {
                let (a, b) = (left.eval(tuple), right.eval(tuple));
                let ord = match (a, b) {
                    (Scalar::Int(x), Scalar::Int(y)) => x.cmp(&y),
                    (Scalar::Date(x), Scalar::Date(y)) => x.cmp(&y),
                    (Scalar::Str(x), Scalar::Str(y)) => x.cmp(y),
                    #[expect(
                        clippy::panic,
                        reason = "plans type-check before execution, so comparisons only reach \
                                  comparable types"
                    )]
                    (x, y) => {
                        let (Some(x), Some(y)) = (x.as_f64(), y.as_f64()) else {
                            panic!("incomparable operands: {x:?} vs {y:?}")
                        };
                        // IEEE: NaN is unordered, so only `Ne` holds.
                        let Some(ord) = x.partial_cmp(&y) else {
                            return *op == CmpOp::Ne;
                        };
                        ord
                    }
                };
                op.holds(ord)
            }
            Predicate::And(ps) => ps.iter().all(|p| p.eval(tuple)),
            Predicate::Or(ps) => ps.iter().any(|p| p.eval(tuple)),
            Predicate::Not(p) => !p.eval(tuple),
            Predicate::Like { col, pattern } => like_match(tuple.get_str(*col), pattern),
        }
    }
}

/// `%`-wildcard LIKE matcher: splits the pattern at `%` and requires the
/// fragments to appear in order, honoring anchors at the ends. The tree
/// walk's and the tests'; operators match a pattern compiled once by
/// [`crate::CompiledPredicate`] (the policy's rule 5).
pub fn like_match(s: &str, pattern: &str) -> bool {
    let mut parts = pattern.split('%');
    let head = parts.next().unwrap_or_default();
    let Some(mut part) = parts.next() else {
        return s == pattern;
    };
    if !s.starts_with(head) {
        return false;
    }
    let mut pos = head.len();
    // Every fragment after the head; the last is anchored at the end.
    for next in parts {
        match s[pos..].find(part) {
            Some(at) => pos += at + part.len(),
            None => return false,
        }
        part = next;
    }
    s[pos..].ends_with(part)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::OpCost;
    use crate::expr::{CmpOp, Predicate, ScalarExpr};
    use cordoba_storage::{Field, Schema};

    fn catalog() -> Catalog {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Float),
            Field::new("tag", DataType::Str(2)),
        ]);
        let mut b = TableBuilder::new("t", schema);
        for i in 0..20 {
            let tag = if i % 2 == 0 { "ev" } else { "od" };
            b.push_row(&[
                Value::Int(i),
                Value::Float(i as f64),
                Value::Str(tag.into()),
            ]);
        }
        let mut c = Catalog::new();
        c.register(b.finish());
        c
    }

    fn scan() -> Box<PhysicalPlan> {
        Box::new(PhysicalPlan::Scan {
            table: "t".into(),
            cost: OpCost::default(),
        })
    }

    #[test]
    fn filter_and_count() {
        let cat = catalog();
        let plan = PhysicalPlan::Filter {
            input: scan(),
            predicate: Predicate::col_cmp(0, CmpOp::Ge, 15i64),
            cost: OpCost::default(),
        };
        assert_eq!(execute(&cat, &plan).len(), 5);
    }

    #[test]
    fn grouped_aggregate() {
        let cat = catalog();
        let plan = PhysicalPlan::Aggregate {
            input: scan(),
            group_by: vec![2],
            aggs: vec![
                ("n".into(), Agg::Count),
                ("s".into(), Agg::Sum(ScalarExpr::col(1))),
            ],
            cost: OpCost::default(),
        };
        let rows = execute(&cat, &plan);
        assert_eq!(
            rows,
            vec![
                vec![Value::Str("ev".into()), Value::Int(10), Value::Float(90.0)],
                vec![Value::Str("od".into()), Value::Int(10), Value::Float(100.0)],
            ]
        );
    }

    #[test]
    fn sort_orders_rows() {
        let cat = catalog();
        let plan = PhysicalPlan::Sort {
            input: scan(),
            keys: vec![2, 0],
            cost: OpCost::default(),
        };
        let rows = execute(&cat, &plan);
        assert_eq!(rows.len(), 20);
        assert_eq!(rows[0][2], Value::Str("ev".into()));
        assert_eq!(rows[0][0], Value::Int(0));
        assert_eq!(rows[10][2], Value::Str("od".into()));
        assert_eq!(rows[10][0], Value::Int(1));
    }

    #[test]
    fn self_semi_join_keeps_all() {
        let cat = catalog();
        let plan = PhysicalPlan::HashJoin {
            build: scan(),
            probe: scan(),
            build_key: 0,
            probe_key: 0,
            kind: JoinKind::Semi,
            build_cost: OpCost::default(),
            probe_cost: OpCost::default(),
        };
        assert_eq!(execute(&cat, &plan).len(), 20);
    }

    #[test]
    fn canonicalize_sorts_rows() {
        let rows = vec![
            vec![Value::Int(2)],
            vec![Value::Int(1)],
            vec![Value::Int(10)],
        ];
        // Integers order numerically (a Debug-string order put 10 before 2).
        assert_eq!(
            canonicalize(rows),
            vec![
                vec![Value::Int(1)],
                vec![Value::Int(2)],
                vec![Value::Int(10)]
            ]
        );
    }

    #[test]
    #[should_panic(expected = "Source")]
    fn source_leaves_rejected() {
        let cat = catalog();
        let schema = cat.expect("t").schema().clone();
        let plan = PhysicalPlan::Source {
            schema: crate::plan::SchemaRef(schema),
        };
        execute(&cat, &plan);
    }

    #[test]
    fn like_matcher_edge_cases() {
        assert!(like_match("abc", "abc"));
        assert!(!like_match("abc", "abd"));
        assert!(like_match("abc", "%"));
        assert!(like_match("abc", "a%"));
        assert!(!like_match("abc", "b%"));
        assert!(like_match("abc", "%c"));
        assert!(!like_match("abc", "%b"));
        assert!(like_match("abc", "a%c"));
        assert!(like_match("special requests", "%special%requests%"));
        assert!(like_match("specialrequests", "%special%requests%"));
        assert!(!like_match("requests special", "%special%requests%"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "a%"));
        // Ordered fragments must not overlap.
        assert!(!like_match("ab", "%ab%b%"));
        assert!(like_match("abab", "%ab%b%"));
    }
}
