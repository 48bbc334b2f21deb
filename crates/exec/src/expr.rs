//! Scalar expressions, predicates, and aggregate specifications — the
//! plan-side trees. Operators run them compiled ([`crate::CompiledExpr`]); the
//! tuple-at-a-time tree walk (`eval`) lives beside the oracle in
//! [`crate::reference`].

use cordoba_storage::Date;

/// A scalar expression over a tuple.
#[derive(Debug, Clone)]
pub enum ScalarExpr {
    /// Column by index (resolved against the input schema at plan build).
    Col(usize),
    /// Integer literal.
    IntLit(i64),
    /// Float literal.
    FloatLit(f64),
    /// Date literal.
    DateLit(Date),
    /// String literal.
    StrLit(String),
    /// Numeric addition.
    Add(Box<ScalarExpr>, Box<ScalarExpr>),
    /// Numeric subtraction.
    Sub(Box<ScalarExpr>, Box<ScalarExpr>),
    /// Numeric multiplication.
    Mul(Box<ScalarExpr>, Box<ScalarExpr>),
}

/// Structural equality, float literals compared by their bits: a NaN
/// literal equals itself, so every plan equals its clone (the sharing
/// split finds a pivot by `==`), and `-0.0` is not `0.0`.
impl PartialEq for ScalarExpr {
    fn eq(&self, other: &Self) -> bool {
        use ScalarExpr::*;
        match (self, other) {
            (FloatLit(a), FloatLit(b)) => a.to_bits() == b.to_bits(),
            (Col(a), Col(b)) => a == b,
            (IntLit(a), IntLit(b)) => a == b,
            (DateLit(a), DateLit(b)) => a == b,
            (StrLit(a), StrLit(b)) => a == b,
            (Add(a, b), Add(c, d)) | (Sub(a, b), Sub(c, d)) | (Mul(a, b), Mul(c, d)) => {
                a == c && b == d
            }
            _ => false,
        }
    }
}

impl ScalarExpr {
    /// Shorthand for a column reference.
    pub fn col(idx: usize) -> Self {
        ScalarExpr::Col(idx)
    }
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// Whether an `Ordering` between two operands satisfies the
    /// comparison (shared with the vectorized evaluator).
    pub(crate) fn holds(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        matches!(
            (self, ord),
            (CmpOp::Eq, Equal)
                | (CmpOp::Ne, Less | Greater)
                | (CmpOp::Lt, Less)
                | (CmpOp::Le, Less | Equal)
                | (CmpOp::Gt, Greater)
                | (CmpOp::Ge, Greater | Equal)
        )
    }

    /// The operator with its operands swapped: `a op b` is
    /// `b op.mirrored() a` for every pair of operands, NaN included.
    pub(crate) fn mirrored(self) -> Self {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            CmpOp::Eq | CmpOp::Ne => self,
        }
    }
}

/// A boolean predicate over a tuple.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Always true (useful default).
    True,
    /// Comparison of two scalar expressions.
    Cmp {
        /// Left operand.
        left: ScalarExpr,
        /// Operator.
        op: CmpOp,
        /// Right operand.
        right: ScalarExpr,
    },
    /// Conjunction.
    And(Vec<Predicate>),
    /// Disjunction.
    Or(Vec<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
    /// SQL `LIKE` with `%` wildcards only (TPC-H patterns need no `_`).
    Like {
        /// String column index.
        col: usize,
        /// Pattern, e.g. `"%special%requests%"`.
        pattern: String,
    },
}

impl Predicate {
    /// Convenience comparison builder.
    pub fn cmp(left: ScalarExpr, op: CmpOp, right: ScalarExpr) -> Self {
        Predicate::Cmp { left, op, right }
    }

    /// `col <op> literal` over a column index.
    pub fn col_cmp(col: usize, op: CmpOp, lit: impl Into<LitValue>) -> Self {
        Predicate::Cmp {
            left: ScalarExpr::Col(col),
            op,
            right: lit.into().0,
        }
    }
}

/// Wrapper allowing `col_cmp` to take plain literals.
pub struct LitValue(pub(crate) ScalarExpr);
impl From<i64> for LitValue {
    fn from(v: i64) -> Self {
        LitValue(ScalarExpr::IntLit(v))
    }
}
impl From<f64> for LitValue {
    fn from(v: f64) -> Self {
        LitValue(ScalarExpr::FloatLit(v))
    }
}
impl From<Date> for LitValue {
    fn from(v: Date) -> Self {
        LitValue(ScalarExpr::DateLit(v))
    }
}
impl From<&str> for LitValue {
    fn from(v: &str) -> Self {
        LitValue(ScalarExpr::StrLit(v.to_string()))
    }
}

/// Aggregate function specification.
#[derive(Debug, Clone, PartialEq)]
pub enum Agg {
    /// `COUNT(*)`.
    Count,
    /// `SUM(expr)` (float result).
    Sum(ScalarExpr),
    /// `AVG(expr)` (float result).
    Avg(ScalarExpr),
    /// `MIN(expr)` over a numeric expression (float result).
    Min(ScalarExpr),
    /// `MAX(expr)` over a numeric expression (float result).
    Max(ScalarExpr),
}

/// A plan-side tree that reads columns of its input by index.
pub(crate) trait Columns: Clone {
    /// Calls `f` on every column reference, which it may rewrite.
    fn visit_cols(&mut self, f: &mut impl FnMut(&mut usize));
}

/// A bare column index: a group-by, sort or join key.
impl Columns for usize {
    fn visit_cols(&mut self, f: &mut impl FnMut(&mut usize)) {
        f(self);
    }
}

impl<T: Columns> Columns for Vec<T> {
    fn visit_cols(&mut self, f: &mut impl FnMut(&mut usize)) {
        self.iter_mut().for_each(|x| x.visit_cols(f));
    }
}

impl Columns for ScalarExpr {
    fn visit_cols(&mut self, f: &mut impl FnMut(&mut usize)) {
        match self {
            ScalarExpr::Col(col) => f(col),
            ScalarExpr::Add(a, b) | ScalarExpr::Sub(a, b) | ScalarExpr::Mul(a, b) => {
                a.visit_cols(f);
                b.visit_cols(f);
            }
            ScalarExpr::IntLit(_)
            | ScalarExpr::FloatLit(_)
            | ScalarExpr::DateLit(_)
            | ScalarExpr::StrLit(_) => {}
        }
    }
}

impl Columns for Predicate {
    fn visit_cols(&mut self, f: &mut impl FnMut(&mut usize)) {
        match self {
            Predicate::True => {}
            Predicate::Cmp { left, right, .. } => {
                left.visit_cols(f);
                right.visit_cols(f);
            }
            Predicate::And(parts) | Predicate::Or(parts) => parts.visit_cols(f),
            Predicate::Not(inner) => inner.visit_cols(f),
            Predicate::Like { col, .. } => f(col),
        }
    }
}

impl Columns for Agg {
    fn visit_cols(&mut self, f: &mut impl FnMut(&mut usize)) {
        match self {
            Agg::Count => {}
            Agg::Sum(e) | Agg::Avg(e) | Agg::Min(e) | Agg::Max(e) => e.visit_cols(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::Scalar;
    use cordoba_storage::{DataType, Field, PageBuilder, Schema, Value};
    use std::sync::Arc;

    fn page() -> Arc<cordoba_storage::Page> {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("price", DataType::Float),
            Field::new("ship", DataType::Date),
            Field::new("comment", DataType::Str(32)),
        ]);
        let mut b = PageBuilder::new(schema);
        b.push_row(&[
            Value::Int(10),
            Value::Float(2.5),
            Value::Date(Date::from_ymd(1994, 6, 1)),
            Value::Str("special pinto requests".into()),
        ]);
        b.push_row(&[
            Value::Int(-3),
            Value::Float(0.05),
            Value::Date(Date::from_ymd(1995, 1, 1)),
            Value::Str("quickly sleep".into()),
        ]);
        b.finish()
    }

    #[test]
    fn column_eval_all_types() {
        let p = page();
        let t = p.tuple(0);
        assert_eq!(ScalarExpr::col(0).eval(&t), Scalar::Int(10));
        assert_eq!(ScalarExpr::col(1).eval(&t), Scalar::Float(2.5));
        assert_eq!(
            ScalarExpr::col(2).eval(&t),
            Scalar::Date(Date::from_ymd(1994, 6, 1))
        );
        assert_eq!(
            ScalarExpr::col(3).eval(&t),
            Scalar::Str("special pinto requests")
        );
    }

    #[test]
    fn arithmetic_mixes_types() {
        let p = page();
        let t = p.tuple(0);
        // price * (1 - 0.1)
        let e = ScalarExpr::Mul(
            Box::new(ScalarExpr::col(1)),
            Box::new(ScalarExpr::Sub(
                Box::new(ScalarExpr::FloatLit(1.0)),
                Box::new(ScalarExpr::FloatLit(0.1)),
            )),
        );
        match e.eval(&t) {
            Scalar::Float(v) => assert!((v - 2.25).abs() < 1e-12),
            other => panic!("expected float, got {other:?}"),
        }
        // int + int stays int
        let e = ScalarExpr::Add(
            Box::new(ScalarExpr::col(0)),
            Box::new(ScalarExpr::IntLit(5)),
        );
        assert_eq!(e.eval(&t), Scalar::Int(15));
    }

    #[test]
    fn comparisons() {
        let p = page();
        let t0 = p.tuple(0);
        let t1 = p.tuple(1);
        let pred = Predicate::col_cmp(0, CmpOp::Gt, 0i64);
        assert!(pred.eval(&t0));
        assert!(!pred.eval(&t1));
        let date_pred = Predicate::col_cmp(2, CmpOp::Lt, Date::from_ymd(1995, 1, 1));
        assert!(date_pred.eval(&t0));
        assert!(!date_pred.eval(&t1));
        // int/float cross-type compare
        let x = Predicate::col_cmp(1, CmpOp::Ge, 1i64);
        assert!(x.eval(&t0));
        assert!(!x.eval(&t1));
    }

    #[test]
    fn boolean_combinators() {
        let p = page();
        let t = p.tuple(0);
        let yes = Predicate::True;
        let no = Predicate::Not(Box::new(Predicate::True));
        assert!(Predicate::And(vec![yes.clone(), yes.clone()]).eval(&t));
        assert!(!Predicate::And(vec![yes.clone(), no.clone()]).eval(&t));
        assert!(Predicate::Or(vec![no.clone(), yes.clone()]).eval(&t));
        assert!(!Predicate::Or(vec![no.clone(), no]).eval(&t));
    }

    #[test]
    fn like_on_tuples() {
        let p = page();
        let like = Predicate::Like {
            col: 3,
            pattern: "%special%requests%".into(),
        };
        assert!(like.eval(&p.tuple(0)));
        assert!(!like.eval(&p.tuple(1)));
    }

    #[test]
    fn scalar_conversions() {
        assert_eq!(Scalar::Int(3).as_f64(), Some(3.0));
        assert_eq!(Scalar::Float(1.5).as_f64(), Some(1.5));
        assert_eq!(Scalar::Str("x").as_f64(), None);
        assert_eq!(Scalar::Int(3).to_value(), Value::Int(3));
        assert_eq!(Scalar::Str("x").to_value(), Value::Str("x".into()));
    }

    #[test]
    #[should_panic(expected = "non-numeric")]
    fn arithmetic_on_strings_panics() {
        let p = page();
        let t = p.tuple(0);
        ScalarExpr::Add(
            Box::new(ScalarExpr::col(3)),
            Box::new(ScalarExpr::IntLit(1)),
        )
        .eval(&t);
    }
}
