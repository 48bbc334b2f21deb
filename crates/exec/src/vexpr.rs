//! Compiled, vectorized expression programs.
//!
//! [`ScalarExpr`]/[`Predicate`] trees are walked per tuple by
//! `eval`, paying recursive dispatch through boxed children for every
//! row. The vectorized operators instead compile each tree **once** at
//! task construction ([`CompiledExpr`], [`CompiledPredicate`]) and
//! evaluate it a whole page at a time into reusable scratch buffers
//! ([`ExprScratch`]), with no per-row allocation or dispatch. An
//! expression is a flat postfix program: one typed column gather per
//! leaf, one tight loop per operator.
//!
//! A predicate **refines a selection vector** — the ascending indices
//! of the rows still passing, which `select` returns and downstream
//! operators consume with bulk row copies. A conjunction runs its
//! clauses in sequence, each shrinking the selection in place, until it
//! is empty; the clauses are ordered at compile time: column-vs-literal
//! leaves (they read their field straight out of the rows still
//! selected; `lit op col` becomes `col op' lit`), then dense numeric
//! compares, then string leaves, which so see only the survivors. `Not`
//! removes what its child keeps of a copy of the selection; `Or` is
//! `Not` of the conjunction of its negated children. A LIKE pattern is
//! split into byte fragments once, and string leaves test the
//! space-trimmed field bytes in place.
//!
//! Semantics match the tree-walking evaluators exactly on well-typed,
//! non-NaN inputs (the property suite in `tests/vectorized_equivalence`
//! enforces this), with two deliberate differences:
//!
//! * type errors (arithmetic on strings, comparing a date to a float)
//!   surface as typed [`ExecError`]s at **compile** time instead of
//!   panicking on the first evaluated row — a malformed plan fails the
//!   query, not the process;
//! * comparisons involving NaN follow IEEE semantics (`Ne` is `true`,
//!   every other operator `false`) instead of panicking — the
//!   tree-walk treats NaN as a programming error and never returns on
//!   such inputs.
//!
//! Scalar literals in float arithmetic fuse into the adjacent
//! instruction ([`Instr::AddFLit`] / [`Instr::SubFLit`] /
//! [`Instr::SubLitF`] / [`Instr::MulFLit`], mirroring the predicates'
//! column-vs-literal leaves), so `extendedprice * (1 - discount)` runs
//! two in-place passes over one gathered column instead of broadcasting
//! page-length literal buffers.

use crate::error::ExecError;
use crate::expr::{CmpOp, Predicate, ScalarExpr};
use crate::plan::expr_type_checked;
use cordoba_storage::{DataType, Page, Schema};
use std::sync::Arc;

/// Result type of a numeric program slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NumType {
    Int,
    Float,
    Date,
}

/// One postfix instruction of a numeric program. Type resolution
/// happens at compile time: every arithmetic instruction knows the
/// exact variant of its operands, so evaluation is a direct match with
/// no per-row type dispatch.
#[derive(Debug, Clone)]
enum Instr {
    /// Gather an `Int` column.
    ColI(usize),
    /// Gather a `Float` column.
    ColF(usize),
    /// Gather a `Date` column.
    ColD(usize),
    /// Broadcast an integer literal.
    LitI(i64),
    /// Broadcast a float literal.
    LitF(f64),
    /// Broadcast a date literal.
    LitD(i32),
    /// Promote the top integer buffer to float.
    CastIF,
    /// Int ⊕ Int → Int. Matches the tree-walk exactly: computed through
    /// `f64` and truncated back (`(a as f64 ⊕ b as f64) as i64`).
    AddI,
    /// See [`Instr::AddI`].
    SubI,
    /// See [`Instr::AddI`].
    MulI,
    /// Float ⊕ Float → Float (mixed int/float operands are promoted by
    /// [`Instr::CastIF`] at compile time).
    AddF,
    /// See [`Instr::AddF`].
    SubF,
    /// See [`Instr::AddF`].
    MulF,
    /// Fused `top + lit` (no literal broadcast, in-place on the top
    /// buffer). Addition commutes bitwise under IEEE 754, so this also
    /// covers `lit + top`.
    AddFLit(f64),
    /// Fused `top - lit`.
    SubFLit(f64),
    /// Fused `lit - top` (subtraction does not commute — `1 - discount`
    /// compiles to `[ColF(discount), SubLitF(1.0)]`).
    SubLitF(f64),
    /// Fused `top * lit`; covers `lit * top` as [`Instr::AddFLit`] does.
    MulFLit(f64),
}

/// A typed column buffer on the evaluation stack.
#[derive(Debug)]
enum Buf {
    I(Vec<i64>),
    F(Vec<f64>),
    D(Vec<i32>),
}

/// Reusable evaluation state: the value stack, per-type buffer pools,
/// and the pool of temporary selections (`Not`/`Or` refine a copy). One
/// scratch per task; buffers are recycled so a steady-state page
/// evaluation allocates nothing.
#[derive(Debug, Default)]
pub struct ExprScratch {
    stack: Vec<Buf>,
    free_i: Vec<Vec<i64>>,
    free_f: Vec<Vec<f64>>,
    free_d: Vec<Vec<i32>>,
    free_sel: Vec<Vec<u32>>,
}

impl ExprScratch {
    fn take_i(&mut self) -> Vec<i64> {
        self.free_i.pop().unwrap_or_default()
    }
    fn take_f(&mut self) -> Vec<f64> {
        self.free_f.pop().unwrap_or_default()
    }
    fn take_d(&mut self) -> Vec<i32> {
        self.free_d.pop().unwrap_or_default()
    }

    fn recycle(&mut self, buf: Buf) {
        match buf {
            Buf::I(v) => self.free_i.push(v),
            Buf::F(v) => self.free_f.push(v),
            Buf::D(v) => self.free_d.push(v),
        }
    }

    fn pop(&mut self) -> Buf {
        // lint: allow(compiled programs are stack-balanced by construction)
        self.stack.pop().expect("non-empty eval stack")
    }
}

/// A compiled numeric (Int/Float/Date) postfix program.
#[derive(Debug, Clone)]
struct NumProgram {
    instrs: Vec<Instr>,
    out: NumType,
}

impl NumProgram {
    /// Compiles `expr` against `schema`, erring if the expression is
    /// not numeric (string columns or literals in arithmetic, dates as
    /// arithmetic operands).
    fn compile(expr: &ScalarExpr, schema: &Arc<Schema>) -> Result<Self, ExecError> {
        let mut instrs = Vec::new();
        let out = compile_num(expr, schema, &mut instrs)?;
        Ok(Self { instrs, out })
    }

    /// As [`NumProgram::compile`], but promotes an `Int` result to
    /// `Float` (the coercion every aggregate input goes through).
    fn compile_f64(expr: &ScalarExpr, schema: &Arc<Schema>) -> Result<Self, ExecError> {
        let mut p = Self::compile(expr, schema)?;
        match p.out {
            NumType::Float => {}
            NumType::Int => {
                p.instrs.push(Instr::CastIF);
                p.out = NumType::Float;
            }
            NumType::Date => {
                return Err(ExecError::plan(
                    "expression over a date column is not numeric",
                ))
            }
        }
        Ok(p)
    }

    /// Evaluates over all rows of `page`, returning the result buffer
    /// (callers must `scratch.recycle` it when done).
    fn eval_take(&self, page: &Page, scratch: &mut ExprScratch) -> Buf {
        let n = page.rows();
        debug_assert!(scratch.stack.is_empty());
        for instr in &self.instrs {
            match instr {
                Instr::ColI(c) => {
                    let mut v = scratch.take_i();
                    page.gather_i64(*c, &mut v);
                    scratch.stack.push(Buf::I(v));
                }
                Instr::ColF(c) => {
                    let mut v = scratch.take_f();
                    page.gather_f64(*c, &mut v);
                    scratch.stack.push(Buf::F(v));
                }
                Instr::ColD(c) => {
                    let mut v = scratch.take_d();
                    page.gather_date(*c, &mut v);
                    scratch.stack.push(Buf::D(v));
                }
                Instr::LitI(x) => {
                    let mut v = scratch.take_i();
                    v.clear();
                    v.resize(n, *x);
                    scratch.stack.push(Buf::I(v));
                }
                Instr::LitF(x) => {
                    let mut v = scratch.take_f();
                    v.clear();
                    v.resize(n, *x);
                    scratch.stack.push(Buf::F(v));
                }
                Instr::LitD(x) => {
                    let mut v = scratch.take_d();
                    v.clear();
                    v.resize(n, *x);
                    scratch.stack.push(Buf::D(v));
                }
                Instr::CastIF => {
                    let Buf::I(ints) = scratch.pop() else {
                        // lint: allow(the vector compiler emits type-correct stack programs; a mismatch is a compiler bug)
                        unreachable!("CastIF over a non-int buffer");
                    };
                    let mut v = scratch.take_f();
                    v.clear();
                    v.extend(ints.iter().map(|&x| x as f64));
                    scratch.free_i.push(ints);
                    scratch.stack.push(Buf::F(v));
                }
                Instr::AddI => int_binop(scratch, |x, y| ((x as f64) + (y as f64)) as i64),
                Instr::SubI => int_binop(scratch, |x, y| ((x as f64) - (y as f64)) as i64),
                Instr::MulI => int_binop(scratch, |x, y| ((x as f64) * (y as f64)) as i64),
                Instr::AddF => float_binop(scratch, |x, y| x + y),
                Instr::SubF => float_binop(scratch, |x, y| x - y),
                Instr::MulF => float_binop(scratch, |x, y| x * y),
                Instr::AddFLit(lit) => float_mapop(scratch, |x| x + *lit),
                Instr::SubFLit(lit) => float_mapop(scratch, |x| x - *lit),
                Instr::SubLitF(lit) => float_mapop(scratch, |x| *lit - x),
                Instr::MulFLit(lit) => float_mapop(scratch, |x| x * *lit),
            }
        }
        let result = scratch.pop();
        debug_assert!(scratch.stack.is_empty());
        result
    }
}

fn int_binop(scratch: &mut ExprScratch, f: impl Fn(i64, i64) -> i64) {
    let Buf::I(rhs) = scratch.pop() else {
        // lint: allow(the vector compiler emits type-correct stack programs; a mismatch is a compiler bug)
        unreachable!("int binop over non-int rhs");
    };
    let Some(Buf::I(lhs)) = scratch.stack.last_mut() else {
        // lint: allow(the vector compiler emits type-correct stack programs; a mismatch is a compiler bug)
        unreachable!("int binop over non-int lhs");
    };
    for (x, y) in lhs.iter_mut().zip(&rhs) {
        *x = f(*x, *y);
    }
    scratch.free_i.push(rhs);
}

fn float_binop(scratch: &mut ExprScratch, f: impl Fn(f64, f64) -> f64) {
    let Buf::F(rhs) = scratch.pop() else {
        // lint: allow(the vector compiler emits type-correct stack programs; a mismatch is a compiler bug)
        unreachable!("float binop over non-float rhs");
    };
    let Some(Buf::F(lhs)) = scratch.stack.last_mut() else {
        // lint: allow(the vector compiler emits type-correct stack programs; a mismatch is a compiler bug)
        unreachable!("float binop over non-float lhs");
    };
    for (x, y) in lhs.iter_mut().zip(&rhs) {
        *x = f(*x, *y);
    }
    scratch.free_f.push(rhs);
}

/// In-place map over the top float buffer — the fused scalar-literal
/// instructions' single pass (no literal buffer, no pop/push).
fn float_mapop(scratch: &mut ExprScratch, f: impl Fn(f64) -> f64) {
    let Some(Buf::F(top)) = scratch.stack.last_mut() else {
        // lint: allow(the vector compiler emits type-correct stack programs; a mismatch is a compiler bug)
        unreachable!("fused float op over non-float top");
    };
    for x in top.iter_mut() {
        *x = f(*x);
    }
}

/// The instruction set of one arithmetic operator: the int and float
/// stack forms plus the fused literal forms (`fused` for `top ⊕ lit`,
/// `fused_rev` for `lit ⊕ top` — identical for the commutative ops).
struct ArithOps {
    int_op: Instr,
    float_op: Instr,
    fused: fn(f64) -> Instr,
    fused_rev: fn(f64) -> Instr,
}

const ADD_OPS: ArithOps = ArithOps {
    int_op: Instr::AddI,
    float_op: Instr::AddF,
    fused: Instr::AddFLit,
    fused_rev: Instr::AddFLit,
};
const SUB_OPS: ArithOps = ArithOps {
    int_op: Instr::SubI,
    float_op: Instr::SubF,
    fused: Instr::SubFLit,
    fused_rev: Instr::SubLitF,
};
const MUL_OPS: ArithOps = ArithOps {
    int_op: Instr::MulI,
    float_op: Instr::MulF,
    fused: Instr::MulFLit,
    fused_rev: Instr::MulFLit,
};

/// Emits postfix instructions for `expr`; returns its type.
fn compile_num(
    expr: &ScalarExpr,
    schema: &Arc<Schema>,
    instrs: &mut Vec<Instr>,
) -> Result<NumType, ExecError> {
    match expr {
        ScalarExpr::Col(i) => {
            let field = schema
                .fields()
                .get(*i)
                .ok_or_else(|| crate::plan::column_range_error("expression", *i, schema))?;
            match field.dtype {
                DataType::Int => {
                    instrs.push(Instr::ColI(*i));
                    Ok(NumType::Int)
                }
                DataType::Float => {
                    instrs.push(Instr::ColF(*i));
                    Ok(NumType::Float)
                }
                DataType::Date => {
                    instrs.push(Instr::ColD(*i));
                    Ok(NumType::Date)
                }
                DataType::Str(_) => Err(ExecError::plan(format!(
                    "string column {i} in a numeric expression"
                ))),
            }
        }
        ScalarExpr::IntLit(v) => {
            instrs.push(Instr::LitI(*v));
            Ok(NumType::Int)
        }
        ScalarExpr::FloatLit(v) => {
            instrs.push(Instr::LitF(*v));
            Ok(NumType::Float)
        }
        ScalarExpr::DateLit(v) => {
            instrs.push(Instr::LitD(v.0));
            Ok(NumType::Date)
        }
        ScalarExpr::StrLit(s) => Err(ExecError::plan(format!(
            "string literal {s:?} in a numeric expression"
        ))),
        ScalarExpr::Add(a, b) => compile_arith(a, b, schema, instrs, &ADD_OPS),
        ScalarExpr::Sub(a, b) => compile_arith(a, b, schema, instrs, &SUB_OPS),
        ScalarExpr::Mul(a, b) => compile_arith(a, b, schema, instrs, &MUL_OPS),
    }
}

/// A numeric literal operand's value coerced to `f64` — exactly the
/// coercion the tree-walk applies to mixed int/float operands.
fn num_literal(expr: &ScalarExpr) -> Option<f64> {
    match expr {
        ScalarExpr::IntLit(v) => Some(*v as f64),
        ScalarExpr::FloatLit(v) => Some(*v),
        _ => None,
    }
}

fn compile_arith(
    a: &ScalarExpr,
    b: &ScalarExpr,
    schema: &Arc<Schema>,
    instrs: &mut Vec<Instr>,
    ops: &ArithOps,
) -> Result<NumType, ExecError> {
    let (ta, tb) = (expr_type_checked(a, schema)?, expr_type_checked(b, schema)?);
    let float_result = !(ta == DataType::Int && tb == DataType::Int);
    // Fused scalar-literal fast paths: a float-typed `expr ⊕ lit` (or
    // `lit ⊕ expr`) compiles to the other side's program plus one
    // in-place instruction — no broadcast literal buffer, no extra
    // stream pass. Results are bit-identical to the stack form: the
    // same f64 operation on the same operand values.
    if float_result {
        if let Some(lit) = num_literal(b) {
            let t = compile_num(a, schema, instrs)?;
            ensure_numeric(t)?;
            if t == NumType::Int {
                instrs.push(Instr::CastIF);
            }
            instrs.push((ops.fused)(lit));
            return Ok(NumType::Float);
        }
        if let Some(lit) = num_literal(a) {
            let t = compile_num(b, schema, instrs)?;
            ensure_numeric(t)?;
            if t == NumType::Int {
                instrs.push(Instr::CastIF);
            }
            instrs.push((ops.fused_rev)(lit));
            return Ok(NumType::Float);
        }
    }
    let ta = compile_num(a, schema, instrs)?;
    ensure_numeric(ta)?;
    if ta == NumType::Int && float_result {
        // The other side is non-int; promote before it lands on the
        // stack so the binop sees two floats.
        instrs.push(Instr::CastIF);
    }
    let tb = compile_num(b, schema, instrs)?;
    ensure_numeric(tb)?;
    if !float_result {
        instrs.push(ops.int_op.clone());
        Ok(NumType::Int)
    } else {
        if tb == NumType::Int {
            instrs.push(Instr::CastIF);
        }
        instrs.push(ops.float_op.clone());
        Ok(NumType::Float)
    }
}

fn ensure_numeric(t: NumType) -> Result<(), ExecError> {
    if t == NumType::Date {
        return Err(ExecError::plan("non-numeric (date) operand in arithmetic"));
    }
    Ok(())
}

/// A scalar expression compiled for page-at-a-time evaluation.
#[derive(Debug, Clone)]
pub struct CompiledExpr {
    kind: ExprKind,
}

#[derive(Debug, Clone)]
enum ExprKind {
    /// Pass a string column through untouched (projection only; the
    /// page bytes are already space-padded to the field width).
    StrCol(usize),
    /// Broadcast a string literal.
    StrLit(String),
    /// A numeric postfix program.
    Num(NumProgram),
}

impl CompiledExpr {
    /// Compiles `expr` against the input `schema`, erring on type
    /// errors (e.g. arithmetic over strings) — the plans the
    /// tree-walking `eval` would panic on at runtime.
    pub fn compile(expr: &ScalarExpr, schema: &Arc<Schema>) -> Result<Self, ExecError> {
        let kind = match expr {
            ScalarExpr::Col(i)
                if matches!(
                    schema.fields().get(*i).map(|f| f.dtype),
                    Some(DataType::Str(_))
                ) =>
            {
                ExprKind::StrCol(*i)
            }
            ScalarExpr::StrLit(s) => {
                if !s.is_ascii() {
                    return Err(ExecError::plan(format!(
                        "string literal {s:?} is not ASCII (pages store ASCII only)"
                    )));
                }
                ExprKind::StrLit(s.clone())
            }
            other => ExprKind::Num(NumProgram::compile(other, schema)?),
        };
        Ok(Self { kind })
    }

    /// Compiles a **numeric** `expr` with the result promoted to `f64`
    /// — the coercion every aggregate input goes through. String or
    /// date expressions err here, at plan time, so
    /// [`CompiledExpr::eval_f64_into`] cannot fail later.
    pub fn compile_f64(expr: &ScalarExpr, schema: &Arc<Schema>) -> Result<Self, ExecError> {
        Ok(Self {
            kind: ExprKind::Num(NumProgram::compile_f64(expr, schema)?),
        })
    }

    /// Evaluates the expression coerced to `f64` over all rows of
    /// `page` into `out` (cleared first) — the shape every aggregate
    /// input takes.
    ///
    /// # Panics
    ///
    /// Panics if the expression is a string or date (not numeric).
    pub fn eval_f64_into(&self, page: &Page, scratch: &mut ExprScratch, out: &mut Vec<f64>) {
        let ExprKind::Num(prog) = &self.kind else {
            // lint: allow(documented '# Panics' contract of eval_f64_into)
            panic!("string expression is not numeric");
        };
        // Promotion is baked in at compile time for aggregate use via
        // `compile_f64`; handle plain programs here too.
        let buf = prog.eval_take(page, scratch);
        out.clear();
        match &buf {
            Buf::F(v) => out.extend_from_slice(v),
            Buf::I(v) => out.extend(v.iter().map(|&x| x as f64)),
            // lint: allow(documented '# Panics' contract of eval_f64_into)
            Buf::D(_) => panic!("date expression is not numeric"),
        }
        scratch.recycle(buf);
    }

    /// Evaluates over all rows of `page` and encodes the result column
    /// into a row-major byte buffer: row `r`'s field bytes land at
    /// `out[r * stride + offset ..]`. `dtype` is the output field type
    /// (drives the encoding width).
    ///
    /// # Panics
    ///
    /// Panics if the evaluated type does not match `dtype` or a string
    /// does not fit its field width — the same plan bugs the
    /// tree-walking path panics on.
    pub fn encode_column(
        &self,
        page: &Page,
        scratch: &mut ExprScratch,
        dtype: DataType,
        out: &mut [u8],
        offset: usize,
        stride: usize,
    ) {
        let n = page.rows();
        match &self.kind {
            ExprKind::StrCol(c) => {
                let DataType::Str(width) = dtype else {
                    // lint: allow(documented '# Panics' contract of encode_column)
                    panic!("type mismatch: string column for {dtype:?} field");
                };
                let in_schema = page.schema();
                let in_off = in_schema.offset(*c);
                let DataType::Str(in_width) = in_schema.fields()[*c].dtype else {
                    // lint: allow(documented '# Panics' contract of encode_column)
                    panic!("StrCol over non-string input column");
                };
                assert_eq!(in_width, width, "string field width mismatch");
                for (r, raw) in page.raw_rows().enumerate() {
                    let dst = r * stride + offset;
                    out[dst..dst + width].copy_from_slice(&raw[in_off..in_off + width]);
                }
            }
            ExprKind::StrLit(s) => {
                let DataType::Str(width) = dtype else {
                    // lint: allow(documented '# Panics' contract of encode_column)
                    panic!("type mismatch: string literal for {dtype:?} field");
                };
                assert!(
                    s.len() <= width && s.is_ascii(),
                    "string '{s}' does not fit ASCII field of width {width}"
                );
                let mut padded = vec![b' '; width];
                padded[..s.len()].copy_from_slice(s.as_bytes());
                for r in 0..n {
                    let dst = r * stride + offset;
                    out[dst..dst + width].copy_from_slice(&padded);
                }
            }
            ExprKind::Num(prog) => {
                let buf = prog.eval_take(page, scratch);
                match (&buf, dtype) {
                    (Buf::I(v), DataType::Int) => {
                        for (r, x) in v.iter().enumerate() {
                            let dst = r * stride + offset;
                            out[dst..dst + 8].copy_from_slice(&x.to_le_bytes());
                        }
                    }
                    (Buf::F(v), DataType::Float) => {
                        for (r, x) in v.iter().enumerate() {
                            let dst = r * stride + offset;
                            out[dst..dst + 8].copy_from_slice(&x.to_le_bytes());
                        }
                    }
                    (Buf::D(v), DataType::Date) => {
                        for (r, x) in v.iter().enumerate() {
                            let dst = r * stride + offset;
                            out[dst..dst + 4].copy_from_slice(&x.to_le_bytes());
                        }
                    }
                    // lint: allow(documented '# Panics' contract of encode_column)
                    (buf, dtype) => panic!("type mismatch: {buf:?} column for {dtype:?} field"),
                }
                scratch.recycle(buf);
            }
        }
    }
}

/// A string column with its compile-time field width.
#[derive(Debug, Clone, Copy)]
struct StrCol {
    col: usize,
    width: usize,
}

impl StrCol {
    /// A reader of the column's bytes by row of `page`, in place and
    /// trimmed as `get_str` trims them.
    fn reader<'a>(self, page: &'a Page) -> impl Fn(u32) -> &'a [u8] {
        let (off, w) = field_at(page, self.col, DataType::Str(self.width));
        let data = page.payload();
        move |row| {
            let at = row as usize * w + off;
            let field = &data[at..at + self.width];
            &field[..field.iter().rposition(|&b| b != b' ').map_or(0, |i| i + 1)]
        }
    }
}

/// A `%`-wildcard LIKE pattern, split into byte fragments once at
/// compile time (bytes compare as the tree walk's `str`s do).
#[derive(Debug, Clone)]
struct LikePattern {
    /// The fragment before the first `%`: the field starts with it.
    head: Vec<u8>,
    /// The non-empty fragments between `%`s: found in order, no overlap.
    middle: Vec<Vec<u8>>,
    /// The fragment after the last `%`: the rest ends with it. `None`
    /// for a pattern without `%`, which the field must equal.
    tail: Option<Vec<u8>>,
}

impl LikePattern {
    fn new(pattern: &str) -> Self {
        let mut parts = pattern.split('%').map(|p| p.as_bytes().to_vec());
        let head = parts.next().unwrap_or_default();
        let tail = parts.next_back();
        let middle = parts.filter(|p| !p.is_empty()).collect();
        Self { head, middle, tail }
    }

    fn matches(&self, s: &[u8]) -> bool {
        let Some(tail) = &self.tail else {
            return s == self.head;
        };
        let Some(mut rest) = s.strip_prefix(&self.head[..]) else {
            return false;
        };
        for frag in &self.middle {
            match find(rest, frag) {
                Some(at) => rest = &rest[at + frag.len()..],
                None => return false,
            }
        }
        rest.strip_suffix(&tail[..]).is_some()
    }
}

/// First occurrence of the non-empty `needle` in `hay`.
fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    let first = *needle.first()?;
    hay.windows(needle.len())
        .position(|w| w[0] == first && w == needle)
}

/// The literal of a column-vs-literal leaf, typed as its column.
#[derive(Debug, Clone, Copy)]
enum Lit {
    I(i64),
    F(f64),
    D(i32),
}

/// One node of a compiled predicate: shrinks a selection vector in
/// place to the rows it accepts. `Or(p, q)` is `Not(And(Not p, Not q))`:
/// each disjunct sees only the rows no earlier one accepted.
#[derive(Debug, Clone)]
enum Refiner {
    /// `column <op> literal`, read straight out of the selected rows.
    ColLit { col: usize, op: CmpOp, lit: Lit },
    /// General numeric comparison: both programs (of one result type)
    /// evaluate densely, then `l[row] <op> r[row]` retains the selection.
    Cmp {
        l: NumProgram,
        r: NumProgram,
        op: CmpOp,
    },
    /// `string column <op> literal` over the space-trimmed field bytes.
    StrLit {
        col: StrCol,
        op: CmpOp,
        lit: Vec<u8>,
    },
    /// `string column <op> string column`.
    StrCols { l: StrCol, r: StrCol, op: CmpOp },
    /// `%`-wildcard LIKE over a string column.
    Like { col: StrCol, pattern: LikePattern },
    /// Conjunction: the children run in sequence, cheapest class first,
    /// until nothing is selected. Empty is `true`.
    And(Vec<Refiner>),
    /// Negation: the selection minus what the child keeps of it.
    Not(Box<Refiner>),
}

impl Refiner {
    /// Cost class ordering a conjunction: direct-read leaves, dense
    /// compares, string leaves; a combinator's is its costliest child's.
    fn class(&self) -> u8 {
        match self {
            Refiner::ColLit { .. } => 0,
            Refiner::Cmp { .. } => 1,
            Refiner::StrLit { .. } | Refiner::StrCols { .. } | Refiner::Like { .. } => 2,
            Refiner::And(children) => children.iter().map(Refiner::class).max().unwrap_or(0),
            Refiner::Not(child) => child.class(),
        }
    }

    fn refine(&self, page: &Page, scratch: &mut ExprScratch, sel: &mut Vec<u32>) {
        match self {
            &Refiner::ColLit { col, op, lit } => match lit {
                Lit::I(x) => retain_col(sel, page, col, DataType::Int, op, x, i64::from_le_bytes),
                Lit::F(x) => retain_col(sel, page, col, DataType::Float, op, x, f64::from_le_bytes),
                Lit::D(x) => retain_col(sel, page, col, DataType::Date, op, x, i32::from_le_bytes),
            },
            Refiner::Cmp { l, r, op } => {
                let (a, b) = (l.eval_take(page, scratch), r.eval_take(page, scratch));
                match (&a, &b) {
                    (Buf::I(a), Buf::I(b)) => retain_pairs(sel, *op, a, b),
                    (Buf::F(a), Buf::F(b)) => retain_pairs(sel, *op, a, b),
                    (Buf::D(a), Buf::D(b)) => retain_pairs(sel, *op, a, b),
                    // lint: allow(compile_cmp pairs two programs of one result type; a mismatch is a compiler bug)
                    _ => unreachable!("comparison over buffers of two types"),
                }
                scratch.recycle(a);
                scratch.recycle(b);
            }
            Refiner::StrLit { col, op, lit } => {
                let field = col.reader(page);
                retain(sel, |row| op.holds(field(row).cmp(lit)));
            }
            Refiner::StrCols { l, r, op } => {
                let (a, b) = (l.reader(page), r.reader(page));
                retain(sel, |row| op.holds(a(row).cmp(b(row))));
            }
            Refiner::Like { col, pattern } => {
                let field = col.reader(page);
                retain(sel, |row| pattern.matches(field(row)));
            }
            Refiner::And(children) => {
                for child in children {
                    if sel.is_empty() {
                        break;
                    }
                    child.refine(page, scratch, sel);
                }
            }
            Refiner::Not(child) => {
                let mut kept = scratch.free_sel.pop().unwrap_or_default();
                kept.clone_from(sel);
                child.refine(page, scratch, &mut kept);
                // Sorted difference: both ascend and `kept` ⊆ `sel`.
                let mut k = 0;
                sel.retain(|r| {
                    let hit = kept.get(k) == Some(r);
                    k += hit as usize;
                    !hit
                });
                scratch.free_sel.push(kept);
            }
        }
    }
}

/// Resolves field `col` on this page to `(offset in the row, row
/// width)`, asserting — as `Page::gather_*` do — that it has the
/// compile-time type: a page of another schema fails here instead of
/// comparing another column's bytes. Reads are checked payload slices.
fn field_at(page: &Page, col: usize, want: DataType) -> (usize, usize) {
    let schema = page.schema();
    let dtype = schema.fields()[col].dtype;
    assert_eq!(dtype, want, "select type mismatch on field {col}");
    (schema.offset(col), schema.row_width())
}

/// Keeps the rows of `sel` whose field `col`, decoded in place from its
/// `N` bytes at `row * row_width + offset`, satisfies `<op> lit`.
fn retain_col<T: PartialOrd + Copy, const N: usize>(
    sel: &mut Vec<u32>,
    page: &Page,
    col: usize,
    want: DataType,
    op: CmpOp,
    lit: T,
    decode: impl Fn([u8; N]) -> T,
) {
    let (off, w) = field_at(page, col, want);
    let data = page.payload();
    let field = |row: u32| {
        let at = row as usize * w + off;
        let mut bytes = [0; N];
        bytes.copy_from_slice(&data[at..at + N]);
        decode(bytes)
    };
    retain_cmp(sel, op, field, |_| lit);
}

/// Keeps the rows of `sel` where `a[row] <op> b[row]`.
fn retain_pairs<T: PartialOrd + Copy>(sel: &mut Vec<u32>, op: CmpOp, a: &[T], b: &[T]) {
    retain_cmp(sel, op, |r| a[r as usize], |r| b[r as usize]);
}

/// Keeps the rows of `sel` that `keep` accepts, in order and without a
/// branch per row.
fn retain(sel: &mut Vec<u32>, keep: impl Fn(u32) -> bool) {
    let mut k = 0;
    for i in 0..sel.len() {
        let row = sel[i];
        sel[k] = row;
        k += keep(row) as usize;
    }
    sel.truncate(k);
}

/// Keeps the rows of `sel` where `a(row) <op> b(row)`, the branch on
/// `op` hoisted out of the loop. NaN follows IEEE: only `Ne` holds.
fn retain_cmp<T: PartialOrd>(
    sel: &mut Vec<u32>,
    op: CmpOp,
    a: impl Fn(u32) -> T,
    b: impl Fn(u32) -> T,
) {
    match op {
        CmpOp::Eq => retain(sel, |r| a(r) == b(r)),
        CmpOp::Ne => retain(sel, |r| a(r) != b(r)),
        CmpOp::Lt => retain(sel, |r| a(r) < b(r)),
        CmpOp::Le => retain(sel, |r| a(r) <= b(r)),
        CmpOp::Gt => retain(sel, |r| a(r) > b(r)),
        CmpOp::Ge => retain(sel, |r| a(r) >= b(r)),
    }
}

/// A predicate compiled for page-at-a-time evaluation into selection
/// vectors.
#[derive(Debug, Clone)]
pub struct CompiledPredicate {
    root: Refiner,
}

impl CompiledPredicate {
    /// Compiles `pred` against the input `schema`, erring on type
    /// errors (incomparable operand types, LIKE over a non-string
    /// column, out-of-range columns).
    pub fn compile(pred: &Predicate, schema: &Arc<Schema>) -> Result<Self, ExecError> {
        compile_pred(pred, schema).map(|root| Self { root })
    }

    /// Evaluates over all rows of `page`, leaving the indices of
    /// passing rows in `sel` (cleared first) in ascending order.
    pub fn select(&self, page: &Page, scratch: &mut ExprScratch, sel: &mut Vec<u32>) {
        sel.clear();
        sel.extend(0..page.rows() as u32);
        self.root.refine(page, scratch, sel);
    }
}

fn compile_pred(pred: &Predicate, schema: &Arc<Schema>) -> Result<Refiner, ExecError> {
    Ok(match pred {
        Predicate::True => Refiner::And(Vec::new()),
        Predicate::Cmp { left, op, right } => compile_cmp(left, *op, right, schema)?,
        Predicate::And(ps) => conjunction(ps.iter().map(|p| compile_pred(p, schema)))?,
        Predicate::Or(ps) => negate(conjunction(
            ps.iter().map(|p| compile_pred(p, schema).map(negate)),
        )?),
        Predicate::Not(p) => negate(compile_pred(p, schema)?),
        Predicate::Like { col, pattern } => {
            let dtype = schema
                .fields()
                .get(*col)
                .map(|f| f.dtype)
                .ok_or_else(|| crate::plan::column_range_error("LIKE", *col, schema))?;
            let DataType::Str(width) = dtype else {
                return Err(ExecError::plan(format!(
                    "LIKE over non-string column {col} ({dtype:?})"
                )));
            };
            let (col, pattern) = (StrCol { col: *col, width }, LikePattern::new(pattern));
            Refiner::Like { col, pattern }
        }
    })
}

/// `Not(r)`, with a double negation cancelled.
fn negate(r: Refiner) -> Refiner {
    match r {
        Refiner::Not(inner) => *inner,
        other => Refiner::Not(Box::new(other)),
    }
}

/// The conjunction of `children`, ordered cheapest class first (stable
/// within a class) so the costly leaves see only the survivors.
fn conjunction(
    children: impl Iterator<Item = Result<Refiner, ExecError>>,
) -> Result<Refiner, ExecError> {
    let mut all = children.collect::<Result<Vec<_>, _>>()?;
    all.sort_by_key(Refiner::class);
    Ok(Refiner::And(all))
}

fn compile_cmp(
    left: &ScalarExpr,
    op: CmpOp,
    right: &ScalarExpr,
    schema: &Arc<Schema>,
) -> Result<Refiner, ExecError> {
    // `lit op col` is `col op' lit`, which takes the leaf path below.
    if matches!(right, ScalarExpr::Col(_)) && !matches!(left, ScalarExpr::Col(_)) {
        return compile_cmp(right, op.mirrored(), left, schema);
    }
    let (tl, tr) = (
        expr_type_checked(left, schema)?,
        expr_type_checked(right, schema)?,
    );
    // Column-vs-literal leaves for the dominant predicate shape.
    if let ScalarExpr::Col(col) = left {
        let lit = match (right, tl) {
            (ScalarExpr::IntLit(v), DataType::Int) => Some(Lit::I(*v)),
            (ScalarExpr::FloatLit(v), DataType::Float) => Some(Lit::F(*v)),
            (ScalarExpr::DateLit(v), DataType::Date) => Some(Lit::D(v.0)),
            _ => None,
        };
        if let Some(lit) = lit {
            return Ok(Refiner::ColLit { col: *col, op, lit });
        }
    }
    Ok(match (tl, tr) {
        (DataType::Int, DataType::Int) | (DataType::Date, DataType::Date) => Refiner::Cmp {
            l: NumProgram::compile(left, schema)?,
            r: NumProgram::compile(right, schema)?,
            op,
        },
        // Only columns and literals are string-typed, and a literal
        // facing a column is on the right by now.
        (DataType::Str(lw), DataType::Str(rw)) => match (left, right) {
            (ScalarExpr::Col(col), ScalarExpr::StrLit(lit)) => Refiner::StrLit {
                col: StrCol {
                    col: *col,
                    width: lw,
                },
                op,
                lit: lit.as_bytes().to_vec(),
            },
            (ScalarExpr::Col(l), ScalarExpr::Col(r)) => Refiner::StrCols {
                l: StrCol { col: *l, width: lw },
                r: StrCol { col: *r, width: rw },
                op,
            },
            (ScalarExpr::StrLit(a), ScalarExpr::StrLit(b)) => match op.holds(a.cmp(b)) {
                true => Refiner::And(Vec::new()),
                false => negate(Refiner::And(Vec::new())),
            },
            (l, r) => {
                return Err(ExecError::plan(format!(
                    "string-typed comparison operand must be a column or literal: {l:?} vs {r:?}"
                )))
            }
        },
        (DataType::Int | DataType::Float, DataType::Int | DataType::Float) => Refiner::Cmp {
            l: NumProgram::compile_f64(left, schema)?,
            r: NumProgram::compile_f64(right, schema)?,
            op,
        },
        (tl, tr) => {
            return Err(ExecError::plan(format!(
                "incomparable operand types: {tl:?} vs {tr:?}"
            )))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::Scalar;
    use cordoba_storage::{Date, Field, PageBuilder, Value};

    fn page() -> Arc<Page> {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("qty", DataType::Float),
            Field::new("ship", DataType::Date),
            Field::new("mode", DataType::Str(6)),
        ]);
        let mut b = PageBuilder::new(schema);
        for i in 0..50i64 {
            b.push_row(&[
                Value::Int(i - 25),
                Value::Float(i as f64 * 0.5),
                Value::Date(Date(8000 + i as i32)),
                Value::Str(if i % 3 == 0 { "RAIL" } else { "AIR" }.into()),
            ]);
        }
        b.finish()
    }

    fn tree_select(pred: &Predicate, page: &Page) -> Vec<u32> {
        page.tuples()
            .enumerate()
            .filter_map(|(r, t)| pred.eval(&t).then_some(r as u32))
            .collect()
    }

    #[test]
    fn col_lit_fast_paths_match_tree_walk() {
        let p = page();
        let mut scratch = ExprScratch::default();
        let mut sel = Vec::new();
        for pred in [
            Predicate::col_cmp(0, CmpOp::Ge, 3i64),
            Predicate::col_cmp(1, CmpOp::Lt, 11.25),
            Predicate::col_cmp(2, CmpOp::Gt, Date(8030)),
            Predicate::col_cmp(3, CmpOp::Eq, "RAIL"),
        ] {
            let compiled = CompiledPredicate::compile(&pred, p.schema()).expect("compiles");
            compiled.select(&p, &mut scratch, &mut sel);
            assert_eq!(sel, tree_select(&pred, &p), "{pred:?}");
        }
    }

    #[test]
    fn boolean_combinators_match_tree_walk() {
        let p = page();
        let mut scratch = ExprScratch::default();
        let mut sel = Vec::new();
        let pred = Predicate::Or(vec![
            Predicate::And(vec![
                Predicate::col_cmp(0, CmpOp::Ge, -10i64),
                Predicate::col_cmp(0, CmpOp::Lt, 0i64),
                Predicate::Not(Box::new(Predicate::col_cmp(1, CmpOp::Gt, 5.0))),
            ]),
            Predicate::Like {
                col: 3,
                pattern: "RA%".into(),
            },
            Predicate::And(vec![]),
        ]);
        let compiled = CompiledPredicate::compile(&pred, p.schema()).expect("compiles");
        compiled.select(&p, &mut scratch, &mut sel);
        assert_eq!(sel, tree_select(&pred, &p));
        // And(vec![]) is `true`, so the Or selects everything.
        assert_eq!(sel.len(), p.rows());
    }

    #[test]
    fn mixed_numeric_comparison_coerces_like_tree_walk() {
        let p = page();
        let mut scratch = ExprScratch::default();
        let mut sel = Vec::new();
        // Int column vs float literal: tree-walk coerces through f64.
        let pred = Predicate::col_cmp(0, CmpOp::Ge, 1.5);
        let compiled = CompiledPredicate::compile(&pred, p.schema()).expect("compiles");
        compiled.select(&p, &mut scratch, &mut sel);
        assert_eq!(sel, tree_select(&pred, &p));
        // Expression-vs-expression comparison.
        let pred = Predicate::cmp(
            ScalarExpr::Mul(
                Box::new(ScalarExpr::col(1)),
                Box::new(ScalarExpr::FloatLit(2.0)),
            ),
            CmpOp::Gt,
            ScalarExpr::Add(
                Box::new(ScalarExpr::col(0)),
                Box::new(ScalarExpr::IntLit(20)),
            ),
        );
        let compiled = CompiledPredicate::compile(&pred, p.schema()).expect("compiles");
        compiled.select(&p, &mut scratch, &mut sel);
        assert_eq!(sel, tree_select(&pred, &p));
    }

    #[test]
    fn eval_f64_matches_tree_walk() {
        let p = page();
        let mut scratch = ExprScratch::default();
        let mut out = Vec::new();
        // qty * (k + 3) mixes float and int subtrees.
        let expr = ScalarExpr::Mul(
            Box::new(ScalarExpr::col(1)),
            Box::new(ScalarExpr::Add(
                Box::new(ScalarExpr::col(0)),
                Box::new(ScalarExpr::IntLit(3)),
            )),
        );
        let compiled = CompiledExpr::compile(&expr, p.schema()).expect("compiles");
        compiled.eval_f64_into(&p, &mut scratch, &mut out);
        for (r, t) in p.tuples().enumerate() {
            assert_eq!(Some(out[r]), expr.eval(&t).as_f64());
        }
        // Pure-int expressions keep the tree-walk's f64 round-trip.
        let expr = ScalarExpr::Mul(
            Box::new(ScalarExpr::col(0)),
            Box::new(ScalarExpr::IntLit(7)),
        );
        let compiled = CompiledExpr::compile(&expr, p.schema()).expect("compiles");
        compiled.eval_f64_into(&p, &mut scratch, &mut out);
        for (r, t) in p.tuples().enumerate() {
            match expr.eval(&t) {
                Scalar::Int(v) => assert_eq!(out[r], v as f64),
                other => panic!("expected int, got {other:?}"),
            }
        }
    }

    #[test]
    fn encode_column_round_trips_all_types() {
        let p = page();
        let out_schema = Schema::new(vec![
            Field::new("k2", DataType::Int),
            Field::new("q", DataType::Float),
            Field::new("ship", DataType::Date),
            Field::new("mode", DataType::Str(6)),
            Field::new("tag", DataType::Str(3)),
        ]);
        let exprs = [
            ScalarExpr::Add(
                Box::new(ScalarExpr::col(0)),
                Box::new(ScalarExpr::IntLit(1)),
            ),
            ScalarExpr::col(1),
            ScalarExpr::col(2),
            ScalarExpr::col(3),
            ScalarExpr::StrLit("ab".into()),
        ];
        let mut scratch = ExprScratch::default();
        let w = out_schema.row_width();
        let mut bytes = vec![0u8; p.rows() * w];
        for (i, e) in exprs.iter().enumerate() {
            CompiledExpr::compile(e, p.schema())
                .expect("compiles")
                .encode_column(
                    &p,
                    &mut scratch,
                    out_schema.fields()[i].dtype,
                    &mut bytes,
                    out_schema.offset(i),
                    w,
                );
        }
        let mut b = PageBuilder::new(out_schema);
        for row in bytes.chunks_exact(w) {
            assert!(b.push_raw(row));
        }
        let got = b.finish();
        for (r, t) in p.tuples().enumerate() {
            let g = got.tuple(r);
            assert_eq!(g.get_int(0), t.get_int(0) + 1);
            assert_eq!(g.get_float(1), t.get_float(1));
            assert_eq!(g.get_date(2), t.get_date(2));
            assert_eq!(g.get_str(3), t.get_str(3));
            assert_eq!(g.get_str(4), "ab");
        }
    }

    #[test]
    fn string_arithmetic_errors_at_compile() {
        let p = page();
        let expr = ScalarExpr::Add(
            Box::new(ScalarExpr::col(3)),
            Box::new(ScalarExpr::IntLit(1)),
        );
        let err = CompiledExpr::compile(&expr, p.schema()).unwrap_err();
        assert!(err.to_string().contains("numeric"), "{err}");
    }

    #[test]
    fn date_vs_float_comparison_errors_at_compile() {
        let p = page();
        let pred = Predicate::col_cmp(2, CmpOp::Lt, 3.0);
        let err = CompiledPredicate::compile(&pred, p.schema()).unwrap_err();
        assert!(err.to_string().contains("incomparable"), "{err}");
    }

    #[test]
    fn out_of_range_column_errors_at_compile() {
        let p = page();
        let err = CompiledExpr::compile(&ScalarExpr::col(99), p.schema()).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
        let err = CompiledPredicate::compile(&Predicate::col_cmp(99, CmpOp::Eq, 1i64), p.schema())
            .unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn fused_literal_programs_match_tree_walk_bit_for_bit() {
        // `price * (1 - discount)`-shaped expressions exercise SubLitF
        // and MulFLit; `qty * 2 + 0.5` exercises MulFLit + AddFLit on a
        // promoted int subtree. The fused program must agree with the
        // tree walk bit-for-bit (same f64 ops on the same operands).
        let p = page();
        let mut scratch = ExprScratch::default();
        let mut fused = Vec::new();
        let exprs = [
            ScalarExpr::Mul(
                Box::new(ScalarExpr::col(1)),
                Box::new(ScalarExpr::Sub(
                    Box::new(ScalarExpr::FloatLit(1.0)),
                    Box::new(ScalarExpr::col(1)),
                )),
            ),
            ScalarExpr::Add(
                Box::new(ScalarExpr::Mul(
                    Box::new(ScalarExpr::col(0)),
                    Box::new(ScalarExpr::FloatLit(2.0)),
                )),
                Box::new(ScalarExpr::FloatLit(0.5)),
            ),
            ScalarExpr::Sub(
                Box::new(ScalarExpr::col(1)),
                Box::new(ScalarExpr::IntLit(3)),
            ),
        ];
        for expr in &exprs {
            let f = CompiledExpr::compile(expr, p.schema()).expect("compiles");
            f.eval_f64_into(&p, &mut scratch, &mut fused);
            for (r, t) in p.tuples().enumerate() {
                let expected = expr.eval(&t).as_f64().expect("numeric");
                assert_eq!(fused[r].to_bits(), expected.to_bits(), "{expr:?} row {r}");
            }
        }
    }

    #[test]
    fn scratch_buffers_recycle_across_pages() {
        let p = page();
        let mut scratch = ExprScratch::default();
        let mut sel = Vec::new();
        // Uses every pool: temporary selections (`Not`, `Or`) and the
        // typed buffers of a dense compare.
        let pred = Predicate::And(vec![
            Predicate::Not(Box::new(Predicate::Or(vec![
                Predicate::col_cmp(0, CmpOp::Lt, -20i64),
                Predicate::Not(Box::new(Predicate::col_cmp(3, CmpOp::Ne, "RAIL"))),
            ]))),
            Predicate::cmp(ScalarExpr::col(1), CmpOp::Ge, ScalarExpr::col(0)),
        ]);
        let compiled = CompiledPredicate::compile(&pred, p.schema()).expect("compiles");
        let footprint = |scratch: &ExprScratch, sel: &Vec<u32>| {
            let caps = |pool: &[Vec<u32>]| pool.iter().map(Vec::capacity).collect::<Vec<_>>();
            (
                caps(&scratch.free_sel),
                scratch.free_i.iter().map(Vec::capacity).collect::<Vec<_>>(),
                scratch.free_f.iter().map(Vec::capacity).collect::<Vec<_>>(),
                sel.capacity(),
            )
        };
        compiled.select(&p, &mut scratch, &mut sel);
        assert_eq!(sel, tree_select(&pred, &p));
        let first = footprint(&scratch, &sel);
        assert!(!first.0.is_empty() && !first.2.is_empty(), "{first:?}");
        // The second and third select over the same page allocate
        // nothing: same buffers, same capacities.
        for _ in 0..2 {
            compiled.select(&p, &mut scratch, &mut sel);
            assert_eq!(sel, tree_select(&pred, &p));
            assert!(scratch.stack.is_empty());
            assert_eq!(footprint(&scratch, &sel), first);
        }
    }

    /// A page of `n` rows over the fixture's schema.
    fn page_of(n: i64) -> Arc<Page> {
        let mut b = PageBuilder::new(page().schema().clone());
        for i in 0..n {
            b.push_row(&[
                Value::Int(i),
                Value::Float(i as f64),
                Value::Date(Date(i as i32)),
                Value::Str(if i % 2 == 0 { "RAIL" } else { "AIR" }.into()),
            ]);
        }
        b.finish()
    }

    fn assert_matches_tree_walk(pred: &Predicate, p: &Page) -> Vec<u32> {
        let compiled = CompiledPredicate::compile(pred, p.schema()).expect("compiles");
        let mut sel = vec![7, 7, 7]; // `select` clears what it is given
        compiled.select(p, &mut ExprScratch::default(), &mut sel);
        assert_eq!(sel, tree_select(pred, p), "{pred:?} over {} rows", p.rows());
        sel
    }

    #[test]
    fn empty_single_and_full_pages_all_pass_and_none_pass() {
        for n in [0, 1, 64] {
            let p = page_of(n);
            let everything: Vec<u32> = (0..n as u32).collect();
            let lit = |s: &str| ScalarExpr::StrLit(s.into());
            let ab = |op| Predicate::cmp(lit("a"), op, lit("b"));
            for all_pass in [
                Predicate::True,
                ab(CmpOp::Lt),
                Predicate::And(vec![]),
                Predicate::col_cmp(0, CmpOp::Ge, 0i64),
                Predicate::Not(Box::new(Predicate::Or(vec![]))),
                Predicate::Like {
                    col: 3,
                    pattern: "%".into(),
                },
            ] {
                assert_eq!(assert_matches_tree_walk(&all_pass, &p), everything);
            }
            for none_pass in [
                Predicate::Or(vec![]),
                ab(CmpOp::Eq),
                Predicate::col_cmp(1, CmpOp::Lt, 0.0),
                Predicate::Not(Box::new(Predicate::True)),
                Predicate::col_cmp(3, CmpOp::Eq, "TRUCK"),
            ] {
                assert!(assert_matches_tree_walk(&none_pass, &p).is_empty());
            }
            let halves = assert_matches_tree_walk(&Predicate::col_cmp(3, CmpOp::Eq, "AIR"), &p);
            assert_eq!(halves.len(), n as usize / 2);
        }
    }

    #[test]
    fn nested_combinators_match_tree_walk() {
        let p = page();
        let rail = Predicate::col_cmp(3, CmpOp::Eq, "RAIL");
        let low = Predicate::col_cmp(0, CmpOp::Lt, -5i64);
        let late = Predicate::col_cmp(2, CmpOp::Ge, Date(8040));
        let diag = Predicate::cmp(ScalarExpr::col(1), CmpOp::Gt, ScalarExpr::col(0));
        for pred in [
            Predicate::Not(Box::new(Predicate::Or(vec![low.clone(), rail.clone()]))),
            Predicate::Not(Box::new(Predicate::And(vec![
                diag.clone(),
                Predicate::Or(vec![late.clone(), rail.clone(), low.clone()]),
            ]))),
            Predicate::Or(vec![
                Predicate::Not(Box::new(rail.clone())),
                Predicate::And(vec![rail, Predicate::Not(Box::new(diag)), late]),
            ]),
            // `lit op col` takes the leaf path with the operator mirrored.
            Predicate::cmp(ScalarExpr::IntLit(3), CmpOp::Lt, ScalarExpr::col(0)),
            Predicate::cmp(ScalarExpr::FloatLit(11.5), CmpOp::Ge, ScalarExpr::col(1)),
        ] {
            let sel = assert_matches_tree_walk(&pred, &p);
            assert!(!sel.is_empty() && sel.len() < p.rows(), "{pred:?}");
        }
    }

    #[test]
    fn nan_follows_ieee_through_the_direct_read_leaf() {
        let schema = Schema::new(vec![Field::new("x", DataType::Float)]);
        let mut b = PageBuilder::new(schema);
        for x in [1.0, f64::NAN, 3.0] {
            b.push_row(&[Value::Float(x)]);
        }
        let p = b.finish();
        let select = |op, lit: f64| {
            let pred = Predicate::col_cmp(0, op, lit);
            let compiled = CompiledPredicate::compile(&pred, p.schema()).expect("compiles");
            let mut sel = Vec::new();
            compiled.select(&p, &mut ExprScratch::default(), &mut sel);
            sel
        };
        // A NaN column value: only `Ne` holds for its row.
        assert_eq!(select(CmpOp::Ne, 3.0), [0, 1]);
        assert_eq!(select(CmpOp::Eq, 3.0), [2]);
        assert_eq!(select(CmpOp::Lt, 3.0), [0]);
        assert_eq!(select(CmpOp::Le, 3.0), [0, 2]);
        assert_eq!(select(CmpOp::Gt, 1.0), [2]);
        assert_eq!(select(CmpOp::Ge, 1.0), [0, 2]);
        // A NaN literal: `Ne` holds for every row, the other five for none.
        assert_eq!(select(CmpOp::Ne, f64::NAN), [0, 1, 2]);
        for op in [CmpOp::Eq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            assert!(select(op, f64::NAN).is_empty(), "{op:?}");
        }
    }

    /// The fixture's rows under a schema whose field 1 is a `Date`, not
    /// the `Float` the predicates below were compiled for.
    fn page_of_another_schema() -> Arc<Page> {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("day", DataType::Date),
        ]);
        let mut b = PageBuilder::new(schema);
        for i in 0..10 {
            b.push_row(&[Value::Int(i), Value::Date(Date(i as i32))]);
        }
        b.finish()
    }

    #[test]
    fn emptied_conjunction_leaves_later_leaves_untouched() {
        let pred = Predicate::And(vec![
            Predicate::col_cmp(0, CmpOp::Lt, -1000i64),
            Predicate::col_cmp(1, CmpOp::Ge, 0.0),
        ]);
        let compiled = CompiledPredicate::compile(&pred, page().schema()).expect("compiles");
        // The first leaf empties the selection, so the second — which
        // would trip the schema assertion on this page — never runs.
        let mut sel = vec![1];
        compiled.select(
            &page_of_another_schema(),
            &mut ExprScratch::default(),
            &mut sel,
        );
        assert!(sel.is_empty());
    }

    #[test]
    #[should_panic(expected = "select type mismatch on field 1")]
    fn page_of_another_schema_trips_the_assertion() {
        let pred = Predicate::col_cmp(1, CmpOp::Ge, 0.0);
        let compiled = CompiledPredicate::compile(&pred, page().schema()).expect("compiles");
        let mut sel = Vec::new();
        compiled.select(
            &page_of_another_schema(),
            &mut ExprScratch::default(),
            &mut sel,
        );
    }
}
